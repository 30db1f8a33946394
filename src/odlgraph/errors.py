"""Exception types shared across the package."""

from __future__ import annotations


class OdlError(Exception):
    """Base class for every error raised by this library."""


class DuplicateId(OdlError):
    """An id is already taken within its namespace."""

    def __init__(self, entity_id: str, kind: str = "entity", line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"duplicate {kind} id: {entity_id!r}{where}")
        self.entity_id = entity_id
        self.kind = kind
        self.line_no = line_no


class DanglingRef(OdlError):
    """A reference names an id that does not resolve."""

    def __init__(self, missing_id: str, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"unresolved reference: {missing_id!r}{where}")
        self.missing_id = missing_id
        self.line_no = line_no


class ParseError(OdlError, ValueError):
    """A document could not be parsed; also a ``ValueError``, as the bad input is a bad value."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class NonAdjacentStep(OdlError):
    """Strict experience building hit a step between unconnected activities."""

    def __init__(self, position: int, from_id: str, to_id: str):
        super().__init__(
            f"visit {position}: no connection from {from_id!r} to {to_id!r}"
        )
        self.position = position
        self.from_id = from_id
        self.to_id = to_id


class LearnerMismatch(OdlError):
    """Sessions from different learners were combined."""


class GraphTooLarge(OdlError):
    """A combinatorial guard tripped before an explosive computation."""

    def __init__(self, actual: int, guard: int, what: str = "nodes"):
        super().__init__(f"{what}: {actual} exceeds guard of {guard}")
        self.actual = actual
        self.guard = guard


class StyleMismatch(OdlError):
    """An export style requires an input that was not supplied."""


class UnsupportedFormat(OdlError):
    """The requested serialization format cannot represent the input."""


class EmptyContent(OdlError):
    """A message carried no note pointers."""


class AccessDenied(OdlError):
    """The requester may not see the referenced note."""
