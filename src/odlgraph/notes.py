"""Learner notes and the note-pointer messaging system.

Notes hang off course activities with three access levels: private (author
only), tutors (tutors plus the author) and all.  Messages carry no prose at
all, only pointers to notes the sender can see; the Message type simply has
no body field.

A store binds one course environment and is append-only; operations return
a new store.  Persistence is one JSON object per line with a ``kind``
discriminator, written deterministically so a flush/reload/flush cycle is
byte-identical.  Records map one to one onto the dataclass fields.  Loading
re-checks every note as :func:`attach_note` does, every message's id and
``sent_at`` as :func:`send_message` does, and that every message points at
stored notes; a malformed record is a :class:`ParseError` naming its line.
A flush replaces the file atomically.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from pathlib import Path

from .errors import AccessDenied, DanglingRef, DuplicateId, EmptyContent, ParseError
from .model import LearningEnvironment
from .options import NoteAccess
from .text import lines, read_text

BROADCAST = "*"


@dataclass(frozen=True)
class LearnerNote:
    note_id: str
    node_id: str
    learner_id: str
    timestamp: int
    access: NoteAccess = NoteAccess.PRIVATE
    body: str = ""
    attachments: tuple[str, ...] = ()


@dataclass(frozen=True)
class Message:
    """Pointer-only mail: recipients get note references, never free text."""

    message_id: str
    sender_id: str
    recipients: tuple[str, ...] | str  # explicit ids, or BROADCAST
    note_refs: tuple[str, ...]
    sent_at: int

    def __post_init__(self) -> None:
        if self.recipients != BROADCAST:
            object.__setattr__(self, "recipients", tuple(sorted(set(self.recipients))))
        object.__setattr__(self, "note_refs", tuple(self.note_refs))


@dataclass(frozen=True)
class NoteStore:
    env: LearningEnvironment
    notes: dict[str, LearnerNote] = field(default_factory=dict)
    messages: dict[str, Message] = field(default_factory=dict)


def new_store(env: LearningEnvironment) -> NoteStore:
    return NoteStore(env)


def _check_note(notes: dict[str, LearnerNote], env: LearningEnvironment, note: LearnerNote,
                line_no: int | None = None) -> None:
    """The rules every stored note keeps, whether attached or loaded."""
    if note.note_id in notes:
        raise DuplicateId(note.note_id, "note")
    if note.node_id not in env.activities:
        raise DanglingRef(note.node_id, line_no)
    if note.timestamp < 0:
        raise ValueError("note timestamp must be non-negative")


def _check_message(messages: dict[str, Message], message: Message) -> None:
    """The rules every stored message keeps on its own, whether sent or loaded."""
    if message.message_id in messages:
        raise DuplicateId(message.message_id, "message")
    if message.sent_at < 0:
        raise ValueError("message sent_at must be non-negative")


def attach_note(store: NoteStore, note: LearnerNote) -> NoteStore:
    """Append one note; the target activity must exist in the store's course."""
    _check_note(store.notes, store.env, note)
    notes = dict(store.notes)
    notes[note.note_id] = note
    return replace(store, notes=notes)


def can_view(note: LearnerNote, requester_id: str, requester_role: str) -> bool:
    if note.learner_id == requester_id:
        return True
    if note.access is NoteAccess.ALL:
        return True
    if note.access is NoteAccess.TUTORS:
        return requester_role == "tutor"
    return False


def list_notes(
    store: NoteStore,
    node_id: str,
    requester_id: str,
    requester_role: str = "learner",
) -> list[LearnerNote]:
    """Notes on one activity that the requester may see, oldest first."""
    if node_id not in store.env.activities:
        raise DanglingRef(node_id)
    visible = [
        n
        for n in store.notes.values()
        if n.node_id == node_id and can_view(n, requester_id, requester_role)
    ]
    return sorted(visible, key=lambda n: (n.timestamp, n.note_id))


def send_message(store: NoteStore, message: Message, sender_role: str = "learner") -> NoteStore:
    """Store a message after checking the sender can see every referenced note."""
    _check_message(store.messages, message)
    if not message.note_refs:
        raise EmptyContent("a message must reference at least one note")
    for ref in message.note_refs:
        note = store.notes.get(ref)
        if note is None:
            raise DanglingRef(ref)
        if not can_view(note, message.sender_id, sender_role):
            raise AccessDenied(f"sender {message.sender_id!r} may not reference note {ref!r}")
    messages = dict(store.messages)
    messages[message.message_id] = message
    return replace(store, messages=messages)


def inbox(store: NoteStore, user_id: str) -> list[Message]:
    """Messages addressed to the user or broadcast, oldest first."""
    mine = [
        m
        for m in store.messages.values()
        if m.recipients == BROADCAST or user_id in m.recipients
    ]
    return sorted(mine, key=lambda m: (m.sent_at, m.message_id))


# --- persistence ------------------------------------------------------------


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_DECODER = json.JSONDecoder()


def _exactly(json_type: type, name: str):
    def read(value):
        if type(value) is not json_type:  # exact: a JSON true or false is a bool, not an int
            raise ValueError(f"expected {name}")
        return value
    return read


def _str_tuple(value) -> tuple[str, ...]:
    if type(value) is not list or not all(type(v) is str for v in value):
        raise ValueError("expected a list of strings")
    return tuple(value)


# Per field annotation: the function that checks a stored JSON value and returns the field value.
_READERS = {
    "str": _exactly(str, "a string"),
    "int": _exactly(int, "an integer"),
    "NoteAccess": NoteAccess,
    "tuple[str, ...]": _str_tuple,
    "tuple[str, ...] | str": lambda value: value if value == BROADCAST else _str_tuple(value),
}
# A stored record holds every field of its dataclass, plus ``kind``.
_RECORDS = {
    kind: (cls, [(f.name, _READERS[f.type]) for f in fields(cls)])
    for kind, cls in (("note", LearnerNote), ("message", Message))
}


def dumps(store: NoteStore) -> str:
    # The encoder writes a str-valued enum as its value and a tuple as a list.
    notes = (_ENCODER.encode({"kind": "note", **vars(n)}) + "\n" for n in store.notes.values())
    messages = (_ENCODER.encode({"kind": "message", **vars(m)}) + "\n" for m in store.messages.values())
    return "".join(chain(notes, messages))


def _from_record(record: dict) -> LearnerNote | Message:
    """The note or message a decoded record holds; a bad record raises ``ValueError`` or ``KeyError``."""
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _RECORDS:
        raise ValueError(f"unknown record kind {kind!r}")
    cls, spec = _RECORDS[kind]
    values = []
    for name, read in spec:
        try:
            values.append(read(record[name]))
        except ValueError as exc:
            raise ValueError(f"field {name!r}: {exc}") from None
    return cls(*values)


def loads(text: str, env: LearningEnvironment) -> NoteStore:
    """Read a store in one pass, re-checking each note against ``env``.

    A line that is not a JSON object, names an unknown ``kind``, lacks a field,
    holds a field of the wrong JSON type or a bad value raises
    :class:`ParseError` with its line number, as does a note with a negative
    timestamp or a message with a negative ``sent_at``.  A duplicate note or
    message id raises :class:`DuplicateId`, and a note on an unknown activity
    or a message pointing at a note the store does not hold raises
    :class:`DanglingRef` naming the line.
    """
    notes: dict[str, LearnerNote] = {}
    messages: dict[str, Message] = {}
    message_lines: dict[str, int] = {}
    for line_no, line in enumerate(lines(text), 1):
        if not line.strip():
            continue
        try:
            record = _DECODER.decode(line)
            if not isinstance(record, dict):
                raise ValueError("a record must be a JSON object")
            item = _from_record(record)
            if isinstance(item, LearnerNote):
                _check_note(notes, env, item, line_no)
                notes[item.note_id] = item
            else:
                _check_message(messages, item)
                messages[item.message_id] = item
                message_lines[item.message_id] = line_no
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg} at column {exc.colno}") from None
        except KeyError as exc:
            raise ParseError(line_no, f"missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(line_no, str(exc)) from None
    for message in messages.values():
        for ref in message.note_refs:
            if ref not in notes:
                raise DanglingRef(ref, message_lines[message.message_id])
    return NoteStore(env, notes, messages)


def flush(store: NoteStore, path: str | Path) -> None:
    """Write the store to ``path`` atomically: a reader sees the old file or the new one, never a part."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as out:
            out.write(dumps(store))
            out.flush()
            os.fsync(out.fileno())
        if path.exists():
            shutil.copymode(path, temp)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def reload(path: str | Path, env: LearningEnvironment) -> NoteStore:
    """:func:`loads` on a UTF-8 store file; bytes that do not decode are a :class:`ParseError`."""
    return loads(read_text(path), env)
