"""Learner notes and the note-pointer messaging system.

Notes hang off course activities with three access levels: private (author
only), tutors (tutors plus the author) and all.  Messages carry no prose at
all, only pointers to notes the sender can see; the Message type simply has
no body field.

A store binds one course environment and is append-only; operations return
a new store.  Persistence is one JSON object per line with a ``kind``
discriminator.  Records map one to one onto the fields of the named tuples
:class:`LearnerNote` and :class:`Message` (``_fields``), plus ``kind``.

One type table gives the exact type each field holds: a string, an integer
that is not a bool, a :class:`NoteAccess` member, a tuple of strings (a JSON
list of strings), or, for ``recipients``, :data:`BROADCAST` or a tuple of
strings.  :func:`attach_note` and :func:`send_message` refuse a record the
table refuses with :class:`TypeError`, as :func:`dumps` does for a store
built by hand, so the store writes only what :func:`loads` reads back.
:func:`dumps` writes each record as exactly
``json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))``
plus ``"\\n"``, so a flush/reload/flush cycle is byte-identical.  Loading
re-checks every field against the same table, every note as
:func:`attach_note` does, every message's id and ``sent_at`` as
:func:`send_message` does, and that every message points at stored notes; a
malformed record is a :class:`ParseError` naming its line.  A flush replaces
the file atomically, and refuses with :class:`UnsupportedFormat`, before it
writes anything, a store whose text is not UTF-8 (a lone surrogate).
"""

from __future__ import annotations

import json
import os
import shutil
from functools import partial
from itertools import chain, product, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import AccessDenied, DanglingRef, DuplicateId, EmptyContent, ParseError, UnsupportedFormat
from .model import LearningEnvironment
from .options import NoteAccess
from .text import lines, read_text

BROADCAST = "*"


class LearnerNote(NamedTuple):
    note_id: str
    node_id: str
    learner_id: str
    timestamp: int
    access: NoteAccess = NoteAccess.PRIVATE
    body: str = ""
    attachments: tuple[str, ...] = ()


class _MessageFields(NamedTuple):
    message_id: str
    sender_id: str
    recipients: tuple[str, ...] | str  # explicit ids, or BROADCAST
    note_refs: tuple[str, ...]
    sent_at: int


class Message(_MessageFields):
    """Pointer-only mail: recipients get note references, never free text.

    The constructor sorts and de-duplicates explicit recipients and turns
    ``note_refs`` into a tuple; ``_make`` and ``_replace`` take values as given.
    """

    __slots__ = ()

    def __new__(cls, message_id: str, sender_id: str, recipients: tuple[str, ...] | str,
                note_refs: tuple[str, ...], sent_at: int) -> Message:
        # A bare string would otherwise become the tuple of its characters.
        if recipients != BROADCAST:
            if isinstance(recipients, str):
                raise TypeError(f"recipients must be {BROADCAST!r} or a tuple of ids, not {recipients!r}")
            recipients = tuple(sorted(set(recipients)))
        if isinstance(note_refs, str):
            raise TypeError(f"note_refs must be a tuple of note ids, not {note_refs!r}")
        return super().__new__(cls, message_id, sender_id, recipients, tuple(note_refs), sent_at)


class NoteStore(NamedTuple):
    env: LearningEnvironment
    notes: dict[str, LearnerNote]
    messages: dict[str, Message]


def new_store(env: LearningEnvironment) -> NoteStore:
    return NoteStore(env, {}, {})


def _check_note(notes: dict[str, LearnerNote], env: LearningEnvironment, note: LearnerNote,
                line_no: int | None = None) -> None:
    """The rules every stored note keeps beyond its field types, whether attached or loaded."""
    if note.note_id in notes:
        raise DuplicateId(note.note_id, "note")
    if note.node_id not in env.activities:
        raise DanglingRef(note.node_id, line_no)
    if note.timestamp < 0:
        raise ValueError("note timestamp must be non-negative")


def _check_message(messages: dict[str, Message], message: Message) -> None:
    """The rules every stored message keeps on its own beyond its field types, whether sent or loaded."""
    if message.message_id in messages:
        raise DuplicateId(message.message_id, "message")
    if message.sent_at < 0:
        raise ValueError("message sent_at must be non-negative")


def attach_note(store: NoteStore, note: LearnerNote) -> NoteStore:
    """Append one note; the target activity must exist in the store's course."""
    _check_fields("note", note)
    _check_note(store.notes, store.env, note)
    notes = dict(store.notes)
    notes[note.note_id] = note
    return NoteStore(store.env, notes, store.messages)


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
    _check_fields("message", message)
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
    return NoteStore(store.env, store.notes, messages)


def inbox(store: NoteStore, user_id: str) -> list[Message]:
    """Messages addressed to the user or broadcast, oldest first."""
    mine = [
        m
        for m in store.messages.values()
        if m.recipients == BROADCAST or user_id in m.recipients
    ]
    return sorted(mine, key=lambda m: (m.sent_at, m.message_id))


# --- the record codec ---------------------------------------------------------


_ENCODE = encode_basestring  # what JSONEncoder(ensure_ascii=False) writes a string with
_DECODER = json.JSONDecoder()
_ACCESS = {access.value: access for access in NoteAccess}
_STR = frozenset((str,))


def _exactly(json_type: type, name: str):
    def read(value):
        if type(value) is not json_type:  # exact: a JSON true or false is a bool, not an int
            raise ValueError(f"expected {name}")
        return value
    return read


def _access(value) -> NoteAccess:
    try:
        return _ACCESS[value]
    except (KeyError, TypeError):
        return NoteAccess(value)  # raises the ValueError that names the bad value


def _str_tuple(value) -> tuple[str, ...]:
    if type(value) is not list or not _STR.issuperset(map(type, value)):
        raise ValueError("expected a list of strings")
    return tuple(value)


def _json_lists(column) -> list[str]:
    return [f"[{','.join(map(_ENCODE, strings))}]" if strings else "[]" for strings in column]


class _Form(NamedTuple):
    """How the codec handles one type of the type table."""

    name: str  # as an error names it
    held: frozenset[type]  # the types a field of this form may hold
    decoded: tuple[type, ...]  # the types its value may have as JSON decodes it
    read: Callable  # checks a decoded value and returns the field value; a bad one raises ValueError
    write: Callable  # the JSON texts of a column of field values


_FORMS = {
    str: _Form("a string", _STR, (str,), _exactly(str, "a string"), partial(map, _ENCODE)),
    int: _Form("an integer", frozenset((int,)), (int,), _exactly(int, "an integer"), partial(map, int.__repr__)),
    NoteAccess: _Form("a NoteAccess member", frozenset((NoteAccess,)), (str,), _access, partial(map, _ENCODE)),
    tuple: _Form("a tuple of strings", frozenset((tuple,)), (list,), _str_tuple, _json_lists),
    BROADCAST: _Form(
        f"{BROADCAST!r} or a tuple of strings", frozenset((str, tuple)), (str, list),
        lambda value: value if value == BROADCAST else _str_tuple(value),
        lambda column: [_ENCODE(r) if r == BROADCAST else text for r, text in zip(column, _json_lists(column))],
    ),
}

# The type table: for each record kind, its named tuple and, in ``_fields`` order, the exact type each
# field holds.  ``int`` excludes bool, ``tuple`` is a tuple of strings (a JSON list of strings), and
# BROADCAST is the string "*" or a tuple of strings.  Every check of a record's field types reads it.
_TYPES = {
    "note": (LearnerNote, {"note_id": str, "node_id": str, "learner_id": str, "timestamp": int,
                           "access": NoteAccess, "body": str, "attachments": tuple}),
    "message": (Message, {"message_id": str, "sender_id": str, "recipients": BROADCAST,
                          "note_refs": tuple, "sent_at": int}),
}


def _holds(form, column) -> bool:
    """Whether a field the type table gives ``form`` may hold every value of ``column``."""
    if not _FORMS[form].held.issuperset(map(type, column)):
        return False
    if form is tuple or form == BROADCAST:
        # A string here is BROADCAST, and a tuple holds strings only (iterating "*" gives a string).
        return ({value for value in column if type(value) is str} <= {BROADCAST}
                and _STR.issuperset(map(type, chain.from_iterable(column))))
    return True


def _check_fields(kind: str, record: tuple) -> None:
    """Raise :class:`TypeError` naming the first field of ``record`` that the type table refuses."""
    types = _TYPES[kind][1]
    if len(record) != len(types):
        raise TypeError(f"a {kind} record has {len(types)} fields, not {len(record)}: {record!r}")
    for (name, form), value in zip(types.items(), record):
        if not _holds(form, (value,)):
            raise TypeError(f"{kind} field {name!r} must be {_FORMS[form].name}, not {value!r}")


class _Codec:
    """One record kind of the type table, compiled for :func:`dumps` and :func:`loads`."""

    def __init__(self, kind: str):
        self.kind = kind
        self.cls, types = _TYPES[kind]
        self.field_types = list(types.values())
        forms = [_FORMS[form] for form in self.field_types]
        self.values = itemgetter(*types)  # a decoded record's values in ``_fields`` order
        # Every field-type tuple a decoded record may hold.
        self.decoded = frozenset(product(*(form.decoded for form in forms)))
        # (index, name, reader) of every field, and of those whose decoded value still needs reading
        # once its type is right: a NoteAccess value and the lists.
        self.readers = [(i, name, forms[i].read) for i, name in enumerate(types)]
        self.converters = [(i, name, read) for i, name, read in self.readers if types[name] not in (str, int)]
        # The line: every field plus ``kind``, keys in sorted order, cut where the field values go.
        keys = sorted(("kind", *types))
        line = ",".join(f"{_ENCODE(key)}:{_ENCODE(kind) if key == 'kind' else '%s'}" for key in keys)
        self.pieces = ("{" + line + "}\n").split("%s")
        fields = list(types)
        self.writers = [(fields.index(key), _FORMS[types[key]].write) for key in keys if key != "kind"]

    def write(self, records) -> list[str]:
        """The lines of ``records``, in pieces; a record the table refuses raises :class:`TypeError`."""
        records = list(records)
        if not records:
            return []
        columns = list(zip(*records))
        # The table's test a column at a time, which is each record's test as every field is tested alone.
        if set(map(len, records)) != {len(self.field_types)} or not all(map(_holds, self.field_types, columns)):
            for record in records:
                _check_fields(self.kind, record)
        texts = [write(columns[i]) for i, write in self.writers]
        pieces = [*chain.from_iterable(zip(map(repeat, self.pieces), texts)), repeat(self.pieces[-1])]
        return list(chain.from_iterable(zip(*pieces)))

    def read(self, record: dict) -> LearnerNote | Message:
        """The note or message a decoded record holds; a bad record raises ValueError or KeyError."""
        try:
            values = list(self.values(record))
        except KeyError:
            values, readers = [None] * len(self.readers), self.readers  # name the first missing field
        else:
            readers = self.converters if tuple(map(type, values)) in self.decoded else self.readers
        for i, name, read in readers:
            try:
                values[i] = read(record[name])
            except ValueError as exc:
                raise ValueError(f"field {name!r}: {exc}") from None
        return self.cls(*values)


_CODECS = {kind: _Codec(kind) for kind in _TYPES}


def dumps(store: NoteStore) -> str:
    """The store's text: one line per note, then one per message.

    Each line is ``json.dumps(record, sort_keys=True, ensure_ascii=False,
    separators=(",", ":"))`` of the record's fields plus ``kind``.  A record
    whose fields the type table refuses raises :class:`TypeError`.
    """
    notes, messages = _CODECS["note"].write(store.notes.values()), _CODECS["message"].write(store.messages.values())
    return "".join(chain(notes, messages))


def _from_record(record) -> LearnerNote | Message:
    """The note or message a decoded line holds; a bad record raises ``ValueError`` or ``KeyError``."""
    if not isinstance(record, dict):
        raise ValueError("a record must be a JSON object")
    kind = record.get("kind")
    codec = _CODECS.get(kind) if type(kind) is str else None
    if codec is None:
        raise ValueError(f"unknown record kind {kind!r}")
    return codec.read(record)


def loads(text: str, env: LearningEnvironment) -> NoteStore:
    """Read a store in one pass, re-checking each note against ``env``.

    Lines of only whitespace are skipped.  A line that is not a JSON object,
    names an unknown ``kind``, lacks a field, holds a field of a type the type
    table refuses or a bad value raises :class:`ParseError` with its line
    number, as does a note with a negative timestamp or a message with a
    negative ``sent_at``.  A duplicate note or message id raises
    :class:`DuplicateId`, and a note on an unknown activity or a message
    pointing at a note the store does not hold raises :class:`DanglingRef`
    naming the line.
    """
    notes: dict[str, LearnerNote] = {}
    messages: dict[str, Message] = {}
    message_lines: dict[str, int] = {}
    scan = _DECODER.scan_once
    for line_no, line in enumerate(lines(text), 1):
        try:
            try:
                record, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):  # whitespace around the record, or a line decode words the error for
                if not line.strip():
                    continue
                record = _DECODER.decode(line)
            item = _from_record(record)
            if type(item) is LearnerNote:
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
    """Write the store to ``path`` atomically: a reader sees the old file or the new one, never a part.

    Text that UTF-8 cannot encode (a lone surrogate) raises :class:`UnsupportedFormat` before any file
    is touched.
    """
    path = Path(path)
    text = dumps(store)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line_no = text.count("\n", 0, exc.start) + 1
        raise UnsupportedFormat(f"cannot write the store as UTF-8: line {line_no} holds "
                                f"{text[exc.start:exc.end]!r} ({exc.reason})") from None
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "xb") as out:
            out.write(data)
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
