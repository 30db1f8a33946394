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
:func:`dumps` checks the table a column at a time, then writes each record
from one f-string per kind, keys in sorted order, as exactly
``json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))``
plus ``"\\n"``, so a flush/reload/flush cycle is byte-identical.  Loading
re-checks every field against the same table, every note as
:func:`attach_note` does, every message's id and ``sent_at`` as
:func:`send_message` does, and that every message points at stored notes; a
malformed record is a :class:`ParseError` naming its line.  A flush replaces
the file atomically, and refuses with :class:`UnsupportedFormat`, before it
changes the file, a store holding text UTF-8 cannot encode or an over-long
integer.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, product
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import AccessDenied, DanglingRef, DuplicateId, EmptyContent, ParseError, UnsupportedFormat
from .model import LearningEnvironment
from .options import NoteAccess
from .text import lines, read_text, write_text

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
    _check_fields("note", [note])
    _check_note(store.notes, store.env, note)
    notes = dict(store.notes)
    notes[note.note_id] = note
    return NoteStore(store.env, notes, store.messages)


def can_view(note: LearnerNote, requester_id: str, requester_role: str) -> bool:
    return (note.learner_id == requester_id or note.access is NoteAccess.ALL
            or (note.access is NoteAccess.TUTORS and requester_role == "tutor"))


def list_notes(store: NoteStore, node_id: str, requester_id: str, requester_role: str = "learner") -> list[LearnerNote]:
    """Notes on one activity that the requester may see, oldest first."""
    if node_id not in store.env.activities:
        raise DanglingRef(node_id)
    visible = [n for n in store.notes.values() if n.node_id == node_id and can_view(n, requester_id, requester_role)]
    return sorted(visible, key=lambda n: (n.timestamp, n.note_id))


def send_message(store: NoteStore, message: Message, sender_role: str = "learner") -> NoteStore:
    """Store a message after checking the sender can see every referenced note."""
    _check_fields("message", [message])
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
    mine = [m for m in store.messages.values() if m.recipients == BROADCAST or user_id in m.recipients]
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


class _Form(NamedTuple):
    """How the codec handles one type of the type table."""

    name: str  # as an error names it
    held: frozenset[type]  # the types a field of this form may hold
    decoded: tuple[type, ...]  # the types its value may have as JSON decodes it
    read: Callable  # checks a decoded value and returns the field value; a bad one raises ValueError


_FORMS = {
    str: _Form("a string", _STR, (str,), _exactly(str, "a string")),
    int: _Form("an integer", frozenset((int,)), (int,), _exactly(int, "an integer")),
    NoteAccess: _Form("a NoteAccess member", frozenset((NoteAccess,)), (str,), _access),
    tuple: _Form("a tuple of strings", frozenset((tuple,)), (list,), _str_tuple),
    BROADCAST: _Form(f"{BROADCAST!r} or a tuple of strings", frozenset((str, tuple)), (str, list),
                     lambda value: value if value == BROADCAST else _str_tuple(value)),
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


def _check_fields(kind: str, records: list) -> None:
    """Raise :class:`TypeError` naming the first field of the first record that the type table refuses.

    The table's test runs a column at a time, which is each record's test as every field is tested alone;
    only a column that fails sends it looking for the record and field to name.
    """
    types = _TYPES[kind][1]
    if set(map(len, records)) <= {len(types)} and all(map(_holds, types.values(), zip(*records))):
        return
    for record in records:
        if len(record) != len(types):
            raise TypeError(f"a {kind} record has {len(types)} fields, not {len(record)}: {record!r}")
        for (name, form), value in zip(types.items(), record):
            if not _holds(form, (value,)):
                raise TypeError(f"{kind} field {name!r} must be {_FORMS[form].name}, not {value!r}")


def dumps(store: NoteStore) -> str:
    """The store's text: one line per note, then one per message.

    Each line is ``json.dumps(record, sort_keys=True, ensure_ascii=False,
    separators=(",", ":"))`` of the record's fields plus ``kind``.  A record
    whose fields the type table refuses raises :class:`TypeError`, and an
    integer too long to write as text :class:`UnsupportedFormat`.
    """
    notes, messages = list(store.notes.values()), list(store.messages.values())
    _check_fields("note", notes)
    _check_fields("message", messages)
    encode, join = _ENCODE, ",".join
    try:
        note_lines = [
            f'{{"access":{encode(access)},"attachments":[{join(map(encode, attachments))}],"body":{encode(body)},'
            f'"kind":"note","learner_id":{encode(learner_id)},"node_id":{encode(node_id)},'
            f'"note_id":{encode(note_id)},"timestamp":{timestamp}}}\n'
            for note_id, node_id, learner_id, timestamp, access, body, attachments in notes
        ]
        message_lines = [
            f'{{"kind":"message","message_id":{encode(message_id)},'
            f'"note_refs":[{join(map(encode, note_refs))}],"recipients":'
            f'{encode(recipients) if recipients == BROADCAST else "[" + join(map(encode, recipients)) + "]"},'
            f'"sender_id":{encode(sender_id)},"sent_at":{sent_at}}}\n'
            for message_id, sender_id, recipients, note_refs, sent_at in messages
        ]
    except ValueError:  # only an integer of more digits than the interpreter writes as text fails here
        for kind, records in (("note", notes), ("message", messages)):
            for record in records:
                for name, value in zip(_TYPES[kind][1], record):
                    if type(value) is int and abs(value) >= 10 ** sys.get_int_max_str_digits():
                        # Not the value itself: formatting it fails the same way.
                        raise UnsupportedFormat(f"cannot write the store: {kind} {record[0]!r} field {name!r} "
                                                "holds an integer too long to write as text") from None
        raise
    return "".join(chain(note_lines, message_lines))


def _reader(kind: str) -> tuple:
    """How :func:`loads` reads a record of ``kind``, as the five values :func:`_from_record` unpacks."""
    cls, types = _TYPES[kind]
    forms = [_FORMS[form] for form in types.values()]
    decoded = frozenset(product(*(form.decoded for form in forms)))  # every field-type tuple a decoded record may hold
    readers = [(i, name, forms[i].read) for i, name in enumerate(types)]
    # The fields whose decoded value still needs reading once its type is right: a NoteAccess value and the lists.
    converters = [(i, name, read) for i, name, read in readers if types[name] not in (str, int)]
    return cls, itemgetter(*types), decoded, readers, converters


_READERS = {kind: _reader(kind) for kind in _TYPES}


def _from_record(record) -> LearnerNote | Message:
    """The note or message a decoded line holds; a bad record raises ``ValueError`` or ``KeyError``."""
    if not isinstance(record, dict):
        raise ValueError("a record must be a JSON object")
    kind = record.get("kind")
    reader = _READERS.get(kind) if type(kind) is str else None
    if reader is None:
        raise ValueError(f"unknown record kind {kind!r}")
    cls, get_values, decoded, readers, converters = reader
    try:
        values = list(get_values(record))
    except KeyError:
        values = [None] * len(readers)  # the readers name the first missing field
    else:
        readers = converters if tuple(map(type, values)) in decoded else readers
    for i, name, read in readers:
        try:
            values[i] = read(record[name])
        except ValueError as exc:
            raise ValueError(f"field {name!r}: {exc}") from None
    return cls(*values)


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
    """Replace ``path`` atomically with the store; text UTF-8 cannot encode is an :class:`UnsupportedFormat`."""
    text = dumps(store)
    try:
        write_text(path, (text,))  # one chunk, so the error's offsets are offsets in ``text``
    except UnicodeEncodeError as exc:
        line_no = text.count("\n", 0, exc.start) + 1
        raise UnsupportedFormat(f"cannot write the store as UTF-8: line {line_no} holds "
                                f"{text[exc.start:exc.end]!r} ({exc.reason})") from None


def reload(path: str | Path, env: LearningEnvironment) -> NoteStore:
    """:func:`loads` on a UTF-8 store file; bytes that do not decode are a :class:`ParseError`."""
    return loads(read_text(path), env)
