"""Learner notes and the note-pointer messaging system.

Notes hang off course activities with three access levels: private (author
only), tutors (tutors plus the author) and all.  Messages carry no prose at
all, only pointers to notes the sender can see; the Message type simply has
no body field.

A store binds one course environment and is append-only; operations return
a new store.  Persistence is one JSON object per line with a ``kind``
discriminator; its other keys are the ``_fields`` of :class:`LearnerNote` or
:class:`Message`, each of the exact type one type table gives.

The codec states each rule once, as a pass over a column of records that
gives the positions of the records breaking it.  :func:`attach_note`,
:func:`send_message`, :func:`dumps` and :func:`loads` share the passes, so
the store writes only what it reads back.  :func:`dumps` writes each record
as exactly ``json.dumps(record, sort_keys=True, ensure_ascii=False,
separators=(",", ":"))`` plus ``"\\n"``, so a flush/reload/flush cycle is
byte-identical; :func:`loads` names the first line a rule refuses.  A flush
replaces the file atomically, and refuses with :class:`UnsupportedFormat`,
before it changes the file, a store holding text UTF-8 cannot encode or an
over-long integer.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from functools import partial
from itertools import chain, compress, filterfalse, repeat
from json.encoder import encode_basestring
from operator import eq, is_, itemgetter, lt, not_
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import AccessDenied, DanglingRef, DuplicateId, EmptyContent, ParseError, UnsupportedFormat
from .model import LearningEnvironment, columns, holding, repeats
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


def _refused_records(kind: str, fields: dict[str, list], stored: dict, env: LearningEnvironment,
                     line_nos: Sequence[int | None]) -> list[tuple]:
    """The first refusal ``(line number, rank, error)`` of each rule a record keeps beyond its field types, on
    the columns ``fields`` of records added in order, from the lines ``line_nos``, to ``stored``: a repeated
    id, a note on an unknown activity, or a negative time, which a line names as a :class:`ParseError`."""
    ids, nodes = fields[f"{kind}_id"], fields.get("node_id", [])
    time = "timestamp" if kind == "note" else "sent_at"
    times = fields[time]
    negative = f"{kind} {time} must be non-negative"
    rules = [
        (repeats(ids, stored), lambda at: DuplicateId(ids[at], kind, line_nos[at])),
        (holding(range(len(nodes)), nodes, set(filterfalse(env.activities.__contains__, nodes))),
         lambda at: DanglingRef(nodes[at], line_nos[at])),
        (holding(range(len(times)), times, set(compress(times, map(lt, times, repeat(0))))),
         lambda at: ValueError(negative) if line_nos[at] is None else ParseError(line_nos[at], negative)),
    ]
    return [(line_nos[refused[0]], rank, error(refused[0])) for rank, (refused, error) in enumerate(rules, 100)
            if refused]


def _add(store: NoteStore, kind: str, record: tuple) -> None:
    """Refuse ``record`` as :func:`dumps` and :func:`loads` would refuse it in ``store``."""
    _check_fields(kind, [record])
    stored = store.notes if kind == "note" else store.messages
    fields = dict(zip(_TYPES[kind][1], map(list, zip(record))))
    for _, _, error in _refused_records(kind, fields, stored, store.env, [None])[:1]:
        raise error


def attach_note(store: NoteStore, note: LearnerNote) -> NoteStore:
    """Append one note; the target activity must exist in the store's course."""
    _add(store, "note", note)
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
    """Store a message with at least one recipient and one note reference, each note one the sender can see."""
    _add(store, "message", message)
    if not message.note_refs:
        raise EmptyContent("a message must reference at least one note")
    if not message.recipients:
        raise EmptyContent("a message must name at least one recipient")
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
_PIECE_LINES = 256  # how many decoded store lines :func:`loads` holds at once
_MISSING = object()  # the value of a field a store record lacks


def _exact(kind: type, column: Sequence) -> list[int]:
    """The positions in ``column`` of the values not of exactly type ``kind`` (a bool is no int)."""
    return holding(range(len(column)), map(type, column), set(map(type, column)) - {kind})


def _named(names: Iterable[str], column: Sequence) -> list[int]:
    """The positions in ``column`` of the JSON values that are none of the texts ``names``, where a value that is
    no text reads as its ``str``, which names none."""
    texts = column if _STR.issuperset(map(type, column)) else list(map(str, column))
    return holding(range(len(texts)), texts, set(texts) - set(names))


def _strings(container: type, alone: str | None, column: Sequence) -> list[int]:
    """The positions in ``column`` of the values that are neither a ``container`` of strings nor the string
    ``alone``."""
    wrong = [at for at in _exact(container, column) if not (type(column[at]) is str and column[at] == alone)]
    items = chain.from_iterable(compress(column, map(is_, map(type, column), repeat(container))) if wrong else column)
    if not _STR.issuperset(map(type, items)):  # then name the containers holding an item that is no string
        wrong += [at for at, value in enumerate(column)
                  if type(value) is container and not _STR.issuperset(map(type, value))]
    return sorted(wrong)


class _Form(NamedTuple):
    """How the codec tests and reads one type of the type table; each test is a pass over a column."""

    name: str  # as a refusal of a field value names it
    refused: Callable[[Sequence], list[int]]  # the positions of values a field of this form may not hold
    decoded: Callable[[Sequence], list[int]]  # the same for the JSON values of a store's lines
    error: str  # the refusal of a JSON value, formatted with the value
    read: Callable[[list], list]  # the field values of JSON values that ``decoded`` passes


_FORMS = {
    str: _Form("a string", partial(_exact, str), partial(_exact, str), "expected a string", lambda column: column),
    int: _Form("an integer", partial(_exact, int), partial(_exact, int), "expected an integer", lambda column: column),
    NoteAccess: _Form("a NoteAccess member", partial(_exact, NoteAccess), partial(_named, _ACCESS),
                      "{!r} is not a valid NoteAccess", lambda column: list(map(_ACCESS.__getitem__, column))),
    tuple: _Form("a tuple of strings", partial(_strings, tuple, None), partial(_strings, list, None),
                 "expected a list of strings", lambda column: list(map(tuple, column))),
    BROADCAST: _Form(f"{BROADCAST!r} or a tuple of strings", partial(_strings, tuple, BROADCAST),
                     partial(_strings, list, BROADCAST), "expected a list of strings",
                     lambda column: [value if type(value) is str else tuple(value) for value in column]),
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


def _check_fields(kind: str, records: list) -> None:
    """Raise :class:`TypeError` naming the first field of the first record that the type table refuses."""
    types = _TYPES[kind][1]
    refusals = []
    for at in holding(range(len(records)), map(len, records), set(map(len, records)) - {len(types)})[:1]:
        refusals.append((at, 0, TypeError(f"a {kind} record has {len(types)} fields, not {len(records[at])}: "
                                          f"{records[at]!r}")))
        records = records[:at]
    refusals += _refused_fields(kind, range(len(records)), columns(records, len(types)), decoded=False)
    if refusals:
        raise min(refusals, key=itemgetter(0, 1))[2]  # the first, by rank at a tie


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


def loads(text: str, env: LearningEnvironment) -> NoteStore:
    """Read a store, re-checking each note against ``env``.

    One pass per rule reads a column of the store's records, beside a column of their line numbers, and
    gives the first line it refuses; the store's error is that of the first line any rule refuses, by the
    first rule to refuse it.  Lines of only whitespace are skipped.  A line that is not a JSON object (one
    nested too deeply included), names an unknown ``kind``, lacks a field, holds a field of a type the type
    table refuses or a bad value raises :class:`ParseError` with its line number, as does a note with a
    negative timestamp or a message with a negative ``sent_at``.  A duplicate note or message id raises
    :class:`DuplicateId`, and a note on an unknown activity or a message pointing at a note the store does
    not hold raises :class:`DanglingRef`, each naming the line.
    """
    fields = {kind: {name: [] for name in types} for kind, (_, types) in _TYPES.items()}
    numbers: dict[str, list[int]] = {kind: [] for kind in _TYPES}  # each kind's line-number column
    refusals: list[tuple] = []  # (line number, rank, error): ranks follow the rules' order within a record
    scan, every_line = _DECODER.scan_once, lines(text)

    def refuse(refused: list[int], rank: int, reason: Callable[[int], str]) -> None:
        for at in refused[:1]:  # the records from the line refused on are not read
            refusals.append((line_nos[at], rank, ParseError(line_nos[at], reason(at))))
            del line_nos[at:], records[at:]

    # A piece of lines at a time, up to the first line a rule refuses, so that only one piece's JSON values are
    # alive at once: each line's JSON value, the records that are objects, and their kinds.
    for first_line in range(1, len(every_line) + 1, _PIECE_LINES):
        records, blank = [], []  # blank: the numbers of the lines of only whitespace
        for line in every_line[first_line - 1:first_line - 1 + _PIECE_LINES]:
            try:
                record, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):  # no value at the start, whitespace around it, or more after it
                line_no = first_line + len(records) + len(blank)
                if not line.strip():
                    blank.append(line_no)
                    continue
                try:
                    record = _DECODER.decode(line)
                except (ValueError, RecursionError) as exc:  # a ValueError that is no JSONDecodeError: a long integer
                    reason = (f"invalid JSON: {exc.msg} at column {exc.colno}" if isinstance(exc, json.JSONDecodeError)
                              else "invalid JSON: nested too deeply" if isinstance(exc, RecursionError) else str(exc))
                    refusals.append((line_no, 0, ParseError(line_no, reason)))
                    break
            records.append(record)
        line_nos = list(filterfalse(set(blank).__contains__, range(first_line, first_line + len(records) + len(blank))))
        refuse(holding(range(len(records)), map(type, records), set(map(type, records)) - {dict}), 1,
               lambda at: "a record must be a JSON object")
        kinds = list(map(dict.get, records, repeat("kind")))
        refuse(_named(_TYPES, kinds), 2, lambda at: f"unknown record kind {kinds[at]!r}")
        for kind, columns_of in fields.items():
            mine = list(map(eq, kinds, repeat(kind)))  # compress stops at the records kept, which kinds may run past
            numbers[kind] += compress(line_nos, mine)
            chosen = list(compress(records, mine))
            for name, column in columns_of.items():  # a field missing reads as _MISSING, which every form refuses
                column += map(dict.get, chosen, repeat(name), repeat(_MISSING))
        if refusals:
            break
    for kind, columns_of in fields.items():
        refusals += _refused_fields(kind, numbers[kind], columns_of.values())
    limit = min([len(every_line) + 1, *(line_no for line_no, _, _ in refusals)])
    for kind, (_, types) in _TYPES.items():  # only the lines before the first refused, each field read
        kept = bisect_left(numbers[kind], limit)
        del numbers[kind][kept:]
        for name, form in types.items():
            fields[kind][name] = _FORMS[form].read(fields[kind][name][:kept])
        refusals += _refused_records(kind, fields[kind], {}, env, numbers[kind])
    if refusals:
        raise min(refusals, key=itemgetter(0, 1))[2]  # the first, by rank at a tie
    notes, messages = fields["note"], fields["message"]
    refs = messages["note_refs"]
    dangling = set(filterfalse(set(notes["note_id"]).__contains__, chain.from_iterable(refs)))
    if dangling:
        at = next(compress(range(len(refs)), map(not_, map(dangling.isdisjoint, refs))))
        raise DanglingRef(next(filter(dangling.__contains__, refs[at])), numbers["message"][at])
    return NoteStore(env, dict(zip(notes["note_id"], map(tuple.__new__, repeat(LearnerNote), zip(*notes.values())))),
                     dict(zip(messages["message_id"], map(Message, *messages.values()))))


def _refused_fields(kind: str, line_nos: Sequence[int], field_columns: Iterable[Sequence],
                    decoded: bool = True) -> list[tuple]:
    """The first refusal ``(line number, rank, error)`` of each field whose column holds a value the type table
    refuses: the JSON values of store lines, where a field missing is ``_MISSING``, or, unless ``decoded``,
    field values, at positions ``line_nos``."""
    refusals = []
    for number, ((name, form), column) in enumerate(zip(_TYPES[kind][1].items(), field_columns)):
        spec = _FORMS[form]
        for at in (spec.decoded if decoded else spec.refused)(column)[:1]:
            value, line_no = column[at], line_nos[at]
            error = (TypeError(f"{kind} field {name!r} must be {spec.name}, not {value!r}") if not decoded
                     else ParseError(line_no, f"missing field {name!r}") if value is _MISSING
                     else ParseError(line_no, f"field {name!r}: {spec.error.format(value)}"))
            refusals.append((line_no, 3 + number, error))
    return refusals


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
