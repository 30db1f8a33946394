"""Check that the note store writes exactly the bytes ``json.dumps`` writes, without a test runner.

    PYTHONPATH=src python tests/writer_matches_json.py [stores]

Builds seeded random stores whose ids and text draw on the characters a
writer can get wrong: ``"``, ``\\``, U+0000-U+001F, U+007F, U+0085, U+2028,
U+2029, a lone surrogate and characters outside the BMP.  Every line of
``dumps`` must equal :func:`json_line` of its record, and ``loads`` must give
the store back.  Runs on any supported Python with only the standard
library; the tier-1 suite runs it too.  Prints one line and exits 0 when
every store matched, 1 at the first line that did not.
"""

from __future__ import annotations

import json
import random
import sys

from odlgraph.model import LearningActivity, LearningEnvironment, LearningObject, LearningTask, ObjectKind
from odlgraph.notes import (BROADCAST, LearnerNote, Message, NoteAccess, NoteStore, attach_note, dumps, loads,
                            new_store, send_message)

NODES = ("LA1", "LA2", "LA3")
ENV = LearningEnvironment(
    {node: LearningActivity(node, "O1", "read") for node in NODES}, (),
    {"O1": LearningObject("O1", "content", ObjectKind.ATOMIC, "content")},
    {"read": LearningTask("read", "read")},
)
HARD = '"\\\x7f\x85\u2028\u2029\ud800\U0001f600\U00010000' + "".join(map(chr, range(0x20)))


def json_line(record: LearnerNote | Message) -> str:
    """The line the store must write for ``record``."""
    kind = "note" if isinstance(record, LearnerNote) else "message"
    fields = {"kind": kind, **record._asdict()}
    return json.dumps(fields, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def random_store(rng: random.Random):
    """A store of up to 12 notes and 6 messages with text drawn from :data:`HARD` and plain letters."""
    def text() -> str:
        return "".join(rng.choice(HARD if rng.random() < 0.5 else "abc xyz") for _ in range(rng.randrange(6)))

    store = new_store(ENV)
    for i in range(rng.randrange(1, 13)):
        note = LearnerNote(f"n{i}:{text()}", rng.choice(NODES), text(), rng.randrange(10 ** rng.randrange(1, 20)),
                           rng.choice(list(NoteAccess)), text(), tuple(text() for _ in range(rng.randrange(3))))
        store = attach_note(store, note)
    ids = [note.note_id for note in store.notes.values() if note.access is not NoteAccess.PRIVATE]
    for i in range(rng.randrange(7) if ids else 0):
        recipients = BROADCAST if rng.random() < 0.3 else tuple(text() for _ in range(rng.randrange(4)))
        refs = tuple(rng.sample(ids, rng.randrange(1, min(3, len(ids)) + 1)))
        message = Message(f"m{i}:{text()}", text(), recipients, refs, rng.randrange(10 ** 6))
        if recipients:
            store = send_message(store, message, "tutor")
        else:  # send_message refuses it, but loads keeps reading such a record from an older store
            store = NoteStore(ENV, store.notes, {**store.messages, message.message_id: message})
    return store


def check(stores: int = 300, seed: int = 0) -> str | None:
    """``None`` when every store's text matched, else a description of the first line that did not."""
    rng = random.Random(seed)
    for _ in range(stores):
        store = random_store(rng)
        text = dumps(store)
        records = [*store.notes.values(), *store.messages.values()]
        lines = [line + "\n" for line in text.split("\n")[:-1]]  # U+0085 and U+2028 stay inside a line
        for got, record in zip(lines, records):
            if got != json_line(record):
                return f"{record!r}: wrote {got!r}, json.dumps gives {json_line(record)!r}"
        if len(lines) != len(records) or loads(text, ENV) != store:
            return f"the text of a store does not read back as the store: {text!r}"
    return None


def main(argv: list[str]) -> int:
    stores = int(argv[1]) if len(argv) > 1 else 300
    problem = check(stores)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {problem or f'{stores} stores, every line equals json.dumps'}")
    return 1 if problem else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
