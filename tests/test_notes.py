from __future__ import annotations

import dataclasses
import json
import os

import pytest

from odlgraph.errors import AccessDenied, DanglingRef, DuplicateId, EmptyContent, ParseError
from odlgraph.notes import (
    BROADCAST,
    LearnerNote,
    Message,
    NoteAccess,
    attach_note,
    can_view,
    dumps,
    flush,
    inbox,
    list_notes,
    loads,
    new_store,
    reload,
    send_message,
)

from conftest import quick_env

ENV = quick_env(["LA5", "LA12", "LA112"])


def note(note_id: str, access: NoteAccess, author: str = "u1", node: str = "LA5", ts: int = 100) -> LearnerNote:
    return LearnerNote(note_id, node, author, ts, access, body=f"body of {note_id}")


def store_with(*notes: LearnerNote):
    store = new_store(ENV)
    for n in notes:
        store = attach_note(store, n)
    return store


def test_attach_and_list_note():
    store = store_with(note("n1", NoteAccess.ALL, author="u1"))
    found = list_notes(store, "LA5", "u2", "learner")
    assert [n.note_id for n in found] == ["n1"]


def test_attach_rejects_unknown_node():
    with pytest.raises(DanglingRef):
        store_with(note("n1", NoteAccess.ALL, node="LA999"))


def test_attach_rejects_duplicate_note_id():
    with pytest.raises(DuplicateId):
        store_with(note("n1", NoteAccess.ALL), note("n1", NoteAccess.ALL))


def test_same_learner_same_node_notes_both_kept():
    store = store_with(note("n1", NoteAccess.ALL, ts=5), note("n2", NoteAccess.ALL, ts=5))
    assert [n.note_id for n in list_notes(store, "LA5", "u1")] == ["n1", "n2"]


def test_store_is_append_only():
    first = store_with(note("n1", NoteAccess.ALL))
    second = attach_note(first, note("n2", NoteAccess.ALL))
    assert set(first.notes) == {"n1"}
    assert set(second.notes) == {"n1", "n2"}
    assert second.notes["n1"] is first.notes["n1"]


VISIBILITY = [
    # (access, requester_role, expected for a non-author)
    (NoteAccess.PRIVATE, "learner", False),
    (NoteAccess.PRIVATE, "tutor", False),
    (NoteAccess.TUTORS, "learner", False),
    (NoteAccess.TUTORS, "tutor", True),
    (NoteAccess.ALL, "learner", True),
    (NoteAccess.ALL, "tutor", True),
]


@pytest.mark.parametrize("access,role,expected", VISIBILITY)
def test_visibility_matrix_for_non_author(access, role, expected):
    store = store_with(note("n1", access, author="author"))
    got = list_notes(store, "LA5", "someone-else", role)
    assert bool(got) is expected
    assert can_view(note("n1", access, author="author"), "someone-else", role) is expected


@pytest.mark.parametrize("access", list(NoteAccess))
@pytest.mark.parametrize("role", ["learner", "tutor"])
def test_author_always_sees_own_note(access, role):
    store = store_with(note("n1", access, author="author"))
    assert [n.note_id for n in list_notes(store, "LA5", "author", role)] == ["n1"]


def test_listing_keeps_history_of_many_notes():
    notes = [note(f"n{i}", NoteAccess.ALL, ts=i) for i in range(10)]
    store = store_with(*notes)
    got = list_notes(store, "LA5", "u2")
    assert [n.note_id for n in got] == [f"n{i}" for i in range(10)]


def test_list_notes_orders_by_time_then_id():
    store = store_with(note("nb", NoteAccess.ALL, ts=7), note("na", NoteAccess.ALL, ts=7))
    assert [n.note_id for n in list_notes(store, "LA5", "u1")] == ["na", "nb"]


def test_message_type_has_no_body_field():
    assert "body" not in {f.name for f in dataclasses.fields(Message)}


def test_broadcast_message_reaches_every_inbox():
    store = store_with(note("n7", NoteAccess.TUTORS, author="tutor1"))
    message = Message("m1", "tutor1", BROADCAST, ("n7",), sent_at=50)
    store = send_message(store, message, sender_role="tutor")
    for user in ("u1", "u2", "anyone"):
        assert [m.message_id for m in inbox(store, user)] == ["m1"]


def test_message_without_refs_rejected():
    store = store_with(note("n1", NoteAccess.ALL))
    with pytest.raises(EmptyContent):
        send_message(store, Message("m1", "u1", BROADCAST, (), 0))


def test_message_referencing_foreign_private_note_rejected():
    store = store_with(note("n1", NoteAccess.PRIVATE, author="u1"))
    with pytest.raises(AccessDenied):
        send_message(store, Message("m1", "u2", ("u3",), ("n1",), 0))
    # the author may send their own private note
    sent = send_message(store, Message("m1", "u1", ("u3",), ("n1",), 0))
    assert "m1" in sent.messages


def test_message_with_unknown_ref_rejected():
    store = store_with()
    with pytest.raises(DanglingRef):
        send_message(store, Message("m1", "u1", BROADCAST, ("ghost",), 0))


def test_inbox_only_sees_addressed_or_broadcast():
    store = store_with(note("n1", NoteAccess.ALL, author="u1"))
    store = send_message(store, Message("m1", "u1", ("u2",), ("n1",), 1))
    store = send_message(store, Message("m2", "u1", BROADCAST, ("n1",), 2))
    assert [m.message_id for m in inbox(store, "u2")] == ["m1", "m2"]
    assert [m.message_id for m in inbox(store, "u3")] == ["m2"]
    assert inbox(store_with(), "unknown") == []


def test_inbox_ties_break_by_message_id():
    store = store_with(note("n1", NoteAccess.ALL, author="u1"))
    store = send_message(store, Message("mb", "u1", BROADCAST, ("n1",), 9))
    store = send_message(store, Message("ma", "u1", BROADCAST, ("n1",), 9))
    assert [m.message_id for m in inbox(store, "x")] == ["ma", "mb"]


def test_jsonl_round_trip_is_byte_exact(tmp_path):
    store = store_with(
        note("n1", NoteAccess.PRIVATE, author="u1"),
        LearnerNote("n2", "LA12", "u2", 7, NoteAccess.ALL, "unicode Σ body", ("file://a", "file://b")),
    )
    store = send_message(store, Message("m1", "u2", ("u9", "u3"), ("n2",), 11), "learner")
    path = tmp_path / "store.jsonl"
    flush(store, path)
    first = path.read_bytes()
    again = reload(path, ENV)
    assert again == store
    flush(again, path)
    assert path.read_bytes() == first


def test_loads_rejects_unknown_kind():
    with pytest.raises(ValueError):
        loads('{"kind":"banana"}\n', ENV)


def test_empty_store_serializes_to_empty_text():
    assert dumps(new_store(ENV)) == ""


def test_recipients_normalized_to_sorted_unique():
    message = Message("m1", "u1", ("z", "a", "a"), ("n1",), 0)
    assert message.recipients == ("a", "z")


def test_loads_of_dumps_equals_a_store_built_call_by_call():
    env = quick_env([f"LA{i}" for i in range(50)])
    store = new_store(env)
    for i in range(2000):
        access = list(NoteAccess)[i % 3]
        store = attach_note(store, LearnerNote(f"n{i}", f"LA{i % 50}", f"u{i % 7}", i, access, f"b\u2028{i}", (f"f{i}",)))
    for i in range(200):
        to = BROADCAST if i % 5 == 0 else (f"u{i % 7}", "u0")
        ref = i * 7 % 2000
        store = send_message(store, Message(f"m{i}", f"u{ref % 7}", to, (f"n{ref}",), i), "tutor")
    text = dumps(store)
    again = loads(text, env)
    assert again == store
    assert list(again.notes) == list(store.notes) and list(again.messages) == list(store.messages)
    assert dumps(again) == text


def _store_line(**fields) -> str:
    record = {"kind": "note", "note_id": "n1", "node_id": "LA5", "learner_id": "u1", "timestamp": 1,
              "access": "all", "body": "", "attachments": []}
    record.update(fields)
    return json.dumps(record) + "\n"


def _message_line(**fields) -> str:
    record = {"kind": "message", "message_id": "m1", "sender_id": "u1", "recipients": "*", "note_refs": ["n0"],
              "sent_at": 0}
    record.update(fields)
    return json.dumps(record) + "\n"


@pytest.mark.parametrize(
    "error,text",
    [
        (DuplicateId, _store_line() + _store_line()),
        (DanglingRef, _store_line(node_id="LA999")),
        (ValueError, _store_line(timestamp=-1)),
        (DuplicateId, _store_line() + 2 * (json.dumps(
            {"kind": "message", "message_id": "m1", "sender_id": "u1", "recipients": "*", "note_refs": ["n1"],
             "sent_at": 0}) + "\n")),
    ],
    ids=["duplicate-note", "unknown-node", "negative-timestamp", "duplicate-message"],
)
def test_loads_applies_the_attach_rules(error, text):
    with pytest.raises(error):
        loads(text, ENV)


def test_attach_rejects_negative_timestamp():
    with pytest.raises(ValueError):
        store_with(note("n1", NoteAccess.ALL, ts=-1))


@pytest.mark.parametrize(
    "line,reason",
    [
        (_store_line()[:40], "invalid JSON"),
        ('{"kind":"banana"}', "unknown record kind 'banana'"),
        ('["note"]', "JSON object"),
        (_store_line().replace('"learner_id": "u1", ', ""), "missing field 'learner_id'"),
        (_store_line(access="secret"), "NoteAccess"),
        (_store_line(timestamp=-1), "non-negative"),
        (_store_line(note_id=5), "field 'note_id': expected a string"),
        (_store_line(timestamp=True), "field 'timestamp': expected an integer"),
        (_store_line(timestamp=1.5), "field 'timestamp': expected an integer"),
        (_store_line(access=None), "NoteAccess"),
        (_store_line(attachments=["a", 2]), "field 'attachments': expected a list of strings"),
        (_store_line(attachments="a"), "field 'attachments': expected a list of strings"),
        (_store_line().replace('"body": "", ', ""), "missing field 'body'"),
        (_message_line(recipients="u2"), "field 'recipients': expected a list of strings"),
        (_message_line(note_refs="n0"), "field 'note_refs': expected a list of strings"),
        (_message_line(sender_id=["u1"]), "field 'sender_id': expected a string"),
        (_message_line(sent_at="0"), "field 'sent_at': expected an integer"),
    ],
    ids=["truncated", "unknown-kind", "not-an-object", "missing-field", "bad-access", "negative-timestamp",
         "note-id-int", "timestamp-bool", "timestamp-float", "access-null", "attachment-int", "attachments-str",
         "missing-body", "recipients-str", "note-refs-str", "sender-list", "sent-at-str"],
)
def test_loads_reports_the_bad_line(line, reason):
    text = _store_line(note_id="n0") + "\n" + line
    with pytest.raises(ParseError) as err:
        loads(text, ENV)
    assert err.value.line_no == 3
    assert reason in str(err.value) and str(err.value).startswith("line 3: ")


def test_flush_failing_midway_keeps_the_previous_store(tmp_path, monkeypatch):
    path = tmp_path / "store.jsonl"
    flush(store_with(note("n1", NoteAccess.ALL)), path)
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        flush(store_with(note("n1", NoteAccess.ALL), note("n2", NoteAccess.ALL)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]


def test_flush_keeps_the_store_file_mode(tmp_path):
    path = tmp_path / "store.jsonl"
    flush(store_with(note("n1", NoteAccess.ALL)), path)
    path.chmod(0o640)
    flush(store_with(note("n1", NoteAccess.ALL), note("n2", NoteAccess.ALL)), path)
    assert path.stat().st_mode & 0o777 == 0o640
    assert list(reload(path, ENV).notes) == ["n1", "n2"]


def test_loads_rejects_a_message_pointing_at_a_missing_note():
    text = _store_line(note_id="n0") + _message_line() + _message_line(message_id="m2", note_refs=["n0", "n9"])
    with pytest.raises(DanglingRef) as err:
        loads(text, ENV)
    assert err.value.missing_id == "n9" and err.value.line_no == 3


def test_loads_resolves_message_refs_after_the_whole_store():
    store = loads(_message_line(note_refs=["n0"]) + _store_line(note_id="n0"), ENV)
    assert list(store.messages["m1"].note_refs) == ["n0"] and list(store.notes) == ["n0"]
