from __future__ import annotations

import json
import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from odlgraph.errors import AccessDenied, DanglingRef, DuplicateId, EmptyContent, ParseError, UnsupportedFormat
from odlgraph.notes import (
    BROADCAST,
    LearnerNote,
    Message,
    NoteAccess,
    NoteStore,
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

from conftest import assert_record_contract, quick_env
from writer_matches_json import HARD, json_line
from writer_matches_json import main as writer_matches_json

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
    with pytest.raises(DanglingRef) as err:
        list_notes(store, "LA999", "u1")
    assert err.value.missing_id == "LA999"


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
    assert "body" not in Message._fields


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


def test_reload_of_a_store_that_is_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "store.jsonl"
    flush(store_with(note("n1", NoteAccess.ALL)), path)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    with pytest.raises(ParseError) as err:
        reload(path, ENV)
    assert err.value.line_no == 2 and "not UTF-8" in err.value.reason


def test_loads_ends_records_at_crlf_cr_and_lf_only():
    store = store_with(note("n1", NoteAccess.ALL), LearnerNote("n2", "LA5", "u1", 3, body="a\u2028b\x85c\x0c"))
    text = dumps(store)
    assert loads(text, ENV) == store
    assert loads(text.replace("\n", "\r\n"), ENV) == store
    assert loads(text.replace("\n", "\r"), ENV) == store


def test_empty_store_serializes_to_empty_text():
    assert dumps(new_store(ENV)) == ""


def test_recipients_normalized_to_sorted_unique():
    message = Message("m1", "u1", ("z", "a", "a"), ["n1"], 0)
    assert message == ("m1", "u1", ("a", "z"), ("n1",), 0)
    # _make and _replace build the tuple as given, without the constructor's normalisation.
    assert Message._make(("m1", "u1", ("z", "a"), ("n1",), 0)).recipients == ("z", "a")
    assert message._replace(recipients=("z", "a", "a")).recipients == ("z", "a", "a")


def test_a_bare_recipient_string_is_refused_not_split_into_characters():
    with pytest.raises(TypeError, match="'u22'"):
        Message("m1", "u1", "u22", ("n1",), 0)
    assert Message("m1", "u1", BROADCAST, ("n1",), 0).recipients == BROADCAST
    assert Message("m1", "u1", ["u22"], ("n1",), 0).recipients == ("u22",)


def test_a_bare_note_refs_string_is_refused_not_split_into_characters():
    with pytest.raises(TypeError, match="'n1'"):
        Message("m1", "u1", ("u2",), "n1", 0)
    assert Message("m1", "u1", ("u2",), ["n1"], 0).note_refs == ("n1",)


def test_a_bare_attachments_string_is_refused_not_written_as_a_store_loads_would_refuse():
    store = store_with(note("n1", NoteAccess.ALL))
    with pytest.raises(TypeError, match="'file.pdf'"):
        attach_note(store, LearnerNote("n2", "LA5", "u1", 0, attachments="file.pdf"))
    assert list(store.notes) == ["n1"]
    kept = attach_note(store, LearnerNote("n2", "LA5", "u1", 0, attachments=("file.pdf",)))
    assert loads(dumps(kept), ENV) == kept


@pytest.mark.parametrize("cls, values, fields, defaults", [
    (LearnerNote, ("n1", "LA5", "u1", 7, NoteAccess.TUTORS, "see p. 3", ("a.pdf",)),
     ("note_id", "node_id", "learner_id", "timestamp", "access", "body", "attachments"),
     {"access": NoteAccess.PRIVATE, "body": "", "attachments": ()}),
    (Message, ("m1", "u1", ("u2", "u3"), ("n1",), 9),
     ("message_id", "sender_id", "recipients", "note_refs", "sent_at"), {}),
    (NoteStore, (ENV, {}, {}), ("env", "notes", "messages"), {}),
], ids=["LearnerNote", "Message", "NoteStore"])
def test_note_records_keep_their_fields_and_are_immutable_values(cls, values, fields, defaults):
    assert_record_contract(cls, values, fields, defaults)


def test_new_stores_get_fresh_dicts():
    first, second = new_store(ENV), new_store(ENV)
    assert first == second and first.notes is not second.notes and first.messages is not second.messages


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


def test_send_rejects_negative_sent_at():
    store = store_with(note("n1", NoteAccess.ALL))
    with pytest.raises(ValueError, match="sent_at must be non-negative"):
        send_message(store, Message("m1", "u1", ("u2",), ("n1",), -5))
    assert send_message(store, Message("m1", "u1", ("u2",), ("n1",), 0)).messages["m1"].sent_at == 0


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
        (_message_line(sent_at=-5), "sent_at must be non-negative"),
        (_store_line().strip() + " " + _store_line().strip(), "invalid JSON: Extra data"),
        (_store_line().strip() + "x", "invalid JSON: Extra data"),
        (" " + _store_line()[:40], "invalid JSON"),
        (_store_line().replace('"node_id": "LA5", ', "").replace('"learner_id": "u1", ', ""),
         "missing field 'node_id'"),
        (_store_line(note_id=5).replace('"body": "", ', ""), "field 'note_id': expected a string"),
        (_message_line(recipients=["u2", 3]), "field 'recipients': expected a list of strings"),
    ],
    ids=["truncated", "unknown-kind", "not-an-object", "missing-field", "bad-access", "negative-timestamp",
         "note-id-int", "timestamp-bool", "timestamp-float", "access-null", "attachment-int", "attachments-str",
         "missing-body", "recipients-str", "note-refs-str", "sender-list", "sent-at-str", "negative-sent-at",
         "two-records", "trailing-junk", "leading-space-truncated", "two-missing-fields", "bad-type-before-missing",
         "recipient-int"],
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


def test_flush_through_a_symlink_updates_the_store_it_points_to(tmp_path):
    path, link = tmp_path / "store.jsonl", tmp_path / "link.jsonl"
    flush(store_with(note("n1", NoteAccess.ALL)), path)
    link.symlink_to(path.name)
    flush(store_with(note("n1", NoteAccess.ALL), note("n2", NoteAccess.ALL)), link)
    assert link.is_symlink()
    assert list(reload(path, ENV).notes) == ["n1", "n2"]


def test_loads_rejects_a_message_pointing_at_a_missing_note():
    text = _store_line(note_id="n0") + _message_line() + _message_line(message_id="m2", note_refs=["n0", "n9"])
    with pytest.raises(DanglingRef) as err:
        loads(text, ENV)
    assert err.value.missing_id == "n9" and err.value.line_no == 3


def test_loads_resolves_message_refs_after_the_whole_store():
    store = loads(_message_line(note_refs=["n0"]) + _store_line(note_id="n0"), ENV)
    assert list(store.messages["m1"].note_refs) == ["n0"] and list(store.notes) == ["n0"]


@pytest.mark.parametrize("line", [
    " " + _store_line(),
    "\t" + _store_line(),
    _store_line()[:-1] + " \t\n",
    "\t " + _store_line()[:-1] + "  \n",
    _store_line().replace('"kind"', '"colour": "red", "kind"'),
], ids=["leading-space", "leading-tab", "trailing-blanks", "blanks-around", "unknown-key"])
def test_loads_accepts_a_record_with_blanks_around_it_or_an_unknown_key(line):
    text = _store_line(note_id="n0") + line
    assert list(loads(text, ENV).notes) == ["n0", "n1"]


def test_loads_skips_lines_of_whitespace_only():
    text = " \n\t\n" + _store_line(note_id="n0") + "\n \x0c \x85\n" + _store_line() + "   "
    assert list(loads(text, ENV).notes) == ["n0", "n1"]


def test_a_missing_field_is_named_in_field_order():
    line = _store_line()
    for name in ("attachments", "timestamp", "note_id"):
        line = line.replace(f'"{name}": ', f'"_{name}": ')
    with pytest.raises(ParseError, match="missing field 'note_id'"):
        loads(line, ENV)


# Notes and messages the type table refuses; each one used to be stored, written, and then refused by loads.
BAD_NOTES = {
    "timestamp-bool": (LearnerNote("n2", "LA5", "u1", True), "'timestamp' must be an integer, not True"),
    "timestamp-float": (LearnerNote("n2", "LA5", "u1", 1.5), "'timestamp' must be an integer, not 1.5"),
    "body-int": (LearnerNote("n2", "LA5", "u1", 0, body=5), "'body' must be a string, not 5"),
    "attachment-int": (LearnerNote("n2", "LA5", "u1", 0, attachments=(1,)), "'attachments' must be a tuple"),
    "access-plain-string": (LearnerNote("n2", "LA5", "u1", 0, "all"), "'access' must be a NoteAccess member"),
    "note-id-none": (LearnerNote(None, "LA5", "u1", 0), "'note_id' must be a string, not None"),
}
BAD_MESSAGES = {
    "sent-at-bool": (Message("m1", "u1", ("u2",), ("n1",), True), "'sent_at' must be an integer, not True"),
    "sent-at-float": (Message("m1", "u1", ("u2",), ("n1",), 0.5), "'sent_at' must be an integer, not 0.5"),
    "recipient-int": (Message._make(("m1", "u1", ("u2", 3), ("n1",), 0)),
                      "'recipients' must be '*' or a tuple of strings"),
    "recipients-string": (Message._make(("m1", "u1", "u2", ("n1",), 0)), "'recipients' must be '*' or a tuple"),
    "recipients-list": (Message._make(("m1", "u1", ["u2"], ("n1",), 0)), "'recipients' must be '*' or a tuple"),
    "note-refs-list": (Message._make(("m1", "u1", ("u2",), ["n1"], 0)), "'note_refs' must be a tuple of strings"),
    "sender-bytes": (Message("m1", b"u1", ("u2",), ("n1",), 0), "'sender_id' must be a string, not b'u1'"),
}


@pytest.mark.parametrize("name", list(BAD_NOTES))
def test_attach_and_dumps_refuse_a_note_the_type_table_refuses(name):
    bad, reason = BAD_NOTES[name][0], re.escape(BAD_NOTES[name][1])
    store = store_with(note("n1", NoteAccess.ALL))
    with pytest.raises(TypeError, match=reason):
        attach_note(store, bad)
    assert list(store.notes) == ["n1"]
    by_hand = NoteStore(ENV, {**store.notes, "n2": bad}, {})
    with pytest.raises(TypeError, match=reason):
        dumps(by_hand)


@pytest.mark.parametrize("name", list(BAD_MESSAGES))
def test_send_and_dumps_refuse_a_message_the_type_table_refuses(name):
    bad, reason = BAD_MESSAGES[name][0], re.escape(BAD_MESSAGES[name][1])
    store = store_with(note("n1", NoteAccess.ALL))
    with pytest.raises(TypeError, match=reason):
        send_message(store, bad)
    assert store.messages == {}
    by_hand = NoteStore(ENV, store.notes, {"m0": Message("m0", "u1", BROADCAST, ("n1",), 0), "m1": bad})
    with pytest.raises(TypeError, match=reason):
        dumps(by_hand)


def _large_store_with(bad: LearnerNote | Message) -> NoteStore:
    """100 good notes and 100 good messages, with ``bad`` in the middle of the records of its kind."""
    notes = [note(f"n{i}", NoteAccess.ALL) for i in range(100)]
    messages = [Message(f"m{i}", "u1", BROADCAST, (f"n{i}",), i) for i in range(100)]
    (notes if isinstance(bad, LearnerNote) else messages).insert(50, bad)
    return NoteStore(ENV, dict(enumerate(notes)), dict(enumerate(messages)))


@pytest.mark.parametrize("bad,reason", [*BAD_NOTES.values(), *BAD_MESSAGES.values()],
                         ids=[*BAD_NOTES, *BAD_MESSAGES])
def test_dumps_names_a_bad_record_among_good_ones_as_attach_and_send_do(bad, reason):
    store = store_with(note("n1", NoteAccess.ALL))
    with pytest.raises(TypeError) as one_record:
        attach_note(store, bad) if isinstance(bad, LearnerNote) else send_message(store, bad)
    with pytest.raises(TypeError, match=re.escape(reason)) as many_records:
        dumps(_large_store_with(bad))
    assert str(many_records.value) == str(one_record.value)


def test_dumps_refuses_a_record_with_the_wrong_number_of_fields():
    by_hand = NoteStore(ENV, {"n1": ("n1", "LA5", "u1", 0, NoteAccess.ALL, "")}, {})
    with pytest.raises(TypeError, match="a note record has 7 fields, not 6"):
        dumps(by_hand)


def test_a_note_shared_with_all_is_seen_before_and_after_a_reload():
    store = store_with(LearnerNote("n1", "LA5", "author", 0, NoteAccess("all")))
    assert [n.note_id for n in list_notes(store, "LA5", "someone-else")] == ["n1"]
    assert [n.note_id for n in list_notes(loads(dumps(store), ENV), "LA5", "someone-else")] == ["n1"]


def test_flush_refuses_text_that_is_not_utf8_before_touching_the_file(tmp_path):
    path = tmp_path / "store.jsonl"
    store = store_with(note("n1", NoteAccess.ALL))
    flush(store, path)
    before = path.read_bytes()
    with pytest.raises(UnsupportedFormat, match=r"line 2 holds '\\udcff'"):
        flush(attach_note(store, LearnerNote("n2", "LA5", "u1", 0, body="a\udcffb")), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]
    # The JSON escape of a lone surrogate loads, and the next flush refuses it the same way.
    loaded = loads(before.decode() + _store_line(note_id="n2", body="\udcff"), ENV)
    with pytest.raises(UnsupportedFormat):
        flush(loaded, path)
    assert path.read_bytes() == before


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python writes integers of any length")


@needs_digit_limit
def test_dumps_refuses_an_integer_too_long_to_write_and_flush_leaves_the_file(tmp_path):
    path = tmp_path / "store.jsonl"
    store = store_with(note("n1", NoteAccess.ALL))
    flush(store, path)
    before = path.read_bytes()
    huge = 10 ** (_DIGIT_LIMIT + 1)
    for too_long, reason in (
        (attach_note(store, note("n2", NoteAccess.ALL, ts=huge)), "note 'n2' field 'timestamp'"),
        (send_message(store, Message("m1", "u1", BROADCAST, ("n1",), huge)), "message 'm1' field 'sent_at'"),
    ):
        with pytest.raises(UnsupportedFormat, match=f"{reason} holds an integer too long to write as text$"):
            dumps(too_long)
        with pytest.raises(UnsupportedFormat):
            flush(too_long, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]


@needs_digit_limit
def test_loads_refuses_an_integer_too_long_to_read():
    digits = "1" * (_DIGIT_LIMIT + 1)
    for line in (_store_line(timestamp=0).replace('"timestamp": 0', f'"timestamp": {digits}'),
                 _message_line(sent_at=0).replace('"sent_at": 0', f'"sent_at": {digits}')):
        assert digits in line
        with pytest.raises(ParseError) as err:
            loads(_store_line(note_id="n0") + line, ENV)
        assert err.value.line_no == 2


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(HARD)), max_size=8)


@st.composite
def stores(draw):
    store = new_store(ENV)
    for i in range(draw(st.integers(1, 6))):
        store = attach_note(store, LearnerNote(
            f"n{i}:{draw(_TEXT)}", draw(st.sampled_from(["LA5", "LA12", "LA112"])), draw(_TEXT),
            draw(st.integers(0, 2 ** 70)), draw(st.sampled_from(list(NoteAccess))), draw(_TEXT),
            tuple(draw(st.lists(_TEXT, max_size=3)))))
    shared = [n.note_id for n in store.notes.values() if n.access is not NoteAccess.PRIVATE]
    for i in range(draw(st.integers(0, 4)) if shared else 0):
        recipients = draw(st.one_of(st.just(BROADCAST), st.lists(_TEXT, max_size=3)))
        refs = draw(st.lists(st.sampled_from(shared), min_size=1, max_size=3))
        store = send_message(store, Message(f"m{i}:{draw(_TEXT)}", draw(_TEXT), recipients, refs,
                                            draw(st.integers(0, 2 ** 40))), "tutor")
    return store


@given(stores())
@settings(max_examples=300)
def test_each_line_dumps_writes_is_the_json_dumps_line_and_reads_back(store):
    text = dumps(store)
    assert text.split("\n")[:-1] == [json_line(r)[:-1] for r in [*store.notes.values(), *store.messages.values()]]
    assert loads(text, ENV) == store


def test_the_writer_matches_json_dumps_on_seeded_stores(capsys):
    assert writer_matches_json(["writer_matches_json.py", "200"]) == 0
    assert capsys.readouterr().out.endswith("200 stores, every line equals json.dumps\n")


def test_the_type_table_gives_every_field_in_field_order():
    from odlgraph.notes import _TYPES

    assert {kind: (cls, list(types)) for kind, (cls, types) in _TYPES.items()} == {
        "note": (LearnerNote, list(LearnerNote._fields)), "message": (Message, list(Message._fields))}
