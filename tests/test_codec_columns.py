"""The column-at-a-time codecs against naive writers and readers that go one record at a time.

Clean courses must give the naive writers' bytes (``oracles.naive_graph_text`` and ``oracles.naive_dot``).
A course or a store with one planted fault must be refused with the exception type and message of the
naive per-record rules (``oracles.naive_violations``, ``oracles.naive_graph_refusal`` and
``oracles.naive_store``), and a clean store must load the records ``oracles.naive_store`` reads.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import quick_env
from odlgraph import course_format, notes
from odlgraph.dot_export import ExportStyle, export_dot
from odlgraph.model import (
    EdgeTag,
    LearningActivity,
    LearningEnvironment,
    LearningObject,
    LearningTask,
    ObjectKind,
    PrecedentEdge,
    Violation,
    isomorphic,
    validate,
)
from odlgraph.options import NoteAccess, Overlay

# Characters the writers escape or quote, braces, non-ASCII text, and whitespace the graph reader strips.
CHARS = list('ab|\\" {}é\t\x0c ')
WORDS = st.text(st.sampled_from(CHARS), min_size=1, max_size=5)
STABLE = WORDS.filter(lambda text: text.strip() == text)  # a field the graph reader gives back
LABELS = st.one_of(st.just(""), WORDS.filter(lambda text: text.rstrip() == text))
TITLES = st.text(st.sampled_from(CHARS), max_size=5)
DURATIONS = st.one_of(st.none(), st.integers(0, 500), st.floats(0, 1e9, allow_nan=False, allow_infinity=False))


def _outcome(call):
    """``repr`` of what ``call`` returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # the type and message are what the two paths must share
        return type(exc), str(exc)


def _named(call):
    """:func:`_outcome` of ``call`` with the type of what it raises by its name."""
    outcome = _outcome(call)
    return (outcome[0].__name__, outcome[1]) if isinstance(outcome, tuple) else outcome


def _naive_serialize(env: LearningEnvironment, title: str):
    """The outcome ``serialize(env, "odlg", title)`` has by the naive rules, as :func:`_named` gives one."""
    try:
        violations = oracles.naive_violations(env)
        refusal = None if violations else oracles.naive_graph_refusal(env, title)
    except TypeError as exc:  # a value the rules cannot compare or read
        return "TypeError", str(exc)
    if violations:
        return "ValueError", f"cannot serialize an invalid environment: {violations[0][2]}"
    return repr(oracles.naive_graph_text(env, title)) if refusal is None else ("UnsupportedFormat", refusal)


@st.composite
def courses(draw) -> LearningEnvironment:
    """A course that passes ``validate`` and whose every field reads back from ``.odlg`` text."""
    ids = draw(st.lists(STABLE, min_size=1, max_size=8, unique=True))
    objects, tasks, activities = {}, {}, {}
    for number, aid in enumerate(ids, 1):
        oid = f"O{number}"
        objects[oid] = LearningObject(oid, draw(STABLE), ObjectKind.ATOMIC, draw(STABLE))
        verb = draw(STABLE)
        tasks[verb] = LearningTask(verb, verb)
        activities[aid] = LearningActivity(aid, oid, verb, draw(st.booleans()), draw(DURATIONS))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids), LABELS, st.sampled_from(EdgeTag)),
                          max_size=10))
    return LearningEnvironment(activities, tuple(PrecedentEdge(f"e{k}", *edge) for k, edge in enumerate(edges, 1)),
                               objects, tasks)


@given(courses(), TITLES)
@settings(max_examples=150, deadline=None)
def test_the_graph_writer_gives_the_naive_writers_text(env, title):
    assert validate(env) == [] and oracles.naive_graph_refusal(env, title) is None
    assert course_format.serialize(env, "odlg", title=title) == oracles.naive_graph_text(env, title)


@given(courses(), st.booleans(), st.sampled_from([Overlay.NONE, Overlay.VISIT_ORDER, Overlay.COVERAGE]),
       st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_dot_writer_gives_the_naive_writers_text(env, reference_edges, overlay, dangling, data):
    if dangling:  # an edge to no activity: the writer quotes what it is given
        env = LearningEnvironment(env.activities, (*env.edges, PrecedentEdge("e0", "gone", next(iter(env.activities)))),
                                  env.objects, env.tasks)
    walk = None
    if overlay is not Overlay.NONE:
        walk = data.draw(st.lists(st.sampled_from(sorted(env.activities)), max_size=6))
    text = export_dot(env, ExportStyle(overlay, reference_edges), walk)
    assert text == oracles.naive_dot(env, reference_edges, walk, numbered=overlay is Overlay.VISIT_ORDER)


class _Text(str):
    """Text that is no exact ``str``, which the writers must write as the ``str`` of the same text."""


def _as_text_subclass(env: LearningEnvironment) -> LearningEnvironment:
    """``env`` with its activity ids, titles, verbs, locators and labels made :class:`_Text`."""
    objects = {oid: obj._replace(title=_Text(obj.title), locator=_Text(obj.locator)) for oid, obj in env.objects.items()}
    tasks = {tid: task._replace(verb=_Text(task.verb)) for tid, task in env.tasks.items()}
    activities = {_Text(aid): act._replace(id=_Text(aid)) for aid, act in env.activities.items()}
    edges = tuple(edge._replace(from_id=_Text(edge.from_id), to_id=_Text(edge.to_id), label=_Text(edge.label))
                  for edge in env.edges)
    return LearningEnvironment(activities, edges, objects, tasks)


@given(courses(), TITLES)
@settings(max_examples=50, deadline=None)
def test_text_that_is_no_exact_str_is_written_as_the_same_bytes(env, title):
    subclassed = _as_text_subclass(env)
    text = course_format.serialize(subclassed, "odlg", title=title)
    assert text == course_format.serialize(env, "odlg", title=title)
    assert isomorphic(course_format.parse_graph_file(text), env)
    for reference_edges in (False, True):
        style = ExportStyle(include_reference_edges=reference_edges)
        assert export_dot(subclassed, style) == export_dot(env, style)


def test_a_tag_that_is_no_edge_tag_fails_the_dot_writer_as_the_old_sort_key_did():
    env = quick_env(["a", "b"], [("a", "b")])
    untagged = LearningEnvironment(env.activities, (env.edges[0]._replace(tag="sequence"),), env.objects, env.tasks)
    with pytest.raises(AttributeError, match="'str' object has no attribute 'value'"):
        export_dot(untagged)


COURSE_FAULTS = ("line end", "whitespace", "empty id", "id not text", "composite object", "unknown kind", "duration",
                 "bad tag", "dangling edge")


def _renamed(env: LearningEnvironment, old: str, new: str) -> LearningEnvironment:
    """``env`` with activity ``old`` called ``new``, in its key, its record and its edges."""
    activities = {new if aid == old else aid: act._replace(id=new) if aid == old else act
                  for aid, act in env.activities.items()}
    edges = tuple(edge._replace(from_id=new if edge.from_id == old else edge.from_id,
                                to_id=new if edge.to_id == old else edge.to_id) for edge in env.edges)
    return LearningEnvironment(activities, edges, env.objects, env.tasks)


@st.composite
def faulty_courses(draw, fault: str) -> tuple[LearningEnvironment, str]:
    """A clean course and title with ``fault`` planted: each is refused by ``validate`` or by the writer."""
    env, title = draw(courses()), draw(TITLES)
    aid = draw(st.sampled_from(list(env.activities)))
    act = env.activities[aid]
    objects, tasks, activities = dict(env.objects), dict(env.tasks), dict(env.activities)
    if fault in ("line end", "whitespace"):
        field = draw(st.sampled_from(["activity id", "object title", "verb", "locator", "edge label", "title"]))
        if fault == "whitespace" and field == "title":
            field = "verb"  # the course title is written as it is, whitespace and all
        if fault == "line end":
            planted, at_end = draw(st.sampled_from(["\n", "\r", "\r\n"])), None
        else:  # the graph reader strips both ends of a field but the end of a label only
            planted = draw(st.sampled_from([" ", "\t", "\x0c", "\u2028"]))
            at_end = field == "edge label" or draw(st.booleans())

        def change(text: str) -> str:
            if at_end is None:
                return text[:1] + planted + text[1:]
            return text + planted if at_end else planted + text

        if field == "title":
            return env, change(title)
        if field == "activity id":
            return _renamed(env, aid, change(aid)), title
        if field == "edge label":
            edge = PrecedentEdge("e0", aid, aid, change("label"), EdgeTag.UNTAGGED)
            return LearningEnvironment(env.activities, (*env.edges, edge), env.objects, env.tasks), title
        if field == "verb":
            tasks[act.task_id] = LearningTask(act.task_id, change(tasks[act.task_id].verb))
        else:
            obj = objects[act.object_id]
            objects[obj.id] = obj._replace(title=change(obj.title)) if field == "object title" \
                else obj._replace(locator=change(obj.locator))
    elif fault in ("empty id", "id not text"):
        return _renamed(env, aid, "" if fault == "empty id" else 5), title
    elif fault == "unknown kind":  # the text of a kind, not the ObjectKind member
        objects[act.object_id] = objects[act.object_id]._replace(kind="atomic")
    elif fault == "composite object":
        objects["part"] = LearningObject("part", "part", ObjectKind.ATOMIC, "part")
        objects[act.object_id] = LearningObject(act.object_id, "whole", ObjectKind.COMPOSITE, "", ("part",))
    elif fault == "duration":
        activities[aid] = act._replace(expected_duration_minutes=draw(
            st.sampled_from([float("inf"), float("nan"), float("-inf"), -1.5])))
    else:
        tag = draw(st.sampled_from(["sequence", "bogus"])) if fault == "bad tag" else EdgeTag.UNTAGGED
        target = "missing" if fault == "dangling edge" else aid
        edge = PrecedentEdge("e0", aid, target, "", tag)
        return LearningEnvironment(activities, (*env.edges, edge), objects, tasks), title
    return LearningEnvironment(activities, env.edges, objects, tasks), title


@pytest.mark.parametrize("fault", COURSE_FAULTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_course_with_one_fault_is_refused_as_the_record_rules_refuse_it(fault, data):
    env, title = data.draw(faulty_courses(fault))
    refused = _naive_serialize(env, title)
    assert isinstance(refused, tuple), refused  # the planted fault is refused
    assert _named(lambda: course_format.serialize(env, "odlg", title=title)) == refused
    assert _named(lambda: validate(env)) == _named(lambda: [Violation(*found) for found in oracles.naive_violations(env)])


STORE_ENV = quick_env(["LA1", "LA2", "LA3"])
ACCESS = [access.value for access in NoteAccess]
STORE_FAULTS = ("bad json", "not an object", "unhashable kind", "unknown kind", "missing field", "bool as integer",
                "attachments not a list", "attachment not a string", "negative time", "duplicate id",
                "unknown activity", "dangling ref")


@st.composite
def store_records(draw, at_least: int = 0) -> list[dict]:
    """Decoded note and message records that load, notes and messages mixed in file order."""
    texts = st.text(max_size=4)
    records = [{"kind": "note", "note_id": f"n{i}", "node_id": draw(st.sampled_from(list(STORE_ENV.activities))),
                "learner_id": draw(texts), "timestamp": draw(st.integers(0, 10**12)),
                "access": draw(st.sampled_from(ACCESS)), "body": draw(texts),
                "attachments": draw(st.lists(texts, max_size=3))}
               for i in range(draw(st.integers(at_least, 5)))]
    # Sometimes a long run of plain notes first, so that the store spans several of the pieces it is decoded in.
    records += [{"kind": "note", "note_id": f"f{i}", "node_id": "LA1", "learner_id": "u1", "timestamp": i,
                 "access": "all", "body": "", "attachments": []} for i in range(draw(st.sampled_from([0, 0, 0, 300])))]
    note_ids = [record["note_id"] for record in records]
    if note_ids:
        records += [{"kind": "message", "message_id": f"m{i}", "sender_id": draw(texts),
                     "recipients": draw(st.one_of(st.just("*"), st.lists(st.sampled_from(["u1", "u2", "u3"]),
                                                                          min_size=1, max_size=4))),
                     "note_refs": draw(st.lists(st.sampled_from(note_ids), min_size=1, max_size=3)),
                     "sent_at": draw(st.integers(0, 10**12))}
                    for i in range(draw(st.integers(at_least, 4)))]
    return draw(st.permutations(records)) if len(records) < 20 else records


def _store_text(draw, lines: list[str]) -> tuple[str, bool]:
    """The store's text, with blank lines among its first records and, in some stores, whitespace around one
    record; True when a record is padded, which sends the whole store to the per-line rules."""
    out = []
    for number, line in enumerate(lines):
        if number < 20:
            out += draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=1))
        out.append(line)
    records_at = [number for number, line in enumerate(out) if line.strip()]
    padded = bool(records_at) and draw(st.sampled_from([False, False, True]))
    if padded:
        at = draw(st.sampled_from(records_at))
        out[at] = draw(st.sampled_from([" {}", "{} \t", "\t{} "])).format(out[at])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in out), padded


def _writer(draw):
    """One of the ways to write a record as JSON: key order, escapes and separators."""
    options = dict(sort_keys=draw(st.booleans()), ensure_ascii=draw(st.booleans()),
                   separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    return lambda record: json.dumps(record, **options)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_a_clean_store_loads_as_the_record_rules_load_it(data):
    records = data.draw(store_records())
    text, padded = _store_text(data.draw, list(map(_writer(data.draw), records)))
    store = notes.loads(text, STORE_ENV)
    loaded = ("ok", list(map(tuple, store.notes.values())), list(map(tuple, store.messages.values())))
    assert loaded == oracles.naive_store(text, STORE_ENV.activities)
    assert len(store.notes) + len(store.messages) == len(records)


@pytest.mark.parametrize("fault", STORE_FAULTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_store_with_one_fault_is_refused_as_the_record_rules_refuse_it(fault, data):
    records = data.draw(store_records(at_least=1))
    kind = "message" if fault == "dangling ref" else "note" if fault in (
        "attachments not a list", "attachment not a string", "unknown activity") else data.draw(
        st.sampled_from(["note", "message"]))
    index = data.draw(st.sampled_from([i for i, record in enumerate(records) if record["kind"] == kind]))
    record = records[index] = dict(records[index])
    dumps = _writer(data.draw)
    time_field = "timestamp" if kind == "note" else "sent_at"
    line = None
    if fault == "bad json":
        line = dumps(record)[:-1]
    elif fault == "not an object":
        line = data.draw(st.sampled_from([json.dumps(list(record.values())), "5", '"note"', "null"]))
    elif fault == "unhashable kind":
        record["kind"] = [kind]
    elif fault == "unknown kind":
        record["kind"] = data.draw(st.sampled_from(["banana", None, 1, "Note"]))
    elif fault == "missing field":
        del record[data.draw(st.sampled_from(sorted(record)))]
    elif fault == "bool as integer":
        record[time_field] = data.draw(st.booleans())
    elif fault == "attachments not a list":
        record["attachments"] = data.draw(st.sampled_from(["a", None, {"a": 1}]))
    elif fault == "attachment not a string":
        record["attachments"] = [*record["attachments"], data.draw(st.sampled_from([1, None, ["a"]]))]
    elif fault == "negative time":
        record[time_field] = data.draw(st.integers(-10, -1))
    elif fault == "duplicate id":  # a second record with the same id, before or after the first
        records.insert(data.draw(st.integers(0, len(records))), dict(record))
    elif fault == "unknown activity":
        record["node_id"] = "LA9"
    else:
        record["note_refs"] = [*record["note_refs"], "n99"]
    lines = list(map(dumps, records))
    if line is not None:
        lines[index] = line
    text, _ = _store_text(data.draw, lines)
    refused = oracles.naive_store(text, STORE_ENV.activities)
    assert refused[0] != "ok", refused  # the planted fault is refused
    assert _named(lambda: notes.loads(text, STORE_ENV)) == refused
