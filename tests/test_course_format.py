from __future__ import annotations

import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from odlgraph.course_format import (
    DETOUR_LABEL,
    CourseDocument,
    TabularLine,
    _outline_edges,
    _split_record,
    parse_course,
    parse_graph_file,
    parse_tabular,
    read_document,
    serialize,
)
from odlgraph.errors import DanglingRef, ParseError, UnsupportedFormat
from odlgraph.model import (
    EdgeTag,
    LearningActivity,
    LearningEnvironment,
    LearningObject,
    LearningTask,
    ObjectKind,
    PrecedentEdge,
    add_activity,
    add_edge,
    add_object,
    add_task,
    empty_environment,
    isomorphic,
    validate,
)
from odlgraph.text import holds_line_end

import oracles
from conftest import assert_record_contract, quick_env


def test_single_line_maps_to_read_activity():
    env = parse_tabular("Unit\nread\t2.3.1 The divide-and-conquer approach\n")
    (activity,) = env.activities.values()
    assert env.tasks[activity.task_id].verb == "read"
    assert env.objects[activity.object_id].title == "2.3.1 The divide-and-conquer approach"


def test_missing_verb_defaults_to_read_at_depth_zero():
    env = parse_tabular("Unit\nwrite\tDraft an answer\n... the first two paragraphs\n")
    second = env.activities["LA2"]
    assert env.tasks[second.task_id].verb == "read"


def test_indented_line_inherits_enclosing_verb_and_hangs_off_parent():
    text = (
        "Unit\n"
        "read\tSection A\n"
        "\texerc\tFirst exercise\n"
        "\t\tHow do you split in two a sequence that has an odd number of elements?\n"
    )
    env = parse_tabular(text)
    third = env.activities["LA3"]
    assert env.tasks[third.task_id].verb == "exerc"
    detours = [e for e in env.edges if e.label == DETOUR_LABEL]
    assert ("LA2", "LA3") in {(e.from_id, e.to_id) for e in detours}


def test_sibling_with_no_verb_inherits_from_first_sibling():
    text = "Unit\nread\tSection A\n\texerc\tE1\n\tE2\n"
    env = parse_tabular(text)
    assert env.tasks[env.activities["LA3"].task_id].verb == "exerc"


def test_indentation_jump_rejected():
    with pytest.raises(ParseError) as err:
        parse_tabular("Unit\nread\tA\n\tread\tB\n\t\t\tread\tC\n")
    assert "jump" in err.value.reason


def test_first_line_must_be_top_level():
    with pytest.raises(ParseError):
        parse_tabular("Unit\n\tread\tA\n")


def test_empty_document_rejected():
    with pytest.raises(ParseError):
        parse_tabular("\n\n")
    with pytest.raises(ParseError):
        parse_tabular("Only a title\n")


def test_empty_object_text_rejected():
    with pytest.raises(ParseError):
        parse_tabular("Unit\nread\t   \n")


def test_space_in_verb_column_rejected():
    with pytest.raises(ParseError) as err:
        parse_tabular("Unit\nplease read\tA\n")
    assert "verb" in err.value.reason


def test_mergesort_fixture_counts(mergesort_text):
    doc = read_document(mergesort_text)
    env = parse_tabular(mergesort_text)
    depths = [line.depth for line in doc.lines]
    assert len(env.activities) == len(doc.lines) == 20
    assert len(env.edges) == len(oracles.outline_edges(depths)) == 19
    assert len(env.objects) == 18  # one reading referenced three times
    assert sorted(env.tasks) == ["WWW", "exerc", "observe", "programming", "read", "write"]
    assert validate(env) == []


def test_mergesort_fixture_sequence_and_detour_split(mergesort_text):
    env = parse_tabular(mergesort_text)
    by_kind = {"sequence": 0, "detour": 0}
    for e in env.edges:
        by_kind["detour" if e.tag is EdgeTag.INTEREST else "sequence"] += 1
    expected = oracles.outline_edges([l.depth for l in read_document(mergesort_text).lines])
    assert by_kind["sequence"] == sum(1 for *_, k in expected if k == "sequence") == 16
    assert by_kind["detour"] == sum(1 for *_, k in expected if k == "detour") == 3


def test_mergesort_fixture_round_trip(mergesort_text):
    env = parse_tabular(mergesort_text)
    again = parse_tabular(serialize(env, "odlc"))
    assert isomorphic(env, again)


def test_node_and_edge_records():
    text = (
        "# demo\n"
        "NODE LA5|Exercise sheet|exerc|sheet.pdf||\n"
        "NODE LA15|Harder sheet|exerc|sheet2.pdf||\n"
        "EDGE LA5|LA15|difficulty|if you found LA5 very easy to do\n"
    )
    env = parse_graph_file(text)
    (edge,) = env.edges
    assert edge.label == "if you found LA5 very easy to do"
    assert edge.tag is EdgeTag.DIFFICULTY


@pytest.mark.parametrize("tag", list(EdgeTag), ids=[t.value for t in EdgeTag])
def test_every_edge_tag_parses_to_its_member(tag):
    for tag_field in (tag.value, f" {tag.value}\t"):
        env = parse_graph_file(f"NODE A|a|read|a||\nNODE B|b|read|b||\nEDGE A|B|{tag_field}|label\n")
        assert env.edges[0].tag is tag


@pytest.mark.parametrize("tag_text", ["Sequence", "detour", ""], ids=["wrong-case", "unknown", "empty"])
def test_an_unknown_edge_tag_is_a_parse_error_on_its_line(tag_text):
    text = f"NODE A|a|read|a||\n# a comment\nNODE B|b|read|b||\nEDGE A|B|{tag_text}|label\n"
    with pytest.raises(ParseError) as err:
        parse_graph_file(text)
    assert err.value.line_no == 4
    assert str(err.value) == f"line 4: unknown edge tag {tag_text!r}"


def test_duplicate_edge_lines_make_two_bag_entries():
    text = (
        "NODE A|a|read|a||\n"
        "NODE B|b|read|b||\n"
        "EDGE A|B|interest|worth a look\n"
        "EDGE A|B|interest|worth a look\n"
    )
    env = parse_graph_file(text)
    assert len(env.edges) == 2


def test_edge_to_undeclared_node_is_dangling():
    text = "NODE LA5|a|read|a||\nEDGE LA5|LAX|sequence|\n"
    with pytest.raises(DanglingRef) as err:
        parse_graph_file(text)
    assert err.value.missing_id == "LAX"
    assert err.value.line_no == 2
    with pytest.raises(DanglingRef) as err:
        parse_graph_file("NODE LA5|a|read|a||\nEDGE LA5|LA5|sequence|\nEDGE LAY|LA5|sequence|\n")
    assert (err.value.missing_id, err.value.line_no) == ("LAY", 3)


def test_reference_flag_and_duration_round_trip():
    text = (
        "NODE Dict|Dictionary|read|dict.html|ref|\n"
        "NODE LA1|Chapter|read|ch1.html||12.5\n"
        "EDGE LA1|LA1|failure|try again\n"
    )
    env = parse_graph_file(text)
    assert env.activities["Dict"].is_reference
    assert env.activities["LA1"].expected_duration_minutes == 12.5
    again = parse_graph_file(serialize(env, "odlg"))
    assert isomorphic(env, again)
    assert again.activities["Dict"].is_reference


def test_pipe_escaping_in_labels():
    env = quick_env(["a", "b"])
    env = add_edge(env, "a", "b", "either|or \\ both", EdgeTag.INTEREST)
    again = parse_graph_file(serialize(env, "odlg"))
    assert again.edges[0].label == "either|or \\ both"
    assert isomorphic(env, again)


@given(st.text(alphabet="\\| a", max_size=40))
@settings(max_examples=2000)
def test_record_split_matches_the_character_walk(text):
    assert _split_record(text) == oracles.split_record(text)


@pytest.mark.parametrize("text", ["end\\", "end\\\\", "end|", "mid\\|dle", "\\|", "|", "\\", "a\\\\\\|b"])
def test_fields_with_backslashes_and_pipes_round_trip(text):
    env = _one_edge_env(title=text, label=text, verb=text, locator=text, node_id=text)
    again = parse_graph_file(serialize(env, "odlg"))
    (activity,) = (a for a in again.activities.values() if a.id != "LA2")
    obj = again.objects[activity.object_id]
    assert (activity.id, obj.title, obj.locator, again.tasks[activity.task_id].verb) == (text,) * 4
    assert again.edges[0].label == text
    assert isomorphic(env, again)


def test_graph_file_rejects_garbage_and_empties():
    with pytest.raises(ParseError):
        parse_graph_file("WAT a|b\n")
    with pytest.raises(ParseError):
        parse_graph_file("# nothing else\n")
    with pytest.raises(ParseError):
        parse_graph_file("NODE A|a|read|a||\nEDGE A|A|mystery|x\n")
    with pytest.raises(ParseError) as err:
        parse_graph_file("NODE A|a|read|a||\nNODE  |b|read|b||\n")
    assert (err.value.line_no, err.value.reason) == (2, "empty node id")
    with pytest.raises(ParseError) as err:
        parse_graph_file("NODE A|a|read|a||\nNODE B|b|read|b||\nNODE A |c|read|c||\n")
    assert (err.value.line_no, err.value.reason) == (3, "duplicate node id 'A'")


@pytest.mark.parametrize("fmt", ["odlg", "odlc"])
def test_empty_env_serialization_is_refused(fmt):
    # A title alone does not read back: both readers want at least one activity.
    with pytest.raises(UnsupportedFormat, match="without activities"):
        serialize(quick_env([]), fmt, title="Void")


def test_single_node_env_serializes_to_one_node_line():
    text = serialize(quick_env(["LA1"]), "odlg")
    records = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(records) == 1 and records[0].startswith("NODE LA1|")


def test_unknown_format_rejected():
    with pytest.raises(UnsupportedFormat):
        serialize(quick_env(["LA1"]), "xml")


def test_serialize_refuses_invalid_environment():
    from odlgraph.model import LearningEnvironment, PrecedentEdge

    env = quick_env(["LA1"])
    broken = LearningEnvironment(
        env.activities, (PrecedentEdge("e1", "LA1", "LA9"),), env.objects, env.tasks
    )
    with pytest.raises(ValueError):
        serialize(broken, "odlg")


def test_tabular_cannot_express_arbitrary_graphs():
    env = quick_env(["a", "b"], [("a", "b")])  # untagged edge, not outline-shaped
    with pytest.raises(UnsupportedFormat):
        serialize(env, "odlc")


_NOT_AN_OUTLINE = ("a tabular file holds only a one-line title and an outline of plain activities LA1..LAn in file"
                   " order, with no reference flag, duration, separate locator or composite object")


@pytest.mark.parametrize("graph,message", [
    ("NODE LA1|T|read|T|ref\n", _NOT_AN_OUTLINE),
    ("NODE LA1|T|read|loc\n", _NOT_AN_OUTLINE),
    ("NODE A|T|read|T\n", _NOT_AN_OUTLINE),
    ("NODE LA1|T|re ad|T\n", "the tabular text does not read back: line 2: space in verb column: 're ad'"),
], ids=["reference-node", "locator-not-title", "id-not-LA1", "space-in-verb"])
def test_tabular_refuses_a_node_an_outline_line_cannot_hold(graph, message):
    with pytest.raises(UnsupportedFormat) as err:
        serialize(parse_graph_file(graph), "odlc")
    assert str(err.value) == message


# --- randomized round-trips ---------------------------------------------------

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta theta", "iota kappa"]


@st.composite
def outline_texts(draw) -> tuple[str, list[int]]:
    n = draw(st.integers(min_value=1, max_value=12))
    depths = [0]
    for _ in range(n - 1):
        depths.append(draw(st.integers(min_value=0, max_value=depths[-1] + 1)))
    rows = ["A study unit"]
    for d in depths:
        verb = draw(st.sampled_from(["read", "write", "exerc", ""]))
        obj = draw(st.sampled_from(_WORDS))
        rows.append("\t" * d + (verb + "\t" if verb else "") + obj)
    return "\n".join(rows) + "\n", depths


@given(outline_texts())
@settings(max_examples=150)
def test_tabular_counts_match_line_scan_oracle(case):
    text, depths = case
    env = parse_tabular(text)
    assert len(env.activities) == len(depths)
    assert len(env.edges) == len(oracles.outline_edges(depths))


@given(outline_texts())
@settings(max_examples=150)
def test_tabular_round_trip_is_isomorphic(case):
    text, _ = case
    env = parse_tabular(text)
    assert isomorphic(env, parse_tabular(serialize(env, "odlc")))
    assert isomorphic(env, parse_graph_file(serialize(env, "odlg")))
    # Both readers name objects, tasks and edges alike, so either gives back the very same records.
    assert parse_tabular(serialize(env, "odlc")) == env
    assert parse_graph_file(serialize(env, "odlg")) == env


@given(outline_texts())
@settings(max_examples=100)
def test_implicit_read_applies_to_empty_verbs_at_top_level(case):
    text, depths = case
    env = parse_tabular(text)
    doc = read_document(text)
    for i, line in enumerate(doc.lines):
        if line.depth == 0 and not line.task_verb:
            activity = env.activities[f"LA{i + 1}"]
            assert env.tasks[activity.task_id].verb == "read"


def _outline_rows(rng: random.Random, n: int, verbs: list[str]) -> list[tuple[int, str]]:
    depths = [0]
    for _ in range(n - 1):
        depths.append(rng.randint(0, depths[-1] + 1))
    return [(d, rng.choice(verbs)) for d in depths]


def _outline_text(rows: list[tuple[int, str]]) -> str:
    return "Unit\n" + "".join("\t" * d + (v + "\t" if v else "") + f"x{i}\n" for i, (d, v) in enumerate(rows))


def test_verbs_match_the_back_scan_oracle_on_random_outlines():
    rng = random.Random(6)
    for case in range(3000):
        rows = _outline_rows(rng, rng.randint(1, 40), ["", "", "", "read", "write", "exerc"])
        env = parse_tabular(_outline_text(rows))
        verbs = [env.tasks[env.activities[f"LA{i + 1}"].task_id].verb for i in range(len(rows))]
        assert verbs == oracles.inherited_verbs(rows), case


def test_large_verbless_outline_parses_in_linear_time():
    # Alternating depth 0/1 without verbs made verb inheritance scan back to the top for every indented line.
    text = "Unit\n" + "".join("\t" * (i % 2) + f"x{i}\n" for i in range(50_000))
    start = time.perf_counter()
    env = parse_tabular(text)
    assert time.perf_counter() - start < 2.0
    assert set(env.tasks) == {"read"} and len(env.activities) == 50_000


def test_outline_edges_match_the_depth_map_rule_on_random_outlines():
    rng = random.Random(7)
    for case in range(3000):
        depths = [d for d, _ in _outline_rows(rng, rng.randint(1, 40), [""])]
        assert _outline_edges(depths) == oracles.depth_map_outline_edges(depths), case


def test_deepening_outline_parses_in_linear_time():
    # Rebuilding a depth -> line map at every line made a line at depth d cost d entries.
    n = 8_000
    text = "Unit\n" + "".join("\t" * i + f"x{i}\n" for i in range(n))
    start = time.perf_counter()
    env = parse_tabular(text)
    assert time.perf_counter() - start < 2.0
    assert len(env.edges) == n - 1 and {e.label for e in env.edges} == {DETOUR_LABEL}


# --- serialize writes only what reads back --------------------------------------


def _one_edge_env(title: str = "t", label: str = "x", verb: str = "read", locator: str = "loc",
                  node_id: str = "LA1", duration: float | None = None):
    env = add_object(empty_environment(), LearningObject("O1", title, ObjectKind.ATOMIC, locator))
    env = add_task(env, LearningTask("T1", verb))
    env = add_activity(env, LearningActivity(node_id, "O1", "T1", expected_duration_minutes=duration))
    env = add_activity(env, LearningActivity("LA2", "O1", "T1"))
    return add_edge(env, node_id, "LA2", label, EdgeTag.INTEREST)


def test_graph_serialize_refuses_a_composite_object():
    env = _one_edge_env()
    env = add_object(env, LearningObject("O2", "part", ObjectKind.COMPOSITE, "loc", ("O1",)))
    env = add_activity(env, LearningActivity("LA3", "O2", "T1"))
    assert not validate(env)
    with pytest.raises(UnsupportedFormat):
        serialize(env, "odlg")


@pytest.mark.parametrize("fields", [
    {"label": "x\ny"}, {"label": "x\ry"}, {"label": "trail "}, {"label": "tab\t"}, {"title": " pad"},
    {"title": "pad\x0c"}, {"title": "a\nb"}, {"verb": "read "}, {"verb": "re\rad"}, {"locator": "\tloc"},
    {"locator": "l\noc"}, {"node_id": " LA1"}, {"node_id": "LA\n1"}, {"node_id": ""},
    {"duration": math.nan}, {"duration": math.inf},
], ids=lambda fields: repr(fields))
def test_graph_serialize_refuses_what_does_not_read_back(fields):
    with pytest.raises(UnsupportedFormat):
        serialize(_one_edge_env(**fields), "odlg")


def test_graph_serialize_refuses_a_course_title_with_a_line_end():
    with pytest.raises(UnsupportedFormat):
        serialize(_one_edge_env(), "odlg", title="Two\nlines")


@pytest.mark.parametrize("fields", [
    {"label": " leading space"}, {"label": "|x\\"}, {"title": "a\u2028b\x85c"}, {"title": ""},
    {"verb": "re ad"}, {"locator": "in\x0cside"}, {"node_id": "LA|1"}, {"duration": 1234567.0},
    {"duration": 12.3456789}, {"duration": 1e-7},
], ids=lambda fields: repr(fields))
def test_graph_serialize_round_trips_what_reads_back(fields):
    env = _one_edge_env(**fields)
    assert isomorphic(env, parse_graph_file(serialize(env, "odlg")))


def test_graph_serialize_keeps_the_short_duration_text_where_it_reads_back():
    env = parse_graph_file("NODE A|a|read|a||12.5\nNODE B|b|read|b||30\nNODE C|c|read|c||0.1\n")
    assert [line.rsplit("|", 1)[1] for line in serialize(env, "odlg").splitlines()[1:]] == ["12.5", "30", "0.1"]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity", "abc"])
def test_graph_reader_refuses_a_non_finite_duration(text):
    with pytest.raises(ParseError, match="bad duration"):
        parse_graph_file(f"NODE A|a|read|a||{text}\n")


def _outline_env(texts: list[str], verb: str = "read"):
    env = add_task(empty_environment(), LearningTask(verb, verb))
    for i, text in enumerate(texts, 1):
        env = add_object(env, LearningObject(f"O{i}", text, ObjectKind.ATOMIC, text))
        env = add_activity(env, LearningActivity(f"LA{i}", f"O{i}", verb))
    for i in range(1, len(texts)):
        env = add_edge(env, f"LA{i}", f"LA{i + 1}", "", EdgeTag.SEQUENCE)
    return env


@pytest.mark.parametrize("texts,verb,title", [
    (["A\rz"], "read", "Unit"), (["A\nz"], "read", "Unit"), ([" A"], "read", "Unit"), (["A\x0c"], "read", "Unit"),
    (["A"], "re\nad", "Unit"), (["A"], "read", " Unit"), (["A"], "read", "Unit\rTwo"), (["A"], "read", ""),
], ids=["object-cr", "object-lf", "object-leading", "object-trailing-ff", "verb-lf", "title-leading",
        "title-cr", "title-empty"])
def test_tabular_serialize_refuses_what_does_not_read_back(texts, verb, title):
    with pytest.raises(UnsupportedFormat):
        serialize(_outline_env(texts, verb), "odlc", title=title)


def test_tabular_serialize_round_trips_line_breaks_that_are_not_line_ends():
    env = _outline_env(["A\u2028z", "B\x85\x0cy"], verb="r\x0bd")
    text = serialize(env, "odlc", title="U\u2028nit")
    assert isomorphic(env, parse_tabular(text)) and read_document(text).title == "U\u2028nit"


# Field text drawn from the line ends, the characters str.splitlines also breaks at, and the record syntax:
# mostly inside a plain word, where only a line end stops a field reading back, and sometimes anywhere.
_FIELD_PIECES = ["a", "b", " ", "\t", "|", "\\|", "\\\\", "\\", "\n", "\r", "\r\n", "\u2028", "\x85", "\x0c",
                 "NODE ", "EDGE ", "#"]


def _fields_of(pieces: list[str]):
    anywhere = st.lists(st.sampled_from(pieces), max_size=3).map("".join)
    inside = st.builds("a{}b".format, st.sampled_from(["", *pieces]))
    return st.sampled_from([inside] * 4 + [anywhere]).flatmap(lambda field: field)


_field = _fields_of(_FIELD_PIECES)
_nonempty_field = _field.filter(bool)
_duration = st.one_of(st.none(), st.floats(min_value=0, allow_infinity=True), st.just(math.nan))


@given(
    st.lists(st.tuples(_nonempty_field, _field, _nonempty_field, _nonempty_field, st.booleans(), _duration),
             min_size=1, max_size=3, unique_by=lambda row: row[0]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _field, st.sampled_from(list(EdgeTag))), max_size=3),
    _field,
)
@settings(max_examples=300)
def test_graph_serialize_refuses_or_round_trips(nodes, edges, title):
    env = empty_environment()
    for i, (node_id, obj_title, verb, locator, ref, duration) in enumerate(nodes):
        env = add_object(env, LearningObject(f"O{i}", obj_title, ObjectKind.ATOMIC, locator))
        env = add_task(env, LearningTask(f"T{i}", verb))
        env = add_activity(env, LearningActivity(node_id, f"O{i}", f"T{i}", ref, duration))
    ids = list(env.activities)
    for a, b, label, tag in edges:
        env = add_edge(env, ids[a % len(ids)], ids[b % len(ids)], label, tag)
    try:
        text = serialize(env, "odlg", title=title)
    except UnsupportedFormat:
        return
    assert isomorphic(env, parse_graph_file(text))


def _activity_ids(n: int):
    """Mostly ``LA1..LAn`` in file order, the only ids tabular lines read back as; sometimes other ids."""
    in_order = list(range(1, n + 1))
    numbers = st.sampled_from([st.just(in_order)] * 3 + [st.permutations(in_order)]).flatmap(lambda order: order)
    forms = st.sampled_from(["LA{}"] * 3 + ["LA0{}", "A{}", "LA{} "])
    return st.builds(lambda form, order: [form.format(k) for k in order], forms, numbers)


@given(st.lists(st.tuples(st.integers(0, 1), _nonempty_field, _nonempty_field), min_size=1, max_size=4).flatmap(
    lambda rows: st.tuples(st.just(rows), _activity_ids(len(rows)))), _field)
@settings(max_examples=300)
def test_tabular_serialize_refuses_or_round_trips(rows_and_ids, title):
    rows, ids = rows_and_ids
    depths = [0]
    for step, _, _ in rows[1:]:
        depths.append(depths[-1] + step if step else 0)
    env = empty_environment()
    for i, (aid, (_, verb, text)) in enumerate(zip(ids, rows), 1):
        env = add_object(env, LearningObject(f"O{i}", text, ObjectKind.ATOMIC, text))
        env = add_task(env, LearningTask(f"T{i}", verb))
        env = add_activity(env, LearningActivity(aid, f"O{i}", f"T{i}"))
    for src, dst, kind in oracles.outline_edges(depths):
        detour = kind == "detour"
        env = add_edge(env, ids[src], ids[dst], DETOUR_LABEL if detour else "",
                       EdgeTag.INTEREST if detour else EdgeTag.SEQUENCE)
    try:
        text = serialize(env, "odlc", title=title)
    except UnsupportedFormat:
        return
    assert isomorphic(env, parse_tabular(text)) and read_document(text).title == title


# --- a course is checked once, by the reader that lets it in --------------------

# Every course a reader accepts already passes validate, so no reader runs validate again.
# Record fields from the same pieces less the line ends, so that most records stay one line.
_record_field = _fields_of([piece for piece in _FIELD_PIECES if not holds_line_end(piece)])
_node_tail = st.sampled_from([[], [""], ["ref"], [" ref "]]).flatmap(
    lambda tail: st.sampled_from(["", "2.5", " 0 ", "-0.0", "1e3", "-1"]).map(
        lambda duration: [*tail, duration] if tail else tail))
_edge_tags = st.sampled_from([*(t.value for t in EdgeTag), " sequence", "Sequence", ""])


@st.composite
def graph_texts(draw) -> str:
    """A graph course whose records are mostly well formed and whose fields hold the awkward pieces."""
    ids = draw(st.lists(st.sampled_from(["a", " b ", "a\\|b", "c\\\\"]), min_size=1, max_size=3, unique=True))
    records = ["NODE " + "|".join([aid, *draw(st.lists(_record_field, min_size=3, max_size=3)), *draw(_node_tail)])
               for aid in ids]
    for _ in range(draw(st.integers(0, 3))):
        ends = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2))
        records.append("EDGE " + "|".join([*ends, draw(_edge_tags), draw(_record_field)]))
    records.insert(draw(st.integers(0, len(records))), draw(st.sampled_from(["", "# NODE x"])))
    return "\n".join(records) + "\n"


@given(graph_texts())
@settings(max_examples=400)
def test_every_graph_course_the_reader_accepts_is_valid(text):
    try:
        env, _ = parse_course(text, "course.odlg")
    except (ParseError, DanglingRef):
        return
    assert validate(env) == []


_tabular_row = st.builds(lambda depth, verb, text: "\t" * depth + verb + text, st.integers(0, 2),
                         st.sampled_from(["", "read\t", "a b\t", "\t"]), _field)


@given(st.one_of(outline_texts().map(lambda case: case[0]),
                 st.lists(_tabular_row, max_size=5).map(lambda rows: "\n".join(["Unit", *rows]) + "\n")))
@settings(max_examples=300)
def test_every_tabular_course_the_reader_accepts_is_valid(text):
    try:
        env, _ = parse_course(text, "course.odlc")
    except ParseError:
        return
    assert validate(env) == []


def _depth_sequences(n: int) -> list[list[int]]:
    """Every outline of n lines: depths from 0, rising by at most one per line."""
    found = [[0]]
    for _ in range(n - 1):
        found = [depths + [d] for depths in found for d in range(depths[-1] + 2)]
    return found


_OUTLINE_BAGS = {n: [Counter(oracles.outline_edges(depths)) for depths in _depth_sequences(n)] for n in range(1, 7)}
_outline_choice = st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, len(_OUTLINE_BAGS[n]) - 1)))
_outline_edge = st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(["sequence", "detour"]))


# The tabular writer refuses no more and no less than the outline rule: it writes a bag of sequence
# edges and detours exactly when the bag is the rule's edges for some outline of the same lines.
@given(_outline_choice, st.lists(st.integers(0, 5), max_size=2), st.lists(_outline_edge, max_size=2), st.randoms())
@settings(max_examples=500)
def test_tabular_serialize_writes_exactly_the_bags_of_some_outline(outline, dropped, added, rng):
    n, k = outline
    bag = list(_OUTLINE_BAGS[n][k].elements())
    for i in dropped:
        if bag:
            bag.pop(i % len(bag))
    bag += [(src % n, dst % n, kind) for src, dst, kind in added]
    rng.shuffle(bag)
    env = _outline_env([f"x{i}" for i in range(n)])
    env = LearningEnvironment(env.activities, tuple(
        PrecedentEdge(f"e{j}", f"LA{src + 1}", f"LA{dst + 1}", *(
            (DETOUR_LABEL, EdgeTag.INTEREST) if kind == "detour" else ("", EdgeTag.SEQUENCE)))
        for j, (src, dst, kind) in enumerate(bag, 1)
    ), env.objects, env.tasks)
    outline_shaped = Counter(bag) in _OUTLINE_BAGS[n]
    try:
        serialize(env, "odlc")
    except UnsupportedFormat:
        assert not outline_shaped, bag
    else:
        assert outline_shaped, bag


@pytest.mark.parametrize(
    "cls,values,fields",
    [
        (TabularLine, (1, "exerc", "First exercise"), ("depth", "task_verb", "object_text")),
        (CourseDocument, ("Unit", (TabularLine(0, "read", "Section A"),)), ("title", "lines")),
    ],
    ids=["TabularLine", "CourseDocument"],
)
def test_document_records_keep_their_fields_and_are_immutable_values(cls, values, fields):
    assert_record_contract(cls, values, fields, {})
