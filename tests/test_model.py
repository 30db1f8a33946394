from __future__ import annotations

import copy
import pickle
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from odlgraph.errors import DanglingRef, DuplicateId
from odlgraph.model import (
    EdgeTag,
    LearningActivity,
    LearningEnvironment,
    LearningObject,
    LearningTask,
    ObjectKind,
    PrecedentEdge,
    Violation,
    add_activity,
    add_edge,
    add_object,
    add_task,
    empty_environment,
    is_adjacent,
    isomorphic,
    next_id_number,
    validate,
)
from odlgraph.course_format import parse_graph_file
from odlgraph.sessions import LearningExperience, Visit

from conftest import assert_record_contract, quick_env


def base_env() -> LearningEnvironment:
    env = empty_environment()
    env = add_object(env, LearningObject("O1", "chapter 2", ObjectKind.ATOMIC, "book:ch2"))
    env = add_task(env, LearningTask("read", "read"))
    return env


def test_add_activity_base_case():
    env = add_activity(base_env(), LearningActivity("LA1", "O1", "read"))
    assert set(env.activities) == {"LA1"}
    assert env.edges == ()


def test_add_activity_duplicate_rejected():
    env = add_activity(base_env(), LearningActivity("LA1", "O1", "read"))
    with pytest.raises(DuplicateId):
        add_activity(env, LearningActivity("LA1", "O1", "read"))


def test_add_activity_dangling_task_named():
    with pytest.raises(DanglingRef) as err:
        add_activity(base_env(), LearningActivity("LA1", "O1", "solve"))
    assert err.value.missing_id == "solve"


def test_add_edge_keeps_label_and_tag():
    env = base_env()
    for aid in ("LA5", "LA15"):
        env = add_activity(env, LearningActivity(aid, "O1", "read"))
    env = add_edge(env, "LA5", "LA15", "if you found LA5 very easy to do", EdgeTag.DIFFICULTY)
    (edge,) = env.edges
    assert edge.label == "if you found LA5 very easy to do"
    assert edge.tag is EdgeTag.DIFFICULTY


def test_add_edge_bag_keeps_duplicates():
    env = base_env()
    for aid in ("LA5", "LA100"):
        env = add_activity(env, LearningActivity(aid, "O1", "read"))
    env = add_edge(env, "LA5", "LA100", "if you found LA5 very interesting", EdgeTag.INTEREST)
    env = add_edge(env, "LA5", "LA100", "if you found LA5 very interesting", EdgeTag.INTEREST)
    assert len(env.edges) == 2
    payloads = {(e.from_id, e.to_id, e.label) for e in env.edges}
    assert len(payloads) == 1
    assert len({e.edge_id for e in env.edges}) == 2


def test_add_edge_dangling_endpoint():
    env = add_activity(base_env(), LearningActivity("LA5", "O1", "read"))
    with pytest.raises(DanglingRef):
        add_edge(env, "LA5", "LA999")


def test_adjacency_from_stored_edge():
    env = quick_env(["LA5", "LA3"], [("LA5", "LA3")])
    assert is_adjacent(env, "LA5", "LA3")
    assert not is_adjacent(env, "LA3", "LA5")


def test_reference_node_is_adjacent_both_ways_with_no_edges():
    env = quick_env(["Dictionary", "LA7"], reference={"Dictionary"})
    assert env.edges == ()
    assert is_adjacent(env, "Dictionary", "LA7")
    assert is_adjacent(env, "LA7", "Dictionary")


def test_unrelated_nodes_not_adjacent():
    env = quick_env(["LA1", "LA2"])
    assert not is_adjacent(env, "LA1", "LA2")


def test_is_adjacent_rejects_unknown_nodes():
    env = quick_env(["LA1"])
    with pytest.raises(DanglingRef):
        is_adjacent(env, "LA1", "LA9")


def test_validate_clean_env():
    assert validate(quick_env(["LA1", "LA2"], [("LA1", "LA2")])) == []


def test_validate_reports_containment_cycle():
    env = empty_environment()
    env = add_object(env, LearningObject("O1", "a", ObjectKind.COMPOSITE, children=("O2",)))
    env = add_object(env, LearningObject("O2", "b", ObjectKind.COMPOSITE, children=("O1",)))
    report = validate(env)
    cycles = [v for v in report if v.code == "containment_cycle"]
    assert len(cycles) == 1
    assert "O1" in cycles[0].message and "O2" in cycles[0].message


def test_validate_reports_edge_to_missing_activity():
    env = quick_env(["LA1"])
    broken = LearningEnvironment(
        env.activities,
        (PrecedentEdge("e1", "LA1", "LA2"),),
        env.objects,
        env.tasks,
    )
    assert any(v.code == "dangling_ref" and "LA2" in v.message for v in validate(broken))


def test_validate_reports_bad_atomic_and_composite_objects():
    env = quick_env(["LA1"])
    objects = dict(env.objects)
    objects["O9"] = LearningObject("O9", "no locator", ObjectKind.ATOMIC, "")
    objects["O10"] = LearningObject("O10", "no children", ObjectKind.COMPOSITE)
    broken = LearningEnvironment(env.activities, env.edges, objects, env.tasks)
    codes = {(v.code, v.subject) for v in validate(broken)}
    assert ("bad_object", "O9") in codes
    assert ("bad_object", "O10") in codes


VALID = quick_env(["LA1", "LA2"], [("LA1", "LA2")])


def broken(activities=(), edges=None, objects=(), tasks=()) -> LearningEnvironment:
    """The valid two-activity course with the given records added or put in place of its own."""
    return LearningEnvironment(
        {**VALID.activities, **{a.id: a for a in activities}},
        VALID.edges if edges is None else edges,
        {**VALID.objects, **{o.id: o for o in objects}},
        {**VALID.tasks, **{t.id: t for t in tasks}},
    )


BROKEN_ENVIRONMENTS = {
    "add_object-duplicate": (
        lambda: add_object(VALID, LearningObject("O1", "again", ObjectKind.ATOMIC, "again")),
        ("DuplicateId", "O1", "object")),
    "add_task-duplicate": (lambda: add_task(VALID, LearningTask("read", "read")), ("DuplicateId", "read", "task")),
    "add_activity-unknown-object": (
        lambda: add_activity(VALID, LearningActivity("LA3", "O9", "read")), ("DanglingRef", "O9")),
    "add_edge-from-unknown": (lambda: add_edge(VALID, "LA9", "LA1"), ("DanglingRef", "LA9")),
    "empty-verb": (lambda: broken(tasks=[LearningTask("read", "")]), [("empty_verb", "read")]),
    "atomic-with-children": (
        lambda: broken(objects=[
            LearningObject("O1", "c", ObjectKind.ATOMIC, "c", ("O2",)), LearningObject("O2", "d", locator="d")]),
        [("bad_object", "O1")]),
    "missing-child": (
        lambda: broken(objects=[LearningObject("O2", "unit", ObjectKind.COMPOSITE, children=("O9",))]),
        [("dangling_ref", "O2")]),
    "unknown-kind": (lambda: broken(objects=[LearningObject("O2", "clip", "video", "clip")]), [("bad_object", "O2")]),
    "activity-missing-object": (
        lambda: broken(activities=[LearningActivity("LA3", "O9", "read")]), [("dangling_ref", "LA3")]),
    "activity-missing-task": (
        lambda: broken(activities=[LearningActivity("LA3", "O1", "solve")]), [("dangling_ref", "LA3")]),
    "negative-duration": (
        lambda: broken(activities=[LearningActivity("LA3", "O1", "read", False, -1.0)]), [("bad_duration", "LA3")]),
    "duplicate-edge-id": (
        lambda: broken(edges=(PrecedentEdge("e1", "LA1", "LA2"), PrecedentEdge("e1", "LA2", "LA1"))),
        [("duplicate_edge_id", "e1")]),
    "bad-tag": (lambda: broken(edges=(PrecedentEdge("e1", "LA1", "LA2", "", "sequence"),)), [("bad_tag", "e1")]),
}


@pytest.mark.parametrize("case", list(BROKEN_ENVIRONMENTS))
def test_each_broken_environment_is_refused_or_reported_exactly(case):
    build, expected = BROKEN_ENVIRONMENTS[case]
    try:
        env = build()
    except DuplicateId as err:
        assert ("DuplicateId", err.entity_id, err.kind) == expected
    except DanglingRef as err:
        assert ("DanglingRef", err.missing_id) == expected
    else:
        assert [(v.code, v.subject) for v in validate(env)] == expected


def test_validate_idempotent():
    env = quick_env(["LA1"], [("LA1", "LA1")])
    assert validate(env) == validate(env)


def test_adds_do_not_mutate_input_environment():
    env = quick_env(["LA1", "LA2"])
    before_activities = dict(env.activities)
    before_edges = env.edges
    env2 = add_edge(env, "LA1", "LA2", "go on", EdgeTag.SEQUENCE)
    env3 = add_activity(env2, LearningActivity("LA3", "O1", "read"))
    assert env.activities == before_activities and env.edges == before_edges
    assert set(env2.activities) == {"LA1", "LA2"}
    # the grown environments share everything but the added element
    assert dict(list(env3.activities.items())[:2]) == before_activities
    assert env3.edges == env2.edges


@given(st.integers(min_value=1, max_value=5))
def test_bag_count_grows_by_exactly_k(k: int):
    env = quick_env(["a", "b"])
    for _ in range(k):
        env = add_edge(env, "a", "b", "again", EdgeTag.FAILURE)
    assert len(env.edges) == k


@given(
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_reference_adjacency_property(n: int, data):
    ids = [f"LA{i}" for i in range(1, n + 1)]
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    env = quick_env(ids, reference={i for i, f in zip(ids, flags) if f})
    for u in ids:
        for v in ids:
            if u == v:
                continue
            expected = env.activities[u].is_reference or env.activities[v].is_reference
            assert is_adjacent(env, u, v) == expected


def test_isomorphic_ignores_edge_ids_only():
    env1 = quick_env(["a", "b"], [("a", "b")])
    renamed = LearningEnvironment(
        env1.activities,
        (PrecedentEdge("zz", "a", "b"),),
        env1.objects,
        env1.tasks,
    )
    assert isomorphic(env1, renamed)
    extra = add_edge(env1, "a", "b")
    assert not isomorphic(env1, extra)


ISO_COURSE = "NODE A|Intro|read|ch1||5\nNODE B|Dictionary|read|dict|ref|\nEDGE A|B|sequence|\n"
ISO_ENV = parse_graph_file(ISO_COURSE)


def _iso_parts(**changed) -> LearningEnvironment:
    """The isomorphism base course with some of its fields swapped out."""
    parts = dict(activities=ISO_ENV.activities, edges=ISO_ENV.edges, objects=ISO_ENV.objects, tasks=ISO_ENV.tasks)
    return LearningEnvironment(**{**parts, **changed})


@pytest.mark.parametrize("other", [
    pytest.param(lambda: parse_graph_file(ISO_COURSE + "NODE C|Extra|read|x||\n"), id="another-activity"),
    pytest.param(lambda: parse_graph_file(ISO_COURSE.replace("ch1||5", "ch1|ref|5")), id="is-reference"),
    pytest.param(lambda: parse_graph_file(ISO_COURSE.replace("ch1||5", "ch1||6")), id="duration"),
    pytest.param(lambda: _iso_parts(objects={}), id="missing-object"),
    pytest.param(lambda: parse_graph_file(ISO_COURSE.replace("Intro", "Preface")), id="title"),
    pytest.param(lambda: _iso_parts(objects={"O1": ISO_ENV.objects["O1"]._replace(kind=ObjectKind.COMPOSITE),
                                              "O2": ISO_ENV.objects["O2"]}), id="kind"),
    pytest.param(lambda: parse_graph_file(ISO_COURSE.replace("ch1||5", "ch2||5")), id="locator"),
    pytest.param(lambda: _iso_parts(tasks={}), id="missing-task"),
    pytest.param(lambda: parse_graph_file(ISO_COURSE.replace("Intro|read", "Intro|write")), id="verb"),
])
def test_isomorphic_tells_apart_courses_that_differ_in_one_node(other):
    assert isomorphic(ISO_ENV, parse_graph_file(ISO_COURSE))
    assert not isomorphic(ISO_ENV, other())


def test_add_edge_continues_after_parsed_edges():
    env = parse_graph_file("NODE a|A|read|a||\nNODE b|B|read|b||\nEDGE a|b|sequence|\nEDGE b|a|failure|again\n")
    env = add_edge(env, "a", "b")
    env = add_edge(env, "b", "a")
    assert [e.edge_id for e in env.edges] == ["e1", "e2", "e3", "e4"]


def test_add_edge_goes_past_the_highest_numeric_e_suffix():
    env = quick_env(["a", "b"])
    gapped = LearningEnvironment(
        env.activities,
        tuple(PrecedentEdge(eid, "a", "b") for eid in ("e7", "x3", "e10", "e\u00b2", "ex")),
        env.objects,
        env.tasks,
    )
    grown = add_edge(add_edge(gapped, "a", "b"), "b", "a")
    assert [e.edge_id for e in grown.edges[-2:]] == ["e11", "e12"]
    assert add_edge(env, "a", "b").edges[-1].edge_id == "e1"


def test_next_id_number_rule():
    assert next_id_number([], "n") == 1
    assert next_id_number(["n2", "n10", "m99", "n", "nx", "n007"], "n") == 11
    assert next_id_number(["n\u00b3"], "n") == 1  # a digit that is not a decimal number


def test_add_edge_branches_share_an_id_and_leave_the_parent_alone():
    parent = add_edge(quick_env(["a", "b"]), "a", "b")
    left = add_edge(parent, "a", "b", "left")
    right = add_edge(parent, "b", "a", "right")
    assert left.edges[-1].edge_id == right.edges[-1].edge_id == "e2"
    assert [e.edge_id for e in parent.edges] == ["e1"]
    assert add_edge(parent, "a", "b").edges[-1].edge_id == "e2"
    assert add_edge(left, "a", "b").edges[-1].edge_id == "e3"


def test_add_edge_chain_is_not_quadratic():
    ids = [f"LA{i}" for i in range(3001)]
    env = quick_env(ids)
    start = time.perf_counter()
    for a, b in zip(ids, ids[1:]):
        env = add_edge(env, a, b, "next", EdgeTag.SEQUENCE)
    elapsed = time.perf_counter() - start
    assert len(env.edges) == 3000 and env.edges[-1].edge_id == "e3000"
    assert elapsed < 2.0, f"3,000 add_edge calls took {elapsed:.2f} s"


# --- the records --------------------------------------------------------------


@pytest.mark.parametrize(
    "cls,values,fields,defaults",
    [
        (LearningObject, ("O1", "Part one", ObjectKind.COMPOSITE, "book:p1", ("O2",)),
         ("id", "title", "kind", "locator", "children"),
         {"kind": ObjectKind.ATOMIC, "locator": "", "children": ()}),
        (LearningTask, ("read", "read", "Read the chapter"), ("id", "verb", "description"), {"description": ""}),
        (LearningActivity, ("LA1", "O1", "read", True, 12.5),
         ("id", "object_id", "task_id", "is_reference", "expected_duration_minutes"),
         {"is_reference": False, "expected_duration_minutes": None}),
        (PrecedentEdge, ("e1", "LA1", "LA2", "go on", EdgeTag.SEQUENCE),
         ("edge_id", "from_id", "to_id", "label", "tag"), {"label": "", "tag": EdgeTag.UNTAGGED}),
        (Violation, ("bad_object", "O1", "atomic object 'O1' has no locator"), ("code", "subject", "message"), {}),
    ],
    ids=["LearningObject", "LearningTask", "LearningActivity", "PrecedentEdge", "Violation"],
)
def test_records_keep_their_fields_and_are_immutable_values(cls, values, fields, defaults):
    assert_record_contract(cls, values, fields, defaults)


def test_the_environment_and_the_experience_are_frozen_values_with_their_old_repr():
    env = quick_env(["LA1", "LA2"], [("LA1", "LA2")], reference={"LA2"})
    walked = LearningExperience("u1", (Visit("LA1", 0),), (1,))
    assert LearningEnvironment() == LearningEnvironment({}, (), {}, {}) == empty_environment()
    assert LearningEnvironment().activities is not LearningEnvironment().activities
    assert LearningEnvironment(edges=env.edges).edges == env.edges
    assert repr(LearningEnvironment()) == "LearningEnvironment(activities={}, edges=(), objects={}, tasks={})"
    assert repr(walked) == ("LearningExperience(learner_id='u1', "
                            "visits=(Visit(activity_id='LA1', timestamp=0, teleport=False),), source_sessions=(1,))")
    assert env.reference_ids == {"LA2"}  # cached before the copies below
    for value, values in ((env, (env.activities, env.edges, env.objects, env.tasks)),
                          (walked, ("u1", (Visit("LA1", 0),), (1,)))):
        assert value != values and value != object()  # equal only to a value of its own type
        for name in value.__match_args__:
            with pytest.raises(AttributeError, match=name):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(again) is type(value) and again == value and again is not value
    with pytest.raises(TypeError):
        hash(env)
    twin = LearningExperience("u1", (Visit("LA1", 0),), (1,))
    assert twin == walked and hash(twin) == hash(walked) == hash(("u1", (Visit("LA1", 0),), (1,)))
    assert twin != LearningExperience("u2", (Visit("LA1", 0),), (1,))
    assert weakref.ref(walked)() is walked
