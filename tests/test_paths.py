from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from odlgraph.errors import DanglingRef
from odlgraph.paths import (
    Cycle,
    DetourKind,
    classify_cycle,
    coverage,
    detect_cycles,
    erase_cycles,
    split_strategy_tactics,
    visit_order,
)

import oracles
from conftest import quick_env, walk


REF_ENV = quick_env(["LA5", "LA3", "LA9", "Dictionary"], reference={"Dictionary"})

walks = st.lists(st.sampled_from(list("abcdefgh")), min_size=0, max_size=12)


def test_immediate_return_is_one_cycle():
    cycles = detect_cycles(walk(["LA5", "Dictionary", "LA5"]))
    assert cycles == [Cycle("LA5", 0, 2, ("Dictionary",))]


def test_no_cycles_in_trivial_walks():
    assert detect_cycles(walk([])) == []
    assert detect_cycles(walk(["LA5"])) == []


def test_nested_repeats_anchor_at_latest_occurrence():
    cycles = detect_cycles(["a", "b", "a", "b", "c"])
    assert [(c.anchor_activity, c.start_index, c.end_index) for c in cycles] == [
        ("a", 0, 2),
        ("b", 1, 3),
    ]


@given(walks)
@settings(max_examples=300)
def test_detect_matches_brute_force_scan(ids):
    got = [(c.anchor_activity, c.start_index, c.end_index, c.interior) for c in detect_cycles(ids)]
    assert got == oracles.repeated_visit_cycles(ids)


def test_classification_by_interior_flags():
    assert classify_cycle(Cycle("LA5", 0, 2, ("Dictionary",)), REF_ENV) is DetourKind.REFERENCE
    assert classify_cycle(Cycle("LA5", 0, 2, ("LA3",)), REF_ENV) is DetourKind.CONTENT
    assert classify_cycle(Cycle("LA5", 0, 3, ("Dictionary", "LA9")), REF_ENV) is DetourKind.CONTENT
    # empty interior: a degenerate immediate repeat counts as a reference detour
    assert classify_cycle(Cycle("LA5", 0, 1, ()), REF_ENV) is DetourKind.REFERENCE


def test_classification_checks_node_existence():
    with pytest.raises(DanglingRef):
        classify_cycle(Cycle("nope", 0, 1, ()), REF_ENV)


def test_erase_single_loop():
    assert erase_cycles(["a", "b", "c", "b", "d"]) == ["a", "b", "d"]


def test_erase_overlapping_loops():
    assert erase_cycles(["a", "b", "a", "b", "c"]) == ["a", "b", "c"]


def test_erase_trivial():
    assert erase_cycles(["a"]) == ["a"]
    assert erase_cycles([]) == []


@given(walks)
@settings(max_examples=300)
def test_erase_matches_rewrite_oracle(ids):
    assert erase_cycles(ids) == oracles.rewrite_erase(ids)


@given(walks)
@settings(max_examples=300)
def test_erase_output_properties(ids):
    out = erase_cycles(ids)
    assert len(set(out)) == len(out)
    it = iter(ids)
    assert all(node in it for node in out)  # subsequence
    assert erase_cycles(out) == out  # fixed point
    if ids:
        assert out[0] == ids[0]


@given(walks)
@settings(max_examples=300)
def test_strategy_and_tactics_conserve_visits(ids):
    strategy, tactics = split_strategy_tactics(ids)
    accounted = Counter(strategy)
    for cycle in tactics:
        accounted.update(cycle.interior)
        accounted[cycle.anchor_activity] += 1  # the erased returning visit
    assert accounted == Counter(ids)


@given(walks)
@settings(max_examples=200)
def test_tactics_indices_point_at_anchor_occurrences(ids):
    _, tactics = split_strategy_tactics(ids)
    for cycle in tactics:
        assert cycle.start_index < cycle.end_index
        assert ids[cycle.start_index] == ids[cycle.end_index] == cycle.anchor_activity
        assert cycle.anchor_activity not in ids[cycle.start_index + 1: cycle.end_index]


def test_visit_order_first_occurrence():
    assert visit_order(walk(["LA5", "LA15", "LA5", "LA3"])) == {"LA5": 1, "LA15": 2, "LA3": 3}
    assert visit_order(walk([])) == {}


@given(walks)
@settings(max_examples=200)
def test_visit_order_matches_counting_oracle(ids):
    got = visit_order(ids)
    assert got == oracles.first_visit_ordinals(ids)
    assert sorted(got.values()) == list(range(1, len(set(ids)) + 1))


def test_coverage_basic():
    env = quick_env(["a", "b", "c", "d"])
    report = coverage([walk(["a", "b", "a"])], env)
    assert report.ratio == 0.5
    assert report.visited == frozenset({"a", "b"})
    assert coverage([], env).ratio == 0.0


def test_coverage_ignores_nodes_outside_course():
    env = quick_env(["a", "b"])
    report = coverage([["a", "zz"]], env)
    assert report.visited == frozenset({"a"})


def test_coverage_of_union_dominates_parts():
    env = quick_env(list("abcdef"))
    s1 = [["a", "b"], ["c"]]
    s2 = [["d"]]
    both = coverage(s1 + s2, env).ratio
    assert both >= max(coverage(s1, env).ratio, coverage(s2, env).ratio)


@given(st.lists(walks, min_size=0, max_size=6))
@settings(max_examples=150)
def test_coverage_monotone_and_bounded(experience_sets):
    env = quick_env(list("abcdefgh"))
    previous = 0.0
    acc: list[list[str]] = []
    for ids in experience_sets:
        acc.append(ids)
        report = coverage(acc, env)
        assert 0.0 <= report.ratio <= 1.0
        assert report.ratio >= previous
        assert report.visited == set().union(*map(set, acc)) & set(env.activities)
        previous = report.ratio


@pytest.mark.parametrize("as_input", [list, tuple, walk], ids=["list", "tuple", "experience"])
def test_detours_are_cycle_records_with_tuple_interiors(as_input):
    # A plain tuple equals a Cycle of the same values, so only the types tell them apart.
    ids = ["a", "b", "c", "b", "a", "d", "a"]
    detours = [*detect_cycles(as_input(ids)), *split_strategy_tactics(as_input(ids))[1]]
    assert len(detours) == 6
    for detour in detours:
        assert type(detour) is Cycle and type(detour.interior) is tuple
    assert detect_cycles(as_input(ids))[1] == Cycle("a", 0, 4, ("b", "c", "b"))
    assert split_strategy_tactics(as_input(ids)) == (["a"], [
        Cycle("b", 1, 3, ("c",)), Cycle("a", 0, 4, ("b",)), Cycle("a", 4, 6, ("d",))
    ])


@pytest.mark.parametrize("call", [
    detect_cycles, erase_cycles, split_strategy_tactics, visit_order,
    lambda ids: coverage([["LA5"], ids], REF_ENV),
], ids=["detect_cycles", "erase_cycles", "split_strategy_tactics", "visit_order", "coverage"])
def test_a_bare_string_is_not_a_walk(call):
    # Each character would otherwise be taken for an activity id.
    with pytest.raises(TypeError, match="'LA5'"):
        call("LA5")
    assert call(("LA5",)) == call(["LA5"])
