from __future__ import annotations

import random
import struct
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from odlgraph.clusters import (
    Cluster,
    ClusterKind,
    CoOccurrenceGraph,
    SessionVisitSet,
    clique_rows,
    connected_components,
    cooccurrence,
    cut_cooccurrence,
    format_clusters,
    maximal_cliques,
    read_clusters,
    session_visit_sets,
    threshold,
)
from odlgraph.errors import GraphTooLarge, UnsupportedFormat
from odlgraph.sessions import ControlBlock, Session

import oracles
from conftest import assert_record_contract


def sets_of(*groups: set[str]) -> list[SessionVisitSet]:
    return [SessionVisitSet(("u1", i + 1), frozenset(g)) for i, g in enumerate(groups)]


def graph_of(*weighted: tuple[str, str, int]) -> CoOccurrenceGraph:
    weights = {tuple(sorted((a, b))): w for a, b, w in weighted}
    nodes = frozenset(n for pair in weights for n in pair)
    return CoOccurrenceGraph(nodes, weights)


@pytest.mark.parametrize("cls, values, fields, defaults", [
    (SessionVisitSet, (("u1", 2), frozenset({"a", "b"})), ("session_key", "visited"), {}),
    (CoOccurrenceGraph, (frozenset({"a", "b"}), {("a", "b"): 3}), ("nodes", "weights"), {}),
    (Cluster, (frozenset({"a", "b"}), ClusterKind.CLIQUE, 3), ("members", "kind", "support"), {}),
], ids=["SessionVisitSet", "CoOccurrenceGraph", "Cluster"])
def test_cluster_records_keep_their_fields_and_are_immutable_values(cls, values, fields, defaults):
    assert_record_contract(cls, values, fields, defaults)


def test_cooccurrence_counts_sessions_containing_both():
    graph = cooccurrence(sets_of({"a", "b", "c"}, {"a", "b"}, {"a", "b", "d"}))
    assert graph.weights == {
        ("a", "b"): 3,
        ("a", "c"): 1,
        ("b", "c"): 1,
        ("a", "d"): 1,
        ("b", "d"): 1,
    }
    assert graph.weights == oracles.pair_counts([frozenset("abc"), frozenset("ab"), frozenset("abd")])


def test_single_visit_session_adds_no_edges():
    graph = cooccurrence(sets_of({"a"}))
    assert graph.weights == {}
    assert graph.nodes == frozenset({"a"})


def test_disjoint_sessions_make_disjoint_edges():
    graph = cooccurrence(sets_of({"a", "b"}, {"c", "d"}))
    assert graph.weights == {("a", "b"): 1, ("c", "d"): 1}


def test_threshold_cuts_low_weight_edges_and_isolated_nodes():
    graph = cooccurrence(sets_of({"a", "b", "c"}, {"a", "b"}, {"a", "b", "d"}))
    cut = threshold(graph, 2)
    assert cut.weights == {("a", "b"): 3}
    assert cut.nodes == frozenset({"a", "b"})


def test_threshold_one_keeps_every_edge():
    graph = cooccurrence(sets_of({"a", "b", "c"}, {"a", "b"}, {"a", "b", "d"}))
    assert threshold(graph, 1) == graph
    assert threshold(threshold(graph, 2), 2) == threshold(graph, 2)


def test_threshold_above_max_weight_empties_graph():
    graph = cooccurrence(sets_of({"a", "b"}))
    cut = threshold(graph, 99)
    assert cut.nodes == frozenset() and cut.weights == {}


def test_threshold_rejects_non_positive_cut():
    with pytest.raises(ValueError):
        threshold(graph_of(("a", "b", 1)), 0)


def test_components_textbook_case():
    graph = graph_of(("a", "b", 1), ("b", "c", 2), ("d", "e", 3))
    got = connected_components(graph)
    assert [sorted(c.members) for c in got] == [["a", "b", "c"], ["d", "e"]]
    assert [c.support for c in got] == [1, 3]
    assert all(c.kind is ClusterKind.COMPONENT for c in got)


def test_components_of_empty_graph():
    assert connected_components(CoOccurrenceGraph(frozenset(), {})) == []


def test_cliques_triangle_and_path():
    triangle = graph_of(("a", "b", 1), ("b", "c", 2), ("a", "c", 3))
    assert [sorted(c.members) for c in maximal_cliques(triangle)] == [["a", "b", "c"]]
    assert maximal_cliques(triangle)[0].support == 1

    path = graph_of(("a", "b", 1), ("b", "c", 2))
    assert [sorted(c.members) for c in maximal_cliques(path)] == [["a", "b"], ["b", "c"]]


def test_clique_node_guard():
    graph = graph_of(("a", "b", 1), ("b", "c", 1))
    with pytest.raises(GraphTooLarge):
        maximal_cliques(graph, max_nodes_guard=2)


def test_clique_output_cap(monkeypatch):
    import odlgraph.clusters as module

    monkeypatch.setattr(module, "MAX_REPORTED_CLIQUES", 1)
    graph = graph_of(("a", "b", 1), ("c", "d", 1))  # two maximal cliques
    with pytest.raises(GraphTooLarge):
        maximal_cliques(graph)


def test_clique_search_is_not_bounded_by_the_recursion_limit():
    nodes = [f"a{i:03d}" for i in range(200)]
    weights = {(a, b): 2 + (i + j) % 5 for (i, a), (j, b) in combinations(enumerate(nodes), 2)}
    graph = CoOccurrenceGraph(frozenset(nodes), weights)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        found = maximal_cliques(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert found == [Cluster(frozenset(nodes), ClusterKind.CLIQUE, 2)]


@given(st.lists(st.integers(1_000, 9_000), min_size=120, max_size=120), st.integers(9, 16), st.randoms())
@settings(max_examples=25, deadline=None)
def test_long_clique_supports_match_the_oracle(heavy, size, rng):
    # Each member of one long clique also meets 70 leaves in lighter pairs, so no member's lightest pair is inside it.
    members = [f"m{i:02d}" for i in range(size)]
    weights = dict(zip(combinations(members, 2), heavy))
    for member in members:
        for i, w in enumerate(rng.sample(range(1, 1_000), 70)):
            weights[(member, f"{member}l{i:02d}")] = w
    graph = CoOccurrenceGraph(frozenset(x for pair in weights for x in pair), weights)
    found = maximal_cliques(graph)
    assert len(found) == 1 + 70 * size
    assert [c.support for c in found] == [oracles.min_pair_weight(weights, c.members) for c in found]


def test_read_clusters_rejects_malformed_lines():
    from odlgraph.errors import ParseError

    for bad in ("clique\t1", "blob\t1\ta,b", "clique\tmany\ta,b", "clique\t1\ta"):
        with pytest.raises(ParseError):
            read_clusters(bad + "\n")


def test_read_clusters_keeps_a_member_holding_u2028():
    text = "clique\t3\ta\u2028b,c\ncomponent\t2\td,e\n"
    assert read_clusters(text) == [
        Cluster(frozenset({"a\u2028b", "c"}), ClusterKind.CLIQUE, 3),
        Cluster(frozenset({"d", "e"}), ClusterKind.COMPONENT, 2),
    ]


def test_visit_sets_from_sessions_dedupe_and_strategy_option():
    def block(aid: str, ts: int) -> ControlBlock:
        return ControlBlock("u1", ts, aid)

    session = Session("u1", (block("a", 0), block("b", 1), block("c", 2), block("b", 3), block("d", 4)), 1)
    (raw,) = session_visit_sets([session])
    assert raw.visited == frozenset("abcd")
    (erased,) = session_visit_sets([session], strategy_paths=True)
    assert erased.visited == frozenset("abd")  # the detour through c drops out


def test_format_and_read_clusters_round_trip():
    clusters = [
        Cluster(frozenset({"b", "a"}), ClusterKind.CLIQUE, 2),
        Cluster(frozenset({"c", "d", "e"}), ClusterKind.CLIQUE, 1),
    ]
    text = format_clusters(clusters)
    assert text == "clique\t2\ta,b\nclique\t1\tc,d,e\n"
    assert read_clusters(text) == sorted(clusters, key=lambda c: tuple(sorted(c.members)))


@pytest.mark.parametrize("members", [{"a\tb", "z"}, {"a,b", "z"}, {"a\nb", "z"}, {"a\rb", "z"}, {"a\r\nb", "z"},
                                     {"", "z"}, {"z"}],
                         ids=["tab", "comma", "lf", "cr", "crlf", "empty", "one-member"])
def test_format_clusters_refuses_a_cluster_the_reader_would_not_give_back(members):
    with pytest.raises(UnsupportedFormat, match="does not read back"):
        format_clusters([Cluster(frozenset({"c", "d"}), ClusterKind.COMPONENT, 2),
                         Cluster(frozenset(members), ClusterKind.CLIQUE, 1)])


@given(st.lists(st.frozensets(st.text(alphabet="ab,\t\n\r\u2028\x0c ", max_size=3), min_size=1, max_size=4),
                max_size=3),
       st.sampled_from(list(ClusterKind)))
@settings(max_examples=300)
def test_format_clusters_refuses_or_round_trips(member_sets, kind):
    found = [Cluster(members, kind, 1) for members in member_sets]
    try:
        text = format_clusters(found)
    except UnsupportedFormat:
        return
    assert read_clusters(text) == sorted(found, key=lambda c: tuple(sorted(c.members)))


# --- randomized oracle equivalence --------------------------------------------

NODES = list("abcdefghij")


@st.composite
def random_graphs(draw) -> CoOccurrenceGraph:
    n = draw(st.integers(min_value=0, max_value=10))
    nodes = NODES[:n]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weights = {pair: draw(st.integers(min_value=1, max_value=5)) for pair in chosen}
    # Some drawn nodes may lie in no pair: a graph built by hand can hold such isolated nodes.
    extra = draw(st.sets(st.sampled_from(nodes))) if nodes else set()
    graph_nodes = frozenset(x for pair in weights for x in pair) | extra
    return CoOccurrenceGraph(graph_nodes, weights)


@given(random_graphs())
@settings(max_examples=150)
def test_components_match_transitive_closure_oracle(graph):
    found = connected_components(graph)
    got = sorted(c.members for c in found)
    want = sorted(oracles.closure_components(sorted(graph.nodes), set(graph.weights)))
    assert got == want
    assert [c.support for c in found] == [oracles.min_pair_weight(graph.weights, c.members) for c in found]


@given(random_graphs())
# c joins a,b at support 3, and its lightest pair is 3: the support stays without a look at a and b.
@example(graph_of(("a", "b", 3), ("a", "c", 3), ("b", "c", 4)))
# c joins a,b at support 5; its lightest pair, c-d, is outside the clique, and c-a lowers the support to 2.
@example(graph_of(("a", "b", 5), ("a", "c", 2), ("b", "c", 9), ("c", "d", 1), ("a", "e", 1), ("b", "f", 1)))
@settings(max_examples=150)
def test_cliques_match_subset_oracle(graph):
    found = maximal_cliques(graph)
    got = [c.members for c in found]
    want = oracles.subset_cliques(sorted(graph.nodes), set(graph.weights))
    assert got == want
    assert [c.support for c in found] == [oracles.min_pair_weight(graph.weights, c.members) for c in found]


@given(random_graphs())
@settings(max_examples=100)
def test_every_clique_lies_inside_one_component(graph):
    components = connected_components(graph)
    for clique in maximal_cliques(graph):
        homes = [c for c in components if clique.members <= c.members]
        assert len(homes) == 1


def random_weighted_graph(seed: int, n: int, edges: int) -> CoOccurrenceGraph:
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]  # unpadded, so id order differs from number order
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < edges:
        a, b = sorted(rng.sample(nodes, 2))
        pairs.add((a, b))
    weights = {pair: rng.randint(1, 50) for pair in sorted(pairs)}
    return CoOccurrenceGraph(frozenset(x for pair in weights for x in pair), weights)


def topic_blocks_graph(
    seed: int, topics: int = 5, core: int = 26, versioned: int = 9, heaviest: int = 60
) -> CoOccurrenceGraph:
    """Dense topics of core units plus two-version units whose versions never meet.

    Every maximal clique is one topic's core with one version of each unit:
    ``topics * 2 ** versioned`` cliques of ``core + versioned`` members.
    """
    rng = random.Random(seed)
    weights: dict[tuple[str, str], int] = {}
    for t in range(topics):
        versions = {(f"t{t}u{i}a", f"t{t}u{i}b") for i in range(versioned)}
        nodes = [f"t{t}c{i}" for i in range(core)] + [v for pair in versions for v in pair]
        for pair in combinations(sorted(nodes), 2):
            if pair not in versions:
                weights[pair] = rng.randint(10, heaviest)
    return CoOccurrenceGraph(frozenset(x for pair in weights for x in pair), weights)


def with_lone_nodes(graph: CoOccurrenceGraph, lone: int) -> CoOccurrenceGraph:
    """The graph and ``lone`` more nodes that no pair names, whose ids sort among the linked ones."""
    return CoOccurrenceGraph(graph.nodes | {f"n{i}+" for i in range(lone)}, graph.weights)


# Node counts past 256 take two bytes a position in the search's records.
AT_SCALE = {
    "sparse-400": random_weighted_graph(11, 400, 350),
    "sparse-400-lone-900": with_lone_nodes(random_weighted_graph(11, 400, 350), 900),
    "medium-300": random_weighted_graph(12, 300, 4500),
    "topic-blocks-220": topic_blocks_graph(13),
    "wide-weights-176": topic_blocks_graph(14, topics=4, core=40, versioned=2, heaviest=5_000),
}


@pytest.mark.parametrize("graph", AT_SCALE.values(), ids=AT_SCALE.keys())
def test_clusters_match_networkx_at_scale(graph):
    import networkx as nx  # a test extra (pyproject.toml), so a missing one fails here rather than skips
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes)
    reference.add_edges_from(graph.weights)
    cases = [
        (maximal_cliques(graph), nx.find_cliques(reference)),
        (connected_components(graph), nx.connected_components(reference)),
    ]
    for found, expected in cases:
        assert sorted((c.members for c in found), key=sorted) == sorted(
            (frozenset(c) for c in expected if len(c) >= 2), key=sorted
        )
        assert [c.support for c in found] == [oracles.min_pair_weight(graph.weights, c.members) for c in found]


@pytest.mark.parametrize("name", ["sparse-400", "topic-blocks-220"])
def test_mine_cliques_writes_the_text_the_library_formats(name, tmp_path, capsys, monkeypatch):
    from odlgraph import cli, clusters

    cut = AT_SCALE[name]
    expected = format_clusters(maximal_cliques(cut))
    course = tmp_path / "course.odlg"
    course.write_text("NODE LA1|A|read|a||\nNODE LA2|B|read|b||\n", encoding="utf-8")
    log = tmp_path / "log.csv"
    log.write_text("u1,0,LA1\nu1,60,LA2\n", encoding="utf-8")
    monkeypatch.setattr(clusters, "cut_cooccurrence", lambda sets, min_count: cut)  # the command mines this cut
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", 7)  # many batches, the last one short
    argv = ["mine", "--log", str(log), "--course", str(course), "--cliques"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (expected, "")
    out = tmp_path / "cliques.tsv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected


def test_clique_records_widen_past_65536_nodes():
    # Six linked nodes at positions 65,534-65,539, the others alone: two bytes cannot hold the last positions.
    ids = [f"n{i:05d}" for i in range(65_540)]
    linked = ids[-6:]
    weights = {pair: 3 + i for i, pair in enumerate(combinations(linked, 2)) if pair != (linked[0], linked[1])}
    graph = CoOccurrenceGraph(frozenset(ids), weights)
    with pytest.raises(GraphTooLarge):
        maximal_cliques(graph)
    found = maximal_cliques(graph, max_nodes_guard=70_000)
    expected = [frozenset(linked[:1] + linked[2:]), frozenset(linked[1:])]
    assert found == [Cluster(members, ClusterKind.CLIQUE, oracles.min_pair_weight(weights, members))
                     for members in expected]
    assert "".join(clique_rows(graph, max_nodes_guard=70_000)) == format_clusters(found)


# Listed out of sorted order, and "LA10" sorts before "LA9", so first-seen order is rarely sorted order.
VISITED_IDS = ["LA9", "z", "LA10", "b", "LA1", "B", "a10", "a2", "Z0", "m"]


@st.composite
def random_session_sets(draw) -> list[SessionVisitSet]:
    # Up to 40 sessions over ten ids, so many pairs weigh more than one; wider lanes are tested below.
    k = draw(st.integers(min_value=0, max_value=40))
    out = []
    for i in range(k):
        learner = draw(st.sampled_from(["u2", "u10", "u1"]))
        visited = draw(st.sets(st.sampled_from(VISITED_IDS), max_size=6))
        out.append(SessionVisitSet((learner, i + 1), frozenset(visited)))
    return out


@given(random_session_sets())
@settings(max_examples=150)
def test_cooccurrence_matches_pair_counting_oracle(session_sets):
    graph = cooccurrence(session_sets)
    assert graph.weights == oracles.pair_counts([s.visited for s in session_sets])
    assert graph.nodes == frozenset().union(*(s.visited for s in session_sets))
    assert list(graph.weights) == sorted(graph.weights)
    for (a, b), w in graph.weights.items():
        assert a < b and w >= 1  # symmetric storage by sorted pair, no self-pairs
    one_shot = cooccurrence(s for s in session_sets)
    assert one_shot == graph and list(one_shot.weights) == list(graph.weights)


@given(random_session_sets(), st.randoms())
@settings(max_examples=100)
def test_session_order_does_not_matter(session_sets, rng):
    shuffled = list(session_sets)
    rng.shuffle(shuffled)
    original = cooccurrence(session_sets)
    assert cooccurrence(shuffled) == original
    assert list(cooccurrence(shuffled).weights) == list(original.weights)
    cut, cut_shuffled = threshold(original, 2), threshold(cooccurrence(shuffled), 2)
    assert format_clusters(connected_components(cut)) == format_clusters(connected_components(cut_shuffled))
    assert format_clusters(maximal_cliques(cut)) == format_clusters(maximal_cliques(cut_shuffled))


def mining_shaped_sets(seed: int, sessions: int = 300, topics: int = 4, per_topic: int = 40) -> list[SessionVisitSet]:
    """Sessions of 35 activities drawn from one topic each, a third with one stray visit elsewhere."""
    rng = random.Random(seed)
    every = [f"t{t}a{i}" for t in range(topics) for i in range(per_topic)]
    out = []
    for index in range(1, sessions + 1):
        topic = rng.randrange(topics)
        visited = set(rng.sample(every[topic * per_topic:(topic + 1) * per_topic], 35))
        if rng.random() < 0.3:
            visited.add(rng.choice(every))
        out.append(SessionVisitSet((f"u{index % 50}", index), frozenset(visited)))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_cooccurrence_matches_pair_counting_oracle_on_mining_shaped_sessions(seed):
    session_sets = mining_shaped_sets(seed)
    graph = cooccurrence(session_sets)
    assert type(graph.weights) is dict
    assert graph.weights == oracles.pair_counts([s.visited for s in session_sets])
    assert graph.nodes == frozenset().union(*(s.visited for s in session_sets))
    assert list(graph.weights) == sorted(graph.weights)


def test_dense_overlap_counts_each_pair_once():
    # 8,000 sessions over the same 100 activities: 4,950 pairs, each in every session.
    # Counting pair by pair in each session makes 39.6M increments here.
    every = frozenset(f"a{i}" for i in range(100))
    session_sets = [SessionVisitSet((f"u{s % 97}", s), every) for s in range(8_000)]
    start = time.perf_counter()
    graph = cooccurrence(session_sets)
    assert time.perf_counter() - start < 2.0
    assert graph.nodes == every
    assert len(graph.weights) == 4_950 and set(graph.weights.values()) == {8_000}
    assert list(graph.weights) == sorted(combinations(sorted(every), 2))


@given(random_session_sets())
@settings(max_examples=100)
def test_cut_while_counting_is_the_threshold_of_the_count(session_sets):
    graph = cooccurrence(session_sets)
    for k in range(1, max(graph.weights.values(), default=0) + 2):
        cut, expected = cut_cooccurrence(session_sets, k), threshold(graph, k)
        assert cut == expected and list(cut.weights) == list(expected.weights)
        assert cut_cooccurrence(iter(session_sets), k) == expected


def test_cut_while_counting_rejects_non_positive_cut():
    with pytest.raises(ValueError):
        cut_cooccurrence(sets_of({"a", "b"}), 0)


@pytest.mark.parametrize("sessions", [255, 256, 65_535, 65_536])
def test_a_lane_holds_a_pair_found_in_every_session(sessions):
    # a and b sit in every session, so weight(a, b) is the session count: the largest value a lane must hold.
    # A lane too narrow for it carries into c's lane, next to b's.
    session_sets = [SessionVisitSet(("u1", s), frozenset("abc" if s % 2 else "ab")) for s in range(sessions)]
    expected = {("a", "b"): sessions, ("a", "c"): sessions // 2, ("b", "c"): sessions // 2}
    assert cooccurrence(session_sets) == CoOccurrenceGraph(frozenset("abc"), expected)
    assert cut_cooccurrence(session_sets, sessions) == CoOccurrenceGraph(frozenset("ab"), {("a", "b"): sessions})


def test_lanes_read_in_little_endian_order_whatever_the_host(monkeypatch):
    import odlgraph.clusters as module

    # 300 sessions take 16-bit lanes, and weight(a, b) = 300 = 0x012c fills both of a lane's bytes.
    session_sets = [SessionVisitSet(("u1", s), frozenset("abc" if s < 7 else "ab")) for s in range(300)]
    expected = {("a", "b"): 300, ("a", "c"): 7, ("b", "c"): 7}
    assert cooccurrence(session_sets).weights == expected

    def on_a_big_endian_host(fmt: str, buffer: bytes) -> tuple[int, ...]:
        """``struct.unpack`` as a big-endian host runs it: formats without a byte order read big-endian."""
        return struct.unpack(fmt if fmt[:1] in "<>!" else ">" + fmt.lstrip("@="), buffer)

    monkeypatch.setattr(module, "unpack", on_a_big_endian_host)
    assert cooccurrence(session_sets).weights == expected


def test_sparse_sessions_count_in_lanes_without_a_pass_per_pair():
    # 20,000 sessions of 10 over 2,000 activities: 724,450 pairs, most of them in one session or two.
    rng = random.Random(5)
    activities = [f"a{i}" for i in range(2_000)]
    session_sets = [SessionVisitSet((f"u{s % 97}", s), frozenset(rng.sample(activities, 10))) for s in range(20_000)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        graph = cooccurrence(session_sets)
        elapsed = time.perf_counter() - start
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 15.0
    assert graph.weights == Counter(pair for s in session_sets for pair in combinations(sorted(s.visited), 2))
    # The lane totals take activities² * 2 bytes (16-bit lanes: 8 MB); each goes as its lanes are read, so they
    # never stack in full on the weights dict's last resize (about 21 MB), which the rest of the bound is for.
    assert peak - held < 3 * len(activities) ** 2 * 2
