"""Session co-occurrence clustering.

Sessions enter as sets of visited activities.  Counting how many sessions
contain each pair yields a weighted undirected graph.  Pairs are counted in
lane sums (Lamport, 1975): each activity's total packs one counter per
activity side by side in one integer, and a session adds one vector to the
totals of the activities it visited.  After a frequency cut,
activity clusters fall out either as connected components (fast) or as
maximal cliques (coherent, enumerated behind a size guard by an iterative
Bron-Kerbosch search with Tomita pivoting that carries each clique's
support down the search and meets no recursion limit).  All outputs are
deterministically ordered so cluster files diff cleanly between runs.

The search keeps each maximal clique as one compact record: its node
positions in sorted-id order as fixed-width big-endian bytes, and its
support.  Fixed-width bytes sort as the sorted member lists do, so one sort
of the records gives file order.  :func:`maximal_cliques` builds its
clusters from the records; :func:`clique_rows` makes the text rows from
them one at a time, for a writer that writes them in batches, so neither
the clusters nor the whole text is held.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from struct import calcsize, pack, unpack
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import GraphTooLarge, ParseError, UnsupportedFormat
from .options import DEFAULT_MIN_COOCCURRENCE  # re-exported: the cut the command line applies by default
from .text import holds_line_end, lines

if TYPE_CHECKING:
    from .sessions import Session

MAX_REPORTED_CLIQUES = 1_000_000


class SessionVisitSet(NamedTuple):
    session_key: tuple[str, int]  # (learner_id, session_index)
    visited: frozenset[str]


class CoOccurrenceGraph(NamedTuple):
    """Undirected weighted graph; weights are keyed by sorted node pairs."""

    nodes: frozenset[str]
    weights: dict[tuple[str, str], int]


class ClusterKind(str, Enum):
    CLIQUE = "clique"
    COMPONENT = "component"


class Cluster(NamedTuple):
    members: frozenset[str]
    kind: ClusterKind
    support: int  # minimum pair weight inside the cluster


def session_visit_sets(sessions: Iterable[Session], strategy_paths: bool = False) -> list[SessionVisitSet]:
    """One visit set per session; repeats within a session count once.

    With ``strategy_paths`` the per-session walk is loop-erased first, so
    nodes visited only inside detours drop out.
    """
    return visit_sets(
        (((s.learner_id, s.session_index), [b.activity_id for b in s.blocks]) for s in sessions), strategy_paths
    )


def visit_sets(
    walks: Iterable[tuple[tuple[str, int], Iterable[str]]], strategy_paths: bool = False
) -> list[SessionVisitSet]:
    """One visit set per ``(session_key, activity ids)`` walk, as :func:`session_visit_sets` makes them.

    Each walk is read once, in turn, so a caller that gives them one at a
    time holds one session's ids at a time.
    """
    if strategy_paths:
        from .paths import erase_cycles

        return [SessionVisitSet(key, frozenset(erase_cycles(list(ids)))) for key, ids in walks]
    return [SessionVisitSet(key, frozenset(ids)) for key, ids in walks]


def _counted(session_sets: Iterable[SessionVisitSet], min_count: int) -> CoOccurrenceGraph:
    """Every visited activity, and the pairs of weight ``min_count`` or more in sorted order, from lane sums."""
    visit_sets = [svs.visited for svs in session_sets]
    order = sorted(frozenset().union(*visit_sets))
    code = next(code for code in "BHIQ" if len(visit_sets) < 1 << 8 * calcsize(f"<{code}"))  # the largest weight fits
    lane, row = calcsize(f"<{code}"), f"<{len(order)}{code}"
    offset = {node: i * lane for i, node in enumerate(order)}
    totals = dict.fromkeys(order, 0)
    for visited in visit_sets:
        vector = bytearray(len(order) * lane)
        for node in visited:
            vector[offset[node]] = 1
        vector = int.from_bytes(vector, "little")
        for node in visited:
            totals[node] += vector
    weights: dict[tuple[str, str], int] = {}
    for i, a in enumerate(order, 1):
        counts = unpack(row, totals.pop(a).to_bytes(len(order) * lane, "little"))[i:]  # the lanes after a's own
        kept = list(map(min_count.__le__, counts)) if min_count > 1 else counts  # a lane of 0 is no pair
        weights.update(zip(zip(repeat(a), compress(islice(order, i, None), kept)), compress(counts, kept)))
    return CoOccurrenceGraph(frozenset(order), weights)


def cooccurrence(session_sets: Iterable[SessionVisitSet]) -> CoOccurrenceGraph:
    """weight(a, b) = number of sessions whose visit set contains both.

    Each visited activity keeps a total with one counter lane per activity,
    8, 16, 32 or 64 bits wide, the narrowest that holds the session count.
    A session adds its vector, a 1 in each of its activities' lanes, to each
    of their totals, so lane *b* of *a*'s total ends as weight(a, b).  Each
    total is read once, as little-endian lanes, and let go as it is read.
    The cost is O(visits * activities * lane bytes / 8) time plus
    O(co-occurring pairs), and O(activities² * lane bytes) memory.
    ``weights`` lists the pairs in sorted order.
    """
    return _counted(session_sets, 1)


def cut_cooccurrence(session_sets: Iterable[SessionVisitSet], min_count: int) -> CoOccurrenceGraph:
    """``threshold(cooccurrence(session_sets), min_count)``, without making the pairs the cut drops."""
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    weights = _counted(session_sets, min_count).weights
    return CoOccurrenceGraph(frozenset(chain.from_iterable(weights)), weights)


def threshold(graph: CoOccurrenceGraph, min_count: int) -> CoOccurrenceGraph:
    """Drop edges below ``min_count`` and any node left without edges."""
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    weights = {pair: w for pair, w in graph.weights.items() if w >= min_count}
    return CoOccurrenceGraph(frozenset(chain.from_iterable(weights)), weights)


def _indexed(graph: CoOccurrenceGraph) -> tuple[list[str], list[int], list[dict[int, int]]]:
    """Nodes in sorted order, and by position each node's neighbour bitmask and pair weights.

    Positions follow the sorted node order, so ascending positions are
    ascending node ids and sorted position tuples sort like sorted id tuples.
    ``weight[i][j]`` is the weight of the pair at positions ``i`` and ``j``.
    """
    order = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(order)}
    adj = [0] * len(order)
    weight: list[dict[int, int]] = [{} for _ in order]
    for (a, b), w in graph.weights.items():
        i, j = index[a], index[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        weight[i][j] = weight[j][i] = w
    return order, adj, weight


def connected_components(graph: CoOccurrenceGraph) -> list[Cluster]:
    """Components over the surviving edges; singletons excluded.

    A member's pairs all lie inside its component, so the members' weight rows give its support.
    """
    order, adj, weight = _indexed(graph)
    clusters: list[Cluster] = []
    unseen = sum(1 << i for i, neighbours in enumerate(adj) if neighbours)
    while unseen:
        component = frontier = unseen & -unseen
        support, members = math.inf, []
        while frontier:  # each member passes through the frontier once
            low = frontier & -frontier
            frontier ^= low
            node = low.bit_length() - 1
            members.append(order[node])
            support = min(support, min(weight[node].values()))
            new = adj[node] & ~component
            component |= new
            frontier |= new
        unseen &= ~component
        clusters.append(Cluster(frozenset(members), ClusterKind.COMPONENT, support))
    return clusters


def _branches(candidates: int, excluded: int, adj: list[int]) -> int:
    """The candidates left to branch on after Tomita's pivot rule.

    The pivot is the lowest node of ``candidates | excluded`` with the most
    neighbours in ``candidates``; only candidates outside its neighbourhood
    can start a clique the pivot's branches do not already reach.  The walk
    stops at the first node that neighbours every candidate: no later node
    has more.
    """
    pivot, most, every = -1, -1, candidates.bit_count()
    rest = candidates | excluded
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        count = (adj[u] & candidates).bit_count()
        if count > most:
            pivot, most = u, count
            if count == every:
                break
        rest ^= low
    return candidates & ~adj[pivot]


def _codec(nodes: int) -> tuple[Callable[[list[int]], bytes], Callable[[bytes], Iterable[int]]]:
    """How ascending node positions become one record's bytes, and back, for a graph of ``nodes`` nodes.

    Each position takes the same number of bytes, the fewest that hold the
    largest: one up to 256 nodes, two up to 65,536, then four.  Wider
    positions are big-endian, so records compare as their position tuples do.
    """
    if nodes <= 1 << 8:
        return bytes, bytes.__iter__
    code = "H" if nodes <= 1 << 16 else "I"
    width = calcsize(code)
    return (lambda positions: pack(f">{len(positions)}{code}", *positions),
            lambda record: unpack(f">{len(record) // width}{code}", record))


def _clique_records(
    graph: CoOccurrenceGraph, max_nodes_guard: int
) -> tuple[list[str], Callable[[bytes], Iterable[int]], list[tuple[bytes, int]]]:
    """Every maximal clique of size >= 2 as a compact record, in the order files list them.

    Returns the nodes in sorted order, the decoder of a record's positions
    (see :func:`_codec`) and the records ``(positions, support)``, sorted
    once.  No maximal clique's positions are a prefix of another's, so the
    record bytes alone decide the order, which is sorted-member order.

    The search keeps its own stack, so no clique size meets the recursion
    limit, and carries each clique's support down as members join.  A node
    whose lightest pair is no lighter than the support cannot lower it, so
    only a node with a lighter pair somewhere loops over the members.
    """
    if len(graph.nodes) > max_nodes_guard:
        raise GraphTooLarge(len(graph.nodes), max_nodes_guard, "nodes")
    order, adj, weight = _indexed(graph)
    encode, decode = _codec(len(order))
    lightest = [min(row.values(), default=0) for row in weight]
    found: list[tuple[bytes, int]] = []
    # The state searched: the clique, its support, candidates, excluded, branches left.
    # The stack holds, outermost first, each state with branches left that a deeper one interrupted.
    stack: list[tuple[tuple[int, ...], float, int, int, int]] = []
    # A node without neighbours is in no clique of two, so the search starts from the others, as
    # connected_components does; otherwise each lone node would cost a copy of every n-bit mask.
    candidates = sum(1 << i for i, neighbours in enumerate(adj) if neighbours)
    clique, support, excluded = (), math.inf, 0
    branches = _branches(candidates, excluded, adj) if candidates else 0
    while branches or stack:
        if not branches:
            clique, support, candidates, excluded, branches = stack.pop()
            continue
        low = branches & -branches
        v = low.bit_length() - 1
        branches ^= low
        near = adj[v]
        inner, outer = candidates & near, excluded & near
        candidates ^= low
        excluded |= low
        joined = support  # the support once v joins
        if lightest[v] < support:
            to_v = weight[v]
            for u in clique:
                if to_v[u] < joined:
                    joined = to_v[u]
        if inner:
            if branches:
                stack.append((clique, support, candidates, excluded, branches))
            clique, support = clique + (v,), joined
            candidates, excluded, branches = inner, outer, _branches(inner, outer, adj)
        elif not outer and clique:
            found.append((encode(sorted(clique + (v,))), joined))
            if len(found) > MAX_REPORTED_CLIQUES:
                raise GraphTooLarge(len(found), MAX_REPORTED_CLIQUES, "cliques")
    found.sort()
    return order, decode, found


def maximal_cliques(graph: CoOccurrenceGraph, max_nodes_guard: int = 2000) -> list[Cluster]:
    """All maximal cliques of size >= 2, via iterative pivoting branch and bound, in the order files list them.

    Raises :class:`GraphTooLarge` when the node count exceeds the guard or
    more than ``MAX_REPORTED_CLIQUES`` cliques come out.
    """
    order, decode, records = _clique_records(graph, max_nodes_guard)
    return [
        Cluster(frozenset(map(order.__getitem__, decode(record))), ClusterKind.CLIQUE, support)
        for record, support in records
    ]


def clique_rows(graph: CoOccurrenceGraph, max_nodes_guard: int = 2000) -> Iterator[str]:
    """The lines of ``format_clusters(maximal_cliques(graph))``, one at a time, each with its line end.

    The search, the sort and the check that every member reads back run on
    the call, so a tripped guard or an unreadable member raises before the
    first line; the lines are then made from the records as they are read,
    and no cluster or whole text is held.  The errors are
    :func:`maximal_cliques`'s and :func:`format_clusters`'s.
    """
    order, decode, records = _clique_records(graph, max_nodes_guard)
    kind = ClusterKind.CLIQUE
    if records:
        try:
            format_clusters([Cluster(frozenset(order), kind, 0)])  # every id can sit in a row
        except UnsupportedFormat:  # refuse the first clique, in file order, that holds one that cannot
            for record, support in records:
                format_clusters([Cluster(frozenset(map(order.__getitem__, decode(record))), kind, support)])
    return (f"{kind.value}\t{support}\t{','.join(map(order.__getitem__, decode(record)))}\n"
            for record, support in records)


def _keyed(clusters: Iterable[Cluster]) -> list[tuple[tuple[str, tuple[str, ...]], Cluster]]:
    """Each cluster after its sort key (kind text, sorted members); equal keys keep their input order."""
    keyed = [((c.kind.value, tuple(sorted(c.members))), c) for c in clusters]
    keyed.sort(key=itemgetter(0))
    return keyed


def sort_clusters(clusters: Iterable[Cluster]) -> list[Cluster]:
    """Clusters in the one order files list them and DOT colours them: by kind, then sorted members."""
    return [c for _, c in _keyed(clusters)]


def format_clusters(clusters: Iterable[Cluster]) -> str:
    """One cluster per line: ``kind<TAB>support<TAB>member,member,...``.

    A cluster :func:`read_clusters` would not give back raises :class:`UnsupportedFormat`: one
    with fewer than two members, or with a member that is empty or holds a tab, a comma or a line end.
    """
    rows = []
    for (kind, members), c in _keyed(clusters):
        text = ",".join(members)
        if (len(members) < 2 or "" in c.members or text.count(",") != len(members) - 1 or "\t" in text
                or holds_line_end(text)):
            raise UnsupportedFormat(f"cluster {members!r} does not read back")
        rows.append(f"{kind}\t{c.support}\t{text}")
    return "\n".join(rows) + ("\n" if rows else "")


def read_clusters(text: str) -> list[Cluster]:
    """Parse :func:`format_clusters` output back into clusters."""
    clusters: list[Cluster] = []
    for line_no, raw in enumerate(lines(text), 1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ParseError(line_no, "expected kind<TAB>support<TAB>members")
        kind_text, support_text, member_text = parts
        try:
            kind = ClusterKind(kind_text)
        except ValueError:
            raise ParseError(line_no, f"unknown cluster kind {kind_text!r}") from None
        try:
            support = int(support_text)
        except ValueError:
            raise ParseError(line_no, f"bad support {support_text!r}") from None
        members = frozenset(m for m in member_text.split(",") if m)
        if len(members) < 2:
            raise ParseError(line_no, "cluster needs at least two members")
        clusters.append(Cluster(members, kind, support))
    return clusters
