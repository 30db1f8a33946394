"""Session co-occurrence clustering.

Sessions enter as sets of visited activities.  Counting how many sessions
contain each pair yields a weighted undirected graph.  Pairs are counted in
the vertical layout of Eclat (Zaki, 2000): each activity's sessions form one
bitset, and a pair's weight is the popcount of the AND of its two bitsets,
taken once for each pair that co-occurs at all.  After a frequency cut,
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
from bisect import bisect_left
from enum import Enum
from itertools import compress, islice, repeat
from operator import itemgetter
from struct import calcsize, pack, unpack
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import GraphTooLarge, ParseError, UnsupportedFormat
from .options import DEFAULT_MIN_COOCCURRENCE  # re-exported: the cut the command line applies by default
from .text import holds_line_end, lines

if TYPE_CHECKING:
    from .sessions import Session

MAX_REPORTED_CLIQUES = 1_000_000

# Maps the digits of ``bin(mask)`` to the bytes 0 and 1, so ``compress`` reads a mask bit by bit.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


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


def cooccurrence(session_sets: Iterable[SessionVisitSet]) -> CoOccurrenceGraph:
    """weight(a, b) = number of sessions whose visit set contains both.

    One pass over the sessions sets, for session *s*, bit *s* in the session
    bitset of each activity it visited (built in one ``bytearray`` per
    activity, so building stays linear) and ORs the session's node mask into
    those activities' partner masks.  Then, for each activity ``a`` in sorted
    order and each partner ``b > a``,
    ``weight(a, b) = (bitset[a] & bitset[b]).bit_count()``.  The cost is
    O(sum of visit set sizes + co-occurring pairs * sessions / 64), where
    counting pair by pair in each session of k visits costs k(k-1)/2.

    ``weights`` lists the pairs in sorted order.
    """
    visit_sets = [svs.visited for svs in session_sets]
    width = (len(visit_sets) + 7) >> 3
    order = sorted(frozenset().union(*visit_sets))
    node_bit = {node: 1 << i for i, node in enumerate(order)}
    rows = {node: bytearray(width) for node in order}
    partners = dict.fromkeys(order, 0)
    for s, visited in enumerate(visit_sets):
        byte, bit = s >> 3, 1 << (s & 7)
        mask = sum(map(node_bit.__getitem__, visited))  # distinct bits, so the sum is their OR
        for node in visited:
            rows[node][byte] |= bit
            partners[node] |= mask
    bitsets = [int.from_bytes(row, "little") for row in rows.values()]
    weights: dict[tuple[str, str], int] = {}
    for i, (a, bitset, near) in enumerate(zip(order, bitsets, partners.values())):
        later = bin(near >> (i + 1))[:1:-1].encode().translate(_BIT_FLAGS)  # partners after a, lowest first
        pairs = zip(repeat(a), compress(islice(order, i + 1, None), later))
        counts = map(int.bit_count, map(bitset.__and__, compress(islice(bitsets, i + 1, None), later)))
        weights.update(zip(pairs, counts))
    return CoOccurrenceGraph(frozenset(order), weights)


def threshold(graph: CoOccurrenceGraph, min_count: int) -> CoOccurrenceGraph:
    """Drop edges below ``min_count`` and any node left without edges."""
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    weights = {pair: w for pair, w in graph.weights.items() if w >= min_count}
    nodes = {n for pair in weights for n in pair}
    return CoOccurrenceGraph(frozenset(nodes), weights)


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


def _positions(mask: int) -> Iterator[int]:
    """Set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected_components(graph: CoOccurrenceGraph) -> list[Cluster]:
    """Components over the surviving edges; singletons excluded.

    A member's pairs all lie inside its component, so the members' weight rows give its support.
    """
    order, adj, weight = _indexed(graph)
    clusters: list[Cluster] = []
    unseen = sum(1 << i for i, neighbours in enumerate(adj) if neighbours)
    while unseen:
        component = frontier = unseen & -unseen
        support = math.inf
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            node = low.bit_length() - 1
            support = min(support, min(weight[node].values()))
            new = adj[node] & ~component
            component |= new
            frontier |= new
        unseen &= ~component
        clusters.append(Cluster(frozenset(order[i] for i in _positions(component)), ClusterKind.COMPONENT, support))
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


# A clique of at least this many members first looks a joining node up in the node's weight levels (see
# :func:`_weight_levels`); a shorter one loops over its members at once, which costs less than the look-up.
_LEVELS_FROM = 8
# The most distinct pair weights one node's levels keep, which bounds the masks a node holds at 65.
_MOST_LEVELS = 64


def _weight_levels(row: dict[int, int], neighbours: int) -> tuple[list[int], list[int]]:
    """A node's lowest distinct pair weights ``cuts``, ascending, and by each the mask of its neighbours below it.

    ``below[bisect_left(cuts, s)]`` holds every neighbour whose pair weight
    is below ``s``: exactly those while ``s`` is at most the last cut, and all
    ``neighbours`` past it.  So a clique of members none of which is in
    that mask keeps its support ``s`` when the node joins.
    """
    cuts: list[int] = []
    below: list[int] = []
    mask = 0
    for u in sorted(row, key=row.__getitem__):
        w = row[u]
        if not cuts or w != cuts[-1]:
            if len(cuts) == _MOST_LEVELS:
                break
            cuts.append(w)
            below.append(mask)
        mask |= 1 << u
    below.append(neighbours)
    return cuts, below


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
    limit, and carries each clique's support down as members join.  A long
    clique keeps its support on most joins, which the joining node's weight
    levels tell without a loop over the members.
    """
    if len(graph.nodes) > max_nodes_guard:
        raise GraphTooLarge(len(graph.nodes), max_nodes_guard, "nodes")
    order, adj, weight = _indexed(graph)
    encode, decode = _codec(len(order))
    levels: list[tuple[list[int], list[int]] | None] = [None] * len(order)  # each built on first use
    found: list[tuple[bytes, int]] = []
    # The state searched: the clique, its members as a mask, its support, candidates, excluded, branches left.
    # The stack holds, outermost first, each state with branches left that a deeper one interrupted.
    stack: list[tuple[tuple[int, ...], int, float, int, int, int]] = []
    # A node without neighbours is in no clique of two, so the search starts from the others, as
    # connected_components does; otherwise each lone node would cost a copy of every n-bit mask.
    candidates = sum(1 << i for i, neighbours in enumerate(adj) if neighbours)
    clique, members, support, excluded = (), 0, math.inf, 0
    branches = _branches(candidates, excluded, adj) if candidates else 0
    while branches or stack:
        if not branches:
            clique, members, support, candidates, excluded, branches = stack.pop()
            continue
        low = branches & -branches
        v = low.bit_length() - 1
        branches ^= low
        near = adj[v]
        inner, outer = candidates & near, excluded & near
        candidates ^= low
        excluded |= low
        joined = support  # the support once v joins
        lower = True
        if len(clique) >= _LEVELS_FROM:
            if levels[v] is None:
                levels[v] = _weight_levels(weight[v], near)
            cuts, below = levels[v]
            lower = members & below[bisect_left(cuts, support)]
        if lower:
            to_v = weight[v]
            for u in clique:
                if to_v[u] < joined:
                    joined = to_v[u]
        if inner:
            if branches:
                stack.append((clique, members, support, candidates, excluded, branches))
            clique, members, support = clique + (v,), members | low, joined
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
