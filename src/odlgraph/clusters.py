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
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress, islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

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
    if strategy_paths:
        from .paths import erase_cycles
    out: list[SessionVisitSet] = []
    for session in sessions:
        ids: list[str] = [b.activity_id for b in session.blocks]
        if strategy_paths:
            ids = erase_cycles(ids)
        out.append(SessionVisitSet((session.learner_id, session.session_index), frozenset(ids)))
    return out


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


def _indexed(graph: CoOccurrenceGraph) -> tuple[list[str], dict[str, int], list[int]]:
    """Nodes in sorted order, each node's position, and neighbour bitmasks by position.

    Positions follow the sorted node order, so ascending positions are
    ascending node ids and sorted position tuples sort like sorted id tuples.
    """
    order = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(order)}
    adj = [0] * len(order)
    for a, b in graph.weights:
        i, j = index[a], index[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return order, index, adj


def _positions(mask: int) -> Iterator[int]:
    """Set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected_components(graph: CoOccurrenceGraph) -> list[Cluster]:
    """Components over the surviving edges; singletons excluded."""
    order, index, adj = _indexed(graph)
    component_of = [-1] * len(order)
    masks: list[int] = []
    for start, neighbours in enumerate(adj):
        if component_of[start] >= 0 or not neighbours:
            continue
        component = frontier = 1 << start
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            node = low.bit_length() - 1
            component_of[node] = len(masks)
            new = adj[node] & ~component
            component |= new
            frontier |= new
        masks.append(component)
    support = [math.inf] * len(masks)
    for (a, _), w in graph.weights.items():
        k = component_of[index[a]]
        support[k] = min(support[k], w)
    return [
        Cluster(frozenset(order[i] for i in _positions(mask)), ClusterKind.COMPONENT, support[k])
        for k, mask in enumerate(masks)
    ]


def _branches(candidates: int, excluded: int, adj: list[int]) -> int:
    """The candidates left to branch on after Tomita's pivot rule.

    The pivot is the lowest node of ``candidates | excluded`` with the most
    neighbours in ``candidates``; only candidates outside its neighbourhood
    can start a clique the pivot's branches do not already reach.
    """
    pivot, most = -1, -1
    for u in _positions(candidates | excluded):
        count = (adj[u] & candidates).bit_count()
        if count > most:
            pivot, most = u, count
    return candidates & ~adj[pivot]


def maximal_cliques(graph: CoOccurrenceGraph, max_nodes_guard: int = 2000) -> list[Cluster]:
    """All maximal cliques of size >= 2, via iterative pivoting branch and bound.

    The search keeps its own stack, so no clique size meets the recursion
    limit, and carries each clique's support down as members join.

    Raises :class:`GraphTooLarge` when the node count exceeds the guard or
    more than ``MAX_REPORTED_CLIQUES`` cliques come out.
    """
    if len(graph.nodes) > max_nodes_guard:
        raise GraphTooLarge(len(graph.nodes), max_nodes_guard, "nodes")
    order, index, adj = _indexed(graph)
    weight: list[dict[int, int]] = [{} for _ in order]
    for (a, b), w in graph.weights.items():
        i, j = index[a], index[b]
        weight[i][j] = weight[j][i] = w
    found: list[tuple[tuple[int, ...], int]] = []
    # Each frame: clique, its support, candidates, excluded, branches left.
    everything = (1 << len(order)) - 1
    stack = [[(), math.inf, everything, 0, _branches(everything, 0, adj)]] if order else []
    while stack:
        frame = stack[-1]
        clique, support, candidates, excluded, branches = frame
        if not branches:
            stack.pop()
            continue
        low = branches & -branches
        v = low.bit_length() - 1
        frame[2], frame[3], frame[4] = candidates ^ low, excluded | low, branches ^ low
        to_v = weight[v]
        for u in clique:
            if to_v[u] < support:
                support = to_v[u]
        clique += (v,)
        candidates &= adj[v]
        excluded &= adj[v]
        if candidates:
            stack.append([clique, support, candidates, excluded, _branches(candidates, excluded, adj)])
        elif not excluded and len(clique) >= 2:
            found.append((tuple(sorted(clique)), support))
            if len(found) > MAX_REPORTED_CLIQUES:
                raise GraphTooLarge(len(found), MAX_REPORTED_CLIQUES, "cliques")
    return [
        Cluster(frozenset(map(order.__getitem__, members)), ClusterKind.CLIQUE, support)
        for members, support in sorted(found)
    ]


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
