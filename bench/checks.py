"""Output checks: independent recomputation of what the library job produced.

Each check returns a list of ``(operation index, message)`` failures; an
empty list means the outputs hold.  The checks never call the function
they check: cliques and components are compared with ``networkx``, pair
weights are recounted by brute force, loop erasure is redone naively, and
DOT files are counted line by line.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import networkx as nx

from odlgraph import ClusterKind, isomorphic, parse_graph_file

PAIR_SAMPLE = 200


def _support(weights: dict, members) -> int:
    return min(weights[p] for p in combinations(sorted(members), 2) if p in weights)


def clusters_match_networkx(mine) -> list:
    """Cliques or components equal networkx's on the cut graph, supports equal the minimum pair weight."""
    graph = nx.Graph()
    graph.add_nodes_from(mine.cut.nodes)
    graph.add_edges_from(mine.cut.weights)
    if mine.kind is ClusterKind.CLIQUE:
        expected = [frozenset(c) for c in nx.find_cliques(graph) if len(c) >= 2]
    else:
        expected = [frozenset(c) for c in nx.connected_components(graph) if len(c) >= 2]
    got = [c.members for c in mine.found]
    failures = []
    if len(got) != len(set(got)) or set(got) != set(expected):
        failures.append((mine.op, f"{mine.kind.value}s differ from networkx: {len(got)} found, "
                                  f"{len(expected)} expected, {len(set(got) ^ set(expected))} differ"))
    bad = [c for c in mine.found if c.kind is not mine.kind or c.support != _support(mine.cut.weights, c.members)]
    if bad:
        failures.append((mine.op, f"{len(bad)} {mine.kind.value}s carry a wrong kind or support"))
    return failures


def naive_erase(ids: list[str]) -> list[str]:
    """Loop erasure by list search: on a repeat, cut the path back to the earlier visit."""
    path: list[str] = []
    for node in ids:
        if node in path:
            del path[path.index(node) + 1:]
        else:
            path.append(node)
    return path


def pair_weights_naive(mine, seed: int) -> list:
    """Recount a sample of pair weights over every session's own visit set."""
    sets = [s.visited for s in mine.visit_sets]
    rng = random.Random(seed)
    present = sorted(mine.graph.weights)
    nodes = sorted(mine.graph.nodes)
    sample = rng.sample(present, min(PAIR_SAMPLE // 2, len(present)))
    if len(nodes) >= 2:
        sample += [tuple(sorted(rng.sample(nodes, 2))) for _ in range(PAIR_SAMPLE // 2)]
    wrong = [p for p in sample if mine.graph.weights.get(p, 0) != sum(p[0] in s and p[1] in s for s in sets)]
    return [(mine.op, f"{len(wrong)} of {len(sample)} sampled pair weights are wrong")] if wrong else []


def visit_sets_naive(mine, sessions) -> list:
    """Each session's visit set is its distinct activities, after naive loop erasure when asked."""
    wrong = 0
    for session, vs in zip(sessions, mine.visit_sets):
        ids = [b.activity_id for b in session.blocks]
        expected = frozenset(naive_erase(ids) if mine.strategy_paths else ids)
        wrong += vs.visited != expected or vs.session_key != (session.learner_id, session.session_index)
    if wrong or len(sessions) != len(mine.visit_sets):
        return [(mine.op, f"{wrong} visit sets are wrong")]
    return []


def erase_conserves(splits) -> list:
    """Strategy path + detour interiors + one anchor per detour = the visits; the path is the naive erasure."""
    failures = []
    for op, learner, ids, path, detours in splits:
        accounted = Counter(path)
        for d in detours:
            accounted.update(d.interior)
            accounted[d.anchor_activity] += 1
        if accounted != Counter(ids):
            failures.append((op, f"erase of {learner} does not conserve visits"))
        elif path != naive_erase(ids):
            failures.append((op, f"strategy path of {learner} differs from the naive loop erasure"))
    return failures


def dot_counts(op, env, include_reference_edges: bool, text: str) -> list:
    """One node statement per activity, one edge statement per bag entry, 2*refs*(n-1) reference edges."""
    lines = text.splitlines()
    nodes = sum(1 for line in lines if line.startswith('  "') and " -> " not in line)
    edges = sum(1 for line in lines if " -> " in line)
    n, refs = len(env.activities), len(env.reference_ids)
    expected_edges = len(env.edges) + (2 * refs * (n - 1) if include_reference_edges else 0)
    if (nodes, edges) != (n, expected_edges) or lines[0] != "digraph course {" or lines[-1] != "}":
        return [(op, f"DOT has {nodes} nodes and {edges} edges, expected {n} and {expected_edges}")]
    return []


def library_outputs(lib, seed: int) -> list:
    """Every check on the library job's kept results."""
    failures = []
    for mine in lib.mines:
        failures += clusters_match_networkx(mine)
        failures += pair_weights_naive(mine, seed)
        failures += visit_sets_naive(mine, lib.pipelines[mine.log][0])
    for splits in lib.splits.values():
        failures += erase_conserves(splits)
    for dot in lib.dots:
        failures += dot_counts(*dot)
    op, from_outline, graph_text = lib.round_trip
    if not isomorphic(from_outline, parse_graph_file(graph_text)):
        failures.append((op, "the .odlg round trip is not isomorphic to the outline"))
    op, built, reference = lib.built
    if not isomorphic(built, reference):
        failures.append((op, "the course built call by call is not isomorphic to its source"))
    return failures


def digest(outputs: list) -> str:
    """Short hash of every operation's output, in order, to spot a change in determinism."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode("utf-8") if isinstance(out, Exception) else out.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]
