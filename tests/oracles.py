"""Brute-force reference implementations the tests check the library against.

Everything here is deliberately naive (quadratic scans, subset enumeration,
matrix squaring) and shares no code with the package.
"""

from __future__ import annotations

from collections.abc import Collection
from itertools import combinations


def repeated_visit_cycles(ids: list[str]) -> list[tuple[str, int, int, tuple[str, ...]]]:
    """All (anchor, i, j, interior) with ids[i] == ids[j] and no anchor between."""
    out = []
    for j in range(len(ids)):
        for i in range(j):
            if ids[i] == ids[j] and ids[j] not in ids[i + 1:j]:
                out.append((ids[j], i, j, tuple(ids[i + 1:j])))
    return sorted(out, key=lambda c: c[2])


def rewrite_erase(ids: list[str]) -> list[str]:
    """Loop erasure by repeated excision of the earliest closed loop."""
    out = list(ids)
    while True:
        first_repeat = None
        for j in range(len(out)):
            if out[j] in out[:j]:
                first_repeat = j
                break
        if first_repeat is None:
            return out
        anchor = out[:first_repeat].index(out[first_repeat])
        del out[anchor + 1: first_repeat + 1]


def first_visit_ordinals(ids: list[str]) -> dict[str, int]:
    """Ordinal = 1 + number of distinct ids whose first visit comes earlier."""
    out = {}
    for node in set(ids):
        first = ids.index(node)
        out[node] = 1 + len({x for x in ids[:first]})
    return out


def pair_counts(visit_sets: list[frozenset[str]]) -> dict[tuple[str, str], int]:
    """Co-occurrence counts by checking every node pair against every set."""
    nodes = sorted(set().union(*visit_sets)) if visit_sets else []
    counts = {}
    for a, b in combinations(nodes, 2):
        n = sum(1 for s in visit_sets if a in s and b in s)
        if n:
            counts[(a, b)] = n
    return counts


def closure_components(nodes: list[str], edges: set[tuple[str, str]]) -> list[frozenset[str]]:
    """Components via transitive closure by repeated squaring of the relation."""
    order = sorted(nodes)
    index = {n: i for i, n in enumerate(order)}
    n = len(order)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
        reach[index[b]][index[a]] = True
    while True:
        squared = [
            [reach[i][j] or any(reach[i][k] and reach[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if squared == reach:
            break
        reach = squared
    seen: set[str] = set()
    components = []
    touched = {a for e in edges for a in e}
    for i, node in enumerate(order):
        if node in seen or node not in touched:
            continue
        members = frozenset(order[j] for j in range(n) if reach[i][j])
        seen.update(members)
        components.append(members)
    return components


def subset_cliques(nodes: list[str], edges: set[tuple[str, str]]) -> list[frozenset[str]]:
    """Maximal cliques (size >= 2) by checking every vertex subset."""
    undirected = {frozenset(e) for e in edges}

    def is_clique(subset: tuple[str, ...]) -> bool:
        return all(frozenset((a, b)) in undirected for a, b in combinations(subset, 2))

    cliques = [
        frozenset(subset)
        for size in range(2, len(nodes) + 1)
        for subset in combinations(sorted(nodes), size)
        if is_clique(subset)
    ]
    maximal = [
        c for c in cliques if not any(c < other for other in cliques)
    ]
    return sorted(maximal, key=lambda c: tuple(sorted(c)))


def min_pair_weight(weights: dict[tuple[str, str], int], members: frozenset[str]) -> int:
    """Smallest weight among the member pairs that are edges, by looking up every member pair."""
    return min(weights[pair] for pair in combinations(sorted(members), 2) if pair in weights)


def outline_edges(depths: list[int]) -> list[tuple[int, int, str]]:
    """Outline rule edges by quadratic scanning of line pairs.

    Sequence: same depth with nothing shallower between.  Detour: an
    immediate one-step indent.
    """
    out = []
    n = len(depths)
    for j in range(n):
        for i in range(j):
            if depths[i] == depths[j] and all(depths[k] > depths[j] for k in range(i + 1, j)):
                out.append((i, j, "sequence"))
    for j in range(1, n):
        if depths[j] == depths[j - 1] + 1:
            out.append((j - 1, j, "detour"))
    return sorted(out)


def depth_map_outline_edges(depths: list[int]) -> list[tuple[int, int, str]]:
    """Outline rule edges in line order, keeping a map from depth to the latest
    line there and rebuilding it without the deeper entries at every line."""
    out = []
    last_at_depth: dict[int, int] = {}
    for i, d in enumerate(depths):
        if d in last_at_depth:
            out.append((last_at_depth[d], i, "sequence"))
        if i and d == depths[i - 1] + 1:
            out.append((i - 1, i, "detour"))
        last_at_depth = {k: v for k, v in last_at_depth.items() if k < d}
        last_at_depth[d] = i
    return out


def split_record(text: str) -> list[str]:
    """``.odlg`` record fields by walking the text one character at a time.

    A backslash before a backslash or a ``|`` makes that character literal;
    any other backslash is itself; an unescaped ``|`` ends a field.
    """
    fields = []
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] in "\\|":
            current.append(text[i + 1])
            i += 2
        elif ch == "|":
            fields.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    fields.append("".join(current))
    return fields


def inherited_verbs(rows: list[tuple[int, str]]) -> list[str]:
    """Tabular verbs by scanning back from each (depth, verb) row.

    A row keeps its own verb; a verbless row at depth 0 reads; a deeper one
    takes the closest earlier explicit verb at the same or a shallower depth,
    else reads.
    """
    out = []
    for i, (depth, verb) in enumerate(rows):
        if not verb and depth > 0:
            verb = next((v for d, v in reversed(rows[:i]) if v and d <= depth), "")
        out.append(verb or "read")
    return out

def has_directed_cycle(nodes: list[str], edges: set[tuple[str, str]]) -> bool:
    """Cycle check via transitive closure by repeated squaring."""
    order = sorted(nodes)
    index = {n: i for i, n in enumerate(order)}
    n = len(order)
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    while True:
        squared = [
            [reach[i][j] or any(reach[i][k] and reach[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if squared == reach:
            break
        reach = squared
    return any(reach[i][i] for i in range(n))


def gap_sessions(timestamps: list[int], timeout: int) -> list[list[int]]:
    """Split one learner's sorted timestamps at gaps exceeding the timeout."""
    runs: list[list[int]] = []
    for ts in timestamps:
        if runs and ts - runs[-1][-1] <= timeout:
            runs[-1].append(ts)
        else:
            runs.append([ts])
    return runs


def pairwise_experience(ids: list[str], adjacent, strict: bool) -> tuple:
    """A walk judged one step at a time by ``adjacent(u, v)``, which may raise for an unknown id.

    Returns ``("ok", teleport flags)``; in strict mode the first unconnected
    step instead returns ``("non_adjacent", index, u, v)``.
    """
    flags = []
    for i in range(len(ids)):
        flag = i > 0 and not adjacent(ids[i - 1], ids[i])
        if flag and strict:
            return ("non_adjacent", i, ids[i - 1], ids[i])
        flags.append(flag)
    return ("ok", flags)


def naive_parse_log(lines: list[str], activities: Collection[str], skip_unknown: bool) -> tuple:
    """Log lines read field by field against the course's ``activities`` ids.

    Returns ``("ok", rows, skipped)`` with one ``(learner, timestamp, activity,
    note or None)`` row per kept line and the ``(line number, id)`` of each
    line dropped as unknown, or, for the first bad line, ``("parse", line
    number)`` or ``("dangling", line number, id)``.
    """
    rows, skipped = [], []
    header_allowed = True
    for number, raw in enumerate(lines, start=1):
        if raw.strip() == "":
            continue
        parts = [part.strip() for part in raw.split(",")]
        if header_allowed and parts[0].lower() == "learner_id":
            continue
        header_allowed = False
        if len(parts) not in (3, 4) or parts[0] == "":
            return ("parse", number)
        try:
            stamp = int(parts[1])
        except ValueError:
            return ("parse", number)
        if stamp < 0:
            return ("parse", number)
        if parts[2] not in activities:
            if not skip_unknown:
                return ("dangling", number, parts[2])
            skipped.append((number, parts[2]))
            continue
        note = parts[3] if len(parts) == 4 and parts[3] != "" else None
        rows.append((parts[0], stamp, parts[2], note))
    return ("ok", rows, skipped)


def naive_graph_text(env, title: str) -> str:
    """The ``.odlg`` text of a course whose every field reads back, one record and one character at a time."""

    def field(text: str) -> str:
        return "".join("\\" + ch if ch in "\\|" else ch for ch in text)

    def minutes(value) -> str:
        if value is None:
            return ""
        short = "%g" % value
        return short if float(short) == value else repr(value)

    out = ["# " + title]
    for act in env.activities.values():
        obj = env.objects[act.object_id]
        fields = [act.id, obj.title, env.tasks[act.task_id].verb, obj.locator, "ref" if act.is_reference else "",
                  minutes(act.expected_duration_minutes)]
        out.append("NODE " + "|".join(field(f) for f in fields))
    for edge in env.edges:
        out.append("EDGE " + "|".join(field(f) for f in (edge.from_id, edge.to_id, edge.tag.value, edge.label)))
    return "".join(line + "\n" for line in out)


def naive_dot(env, reference_edges: bool = False, visited: list[str] | None = None, numbered: bool = False) -> str:
    """DOT text of a course, one statement at a time: nodes by id, edges by (from, to, label, tag, id).

    ``visited`` fills the nodes of a walk; ``numbered`` also labels each with its first-visit ordinal.
    """

    def quote(text: str) -> str:
        return '"' + "".join("\\" + ch if ch in '\\"' else ch for ch in text) + '"'

    ordinals = first_visit_ordinals(visited or [])
    out = ["digraph course {"]
    for aid in sorted(env.activities):
        label = f"{aid} ({ordinals[aid]})" if numbered and aid in ordinals else aid
        filled = ", style=filled" if aid in ordinals else ""
        out.append(f"  {quote(aid)} [label={quote(label)}{filled}];")
    for edge in sorted(env.edges, key=lambda e: (e.from_id, e.to_id, e.label, e.tag.value, e.edge_id)):
        label = f" [label={quote(edge.label)}]" if edge.label else ""
        out.append(f"  {quote(edge.from_id)} -> {quote(edge.to_id)}{label};")
    if reference_edges:
        for ref in sorted(a.id for a in env.activities.values() if a.is_reference):
            for other in sorted(env.activities):
                if other != ref:
                    out.append(f"  {quote(ref)} -> {quote(other)} [style=dashed];")
                    out.append(f"  {quote(other)} -> {quote(ref)} [style=dashed];")
    out.append("}")
    return "".join(line + "\n" for line in out)
