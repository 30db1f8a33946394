"""Brute-force reference implementations the tests check the library against.

Everything here is deliberately naive (quadratic scans, subset enumeration,
matrix squaring) and shares no code with the package.
"""

from __future__ import annotations

import json
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


def step_judge(env):
    """``adjacent(u, v)`` read off the course's records: an edge record u -> v, or either end flagged ``is_reference``.

    An id the course lacks raises ``KeyError`` with that id, ``u`` before ``v``.
    """
    stored = {(edge.from_id, edge.to_id) for edge in env.edges}

    def adjacent(u: str, v: str) -> bool:
        ends = env.activities[u], env.activities[v]
        return ends[0].is_reference or ends[1].is_reference or (u, v) in stored

    return adjacent


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


def _no_field(text, strip=str.strip) -> bool:
    """Whether ``.odlg`` text would not give back the field ``text``: a line end in it, or whitespace ``strip``
    takes.  A value that is no text raises the ``TypeError`` of the first test it cannot take."""
    return "\r" in text or "\n" in text or (strip is not None and strip(text) != text)


def naive_violations(env) -> list[tuple]:
    """``validate``'s report as ``(code, subject, message)``, one record and one rule at a time: tasks, objects
    and activities in id order, then edges in bag order.  The objects may not contain one another in a cycle."""
    out = []
    for tid in sorted(env.tasks):
        if not env.tasks[tid].verb:
            out.append(("empty_verb", tid, f"task {tid!r} has an empty verb"))
    for oid in sorted(env.objects):
        obj = env.objects[oid]
        kind = obj.kind.value if type(obj.kind).__name__ == "ObjectKind" else None
        if kind == "atomic":
            if not obj.locator:
                out.append(("bad_object", oid, f"atomic object {oid!r} has no locator"))
            if obj.children:
                out.append(("bad_object", oid, f"atomic object {oid!r} has children"))
        elif kind == "composite":
            if not obj.children:
                out.append(("bad_object", oid, f"composite object {oid!r} has no children"))
            out += [("dangling_ref", oid, f"object {oid!r} contains missing object {child!r}")
                    for child in obj.children if child not in env.objects]
        else:
            out.append(("bad_object", oid, f"object {oid!r} has unknown kind {obj.kind!r}"))
    for aid in sorted(env.activities):
        act = env.activities[aid]
        if act.object_id not in env.objects:
            out.append(("dangling_ref", aid, f"activity {aid!r} references missing object {act.object_id!r}"))
        if act.task_id not in env.tasks:
            out.append(("dangling_ref", aid, f"activity {aid!r} references missing task {act.task_id!r}"))
        if act.expected_duration_minutes is not None and act.expected_duration_minutes < 0:
            out.append(("bad_duration", aid, f"activity {aid!r} has negative expected duration"))
    seen = set()
    for edge in env.edges:
        if edge.edge_id in seen:
            out.append(("duplicate_edge_id", edge.edge_id, f"edge id {edge.edge_id!r} used twice"))
        seen.add(edge.edge_id)
        for end in (edge.from_id, edge.to_id):
            if end not in env.activities:
                out.append(("dangling_ref", edge.edge_id, f"edge {edge.edge_id!r} touches missing activity {end!r}"))
        if type(edge.tag).__name__ != "EdgeTag":
            out.append(("bad_tag", edge.edge_id, f"edge {edge.edge_id!r} has unknown tag {edge.tag!r}"))
    return out


def naive_graph_refusal(env, title: str) -> str | None:
    """Why the ``.odlg`` text of a valid course would not read back, for the first field in record order that
    would not (NODE records, then EDGE records); None when every field would."""
    if _no_field(title, None):
        return f"title {title!r} does not read back"
    for act in env.activities.values():
        obj, verb = env.objects[act.object_id], env.tasks[act.task_id].verb
        if not act.id:
            return "empty activity id does not read back"
        if obj.kind.value != "atomic":
            return f"object {obj.id!r} is not atomic"
        for what, text in (("activity id", act.id), ("object title", obj.title), ("verb", verb),
                           ("locator", obj.locator)):
            if _no_field(text):
                return f"{what} {text!r} does not read back"
        minutes = act.expected_duration_minutes
        if minutes is not None and (minutes != minutes or abs(minutes) == float("inf")):
            return f"duration {minutes!r} does not read back"
    for edge in env.edges:
        if _no_field(edge.label, str.rstrip):  # the label ends its line: only its trailing whitespace goes
            return f"edge label {edge.label!r} does not read back"
    return None


_STORE_FIELDS = {
    "note": ("note_id", "node_id", "learner_id", "timestamp", "access", "body", "attachments"),
    "message": ("message_id", "sender_id", "recipients", "note_refs", "sent_at"),
}


def _store_field(name: str, value):
    """``(field value, None)`` for a JSON value a store field may hold, else ``(None, why it may not)``."""
    strings = type(value) is list and all(type(item) is str for item in value)
    if name in ("timestamp", "sent_at"):
        return (value, None) if type(value) is int else (None, "expected an integer")
    if name == "access":
        return (value, None) if value in ("private", "tutors", "all") else (None, f"{value!r} is not a valid NoteAccess")
    if name == "recipients" and value == "*":
        return value, None
    if name in ("attachments", "note_refs", "recipients"):
        if not strings:
            return None, "expected a list of strings"
        return (tuple(sorted(set(value))) if name == "recipients" else tuple(value)), None
    return (value, None) if type(value) is str else (None, "expected a string")


def naive_store(text: str, activities: Collection[str]) -> tuple:
    """A note store's text read one line and one field at a time against the course's ``activities`` ids.

    Returns ``("ok", notes, messages)`` with each record as the tuple of its field values (explicit recipients
    sorted and without repeats), or ``(error type name, message)`` for the first line refused.
    """
    notes, messages, message_lines = {}, {}, {}
    split = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, line in enumerate(split[:-1] if split[-1] == "" else split, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return "ParseError", f"line {number}: invalid JSON: {exc.msg} at column {exc.colno}"
        except RecursionError:
            return "ParseError", f"line {number}: invalid JSON: nested too deeply"
        except ValueError as exc:
            return "ParseError", f"line {number}: {exc}"
        if type(record) is not dict:
            return "ParseError", f"line {number}: a record must be a JSON object"
        kind = record.get("kind")
        if type(kind) is not str or kind not in _STORE_FIELDS:
            return "ParseError", f"line {number}: unknown record kind {kind!r}"
        values = []
        for name in _STORE_FIELDS[kind]:
            if name not in record:
                return "ParseError", f"line {number}: missing field {name!r}"
            value, why = _store_field(name, record[name])
            if why is not None:
                return "ParseError", f"line {number}: field {name!r}: {why}"
            values.append(value)
        stored = notes if kind == "note" else messages
        if values[0] in stored:
            return "DuplicateId", f"duplicate {kind} id: {values[0]!r} (line {number})"
        if kind == "note" and values[1] not in activities:
            return "DanglingRef", f"unresolved reference: {values[1]!r} (line {number})"
        if values[3 if kind == "note" else 4] < 0:
            time = "timestamp" if kind == "note" else "sent_at"
            return "ParseError", f"line {number}: {kind} {time} must be non-negative"
        stored[values[0]] = tuple(values)
        if kind == "message":
            message_lines[values[0]] = number
    for message_id, message in messages.items():
        for ref in message[3]:
            if ref not in notes:
                return "DanglingRef", f"unresolved reference: {ref!r} (line {message_lines[message_id]})"
    return "ok", list(notes.values()), list(messages.values())
