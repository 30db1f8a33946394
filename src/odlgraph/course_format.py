"""Course file formats.

Two text formats are supported.  Both are UTF-8, and in both a line ends at
``\r\n``, ``\r`` or ``\n`` only (see :mod:`odlgraph.text`), so a U+2028
or a form feed inside a field stays in it.

``.odlc`` (tabular)
    The first non-blank line is the course title.
    Every following non-blank line describes one activity::

        {TAB * depth}[verb TAB] object text

    Leading tabs set the outline depth; depth may grow by at most one per
    line and the first activity sits at depth 0.  The optional verb is a
    single token (no spaces); a line without a verb column is just object
    text.  Tabs inside object text are not representable.

    Outline semantics: activities at the same depth with no shallower line
    between them are chained by ``sequence`` edges (empty label); a one-step
    indent hangs the line off its predecessor with an ``interest`` edge
    labeled "optional detour".  A line with no verb takes "read" at depth 0,
    or inherits the nearest earlier explicit verb at the same or shallower
    depth.

``.odlg`` (graph)
    One record per line, ``#`` starts a comment::

        NODE id|title|task|object[|ref][|duration]
        EDGE from|to|tag|label

    Fields are ``|``-separated; a literal ``|`` is escaped as ``\\|`` and a
    literal backslash as ``\\\\``.  The fifth NODE field is the word ``ref``
    for reference nodes, the sixth an expected duration in minutes (finite).

:func:`serialize` writes either format and refuses, with
:class:`UnsupportedFormat`, any value its reader would not give back.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import PurePath
from typing import Callable

from .errors import DanglingRef, ParseError, UnsupportedFormat
from .model import (
    EdgeTag,
    LearningActivity,
    LearningEnvironment,
    LearningObject,
    LearningTask,
    ObjectKind,
    PrecedentEdge,
    validate,
)
from .text import holds_line_end, lines

DETOUR_LABEL = "optional detour"
IMPLICIT_VERB = "read"


@dataclass(frozen=True)
class TabularLine:
    """One parsed content line of a tabular course."""

    depth: int
    task_verb: str  # empty when the line had no verb column
    object_text: str


@dataclass(frozen=True)
class CourseDocument:
    title: str
    lines: tuple[TabularLine, ...]


def read_document(text: str) -> CourseDocument:
    """Syntactic pass over tabular text: title plus depth/verb/object per line."""
    title: str | None = None
    content: list[TabularLine] = []
    prev_depth: int | None = None

    for line_no, raw in enumerate(lines(text), 1):
        if not raw.strip():
            continue
        if title is None:
            title = raw.strip()
            continue

        depth = len(raw) - len(raw.lstrip("\t"))
        rest = raw[depth:]
        if "\t" in rest:
            verb, obj = rest.split("\t", 1)
            if " " in verb:
                raise ParseError(line_no, f"space in verb column: {verb!r}")
        else:
            verb, obj = "", rest
        obj = obj.strip()
        if not obj:
            raise ParseError(line_no, "empty object text")
        if "\t" in obj:
            raise ParseError(line_no, "tab inside object text")

        if prev_depth is None:
            if depth != 0:
                raise ParseError(line_no, "first content line must be at depth 0")
        elif depth > prev_depth + 1:
            raise ParseError(line_no, f"indentation jump from {prev_depth} to {depth}")
        prev_depth = depth
        content.append(TabularLine(depth, verb, obj))

    if title is None:
        raise ParseError(0, "empty document")
    if not content:
        raise ParseError(0, "document has a title but no content lines")
    return CourseDocument(title, tuple(content))


def _resolve_verbs(content: tuple[TabularLine, ...]) -> list[str]:
    """Each line's verb: its own, else ``read`` at depth 0, else the closest
    earlier explicit verb at the same or a shallower depth, in one pass."""
    # The explicit verbs a later line can still inherit, by strictly rising depth:
    # a verb at depth d hides every earlier one at depth d or deeper.
    depths: list[int] = []
    verbs: list[str] = []
    resolved: list[str] = []
    for line in content:
        if line.task_verb:
            cut = bisect_left(depths, line.depth)
            del depths[cut:], verbs[cut:]
            depths.append(line.depth)
            verbs.append(line.task_verb)
            resolved.append(line.task_verb)
        elif line.depth == 0:
            resolved.append(IMPLICIT_VERB)
        else:
            above = bisect_right(depths, line.depth)
            resolved.append(verbs[above - 1] if above else IMPLICIT_VERB)
    return resolved


def _outline_edges(depths: list[int]) -> list[tuple[int, int, str]]:
    """Rule edges for an outline, as (source index, target index, kind)."""
    out: list[tuple[int, int, str]] = []
    last_at_depth: dict[int, int] = {}
    prev_depth: int | None = None
    for i, d in enumerate(depths):
        seq_src = last_at_depth.get(d)
        if seq_src is not None:
            out.append((seq_src, i, "sequence"))
        if prev_depth is not None and d == prev_depth + 1:
            out.append((i - 1, i, "detour"))
        last_at_depth = {k: v for k, v in last_at_depth.items() if k < d}
        last_at_depth[d] = i
        prev_depth = d
    return out


def parse_tabular(text: str) -> LearningEnvironment:
    """Build a learning environment from tabular text."""
    return _build_tabular(read_document(text))


def _build_tabular(doc: CourseDocument) -> LearningEnvironment:
    verbs = _resolve_verbs(doc.lines)

    objects: dict[str, LearningObject] = {}
    object_by_text: dict[str, str] = {}
    tasks: dict[str, LearningTask] = {}
    activities: dict[str, LearningActivity] = {}

    for i, line in enumerate(doc.lines):
        oid = object_by_text.get(line.object_text)
        if oid is None:
            oid = f"O{len(objects) + 1}"
            object_by_text[line.object_text] = oid
            objects[oid] = LearningObject(oid, line.object_text, ObjectKind.ATOMIC, line.object_text)
        verb = verbs[i]
        if verb not in tasks:
            tasks[verb] = LearningTask(verb, verb)
        aid = f"LA{i + 1}"
        activities[aid] = LearningActivity(aid, oid, verb)

    ids = list(activities)
    edges = tuple(
        PrecedentEdge(
            f"e{k + 1}",
            ids[src],
            ids[dst],
            DETOUR_LABEL if kind == "detour" else "",
            EdgeTag.INTEREST if kind == "detour" else EdgeTag.SEQUENCE,
        )
        for k, (src, dst, kind) in enumerate(_outline_edges([ln.depth for ln in doc.lines]))
    )
    return LearningEnvironment(activities, edges, objects, tasks)


def parse_course(text: str, path: str) -> tuple[LearningEnvironment, str]:
    """Parse a course file into ``(environment, title)``, reading a tabular document once.

    The suffix of ``path`` picks the format; without ``.odlg`` or ``.odlc``, text
    whose first record line is a ``NODE`` or ``EDGE`` record is a graph file.
    """
    suffix = PurePath(path).suffix.lower()
    if suffix not in (".odlg", ".odlc"):
        records = (line.strip() for line in lines(text))
        first = next((r for r in records if r and not r.startswith("#")), "")
        suffix = ".odlg" if first.startswith(("NODE ", "EDGE ")) else ".odlc"
    if suffix == ".odlg":
        return parse_graph_file(text), "Course"
    doc = read_document(text)
    return _build_tabular(doc), doc.title


# --- graph format -----------------------------------------------------------


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def _split_record(text: str) -> list[str]:
    fields: list[str] = []
    current: list[str] = []
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


def parse_graph_file(text: str) -> LearningEnvironment:
    """Build a learning environment from NODE/EDGE records."""
    node_lines: list[tuple[int, str]] = []
    edge_lines: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("NODE "):
            node_lines.append((line_no, line[len("NODE "):]))
        elif line.startswith("EDGE "):
            edge_lines.append((line_no, line[len("EDGE "):]))
        else:
            raise ParseError(line_no, f"unknown record: {line.split(None, 1)[0]!r}")

    if not node_lines:
        raise ParseError(0, "no NODE records")

    objects: dict[str, LearningObject] = {}
    object_key: dict[tuple[str, str], str] = {}
    tasks: dict[str, LearningTask] = {}
    activities: dict[str, LearningActivity] = {}

    for line_no, body in node_lines:
        fields = _split_record(body)
        if not 4 <= len(fields) <= 6:
            raise ParseError(line_no, f"NODE expects 4 to 6 fields, got {len(fields)}")
        aid, title, verb, obj_text = (f.strip() for f in fields[:4])
        if not aid:
            raise ParseError(line_no, "empty node id")
        if aid in activities:
            raise ParseError(line_no, f"duplicate node id {aid!r}")
        if not verb:
            raise ParseError(line_no, "empty task verb")
        if not obj_text:
            raise ParseError(line_no, "empty object reference")

        ref = False
        if len(fields) >= 5:
            flag = fields[4].strip()
            if flag == "ref":
                ref = True
            elif flag:
                raise ParseError(line_no, f"fifth NODE field must be 'ref' or empty, got {flag!r}")
        duration: float | None = None
        if len(fields) == 6 and fields[5].strip():
            try:
                duration = float(fields[5])
            except ValueError:
                raise ParseError(line_no, f"bad duration {fields[5]!r}") from None
            if not math.isfinite(duration):
                raise ParseError(line_no, f"bad duration {fields[5]!r}")
            if duration < 0:
                raise ParseError(line_no, "negative duration")

        key = (title, obj_text)
        oid = object_key.get(key)
        if oid is None:
            oid = f"O{len(objects) + 1}"
            object_key[key] = oid
            objects[oid] = LearningObject(oid, title, ObjectKind.ATOMIC, obj_text)
        if verb not in tasks:
            tasks[verb] = LearningTask(verb, verb)
        activities[aid] = LearningActivity(aid, oid, verb, ref, duration)

    edges: list[PrecedentEdge] = []
    for line_no, body in edge_lines:
        fields = _split_record(body)
        if len(fields) != 4:
            raise ParseError(line_no, f"EDGE expects 4 fields, got {len(fields)}")
        from_id, to_id, tag_text = fields[0].strip(), fields[1].strip(), fields[2].strip()
        label = fields[3]
        for endpoint in (from_id, to_id):
            if endpoint not in activities:
                raise DanglingRef(endpoint, line_no=line_no)
        try:
            tag = EdgeTag(tag_text)
        except ValueError:
            raise ParseError(line_no, f"unknown edge tag {tag_text!r}") from None
        edges.append(PrecedentEdge(f"e{len(edges) + 1}", from_id, to_id, label, tag))

    env = LearningEnvironment(activities, tuple(edges), objects, tasks)
    problems = validate(env)
    if problems:
        raise ParseError(0, f"parsed environment is inconsistent: {problems[0].message}")
    return env


# --- serialization ----------------------------------------------------------


def serialize(env: LearningEnvironment, format: str, title: str = "Course") -> str:
    """Render an environment as ``odlc`` or ``odlg`` text.

    Re-parsing the output yields an environment isomorphic to ``env`` (edge
    ids are renamed); only an environment without activities gives a file
    that does not parse.  A value the reader would not give back raises
    :class:`UnsupportedFormat`: a line end in any field, whitespace at an end
    the reader strips, a non-finite duration or a composite object.  The
    tabular format can only express outline-shaped environments; anything
    else raises :class:`UnsupportedFormat` too.
    """
    problems = validate(env)
    if problems:
        raise ValueError(f"cannot serialize an invalid environment: {problems[0].message}")
    if format == "odlg":
        return _serialize_graph(env, title)
    if format == "odlc":
        return _serialize_tabular(env, title)
    raise UnsupportedFormat(f"unknown format {format!r}")


def _check_field(what: str, text: str, strip: Callable[[str], str] | None = str.strip) -> None:
    """Refuse a field its reader would not give back: one with a line end, or one ``strip`` changes."""
    if holds_line_end(text) or (strip is not None and strip(text) != text):
        raise UnsupportedFormat(f"{what} {text!r} does not read back")


def _format_duration(minutes: float) -> str:
    """The short ``:g`` text when it reads back equal, else the exact ``repr``."""
    if not math.isfinite(minutes):
        raise UnsupportedFormat(f"duration {minutes!r} does not read back")
    short = f"{minutes:g}"
    return short if float(short) == minutes else repr(minutes)


def _serialize_graph(env: LearningEnvironment, title: str) -> str:
    _check_field("title", title, strip=None)
    out = [f"# {title}"]
    for act in env.activities.values():
        obj = env.objects[act.object_id]
        verb = env.tasks[act.task_id].verb
        if not act.id:
            raise UnsupportedFormat("empty activity id does not read back")
        if obj.kind is not ObjectKind.ATOMIC:
            raise UnsupportedFormat(f"object {obj.id!r} is not atomic")
        for what, text in (("activity id", act.id), ("object title", obj.title), ("verb", verb),
                           ("locator", obj.locator)):
            _check_field(what, text)
        duration = "" if act.expected_duration_minutes is None else _format_duration(act.expected_duration_minutes)
        fields = [act.id, obj.title, verb, obj.locator, "ref" if act.is_reference else "", duration]
        out.append("NODE " + "|".join(_escape(f) for f in fields))
    for edge in env.edges:
        # The label ends the record line, so only its trailing whitespace is stripped.
        _check_field("edge label", edge.label, strip=str.rstrip)
        fields = [edge.from_id, edge.to_id, edge.tag.value, edge.label]
        out.append("EDGE " + "|".join(_escape(f) for f in fields))
    return "\n".join(out) + "\n"


def _serialize_tabular(env: LearningEnvironment, title: str) -> str:
    acts = list(env.activities.values())
    index = {a.id: i for i, a in enumerate(acts)}

    incoming: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(acts))}
    for edge in env.edges:
        if edge.tag is EdgeTag.SEQUENCE and edge.label == "":
            kind = "sequence"
        elif edge.tag is EdgeTag.INTEREST and edge.label == DETOUR_LABEL:
            kind = "detour"
        else:
            raise UnsupportedFormat(f"edge {edge.edge_id!r} does not fit the outline rules")
        src, dst = index[edge.from_id], index[edge.to_id]
        if src >= dst:
            raise UnsupportedFormat(f"edge {edge.edge_id!r} points backwards in activity order")
        incoming[dst].append((src, kind))

    depths = [0] * len(acts)
    for i in range(1, len(acts)):
        if len(incoming[i]) != 1:
            raise UnsupportedFormat(f"activity {acts[i].id!r} needs exactly one incoming outline edge")
        src, kind = incoming[i][0]
        if kind == "detour":
            if src != i - 1:
                raise UnsupportedFormat(f"detour into {acts[i].id!r} does not come from its predecessor")
            depths[i] = depths[src] + 1
        else:
            depths[i] = depths[src]
    if acts and incoming[0]:
        raise UnsupportedFormat(f"first activity {acts[0].id!r} has incoming edges")

    expected = Counter(_outline_edges(depths))
    actual = Counter(
        (index[e.from_id], index[e.to_id], "detour" if e.tag is EdgeTag.INTEREST else "sequence")
        for e in env.edges
    )
    if expected != actual:
        raise UnsupportedFormat("edge bag does not match any outline")

    if not title:
        raise UnsupportedFormat("empty title does not read back")
    _check_field("title", title)
    out = [title]
    for act, depth in zip(acts, depths):
        if act.is_reference or act.expected_duration_minutes is not None:
            raise UnsupportedFormat(f"activity {act.id!r} carries graph-only attributes")
        obj = env.objects[act.object_id]
        if obj.title != obj.locator or obj.kind is not ObjectKind.ATOMIC:
            raise UnsupportedFormat(f"object {obj.id!r} is not plain text content")
        verb = env.tasks[act.task_id].verb
        if " " in verb or "\t" in verb:
            raise UnsupportedFormat(f"verb {verb!r} is not a single token")
        _check_field("verb", verb, strip=None)
        if "\t" in obj.title or not obj.title.strip():
            raise UnsupportedFormat(f"object text {obj.title!r} is not representable")
        _check_field("object text", obj.title)
        out.append("\t" * depth + verb + "\t" + obj.title)
    return "\n".join(out) + "\n"
