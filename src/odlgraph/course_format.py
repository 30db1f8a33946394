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

Each reader checks a course once, line by line, as it reads it: every
course it returns already passes :func:`odlgraph.model.validate`.
:func:`serialize` writes either format and refuses, with
:class:`UnsupportedFormat`, any value its reader would not give back.  The
graph writer checks each field as it writes it; the tabular writer keeps
no rule of its own and re-reads its text with the tabular reader.

:class:`TabularLine` and :class:`CourseDocument` are immutable named tuples:
each equals the plain tuple of its values and sorts like it, and a changed
copy comes from ``_replace``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import attrgetter, is_
from pathlib import PurePath
from typing import Callable, Iterable, NamedTuple

from .errors import DanglingRef, ParseError, UnsupportedFormat
from .model import (
    EdgeTag,
    LearningActivity,
    LearningEnvironment,
    LearningObject,
    LearningTask,
    ObjectKind,
    PrecedentEdge,
    isomorphic,
    validate,
)
from .text import holds_line_end, lines

DETOUR_LABEL = "optional detour"
IMPLICIT_VERB = "read"
_STR = frozenset((str,))


class TabularLine(NamedTuple):
    """One parsed content line of a tabular course."""

    depth: int
    task_verb: str  # empty when the line had no verb column
    object_text: str


class CourseDocument(NamedTuple):
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
    """Rule edges for an outline, as (source index, target index, kind).

    The depths start at 0 and rise by at most one per line, so every line
    after the first gets exactly one edge: a sequence edge from the last line
    at its depth, or a detour from the line above when it is one deeper.
    """
    out: list[tuple[int, int, str]] = []
    last: list[int] = []  # last[d]: the latest line at depth d with nothing shallower after it
    for i, d in enumerate(depths):
        if d < len(last):
            out.append((last[d], i, "sequence"))
        elif i:
            out.append((i - 1, i, "detour"))
        del last[d:]
        last.append(i)
    return out


def parse_tabular(text: str) -> LearningEnvironment:
    """Build a learning environment from tabular text."""
    return _build_tabular(read_document(text))


def _build_tabular(doc: CourseDocument) -> LearningEnvironment:
    ids = [f"LA{i}" for i in range(1, len(doc.lines) + 1)]
    nodes = (
        (aid, line.object_text, verb, line.object_text, False, None)
        for aid, line, verb in zip(ids, doc.lines, _resolve_verbs(doc.lines))
    )
    edges = (
        (ids[src], ids[dst], DETOUR_LABEL, EdgeTag.INTEREST) if kind == "detour"
        else (ids[src], ids[dst], "", EdgeTag.SEQUENCE)
        for src, dst, kind in _outline_edges([ln.depth for ln in doc.lines])
    )
    return _build_course(nodes, edges)


def _build_course(nodes: Iterable[tuple], edges: Iterable[tuple]) -> LearningEnvironment:
    """The environment of checked records; both readers name objects, tasks and edges only here.

    Nodes are ``(id, title, verb, locator, is_reference, duration)`` and
    edges ``(from, to, label, tag)``, in file order.  Objects are ``O<n>``,
    numbered by first ``(title, locator)``; each verb is its own task;
    edges are ``e<n>``, in order.
    """
    objects: dict[str, LearningObject] = {}
    object_ids: dict[tuple[str, str], str] = {}
    tasks: dict[str, LearningTask] = {}
    activities: dict[str, LearningActivity] = {}
    for aid, title, verb, locator, is_reference, duration in nodes:
        key = (title, locator)
        oid = object_ids.get(key)
        if oid is None:
            oid = f"O{len(objects) + 1}"
            object_ids[key] = oid
            objects[oid] = LearningObject(oid, title, ObjectKind.ATOMIC, locator)
        if verb not in tasks:
            tasks[verb] = LearningTask(verb, verb)
        activities[aid] = LearningActivity(aid, oid, verb, is_reference, duration)
    records = tuple(
        PrecedentEdge(f"e{k}", from_id, to_id, label, tag) for k, (from_id, to_id, label, tag) in enumerate(edges, 1)
    )
    return LearningEnvironment(activities, records, objects, tasks)


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
    """The fields of a record, escapes undone.

    A ``|`` separates fields unless an odd run of backslashes comes right
    before it; within a field ``\\\\`` stands for ``\\`` and ``\\|`` for ``|``,
    and any other backslash is itself.
    """
    if "\\" not in text:
        return text.split("|")  # no escapes: every ``|`` separates
    fields: list[str] = []
    escaped = False  # the last piece ended in an odd run of backslashes, so its ``|`` is text
    for piece in text.split("|"):
        if escaped:
            fields[-1] += "|" + piece
        else:
            fields.append(piece)
        escaped = (len(piece) - len(piece.rstrip("\\"))) % 2 == 1
    return [field.replace("\\\\", "\\").replace("\\|", "|") for field in fields]


# Tag text to member: a dict lookup, where ``EdgeTag(text)`` runs the enum's Python-level call.
_EDGE_TAGS = {tag.value: tag for tag in EdgeTag}


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

    ids: set[str] = set()
    nodes: list[tuple[str, str, str, str, bool, float | None]] = []
    for line_no, body in node_lines:
        fields = _split_record(body)
        if not 4 <= len(fields) <= 6:
            raise ParseError(line_no, f"NODE expects 4 to 6 fields, got {len(fields)}")
        aid, title, verb, obj_text = fields[0].strip(), fields[1].strip(), fields[2].strip(), fields[3].strip()
        if not aid:
            raise ParseError(line_no, "empty node id")
        if aid in ids:
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
        ids.add(aid)
        nodes.append((aid, title, verb, obj_text, ref, duration))

    edges: list[tuple[str, str, str, EdgeTag]] = []
    for line_no, body in edge_lines:
        fields = _split_record(body)
        if len(fields) != 4:
            raise ParseError(line_no, f"EDGE expects 4 fields, got {len(fields)}")
        from_id, to_id, tag_text = fields[0].strip(), fields[1].strip(), fields[2].strip()
        label = fields[3]
        if from_id not in ids:
            raise DanglingRef(from_id, line_no=line_no)
        if to_id not in ids:
            raise DanglingRef(to_id, line_no=line_no)
        tag = _EDGE_TAGS.get(tag_text)
        if tag is None:
            raise ParseError(line_no, f"unknown edge tag {tag_text!r}")
        edges.append((from_id, to_id, label, tag))

    return _build_course(nodes, edges)


# --- serialization ----------------------------------------------------------


def serialize(env: LearningEnvironment, format: str, title: str = "Course") -> str:
    """Render an environment as ``odlc`` or ``odlg`` text.

    Re-parsing the output yields an environment isomorphic to ``env`` (edge
    ids are renamed).  What the reader would not give back raises
    :class:`UnsupportedFormat`.  For ``odlg`` that is an environment without
    activities, a line end in any field, whitespace at an end the reader
    strips, a non-finite duration or a composite object.  ``odlc`` text is
    re-read and returned only when it gives back ``title`` and an environment
    isomorphic to ``env``: an outline of plain activities ``LA1..LAn`` in
    file order, each object's locator its title.
    """
    problems = validate(env)
    if problems:
        raise ValueError(f"cannot serialize an invalid environment: {problems[0].message}")
    if not env.activities:
        raise UnsupportedFormat("an environment without activities does not read back")
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
    records = _graph_columns(env)
    if records is None:
        records = _graph_records(env)
    return f"# {title}\n{records}"


def _text_column(column: tuple, strip: Callable[[str], str] = str.strip) -> tuple | list | None:
    """``column`` escaped for a record, or None when a field is not text its reader gives back.

    The tests run on the whole column: every field a ``str``, no line end in the joined text, and no field
    that ``strip`` changes.  Only a column holding a ``\\`` or a ``|`` is escaped.
    """
    if not _STR.issuperset(map(type, column)):
        return None
    joined = "".join(column)
    if holds_line_end(joined) or tuple(map(strip, column)) != column:
        return None
    return list(map(_escape, column)) if "\\" in joined or "|" in joined else column


def _graph_columns(env: LearningEnvironment) -> str | None:
    """The NODE and EDGE lines of ``env``, tested and written a column at a time.

    None when a column test refuses a field: :func:`_graph_records` then names the first record it refuses.
    ``env`` has activities and passes :func:`validate`, so each activity's object and task exist and each
    edge's tag is an :class:`EdgeTag`, which is the ``str`` of its value.
    """
    ids, object_ids, task_ids, is_reference, durations = zip(*env.activities.values())
    _, titles, kinds, locators, _ = zip(*map(env.objects.__getitem__, object_ids))
    verbs = tuple(map(attrgetter("verb"), map(env.tasks.__getitem__, task_ids)))
    _, from_ids, to_ids, labels, tags = tuple(zip(*env.edges)) or ((),) * 5
    if not all(ids) or not all(map(is_, kinds, repeat(ObjectKind.ATOMIC))):
        return None
    # The fields :func:`_graph_records` checks, and the edges' endpoints: activity ids, which pass the same tests.
    columns = [*map(_text_column, (ids, titles, verbs, locators, from_ids, to_ids)), _text_column(labels, str.rstrip)]
    if None in columns:
        return None
    ids, titles, verbs, locators, from_ids, to_ids, labels = columns
    flags = map(("", "ref").__getitem__, map(bool, is_reference))
    minutes = ["" if m is None else _format_duration(m) for m in durations]
    out = ["NODE " + "\nNODE ".join(map("|".join, zip(ids, titles, verbs, locators, flags, minutes)))]
    if labels:
        out.append("EDGE " + "\nEDGE ".join(map("|".join, zip(from_ids, to_ids, tags, labels))))
    return "\n".join(out) + "\n"


def _graph_records(env: LearningEnvironment) -> str:
    """The NODE and EDGE lines of ``env`` a record at a time, naming the first field its reader would not give back."""
    out = []
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
    """The outline text of ``env``, returned only when the tabular reader gives back ``title`` and ``env``."""
    acts = list(env.activities.values())
    index = {a.id: i for i, a in enumerate(acts)}
    into: dict[int, tuple[int, EdgeTag]] = {}  # a forward edge into each line that has one
    for edge in env.edges:
        src, dst = index[edge.from_id], index[edge.to_id]
        if src < dst:
            into[dst] = (src, edge.tag)
    # A detour goes one deeper than its source, a sequence edge stays level.
    depths = [0] * len(acts)
    for dst, (src, tag) in sorted(into.items()):
        depths[dst] = depths[src] + (tag is EdgeTag.INTEREST)

    out = [title]
    for act, depth in zip(acts, depths):
        out.append("\t" * depth + env.tasks[act.task_id].verb + "\t" + env.objects[act.object_id].title)
    text = "\n".join(out) + "\n"
    try:
        doc = read_document(text)
    except ParseError as err:
        raise UnsupportedFormat(f"the tabular text does not read back: {err}") from None
    if doc.title != title or not isomorphic(env, _build_tabular(doc)):
        raise UnsupportedFormat(
            "a tabular file holds only a one-line title and an outline of plain activities LA1..LAn in file"
            " order, with no reference flag, duration, separate locator or composite object"
        )
    return text
