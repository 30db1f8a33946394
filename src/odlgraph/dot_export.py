"""Graphviz DOT rendering of courses, walks, coverage and clusters.

Output is plain ``digraph`` text: one node statement per activity, one edge
statement per bag entry (duplicates repeat), everything sorted so identical
inputs give byte-identical files.  Implicit reference-node adjacency is
hidden by default because drawing it buries the course structure; opt in
with ``include_reference_edges`` to get one dashed edge each way per
(reference, other) pair.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import StyleMismatch
from .model import EdgeTag
from .options import Overlay

if TYPE_CHECKING:
    from .clusters import Cluster
    from .model import LearningEnvironment
    from .sessions import LearningExperience

_STR = frozenset((str,))
_EDGE_TAG = frozenset((EdgeTag,))

CLUSTER_PALETTE = ("lightblue", "lightgreen", "lightyellow", "lightpink", "lightgray", "lightcyan")


class ExportStyle(NamedTuple):
    overlay: Overlay = Overlay.NONE
    include_reference_edges: bool = False


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    env: LearningEnvironment,
    style: ExportStyle = ExportStyle(),
    experience: LearningExperience | Sequence[str] | None = None,
    clusters: Iterable[Cluster] | None = None,
) -> str:
    """Render the course as DOT text with the requested overlay.

    ``visit_order`` numbers the nodes of ``experience`` (an experience or its
    activity ids) by first visit ("LA5 (1)") and fills them; ``coverage``
    only fills them; ``clusters`` colors cluster members (a node in several
    clusters takes its first cluster's color in sorted order).
    """
    overlay = Overlay(style.overlay)
    if overlay in (Overlay.VISIT_ORDER, Overlay.COVERAGE) and experience is None:
        raise StyleMismatch(f"overlay {overlay.value!r} needs an experience")
    if overlay is Overlay.CLUSTERS and clusters is None:
        raise StyleMismatch("overlay 'clusters' needs clusters")

    # Both walk overlays fill the visited nodes; only visit_order labels them with the ordinal.
    ordinals: dict[str, int] = {}
    if overlay in (Overlay.VISIT_ORDER, Overlay.COVERAGE):
        from .paths import visit_order

        ordinals = visit_order(experience)

    color_of: dict[str, str] = {}
    if overlay is Overlay.CLUSTERS:
        from .clusters import sort_clusters

        for idx, cluster in enumerate(sort_clusters(clusters)):
            color = CLUSTER_PALETTE[idx % len(CLUSTER_PALETTE)]
            for member in cluster.members:
                color_of.setdefault(member, color)

    ids = sorted(env.activities)
    node_quotes = [f'"{aid}"' for aid in ids] if _plain(ids) else list(map(_quote, ids))
    quoted = _Quoted(zip(ids, node_quotes))  # each id quoted once, for its node and every edge line
    lines = ["digraph course {", *[f"  {q} [label={q}];" for q in node_quotes]]
    if ordinals or color_of:
        line_of = dict(zip(ids, range(1, len(ids) + 1)))
        for aid in line_of.keys() & (ordinals.keys() | color_of.keys()):  # the nodes the overlay marks
            label = aid
            attrs = []
            if overlay is Overlay.VISIT_ORDER and aid in ordinals:
                label = f"{aid} ({ordinals[aid]})"
            attrs.append(f"label={_quote(label)}")
            if aid in ordinals:
                attrs.append("style=filled")
            if aid in color_of:
                attrs.append("style=filled")
                attrs.append(f"fillcolor={_quote(color_of[aid])}")
            lines[line_of[aid]] = f"  {quoted[aid]} [{', '.join(attrs)}];"

    if env.edges:
        _, from_ids, to_ids, labels, tags = zip(*env.edges)
        if not _EDGE_TAG.issuperset(map(type, tags)):
            list(map(attrgetter("value"), tags))  # the tag text a sort key once read: a tag without one raises
        # Edges that tie on these keys write the same line, so the tag and the edge id need not order them.
        from_ids, to_ids, labels = zip(*sorted(zip(from_ids, to_ids, labels)))
        if _plain(labels):
            label_attrs = [f' [label="{label}"]' if label else "" for label in labels]
        else:
            label_attrs = [f" [label={_quote(label)}]" if label else "" for label in labels]
        lines += [f"  {quoted[from_id]} -> {quoted[to_id]}{attr};"
                  for from_id, to_id, attr in zip(from_ids, to_ids, label_attrs)]

    if style.include_reference_edges:
        for ref in sorted(env.reference_ids):
            at = bisect_left(ids, ref)
            others = node_quotes[:at] + node_quotes[at + 1:] if at < len(ids) and ids[at] == ref else node_quotes
            q = quoted[ref]
            lines += [f"  {q} -> {other} [style=dashed];\n  {other} -> {q} [style=dashed];" for other in others]

    lines.append("}")
    return "\n".join(lines) + "\n"


class _Quoted(dict):
    """Quoted ids by id; an id missing, such as the endpoint of an edge that touches no activity, is quoted on use."""

    def __missing__(self, text: str) -> str:
        return _quote(text)


def _plain(texts) -> bool:
    """Whether every text is a ``str`` with no ``\\`` or ``"``, so that :func:`_quote` only wraps it in quotes."""
    if not _STR.issuperset(map(type, texts)):
        return False
    joined = "".join(texts)
    return "\\" not in joined and '"' not in joined
