"""Graphviz DOT rendering of courses, walks, coverage and clusters.

Output is plain ``digraph`` text: one node statement per activity, one edge
statement per bag entry (duplicates repeat), everything sorted so identical
inputs give byte-identical files.  Implicit reference-node adjacency is
hidden by default because drawing it buries the course structure; opt in
with ``include_reference_edges`` to get one dashed edge each way per
(reference, other) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import StyleMismatch
from .options import Overlay

if TYPE_CHECKING:
    from .clusters import Cluster
    from .model import LearningEnvironment
    from .sessions import LearningExperience

CLUSTER_PALETTE = ("lightblue", "lightgreen", "lightyellow", "lightpink", "lightgray", "lightcyan")


@dataclass(frozen=True)
class ExportStyle:
    overlay: Overlay = Overlay.NONE
    include_reference_edges: bool = False


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    env: LearningEnvironment,
    style: ExportStyle = ExportStyle(),
    experience: LearningExperience | None = None,
    clusters: Iterable[Cluster] | None = None,
) -> str:
    """Render the course as DOT text with the requested overlay.

    ``visit_order`` numbers visited nodes by first visit ("LA5 (1)") and
    fills them; ``coverage`` only fills visited nodes; ``clusters`` colors
    cluster members (a node in several clusters takes its first cluster's
    color in sorted order).
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

    lines = ["digraph course {"]
    for aid in sorted(env.activities):
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
        lines.append(f"  {_quote(aid)} [{', '.join(attrs)}];")

    for edge in sorted(env.edges, key=lambda e: (e.from_id, e.to_id, e.label, e.tag.value, e.edge_id)):
        attr = f" [label={_quote(edge.label)}]" if edge.label else ""
        lines.append(f"  {_quote(edge.from_id)} -> {_quote(edge.to_id)}{attr};")

    if style.include_reference_edges:
        everyone = sorted(env.activities)
        for ref in sorted(env.reference_ids):
            for other in everyone:
                if other == ref:
                    continue
                lines.append(f"  {_quote(ref)} -> {_quote(other)} [style=dashed];")
                lines.append(f"  {_quote(other)} -> {_quote(ref)} [style=dashed];")

    lines.append("}")
    return "\n".join(lines) + "\n"
