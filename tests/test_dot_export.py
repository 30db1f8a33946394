from __future__ import annotations

import pytest

from odlgraph.clusters import Cluster, ClusterKind, format_clusters, read_clusters
from odlgraph.course_format import parse_tabular
from odlgraph.dot_export import CLUSTER_PALETTE, ExportStyle, Overlay, export_dot
from odlgraph.errors import StyleMismatch
from odlgraph.model import EdgeTag, add_edge
from odlgraph.paths import visit_order

from conftest import assert_record_contract, quick_env, walk
from dotread import parse_dot


def test_export_style_keeps_its_fields_and_is_an_immutable_value():
    assert_record_contract(ExportStyle, (Overlay.CLUSTERS, True), ("overlay", "include_reference_edges"),
                           {"overlay": Overlay.NONE, "include_reference_edges": False})


def test_visit_order_overlay_numbers_nodes():
    env = quick_env(["LA5", "LA15", "LA3"], [("LA5", "LA15"), ("LA15", "LA3")])
    text = export_dot(env, ExportStyle(Overlay.VISIT_ORDER), walk(["LA5", "LA15", "LA3"]))
    nodes, _ = parse_dot(text)
    assert nodes["LA5"]["label"] == "LA5 (1)"
    assert nodes["LA15"]["label"] == "LA15 (2)"
    assert nodes["LA3"]["label"] == "LA3 (3)"
    assert all(n["style"] == "filled" for n in nodes.values())


def test_plain_export_counts_match_course(mergesort_text):
    env = parse_tabular(mergesort_text)
    nodes, edges = parse_dot(export_dot(env))
    assert len(nodes) == len(env.activities)
    assert len(edges) == len(env.edges)


def test_visit_order_without_experience_is_a_style_mismatch():
    env = quick_env(["LA5"])
    with pytest.raises(StyleMismatch):
        export_dot(env, ExportStyle(Overlay.VISIT_ORDER))
    with pytest.raises(StyleMismatch):
        export_dot(env, ExportStyle(Overlay.CLUSTERS))


def test_coverage_overlay_fills_only_visited():
    env = quick_env(["a", "b", "c"])
    nodes, _ = parse_dot(export_dot(env, ExportStyle(Overlay.COVERAGE), walk(["a", "b"])))
    assert nodes["a"].get("style") == "filled"
    assert nodes["b"].get("style") == "filled"
    assert "style" not in nodes["c"]


def test_cluster_overlay_colors_members_deterministically():
    env = quick_env(["a", "b", "c", "d"])
    clusters = [
        Cluster(frozenset({"a", "b"}), ClusterKind.CLIQUE, 2),
        Cluster(frozenset({"c", "d"}), ClusterKind.CLIQUE, 1),
    ]
    nodes, _ = parse_dot(export_dot(env, ExportStyle(Overlay.CLUSTERS), clusters=clusters))
    assert nodes["a"]["fillcolor"] == nodes["b"]["fillcolor"]
    assert nodes["c"]["fillcolor"] == nodes["d"]["fillcolor"]
    assert nodes["a"]["fillcolor"] != nodes["c"]["fillcolor"]


def test_a_node_takes_the_color_of_its_first_cluster_in_file_order():
    env = quick_env(["a", "b", "c", "d", "e"])
    clusters = [
        Cluster(frozenset({"d", "e"}), ClusterKind.CLIQUE, 1),
        Cluster(frozenset({"b", "c"}), ClusterKind.COMPONENT, 4),
        Cluster(frozenset({"c", "d"}), ClusterKind.CLIQUE, 2),
        Cluster(frozenset({"a", "e"}), ClusterKind.CLIQUE, 3),
    ]
    nodes, _ = parse_dot(export_dot(env, ExportStyle(Overlay.CLUSTERS), clusters=clusters))
    expected: dict[str, str] = {}
    for idx, cluster in enumerate(read_clusters(format_clusters(clusters))):
        for member in cluster.members:
            expected.setdefault(member, CLUSTER_PALETTE[idx])
    assert {aid: node["fillcolor"] for aid, node in nodes.items()} == expected


def test_duplicate_bag_entries_emit_duplicate_dot_edges():
    env = quick_env(["a", "b"])
    env = add_edge(env, "a", "b", "twice", EdgeTag.INTEREST)
    env = add_edge(env, "a", "b", "twice", EdgeTag.INTEREST)
    _, edges = parse_dot(export_dot(env))
    assert edges == [("a", "b", {"label": "twice"}), ("a", "b", {"label": "twice"})]


def test_reference_edges_hidden_by_default_and_counted_when_shown():
    env = quick_env(["r1", "r2", "x", "y"], reference={"r1", "r2"})
    _, edges = parse_dot(export_dot(env))
    assert edges == []
    _, edges = parse_dot(export_dot(env, ExportStyle(include_reference_edges=True)))
    n, r = len(env.activities), 2
    assert len(edges) == 2 * r * (n - 1)
    assert all(attrs.get("style") == "dashed" for _, _, attrs in edges)


def test_output_is_deterministic(mergesort_text):
    env = parse_tabular(mergesort_text)
    style = ExportStyle(Overlay.VISIT_ORDER, include_reference_edges=True)
    experience = walk(["LA1", "LA2", "LA1", "LA8"])
    assert export_dot(env, style, experience) == export_dot(env, style, experience)


def test_quoting_of_awkward_identifiers_survives_reparse():
    env = quick_env(['we"ird', "back\\slash"])
    env = add_edge(env, 'we"ird', "back\\slash", 'say "hi" \\ bye', EdgeTag.UNTAGGED)
    nodes, edges = parse_dot(export_dot(env))
    assert set(nodes) == {'we"ird', "back\\slash"}
    assert edges[0][2]["label"] == 'say "hi" \\ bye'


def test_ordinals_in_labels_equal_visit_order_map(mergesort_text):
    env = parse_tabular(mergesort_text)
    ids = ["LA1", "LA2", "LA8", "LA2", "LA11"]
    experience = walk(ids)
    nodes, _ = parse_dot(export_dot(env, ExportStyle(Overlay.VISIT_ORDER), experience))
    expected = visit_order(experience)
    for aid, attrs in nodes.items():
        if aid in expected:
            assert attrs["label"] == f"{aid} ({expected[aid]})"
        else:
            assert attrs["label"] == aid
