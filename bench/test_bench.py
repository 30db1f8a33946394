"""Self-test of the benchmark: seeded inputs repeat exactly, and planted wrong outputs are caught.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
from harness import Run  # noqa: E402
import jobs  # noqa: E402
from spans import Tracer, plain_api  # noqa: E402
from odlgraph import Cluster, ClusterKind, CoOccurrenceGraph  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"


@pytest.fixture(scope="module")
def run():
    shutil.rmtree(WORK, ignore_errors=True)
    r = Run("mining", 7, WORK / "mining")
    r.reference()
    yield r
    shutil.rmtree(WORK, ignore_errors=True)


def _lib(run):
    """A fresh checked library job on the run's inputs."""
    lib, outputs = run.library(plain_api())
    assert outputs == run.outputs
    return lib


@pytest.mark.parametrize("workload", sorted(gen.PROFILES))
def test_generator_is_byte_identical_per_seed(workload):
    paths = [WORK / f"{workload}-{tag}" for tag in ("a", "b", "other")]
    gen.generate(workload, 11, paths[0])
    gen.generate(workload, 11, paths[1])
    gen.generate(workload, 12, paths[2])
    names = sorted(p.name for p in paths[0].iterdir())
    assert names == sorted(p.name for p in paths[1].iterdir())
    for name in names:
        assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes(), name
    assert any((paths[0] / n).read_bytes() != (paths[2] / n).read_bytes() for n in names)


def test_clean_outputs_pass(run):
    assert run.failures == []
    assert checks.library_outputs(_lib(run), run.seed) == []


def test_dropped_clique_fails(run):
    mine = next(m for m in _lib(run).mines if m.kind is ClusterKind.CLIQUE)
    assert checks.clusters_match_networkx(dataclasses.replace(mine, found=mine.found[1:]))


def test_wrong_support_fails(run):
    mine = next(m for m in _lib(run).mines if m.kind is ClusterKind.CLIQUE)
    first = mine.found[0]
    planted = [Cluster(first.members, first.kind, first.support + 1), *mine.found[1:]]
    assert checks.clusters_match_networkx(dataclasses.replace(mine, found=planted))


def test_merged_component_fails(run):
    mine = next(m for m in _lib(run).mines if m.kind is ClusterKind.COMPONENT)
    a, b = mine.found[:2]
    planted = [Cluster(a.members | b.members, a.kind, min(a.support, b.support)), *mine.found[2:]]
    assert checks.clusters_match_networkx(dataclasses.replace(mine, found=planted))


def test_wrong_pair_weights_fail(run):
    mine = _lib(run).mines[0]
    bumped = CoOccurrenceGraph(mine.graph.nodes, {p: w + 1 for p, w in mine.graph.weights.items()})
    assert checks.pair_weights_naive(dataclasses.replace(mine, graph=bumped), run.seed)


def test_reordered_strategy_path_fails(run):
    splits = next(iter(_lib(run).splits.values()))
    op, learner, ids, path, detours = next(s for s in splits if len(s[3]) > 2)
    reordered = [path[1], path[0], *path[2:]]
    assert checks.erase_conserves([(op, learner, ids, reordered, detours)])
    assert checks.erase_conserves([(op, learner, ids, path[1:], detours)])


def test_missing_dot_edge_fails(run):
    op, env, with_refs, text = _lib(run).dots[0]
    lines = text.splitlines()
    dropped = next(i for i, line in enumerate(lines) if " -> " in line)
    assert checks.dot_counts(op, env, with_refs, "\n".join(lines[:dropped] + lines[dropped + 1:]) + "\n")


def test_broken_round_trip_fails(run):
    lib = _lib(run)
    op, outline, text = lib.round_trip
    lib.round_trip = [op, outline, "".join(line for line in text.splitlines(keepends=True)[:-1])]
    assert any("round trip" in message for _, message in checks.library_outputs(lib, run.seed))


def test_cli_output_differing_from_library_fails(run):
    index = next(i for i, op in enumerate(run.ops) if op.name == "erase")
    planted = run.outputs[index].splitlines(keepends=True)
    run.outputs[index] = "".join(planted[1:])
    try:
        run.cli_sample(index, restore=True)
    finally:
        run.outputs[index] = "".join(planted)
    assert [f[:2] for f in run.failures] == [("cli", index)]
    run.failures.clear()
    run.cli_sample(index, restore=True)
    assert run.failures == []


def test_unrestored_note_store_fails(run):
    index = next(i for i, op in enumerate(run.ops) if op.name == "notes_add")
    run.cli_sample(index, restore=True)
    run.cli_sample(index, restore=False)  # adds a second note on top of the first
    assert [f[:2] for f in run.failures] == [("cli", index)]
    run.failures.clear()


@pytest.mark.parametrize("workload", sorted(gen.PROFILES))
def test_side_calls_stay_out_of_job_times(workload):
    ops = jobs.workload_ops(workload, gen.generate(workload, 11, WORK / f"{workload}-ops"))
    assert any(op.side for op in ops) and any(not op.side for op in ops)
    run = Run.__new__(Run)
    run.ops = ops
    run.samples = {f"cli.op{i}": [100.0 if op.side else 1.0] for i, op in enumerate(ops) if op.argv}
    assert run.job_seconds("cli") == sum(1 for op in ops if op.argv and not op.side)
    assert run.job_seconds("cli", {op.name for op in ops if op.side}) >= 100


def test_samples_are_scaled_by_the_calibration_around_them():
    run = Run.__new__(Run)
    run.samples, run.pending = {}, [("cli.op1", 0.5), ("lib.op1", 0.2)]
    run.scale_pending(0.1, 0.06)  # the machine ran at CALIBRATION_SECONDS / 0.08 of the calibration speed
    factor = harness.CALIBRATION_SECONDS / 0.08
    assert run.samples["cli.op1"] == [pytest.approx(0.5 * factor)]
    assert run.samples["lib.op1"] == [pytest.approx(0.2 * factor)]
    assert run.samples["wall.cli.op1"] == [0.5] and run.pending == []


def test_self_seconds_within_counts_only_inside_spans():
    tracer = Tracer("t")
    tracer.spans = [["job", 0.0, 10.0, None], ["op.a", 0.0, 4.0, 0], ["f", 1.0, 2.0, 1],
                    ["op.b.side", 4.0, 9.0, 0], ["f", 5.0, 8.0, 3]]
    assert tracer.self_seconds() == {"job": 1.0, "op.a": 3.0, "f": 4.0, "op.b.side": 2.0}
    assert tracer.self_seconds(lambda n: n == "op.a") == {"op.a": 3.0, "f": 1.0}
