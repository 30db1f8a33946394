"""Measuring one workload at one seed: reference run, checks, shuffled timed passes, metrics."""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import jobs
from spans import Tracer, plain_api

SRC = Path(__file__).resolve().parent.parent / "src"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 3
LIB_SAMPLES_PER_PASS = 4
MAIN_CLI_SAMPLES_PER_PASS = 2
CLI = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); from odlgraph.cli import run; run()",
       str(SRC)]
# A fixed program that does not import odlgraph: a fresh interpreter, like every CLI command, that splits,
# groups and sorts records, like the package does.  It runs before and after every timed sample, and the
# sample is scaled to the machine speed at which the program takes CALIBRATION_SECONDS.
CALIBRATION = [sys.executable, "-c", (
    "groups = {}\n"
    "for i in range(20000):\n"
    "    learner, stamp, activity = f'u{i % 997},{1000000 + 7 * i},A{i % 301}'.split(',')\n"
    "    groups.setdefault(learner, []).append((int(stamp), activity))\n"
    "for visits in groups.values():\n"
    "    visits.sort()\n")]
CALIBRATION_SECONDS = 0.08  # about its time in the fast spells of the machine the baseline was measured on
LAYERS = ("sessions", "paths", "clusters", "course_format", "model", "dot_export", "notes")
SUBCOMMANDS = ("validate", "parse", "sessions", "cycles", "erase", "coverage", "mine", "export",
               "notes_add", "notes_send", "notes_list", "notes_inbox")
# spans whose summed self time is reported as the per-layer metric <span>_s
LAYER_SPANS = [
    "sessions.parse_log", "sessions.sessionize", "sessions.build_experience",
    "paths.detect_cycles", "paths.classify_cycle", "paths.split_strategy_tactics", "paths.coverage",
    "clusters.session_visit_sets", "clusters.cooccurrence", "clusters.threshold", "clusters.maximal_cliques",
    "clusters.connected_components", "clusters.format_clusters", "clusters.read_clusters",
    "course_format.parse_graph_file", "course_format.parse_tabular", "course_format.read_document",
    "course_format.serialize", "model.validate", "model.build", "dot_export.export_dot",
    "notes.loads", "notes.dumps", "notes.attach_note", "notes.send_message", "notes.list_notes", "notes.inbox",
]
COUNTS = [
    "sessions.lines_in", "sessions.lines_skipped", "sessions.blocks_out", "sessions.sessions_out",
    "sessions.visits_out", "sessions.teleports", "paths.cycles_out", "paths.cycles_reference",
    "paths.cycles_content", "paths.erased_visits", "clusters.pair_increments", "clusters.pairs_before",
    "clusters.pairs_after", "clusters.cliques_out", "clusters.components_out", "course_format.bytes_in",
    "model.edges_built", "dot_export.lines_out", "notes.records_in",
]


def recorded_digest(workload: str, seed: int) -> str | None:
    """The outputs digest recorded for this workload and seed when the benchmark was added, if any."""
    if not BASELINE.is_file():
        return None
    return json.loads(BASELINE.read_text(encoding="utf-8"))["digests"].get(workload, {}).get(str(seed))


def run_cli(argv: list[str], cwd: Path, stdout: Path, program: list[str] = CLI) -> tuple[float, int, float]:
    """Run one CLI command (or another ``program``) to completion; return (wall seconds, exit code, max RSS
    in MB)."""
    with open(stdout, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(program + argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


class Run:
    """One workload at one seed: inputs, reference outputs, samples and failures."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.ops = jobs.workload_ops(workload, gen.generate(workload, seed, work))
        self.attempted = 0
        self.failures: list[tuple[str, int, str]] = []  # one entry per failed operation run
        self.samples: dict[str, list[float]] = {}
        self.pending: list[tuple[str, float]] = []  # wall seconds timed in the current sample, not yet scaled

    def fail(self, where: str, index: int, message: str) -> None:
        self.failures.append((where, index, message))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, seconds: float) -> None:
        """Wall seconds of the current sample; ``measure`` scales them when the sample ends."""
        self.pending.append((name, seconds))

    def library(self, api, tracer=None, skip_side: bool = False):
        """Set up and run the library job; return the library and its outputs (None for a skipped side call).

        Every job starts from an empty young generation of the garbage collector, so that the collections
        that fall inside it do not depend on what ran before it.
        """
        gc.collect()
        lib = jobs.Library(self.work, api)
        if tracer is None:
            lib.setup()
            outputs = lib.run(self.ops, skip_side=skip_side)
        else:
            with tracer.span("setup"):
                lib.setup()
            with tracer.span("job"):
                outputs = lib.run(self.ops, tracer.span)
        self.attempted += sum(out is not None for out in outputs)
        return lib, outputs

    def reference(self) -> None:
        """First library job, traced for its counts; its outputs are checked and become the reference."""
        self.tracer = Tracer(f"{self.workload}-{self.seed}-reference")
        lib, outputs = self.library(self.tracer.api(), self.tracer)
        self.outputs = outputs
        self.stores = [*lib.stores, lib.store_text]  # store text before op i is stores[i], after it stores[i + 1]
        problems: dict[int, list[str]] = {}
        for index, out in enumerate(outputs):
            if isinstance(out, Exception):
                problems.setdefault(index, []).append(f"{type(out).__name__}: {out}")
        for index, message in checks.library_outputs(lib, self.seed):
            problems.setdefault(index, []).append(message)
        for index, messages in sorted(problems.items()):
            self.fail("library", index, "; ".join(messages))
        self.digest = checks.digest(outputs)
        recorded = recorded_digest(self.workload, self.seed)
        if recorded is not None and recorded != self.digest:
            self.fail("digest", 0, f"outputs digest {self.digest} differs from {recorded} recorded for this seed")

    def setup_sample(self) -> None:
        elapsed, code, _ = run_cli(["validate", jobs.COURSE], self.work, self.work / "setup.out")
        self.attempted += 1
        if code != 0 or (self.work / "setup.out").read_text(encoding="utf-8") != "OK\n":
            self.fail("setup", 0, f"validate exited {code}")
        self.timed("setup_s", elapsed)

    def calibrate(self) -> float:
        elapsed, code, _ = run_cli([], self.work, self.work / "calibration.out", CALIBRATION)
        if code != 0:
            raise RuntimeError(f"the calibration program exited {code}")
        self.sample("calibration", elapsed)
        return elapsed

    def cli_sample(self, index: int, restore: bool) -> float:
        """Run CLI operation ``index``; with ``restore``, first put the note store back as it was before it."""
        op, store = self.ops[index], self.work / jobs.STORE
        if restore:
            store.write_text(self.stores[index], encoding="utf-8")
        stdout = self.work / f"op{index}.out"
        elapsed, code, rss = run_cli(op.argv, self.work, stdout)
        self.attempted += 1
        self.timed(f"cli.op{index}", elapsed)
        self.sample(f"rss.op{index}", rss)
        command = f"`odlgraph {' '.join(op.argv)}`"
        if code != (1 if op.refused else 0):
            self.fail("cli", index, f"{command} exited {code}")
        elif (self.work / (op.output or stdout.name)).read_text(encoding="utf-8") != self.outputs[index]:
            self.fail("cli", index, f"{command} output differs from the library")
        elif store.read_text(encoding="utf-8") != self.stores[index + 1]:
            self.fail("cli", index, f"{command} left a note store that differs from the library's")
        return elapsed

    def cli_job(self) -> None:
        """The CLI job in order, each command on the files the previous ones left."""
        shutil.copyfile(self.work / "notes.jsonl", self.work / jobs.STORE)
        times = [(self.cli_sample(i, restore=False), op.side) for i, op in enumerate(self.ops) if op.argv]
        self.cli_job_once = sum(seconds for seconds, side in times if not side)

    def lib_sample(self) -> float:
        """One untraced library job of the main operations; returns its wall seconds."""
        lib, outputs = self.library(plain_api(), skip_side=True)
        for index, out in enumerate(outputs):
            if out is None:
                continue
            if out != self.outputs[index] and not isinstance(self.outputs[index], Exception):
                self.fail("lib", index, "library output changed between runs")
            self.timed(f"lib.op{index}", lib.op_seconds[index])
        return sum(lib.op_seconds)

    def traced_sample(self) -> None:
        """A traced library job, right after an untraced one, so that the pair sees the same machine speed."""
        plain = self.lib_sample()
        tracer = Tracer(f"{self.workload}-{self.seed}-traced{len(self.traces) + 1}")
        lib, _ = self.library(tracer.api(), tracer)
        self.traces.append(tracer)
        traced = sum(lib.op_seconds)
        main_wall = sum(seconds for seconds, op in zip(lib.op_seconds, self.ops) if not op.side)
        self.sample("trace.overhead_share", (main_wall - plain) / plain)
        in_job = tracer.self_seconds(lambda name: name == "job")
        self.sample("trace.covered_share", sum(in_job.get(s, 0.0) for s in LAYER_SPANS) / traced)
        in_main = tracer.self_seconds(lambda name: name.startswith("op.") and not name.endswith(".side"))
        for name in LAYERS:
            self.sample(f"share.{name}", sum(v for k, v in in_main.items() if k.startswith(name + ".")) / main_wall)
        layer = tracer.self_seconds()
        for span in LAYER_SPANS:
            self.timed(f"{span}_s", layer.get(span, 0.0))

    def measure(self, seconds: float, trace: bool) -> None:
        """Run the CLI job once in order, then passes of every sample in a shuffled order until time is up.

        The machine this was built on runs the same code up to about twice
        as slowly in spells of seconds to minutes.  So the calibration program
        runs between every two samples, and each time a sample took is
        scaled by ``CALIBRATION_SECONDS`` over the mean of the calibration
        times just before and just after it; the metrics take medians of the
        scaled times.  This tracks the library job in this process only when
        this process and its children share one CPU (``run.py`` pins them).
        After ``MIN_PASSES`` the run stops as soon as ``seconds`` have gone
        by, even within a pass.
        """
        self.traces = []
        # the reference outputs and spans stay alive for the whole run; keep them out of every later collection
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        self.cli_job()
        self.pending = []  # the in-order job is checked, not timed
        # side commands feed only the per-layer cli.<subcommand>_s metrics, so only traced runs time them again
        units = [lambda i=i: self.cli_sample(i, restore=True)
                 for i, op in enumerate(self.ops) if op.argv and (trace or not op.side)
                 for _ in range(1 if op.side else MAIN_CLI_SAMPLES_PER_PASS)]
        units += [self.lib_sample] * LIB_SAMPLES_PER_PASS + [self.setup_sample] * SETUP_SAMPLES_PER_PASS
        units += [self.traced_sample] if trace else []
        order = random.Random(self.seed)
        self.passes = 0
        before = self.calibrate()
        while self.passes < MIN_PASSES or time.perf_counter() - start < seconds:
            self.passes += 1
            for unit in order.sample(units, len(units)):
                if self.passes > MIN_PASSES and time.perf_counter() - start >= seconds:
                    break
                unit()
                after = self.calibrate()
                self.scale_pending(before, after)
                before = after

    def scale_pending(self, before: float, after: float) -> None:
        """Move the sample's wall times into ``samples``, scaled by the calibration times around it."""
        scale = CALIBRATION_SECONDS / ((before + after) / 2)
        for name, wall in self.pending:
            self.sample(name, wall * scale)
            self.sample("wall." + name, wall)
        self.pending = []

    def typical(self, name: str, prefix: str = "") -> float:
        """The median of the scaled samples of ``name``; with ``prefix`` "wall.", of its unscaled ones."""
        return statistics.median(self.samples[prefix + name])

    def job_seconds(self, kind: str, names=None, prefix: str = "") -> float:
        """A job's time: each main operation's median scaled sample, summed.

        With ``names``, the operations of those subcommands instead, side calls included.
        """
        return sum(self.typical(f"{kind}.op{i}", prefix) for i, op in enumerate(self.ops)
                   if f"{kind}.op{i}" in self.samples and (op.name in names if names else not op.side))

    def shares(self) -> dict[str, float]:
        """Where the main work goes: each layer's share of the traced library job's main operations (traced
        runs only), and the share of ``cli_job_s`` that is interpreter start and course load, estimated as
        ``setup_s`` per main command."""
        commands = sum(1 for op in self.ops if op.argv and not op.side)
        shares = {"cli.start": commands * self.typical("setup_s") / self.job_seconds("cli")}
        shares.update({name: statistics.median(self.samples[f"share.{name}"])
                       for name in LAYERS if f"share.{name}" in self.samples})
        return shares

    def ratios(self) -> dict[str, float]:
        c = self.tracer.counts
        return {
            "paths.erased_share": c["paths.erased_visits"] / max(c["paths.split_visits"], 1),
            "clusters.visit_set_mean": c["clusters.visit_set_members"] / max(c["clusters.visit_sets"], 1),
            "clusters.kept_share": c["clusters.pairs_after"] / max(c["clusters.pairs_before"], 1),
            "clusters.clique_guard_nodes": c["clusters.clique_guard_nodes"],
            "clusters.clique_guard_cliques": c["clusters.clique_guard_cliques"],
        }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        rss = max(statistics.median(self.samples[f"rss.op{i}"]) for i, op in enumerate(self.ops)
                  if op.argv and not op.side)
        return {
            "cli_job_s": (self.job_seconds("cli"), "s"),
            "lib_job_s": (self.job_seconds("lib"), "s"),
            "setup_s": (self.typical("setup_s"), "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        c = self.tracer.counts
        metrics = {f"{span}_s": (self.typical(f"{span}_s"), "s") for span in LAYER_SPANS}
        metrics.update({name: (c[name], "count") for name in COUNTS})
        metrics["notes.refused"] = (c["notes.send_message.raised"], "count")
        metrics.update({name: (value, "count" if name.endswith("_mean") else "ratio")
                        for name, value in self.ratios().items()})
        metrics.update({f"cli.{name}_s": (self.job_seconds("cli", {name}), "s") for name in SUBCOMMANDS})
        for name in ("trace.overhead_share", "trace.covered_share"):
            metrics[name] = (statistics.median(self.samples[name]), "ratio")
        return metrics

    def write_traces(self, directory: Path) -> Path:
        path = directory / f"{self.workload}-seed{self.seed}.json"
        directory.mkdir(parents=True, exist_ok=True)
        runs = [self.tracer, *self.traces]
        path.write_text(json.dumps([t.as_dict() for t in runs]) + "\n", encoding="utf-8")
        return path


def report(run: Run, metrics: dict, trace_path: Path | None) -> None:
    """Human-readable summary; every line before the final JSON line."""
    failed = len(run.failures)
    print(f"== {run.workload}  seed {run.seed}  passes {run.passes}  operations {run.attempted}  "
          f"failed {failed}  failed_share {failed / run.attempted:.4f}  digest {run.digest}")
    if "paths.erased_share" not in metrics:
        for name in ("paths.erased_share", "clusters.kept_share", "clusters.clique_guard_nodes",
                     "clusters.clique_guard_cliques"):
            print(f"   {name:34s} {run.ratios()[name]:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"   {name:34s} {value:.6g} {unit}")
    print("   shares of the main work: " + "  ".join(f"{k} {v:.3f}" for k, v in run.shares().items()))
    print(f"   one CLI job in order took {run.cli_job_once:.4g} s; every time above is the sum of each "
          f"operation's median of {run.passes}+ samples, each scaled to the calibration speed")
    print(f"   medians of unscaled wall seconds: cli_job {run.job_seconds('cli', prefix='wall.'):.4g}  "
          f"lib_job {run.job_seconds('lib', prefix='wall.'):.4g}  setup {run.typical('setup_s', 'wall.'):.4g}  "
          f"calibration {run.typical('calibration'):.4g}")
    for where, index, message in run.failures[:20]:
        print(f"   FAILED {where} op {index}: {message}")
    if trace_path is not None:
        print(f"   spans and counts: {trace_path}")
