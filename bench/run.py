"""Seeded end-to-end and per-layer benchmark of the odlgraph CLI and library.

    python3 bench/run.py [--workload analytics|mining|authoring|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src`` and is
not installed.  For each workload the benchmark generates its inputs from
the seed, runs the library job once through traced calls to keep results
and counts, checks every output, runs the CLI job once in order, and then
times shuffled passes until ``--seconds`` have gone by.  A pass runs the
workload's main CLI commands, each in a fresh interpreter, one at a time (a
closed loop with one client), the library job with tracing off, and
``odlgraph validate`` on the course (set-up).  A fixed calibration program
runs between every two samples, and each time is scaled to the machine
speed it measures (``harness.Run.measure``); the benchmark and every
process it starts run on one CPU.  With ``--trace 1`` every pass also runs
the side CLI commands and a traced library job; spans and counts are
written to ``.bench_work/traces/`` and the per-layer metrics replace the
end-to-end ones in the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("analytics", "mining", "authoring")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if not (SRC / "odlgraph" / "__init__.py").is_file():
        print(f"error: {SRC / 'odlgraph'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the calibration program then runs where the
    # library job and the CLI commands run, and its time tracks theirs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from harness import Run, report  # imports odlgraph, so only once src is on the path

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".bench_work"
    totals = {"attempted": 0, "failed": 0}
    merged: dict = {}
    for workload in workloads:
        work = scratch / f"{workload}-seed{args.seed}-pid{os.getpid()}"
        try:
            run = Run(workload, args.seed, work)
            run.reference()
            run.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        trace_path = run.write_traces(scratch / "traces") if args.trace else None
        report(run, metrics, trace_path)
        totals["attempted"] += run.attempted
        totals["failed"] += len(run.failures)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        merged.update({prefix + name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})
    correct = totals["failed"] == 0
    print(json.dumps({"correct": correct, **totals, "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
