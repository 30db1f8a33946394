"""In-memory spans and counts around the benchmark's calls into ``odlgraph``.

The benchmark reaches the library only through a namespace of public
functions.  :func:`plain_api` returns the functions themselves (nothing is
recorded, nothing costs extra); :meth:`Tracer.api` returns the same names
wrapped so that each call records a span (name, start, end, parent, run id)
and the counts of what went in and came out.  Spans stay in memory until
the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import odlgraph
from odlgraph import clusters, notes


# (span name, public function, count hook(counts, args, kwargs, result) or None)
def _calls():
    guard = inspect.signature(clusters.maximal_cliques).parameters["max_nodes_guard"].default

    def parse_log(c, a, kw, out):
        c["sessions.lines_in"] += len(a[0])
        c["sessions.lines_skipped"] += len(kw.get("skipped") or ())
        c["sessions.blocks_out"] += len(out)

    def build_experience(c, a, kw, out):
        c["sessions.visits_out"] += len(out.visits)
        c["sessions.teleports"] += sum(v.teleport for v in out.visits)

    def classify(c, a, kw, out):
        c["paths.cycles_" + ("reference" if out is odlgraph.DetourKind.REFERENCE else "content")] += 1

    def split(c, a, kw, out):
        strategy, detours = out
        visits = len(strategy) + sum(len(d.interior) + 1 for d in detours)
        c["paths.erased_visits"] += visits - len(strategy)
        c["paths.split_visits"] += visits

    def visit_sets(c, a, kw, out):
        c["clusters.visit_sets"] += len(out)
        c["clusters.visit_set_members"] += sum(len(s.visited) for s in out)

    def cooccurrence(c, a, kw, out):
        c["clusters.pair_increments"] += sum(len(s.visited) * (len(s.visited) - 1) // 2 for s in a[0])
        c["clusters.pairs_before"] += len(out.weights)

    def threshold(c, a, kw, out):
        c["clusters.pairs_after"] += len(out.weights)

    def cliques(c, a, kw, out):
        c["clusters.cliques_out"] += len(out)
        c.peak("clusters.clique_guard_nodes", len(a[0].nodes) / kw.get("max_nodes_guard", guard))
        c.peak("clusters.clique_guard_cliques", len(out) / clusters.MAX_REPORTED_CLIQUES)

    def parsed(c, a, kw, out):
        c["course_format.bytes_in"] += len(a[0].encode("utf-8"))

    return [
        ("sessions.parse_log", odlgraph.parse_log, parse_log),
        ("sessions.sessionize", odlgraph.sessionize, lambda c, a, kw, out: c.add("sessions.sessions_out", len(out))),
        ("sessions.build_experience", odlgraph.build_experience, build_experience),
        ("paths.detect_cycles", odlgraph.detect_cycles, lambda c, a, kw, out: c.add("paths.cycles_out", len(out))),
        ("paths.classify_cycle", odlgraph.classify_cycle, classify),
        ("paths.split_strategy_tactics", odlgraph.split_strategy_tactics, split),
        ("paths.coverage", odlgraph.coverage, None),
        ("clusters.session_visit_sets", odlgraph.session_visit_sets, visit_sets),
        ("clusters.cooccurrence", odlgraph.cooccurrence, cooccurrence),
        ("clusters.threshold", odlgraph.threshold, threshold),
        ("clusters.maximal_cliques", odlgraph.maximal_cliques, cliques),
        ("clusters.connected_components", odlgraph.connected_components,
         lambda c, a, kw, out: c.add("clusters.components_out", len(out))),
        ("clusters.format_clusters", odlgraph.format_clusters, None),
        ("clusters.read_clusters", odlgraph.read_clusters, None),
        ("course_format.parse_graph_file", odlgraph.parse_graph_file, parsed),
        ("course_format.parse_tabular", odlgraph.parse_tabular, parsed),
        ("course_format.read_document", odlgraph.read_document, parsed),
        ("course_format.serialize", odlgraph.serialize, None),
        ("model.validate", odlgraph.validate, None),
        ("model.build", odlgraph.add_object, None),
        ("model.build", odlgraph.add_task, None),
        ("model.build", odlgraph.add_activity, None),
        ("model.build", odlgraph.add_edge, lambda c, a, kw, out: c.add("model.edges_built", 1)),
        ("dot_export.export_dot", odlgraph.export_dot, lambda c, a, kw, out: c.add("dot_export.lines_out", out.count("\n"))),
        ("notes.loads", notes.loads, lambda c, a, kw, out: c.add("notes.records_in", len(a[0].splitlines()))),
        ("notes.dumps", notes.dumps, None),
        ("notes.attach_note", odlgraph.attach_note, None),
        ("notes.send_message", odlgraph.send_message, None),
        ("notes.list_notes", odlgraph.list_notes, None),
        ("notes.inbox", odlgraph.inbox, None),
    ]


def plain_api() -> SimpleNamespace:
    """The public functions the benchmark calls, unwrapped."""
    return SimpleNamespace(**{fn.__name__: fn for _, fn, _ in _calls()})


class Counts(defaultdict):
    """Counters recorded at the layer boundaries."""

    def __init__(self):
        super().__init__(float)

    def add(self, name: str, amount: float) -> None:
        self[name] += amount

    def peak(self, name: str, value: float) -> None:
        self[name] = max(self[name], value)


class Tracer:
    """Spans and counts for one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts = Counts()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def api(self) -> SimpleNamespace:
        """The same namespace as :func:`plain_api`, every call recorded."""
        wrapped = {}
        for metric, fn, hook in _calls():
            wrapped[fn.__name__] = self._wrap(metric, fn, hook)
        return SimpleNamespace(**wrapped)

    def _wrap(self, metric, fn, hook):
        def traced(*args, **kwargs):
            with self.span(metric):
                try:
                    result = fn(*args, **kwargs)
                except odlgraph.OdlError:
                    self.counts[metric + ".raised"] += 1
                    raise
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        return traced

    def self_seconds(self, within=None) -> dict[str, float]:
        """Self time per span name: duration minus the time covered by child spans.

        With ``within``, a test on span names, only spans that pass it or lie inside one that does count.
        """
        child_time = [0.0] * len(self.spans)
        inside = [within is None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):  # a parent always comes before its children
            if parent is not None:
                child_time[parent] += end - start
                inside[i] = inside[parent]
            inside[i] = inside[i] or within(name)
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if inside[i]:
                totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }
