"""The three workloads as sequences of operations, each runnable two ways.

An operation is one ``odlgraph`` CLI command plus the public library calls
that do the same work and print the same text.  The CLI job runs every
command in a fresh interpreter; the library job runs the calls in one
process on a course that was parsed once, and reuses a log's sessions across
the operations that read it, as a library user would.  The library job keeps
its intermediate results so that the checks can inspect them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from odlgraph import (
    AccessDenied,
    ClusterKind,
    ExportStyle,
    LearnerNote,
    LearningActivity,
    Message,
    NoteAccess,
    Overlay,
    empty_environment,
)

TIMEOUT = 1800  # seconds; passed explicitly so that ODL_TIMEOUT in the environment cannot change a run
COURSE = "course.odlg"
STORE = "store.jsonl"  # the job's working copy of the generated notes.jsonl


@dataclass
class Op:
    """One CLI command and its library equivalent."""

    name: str  # subcommand, as in the cli.<name>_s metrics
    argv: list[str]  # arguments after ``odlgraph``, relative to the work directory
    output: str | None  # file the command writes with ``-o``; None means stdout
    lib: Callable[["Library"], str]
    refused: bool = False  # the command must be refused (exit 1) and change nothing
    side: bool = False  # a small call into a layer the workload is not about; left out of the job times


@dataclass
class MineResult:
    op: int
    log: str
    strategy_paths: bool
    kind: ClusterKind
    visit_sets: list
    graph: object
    cut: object
    found: list


@dataclass
class Library:
    """Runs the library side of the operations through ``api`` (plain or traced)."""

    work: Path
    api: object
    env: object = None
    build_reference: object = None
    op: int = -1  # index of the operation running now, for the checks
    pipelines: dict = field(default_factory=dict)  # log -> (sessions, experiences or None)
    visit_graphs: dict = field(default_factory=dict)  # (log, strategy_paths) -> (visit sets, graph)
    splits: dict = field(default_factory=dict)  # log -> [(op, learner, visit ids, path, detours)]
    mines: list = field(default_factory=list)
    dots: list = field(default_factory=list)  # (op, env, include_reference_edges, text)
    round_trip: list = field(default_factory=list)  # [op, env from .odlc, its .odlg text]
    built: tuple = ()
    store: object = None
    store_text: str = ""
    op_seconds: list = field(default_factory=list)
    stores: list = field(default_factory=list)  # the note store text before each operation

    def read(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def setup(self) -> None:
        """What every CLI command pays first: load and validate the course."""
        self.env = self.api.parse_graph_file(self.read(COURSE))
        self.api.validate(self.env)
        self.build_reference = self.api.parse_graph_file(self.read("build.odlg"))
        self.store_text = self.read("notes.jsonl")

    def run(self, ops: list[Op], span=None, skip_side: bool = False) -> list[str | Exception | None]:
        """Run every operation, timing each; a raised exception becomes that operation's output.

        With ``skip_side``, side calls are not run: their output is None and their time 0.
        """
        outputs: list[str | Exception | None] = []
        self.op_seconds = []
        self.stores = []
        for index, op in enumerate(ops):
            self.op = index
            self.stores.append(self.store_text)
            if skip_side and op.side:
                outputs.append(None)
                self.op_seconds.append(0.0)
                continue
            start = time.perf_counter()
            try:
                if span is None:
                    outputs.append(op.lib(self))
                else:
                    with span(op_span(op)):
                        outputs.append(op.lib(self))
            except Exception as exc:  # a library failure is recorded as a failed operation
                outputs.append(exc)
            self.op_seconds.append(time.perf_counter() - start)
        return outputs

    # --- logs ---------------------------------------------------------------

    def sessions(self, log: str):
        if log not in self.pipelines:
            skipped: list = []
            blocks = self.api.parse_log(self.read(log).splitlines(), self.env, skip_unknown=True, skipped=skipped)
            self.pipelines[log] = [self.api.sessionize(blocks, TIMEOUT), None]
        return self.pipelines[log][0]

    def experiences(self, log: str) -> dict:
        sessions = self.sessions(log)
        if self.pipelines[log][1] is None:
            per_learner: dict = {}
            for s in sessions:
                per_learner.setdefault(s.learner_id, []).append(s)
            self.pipelines[log][1] = {
                learner: self.api.build_experience(per_learner[learner], self.env, "lenient")
                for learner in sorted(per_learner)
            }
        return self.pipelines[log][1]

    def sessions_text(self, log: str) -> str:
        return "".join(
            f"{s.learner_id}\t{s.session_index}\t{s.blocks[0].timestamp}\t{s.blocks[-1].timestamp}"
            f"\t{len(s.blocks)}\t{','.join(b.activity_id for b in s.blocks)}\n"
            for s in self.sessions(log)
        )

    def cycles_text(self, log: str) -> str:
        out = []
        for learner, experience in self.experiences(log).items():
            for c in self.api.detect_cycles(experience):
                kind = self.api.classify_cycle(c, self.env)
                out.append(f"{learner}\t{c.anchor_activity}\t{c.start_index}\t{c.end_index}"
                           f"\t{kind.value}\t{','.join(c.interior)}\n")
        return "".join(out)

    def erase_text(self, log: str) -> str:
        out = []
        for learner, experience in self.experiences(log).items():
            path, detours = self.api.split_strategy_tactics(experience)
            ids = [v.activity_id for v in experience.visits]
            self.splits.setdefault(log, []).append((self.op, learner, ids, path, detours))
            out.append(f"{learner}\t{','.join(path)}\n")
        return "".join(out)

    def coverage_text(self, log: str) -> str:
        experiences = self.experiences(log)
        out = []
        for learner, experience in experiences.items():
            r = self.api.coverage([experience], self.env)
            out.append(f"{learner}\t{len(r.visited)}\t{r.total}\t{r.ratio:.4f}\n")
        r = self.api.coverage(experiences.values(), self.env)
        out.append(f"*\t{len(r.visited)}\t{r.total}\t{r.ratio:.4f}\n")
        return "".join(out)

    def mine_text(self, log: str, min_count: int, cliques: bool, strategy_paths: bool) -> str:
        key = (log, strategy_paths)
        if key not in self.visit_graphs:
            visit_sets = self.api.session_visit_sets(self.sessions(log), strategy_paths=strategy_paths)
            self.visit_graphs[key] = (visit_sets, self.api.cooccurrence(visit_sets))
        visit_sets, graph = self.visit_graphs[key]
        cut = self.api.threshold(graph, min_count)
        found = self.api.maximal_cliques(cut) if cliques else self.api.connected_components(cut)
        kind = ClusterKind.CLIQUE if cliques else ClusterKind.COMPONENT
        self.mines.append(MineResult(self.op, log, strategy_paths, kind, visit_sets, graph, cut, found))
        return self.api.format_clusters(found)

    # --- course files -------------------------------------------------------

    def outline_to_graph(self, source: str) -> str:
        text = self.read(source)
        title = self.api.read_document(text).title
        env = self.api.parse_tabular(text)
        out = self.api.serialize(env, "odlg", title=title)
        self.round_trip = [self.op, env, out]
        return out

    def graph_to_dot(self) -> str:
        # reads what the previous operation wrote, as the CLI reads the file
        return self.export(self.api.parse_graph_file(self.round_trip[2]), ExportStyle())

    def export(self, env, style: ExportStyle, clusters=None) -> str:
        text = self.api.export_dot(env, style, None, clusters)
        self.dots.append((self.op, env, style.include_reference_edges, text))
        return text

    def export_clusters(self, source: str) -> str:
        return self.export(self.env, ExportStyle(Overlay.CLUSTERS), self.api.read_clusters(self.read(source)))

    def build(self) -> str:
        """Rebuild the reference course call by call through the model builders."""
        ref, api = self.build_reference, self.api
        env = empty_environment()
        for obj in ref.objects.values():
            env = api.add_object(env, obj)
        for task in ref.tasks.values():
            env = api.add_task(env, task)
        for act in ref.activities.values():
            env = api.add_activity(env, LearningActivity(
                act.id, act.object_id, act.task_id, act.is_reference, act.expected_duration_minutes))
        for edge in ref.edges:
            env = api.add_edge(env, edge.from_id, edge.to_id, edge.label, edge.tag)
        self.built = (self.op, env, ref)
        return f"{len(env.activities)} activities, {len(env.edges)} edges\n"

    # --- note store -----------------------------------------------------------

    def open_store(self):
        if self.store is None:
            self.store = self.api.loads(self.store_text, self.env)
        return self.store

    def flush(self, store) -> None:
        self.store = store
        self.store_text = self.api.dumps(store)

    def notes_add(self, node: str, learner: str, access: str, body: str) -> str:
        store = self.open_store()
        note_id = _fresh_id(store.notes, "n")
        self.flush(self.api.attach_note(store, LearnerNote(note_id, node, learner, 0, NoteAccess(access), body, ())))
        return note_id + "\n"

    def notes_send(self, sender: str, to: str, refs: str) -> str:
        store = self.open_store()
        message_id = _fresh_id(store.messages, "m")
        message = Message(message_id, sender, tuple(to.split(",")), tuple(refs.split(",")), 0)
        try:
            self.flush(self.api.send_message(store, message, "learner"))
        except AccessDenied:
            return ""
        return message_id + "\n"

    def notes_list(self, node: str, requester: str, role: str) -> str:
        return "".join(
            f"{n.note_id}\t{n.timestamp}\t{n.learner_id}\t{n.access.value}\t{n.body}\t{','.join(n.attachments)}\n"
            for n in self.api.list_notes(self.open_store(), node, requester, role)
        )

    def notes_inbox(self, user: str) -> str:
        out = []
        for m in self.api.inbox(self.open_store(), user):
            to = m.recipients if isinstance(m.recipients, str) else ",".join(m.recipients)
            out.append(f"{m.message_id}\t{m.sent_at}\t{m.sender_id}\t{to}\t{','.join(m.note_refs)}\n")
        return "".join(out)


def op_span(op: Op) -> str:
    """The name of an operation's span in a traced run; side calls end in ``.side``."""
    return f"op.{op.name}{'.side' if op.side else ''}"


def _fresh_id(existing, prefix: str) -> str:
    """The id the CLI assigns: one past the highest numeric suffix in use."""
    numbers = [int(k[len(prefix):]) for k in existing if k.startswith(prefix) and k[len(prefix):].isdigit()]
    return f"{prefix}{max(numbers, default=0) + 1}"


# --- operation builders ---------------------------------------------------------


def _log_args(log: str) -> list[str]:
    return ["--log", log, "--course", COURSE, "--timeout", str(TIMEOUT), "--skip-unknown"]


def validate_op() -> Op:
    return Op("validate", ["validate", COURSE], None, lambda lib: "OK\n" if not lib.api.validate(lib.env) else "")


def log_ops(log: str) -> list[Op]:
    return [
        Op("sessions", ["sessions", *_log_args(log)], None, lambda lib: lib.sessions_text(log)),
        Op("cycles", ["cycles", *_log_args(log)], None, lambda lib: lib.cycles_text(log)),
        Op("erase", ["erase", *_log_args(log)], None, lambda lib: lib.erase_text(log)),
        Op("coverage", ["coverage", *_log_args(log)], None, lambda lib: lib.coverage_text(log)),
    ]


def mine_op(log: str, min_count: int, cliques: bool = False, strategy_paths: bool = False) -> Op:
    argv = ["mine", *_log_args(log), "--min-count", str(min_count)]
    argv += ["--cliques"] if cliques else []
    argv += ["--on-strategy-paths"] if strategy_paths else []
    return Op("mine", argv, None, lambda lib: lib.mine_text(log, min_count, cliques, strategy_paths))


PARSE_OUTLINE = Op("parse", ["parse", "outline.odlc", "--to", "odlg", "-o", "outline.odlg"], "outline.odlg",
                  lambda lib: lib.outline_to_graph("outline.odlc"))
PARSE_TO_DOT = Op("parse", ["parse", "outline.odlg", "--to", "dot", "-o", "outline.dot"], "outline.dot",
                  lambda lib: lib.graph_to_dot())
EXPORT_REFERENCE = Op("export", ["export", "--course", COURSE, "--include-reference-edges", "-o", "reference.dot"],
                      "reference.dot", lambda lib: lib.export(lib.env, ExportStyle(Overlay.NONE, True)))
EXPORT_CLUSTERS = Op("export", ["export", "--course", COURSE, "--overlay", "clusters", "--clusters", "clusters.tsv",
                                "-o", "clusters.dot"], "clusters.dot", lambda lib: lib.export_clusters("clusters.tsv"))


def note_ops(plan: dict, writes: int, reads: int) -> list[Op]:
    """``writes`` each of ``notes add`` and ``notes send``, one send that must be refused, ``reads`` each of
    ``notes list`` and ``notes inbox``."""
    store = ["--store", STORE, "--course", COURSE]
    ops = []
    for a in plan["add"][:max(writes, 1)]:
        ops.append(Op("notes_add", ["notes", "add", *store, "--node", a["node"], "--learner", a["learner"],
                                    "--access", a["access"], "--body", a["body"]], None,
                      lambda lib, a=a: lib.notes_add(a["node"], a["learner"], a["access"], a["body"])))
    for s in plan["send"][:writes] + [plan["refused"]]:
        ops.append(Op("notes_send", ["notes", "send", *store, "--sender", s["sender"], "--to", s["to"],
                                     "--refs", s["refs"]], None,
                      lambda lib, s=s: lib.notes_send(s["sender"], s["to"], s["refs"]),
                      refused=s is plan["refused"]))
    for q in plan["list"][:reads]:
        ops.append(Op("notes_list", ["notes", "list", *store, "--node", q["node"], "--requester", q["requester"],
                                     "--role", q["role"]], None,
                      lambda lib, q=q: lib.notes_list(q["node"], q["requester"], q["role"])))
    for user in plan["inbox"][:reads]:
        ops.append(Op("notes_inbox", ["notes", "inbox", *store, "--user", user], None,
                      lambda lib, user=user: lib.notes_inbox(user)))
    return ops


def side(ops: list[Op]) -> list[Op]:
    """The same operations, marked as side calls: they run and are checked, but no job time counts them."""
    return [replace(op, side=True) for op in ops]


def side_ops(plan: dict) -> list[Op]:
    """One small call into the course, DOT and note layers, for workloads that are not about them."""
    return side([PARSE_OUTLINE, EXPORT_CLUSTERS, *note_ops(plan, 0, 1), build_op()])


def build_op() -> Op:
    """Library only: the CLI has no builder command."""
    return Op("build", [], None, lambda lib: lib.build())


def workload_ops(workload: str, params: dict) -> list[Op]:
    """The operation sequence of a workload: its main work, and one small side call into every other layer.

    ``validate`` comes first everywhere, so that a broken course fails early; it is part of the job only on
    ``authoring`` (``setup_s`` times it on every workload).
    """
    notes = params["notes"]
    if workload == "analytics":
        return [*side([validate_op()]), *log_ops("log.csv"), mine_op("log.csv", 5),
                mine_op("log.csv", 20, cliques=True), *side_ops(notes)]
    if workload == "mining":
        return [*side([validate_op()]), mine_op("log.csv", 10, cliques=True),
                mine_op("log.csv", 10, strategy_paths=True), *side(log_ops("side.csv")), *side_ops(notes)]
    if workload == "authoring":
        return [validate_op(), PARSE_OUTLINE, PARSE_TO_DOT, EXPORT_REFERENCE, EXPORT_CLUSTERS,
                *note_ops(notes, 2, 2), build_op(),
                *side([*log_ops("side.csv"), mine_op("side.csv", 2), mine_op("side.csv", 2, cliques=True)])]
    raise ValueError(f"unknown workload {workload!r}")
