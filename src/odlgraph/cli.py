"""Batch command line: validate, convert, mine and export courses and logs.

Exit codes: 0 success, 1 data errors (parse/validation/adjacency), 2 usage.
Diagnostics go to stderr; data goes to stdout or to ``-o`` files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import clusters as cl
from . import course_format, dot_export, notes as notes_mod
from .errors import OdlError
from .model import LearningEnvironment, next_id_number, validate
from .paths import classify_cycle, coverage, detect_cycles, erase_cycles
from .sessions import DEFAULT_SESSION_TIMEOUT, LearningExperience, Session, build_experience, parse_log, sessionize
from .text import lines, read_text

TIMEOUT_ENV_VAR = "ODL_TIMEOUT"


class _UsageError(Exception):
    pass


def _load_course(path: str) -> tuple[LearningEnvironment, str]:
    return course_format.parse_course(read_text(path), path)


def _course_and_sessions(args, read_log: bool = True) -> tuple[LearningEnvironment, list[Session]]:
    """The pipeline every log subcommand shares: load the course, read the log, sessionize."""
    env, _ = _load_course(args.course)
    if not read_log:
        return env, []
    skipped: list[tuple[int, str]] = []
    blocks = parse_log(lines(read_text(args.log)), env, skip_unknown=args.skip_unknown, skipped=skipped)
    for line_no, activity_id in skipped:
        print(f"warning: line {line_no}: unknown activity {activity_id!r} skipped", file=sys.stderr)
    return env, sessionize(blocks, args.timeout)


def _timeout(args) -> int:
    """The session timeout from ``--timeout``, else ``ODL_TIMEOUT``, else the default."""
    if args.timeout is not None:
        if args.timeout <= 0:
            raise _UsageError("--timeout must be positive")
        return args.timeout
    from_env = os.environ.get(TIMEOUT_ENV_VAR)
    if from_env is not None:
        try:
            value = int(from_env)
        except ValueError:
            raise _UsageError(f"{TIMEOUT_ENV_VAR} must be an integer, got {from_env!r}") from None
        if value <= 0:
            raise _UsageError(f"{TIMEOUT_ENV_VAR} must be positive")
        return value
    return DEFAULT_SESSION_TIMEOUT


def _experiences(sessions: list[Session], env: LearningEnvironment, mode: str) -> dict[str, LearningExperience]:
    per_learner: dict[str, list[Session]] = {}
    for session in sessions:
        per_learner.setdefault(session.learner_id, []).append(session)
    return {
        learner: build_experience(per_learner[learner], env, mode)
        for learner in sorted(per_learner)
    }


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    env, _ = _load_course(args.course)
    report = validate(env)
    if not report:
        print("OK")
        return 0
    for violation in report:
        print(f"{violation.code}\t{violation.subject}\t{violation.message}")
    return 1


def _cmd_parse(args) -> int:
    env, title = _load_course(args.input)
    if args.to == "dot":
        _emit(args, dot_export.export_dot(env))
    else:
        _emit(args, course_format.serialize(env, args.to, title=title))
    return 0


def _cmd_sessions(args) -> int:
    _, sessions = _course_and_sessions(args)
    out = []
    for s in sessions:
        ids = ",".join(b.activity_id for b in s.blocks)
        out.append(
            f"{s.learner_id}\t{s.session_index}\t{s.blocks[0].timestamp}"
            f"\t{s.blocks[-1].timestamp}\t{len(s.blocks)}\t{ids}"
        )
    _emit(args, "".join(line + "\n" for line in out))
    return 0


def _cmd_cycles(args) -> int:
    env, sessions = _course_and_sessions(args)
    mode = "strict" if args.strict else "lenient"
    out = []
    for learner, experience in _experiences(sessions, env, mode).items():
        for cycle in detect_cycles(experience):
            if len(cycle.interior) < args.min_interior:
                continue
            kind = classify_cycle(cycle, env)
            interior = ",".join(cycle.interior)
            out.append(
                f"{learner}\t{cycle.anchor_activity}\t{cycle.start_index}"
                f"\t{cycle.end_index}\t{kind.value}\t{interior}"
            )
    _emit(args, "".join(line + "\n" for line in out))
    return 0


def _cmd_erase(args) -> int:
    env, sessions = _course_and_sessions(args)
    out = []
    for learner, experience in _experiences(sessions, env, "lenient").items():
        out.append(f"{learner}\t{','.join(erase_cycles(experience))}")
    _emit(args, "".join(line + "\n" for line in out))
    return 0


def _cmd_coverage(args) -> int:
    env, sessions = _course_and_sessions(args)
    experiences = _experiences(sessions, env, "lenient")
    out = []
    for learner, experience in experiences.items():
        report = coverage([experience], env)
        out.append(f"{learner}\t{len(report.visited)}\t{report.total}\t{report.ratio:.4f}")
    overall = coverage(experiences.values(), env)
    out.append(f"*\t{len(overall.visited)}\t{overall.total}\t{overall.ratio:.4f}")
    _emit(args, "".join(line + "\n" for line in out))
    return 0


def _cmd_mine(args) -> int:
    if args.min_count < 1:
        raise _UsageError("--min-count must be at least 1")
    _, sessions = _course_and_sessions(args)
    visit_sets = cl.session_visit_sets(sessions, strategy_paths=args.on_strategy_paths)
    graph = cl.threshold(cl.cooccurrence(visit_sets), args.min_count)
    if args.cliques:
        found = cl.maximal_cliques(graph)
    else:
        found = cl.connected_components(graph)
    _emit(args, cl.format_clusters(found))
    return 0


def _cmd_export(args) -> int:
    overlay = dot_export.Overlay(args.overlay)
    walked = overlay in (dot_export.Overlay.VISIT_ORDER, dot_export.Overlay.COVERAGE)
    if walked and not (args.log and args.experience):
        raise _UsageError(f"--overlay {overlay.value} needs --log and --experience")
    if overlay is dot_export.Overlay.CLUSTERS and not args.clusters:
        raise _UsageError("--overlay clusters needs --clusters FILE")
    env, sessions = _course_and_sessions(args, read_log=walked)

    experience = found = None
    if walked:
        mine = [s for s in sessions if s.learner_id == args.experience]
        if not mine:
            print(f"error: no sessions for learner {args.experience!r}", file=sys.stderr)
            return 1
        experience = build_experience(mine, env, "lenient")
    if overlay is dot_export.Overlay.CLUSTERS:
        found = cl.read_clusters(read_text(args.clusters))

    style = dot_export.ExportStyle(overlay, args.include_reference_edges)
    _emit(args, dot_export.export_dot(env, style, experience, found))
    return 0


def _load_store(args) -> notes_mod.NoteStore:
    """The course, then the store bound to it (empty when the file does not exist yet)."""
    env, _ = _load_course(args.course)
    if Path(args.store).exists():
        return notes_mod.reload(args.store, env)
    return notes_mod.new_store(env)


def _cmd_notes_add(args) -> int:
    if args.timestamp < 0:
        raise _UsageError("--timestamp must be non-negative")
    store = _load_store(args)
    note_id = args.note_id or f"n{next_id_number(store.notes, 'n')}"
    note = notes_mod.LearnerNote(
        note_id,
        args.node,
        args.learner,
        args.timestamp,
        notes_mod.NoteAccess(args.access),
        args.body,
        tuple(args.attach or ()),
    )
    notes_mod.flush(notes_mod.attach_note(store, note), args.store)
    print(note_id)
    return 0


def _cmd_notes_list(args) -> int:
    store = _load_store(args)
    for note in notes_mod.list_notes(store, args.node, args.requester, args.role):
        attachments = ",".join(note.attachments)
        print(f"{note.note_id}\t{note.timestamp}\t{note.learner_id}\t{note.access.value}\t{note.body}\t{attachments}")
    return 0


def _cmd_notes_send(args) -> int:
    if args.sent_at < 0:
        raise _UsageError("--sent-at must be non-negative")
    store = _load_store(args)
    message_id = args.message_id or f"m{next_id_number(store.messages, 'm')}"
    recipients = notes_mod.BROADCAST if args.to == notes_mod.BROADCAST else tuple(
        r for r in args.to.split(",") if r
    )
    message = notes_mod.Message(
        message_id,
        args.sender,
        recipients,
        tuple(r for r in args.refs.split(",") if r),
        args.sent_at,
    )
    notes_mod.flush(notes_mod.send_message(store, message, args.role), args.store)
    print(message_id)
    return 0


def _cmd_notes_inbox(args) -> int:
    store = _load_store(args)
    for message in notes_mod.inbox(store, args.user):
        to = message.recipients if message.recipients == notes_mod.BROADCAST else ",".join(message.recipients)
        refs = ",".join(message.note_refs)
        print(f"{message.message_id}\t{message.sent_at}\t{message.sender_id}\t{to}\t{refs}")
    return 0


# --- parser ------------------------------------------------------------------


def _add_log_options(sub, log_required: bool = True) -> None:
    sub.add_argument("--log", required=log_required, help="CSV access log")
    sub.add_argument("--course", required=True, help="course file (.odlc or .odlg)")
    sub.add_argument("--timeout", type=int, default=None, help="session timeout in seconds")
    sub.add_argument("--skip-unknown", action="store_true", help="drop log lines naming unknown activities")
    sub.add_argument("-o", "--output", default=None, help="write output to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odlgraph", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="check a course file")
    p.add_argument("course")
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("parse", help="convert a course file")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=["odlc", "odlg", "dot"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_parse)

    p = commands.add_parser("sessions", help="split a log into sessions")
    _add_log_options(p)
    p.set_defaults(func=_cmd_sessions)

    p = commands.add_parser("cycles", help="list detours per learner")
    _add_log_options(p)
    p.add_argument("--strict", action="store_true", help="fail on steps between unconnected activities")
    p.add_argument("--min-interior", type=int, default=0, help="hide detours with fewer interior visits")
    p.set_defaults(func=_cmd_cycles)

    p = commands.add_parser("erase", help="loop-erased strategy path per learner")
    _add_log_options(p)
    p.set_defaults(func=_cmd_erase)

    p = commands.add_parser("coverage", help="course coverage per learner")
    _add_log_options(p)
    p.set_defaults(func=_cmd_coverage)

    p = commands.add_parser("mine", help="cluster activities by session co-occurrence")
    _add_log_options(p)
    p.add_argument("--min-count", type=int, default=cl.DEFAULT_MIN_COOCCURRENCE)
    p.add_argument("--cliques", action="store_true", help="report maximal cliques instead of connected components")
    p.add_argument("--on-strategy-paths", action="store_true", help="cluster loop-erased sessions")
    p.set_defaults(func=_cmd_mine)

    p = commands.add_parser("export", help="render a course to DOT")
    _add_log_options(p, log_required=False)
    p.add_argument("--experience", default=None, metavar="LEARNER_ID")
    p.add_argument("--overlay", default="none", choices=[o.value for o in dot_export.Overlay])
    p.add_argument("--clusters", default=None, help="cluster file for the clusters overlay")
    p.add_argument("--include-reference-edges", action="store_true")
    p.set_defaults(func=_cmd_export)

    p = commands.add_parser("notes", help="note store operations")
    note_commands = p.add_subparsers(dest="notes_command", required=True)

    store_options = argparse.ArgumentParser(add_help=False)
    store_options.add_argument("--store", required=True)
    store_options.add_argument("--course", required=True)

    q = note_commands.add_parser("add", parents=[store_options])
    q.add_argument("--node", required=True)
    q.add_argument("--learner", required=True)
    q.add_argument("--timestamp", type=int, default=0)
    q.add_argument("--access", default="private", choices=[a.value for a in notes_mod.NoteAccess])
    q.add_argument("--body", default="")
    q.add_argument("--attach", action="append")
    q.add_argument("--note-id", default=None)
    q.set_defaults(func=_cmd_notes_add)

    q = note_commands.add_parser("list", parents=[store_options])
    q.add_argument("--node", required=True)
    q.add_argument("--requester", required=True)
    q.add_argument("--role", default="learner", choices=["learner", "tutor"])
    q.set_defaults(func=_cmd_notes_list)

    q = note_commands.add_parser("send", parents=[store_options])
    q.add_argument("--sender", required=True)
    q.add_argument("--role", default="learner", choices=["learner", "tutor"])
    q.add_argument("--to", required=True, help="comma-separated learner ids, or * for broadcast")
    q.add_argument("--refs", required=True, help="comma-separated note ids")
    q.add_argument("--message-id", default=None)
    q.add_argument("--sent-at", type=int, default=0)
    q.set_defaults(func=_cmd_notes_send)

    q = note_commands.add_parser("inbox", parents=[store_options])
    q.add_argument("--user", required=True)
    q.set_defaults(func=_cmd_notes_inbox)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "timeout" in vars(args):
            # Resolved before any file is read, and whether or not a log is read.
            args.timeout = _timeout(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console-script entry point
    raise SystemExit(main())
