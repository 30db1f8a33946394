"""Batch command line: validate, convert, mine and export courses and logs.

Exit codes: 0 success, 1 data errors (parse/validation/adjacency), 2 usage.
Diagnostics go to stderr; data goes to stdout or to ``-o`` files.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

# Every command reads a course; the other modules load inside the commands that run them.
from . import course_format
from .errors import GraphTooLarge, OdlError
from .model import LearningEnvironment, next_id_number, teleports
from .options import DEFAULT_MIN_COOCCURRENCE, DEFAULT_SESSION_TIMEOUT, NoteAccess, Overlay
from .text import iter_lines, read_text, write_text

if TYPE_CHECKING:
    from .notes import NoteStore
    from .sessions import Row

# A batch is held twice while it is written, as text and encoded; a piece can be a learner's whole detour list.
_PIECES_PER_WRITE = 1024


class _UsageError(Exception):
    pass


def _load_course(path: str) -> tuple[LearningEnvironment, str]:
    return course_format.parse_course(read_text(path), path)


def _course_and_learners(args, learner: str | None = None) -> tuple[LearningEnvironment, Iterator[list[Row]]]:
    """The pipeline every log subcommand shares: the course and the log's rows per learner.

    A command with ``--timeout`` has it checked before any file is read.  The log's rows are read and grouped,
    each learner's in timestamp order (see :func:`~odlgraph.sessions.group_by_learner`); with ``learner``, only
    that learner's rows are kept, and every line is still checked.  Each skipped line is warned about once the
    whole log has been read, so a bad line later in the log prints its error alone.
    """
    if "timeout" in args and args.timeout <= 0:  # export has none: a drawn walk spans all of its sessions
        raise _UsageError("--timeout must be positive")
    env, _ = _load_course(args.course)
    from .sessions import group_by_learner, iter_rows

    skipped: list[tuple[int, str]] = []
    rows = iter_rows(iter_lines(read_text(args.log)), env, args.skip_unknown, skipped)
    if learner is not None:
        rows = (row for row in rows if row[0] == learner)
    learners = group_by_learner(rows)
    for line_no, activity_id in skipped:
        print(f"warning: line {line_no}: unknown activity {activity_id!r} skipped", file=sys.stderr)
    return env, learners


def _walks(learners: Iterator[list[Row]]) -> Iterator[tuple[str, list[str]]]:
    """Each learner's id and activity ids in visit order, in turn: a walk runs across all of its learner's sessions."""
    activity = itemgetter(2)
    for rows in learners:
        yield rows[0][0], list(map(activity, rows))


def _emit(args, pieces: Iterable[str], commit: Callable[[], None] | None = None) -> None:
    """The one writer of data; commands first do all that can fail, so a failure writes nothing.

    The pieces are read and joined ``_PIECES_PER_WRITE`` at a time as they are
    written, so a long output of many rows is never held as one text.  ``commit``, a command's stored change,
    runs once the output is known to be open, before any byte is written.  An ``-o`` naming the file stdout
    writes to, as ``/dev/stdout`` does, writes through stdout, where a rename would replace that file under
    whatever else writes to it; with stdout closed, such a name leads to no file, so it is refused as stdout is.
    """
    output = getattr(args, "output", None)
    if output:
        try:
            if sys.stdout is None:  # as when the shell closed it: ``odlgraph validate c.odlg >&-``
                if os.path.realpath(output) == os.path.realpath("/dev/stdout"):
                    output = None
            elif os.path.samestat(os.stat(output), os.fstat(sys.stdout.fileno())):
                output = None
        except (AttributeError, OSError, ValueError):  # a stdout without a descriptor, or no such path
            pass
    if not output and sys.stdout is None:
        raise OdlError("standard output is closed")
    if commit is not None:
        commit()
    pieces = iter(pieces)
    batches = ("".join(batch) for batch in iter(lambda: list(islice(pieces, _PIECES_PER_WRITE)), []))
    if output:
        write_text(output, batches)
    else:
        sys.stdout.writelines(batches)


# --- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    _load_course(args.course)  # the readers refuse, on its line, every rule the course breaks
    _emit(args, ["OK\n"])
    return 0


def _cmd_parse(args) -> int:
    env, title = _load_course(args.input)
    if args.to == "dot":
        from .dot_export import export_dot

        _emit(args, [export_dot(env)])
    else:
        _emit(args, [course_format.serialize(env, args.to, title=title)])
    return 0


def _cmd_sessions(args) -> int:
    from .sessions import iter_sessions

    _, learners = _course_and_learners(args)
    activity = itemgetter(2)
    _emit(args, [
        f"{learner}\t{index}\t{rows[0][1]}\t{rows[-1][1]}\t{len(rows)}\t{','.join(map(activity, rows))}\n"
        for learner, rows, index in iter_sessions(learners, args.timeout)
    ])
    return 0


def _cmd_cycles(args) -> int:
    if args.min_interior < 0:
        raise _UsageError("--min-interior must be non-negative")
    from .paths import classify_cycle, detect_cycles

    env, learners = _course_and_learners(args)

    def detours(learner: str, ids: list[str]) -> str:
        """The learner's rows as one text: a string per detour would cost an object each in a batch."""
        if args.strict:  # the first step between unconnected activities fails the command
            teleports(env, ids, strict=True)
        return "".join(
            f"{learner}\t{cycle.anchor_activity}\t{cycle.start_index}"
            f"\t{cycle.end_index}\t{classify_cycle(cycle, env).value}\t{','.join(cycle.interior)}\n"
            for cycle in detect_cycles(ids) if len(cycle.interior) >= args.min_interior
        )

    texts = (detours(learner, ids) for learner, ids in _walks(learners))
    _emit(args, list(texts) if args.strict else texts)  # --strict can fail at any learner, so all are made first
    return 0


def _cmd_erase(args) -> int:
    from .paths import erase_cycles

    _, learners = _course_and_learners(args)
    _emit(args, [f"{learner}\t{','.join(erase_cycles(ids))}\n" for learner, ids in _walks(learners)])
    return 0


def _cmd_coverage(args) -> int:
    from .paths import coverage

    env, learners = _course_and_learners(args)
    rows, visited = [], set()
    for learner, ids in _walks(learners):
        report = coverage([ids], env)
        visited |= report.visited  # a running union, so no learner's set outlives its row
        rows.append(f"{learner}\t{len(report.visited)}\t{report.total}\t{report.ratio:.4f}\n")
    overall = coverage([visited], env)
    rows.append(f"*\t{len(overall.visited)}\t{overall.total}\t{overall.ratio:.4f}\n")
    _emit(args, rows)
    return 0


def _cmd_mine(args) -> int:
    if args.min_count < 1:
        raise _UsageError("--min-count must be at least 1")
    from . import clusters as cl
    from .sessions import iter_sessions

    _, learners = _course_and_learners(args)
    activity = itemgetter(2)
    walks = (((learner, index), map(activity, rows)) for learner, rows, index in iter_sessions(learners, args.timeout))
    visit_sets = cl.visit_sets(walks, strategy_paths=args.on_strategy_paths)
    graph = cl.cut_cooccurrence(visit_sets, args.min_count)
    if args.cliques:
        try:
            rows = cl.clique_rows(graph)  # searched, sorted and checked here; each row is made as it is written
        except GraphTooLarge as exc:
            raise OdlError(f"{exc}; drop --cliques to list connected components, which have no guard") from None
    else:
        rows = [cl.format_clusters(cl.connected_components(graph))]
    _emit(args, rows)
    return 0


def _cmd_export(args) -> int:
    overlay = Overlay(args.overlay)
    walked = overlay in (Overlay.VISIT_ORDER, Overlay.COVERAGE)
    if walked and not (args.log and args.experience):
        raise _UsageError(f"--overlay {overlay.value} needs --log and --experience")
    for flag, given in (("--log", args.log is not None), ("--experience", args.experience is not None),
                        ("--skip-unknown", args.skip_unknown)):
        if given and not walked:
            raise _UsageError(f"{flag} needs --overlay visit_order or coverage")
    if overlay is Overlay.CLUSTERS and not args.clusters:
        raise _UsageError("--overlay clusters needs --clusters FILE")
    if args.clusters is not None and overlay is not Overlay.CLUSTERS:
        raise _UsageError("--clusters needs --overlay clusters")
    from .dot_export import ExportStyle, export_dot

    ids = found = None
    if walked:
        # Only the drawn learner's rows are kept and grouped.
        env, mine = _course_and_learners(args, args.experience)
        walks = list(_walks(mine))
        if not walks:
            raise OdlError(f"no sessions for learner {args.experience!r}")
        ((_, ids),) = walks
    else:
        env, _ = _load_course(args.course)
    if overlay is Overlay.CLUSTERS:
        from .clusters import read_clusters

        found = read_clusters(read_text(args.clusters))

    style = ExportStyle(overlay, args.include_reference_edges)
    _emit(args, [export_dot(env, style, ids, found)])
    return 0


def _load_store(args) -> NoteStore:
    """The course, then the store bound to it (empty when the file does not exist yet)."""
    from .notes import new_store, reload

    env, _ = _load_course(args.course)
    return reload(args.store, env) if Path(args.store).exists() else new_store(env)


def _check_id(flag: str, given: str | None, refused: str) -> None:
    """Refuse an empty id, or one holding a character of ``refused``, at which the command's own rows split."""
    held = [char for char in refused if char in (given or "")]
    if given == "" or held:
        raise _UsageError(f"{flag} cannot hold {held[0]!r}" if held else f"{flag} needs an id")


def _cmd_notes_add(args) -> int:
    if args.timestamp < 0:
        raise _UsageError("--timestamp must be non-negative")
    _check_id("--note-id", args.note_id, ",\t\r\n")  # notes send --refs splits at commas, notes list at tabs
    from .notes import LearnerNote, attach_note, flush

    store = _load_store(args)
    note_id = f"n{next_id_number(store.notes, 'n')}" if args.note_id is None else args.note_id
    note = LearnerNote(
        note_id,
        args.node,
        args.learner,
        args.timestamp,
        NoteAccess(args.access),
        args.body,
        tuple(args.attach or ()),
    )
    new_store = attach_note(store, note)
    _emit(args, [note_id + "\n"], commit=lambda: flush(new_store, args.store))
    return 0


def _cmd_notes_list(args) -> int:
    from .notes import list_notes

    store = _load_store(args)
    _emit(args, [
        f"{n.note_id}\t{n.timestamp}\t{n.learner_id}\t{n.access.value}\t{n.body}\t{','.join(n.attachments)}\n"
        for n in list_notes(store, args.node, args.requester, args.role)
    ])
    return 0


def _cmd_notes_send(args) -> int:
    from .notes import BROADCAST, Message, flush, send_message

    if args.sent_at < 0:
        raise _UsageError("--sent-at must be non-negative")
    recipients = BROADCAST if args.to == BROADCAST else tuple(r for r in args.to.split(",") if r)
    if args.to != BROADCAST and BROADCAST in recipients:
        raise _UsageError(f"--to is {BROADCAST!r} alone or learner ids, none of them {BROADCAST!r}")
    _check_id("--message-id", args.message_id, "\t\r\n")  # notes inbox rows are tab-separated lines
    store = _load_store(args)
    message_id = f"m{next_id_number(store.messages, 'm')}" if args.message_id is None else args.message_id
    message = Message(
        message_id,
        args.sender,
        recipients,
        tuple(r for r in args.refs.split(",") if r),
        args.sent_at,
    )
    new_store = send_message(store, message, args.role)
    _emit(args, [message_id + "\n"], commit=lambda: flush(new_store, args.store))
    return 0


def _cmd_notes_inbox(args) -> int:
    from .notes import BROADCAST, inbox

    store = _load_store(args)
    rows = []
    for message in inbox(store, args.user):
        to = message.recipients if message.recipients == BROADCAST else ",".join(message.recipients)
        refs = ",".join(message.note_refs)
        rows.append(f"{message.message_id}\t{message.sent_at}\t{message.sender_id}\t{to}\t{refs}\n")
    _emit(args, rows)
    return 0


# --- parser ------------------------------------------------------------------


def _add_log_options(sub, export: bool = False) -> None:
    sub.add_argument("--log", required=not export, help="CSV access log")
    sub.add_argument("--course", required=True, help="course file (.odlc or .odlg)")
    if not export:  # export draws a learner's whole walk, which no session gap changes
        sub.add_argument("--timeout", type=int, default=DEFAULT_SESSION_TIMEOUT, help="session timeout in seconds")
    sub.add_argument("--skip-unknown", action="store_true", help="drop log lines naming unknown activities")
    sub.add_argument("-o", "--output", default=None, help="write output to a file instead of stdout")


def _command(subcommands, name: str, func: Callable[..., int], **options) -> argparse.ArgumentParser:
    """The parser of a subcommand that runs ``func``; :func:`main` has it name the flags it does not know."""
    sub = subcommands.add_parser(name, **options)
    sub.set_defaults(func=func, parser=sub)
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odlgraph", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = _command(commands, "validate", _cmd_validate, help="check a course file")
    p.add_argument("course")

    p = _command(commands, "parse", _cmd_parse, help="convert a course file")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=["odlc", "odlg", "dot"])
    p.add_argument("-o", "--output", default=None)

    p = _command(commands, "sessions", _cmd_sessions, help="split a log into sessions")
    _add_log_options(p)

    p = _command(commands, "cycles", _cmd_cycles, help="list detours per learner")
    _add_log_options(p)
    p.add_argument("--strict", action="store_true", help="fail on steps between unconnected activities")
    p.add_argument("--min-interior", type=int, default=0, help="hide detours with fewer interior visits")

    p = _command(commands, "erase", _cmd_erase, help="loop-erased strategy path per learner")
    _add_log_options(p)

    p = _command(commands, "coverage", _cmd_coverage, help="course coverage per learner")
    _add_log_options(p)

    p = _command(commands, "mine", _cmd_mine, help="cluster activities by session co-occurrence")
    _add_log_options(p)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COOCCURRENCE)
    p.add_argument("--cliques", action="store_true", help="report maximal cliques instead of connected components")
    p.add_argument("--on-strategy-paths", action="store_true", help="cluster loop-erased sessions")

    p = _command(commands, "export", _cmd_export, help="render a course to DOT")
    _add_log_options(p, export=True)
    p.add_argument("--experience", default=None, metavar="LEARNER_ID")
    p.add_argument("--overlay", default="none", choices=[o.value for o in Overlay])
    p.add_argument("--clusters", default=None, help="cluster file for the clusters overlay")
    p.add_argument("--include-reference-edges", action="store_true")

    p = commands.add_parser("notes", help="note store operations")
    note_commands = p.add_subparsers(dest="notes_command", required=True)

    store_options = argparse.ArgumentParser(add_help=False)
    store_options.add_argument("--store", required=True)
    store_options.add_argument("--course", required=True)

    q = _command(note_commands, "add", _cmd_notes_add, parents=[store_options])
    q.add_argument("--node", required=True)
    q.add_argument("--learner", required=True)
    q.add_argument("--timestamp", type=int, default=0)
    q.add_argument("--access", default="private", choices=[a.value for a in NoteAccess])
    q.add_argument("--body", default="")
    q.add_argument("--attach", action="append")
    q.add_argument("--note-id", default=None)

    q = _command(note_commands, "list", _cmd_notes_list, parents=[store_options])
    q.add_argument("--node", required=True)
    q.add_argument("--requester", required=True)
    q.add_argument("--role", default="learner", choices=["learner", "tutor"])

    q = _command(note_commands, "send", _cmd_notes_send, parents=[store_options])
    q.add_argument("--sender", required=True)
    q.add_argument("--role", default="learner", choices=["learner", "tutor"])
    q.add_argument("--to", required=True, help="comma-separated learner ids, or * for broadcast")
    q.add_argument("--refs", required=True, help="comma-separated note ids")
    q.add_argument("--message-id", default=None)
    q.add_argument("--sent-at", type=int, default=0)

    q = _command(note_commands, "inbox", _cmd_notes_inbox, parents=[store_options])
    q.add_argument("--user", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # under the usage of the command given, not the top-level one
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "output", None) == "":
            raise _UsageError("-o/--output needs a file name")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OdlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console-script entry point
    # A command makes no cyclic garbage that grows with its input (only its parser), so reference counting frees
    # what it drops.  Freezing what import made also spares the collection at exit from walking it.
    gc.freeze()
    gc.disable()
    raise SystemExit(main())


if __name__ == "__main__":  # python -m odlgraph.cli
    run()
