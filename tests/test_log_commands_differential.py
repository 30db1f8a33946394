"""The log commands print what the library's blocks and sessions give, byte for byte, on random logs.

The expected text is built from ``sessionize(parse_log(...))`` with the command line's formatting
rules as they stood when the commands still read sessions: stdout, stderr and the exit code must all
match. The logs mix a header, blank lines and CRLF line ends, three and four fields, one learner
written with and without surrounding spaces, equal timestamps, unknown activity ids, and a bad line
that may follow skipped ones.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from odlgraph.cli import main
from odlgraph.clusters import (
    connected_components,
    cooccurrence,
    format_clusters,
    maximal_cliques,
    session_visit_sets,
    threshold,
)
from odlgraph.course_format import parse_course
from odlgraph.dot_export import ExportStyle, Overlay, export_dot
from odlgraph.errors import NonAdjacentStep, OdlError
from odlgraph.paths import classify_cycle, coverage, detect_cycles, erase_cycles
from odlgraph.sessions import build_experience, parse_log, sessionize

import oracles

COURSE = """\
NODE LA1|Intro|read|ch1||5
NODE LA2|Exercises|exerc|sheet1||30
NODE LA3|Summary|read|ch1-summary||
NODE LA4|Project|write|essay||
NODE Dict|Dictionary|read|dict|ref|
EDGE LA1|LA2|sequence|
EDGE LA2|LA3|sequence|
EDGE LA3|LA4|sequence|
EDGE LA2|LA1|failure|if the exercises were too hard
"""
ENV, _ = parse_course(COURSE, "course.odlg")
ADJACENT = oracles.step_judge(ENV)

# "u1" also appears with spaces around it, which the reader strips to the same learner.
LEARNERS = ["u1", " u1", "u1 ", "u2", "u10"]
ACTIVITIES = ["LA1", "LA2", "LA3", "LA4", "Dict", " LA2", "GHOST", "gone "]
BAD_LINES = ["u1,soon,LA1", "u2,-4,LA2", "u1,60", "  ,60,LA1", "u1,60,LA1,n1,extra"]
TIMEOUTS = [150, 600, 1800]

COMMANDS = {
    "sessions": ["sessions"],
    "cycles": ["cycles"],
    "cycles-min-interior": ["cycles", "--min-interior", "1"],
    "cycles-strict": ["cycles", "--strict"],
    "erase": ["erase"],
    "coverage": ["coverage"],
    "mine": ["mine", "--min-count", "2"],
    "mine-strategy-paths": ["mine", "--min-count", "1", "--on-strategy-paths"],
    "mine-cliques": ["mine", "--min-count", "1", "--cliques"],
    "export-visit-order": ["export", "--overlay", "visit_order", "--experience", "u1"],
    "export-coverage": ["export", "--overlay", "coverage", "--experience", "u10"],
}


@st.composite
def logs(draw) -> str:
    """A log text; timestamps are multiples of 100 up to 3,000, so one learner often logs two at once."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(LEARNERS),
        st.integers(0, 30).map(lambda t: t * 100),
        st.sampled_from(ACTIVITIES),
        st.one_of(st.none(), st.sampled_from(["", "n1", " n2 "])),
    ), max_size=30))
    lines = [",".join([learner, str(stamp), activity] + ([] if note is None else [note]))
             for learner, stamp, activity, note in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    bad = draw(st.one_of(st.none(), st.sampled_from(BAD_LINES)))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    if draw(st.booleans()):
        lines.insert(0, "learner_id,timestamp,activity_id")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _walks(sessions) -> dict[str, list[str]]:
    """Each learner's activity ids across its sessions, in learner order."""
    walks: dict[str, list[str]] = {}
    for session in sessions:
        walks.setdefault(session.learner_id, []).extend(b.activity_id for b in session.blocks)
    return walks


def _expected_out(argv: list[str], found, timeout: int) -> str:
    command = argv[0]
    if command == "sessions":
        return "".join(
            f"{s.learner_id}\t{s.session_index}\t{s.blocks[0].timestamp}"
            f"\t{s.blocks[-1].timestamp}\t{len(s.blocks)}\t{','.join(b.activity_id for b in s.blocks)}\n"
            for s in found
        )
    if command == "cycles":
        min_interior = int(argv[argv.index("--min-interior") + 1]) if "--min-interior" in argv else 0
        out = []
        for learner, ids in _walks(found).items():
            if "--strict" in argv:
                for position in range(1, len(ids)):
                    if not ADJACENT(ids[position - 1], ids[position]):
                        raise NonAdjacentStep(position, ids[position - 1], ids[position])
            out += [
                f"{learner}\t{cycle.anchor_activity}\t{cycle.start_index}"
                f"\t{cycle.end_index}\t{classify_cycle(cycle, ENV).value}\t{','.join(cycle.interior)}\n"
                for cycle in detect_cycles(ids) if len(cycle.interior) >= min_interior
            ]
        return "".join(out)
    if command == "erase":
        return "".join(f"{learner}\t{','.join(erase_cycles(ids))}\n" for learner, ids in _walks(found).items())
    if command == "coverage":
        walks = _walks(found)
        out = []
        for learner, ids in walks.items():
            report = coverage([ids], ENV)
            out.append(f"{learner}\t{len(report.visited)}\t{report.total}\t{report.ratio:.4f}\n")
        overall = coverage(walks.values(), ENV)
        out.append(f"*\t{len(overall.visited)}\t{overall.total}\t{overall.ratio:.4f}\n")
        return "".join(out)
    if command == "mine":
        visit_sets = session_visit_sets(found, strategy_paths="--on-strategy-paths" in argv)
        graph = threshold(cooccurrence(visit_sets), int(argv[argv.index("--min-count") + 1]))
        return format_clusters(maximal_cliques(graph) if "--cliques" in argv else connected_components(graph))
    learner = argv[argv.index("--experience") + 1]
    mine = [s for s in found if s.learner_id == learner]
    if not mine:
        raise OdlError(f"no sessions for learner {learner!r}")
    overlay = Overlay(argv[argv.index("--overlay") + 1])
    return export_dot(ENV, ExportStyle(overlay), build_experience(mine, ENV))


def naive_sessions(blocks, timeout: int) -> list[tuple]:
    """The session rule spelled out: learners in id order, each one's blocks sorted stably by time, cut at gaps."""
    out = []
    for learner in sorted({b.learner_id for b in blocks}):
        ordered = sorted((b for b in blocks if b.learner_id == learner), key=lambda b: b.timestamp)
        runs = [[ordered[0]]]
        for before, block in zip(ordered, ordered[1:]):
            if block.timestamp - before.timestamp > timeout:
                runs.append([])
            runs[-1].append(block)
        out += [(learner, tuple(run), index) for index, run in enumerate(runs, 1)]
    return out


def expected(argv: list[str], text: str, timeout: int, skip_unknown: bool) -> tuple[int, str, str]:
    """Exit code, stdout and stderr, from the library's blocks and sessions."""
    lines = text.replace("\r\n", "\n").split("\n")[:-1]  # every generated line has its line end
    skipped: list[tuple[int, str]] = []
    try:
        blocks = parse_log(lines, ENV, skip_unknown, skipped)
    except OdlError as exc:
        return 1, "", f"error: {exc}\n"  # the skipped lines are warned about only once the whole log is read
    found = sessionize(blocks, timeout)
    assert [tuple(s) for s in found] == naive_sessions(blocks, timeout)
    warnings = "".join(f"warning: line {n}: unknown activity {a!r} skipped\n" for n, a in skipped)
    try:
        return 0, _expected_out(argv, found, timeout), warnings
    except OdlError as exc:
        return 1, "", warnings + f"error: {exc}\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def folder():
    with tempfile.TemporaryDirectory() as path:
        with open(os.path.join(path, "course.odlg"), "w", encoding="utf-8") as course:
            course.write(COURSE)
        yield path


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=logs(), timeout=st.sampled_from(TIMEOUTS), skip_unknown=st.booleans())
# One learner written three ways, equal timestamps out of order, a skipped line, CRLF and a header.
@example(text="learner_id,timestamp,activity_id\r\nu1,100,LA2\r\n u1,0,LA1\n\nu1 ,100,LA3,n1\nu1,100,GHOST\n"
              "u1,100,LA1\r\nu10,0,Dict\nu10,900,LA4\n", timeout=600, skip_unknown=True)
# A bad line after skipped ones prints its one error line and no warnings.
@example(text="u1,0,GHOST\nu1,60,LA1\nu2,0,gone\nu1,later,LA2\n", timeout=600, skip_unknown=True)
def test_log_commands_print_what_the_library_sessions_give(folder, command, text, timeout, skip_unknown):
    log = os.path.join(folder, "access.csv")
    with open(log, "w", encoding="utf-8", newline="") as file:
        file.write(text)
    argv = [*command, "--log", log, "--course", os.path.join(folder, "course.odlg")]
    argv += ["--timeout", str(timeout)] * (command[0] != "export")  # a drawn walk spans all of its sessions
    argv += ["--skip-unknown"] * skip_unknown
    assert run(argv) == expected(command, text, timeout, skip_unknown)
