from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import random
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import odlgraph
from odlgraph import cli, clusters, course_format, paths, sessions
from odlgraph.errors import NonAdjacentStep
from odlgraph.cli import _build_parser, main
from odlgraph.clusters import DEFAULT_MIN_COOCCURRENCE
from odlgraph.dot_export import Overlay
from odlgraph.notes import NoteAccess
from odlgraph.options import DEFAULT_SESSION_TIMEOUT

from conftest import MERGESORT_COURSE
from dotread import parse_dot

GRAPH_COURSE = """\
# tiny course
NODE LA1|Intro|read|ch1||5
NODE LA2|Exercises|exerc|sheet1||30
NODE LA3|Summary|read|ch1-summary||
NODE Dict|Dictionary|read|dict|ref|
EDGE LA1|LA2|sequence|
EDGE LA2|LA3|sequence|
EDGE LA2|LA1|failure|if the exercises were too hard
"""

LOG = """\
learner_id,timestamp,activity_id
u1,0,LA1
u1,60,LA2
u1,120,Dict
u1,180,LA2
u1,240,LA3
u2,0,LA1
u2,10,LA3
u2,9000,LA3
"""


@pytest.fixture
def course(tmp_path):
    path = tmp_path / "course.odlg"
    path.write_text(GRAPH_COURSE, encoding="utf-8")
    return str(path)


@pytest.fixture
def log(tmp_path):
    path = tmp_path / "access.csv"
    path.write_text(LOG, encoding="utf-8")
    return str(path)


def test_validate_ok(course, capsys):
    assert main(["validate", course]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_python_dash_m_runs_the_cli_in_a_fresh_interpreter(course):
    src = str(Path(odlgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "odlgraph.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=60)

    ok = cli("validate", course)
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "OK\n", "")
    unknown = cli("no-such-command")
    assert unknown.returncode == 2 and "invalid choice: 'no-such-command'" in unknown.stderr and unknown.stdout == ""


def test_validate_broken_course_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.odlg"
    bad.write_text("NODE A|a|read|a||\nEDGE A|B|sequence|\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_parse_tabular_to_dot(tmp_path, capsys):
    src = tmp_path / "course.odlc"
    src.write_text(MERGESORT_COURSE, encoding="utf-8")
    assert main(["parse", str(src), "--to", "dot"]) == 0
    nodes, edges = parse_dot(capsys.readouterr().out)
    assert len(nodes) == 20 and len(edges) == 19


def test_parse_graph_to_tabular_reports_unsupported(course, capsys):
    assert main(["parse", course, "--to", "odlc"]) == 1
    assert "error" in capsys.readouterr().err


def test_the_readme_worked_example_prints_its_line(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Worked example:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    inputs = [re.fullmatch(r"printf '([^']*)' > (\S+)", line).groups() for line in block if line.startswith("printf ")]
    assert [name for _, name in inputs] == ["unit.odlc", "access.csv"]
    for text, name in inputs:
        (tmp_path / name).write_text(text.encode().decode("unicode_escape"), encoding="utf-8")
    [command] = [shlex.split(line)[1:] for line in block if line.startswith("odlgraph ")]
    [printed] = [line[len("# "):] for line in block if line.startswith("# ")]
    monkeypatch.chdir(tmp_path)
    assert command[0] == "cycles" and main(command) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_parse_to_tabular_refuses_ids_a_tabular_line_cannot_hold(tmp_path, capsys):
    src = tmp_path / "course.odlg"
    src.write_text("NODE A|Intro|read|Intro\nNODE B|Essay|write|Essay\nEDGE A|B|sequence|\n", encoding="utf-8")
    out = tmp_path / "out.odlc"
    out.write_bytes(b"Old\nread\tkept\n")
    assert main(["parse", str(src), "--to", "odlc", "-o", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert out.read_bytes() == b"Old\nread\tkept\n"


def test_sessions_listing(course, log, capsys):
    assert main(["sessions", "--log", log, "--course", course, "--timeout", "1800"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "u1\t1\t0\t240\t5\tLA1,LA2,Dict,LA2,LA3",
        "u2\t1\t0\t10\t2\tLA1,LA3",
        "u2\t2\t9000\t9000\t1\tLA3",
    ]


def test_cycles_listing_and_min_interior(course, log, capsys):
    assert main(["cycles", "--log", log, "--course", course, "--timeout", "1800"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "u1\tLA2\t1\t3\treference_detour\tDict",
        "u2\tLA3\t1\t2\treference_detour\t",
    ]
    assert main(["cycles", "--log", log, "--course", course, "--min-interior", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["u1\tLA2\t1\t3\treference_detour\tDict"]


def test_cycles_strict_fails_on_teleport(course, log, tmp_path, capsys):
    # The teleport is u2's, after u1's rows: a writer that streamed rows would leave u1's behind.
    assert main(["cycles", "--log", log, "--course", course, "--strict"]) == 1
    captured = capsys.readouterr()
    assert "no connection" in captured.err and captured.out == ""
    out = tmp_path / "cycles.tsv"
    assert main(["cycles", "--log", log, "--course", course, "--strict", "-o", str(out)]) == 1
    assert not out.exists()


# Rows of u1..u3 in any order, with equal timestamps, gaps over the 60 s timeout, steps between unconnected
# activities (such as LA1 to LA3) and the reference node Dict.
log_rows = st.lists(
    st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 400), st.sampled_from(["LA1", "LA2", "LA3", "Dict"])),
    min_size=1, max_size=40,
)


@given(rows=log_rows, min_interior=st.integers(0, 3))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_walk_commands_print_what_the_library_gives_for_each_experience(course, tmp_path, capsys, rows, min_interior):
    text = "".join(f"{learner},{timestamp},{activity}\n" for learner, timestamp, activity in rows)
    log_path = tmp_path / "drawn.csv"
    log_path.write_text(text, encoding="utf-8")
    env, _ = course_format.parse_course(GRAPH_COURSE, "course.odlg")
    found = sessions.sessionize(sessions.parse_log(text.splitlines(), env), 60)
    experiences = [
        sessions.build_experience([s for s in found if s.learner_id == learner], env)
        for learner in sorted({s.learner_id for s in found})
    ]

    def run(*argv: str) -> tuple[int, str, str]:
        code = main([*argv, "--log", str(log_path), "--course", course, "--timeout", "60"])
        return (code, *capsys.readouterr())

    def cycle_rows(k: int) -> str:
        return "".join(
            f"{e.learner_id}\t{c.anchor_activity}\t{c.start_index}\t{c.end_index}"
            f"\t{paths.classify_cycle(c, env).value}\t{','.join(c.interior)}\n"
            for e in experiences for c in paths.detect_cycles(e) if len(c.interior) >= k
        )

    reports = [paths.coverage([e], env) for e in experiences]
    overall = paths.coverage(experiences, env)
    assert run("cycles") == (0, cycle_rows(0), "")
    assert run("cycles", "--min-interior", str(min_interior)) == (0, cycle_rows(min_interior), "")
    assert run("erase") == (0, "".join(f"{e.learner_id}\t{','.join(paths.erase_cycles(e))}\n" for e in experiences), "")
    assert run("coverage") == (0, "".join(
        f"{e.learner_id}\t{len(r.visited)}\t{r.total}\t{r.ratio:.4f}\n" for e, r in zip(experiences, reports)
    ) + f"*\t{len(overall.visited)}\t{overall.total}\t{overall.ratio:.4f}\n", "")
    # --strict prints the lenient rows, or fails on the first teleport of the first learner who made one.
    teleports = [(i, e.visits) for e in experiences for i, v in enumerate(e.visits) if v.teleport]
    if teleports:
        i, visits = teleports[0]
        error = NonAdjacentStep(i, visits[i - 1].activity_id, visits[i].activity_id)
        assert run("cycles", "--strict") == (1, "", f"error: {error}\n")
    else:
        assert run("cycles", "--strict") == (0, cycle_rows(0), "")


MANY_LEARNERS_LOG = "".join(f"u{n:02},0,LA1\nu{n:02},60,LA2\nu{n:02},120,LA1\n" for n in range(25))


class _Walk(list):
    """A walk of activity ids that a weak reference can follow, as a plain list cannot."""

    __slots__ = ("__weakref__",)


WALK_COMMANDS = [
    pytest.param(["cycles"], id="cycles"),
    pytest.param(["erase"], id="erase"),
    pytest.param(["coverage"], id="coverage"),
    pytest.param(["cycles", "--strict"], id="cycles-strict"),
]


@pytest.mark.parametrize("command", WALK_COMMANDS)
def test_log_commands_hold_one_learners_experience_at_a_time(course, tmp_path, command, capsys, monkeypatch):
    # Every command walks each learner's activity ids; --strict checks their steps, and none builds an experience.
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")
    refs: list[weakref.ref] = []
    most_alive = []
    built = []
    walks, build_experience = cli._walks, sessions.build_experience

    def tracked(*args):
        for learner, walk in walks(*args):
            walk = _Walk(walk)
            refs.append(weakref.ref(walk))
            most_alive.append(sum(ref() is not None for ref in refs))
            yield learner, walk

    def counted(*args):
        experience = build_experience(*args)
        built.append(experience.learner_id)
        return experience

    monkeypatch.setattr(cli, "_walks", tracked)
    monkeypatch.setattr(sessions, "build_experience", counted)
    assert main([*command, "--log", str(log_path), "--course", course]) == 0
    assert len(capsys.readouterr().out.splitlines()) >= 25
    assert len(most_alive) == 25 and max(most_alive) <= 2
    assert built == []


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_cycles_writes_a_batch_before_the_last_learner_is_walked_unless_strict(
    course, tmp_path, capsys, monkeypatch, strict, to_file
):
    # Without --strict no learner can fail the command, so its batches go out as they are made; with it, any
    # learner's step can still fail the command, so every learner is walked before the first byte.
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")  # 25 learners, one detour each, every step connected
    argv = ["cycles", *(["--strict"] if strict else []), "--log", str(log_path), "--course", course]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    events: list[str | None] = []  # None for a learner walked, else the text of a batch written
    detect_cycles, write_text, writelines = paths.detect_cycles, cli.write_text, sys.stdout.writelines

    def walked(ids):
        events.append(None)
        return detect_cycles(ids)

    def logged(batches):
        for batch in batches:
            events.append(batch)
            yield batch

    monkeypatch.setattr(paths, "detect_cycles", walked)
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", 2)  # 13 batches, the last one short
    if to_file:
        out = tmp_path / "cycles.tsv"
        monkeypatch.setattr(cli, "write_text", lambda path, batches: write_text(path, logged(batches)))
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected
    else:
        monkeypatch.setattr(sys.stdout, "writelines", lambda batches: writelines(logged(batches)))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert events.count(None) == 25 and "".join(filter(None, events)) == expected
    first_write = next(i for i, event in enumerate(events) if event is not None)
    last_walk = max(i for i, event in enumerate(events) if event is None)
    assert (first_write < last_walk) is not strict


# u3 steps along edges and through the reference node only, with gaps over any short timeout.
CONNECTED_LOG = "u3,0,LA2\nu3,5000,LA3\nu3,5001,Dict\nu3,9000,LA1\nu1,0,LA1\nu1,30,LA2\n"


@pytest.mark.parametrize("command", [["cycles"], ["cycles", "--strict"], ["erase"], ["coverage"]], ids=" ".join)
@pytest.mark.parametrize("rows", [LOG, CONNECTED_LOG], ids=["teleport", "connected"])
def test_walk_commands_print_the_same_bytes_whatever_the_timeout(course, tmp_path, command, rows, capsys):
    # A walk is the learner's activity ids in visit order, which no session split changes.
    log_path = tmp_path / "walks.csv"
    log_path.write_text(rows, encoding="utf-8")

    def run(argv: list[str], *timeout: str) -> tuple[int, str, str]:
        code = main([*argv, "--log", str(log_path), "--course", course, *timeout])
        return (code, *capsys.readouterr())

    assert run(["sessions"], "--timeout", "1") != run(["sessions"])
    assert run(command, "--timeout", "1") == run(command)


class _Visited(frozenset):
    """A visited set that a weak reference can follow, as a plain frozenset cannot."""


def test_coverage_holds_one_learners_visited_set_at_a_time(course, tmp_path, capsys, monkeypatch):
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")
    refs: list[weakref.ref] = []
    most_alive = []
    coverage = paths.coverage

    def tracked(*args):
        report = coverage(*args)
        visited = _Visited(report.visited)
        refs.append(weakref.ref(visited))
        most_alive.append(sum(ref() is not None for ref in refs))
        return report._replace(visited=visited)

    monkeypatch.setattr(paths, "coverage", tracked)
    assert main(["coverage", "--log", str(log_path), "--course", course]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 26 and out[-1] == "*\t2\t4\t0.5000"
    assert len(most_alive) == 26 and max(most_alive) <= 2


def test_erase_lists_strategy_paths(course, log, capsys):
    assert main(["erase", "--log", log, "--course", course]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "u1\tLA1,LA2,LA3",
        "u2\tLA1,LA3",
    ]


def test_coverage_per_learner_and_overall(course, log, capsys):
    assert main(["coverage", "--log", log, "--course", course]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "u1\t4\t4\t1.0000",
        "u2\t2\t4\t0.5000",
        "*\t4\t4\t1.0000",
    ]


def test_mine_components_and_cliques(course, log, capsys):
    assert main(["mine", "--log", log, "--course", course, "--min-count", "1"]) == 0
    component_out = capsys.readouterr().out
    assert component_out == "component\t1\tDict,LA1,LA2,LA3\n"
    assert main(["mine", "--log", log, "--course", course, "--min-count", "2", "--cliques"]) == 0
    assert capsys.readouterr().out == "clique\t2\tLA1,LA3\n"


def test_clique_guard_error_names_the_remedy(course, tmp_path, capsys, monkeypatch):
    log_path = tmp_path / "two.csv"
    log_path.write_text("u1,0,LA1\nu1,60,LA2\nu2,0,LA2\nu2,60,LA3\n", encoding="utf-8")
    argv = ["mine", "--log", str(log_path), "--course", course, "--min-count", "1"]
    monkeypatch.setattr(clusters, "MAX_REPORTED_CLIQUES", 1)
    assert main([*argv, "--cliques"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: cliques: 2 exceeds guard of 1; drop --cliques to list connected components, which have no guard\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == "component\t1\tLA1,LA2,LA3\n"


def test_mine_refuses_a_cluster_file_that_export_could_not_read(tmp_path, capsys):
    course = tmp_path / "tab.odlg"
    course.write_text("NODE a\tb|A|read|a\nNODE c|C|read|c\nNODE d|D|read|d\n", encoding="utf-8")
    log = tmp_path / "log.csv"
    log.write_text("u1,0,a\tb\nu1,60,c\nu1,120,d\n", encoding="utf-8")
    out = tmp_path / "cl.tsv"
    assert main(["mine", "--log", str(log), "--course", str(course), "--min-count", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "does not read back" in captured.err
    assert not out.exists()


# Two cliques hold the id with a tab; ('b', 'm\tx') comes first in the file, after the good ('b', 'c').
TAB_ID_COURSE = "NODE b|B|read|b\nNODE c|C|read|c\nNODE d|D|read|d\nNODE m\tx|M|read|m\n"
TAB_ID_LOG = "u1,0,b\nu1,60,c\nu2,0,d\nu2,60,m\tx\nu3,0,m\tx\nu3,60,b\n"


@pytest.mark.parametrize("course_text, log_text, guard, error", [
    (TAB_ID_COURSE, TAB_ID_LOG, None, "error: cluster ('b', 'm\\tx') does not read back\n"),
    (GRAPH_COURSE, "u1,0,LA1\nu1,60,LA2\nu2,0,LA2\nu2,60,LA3\n", 1,
     "error: cliques: 2 exceeds guard of 1; drop --cliques to list connected components, which have no guard\n"),
], ids=["tab-in-id", "clique-guard"])
def test_a_refused_clique_listing_leaves_the_old_output(tmp_path, course_text, log_text, guard, error, capsys,
                                                        monkeypatch):
    course = tmp_path / "course.odlg"
    course.write_text(course_text, encoding="utf-8")
    log = tmp_path / "log.csv"
    log.write_text(log_text, encoding="utf-8")
    prev = tmp_path / "prev.tsv"
    prev.write_bytes(b"clique\t1\told,row\n")
    if guard is not None:
        monkeypatch.setattr(clusters, "MAX_REPORTED_CLIQUES", guard)
    argv = ["mine", "--log", str(log), "--course", str(course), "--min-count", "1", "--cliques", "-o", str(prev)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", error)
    assert prev.read_bytes() == b"clique\t1\told,row\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["course.odlg", "log.csv", "prev.tsv"]


def test_mine_cliques_sorts_members_and_rows_as_text(tmp_path, capsys, monkeypatch):
    # Ids LA1..LA12, so "LA10" sorts before "LA9" in a row and across rows.
    course = tmp_path / "unit.odlc"
    course.write_text("Unit\n" + "".join(f"read\tPart {i}\n" for i in range(1, 13)), encoding="utf-8")
    groups = [(9, 10, 11), (1, 9), (2, 10, 12), (9, 10, 12), (3, 11), (10, 11, 12), (1, 2, 3)]
    log = tmp_path / "log.csv"
    log.write_text("".join(f"u{s},{60 * i},LA{n}\n" for s, group in enumerate(groups) for i, n in enumerate(group)),
                   encoding="utf-8")
    env = course_format.parse_tabular(course.read_text(encoding="utf-8"))
    found = sessions.sessionize(sessions.parse_log(log.read_text(encoding="utf-8").splitlines(), env), 1800)
    cut = clusters.threshold(clusters.cooccurrence(clusters.session_visit_sets(found)), 1)
    expected = clusters.format_clusters(clusters.maximal_cliques(cut))
    assert "clique\t1\tLA10,LA11,LA12,LA9\n" in expected
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", 2)
    assert main(["mine", "--log", str(log), "--course", str(course), "--min-count", "1", "--cliques"]) == 0
    assert capsys.readouterr() == (expected, "")


def test_mine_cliques_holds_neither_its_rows_nor_its_clusters(tmp_path, capsys, monkeypatch):
    # The cut is K(2, ..., 2) with 12 parts: 4,096 maximal cliques, one member from each part, of long ids.
    parts = 12
    ids = [[f"unit-{part:02d}-{side}-" + "x" * 200 for side in (0, 1)] for part in range(parts)]
    course = tmp_path / "course.odlg"
    course.write_text("".join(f"NODE {i}|T|read|t\n" for pair in ids for i in pair), encoding="utf-8")
    # Each pair across parts meets in one of these sessions, and no pair within a part does.
    sides = [[0] * parts, [1] * parts]
    sides += [[part >> bit & 1 ^ flip for part in range(parts)] for bit in range(4) for flip in (0, 1)]
    log = tmp_path / "log.csv"
    log.write_text("".join(f"u{s},{60 * part},{ids[part][side]}\n" for s, row in enumerate(sides)
                           for part, side in enumerate(row)), encoding="utf-8")
    out = tmp_path / "cliques.tsv"
    # A batch of rows is held by design; at 256 rows it is 1/16 of this output.
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", 256)
    tracemalloc.start()
    try:
        code = main(["mine", "--log", str(log), "--course", str(course), "--min-count", "1", "--cliques",
                     "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr() == ("", "")
    text = out.read_text(encoding="utf-8")
    assert text.count("\n") == 2 ** parts
    assert peak < len(text)


def test_mine_on_strategy_paths_drops_detour_nodes(course, log, capsys):
    assert main(["mine", "--log", log, "--course", course, "--min-count", "1", "--on-strategy-paths"]) == 0
    out = capsys.readouterr().out
    assert "Dict" not in out


def test_export_visit_order_for_one_learner(course, log, capsys):
    assert main(
        ["export", "--course", course, "--log", log, "--experience", "u1", "--overlay", "visit_order"]
    ) == 0
    nodes, _ = parse_dot(capsys.readouterr().out)
    assert nodes["LA1"]["label"] == "LA1 (1)"
    assert nodes["LA2"]["label"] == "LA2 (2)"
    assert nodes["Dict"]["label"] == "Dict (3)"
    assert nodes["LA3"]["label"] == "LA3 (4)"


def test_export_of_a_learner_without_sessions_is_one_error_line(course, log, tmp_path, capsys):
    out = tmp_path / "walk.dot"
    argv = ["export", "--course", course, "--log", log, "--experience", "u9", "--overlay", "visit_order"]
    assert main([*argv, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no sessions for learner 'u9'\n" and captured.out == ""
    assert not out.exists()


def test_export_needs_experience_inputs(course, capsys):
    assert main(["export", "--course", course, "--overlay", "visit_order"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--log", "{log}"], "--log needs --overlay visit_order or coverage"),
        (["--log", "{log}", "--experience", "u1"], "--log needs --overlay visit_order or coverage"),
        (["--experience", "u1"], "--experience needs --overlay visit_order or coverage"),
        (["--skip-unknown"], "--skip-unknown needs --overlay visit_order or coverage"),
        (["--overlay", "clusters", "--clusters", "{missing}", "--experience", "u1"],
         "--experience needs --overlay visit_order or coverage"),
        (["--clusters", "{missing}"], "--clusters needs --overlay clusters"),
        (["--overlay", "visit_order", "--log", "{log}", "--experience", "u1", "--clusters", "{missing}"],
         "--clusters needs --overlay clusters"),
        (["--overlay", "clusters"], "--overlay clusters needs --clusters FILE"),
    ],
    ids=["log", "log-experience", "experience", "skip-unknown", "clusters-overlay-experience", "clusters",
         "visit-order-clusters", "clusters-overlay-no-clusters"],
)
def test_export_refuses_flags_its_overlay_does_not_read(tmp_path, log, flags, message, capsys):
    # Refused before any file is read: the course and the cluster file do not exist.
    missing = str(tmp_path / "missing")
    argv = ["export", "--course", missing + ".odlg", *flags]
    assert main([a.format(log=log, missing=missing + ".tsv") for a in argv]) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_export_clusters_overlay(course, log, tmp_path, capsys):
    cluster_file = tmp_path / "clusters.tsv"
    assert main(
        ["mine", "--log", log, "--course", course, "--min-count", "2", "--cliques", "-o", str(cluster_file)]
    ) == 0
    assert main(
        ["export", "--course", course, "--overlay", "clusters", "--clusters", str(cluster_file)]
    ) == 0
    nodes, _ = parse_dot(capsys.readouterr().out)
    assert nodes["LA1"].get("fillcolor") == nodes["LA3"].get("fillcolor") is not None


@pytest.mark.parametrize("argv", [
    ["sessions"], ["mine", "--min-count", "1"], ["cycles"], ["erase"], ["coverage"],
    ["export", "--overlay", "visit_order", "--experience", "u1"],
], ids=" ".join)
def test_the_environment_sets_no_timeout(course, log, argv, capsys, monkeypatch):
    # --timeout is the one source of the session gap: no environment variable sets it.
    def run() -> tuple[int, str, str]:
        return (main([*argv, "--log", log, "--course", course]), *capsys.readouterr())

    plain = run()
    assert plain[0] == 0
    for value in ("50", "soon"):
        monkeypatch.setenv("ODL_TIMEOUT", value)
        assert run() == plain


@pytest.mark.parametrize("overlay", [[], ["--overlay", "visit_order", "--experience", "u1"]],
                         ids=["without-overlay", "visit-order"])
def test_export_has_no_timeout(course, overlay, capsys):
    # A drawn walk spans all of its learner's sessions, so export takes no session gap at all.
    assert main(["export", "--course", course, *overlay, "--timeout", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --timeout 60" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--min-count", "0"],
        ["sessions", "--timeout", "0"],
        ["cycles", "--timeout", "0"],
        ["erase", "--timeout", "0"],
        ["coverage", "--timeout", "0"],
        ["mine", "--timeout", "0"],
        pytest.param(["sessions", "--timeout", "-1"], id="sessions--timeout=-1"),
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_bad_flag_values_are_one_line_usage_errors(course, log, argv, capsys):
    assert main([*argv, "--course", course, "--log", log]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sessions", "cycles", "erase", "coverage", "mine"])
@pytest.mark.parametrize(
    "timeout_flag,env_value", [(["--timeout", "0"], None), ([], "soon"), ([], "0")], ids=["flag", "env", "env-zero"]
)
def test_timeout_is_checked_before_any_file_is_read(tmp_path, command, timeout_flag, env_value, capsys, monkeypatch):
    # A bad --timeout is refused before the missing course is opened; a bad ODL_TIMEOUT is
    # not a timeout at all, so the command goes on to fail on the missing course.
    if env_value is not None:
        monkeypatch.setenv("ODL_TIMEOUT", env_value)
    missing = str(tmp_path / "missing")
    code = main([command, "--course", missing + ".odlg", "--log", missing + ".csv", *timeout_flag])
    err = capsys.readouterr().err
    assert (code, err.split(": ")[0]) == ((2, "usage error") if timeout_flag else (1, "error"))
    assert err.count("\n") == 1


NOTE = '{"access":"all","attachments":[],"body":"","kind":"note","learner_id":"u1","node_id":"LA1","note_id":"n1","timestamp":0}\n'
BAD_STORES = {
    "store-truncated": (NOTE + NOTE[:30] + "\n").encode(),
    "store-unknown-kind": (NOTE + '{"kind":"banana"}\n').encode(),
    "store-missing-field": (NOTE + NOTE.replace('"learner_id":"u1",', "").replace("n1", "n2")).encode(),
    "store-not-utf8": NOTE.encode() + b"\xff\n",
    "store-int-note-id": (NOTE + NOTE.replace('"note_id":"n1"', '"note_id":5')).encode(),
    "store-bool-timestamp": (NOTE + NOTE.replace("n1", "n2").replace('"timestamp":0', '"timestamp":false')).encode(),
    "store-negative-sent-at": (NOTE + '{"kind":"message","message_id":"m1","note_refs":["n1"],"recipients":["u2"],'
                                      '"sender_id":"u1","sent_at":-5}\n').encode(),
}
NOTE_COMMANDS = {
    "list": ["--node", "LA1", "--requester", "u1"],
    "inbox": ["--user", "u1"],
    "add": ["--node", "LA1", "--learner", "u1"],
    "send": ["--sender", "u1", "--to", "u2", "--refs", "n1"],
}


@pytest.mark.parametrize("subcommand", list(NOTE_COMMANDS))
@pytest.mark.parametrize("store_name", list(BAD_STORES))
def test_bad_stores_are_one_line_errors(course, tmp_path, subcommand, store_name, capsys):
    store = tmp_path / "notes.jsonl"
    store.write_bytes(BAD_STORES[store_name])
    before = store.read_bytes()
    argv = ["notes", subcommand, "--store", str(store), "--course", course, *NOTE_COMMANDS[subcommand]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and err.count("\n") == 1
    assert store.read_bytes() == before


DEEP = "[" * 100_000 + "]" * 100_000  # past the depth the interpreter's recursion limit lets JSON decode
DEEP_LINES = {"whole line": DEEP, "field value": NOTE[:-1].replace('"body":""', f'"body":{DEEP}').replace("n1", "n2")}


@pytest.mark.parametrize("subcommand", list(NOTE_COMMANDS))
@pytest.mark.parametrize("deep", list(DEEP_LINES))
@pytest.mark.parametrize("good_lines", [0, 1])
def test_a_store_line_nested_too_deeply_is_one_error_line_naming_it(course, tmp_path, subcommand, deep, good_lines,
                                                                    capsys):
    store = tmp_path / "notes.jsonl"
    store.write_text(NOTE * good_lines + DEEP_LINES[deep] + "\n", encoding="utf-8")
    before = store.read_bytes()
    argv = ["notes", subcommand, "--store", str(store), "--course", course, *NOTE_COMMANDS[subcommand]]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: line {good_lines + 1}: invalid JSON: nested too deeply\n")
    assert store.read_bytes() == before


@pytest.mark.parametrize("subcommand", list(NOTE_COMMANDS))
def test_store_message_pointing_at_a_missing_note_is_a_data_error(course, tmp_path, subcommand, capsys):
    store = tmp_path / "notes.jsonl"
    message = ('{"kind":"message","message_id":"m1","note_refs":["n9"],"recipients":["u1"],"sender_id":"u2",'
               '"sent_at":0}\n')
    store.write_text(NOTE + message, encoding="utf-8")
    before = store.read_bytes()
    argv = ["notes", subcommand, "--store", str(store), "--course", course, *NOTE_COMMANDS[subcommand]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: unresolved reference: 'n9' (line 2)\n"
    assert store.read_bytes() == before


REPEATED_IDS = {
    "note": (NOTE + NOTE, "error: duplicate note id: 'n1' (line 2)\n"),
    "message": (NOTE + 2 * ('{"kind":"message","message_id":"m1","note_refs":["n1"],"recipients":["u1"],'
                            '"sender_id":"u2","sent_at":0}\n'), "error: duplicate message id: 'm1' (line 3)\n"),
}


@pytest.mark.parametrize("subcommand", list(NOTE_COMMANDS))
@pytest.mark.parametrize("repeated", list(REPEATED_IDS))
def test_a_store_that_repeats_an_id_names_the_line(course, tmp_path, subcommand, repeated, capsys):
    store = tmp_path / "notes.jsonl"
    store.write_text(REPEATED_IDS[repeated][0], encoding="utf-8")
    before = store.read_bytes()
    argv = ["notes", subcommand, "--store", str(store), "--course", course, *NOTE_COMMANDS[subcommand]]
    assert main(argv) == 1
    assert capsys.readouterr().err == REPEATED_IDS[repeated][1]
    assert store.read_bytes() == before


@pytest.mark.parametrize("stored_body", [None, "\\udcff"], ids=["from-the-flag", "json-escape-in-the-store"])
def test_text_that_is_not_utf8_is_a_data_error_that_leaves_the_store(course, tmp_path, stored_body, capsys):
    # A shell passes the byte 0xff of `--body $'\xff'` to Python as the lone surrogate U+DCFF.
    store = tmp_path / "notes.jsonl"
    store.write_text(NOTE + (NOTE.replace('"n1"', '"n2"').replace('""', f'"{stored_body}"') if stored_body else ""),
                     encoding="utf-8")
    before = store.read_bytes()
    argv = ["notes", "add", "--store", str(store), "--course", course, "--node", "LA1", "--learner", "u1",
            "--body", "plain" if stored_body else "\udcff"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the store as UTF-8: line ") and err.count("\n") == 1
    assert "'\\udcff'" in err
    assert store.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["course.odlg", "notes.jsonl"]


def test_a_store_that_cannot_be_written_is_named_as_given_on_every_run(course, tmp_path, capsys):
    store = tmp_path / "missing" / "notes.jsonl"
    argv = ["notes", "add", "--store", str(store), "--course", course, "--node", "LA1", "--learner", "u1"]
    errors = []
    for _ in range(2):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("error: [Errno ") and errors[0].count("\n") == 1
    assert errors[0].endswith(f": {str(store)!r}\n")


def test_negative_note_timestamp_is_a_usage_error_before_any_file_is_read(tmp_path, capsys):
    store = tmp_path / "notes.jsonl"
    argv = ["notes", "add", "--store", str(store), "--course", str(tmp_path / "missing.odlg"),
            "--node", "LA1", "--learner", "u1", "--timestamp", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage error: --timestamp must be non-negative\n"
    assert not store.exists()


def test_negative_sent_at_is_a_usage_error_before_any_file_is_read(tmp_path, capsys):
    store = tmp_path / "notes.jsonl"
    argv = ["notes", "send", "--store", str(store), "--course", str(tmp_path / "missing.odlg"),
            "--sender", "u1", "--to", "u2", "--refs", "n1", "--sent-at", "-5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage error: --sent-at must be non-negative\n"
    assert not store.exists()


def test_log_lines_end_at_line_breaks_only(course, tmp_path, capsys):
    # Lines end at "\r\n", "\r" or "\n", as when the log is opened as text; U+2028,
    # U+0085 and \x0c also end a line for str.splitlines, but not in a log.
    log_path = tmp_path / "odd.csv"
    log_path.write_text("learner_id,timestamp,activity_id\nu1,5,LA1\nu\u2028v,6,LA1\nw\x85\x0cx,7,LA2\r\n",
                        encoding="utf-8", newline="")
    assert main(["sessions", "--log", str(log_path), "--course", course]) == 0
    assert capsys.readouterr().out == "u1\t1\t5\t5\t1\tLA1\nu\u2028v\t1\t6\t6\t1\tLA1\nw\x85\x0cx\t1\t7\t7\t1\tLA2\n"

    log_path.write_text("learner_id,timestamp,activity_id\ru1,5,LA1\ru1,65,LA2\r", encoding="utf-8", newline="")
    assert main(["sessions", "--log", str(log_path), "--course", course]) == 0
    assert capsys.readouterr().out == "u1\t1\t5\t65\t2\tLA1,LA2\n"

    log_path.write_text("u\u2028v,6,LA1\ru1,soon,LA1\n", encoding="utf-8", newline="")
    assert main(["sessions", "--log", str(log_path), "--course", course]) == 1
    assert capsys.readouterr().err == "error: line 2: bad timestamp 'soon'\n"


GRAPH_RECORDS = GRAPH_COURSE.split("\n", 1)[1]  # the course without its comment line: the first line is a NODE
BOM_CASES = {
    "log": ("access.csv", LOG, ["sessions", "--log", "{file}", "--course", "{course}"]),
    "odlg": ("c.odlg", GRAPH_RECORDS, ["parse", "{file}", "--to", "odlg"]),
    "odlg-without-suffix": ("c", GRAPH_RECORDS, ["parse", "{file}", "--to", "odlg"]),
    "odlc": ("c.odlc", MERGESORT_COURSE, ["parse", "{file}", "--to", "odlg"]),
    "clusters": ("c.tsv", "clique\t2\tLA1,LA3\n", ["export", "--course", "{course}", "--overlay", "clusters",
                                                    "--clusters", "{file}"]),
    "store": ("s.jsonl", NOTE, ["notes", "list", "--store", "{file}", "--course", "{course}", "--node", "LA1",
                                "--requester", "u2"]),
}


@pytest.mark.parametrize("case", list(BOM_CASES))
def test_a_leading_byte_order_mark_is_not_part_of_the_file(course, tmp_path, case, capsys):
    # Spreadsheet tools and some editors start UTF-8 files with U+FEFF; every reader reads past it.
    name, text, argv = BOM_CASES[case]
    outputs = []
    for mark in ("", "\ufeff"):
        path = tmp_path / name
        path.write_text(mark + text, encoding="utf-8")
        assert main([a.format(file=path, course=course) for a in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out and "\ufeff" not in captured.out
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["sessions", "cycles", "erase", "coverage", "mine", "export"])
def test_a_bad_line_after_skipped_lines_prints_its_error_alone(course, tmp_path, command, capsys):
    # Skipped lines are warned about once the whole log is read, so a bad line stops the command first.
    log_path = tmp_path / "noisy.csv"
    log_path.write_text("u1,0,LA1\nu1,5,GHOST\nu1,6,GHOST\nu1,7,LA2\nu1,soon,LA3\nu1,9,LA3\n", encoding="utf-8")
    argv = [command, "--log", str(log_path), "--course", course, "--skip-unknown"]
    if command == "export":
        argv += ["--overlay", "visit_order", "--experience", "u1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: line 5: bad timestamp 'soon'\n")


def test_negative_min_interior_is_a_usage_error_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["cycles", "--log", missing + ".csv", "--course", missing + ".odlg", "--min-interior", "-1"]) == 2
    assert capsys.readouterr() == ("", "usage error: --min-interior must be non-negative\n")


@pytest.mark.parametrize("command", ["sessions", "cycles", "erase", "coverage"])
def test_output_written_in_batches_is_the_whole_output(course, tmp_path, command, capsys, monkeypatch):
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")
    argv = [command, "--log", str(log_path), "--course", course]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    assert whole.count("\n") >= 25
    monkeypatch.setattr(cli, "_PIECES_PER_WRITE", 2)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    out = tmp_path / "out.tsv"
    assert main([*argv, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == whole


class _Marker:
    """Stands in a log row's note field, so that a weak reference tells whether the row is still held."""

    __slots__ = ("__weakref__",)


def _mark_rows(monkeypatch) -> dict[str, list[weakref.ref]]:
    """Make the log reader put a marker in each row; by learner, weak references to the markers of its rows."""
    refs: dict[str, list[weakref.ref]] = {}
    iter_rows = sessions.iter_rows

    def marked(*args):
        for learner, stamp, activity, _ in iter_rows(*args):
            marker = _Marker()
            refs.setdefault(learner, []).append(weakref.ref(marker))
            yield learner, stamp, activity, marker

    monkeypatch.setattr(sessions, "iter_rows", marked)
    return refs


def _held(refs: dict[str, list[weakref.ref]]) -> list[str]:
    """The learners some of whose rows are still held."""
    return sorted(learner for learner, marks in refs.items() if any(mark() is not None for mark in marks))


@pytest.mark.parametrize("command", [
    ["sessions"], ["cycles"], ["cycles", "--strict"], ["erase"], ["coverage"], ["mine", "--min-count", "1"],
    ["mine", "--min-count", "1", "--on-strategy-paths"], ["export", "--overlay", "coverage", "--experience", "u00"],
], ids=" ".join)
def test_log_commands_build_no_block_or_session(course, tmp_path, command, capsys, monkeypatch):
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")

    def refused(*args, **kwargs):
        raise AssertionError("a log command built blocks or sessions")

    for name in ("iter_blocks", "parse_log", "sessionize"):
        monkeypatch.setattr(sessions, name, refused)
    monkeypatch.setattr(sessions, "ControlBlock", refused)
    monkeypatch.setattr(sessions, "Session", refused)
    assert main([*command, "--log", str(log_path), "--course", course]) == 0


@pytest.mark.parametrize("command", WALK_COMMANDS)
def test_log_commands_let_go_of_each_learners_sessions_once_used(course, tmp_path, command, capsys, monkeypatch):
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")
    refs = _mark_rows(monkeypatch)
    held_at_walk = []
    walks = cli._walks

    def tracked(*args):
        for learner, walk in walks(*args):
            held_at_walk.append(_held(refs))
            yield learner, walk

    monkeypatch.setattr(cli, "_walks", tracked)
    assert main([*command, "--log", str(log_path), "--course", course]) == 0
    # When a learner is walked, the rows of every learner before it are gone.
    learners = [f"u{n:02}" for n in range(25)]
    assert held_at_walk == [learners[k:] for k in range(25)]


@pytest.mark.parametrize(
    "strategy_paths,clusters_out", [(False, "component\t25\tLA1,LA2\n"), (True, "")], ids=["visits", "strategy-paths"]
)
def test_mine_lets_go_of_each_session_once_its_visit_set_is_read(
    course, tmp_path, strategy_paths, clusters_out, capsys, monkeypatch
):
    log_path = tmp_path / "many.csv"
    log_path.write_text(MANY_LEARNERS_LOG, encoding="utf-8")
    refs = _mark_rows(monkeypatch)
    held_at_session = []
    visit_sets = clusters.visit_sets

    def tracked(walks, strategy_paths=False):
        def read():
            for key, ids in walks:
                held_at_session.append(_held(refs))
                yield key, ids

        return visit_sets(read(), strategy_paths)

    monkeypatch.setattr(clusters, "visit_sets", tracked)
    argv = ["mine", "--log", str(log_path), "--course", course, "--min-count", "25"]
    assert main(argv + ["--on-strategy-paths"] * strategy_paths) == 0
    assert capsys.readouterr().out == clusters_out  # each walk LA1,LA2,LA1 erases to LA1
    # Each learner has one session; when it is read, the rows of every learner before it are gone.
    learners = [f"u{n:02}" for n in range(25)]
    assert held_at_session == [learners[k:] for k in range(25)]


def test_mine_components_flag_is_gone(course, log, capsys):
    assert main(["mine", "--log", log, "--course", course, "--components"]) == 2
    assert "unrecognized arguments: --components" in capsys.readouterr().err


def test_export_takes_the_shared_log_options(course, tmp_path, capsys):
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("u1,0,LA1\nu1,5,GHOST\nu1,9,LA2\n", encoding="utf-8")
    out = tmp_path / "walk.dot"
    argv = ["export", "--course", course, "--log", str(noisy), "--experience", "u1", "--overlay", "coverage"]
    assert main([*argv, "--skip-unknown", "-o", str(out)]) == 0
    assert "GHOST" in capsys.readouterr().err
    nodes, _ = parse_dot(out.read_text(encoding="utf-8"))
    assert nodes["LA1"].get("style") == nodes["LA2"].get("style") == "filled" and "style" not in nodes["LA3"]


@pytest.mark.parametrize("overlay", ["visit_order", "coverage"])
def test_export_sessionizes_only_the_drawn_learner_and_draws_what_the_whole_log_gives(
    course, tmp_path, overlay, capsys, monkeypatch
):
    from odlgraph.dot_export import ExportStyle, export_dot

    rng = random.Random(11)
    names = ["LA1", "LA2", "LA3", "Dict", "GHOST"]
    rows = [f"u{rng.randrange(6)},{rng.randrange(4000)},{rng.choice(names)}" for _ in range(300)]
    log_path = tmp_path / "many.csv"
    log_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    env, _ = course_format.parse_course(Path(course).read_text(encoding="utf-8"), course)
    # The rule before: sessionize every learner, then keep the drawn one's sessions.
    every_session = sessions.sessionize(sessions.parse_log(rows, env, skip_unknown=True), 600)
    warnings = "".join(
        f"warning: line {n}: unknown activity 'GHOST' skipped\n" for n, row in enumerate(rows, 1) if "GHOST" in row
    )
    learners_grouped: list[set[str]] = []
    group_by_learner = sessions.group_by_learner

    def tracked(rows):
        rows = list(rows)
        learners_grouped.append({row[0] for row in rows})
        return group_by_learner(rows)

    monkeypatch.setattr(sessions, "group_by_learner", tracked)
    for learner in sorted({s.learner_id for s in every_session}):
        experience = sessions.build_experience([s for s in every_session if s.learner_id == learner], env)
        argv = ["export", "--course", course, "--log", str(log_path), "--experience", learner,
                "--overlay", overlay, "--skip-unknown"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == export_dot(env, ExportStyle(Overlay(overlay)), experience)
        assert captured.err == warnings
        assert learners_grouped.pop() == {learner}


def test_a_course_is_parsed_once_and_found_without_its_suffix(tmp_path, capsys, monkeypatch):
    tabular = tmp_path / "mergesort.odlc"
    tabular.write_text(MERGESORT_COURSE, encoding="utf-8")
    graph = tmp_path / "tiny.odlg"
    graph.write_text(GRAPH_COURSE, encoding="utf-8")
    calls = []
    read_document = course_format.read_document
    monkeypatch.setattr(course_format, "read_document", lambda text: calls.append(text) or read_document(text))
    assert main(["parse", str(tabular), "--to", "odlg"]) == 0
    assert len(calls) == 1
    capsys.readouterr()
    for original in (tabular, graph):
        plain = tmp_path / original.stem
        plain.write_bytes(original.read_bytes())
        outputs = []
        for path in (original, plain):
            assert main(["parse", str(path), "--to", "odlg"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("# ")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["sessions", "--log", "{bad}", "--course", "{course}"],
        ["export", "--course", "{course}", "--overlay", "clusters", "--clusters", "{bad}"],
    ],
    ids=["course", "log", "clusters"],
)
def test_non_utf8_files_are_one_line_errors(course, tmp_path, argv, capsys):
    bad = tmp_path / "bad.odlg"
    bad.write_bytes(b"# fine\n# still fine\nNODE LA1|caf\xe9|read|x||\n")
    assert main([a.format(bad=bad, course=course) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and "UTF-8" in err and err.count("\n") == 1


def test_validate_keeps_a_u2028_inside_a_graph_field(tmp_path, capsys):
    path = tmp_path / "c.odlg"
    path.write_text("NODE LA1|Intro\u2028more|read|ch1||\nNODE LA2|Next|read|ch2||\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_parse_keeps_a_u0085_inside_a_tabular_line(tmp_path, capsys):
    path = tmp_path / "c.odlc"
    path.write_text("Course\nread\tIntro\x85x\n", encoding="utf-8", newline="")
    assert main(["parse", str(path), "--to", "odlg"]) == 0
    records = [line for line in capsys.readouterr().out.split("\n") if line.startswith("NODE ")]
    assert records == ["NODE LA1|Intro\x85x|read|Intro\x85x||"]


def test_parse_writes_durations_that_read_back_equal(tmp_path, capsys):
    path = tmp_path / "c.odlg"
    path.write_text("NODE A|a|read|a||12.3456789\nNODE B|b|read|b||1234567\nNODE C|c|read|c||12.5\n"
                    "NODE D|d|read|d||30\n", encoding="utf-8")
    assert main(["parse", str(path), "--to", "odlg"]) == 0
    out = capsys.readouterr().out
    assert [line.rsplit("|", 1)[1] for line in out.split("\n") if line.startswith("NODE ")] == [
        "12.3456789", "1234567.0", "12.5", "30"]
    again = course_format.parse_graph_file(out)
    assert [a.expected_duration_minutes for a in again.activities.values()] == [12.3456789, 1234567, 12.5, 30]


def test_skip_unknown_warns_and_continues(course, tmp_path, capsys):
    log_path = tmp_path / "noisy.csv"
    log_path.write_text("u1,0,LA1\nu1,5,GHOST\nu1,9,LA2\n", encoding="utf-8")
    assert main(["sessions", "--log", str(log_path), "--course", course]) == 1
    capsys.readouterr()
    assert main(["sessions", "--log", str(log_path), "--course", course, "--skip-unknown"]) == 0
    captured = capsys.readouterr()
    assert "GHOST" in captured.err
    assert "u1\t1\t0\t9\t2\tLA1,LA2" in captured.out


def test_notes_workflow(course, tmp_path, capsys):
    store = str(tmp_path / "notes.jsonl")
    assert main(
        ["notes", "add", "--store", store, "--course", course, "--node", "LA2",
         "--learner", "u1", "--timestamp", "100", "--access", "all",
         "--body", "Here is the list of adjectives asked for", "--attach", "file://adjectives.txt"]
    ) == 0
    note_id = capsys.readouterr().out.strip()
    assert note_id == "n1"

    assert main(
        ["notes", "list", "--store", store, "--course", course, "--node", "LA2", "--requester", "u2"]
    ) == 0
    assert "Here is the list of adjectives" in capsys.readouterr().out

    assert main(
        ["notes", "send", "--store", store, "--course", course, "--sender", "u1",
         "--to", "*", "--refs", "n1", "--sent-at", "120"]
    ) == 0
    message_id = capsys.readouterr().out.strip()
    assert message_id == "m1"

    assert main(["notes", "inbox", "--store", store, "--course", course, "--user", "u2"]) == 0
    inbox_line = capsys.readouterr().out.strip()
    assert inbox_line == "m1\t120\tu1\t*\tn1"

    records = [json.loads(l) for l in Path(store).read_text(encoding="utf-8").splitlines()]
    assert [r["kind"] for r in records] == ["note", "message"]


@pytest.mark.parametrize("kind,flag,argv", [
    ("note", "--note-id", ["add", "--node", "LA1", "--learner", "u1", "--access", "all"]),
    ("message", "--message-id", ["send", "--sender", "u1", "--to", "u2", "--refs", "n1"]),
], ids=["note", "message"])
def test_notes_store_a_given_id_once_and_refuse_an_empty_one(course, tmp_path, kind, flag, argv, capsys):
    store = tmp_path / "notes.jsonl"
    shared = ["--store", str(store), "--course", course]
    assert main(["notes", "add", *shared, "--node", "LA1", "--learner", "u1", "--access", "all"]) == 0
    capsys.readouterr()
    command = ["notes", argv[0], *shared, *argv[1:]]
    assert main([*command, flag, "x7"]) == 0
    assert capsys.readouterr() == ("x7\n", "")
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    assert [r[f"{kind}_id"] for r in records if r["kind"] == kind] == (["x7"] if kind == "message" else ["n1", "x7"])

    before = store.read_bytes()
    assert main([*command, flag, "x7"]) == 1
    assert capsys.readouterr() == ("", f"error: duplicate {kind} id: 'x7'\n")
    assert store.read_bytes() == before
    # An empty id is refused before the course or the store is read: neither exists here.
    missing = str(tmp_path / "missing")
    assert main(["notes", argv[0], "--store", missing + ".jsonl", "--course", missing + ".odlg", *argv[1:], flag, ""]) == 2
    assert capsys.readouterr() == ("", f"usage error: {flag} needs an id\n")


@pytest.mark.parametrize("flag,argv,given,held", [
    *(("--note-id", ["add", "--node", "LA1", "--learner", "u1", "--access", "all"], f"x{c}y", c) for c in ",\t\r\n"),
    *(("--message-id", ["send", "--sender", "u1", "--to", "u2", "--refs", "n1"], f"m{c}", c) for c in "\t\r\n"),
])
def test_notes_refuse_an_id_their_own_rows_would_split(course, tmp_path, flag, argv, given, held, capsys):
    # notes send --refs splits note ids at commas; notes list and notes inbox write tab-separated lines.
    store = tmp_path / "notes.jsonl"
    shared = ["--store", str(store), "--course", course]
    assert main(["notes", "add", *shared, "--node", "LA1", "--learner", "u1", "--access", "all"]) == 0
    capsys.readouterr()
    before = store.read_bytes()
    assert main(["notes", argv[0], *shared, *argv[1:], flag, given]) == 2
    assert capsys.readouterr() == ("", f"usage error: {flag} cannot hold {held!r}\n")
    assert store.read_bytes() == before
    # Refused before the course or the store is read: neither exists here.
    missing = str(tmp_path / "missing")
    assert main(["notes", argv[0], "--store", missing + ".jsonl", "--course", missing + ".odlg", *argv[1:],
                 flag, given]) == 2
    assert capsys.readouterr() == ("", f"usage error: {flag} cannot hold {held!r}\n")


def test_notes_send_keeps_a_message_id_holding_a_comma(course, tmp_path, capsys):
    # An inbox row splits at tabs only, so a comma in a message id reads back whole.
    shared = ["--store", str(tmp_path / "notes.jsonl"), "--course", course]
    assert main(["notes", "add", *shared, "--node", "LA1", "--learner", "u1", "--access", "all"]) == 0
    assert main(["notes", "send", *shared, "--sender", "u1", "--to", "u2", "--refs", "n1", "--message-id", "m,1"]) == 0
    capsys.readouterr()
    assert main(["notes", "inbox", *shared, "--user", "u2"]) == 0
    assert capsys.readouterr().out == "m,1\t0\tu1\tu2\tn1\n"


REQUIRED_ARGS = {
    "validate": ["c.odlg"],
    "parse": ["c.odlg", "--to", "odlg"],
    **{command: ["--log", "l.csv", "--course", "c.odlg"] for command in ("sessions", "cycles", "erase", "coverage",
                                                                         "mine")},
    "export": ["--course", "c.odlg"],
    "notes add": ["--store", "s.jsonl", "--course", "c.odlg", "--node", "LA1", "--learner", "u1"],
    "notes list": ["--store", "s.jsonl", "--course", "c.odlg", "--node", "LA1", "--requester", "u1"],
    "notes send": ["--store", "s.jsonl", "--course", "c.odlg", "--sender", "u1", "--to", "u2", "--refs", "n1"],
    "notes inbox": ["--store", "s.jsonl", "--course", "c.odlg", "--user", "u1"],
}


@pytest.mark.parametrize("command", REQUIRED_ARGS)
def test_an_unknown_flag_is_named_under_its_commands_usage(command, capsys):
    assert set(REQUIRED_ARGS) == set(CLI_OPTIONS)
    assert main([*command.split(), *REQUIRED_ARGS[command], "--timeout-typo", "60"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: odlgraph {command} [-h]")
    assert err.endswith(f"\nodlgraph {command}: error: unrecognized arguments: --timeout-typo 60\n")


def test_notes_send_stores_explicit_recipients_sorted_once_each(course, tmp_path, capsys):
    store = tmp_path / "notes.jsonl"
    shared = ["--store", str(store), "--course", course]
    assert main(["notes", "add", *shared, "--node", "LA1", "--learner", "u1", "--access", "all"]) == 0
    assert main(["notes", "send", *shared, "--sender", "u1", "--to", "u3,,u2,u3", "--refs", "n1"]) == 0
    assert capsys.readouterr().out == "n1\nm1\n"
    assert '"recipients":["u2","u3"]' in store.read_text(encoding="utf-8").splitlines()[-1]
    assert main(["notes", "inbox", *shared, "--user", "u2"]) == 0
    assert capsys.readouterr().out == "m1\t0\tu1\tu2,u3\tn1\n"


def test_notes_send_to_no_recipient_is_one_error_line_and_stores_nothing(course, tmp_path, capsys):
    store = tmp_path / "notes.jsonl"
    shared = ["--store", str(store), "--course", course]
    assert main(["notes", "add", *shared, "--node", "LA1", "--learner", "u1", "--access", "all"]) == 0
    capsys.readouterr()
    before = store.read_bytes()
    assert main(["notes", "send", *shared, "--sender", "u1", "--to", ",", "--refs", "n1"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: a message must name at least one recipient\n")
    assert store.read_bytes() == before


def test_notes_send_to_mixing_broadcast_and_ids_is_a_usage_error_and_stores_nothing(course, tmp_path, capsys):
    store = tmp_path / "notes.jsonl"
    shared = ["--store", str(store), "--course", course]
    assert main(["notes", "add", *shared, "--node", "LA1", "--learner", "u1", "--access", "all"]) == 0
    capsys.readouterr()
    before = store.read_bytes()
    assert main(["notes", "send", *shared, "--sender", "u1", "--to", "*,u2", "--refs", "n1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
    assert store.read_bytes() == before


def test_notes_private_note_hidden_and_unsendable(course, tmp_path, capsys):
    store = str(tmp_path / "notes.jsonl")
    main(["notes", "add", "--store", store, "--course", course, "--node", "LA1",
          "--learner", "u1", "--access", "private", "--body", "secret"])
    capsys.readouterr()
    assert main(["notes", "list", "--store", store, "--course", course,
                 "--node", "LA1", "--requester", "u2", "--role", "tutor"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["notes", "send", "--store", store, "--course", course, "--sender", "u2",
                 "--to", "*", "--refs", "n1"]) == 1
    assert "may not reference" in capsys.readouterr().err


def test_output_to_file(course, log, tmp_path):
    out = tmp_path / "sessions.tsv"
    assert main(["sessions", "--log", log, "--course", course, "--timeout", "1800", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("u1\t1\t0\t240\t5")


@pytest.mark.parametrize("argv", [
    ["parse", "{missing}.odlg", "--to", "odlg", "-o", ""],
    ["sessions", "--log", "{missing}.csv", "--course", "{missing}.odlg", "--output", ""],
    ["export", "--course", "{missing}.odlg", "-o", ""],
], ids=lambda argv: argv[0])
def test_an_empty_output_name_is_a_usage_error_before_any_file_is_read(tmp_path, argv, capsys):
    assert main([a.format(missing=tmp_path / "missing") for a in argv]) == 2
    assert capsys.readouterr() == ("", "usage error: -o/--output needs a file name\n")


def test_a_closed_stdout_is_one_error_line(course, tmp_path, capsys, monkeypatch):
    # A shell that runs `odlgraph validate course.odlg >&-` starts Python with sys.stdout set to None.
    out = tmp_path / "course.odlg"
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["validate", course]) == 1
    assert capsys.readouterr().err == "error: standard output is closed\n"
    assert main(["parse", course, "--to", "odlg", "-o", str(out)]) == 0
    assert capsys.readouterr().err == "" and "NODE LA1|Intro|" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["notes", "add", "--node", "LA2", "--learner", "u2"],
    ["notes", "send", "--sender", "u1", "--to", "u2", "--refs", "n1"],
], ids=["add", "send"])
def test_notes_add_and_send_with_stdout_closed_store_nothing(course, tmp_path, argv, capsys, monkeypatch):
    # The new id has nowhere to go, so the record is not stored: a retry once stdout is open stores it once.
    store = tmp_path / "notes.jsonl"
    store.write_text(NOTE, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", None)
    assert main([*argv, "--store", str(store), "--course", course]) == 1
    assert capsys.readouterr().err == "error: standard output is closed\n"
    assert store.read_bytes() == NOTE.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["course.odlg", "notes.jsonl"]


# A course whose DOT text is well over 4 kB, and the old -o file it must not damage.
WIDE_COURSE = GRAPH_COURSE + "".join(f"NODE W{i}|Wide unit {i}|read|w{i}||\n" for i in range(1000))
OLD_OUTPUT = b"digraph old {}\n"


def _dot_output(tmp_path: Path, capsys) -> tuple[str, str, Path]:
    """The wide course's path, its DOT text on stdout, and an old -o file beside it."""
    course = tmp_path / "wide.odlg"
    course.write_text(WIDE_COURSE, encoding="utf-8")
    assert main(["parse", str(course), "--to", "dot"]) == 0
    dot = capsys.readouterr().out
    assert len(dot.encode()) > 4 * 4096
    out = tmp_path / "out.dot"
    out.write_bytes(OLD_OUTPUT)
    return str(course), dot, out


def test_a_write_past_the_file_size_limit_keeps_the_old_output(tmp_path, capsys):
    resource = pytest.importorskip("resource")
    course, _, out = _dot_output(tmp_path, capsys)
    src = str(Path(odlgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "odlgraph.cli", "parse", course, "--to", "dot", "-o", str(out)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)),  # this child only
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out)!r}\n"
    assert out.read_bytes() == OLD_OUTPUT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "wide.odlg"]


def test_a_failing_fsync_keeps_the_old_output(tmp_path, capsys, monkeypatch):
    course, _, out = _dot_output(tmp_path, capsys)

    def fail(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "fsync", fail)
    assert main(["parse", course, "--to", "dot", "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: {str(out)!r}\n")
    assert out.read_bytes() == OLD_OUTPUT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "wide.odlg"]


def test_output_through_a_symlink_updates_the_file_it_points_to(tmp_path, capsys):
    course, dot, out = _dot_output(tmp_path, capsys)
    link = tmp_path / "link.dot"
    link.symlink_to(out.name)
    assert main(["parse", course, "--to", "dot", "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == out.name
    assert out.read_text(encoding="utf-8") == dot
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.dot", "out.dot", "wide.odlg"]


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    course, dot, _ = _dot_output(tmp_path, capsys)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["parse", course, "--to", "dot", "-o", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [dot.encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_output_to_dev_stdout_on_a_pipe_is_written_in_place(tmp_path, capsys):
    # /dev/stdout resolves to a name like "/proc/<pid>/fd/pipe:[<inode>]", where no temporary file can go.
    course, dot, _ = _dot_output(tmp_path, capsys)
    src = str(Path(odlgraph.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "odlgraph.cli", "parse", course, "--to", "dot", "-o", "/dev/stdout"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, dot, "")


@pytest.mark.parametrize("name", ["/dev/stdout", "/dev/fd/1"])
def test_output_naming_stdout_on_a_file_writes_through_stdout(tmp_path, capsys, name):
    # As in `{ echo header; odlgraph parse ... -o /dev/stdout; echo trailer; } > shared.txt`: the name resolves
    # to shared.txt, which a rename would replace under the descriptor the header and trailer go through.
    course, dot, _ = _dot_output(tmp_path, capsys)
    src = str(Path(odlgraph.__file__).resolve().parents[1])
    shared = tmp_path / "shared.txt"
    with open(shared, "w", encoding="utf-8") as out:
        out.write("header\n")
        out.flush()
        done = subprocess.run([sys.executable, "-m", "odlgraph.cli", "parse", course, "--to", "dot", "-o", name],
                              stdout=out, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        out.write("trailer\n")
    assert (done.returncode, done.stderr) == (0, "")
    assert shared.read_text(encoding="utf-8") == "header\n" + dot + "trailer\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "shared.txt", "wide.odlg"]


@pytest.mark.parametrize("name", ["/dev/stdout", "/dev/fd/1"])
def test_output_naming_a_closed_stdout_is_one_error_line(tmp_path, capsys, name):
    # As in `odlgraph parse wide.odlg --to dot -o /dev/stdout >&-`: with stdout closed, the name leads to no file.
    course, _, out = _dot_output(tmp_path, capsys)
    src = str(Path(odlgraph.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "odlgraph.cli", "parse", course, "--to", "dot", "-o", name],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (1, "error: standard output is closed\n")
    assert out.read_bytes() == OLD_OUTPUT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "wide.odlg"]


def test_the_entry_point_runs_without_the_cyclic_collector():
    # run() freezes what import made and turns the collector off; main() called from Python leaves it alone.
    src = str(Path(odlgraph.__file__).resolve().parents[1])
    program = ("import gc, sys; sys.path.insert(0, sys.argv.pop(1)); from odlgraph import cli; "
               "cli.main = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0) or 3; cli.run()")
    done = subprocess.run([sys.executable, "-c", program, src], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (3, "False True\n", "")


def _scaled_inputs(directory: Path, scale: int) -> dict[str, str]:
    """A chain course of 20·scale activities, a 300·scale-line log, a cluster file and a 30·scale-note store.

    The chain has a step back at every third activity and a reference node; learners step on, step back,
    look the reference up and jump, with gaps that start new sessions.
    """
    directory.mkdir()
    size = 20 * scale
    course = ["NODE R|Glossary|read|glossary|ref|"]
    course += [f"NODE A{i}|Unit {i}|{'exerc' if i % 2 else 'read'}|u{i}||{i}" for i in range(size)]
    course += [f"EDGE A{i}|A{i + 1}|sequence|" for i in range(size - 1)]
    course += [f"EDGE A{i}|A{i - 1}|failure|try again" for i in range(3, size, 3)]
    rng = random.Random(scale)
    log = []
    for learner in range(15 * scale):
        at, clock = rng.randrange(size), 0
        for _ in range(20):
            log.append(f"u{learner},{clock},{'R' if rng.random() < 0.1 else f'A{at}'}")
            clock += rng.choice([30, 60, 4000])
            step = rng.choice([1, 1, 1, -1, 0]) if rng.random() < 0.95 else rng.randrange(size) - at
            at = max(0, min(size - 1, at + step))
    notes = [
        f'{{"access":"all","attachments":[],"body":"b{n}","kind":"note","learner_id":"u{n % 7}",'
        f'"node_id":"A{n % size}","note_id":"n{n}","timestamp":{n}}}' for n in range(1, 30 * scale + 1)
    ]
    notes += [
        f'{{"kind":"message","message_id":"m{n}","note_refs":["n{n}"],"recipients":["u1"],"sender_id":"u2",'
        f'"sent_at":{n}}}' for n in range(1, 10 * scale + 1)
    ]
    files = {"course": "c.odlg", "log": "access.csv", "store": "notes.jsonl", "clusters": "clusters.tsv"}
    files = {name: str(directory / file) for name, file in files.items()}
    for name, lines in (("course", course), ("log", log), ("store", notes)):
        Path(files[name]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["mine", "--log", files["log"], "--course", files["course"], "--cliques", "-o", files["clusters"]]) == 0
    return files


LOGGED = ["--log", "{log}", "--course", "{course}"]
STORED = ["--store", "{store}", "--course", "{course}"]
GARBAGE_COMMANDS = [
    pytest.param(["validate", "{course}"], 0, id="validate"),
    pytest.param(["parse", "{course}", "--to", "odlg"], 0, id="parse-odlg"),
    pytest.param(["parse", "{course}", "--to", "dot"], 0, id="parse-dot"),
    pytest.param(["sessions", *LOGGED], 0, id="sessions"),
    pytest.param(["cycles", *LOGGED], 0, id="cycles"),
    pytest.param(["cycles", "--strict", *LOGGED], 1, id="cycles-strict-failing"),
    pytest.param(["erase", *LOGGED], 0, id="erase"),
    pytest.param(["coverage", *LOGGED], 0, id="coverage"),
    pytest.param(["mine", *LOGGED], 0, id="mine"),
    pytest.param(["mine", "--cliques", *LOGGED], 0, id="mine-cliques"),
    pytest.param(["mine", "--on-strategy-paths", *LOGGED], 0, id="mine-on-strategy-paths"),
    pytest.param(["export", "--course", "{course}", "--include-reference-edges"], 0, id="export"),
    pytest.param(["export", *LOGGED, "--overlay", "visit_order", "--experience", "u1"], 0, id="export-visit-order"),
    pytest.param(["export", *LOGGED, "--overlay", "coverage", "--experience", "u1"], 0, id="export-coverage"),
    pytest.param(["export", "--course", "{course}", "--overlay", "clusters", "--clusters", "{clusters}"], 0,
                 id="export-clusters"),
    pytest.param(["notes", "add", *STORED, "--node", "A1", "--learner", "u1", "--access", "all"], 0, id="notes-add"),
    pytest.param(["notes", "list", *STORED, "--node", "A1", "--requester", "u2"], 0, id="notes-list"),
    pytest.param(["notes", "send", *STORED, "--sender", "u1", "--to", "u2", "--refs", "n1"], 0, id="notes-send"),
    pytest.param(["notes", "inbox", *STORED, "--user", "u1"], 0, id="notes-inbox"),
]


@pytest.mark.parametrize("argv,code", GARBAGE_COMMANDS)
def test_no_command_makes_cyclic_garbage_that_grows_with_its_input(tmp_path, argv, code, capsys):
    # The entry point runs every command with the collector off, so reference counting alone must free
    # what a command drops: whatever cyclic garbage is left (the parser) is the same on a 10x larger input.
    found = []
    try:
        for scale in (1, 10):
            files = _scaled_inputs(tmp_path / f"x{scale}", scale)
            command = [a.format(**files) for a in argv]
            assert main(command) == code and gc.isenabled()  # once to import and fill caches
            gc.collect()
            gc.disable()
            assert main(command) == code and not gc.isenabled()
            gc.enable()
            found.append(gc.collect())
            capsys.readouterr()
    finally:
        gc.enable()
    assert found[0] == found[1]


def test_parse_of_a_title_only_outline_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "c.odlc"
    path.write_text("Just a title\n", encoding="utf-8")
    assert main(["parse", str(path), "--to", "odlg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _command(parser: argparse.ArgumentParser, *names: str) -> argparse.ArgumentParser:
    for name in names:
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = commands.choices[name]
    return parser


def _option(parser: argparse.ArgumentParser, flag: str) -> argparse.Action:
    (action,) = (a for a in parser._actions if flag in a.option_strings)
    return action


def test_parser_choices_and_defaults_are_the_librarys():
    parser = _build_parser()
    assert _option(_command(parser, "export"), "--overlay").choices == [o.value for o in Overlay]
    assert _option(_command(parser, "notes", "add"), "--access").choices == [a.value for a in NoteAccess]
    assert _option(_command(parser, "mine"), "--min-count").default == DEFAULT_MIN_COOCCURRENCE
    for command in ("sessions", "cycles", "erase", "coverage", "mine"):
        assert _option(_command(parser, command), "--timeout").default == DEFAULT_SESSION_TIMEOUT


LOG_OPTIONS = ("--log", "--course", "--timeout", "--skip-unknown", "-o", "--output")
STORE_OPTIONS = ("--store", "--course")
CLI_OPTIONS = {
    "validate": (),
    "parse": ("--to", "-o", "--output"),
    "sessions": LOG_OPTIONS,
    "cycles": (*LOG_OPTIONS, "--strict", "--min-interior"),
    "erase": LOG_OPTIONS,
    "coverage": LOG_OPTIONS,
    "mine": (*LOG_OPTIONS, "--min-count", "--cliques", "--on-strategy-paths"),
    "export": ("--log", "--course", "--skip-unknown", "-o", "--output", "--experience", "--overlay", "--clusters",
               "--include-reference-edges"),
    "notes add": (*STORE_OPTIONS, "--node", "--learner", "--timestamp", "--access", "--body", "--attach", "--note-id"),
    "notes list": (*STORE_OPTIONS, "--node", "--requester", "--role"),
    "notes send": (*STORE_OPTIONS, "--sender", "--role", "--to", "--refs", "--message-id", "--sent-at"),
    "notes inbox": (*STORE_OPTIONS, "--user"),
}


def test_every_command_takes_the_options_of_its_table():
    # The flags each command accepts, on every Python version, where the help text below is pinned on some only.
    def options(parser: argparse.ArgumentParser, prefix: str = "") -> dict[str, tuple[str, ...]]:
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        found = {}
        for name, command in commands.choices.items():
            if any(isinstance(a, argparse._SubParsersAction) for a in command._actions):
                found.update(options(command, f"{prefix}{name} "))
            else:
                flags = (flag for a in command._actions for flag in a.option_strings)
                found[prefix + name] = tuple(flag for flag in flags if flag not in ("-h", "--help"))
        return found

    assert options(_build_parser()) == CLI_OPTIONS


HELP_COMMANDS = [[], ["validate"], ["parse"], ["sessions"], ["cycles"], ["erase"], ["coverage"], ["mine"],
                 ["export"], ["notes"], ["notes", "add"], ["notes", "list"], ["notes", "send"], ["notes", "inbox"]]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse lays out help differently from Python 3.13 on")
def test_help_of_every_command_is_unchanged(capsys, monkeypatch):
    # cli_help.txt holds the help as argparse renders it at 80 columns on Python 3.10 to 3.12.
    monkeypatch.setenv("COLUMNS", "80")
    rendered = []
    for argv in HELP_COMMANDS:
        assert main([*argv, "--help"]) == 0
        rendered.append(f"== odlgraph {' '.join([*argv, '--help'])}\n{capsys.readouterr().out}")
    assert "".join(rendered) == (Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
