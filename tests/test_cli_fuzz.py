"""Every CLI command on byte-edited inputs ends in exit 0, 1 or 2, and a failure prints one error line.

Each example edits the bytes of one input file that a command reads (a cut, a NUL, bytes that are
not UTF-8, a byte-order mark, U+2028, a run of digits, a span spliced in or taken out) and runs the
command in process on a small course, outline, access log, cluster file and note store.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odlgraph.cli import main

INPUTS = {
    "course.odlg": """\
# a small course
NODE LA1|Intro|read|ch1||5
NODE LA2|Exercises|exerc|sheet1||30
NODE LA3|Summary|read|ch1-summary||
NODE Dict|Dictionary|read|dict|ref|
EDGE LA1|LA2|sequence|
EDGE LA2|LA3|sequence|
EDGE LA2|LA1|failure|if the exercises were too hard
""",
    "outline.odlc": "Unit\nread\tIntro\nwrite\tEssay\n\texerc\tQuiz\nread\tSummary\n",
    "access.csv": "learner_id,timestamp,activity_id\n" + "".join(
        f"u{learner},{step * 60 + (4000 if step >= 4 else 0)},{activity}\n"
        for learner in range(1, 4)
        for step, activity in enumerate(["LA1", "LA2", "Dict", "LA2", "LA1", "LA2", "LA3"][learner - 1:])
    ),
    "clusters.tsv": "clique\t3\tLA1,LA2\ncomponent\t2\tDict,LA2,LA3\n",
    "notes.jsonl": (
        '{"access":"all","attachments":["file://a.txt"],"body":"see LA2","kind":"note","learner_id":"u1",'
        '"node_id":"LA2","note_id":"n1","timestamp":10}\n'
        '{"kind":"message","message_id":"m1","note_refs":["n1"],"recipients":["u2"],"sender_id":"u1","sent_at":20}\n'
    ),
}
LOGGED = ["--log", "access.csv", "--course", "course.odlg"]
STORED = ["--store", "notes.jsonl", "--course", "course.odlg"]
COMMANDS = {
    "validate": ["validate", "course.odlg"],
    "parse-odlg": ["parse", "outline.odlc", "--to", "odlg", "-o", "out.odlg"],
    "parse-odlc": ["parse", "outline.odlc", "--to", "odlc"],
    "parse-dot": ["parse", "course.odlg", "--to", "dot"],
    "sessions": ["sessions", *LOGGED, "--skip-unknown"],
    "cycles": ["cycles", *LOGGED, "--min-interior", "1"],
    "cycles-strict": ["cycles", *LOGGED, "--strict", "--skip-unknown"],
    "erase": ["erase", *LOGGED],
    "coverage": ["coverage", *LOGGED, "--skip-unknown"],
    "mine": ["mine", *LOGGED, "--min-count", "1"],
    "mine-cliques": ["mine", *LOGGED, "--cliques", "--on-strategy-paths", "--skip-unknown", "--timeout", "600"],
    "export": ["export", "--course", "course.odlg", "--include-reference-edges"],
    "export-visit-order": ["export", *LOGGED, "--overlay", "visit_order", "--experience", "u1"],
    "export-coverage": ["export", *LOGGED, "--overlay", "coverage", "--experience", "u2", "--skip-unknown"],
    "export-clusters": ["export", "--course", "course.odlg", "--overlay", "clusters", "--clusters", "clusters.tsv"],
    "notes-add": ["notes", "add", *STORED, "--node", "LA1", "--learner", "u2", "--access", "all", "--body", "hi"],
    "notes-list": ["notes", "list", *STORED, "--node", "LA2", "--requester", "u2"],
    "notes-send": ["notes", "send", *STORED, "--sender", "u2", "--to", "*", "--refs", "n1"],
    "notes-inbox": ["notes", "inbox", *STORED, "--user", "u2"],
}

INSERTS = [b"\x00", b"\xff", b"\xc3", b"\xed\xa0\x80", "\ufeff".encode(), "\u2028".encode(), b"\r", b"\n", b",",
           b"|", b"\t", b"-", b'"', b"\\"]
_chunks = st.one_of(
    st.sampled_from(INSERTS),
    st.text("0123456789", min_size=1, max_size=30).map(str.encode),
    st.integers(4000, 5000).map(lambda size: b"9" * size),  # past the longest integer Python reads by default
)
_at = st.integers(min_value=0, max_value=10_000)
_edits = st.lists(st.one_of(
    st.tuples(st.just("cut"), _at),
    st.tuples(st.just("insert"), _at, _chunks),
    st.tuples(st.just("splice"), _at, _at, _at),
    st.tuples(st.just("delete"), _at, _at),
), min_size=1, max_size=4)


def _edited(data: bytes, edits: list[tuple]) -> bytes:
    """``data`` after each edit in turn; a position past the end wraps around."""
    for kind, at, *rest in edits:
        at %= len(data) + 1
        if kind == "cut":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + rest[0] + data[at:]
        elif kind == "delete":
            start, end = sorted((at, rest[0] % (len(data) + 1)))
            data = data[:start] + data[end:]
        else:  # a copy of one span put in at another place
            start, end = sorted((at, rest[0] % (len(data) + 1)))
            dest = rest[1] % (len(data) + 1)
            data = data[:dest] + data[start:end] + data[dest:]
    return data


def _run(directory: Path, argv: list[str], edited: dict[str, bytes]) -> tuple[int, str, str]:
    """The command's exit code, stdout and stderr, run in ``directory`` on the inputs with ``edited`` in place."""
    for name, text in INPUTS.items():
        (directory / name).write_bytes(edited.get(name, text.encode()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(directory / a) if a in INPUTS or a.startswith("out.") else a for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_succeeds_on_the_unedited_inputs(tmp_path, command):
    code, out, err = _run(tmp_path, COMMANDS[command], {})
    assert (code, err) == (0, "")
    assert out or command == "parse-odlg"


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_command_on_edited_bytes_exits_0_1_or_2_with_one_error_line_on_failure(tmp_path, command, data):
    argv = COMMANDS[command]
    name = data.draw(st.sampled_from([a for a in argv if a in INPUTS]), label="input")
    edited = _edited(INPUTS[name].encode(), data.draw(_edits, label="edits"))
    code, out, err = _run(tmp_path, argv, {name: edited})
    assert code in (0, 1, 2)
    assert err == "" or err.endswith("\n")
    problems = [line for line in err.split("\n")[:-1] if not line.startswith("warning: ")]
    if code == 0:
        assert problems == []
    else:
        assert out == ""
        assert problems == [problems[0]] and problems[0].startswith("error: " if code == 1 else "usage error: ")
        assert err.endswith(problems[0] + "\n")  # no warning after the error
