"""The one line rule and UTF-8 reader, and every file reader built on them."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from odlgraph.clusters import read_clusters
from odlgraph.course_format import parse_graph_file, parse_tabular
from odlgraph.errors import OdlError, ParseError
from odlgraph.notes import loads
from odlgraph.text import holds_line_end, lines, read_text

from conftest import quick_env

# Characters str.splitlines breaks at, beside the three real line ends.
NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
LINE_ENDS = ["\r\n", "\r", "\n"]
# Pieces of the file formats: separators, escapes, record words, tabs and a few values.
PIECES = ["|", "\\|", "\\\\", "\\", "NODE ", "EDGE ", "\t", " ", "#", ",", "LA1", "LA2", "read", "ref", "sequence",
          "clique", "component", "2", "-1", "1e3", "nan", "x", "{", "}", '"', ":", "[]", '"kind":"note"',
          '{"access":"all","attachments":[],"body":"","kind":"note","learner_id":"u1","node_id":"LA1",'
          '"note_id":"n1","timestamp":0}']
ALPHABET = LINE_ENDS + NOT_LINE_ENDS + PIECES


def test_lines_end_at_crlf_cr_and_lf_only():
    text = "a\r\nb\rc\nd" + "".join(f"{ch}e" for ch in NOT_LINE_ENDS)
    assert lines(text) == ["a", "b", "c", "d" + "".join(f"{ch}e" for ch in NOT_LINE_ENDS)]


def test_line_n_is_at_index_n_minus_one():
    assert lines("") == []
    assert lines("a") == lines("a\n") == lines("a\r\n") == ["a"]
    assert lines("\n") == [""]
    assert lines("a\n\nb\r\r") == ["a", "", "b", ""]
    assert lines("\r\n\r") == ["", ""]


@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
@settings(max_examples=300)
def test_lines_match_text_mode_reading(text):
    # A file opened as text (universal newlines) ends its lines at the same places.
    expected = [line.rstrip("\n") for line in io.StringIO(text, newline=None)]
    assert lines(text) == expected


def test_holds_line_end():
    assert holds_line_end("a\nb") and holds_line_end("\r")
    assert not any(holds_line_end(f"a{ch}b") for ch in NOT_LINE_ENDS)


def test_read_text_decodes_utf8(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("\u00e9\u2028x\r\n".encode())
    assert read_text(path) == read_text(str(path)) == "\u00e9\u2028x\r\n"


@pytest.mark.parametrize("data,line_no", [
    (b"\xff", 1),
    (b"a\n\xff", 2),
    (b"a\rb\r\n\xffc", 3),
    (b"a\r\x80", 2),
    ("a\u2028b\x85c\x0c".encode() + b"\xfe", 1),
    (b"a\n\n\n\xc3(", 4),
], ids=["first", "after-lf", "after-cr-and-crlf", "after-bare-cr", "after-not-line-ends", "bad-continuation"])
def test_read_text_names_the_bad_byte_line_by_the_line_rule(tmp_path, data, line_no):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        read_text(path)
    assert err.value.line_no == line_no
    assert "is not UTF-8 text" in err.value.reason


# --- every reader raises only OdlError on random text ---------------------------

_fields = st.lists(st.sampled_from(ALPHABET), max_size=4).map("".join)
_records = st.builds(
    lambda prefix, fields: prefix + "|".join(fields),
    st.sampled_from(["NODE ", "EDGE ", "", "# ", "\t", "read\t", "clique\t2\t"]),
    st.lists(_fields, max_size=7),
)
_texts = st.one_of(
    st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join),
    st.lists(st.tuples(_records, st.sampled_from(LINE_ENDS + NOT_LINE_ENDS)), max_size=6).map(
        lambda rows: "".join(record + end for record, end in rows)),
)
_STORE_ENV = quick_env(["LA1", "LA2"])
READERS = {
    "parse_tabular": parse_tabular,
    "parse_graph_file": parse_graph_file,
    "read_clusters": read_clusters,
    "loads": lambda text: loads(text, _STORE_ENV),
}


@pytest.mark.parametrize("reader", list(READERS))
@given(text=_texts)
@settings(max_examples=300)
def test_readers_raise_only_odl_errors_on_random_text(reader, text):
    try:
        READERS[reader](text)
    except OdlError:
        pass

