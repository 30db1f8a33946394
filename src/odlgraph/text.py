"""Where a line ends and how a file's bytes become text, for every file format.

Every reader in the package (course files, access logs, cluster files and
the note store) splits its text with :func:`lines`, or, for a log,
:func:`iter_lines`, and reads its files with :func:`read_text`.  A line ends at
``"\\r\\n"``, ``"\\r"`` or ``"\\n"`` and nowhere else, as when a file is
opened as text: U+2028, U+0085, ``"\\x0c"`` and the other characters
:meth:`str.splitlines` also breaks at stay inside their field.  Files are
UTF-8; one leading byte-order mark (U+FEFF) is not part of the text.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterator

from .errors import ParseError

# About how many characters :func:`iter_lines` splits at a time; a piece runs on to the next line end.
_PIECE_CHARS = 1 << 16


def lines(text: str) -> list[str]:
    """The lines of ``text`` without their line ends; line *n* is at index *n* - 1."""
    return next(_pieces(text, len(text)), [])  # the whole text as one piece


def iter_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` without their line ends, one at a time, as :func:`lines` lists them.

    The text is split a large piece at a time, so the lines of only one piece
    are held at once; a piece ends at a line end, so no line is cut.
    """
    return chain.from_iterable(_pieces(text, _PIECE_CHARS))


def _pieces(text: str, piece_chars: int) -> Iterator[list[str]]:
    """The lines of ``text``, split a piece of at least ``piece_chars`` characters at a time."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + piece_chars)
        if end < 0:
            last = text[start:].split("\n")
            if not last[-1]:
                last.pop()  # text that ends with a line end has no line after it
            yield last
            return
        yield text[start:end].split("\n")
        start = end + 1


def holds_line_end(text: str) -> bool:
    """True when ``text`` holds a line end, so it cannot sit inside one line."""
    return "\r" in text or "\n" in text


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, without one leading byte-order mark.

    Bytes that do not decode are a :class:`ParseError` naming their line.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # The bad byte sits on the last line of the text before it plus one stand-in character.
        line_no = len(lines(data[:exc.start].decode("utf-8") + "?"))
        raise ParseError(line_no, f"{path} is not UTF-8 text ({exc.reason})") from None
