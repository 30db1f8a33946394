"""Where a line ends and how a file's bytes become text, for every file format.

Every reader in the package (course files, access logs, cluster files and
the note store) splits its text with :func:`lines` and reads its files with
:func:`read_text`.  A line ends at ``"\\r\\n"``, ``"\\r"`` or ``"\\n"`` and
nowhere else, as when a file is opened as text: U+2028, U+0085, ``"\\x0c"``
and the other characters :meth:`str.splitlines` also breaks at stay inside
their field.  Files are UTF-8.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError


def lines(text: str) -> list[str]:
    """The lines of ``text`` without their line ends; line *n* is at index *n* - 1."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    found = text.split("\n")
    if not found[-1]:
        found.pop()  # text that ends with a line end has no line after it
    return found


def holds_line_end(text: str) -> bool:
    """True when ``text`` holds a line end, so it cannot sit inside one line."""
    return "\r" in text or "\n" in text


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; bytes that do not decode are a :class:`ParseError` naming their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte sits on the last line of the text before it plus one stand-in character.
        line_no = len(lines(data[:exc.start].decode("utf-8") + "?"))
        raise ParseError(line_no, f"{path} is not UTF-8 text ({exc.reason})") from None
