"""Where a line ends and how a file's bytes become text and text a file, for every file format.

Every reader in the package (course files, access logs, cluster files and the note store) splits its
text with :func:`lines`, or, for a log, :func:`iter_lines`, and reads its files with :func:`read_text`;
:func:`write_text` writes every file (``-o`` and the note store).  A line ends at ``"\\r\\n"``,
``"\\r"`` or ``"\\n"`` and nowhere else, as when a file is opened as text: U+2028, U+0085, ``"\\x0c"``
and the other characters :meth:`str.splitlines` also breaks at stay inside their field.  Files are
UTF-8; one leading byte-order mark (U+FEFF) is not part of the text.
"""

from __future__ import annotations

import os
from itertools import chain
from pathlib import Path
from stat import S_IMODE
from typing import Iterable, Iterator

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


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as UTF-8, so that a reader sees the old file or the new one, never a part.

    The chunks go to a temporary file beside the target (a symlink's target), which is fsynced, takes the
    target's mode and replaces it; on any failure it is removed, and an :class:`OSError` names ``path``.
    An existing ``path`` that is not a regular file (a FIFO, or ``/dev/stdout`` on a pipe) is written in place.
    """
    temp = None
    try:
        if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or a device, which a rename would replace
            with open(path, "wb") as out:
                out.writelines(chunk.encode("utf-8") for chunk in chunks)
            return
        target = Path(os.path.realpath(path))
        temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        with open(temp, "xb") as out:
            out.writelines(chunk.encode("utf-8") for chunk in chunks)
            out.flush()
            os.fsync(out.fileno())
        if target.exists():
            os.chmod(temp, S_IMODE(target.stat().st_mode))
        os.replace(temp, target)
    except BaseException as exc:
        if temp is not None:
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:  # the caller's name, not the temporary file's
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
