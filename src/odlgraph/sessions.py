"""From flat access logs to sessions and learning experiences.

Logs are CSV lines ``learner_id,timestamp,activity_id[,note_id]`` with
integer epoch-second timestamps (header line optional).  :func:`iter_rows`
is the one reader of those lines: it gives each kept line's fields as one
plain tuple, a row.  :func:`group_by_learner` gathers the rows per learner
in time order, and :func:`iter_sessions`, the one session rule, cuts each
learner's rows into numbered sessions at gaps over an inactivity timeout.
The command line works on the rows alone; :func:`iter_blocks`,
:func:`parse_log` and :func:`sessionize` build their records over the
same three functions, so a record is made only for a caller that asks for
one (late materialization, as in column stores: Abadi, Madden and Hachem,
SIGMOD 2008).

Sessions concatenate into one learning experience: a timestamped walk over
the course graph.  Learners resume after breaks wherever they like, so the
default experience mode is lenient and merely flags steps between
unconnected activities as teleports; strict mode raises instead.

The per-line, per-session and per-step records, :class:`ControlBlock`,
:class:`Session` and :class:`Visit`, are immutable named tuples (build a
changed copy with ``_replace``).  :class:`LearningExperience` is a short
plain class instead, so that a caller can hold one by a weak reference,
which a tuple cannot take; a :class:`~odlgraph.model.FrozenValue`, it
compares by value and refuses assignment, and it hashes by value too.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DanglingRef, LearnerMismatch, ParseError
from .model import FrozenValue, LearningEnvironment, teleports
from .options import DEFAULT_SESSION_TIMEOUT


# A log line's fields, ``(learner_id, timestamp, activity_id, note_id)``, as :func:`iter_rows` gives them.
Row = tuple[str, int, str, str | None]


class ControlBlock(NamedTuple):
    """One logged interaction: who touched which activity when; the course holds its object and task."""

    learner_id: str
    timestamp: int
    activity_id: str
    note_id: str | None = None


class Session(NamedTuple):
    learner_id: str
    blocks: tuple[ControlBlock, ...]
    session_index: int  # 1-based per learner


class Visit(NamedTuple):
    activity_id: str
    timestamp: int
    teleport: bool = False


class LearningExperience(FrozenValue):
    """A learner's walk over the environment, possibly spanning sessions."""

    __match_args__ = ("learner_id", "visits", "source_sessions")

    def __init__(self, learner_id: str, visits: tuple[Visit, ...], source_sessions: tuple[int, ...]) -> None:
        self.__dict__.update(learner_id=learner_id, visits=visits, source_sessions=source_sessions)

    def __hash__(self) -> int:
        return hash(self._values())


def iter_rows(
    lines: Iterable[str],
    env: LearningEnvironment,
    skip_unknown: bool = False,
    skipped: list[tuple[int, str]] | None = None,
) -> Iterator[Row]:
    """The one reader of log lines: each kept line's ``(learner_id, timestamp, activity_id, note_id)``, in turn.

    The rows are plain tuples with a :class:`ControlBlock`'s fields, for a
    caller that only takes them apart; :func:`iter_blocks` makes them blocks.
    A bad line raises when the iteration reaches it, and a skipped line's
    (line_no, activity_id) is appended to ``skipped`` as it is passed.
    """
    # Each raw learner field, as split off a line, mapped on first sight to the learner's one shared id
    # string (a stripped id maps to itself).
    learners: dict[str, str] = {}
    activities = env.activities
    for line_no, line in enumerate(lines, 1):
        fields = line.split(",")
        if len(fields) == 3:
            learner, stamp, activity = fields
            note_id = None
        elif len(fields) == 4:
            learner, stamp, activity, note_id = fields
            note_id = note_id.strip() or None
        else:
            # No data line has been read while ``learners`` is empty, so a header may still come.
            if not line.strip() or (not learners and fields[0].strip().lower() == "learner_id"):
                continue  # a blank line, or the optional header
            raise ParseError(line_no, "expected learner_id,timestamp,activity_id[,note_id]")
        learner_id = learners.get(learner)
        if learner_id is None:
            learner_id = learner.strip()
            if not learners and learner_id.lower() == "learner_id":
                continue  # the optional header
            if not learner_id:
                raise ParseError(line_no, "empty learner id")
            learner_id = learners[learner] = learners.setdefault(learner_id, learner_id)
        try:
            timestamp = int(stamp)
        except ValueError:
            # int() skips the spaces strip() drops, all but U+001C to U+001F.
            stamp = stamp.strip()
            try:
                timestamp = int(stamp)
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {stamp!r}") from None
        if timestamp < 0:
            raise ParseError(line_no, "negative timestamp")
        record = activities.get(activity)
        if record is None:
            activity_id = activity.strip()
            record = activities.get(activity_id)
            if record is None:
                if skip_unknown:
                    if skipped is not None:
                        skipped.append((line_no, activity_id))
                    continue
                raise DanglingRef(activity_id, line_no=line_no)
        yield learner_id, timestamp, record.id, note_id


def iter_blocks(
    lines: Iterable[str],
    env: LearningEnvironment,
    skip_unknown: bool = False,
    skipped: list[tuple[int, str]] | None = None,
) -> Iterator[ControlBlock]:
    """The control blocks of log lines, one at a time, as :func:`parse_log` lists them.

    Each is a row of :func:`iter_rows` made a block, so a bad line raises
    when the iteration reaches it, and skipped lines are noted as there.
    """
    # The row is the block's fields in one tuple, so no named tuple ``__new__`` runs.
    return map(tuple.__new__, repeat(ControlBlock), iter_rows(lines, env, skip_unknown, skipped))


def parse_log(
    lines: Iterable[str],
    env: LearningEnvironment,
    skip_unknown: bool = False,
    skipped: list[tuple[int, str]] | None = None,
) -> list[ControlBlock]:
    """Parse log lines into control blocks, checking each activity against the course.

    Unknown activity ids raise :class:`DanglingRef` unless ``skip_unknown``
    is set, in which case the offending (line_no, activity_id) pairs are
    appended to ``skipped`` (when given) and the lines are dropped.

    Blocks share their strings: each holds the course's own activity id
    string and one string per learner, not the copies each line splits off.
    """
    return list(iter_blocks(lines, env, skip_unknown, skipped))


def group_by_learner(rows: Iterable[Row]) -> Iterator[list[Row]]:
    """Rows (or blocks) per learner, in sorted learner order, each learner's list in timestamp order.

    Equal timestamps keep input order.  Every row is read on the call, so a
    bad log line raises here, before any list is given; the lists then come
    one at a time, and each is let go once the next is taken.
    """
    per_learner: defaultdict[str, list[Row]] = defaultdict(list)
    for row in rows:
        per_learner[row[0]].append(row)
    return _drained(per_learner)


def _drained(per_learner: dict[str, list[Row]]) -> Iterator[list[Row]]:
    timestamp = itemgetter(1)
    for learner in sorted(per_learner):
        rows = per_learner.pop(learner)
        rows.sort(key=timestamp)
        yield rows


def iter_sessions(learners: Iterable[Sequence[Row]], timeout_seconds: int) -> Iterator[tuple[str, Sequence[Row], int]]:
    """Each learner's time-ordered rows cut at each gap over the timeout, as ``(learner_id, rows, index)``.

    The fields are a :class:`Session`'s, in its order: each session's rows are a slice of its learner's, and
    the index counts the learner's sessions from 1.  Sessions come in their learners' order, then in time order.
    """
    for rows in learners:
        learner, start, last, index = rows[0][0], 0, rows[0][1], 1
        for end, row in enumerate(rows):
            if row[1] - last > timeout_seconds:
                yield learner, rows[start:end], index
                start, index = end, index + 1
            last = row[1]
        yield learner, rows[start:], index


def sessionize(blocks: Iterable[ControlBlock], timeout_seconds: int = DEFAULT_SESSION_TIMEOUT) -> list[Session]:
    """Partition blocks into per-learner sessions split at gaps over the timeout.

    Within a learner, blocks are time-ordered; equal timestamps keep input
    order.  Output is sorted by learner id, then session index.  The blocks
    may come one at a time, as :func:`iter_blocks` gives them.
    """
    if timeout_seconds <= 0:
        raise ValueError("timeout_seconds must be positive")
    # Each session's fields in one tuple, without the named tuple's ``__new__``; its blocks are a tuple's slice.
    parts = iter_sessions(map(tuple, group_by_learner(blocks)), timeout_seconds)
    return list(map(tuple.__new__, repeat(Session), parts))


def build_experience(
    sessions: Iterable[Session],
    env: LearningEnvironment,
    mode: str = "lenient",
) -> LearningExperience:
    """Concatenate one learner's sessions into a learning experience.

    In lenient mode a step between unconnected activities is kept and marked
    ``teleport=True``; in strict mode it raises :class:`NonAdjacentStep` with
    the index of the arriving visit.  A step whose activity the course lacks
    raises :class:`DanglingRef`, naming the activity it leaves before the one
    it reaches; so an unknown first activity raises only once a step leaves it.
    Each step is judged by :func:`~odlgraph.model.teleports`, the one step rule.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    ordered = sorted(sessions, key=lambda s: s.session_index)
    if not ordered:
        raise ValueError("at least one session is required")
    learners = {s.learner_id for s in ordered}
    if len(learners) > 1:
        raise LearnerMismatch(f"sessions belong to several learners: {sorted(learners)}")

    blocks = [block for session in ordered for block in session.blocks]
    ids = [block.activity_id for block in blocks]
    flags = teleports(env, ids, mode == "strict")
    # Each visit's fields in one tuple, without the named tuple's ``__new__``; the first visit is no teleport.
    visits = map(tuple.__new__, repeat(Visit), zip(ids, [block.timestamp for block in blocks], [False, *flags]))
    return LearningExperience(
        ordered[0].learner_id,
        tuple(visits),
        tuple(s.session_index for s in ordered),
    )
