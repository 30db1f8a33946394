"""From flat access logs to sessions and learning experiences.

Logs are CSV lines ``learner_id,timestamp,activity_id[,note_id]`` with
integer epoch-second timestamps (header line optional).  Blocks are split
into sessions per learner by an inactivity timeout, and sessions concatenate
into one learning experience: a timestamped walk over the course graph.
Learners resume after breaks wherever they like, so the default experience
mode is lenient and merely flags steps between unconnected activities as
teleports; strict mode raises instead.

The per-line, per-session and per-step records, :class:`ControlBlock`,
:class:`Session` and :class:`Visit`, are immutable named tuples (build a
changed copy with ``_replace``).  :class:`LearningExperience` is a short
plain class instead, so that a caller can hold one by a weak reference,
which a tuple cannot take; a :class:`~odlgraph.model.FrozenValue`, it
compares by value and refuses assignment, and it hashes by value too.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import DanglingRef, LearnerMismatch, NonAdjacentStep, ParseError
from .model import FrozenValue, LearningEnvironment
from .options import DEFAULT_SESSION_TIMEOUT


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


def iter_blocks(
    lines: Iterable[str],
    env: LearningEnvironment,
    skip_unknown: bool = False,
    skipped: list[tuple[int, str]] | None = None,
) -> Iterator[ControlBlock]:
    """The control blocks of log lines, one at a time, as :func:`parse_log` lists them.

    A bad line raises when the iteration reaches it, and a skipped line's
    (line_no, activity_id) is appended to ``skipped`` as it is passed.
    """
    new = tuple.__new__  # the block's fields in one tuple, without the named tuple's ``__new__``
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
        yield new(ControlBlock, (learner_id, timestamp, record.id, note_id))


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


def sessionize(blocks: Iterable[ControlBlock], timeout_seconds: int = DEFAULT_SESSION_TIMEOUT) -> list[Session]:
    """Partition blocks into per-learner sessions split at gaps over the timeout.

    Within a learner, blocks are time-ordered; equal timestamps keep input
    order.  Output is sorted by learner id, then session index.  The blocks
    may come one at a time, as :func:`iter_blocks` gives them.
    """
    if timeout_seconds <= 0:
        raise ValueError("timeout_seconds must be positive")
    per_learner: defaultdict[str, list[ControlBlock]] = defaultdict(list)
    for block in blocks:
        per_learner[block[0]].append(block)

    new, timestamp = tuple.__new__, itemgetter(1)
    sessions: list[Session] = []
    append = sessions.append
    for learner in sorted(per_learner):
        ordered = tuple(sorted(per_learner[learner], key=timestamp))
        start, index, last = 0, 1, ordered[0][1]
        for end, block in enumerate(ordered):
            if block[1] - last > timeout_seconds:
                append(new(Session, (learner, ordered[start:end], index)))
                start, index = end, index + 1
            last = block[1]
        append(new(Session, (learner, ordered[start:], index)))
    return sessions


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
    it reaches, as :func:`~odlgraph.model.is_adjacent` does; so an unknown
    first activity raises only once a step leaves it.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    ordered = sorted(sessions, key=lambda s: s.session_index)
    if not ordered:
        raise ValueError("at least one session is required")
    learners = {s.learner_id for s in ordered}
    if len(learners) > 1:
        raise LearnerMismatch(f"sessions belong to several learners: {sorted(learners)}")

    # The rule of model.is_adjacent, inlined as one membership test per step
    # against the same cached sets: the activities, the reference nodes, the edges.
    activities, references, endpoints = env.activities, env.reference_ids, env.edge_endpoints
    strict = mode == "strict"
    blocks = [block for session in ordered for block in session.blocks]
    visits: list[Visit] = []
    if blocks:
        previous = blocks[0].activity_id
        # is_adjacent names an unknown origin before an unknown arrival; every
        # later origin was already checked as the arrival of the step before.
        if len(blocks) > 1 and previous not in activities:
            raise DanglingRef(previous)
        visits.append(Visit(previous, blocks[0].timestamp))
        for block in islice(blocks, 1, None):
            aid = block.activity_id
            if aid not in activities:
                raise DanglingRef(aid)
            teleport = not (previous in references or aid in references or (previous, aid) in endpoints)
            if teleport and strict:
                raise NonAdjacentStep(len(visits), previous, aid)
            visits.append(Visit(aid, block.timestamp, teleport))
            previous = aid
    return LearningExperience(
        ordered[0].learner_id,
        tuple(visits),
        tuple(s.session_index for s in ordered),
    )
