"""From flat access logs to sessions and learning experiences.

Logs are CSV lines ``learner_id,timestamp,activity_id[,note_id]`` with
integer epoch-second timestamps (header line optional).  Blocks are split
into sessions per learner by an inactivity timeout, and sessions concatenate
into one learning experience: a timestamped walk over the course graph.
Learners resume after breaks wherever they like, so the default experience
mode is lenient and merely flags steps between unconnected activities as
teleports; strict mode raises instead.

The per-line and per-step records, :class:`ControlBlock` and :class:`Visit`,
are immutable named tuples (build a changed copy with ``_replace``); the
few :class:`Session` and :class:`LearningExperience` values are frozen
dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import DanglingRef, LearnerMismatch, NonAdjacentStep, ParseError
from .model import LearningEnvironment
from .options import DEFAULT_SESSION_TIMEOUT


class ControlBlock(NamedTuple):
    """One logged interaction: who touched which activity when."""

    learner_id: str
    timestamp: int
    activity_id: str
    object_id: str
    task_id: str
    note_id: str | None = None


@dataclass(frozen=True)
class Session:
    learner_id: str
    blocks: tuple[ControlBlock, ...]
    session_index: int  # 1-based per learner


class Visit(NamedTuple):
    activity_id: str
    timestamp: int
    teleport: bool = False


@dataclass(frozen=True)
class LearningExperience:
    """A learner's walk over the environment, possibly spanning sessions."""

    learner_id: str
    visits: tuple[Visit, ...]
    source_sessions: tuple[int, ...]


def parse_log(
    lines: Iterable[str],
    env: LearningEnvironment,
    skip_unknown: bool = False,
    skipped: list[tuple[int, str]] | None = None,
) -> list[ControlBlock]:
    """Parse log lines into control blocks, resolving object/task from the course.

    Unknown activity ids raise :class:`DanglingRef` unless ``skip_unknown``
    is set, in which case the offending (line_no, activity_id) pairs are
    appended to ``skipped`` (when given) and the lines are dropped.

    Blocks share their strings: each holds the course's own activity id
    string and one string per learner, not the copies each line splits off.
    """
    blocks: list[ControlBlock] = []
    append = blocks.append
    make_block = ControlBlock._make  # one tuple in, no argument binding in the generated ``__new__``
    # Each activity's (id, object_id, task_id), read off the record once per call, not once per line.
    resolve = {aid: (a.id, a.object_id, a.task_id) for aid, a in env.activities.items()}.get
    shared_learner = {}.setdefault  # the first string seen for each learner id
    strip = str.strip
    saw_data = False
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        fields = list(map(strip, line.split(",")))
        if not saw_data and fields[0].lower() == "learner_id":
            continue  # optional header
        saw_data = True
        if not 3 <= len(fields) <= 4:
            raise ParseError(line_no, "expected learner_id,timestamp,activity_id[,note_id]")
        learner, ts_text, activity_id = fields[0], fields[1], fields[2]
        if not learner:
            raise ParseError(line_no, "empty learner id")
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise ParseError(line_no, f"bad timestamp {ts_text!r}") from None
        if timestamp < 0:
            raise ParseError(line_no, "negative timestamp")
        resolved = resolve(activity_id)
        if resolved is None:
            if skip_unknown:
                if skipped is not None:
                    skipped.append((line_no, activity_id))
                continue
            raise DanglingRef(activity_id, line_no=line_no)
        note_id = fields[3] if len(fields) == 4 and fields[3] else None
        aid, object_id, task_id = resolved
        append(make_block((shared_learner(learner, learner), timestamp, aid, object_id, task_id, note_id)))
    return blocks


def sessionize(blocks: Iterable[ControlBlock], timeout_seconds: int = DEFAULT_SESSION_TIMEOUT) -> list[Session]:
    """Partition blocks into per-learner sessions split at gaps over the timeout.

    Within a learner, blocks are time-ordered; equal timestamps keep input
    order.  Output is sorted by learner id, then session index.
    """
    if timeout_seconds <= 0:
        raise ValueError("timeout_seconds must be positive")
    per_learner: dict[str, list[ControlBlock]] = {}
    for block in blocks:
        per_learner.setdefault(block.learner_id, []).append(block)

    sessions: list[Session] = []
    for learner in sorted(per_learner):
        ordered = sorted(per_learner[learner], key=attrgetter("timestamp"))
        run: list[ControlBlock] = []
        index = 1
        for block in ordered:
            if run and block.timestamp - run[-1].timestamp > timeout_seconds:
                sessions.append(Session(learner, tuple(run), index))
                index += 1
                run = []
            run.append(block)
        if run:
            sessions.append(Session(learner, tuple(run), index))
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
