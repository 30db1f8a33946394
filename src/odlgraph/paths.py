"""Experience analytics: detours, strategy paths, visit order and coverage.

A cycle in a learning experience is a detour: the learner left a node and
came back to it.  Two complementary views are provided:

* :func:`detect_cycles` lists every first-return detour in the raw visit
  sequence (anchored at the latest prior occurrence, so nested detours are
  each reported once).
* :func:`erase_cycles` removes loops in visit order, leaving the strategy
  path: where the learner was heading.  :func:`split_strategy_tactics`
  additionally returns the detours the erasure removed; those account for
  every erased visit, so ``strategy + interiors + one anchor per detour``
  is exactly the input multiset.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import DanglingRef
from .model import LearningEnvironment
from .sessions import LearningExperience


class Cycle(NamedTuple):
    """A detour: the visit at ``end_index`` returns to the ``start_index`` anchor.

    An immutable named tuple, one per detour; ``_replace`` builds a changed copy.
    """

    anchor_activity: str
    start_index: int
    end_index: int
    interior: tuple[str, ...]


class DetourKind(str, Enum):
    REFERENCE = "reference_detour"
    CONTENT = "content_detour"


class CoverageReport(NamedTuple):
    visited: frozenset[str]
    total: int
    ratio: float


def _visit_ids(experience: LearningExperience | Sequence[str]) -> tuple[str, ...]:
    if isinstance(experience, LearningExperience):
        return tuple([v.activity_id for v in experience.visits])
    if isinstance(experience, str):
        # A bare string would otherwise be walked as the sequence of its characters.
        raise TypeError(f"a walk must be a LearningExperience or a sequence of activity ids, not {experience!r}")
    return tuple(experience)


def detect_cycles(experience: LearningExperience | Sequence[str]) -> list[Cycle]:
    """Every first-return cycle, in order of the returning visit.

    Whenever a visit repeats an earlier node, one cycle is emitted, anchored
    at the latest prior occurrence of that node; its interior is the raw
    visit slice strictly between anchor and return.
    """
    ids = _visit_ids(experience)
    new = tuple.__new__  # the cycle's fields in one tuple, without the named tuple's ``__new__``
    latest: dict[str, int] = {}
    cycles: list[Cycle] = []
    for j, node in enumerate(ids):
        i = latest.get(node)
        if i is not None:
            cycles.append(new(Cycle, (node, i, j, ids[i + 1:j])))
        latest[node] = j
    return cycles


def classify_cycle(cycle: Cycle, env: LearningEnvironment) -> DetourKind:
    """Reference detour when every interior node is a reference node (or none)."""
    activities = env.activities
    for node in (cycle.anchor_activity, *cycle.interior):
        if node not in activities:
            raise DanglingRef(node)
    if env.reference_ids.issuperset(cycle.interior):
        return DetourKind.REFERENCE
    return DetourKind.CONTENT


def split_strategy_tactics(
    experience: LearningExperience | Sequence[str],
) -> tuple[list[str], list[Cycle]]:
    """Loop-erase the visits; return (strategy path, erased detours).

    The erasure walks the visits keeping a stack; returning to a node still
    on the stack pops everything above it and drops the returning visit.
    Each pop event yields one detour spanning the anchor's latest visit to
    the returning visit, its interior holding the popped nodes (survivors of
    inner detours, in stack order).  Together the detours account for every
    erased visit: strategy + interiors + one anchor per detour = input.
    """
    new = tuple.__new__  # as in detect_cycles
    # The stack as two lists: its nodes, and the visit index each node's later detours leave from.
    nodes: list[str] = []
    starts: list[int] = []
    position: dict[str, int] = {}
    cycles: list[Cycle] = []
    for j, node in enumerate(_visit_ids(experience)):
        p = position.get(node)
        if p is None:
            position[node] = len(nodes)
            nodes.append(node)
            starts.append(j)
        else:
            popped = tuple(nodes[p + 1:])
            for dropped in popped:
                del position[dropped]
            del nodes[p + 1:], starts[p + 1:]
            cycles.append(new(Cycle, (node, starts[p], j, popped)))
            starts[p] = j  # later detours leave from this visit
    return nodes, cycles


def erase_cycles(experience: LearningExperience | Sequence[str]) -> list[str]:
    """The strategy path: visits with every loop erased, in visit order."""
    return split_strategy_tactics(experience)[0]


def visit_order(experience: LearningExperience | Sequence[str]) -> dict[str, int]:
    """First-visit ordinal (1-based) per distinct activity."""
    order: dict[str, int] = {}
    for node in _visit_ids(experience):
        if node not in order:
            order[node] = len(order) + 1
    return order


def coverage(
    experiences: Iterable[LearningExperience | Sequence[str]],
    env: LearningEnvironment,
) -> CoverageReport:
    """Which share of the course the given experiences touched."""
    visited: set[str] = set()
    for experience in experiences:
        visited.update(_visit_ids(experience))
    visited &= env.activities.keys()  # walks the smaller side, not the whole course
    total = len(env.activities)
    ratio = len(visited) / total if total else 0.0
    return CoverageReport(frozenset(visited), total, ratio)
