"""Core course model: objects, tasks, activities and the precedent multigraph.

A learning environment is a directed labeled multigraph whose nodes are
learning activities (an object paired with a task) and whose edges form a
bag of labeled precedents: duplicate edges are meaningful and kept.
Reference nodes (dictionary, calculator, discussion, ...) are implicitly
adjacent to every other node in both directions; that adjacency is computed,
never stored as edges.

Environment values are immutable once built.  The ``add_*`` functions return
a new environment and never touch the input, so environments are safe to
share across threads.

The records (:class:`LearningObject`, :class:`LearningTask`,
:class:`LearningActivity`, :class:`PrecedentEdge`, :class:`Violation`) are
immutable named tuples: each equals the plain tuple of its values and sorts
like it, and a changed copy comes from ``_replace``.
:class:`LearningEnvironment` is a short plain class instead, because it
caches derived sets per instance; a :class:`FrozenValue`, it compares by
value, is not hashable (its fields are dicts) and refuses assignment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from enum import Enum
from functools import cached_property, partial
from itertools import repeat
from operator import attrgetter, is_, is_not, lt
from typing import NamedTuple

from .errors import DanglingRef, DuplicateId


class ObjectKind(str, Enum):
    ATOMIC = "atomic"
    COMPOSITE = "composite"


class EdgeTag(str, Enum):
    """Coarse classification of a precedent edge; the label text stays authoritative."""

    DIFFICULTY = "difficulty"
    INTEREST = "interest"
    FAILURE = "failure"
    SEQUENCE = "sequence"
    UNTAGGED = "untagged"


class LearningObject(NamedTuple):
    """A piece of content, either atomic (has a locator) or composite (has children)."""

    id: str
    title: str
    kind: ObjectKind = ObjectKind.ATOMIC
    locator: str = ""
    children: tuple[str, ...] = ()


class LearningTask(NamedTuple):
    """What the learner is asked to do with an object (read, write, exerc, ...)."""

    id: str
    verb: str
    description: str = ""


class LearningActivity(NamedTuple):
    """A graph node: one object paired with one task."""

    id: str
    object_id: str
    task_id: str
    is_reference: bool = False
    expected_duration_minutes: float | None = None


class PrecedentEdge(NamedTuple):
    """One bag entry: a labeled, tagged precedent between two activities.

    Several edges may share endpoints and label; only ``edge_id`` tells
    them apart.
    """

    edge_id: str
    from_id: str
    to_id: str
    label: str = ""
    tag: EdgeTag = EdgeTag.UNTAGGED


class Violation(NamedTuple):
    """One problem found by :func:`validate`."""

    code: str
    subject: str
    message: str


class FrozenValue:
    """Base of the plain value classes: refuses assignment, and compares and shows the ``__match_args__``
    fields; each subclass fills ``__dict__`` in its own ``__init__`` and sets its own hash policy."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__name__}({fields})"


class LearningEnvironment(FrozenValue):
    """The whole course graph.  Treat instances as immutable values.

    Each field left out starts empty; the dict fields get a fresh dict each.
    """

    __match_args__ = ("activities", "edges", "objects", "tasks")
    __hash__ = None  # equality reads the dict fields, which cannot hash

    def __init__(
        self,
        activities: dict[str, LearningActivity] | None = None,
        edges: tuple[PrecedentEdge, ...] = (),
        objects: dict[str, LearningObject] | None = None,
        tasks: dict[str, LearningTask] | None = None,
    ) -> None:
        # Straight into __dict__, past the refusing __setattr__; the cached properties keep their values there too.
        self.__dict__.update(
            activities={} if activities is None else activities,
            edges=edges,
            objects={} if objects is None else objects,
            tasks={} if tasks is None else tasks,
        )

    @cached_property
    def edge_endpoints(self) -> frozenset[tuple[str, str]]:
        return frozenset((e.from_id, e.to_id) for e in self.edges)

    @cached_property
    def reference_ids(self) -> frozenset[str]:
        return frozenset(a.id for a in self.activities.values() if a.is_reference)

    @cached_property
    def next_edge_number(self) -> int:
        """The number in the id :func:`add_edge` gives the next edge (``e<n>``)."""
        return next_id_number((e.edge_id for e in self.edges), "e")


def next_id_number(ids: Iterable[str], prefix: str) -> int:
    """One past the highest numeric suffix among the ids that start with ``prefix``; 1 if none."""
    highest = 0
    for known in ids:
        suffix = known[len(prefix):]
        if known.startswith(prefix) and suffix.isdecimal():
            highest = max(highest, int(suffix))
    return highest + 1


def empty_environment() -> LearningEnvironment:
    return LearningEnvironment()


def add_object(env: LearningEnvironment, obj: LearningObject) -> LearningEnvironment:
    if obj.id in env.objects:
        raise DuplicateId(obj.id, "object")
    objects = dict(env.objects)
    objects[obj.id] = obj
    return LearningEnvironment(env.activities, env.edges, objects, env.tasks)


def add_task(env: LearningEnvironment, task: LearningTask) -> LearningEnvironment:
    if task.id in env.tasks:
        raise DuplicateId(task.id, "task")
    tasks = dict(env.tasks)
    tasks[task.id] = task
    return LearningEnvironment(env.activities, env.edges, env.objects, tasks)


def add_activity(env: LearningEnvironment, activity: LearningActivity) -> LearningEnvironment:
    """Add one activity; its object and task must already exist."""
    if activity.id in env.activities:
        raise DuplicateId(activity.id, "activity")
    if activity.object_id not in env.objects:
        raise DanglingRef(activity.object_id)
    if activity.task_id not in env.tasks:
        raise DanglingRef(activity.task_id)
    activities = dict(env.activities)
    activities[activity.id] = activity
    return LearningEnvironment(activities, env.edges, env.objects, env.tasks)


def add_edge(
    env: LearningEnvironment,
    from_id: str,
    to_id: str,
    label: str = "",
    tag: EdgeTag | str = EdgeTag.UNTAGGED,
) -> LearningEnvironment:
    """Append a precedent to the bag.  Duplicates are allowed and kept.

    The new edge is ``e<n>``, one past the highest numeric ``e`` suffix in use.
    """
    if from_id not in env.activities:
        raise DanglingRef(from_id)
    if to_id not in env.activities:
        raise DanglingRef(to_id)
    number = env.next_edge_number
    edge = PrecedentEdge(f"e{number}", from_id, to_id, label, EdgeTag(tag))
    grown = LearningEnvironment(env.activities, env.edges + (edge,), env.objects, env.tasks)
    # Seed the cache so that a chain of add_edge calls never rescans the edges.
    grown.__dict__["next_edge_number"] = number + 1
    return grown


def is_adjacent(env: LearningEnvironment, u_id: str, v_id: str) -> bool:
    """True when an edge u->v is stored, or either endpoint is a reference node."""
    if u_id not in env.activities:
        raise DanglingRef(u_id)
    if v_id not in env.activities:
        raise DanglingRef(v_id)
    references = env.reference_ids
    return u_id in references or v_id in references or (u_id, v_id) in env.edge_endpoints


def validate(env: LearningEnvironment) -> list[Violation]:
    """Check every structural invariant; returns violations instead of raising.

    The invariants are tested a column at a time first; only an environment that fails a column test, or
    holds a composite object, is walked a record at a time, to list its violations in order.
    """
    if _passes(env):
        return []
    report: list[Violation] = []

    for tid in sorted(env.tasks):
        if not env.tasks[tid].verb:
            report.append(Violation("empty_verb", tid, f"task {tid!r} has an empty verb"))

    for oid in sorted(env.objects):
        obj = env.objects[oid]
        if obj.kind is ObjectKind.ATOMIC:
            if not obj.locator:
                report.append(Violation("bad_object", oid, f"atomic object {oid!r} has no locator"))
            if obj.children:
                report.append(Violation("bad_object", oid, f"atomic object {oid!r} has children"))
        elif obj.kind is ObjectKind.COMPOSITE:
            if not obj.children:
                report.append(Violation("bad_object", oid, f"composite object {oid!r} has no children"))
            for child in obj.children:
                if child not in env.objects:
                    report.append(
                        Violation("dangling_ref", oid, f"object {oid!r} contains missing object {child!r}")
                    )
        else:
            report.append(Violation("bad_object", oid, f"object {oid!r} has unknown kind {obj.kind!r}"))

    report.extend(_containment_cycles(env))

    for aid in sorted(env.activities):
        act = env.activities[aid]
        if act.object_id not in env.objects:
            report.append(
                Violation("dangling_ref", aid, f"activity {aid!r} references missing object {act.object_id!r}")
            )
        if act.task_id not in env.tasks:
            report.append(
                Violation("dangling_ref", aid, f"activity {aid!r} references missing task {act.task_id!r}")
            )
        if act.expected_duration_minutes is not None and act.expected_duration_minutes < 0:
            report.append(
                Violation("bad_duration", aid, f"activity {aid!r} has negative expected duration")
            )

    seen_edge_ids: set[str] = set()
    for edge in env.edges:
        if edge.edge_id in seen_edge_ids:
            report.append(
                Violation("duplicate_edge_id", edge.edge_id, f"edge id {edge.edge_id!r} used twice")
            )
        seen_edge_ids.add(edge.edge_id)
        for endpoint in (edge.from_id, edge.to_id):
            if endpoint not in env.activities:
                report.append(
                    Violation(
                        "dangling_ref",
                        edge.edge_id,
                        f"edge {edge.edge_id!r} touches missing activity {endpoint!r}",
                    )
                )
        if not isinstance(edge.tag, EdgeTag):
            report.append(Violation("bad_tag", edge.edge_id, f"edge {edge.edge_id!r} has unknown tag {edge.tag!r}"))

    return report


_STR = frozenset((str,))
_EDGE_TAG = frozenset((EdgeTag,))  # an enum with members has no subclass, so its type is the isinstance test


def _passes(env: LearningEnvironment) -> bool:
    """Whether :func:`validate` finds nothing, from tests that each read one column of records."""
    objects, activities = env.objects, env.activities
    # Every id a str, so that the record walk's sorts cannot fail; other ids are left to the walk.
    if not all(_STR.issuperset(map(type, ids)) for ids in (env.tasks, objects, activities)):
        return False
    if not all(map(attrgetter("verb"), env.tasks.values())):
        return False
    if objects:  # a composite object, which no reader makes, is left to the record walk
        _, _, kinds, locators, children = zip(*objects.values())
        if not (all(map(is_, kinds, repeat(ObjectKind.ATOMIC))) and all(locators) and not any(children)):
            return False
    if activities:
        _, object_ids, task_ids, _, durations = zip(*activities.values())
        if not (objects.keys() >= set(object_ids) and env.tasks.keys() >= set(task_ids)):
            return False
        if any(map(lt, filter(partial(is_not, None), durations), repeat(0))):
            return False
    if env.edges:
        edge_ids, from_ids, to_ids, _, tags = zip(*env.edges)
        if len(set(edge_ids)) != len(edge_ids) or not activities.keys() >= {*from_ids, *to_ids}:
            return False
        if not _EDGE_TAG.issuperset(map(type, tags)):
            return False
    return True


def _containment_cycles(env: LearningEnvironment) -> list[Violation]:
    # Iterative DFS over the containment relation; each distinct cycle is
    # reported once, keyed by its node set.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {oid: WHITE for oid in env.objects}
    found: list[Violation] = []
    reported: set[frozenset[str]] = set()

    for root in sorted(env.objects):
        if color[root] != WHITE:
            continue
        path: list[str] = []
        stack: list[tuple[str, bool]] = [(root, False)]
        while stack:
            node, leaving = stack.pop()
            if leaving:
                color[node] = BLACK
                path.pop()
                continue
            if color[node] != WHITE:
                continue
            color[node] = GRAY
            path.append(node)
            stack.append((node, True))
            for child in env.objects[node].children:
                if child not in env.objects:
                    continue
                if color[child] == GRAY:
                    cycle = path[path.index(child):] + [child]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        found.append(
                            Violation(
                                "containment_cycle",
                                child,
                                "containment cycle: " + " -> ".join(cycle),
                            )
                        )
                elif color[child] == WHITE:
                    stack.append((child, False))
    return found


def isomorphic(a: LearningEnvironment, b: LearningEnvironment) -> bool:
    """Same nodes (by id and resolved payload) and same edge bag up to edge-id renaming."""
    if set(a.activities) != set(b.activities):
        return False
    for aid, act_a in a.activities.items():
        act_b = b.activities[aid]
        if (act_a.is_reference, act_a.expected_duration_minutes) != (
            act_b.is_reference,
            act_b.expected_duration_minutes,
        ):
            return False
        obj_a, obj_b = a.objects.get(act_a.object_id), b.objects.get(act_b.object_id)
        if obj_a is None or obj_b is None:
            return False
        if (obj_a.title, obj_a.kind, obj_a.locator) != (obj_b.title, obj_b.kind, obj_b.locator):
            return False
        task_a, task_b = a.tasks.get(act_a.task_id), b.tasks.get(act_b.task_id)
        if task_a is None or task_b is None or task_a.verb != task_b.verb:
            return False
    bag_a = Counter((e.from_id, e.to_id, e.label, e.tag) for e in a.edges)
    bag_b = Counter((e.from_id, e.to_id, e.label, e.tag) for e in b.edges)
    return bag_a == bag_b
