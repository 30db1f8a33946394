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
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from functools import cached_property, partial
from itertools import chain, compress, filterfalse, islice, repeat
from operator import attrgetter, is_not, lt, not_
from typing import NamedTuple

from .errors import DanglingRef, DuplicateId, NonAdjacentStep


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
    """True when an edge u->v is stored, or either endpoint is a reference node: the rule of :func:`teleports`."""
    return not teleports(env, (u_id, v_id))[0]


def teleports(env: LearningEnvironment, ids: Sequence[str], strict: bool = False) -> list[bool]:
    """One flag per step of the walk ``ids``: True where no edge u->v is stored and neither end is a reference node.

    The one step rule.  An activity the course lacks raises :class:`DanglingRef` once a step leaves or reaches
    it, the one left before the one reached, so a walk of one unknown id does not raise.  With ``strict``, the
    first unconnected step raises :class:`NonAdjacentStep` with the index of the activity it reaches.
    """
    activities, references, endpoints = env.activities, env.reference_ids, env.edge_endpoints
    if len(ids) > 1 and ids[0] not in activities:  # every later origin is checked as the step before's arrival
        raise DanglingRef(ids[0])
    flags: list[bool] = []
    for u, v in zip(ids, islice(ids, 1, None)):
        if v not in activities:
            raise DanglingRef(v)
        teleport = not (u in references or v in references or (u, v) in endpoints)
        if teleport and strict:
            raise NonAdjacentStep(len(flags) + 1, u, v)
        flags.append(teleport)
    return flags


def validate(env: LearningEnvironment) -> list[Violation]:
    """Check every structural invariant; returns violations instead of raising.

    One pass per rule reads a column of records and gives the keys of the records that break it, so a clean
    environment leaves every pass empty.  The violations are listed record by record (tasks, objects and
    activities by id, containment cycles after the objects, edges in bag order), rule by rule within one.
    """
    tasks, objects, activities, edges = env.tasks, env.objects, env.activities, env.edges
    _, _, kinds, locators, children = columns(objects.values())
    _, object_ids, task_ids, _, durations = columns(activities.values())
    edge_ids, from_ids, to_ids, _, tags = columns(edges)
    if not _STR.issuperset(map(type, chain(tasks, objects, activities))):  # ids that may not sort raise first
        sorted(tasks), sorted(objects), sorted(activities)
    other = set(compress(objects, map(is_not, kinds, repeat(ObjectKind.ATOMIC))))
    composite = {oid for oid in other if objects[oid].kind is ObjectKind.COMPOSITE}
    parents = set(compress(objects, children))
    timed = list(filter(partial(is_not, None), durations))
    missing = {*from_ids, *to_ids} - activities.keys()
    at = range(len(edges))
    # For each kind of record, each rule in the order a record is checked: its pass, and what it reports.
    task_rules, object_rules, activity_rules, edge_rules = [
        [(list(compress(tasks, map(not_, map(attrgetter("verb"), tasks.values())))),
          _says("empty_verb", tasks, "task {k!r} has an empty verb"))],
        [(set(compress(objects, map(not_, locators))) - other if not all(locators) else (),
          _says("bad_object", objects, "atomic object {k!r} has no locator")),
         (parents - other, _says("bad_object", objects, "atomic object {k!r} has children")),
         (composite - parents, _says("bad_object", objects, "composite object {k!r} has no children")),
         ([oid for oid in composite if not objects.keys() >= set(objects[oid].children)],
          lambda oid: [Violation("dangling_ref", oid, f"object {oid!r} contains missing object {child!r}")
                       for child in objects[oid].children if child not in objects]),
         (other - composite, _says("bad_object", objects, "object {k!r} has unknown kind {r.kind!r}"))],
        [(holding(activities, object_ids, set(filterfalse(objects.__contains__, object_ids))),
          _says("dangling_ref", activities, "activity {k!r} references missing object {r.object_id!r}")),
         (holding(activities, task_ids, set(filterfalse(tasks.__contains__, task_ids))),
          _says("dangling_ref", activities, "activity {k!r} references missing task {r.task_id!r}")),
         (holding(activities, durations, set(compress(timed, map(lt, timed, repeat(0))))),
          _says("bad_duration", activities, "activity {k!r} has negative expected duration"))],
        [(repeats(edge_ids), _says("duplicate_edge_id", edges, "edge id {r.edge_id!r} used twice", "edge_id")),
         (holding(at, from_ids, missing),
          _says("dangling_ref", edges, "edge {r.edge_id!r} touches missing activity {r.from_id!r}", "edge_id")),
         (holding(at, to_ids, missing),
          _says("dangling_ref", edges, "edge {r.edge_id!r} touches missing activity {r.to_id!r}", "edge_id")),
         (holding(at, map(type, tags), set(map(type, tags)) - {EdgeTag}),  # an enum with members has no subclass
          _says("bad_tag", edges, "edge {r.edge_id!r} has unknown tag {r.tag!r}", "edge_id"))],
    ]
    return [*_listed(tasks, task_rules), *_listed(objects, object_rules),
            *(_containment_cycles(env) if parents else ()),  # only an object with children can be in a cycle
            *_listed(activities, activity_rules), *_listed(at, edge_rules)]


def _says(code: str, records, message: str, subject: str | None = None) -> Callable[[object], list[Violation]]:
    """A rule's report on the record at a key: its code, the key (or the record's ``subject`` field) and its
    message, formatted with the key ``k`` and the record ``r``."""
    return lambda key: [Violation(code, key if subject is None else getattr(records[key], subject),
                                  message.format(k=key, r=records[key]))]


def holding(keys: Iterable, column: Iterable, values: set) -> list:
    """The keys, in order, whose entry in ``column`` is one of ``values``; no scan when there is none."""
    return list(compress(keys, map(values.__contains__, column))) if values else []


def repeats(column: Sequence, held: dict | None = None) -> list[int]:
    """The positions in ``column`` of each value that an earlier position, or a key of ``held``, holds; no scan
    when all differ."""
    if len(set(column)) == len(column) and not (held and held.keys() & set(column)):
        return []
    first = dict.fromkeys(held or (), -1)
    return [at for at, value in enumerate(column) if first.setdefault(value, at) != at]


def _listed(keys: Iterable, rules: list[tuple[Iterable, Callable]]) -> list[Violation]:
    """The violations of ``rules``, record by record in the sorted order of ``keys``, rule by rule within one."""
    found: dict = {}
    for refused, report in rules:
        for key in refused:
            found.setdefault(key, []).extend(report(key))
    return [violation for key in sorted(keys) if key in found for violation in found[key]] if found else []


def columns(records: Iterable[tuple], width: int = 5) -> tuple[tuple, ...]:
    """The fields of ``records`` as columns, in record order; ``width`` empty columns when there is no record."""
    return tuple(zip(*records)) or ((),) * width


_STR = frozenset((str,))


def _containment_cycles(env: LearningEnvironment) -> list[Violation]:
    # Iterative DFS over the containment relation from each object in id order; each distinct cycle is
    # reported once, keyed by its node set.  An object is GRAY while on the walk's path, BLACK once left.
    GRAY, BLACK = 1, 2
    color: dict[str, int] = {}
    found: list[Violation] = []
    reported: set[frozenset[str]] = set()

    for root in sorted(env.objects):
        path: list[str] = []
        stack: list[tuple[str, bool]] = [(root, False)]
        while stack:
            node, leaving = stack.pop()
            if leaving:
                color[node] = BLACK
                path.pop()
                continue
            if node in color:
                continue
            color[node] = GRAY
            path.append(node)
            stack.append((node, True))
            for child in env.objects[node].children:
                if color.get(child) == GRAY:
                    cycle = path[path.index(child):] + [child]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        found.append(Violation("containment_cycle", child, "containment cycle: " + " -> ".join(cycle)))
                elif child in env.objects and child not in color:
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
