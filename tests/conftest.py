from __future__ import annotations

import copy
import pickle

import pytest

from odlgraph.model import (
    EdgeTag,
    LearningActivity,
    LearningEnvironment,
    LearningObject,
    LearningTask,
    ObjectKind,
    PrecedentEdge,
)
from odlgraph.sessions import LearningExperience, Visit

# Transcription of a mergesort study unit in the tabular course format:
# a depth-0 reading spine with indented exercise and media detours.
MERGESORT_COURSE = """\
The divide-and-conquer approach
read\t2.3.1 The divide-and-conquer approach
... the first two paragraphs
write\tThink how you would apply the above principle to
read\t2.3.1 The divide-and-conquer approach
... the next paragraph
write\tYou might want to rethink your previous answer
Think about the following details
\texerc\tHow do you split in two a sequence that has an odd number of elements?
\texerc\tHow do you decide that a sub-problem is "small enough"?
\texerc\tIs there an optimal number of sequences?
read\t2.1 Insertion sort
read\t2.2 Analyzing algorithms
\tobserve\tPresentation by MIT OCW Algorithms Lecture 01
read\t2.3.1 The divide-and-conquer approach
... the next three paragraphs
programming\tWrite a program for mergesort (do not test it)
exerc\tWhat kind of input do you think you need for testing?
\tWWW\tSee an applet that demonstrates the mergesort algorithm
\tWWW\tSee a collection of sorting algorithms
\texerc\tCan you argue which of the above algorithms are divide-n-conquer?
"""


def quick_env(
    node_ids: list[str],
    edges: list[tuple[str, str]] | None = None,
    reference: set[str] | None = None,
) -> LearningEnvironment:
    """A small environment with one shared object/task and the given topology."""
    reference = reference or set()
    objects = {"O1": LearningObject("O1", "content", ObjectKind.ATOMIC, "content")}
    tasks = {"read": LearningTask("read", "read")}
    activities = {
        nid: LearningActivity(nid, "O1", "read", is_reference=nid in reference)
        for nid in node_ids
    }
    bag = tuple(
        PrecedentEdge(f"e{i + 1}", a, b, "", EdgeTag.UNTAGGED)
        for i, (a, b) in enumerate(edges or [])
    )
    return LearningEnvironment(activities, bag, objects, tasks)


def assert_record_contract(cls, values: tuple, fields: tuple[str, ...], defaults: dict) -> None:
    """A named-tuple record: its fields, order, defaults and ``repr``, immutability, value equality and hashing.

    A record whose values hold a dict hashes as its plain tuple does: not at all.  Every record survives
    a pickle and a copy as an equal value of its own type.
    """
    record = cls(*values)
    assert cls._fields == fields and cls._field_defaults == defaults
    assert tuple(getattr(record, name) for name in fields) == values
    assert record == values  # a named tuple equals the plain tuple of its values
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields, values)) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    twin = cls(*values)
    assert twin == record and twin is not record
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) == expected
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is cls and again == record
    changed = record._replace(**{fields[0]: "other"})
    assert changed != record and getattr(changed, fields[0]) == "other" and record == twin
    required = len(fields) - len(defaults)
    assert cls(*values[:required]) == cls(*values[:required], *defaults.values())


def walk(ids: list[str], learner: str = "u1") -> LearningExperience:
    visits = tuple(Visit(a, i, False) for i, a in enumerate(ids))
    return LearningExperience(learner, visits, (1,))


@pytest.fixture
def mergesort_text() -> str:
    return MERGESORT_COURSE
