"""Differential test of the course and note-store codecs: this checkout's ``src/`` against another revision's.

Usage, from the repository root::

    python3 tools/codec_differential.py REV [N]

``REV``'s ``src/`` is unpacked from ``git archive`` into a temporary directory.  Both trees then read the
same ``N`` seeded inputs (default 4,000): courses and note stores with zero to three planted faults each.
Every course goes through ``validate``, ``serialize(..., "odlg")`` and ``export_dot`` in three styles
(plain, with reference edges, and a visit-order overlay); every store through ``loads`` and, when it
loads, ``dumps`` of a copy with one field made a wrong type, ``attach_note`` and ``send_message``.  An outcome is the ``repr`` of what a call
returns, or the type and message of what it raises.  Every outcome that differs is printed, and the
exit code is 1 when there is any, else 0.

Each tree runs in its own interpreter, with a different ``PYTHONHASHSEED``, so that an outcome that
hangs on set or dict order shows up as a difference.  This is a slow check kept out of the test suite.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHARS = list('ab|\\" {}é\t\x00')  # characters the writers escape or quote, braces, non-ASCII text, a tab and NUL
COURSE_FAULTS = ("line end", "whitespace", "empty id", "id not text", "composite object", "unknown kind",
                 "duration", "bad tag", "dangling edge", "empty verb", "no locator", "atomic with children",
                 "composite without children", "missing child", "containment cycle", "missing object",
                 "missing task", "duplicate edge id", "text subclass", "label not text", "title not text",
                 "duration not a number", "course title not text", "verb not text", "locator not text")
STORE_FAULTS = ("bad json", "not an object", "unhashable kind", "unknown kind", "missing field",
                "bool as integer", "float as integer", "attachments not a list", "attachment not a string",
                "negative time", "duplicate id", "unknown activity", "dangling ref", "unknown access",
                "recipients not a list", "padded record", "trailing data", "deep nesting", "deep field",
                "long integer")


class Text(str):
    """Text that is no exact ``str``."""


def _word(rng: random.Random, low: int = 1) -> str:
    word = "".join(rng.choice(CHARS) for _ in range(rng.randint(low, 4)))
    return word.strip() or "w"


def course(rng: random.Random, m):
    """A course and a title with zero to three faults planted, built with the classes of the tree ``m``."""
    aids = list(dict.fromkeys(_word(rng) for _ in range(rng.randint(1, 6))))
    objects, tasks, activities = {}, {}, {}
    for number, aid in enumerate(aids, 1):
        oid = f"O{number}"
        objects[oid] = m.LearningObject(oid, _word(rng), m.ObjectKind.ATOMIC, _word(rng))
        verb = rng.choice(["read", "write", _word(rng)])
        tasks[verb] = m.LearningTask(verb, verb)
        duration = rng.choice([None, None, rng.randint(0, 90), rng.uniform(0, 1e6)])
        activities[aid] = m.LearningActivity(aid, oid, verb, rng.random() < 0.3, duration)
    edges = [m.PrecedentEdge(f"e{k}", rng.choice(aids), rng.choice(aids), rng.choice(["", "", _word(rng)]),
                             rng.choice(list(m.EdgeTag))) for k in range(1, rng.randint(1, 9))]
    title = rng.choice(["Course", "", _word(rng)])
    for fault in rng.sample(COURSE_FAULTS, rng.choice([0, 1, 1, 1, 2, 3])):
        title = _plant(rng, m, fault, objects, tasks, activities, edges, title)
    return m.LearningEnvironment(activities, tuple(edges), objects, tasks), title


def _rename(activities: dict, edges: list, old, new) -> None:
    """Activity ``old`` called ``new``, in its key, its record and its edges, keeping the key order."""
    renamed = {new if aid == old else aid: act._replace(id=new) if aid == old else act
               for aid, act in activities.items()}
    activities.clear()
    activities.update(renamed)
    edges[:] = [e._replace(from_id=new if e.from_id == old else e.from_id, to_id=new if e.to_id == old else e.to_id)
                for e in edges]


def _plant(rng, m, fault, objects, tasks, activities, edges, title):
    """Plant ``fault`` in the course's parts, in place; returns the title, which a fault may change."""
    aid = rng.choice(list(activities))
    act = activities[aid]
    obj = objects.get(act.object_id)
    if fault in ("line end", "whitespace"):
        where = rng.choice(["activity id", "object title", "verb", "locator", "edge label", "title"])
        planted = rng.choice(["\n", "\r", "\r\n"] if fault == "line end" else [" ", "\t", "\x0c", " "])

        def change(text):
            if not isinstance(text, str):  # a field an earlier fault made no text
                return text
            return rng.choice([planted + text, text + planted, text[:1] + planted + text[1:]])

        if where == "title":
            return change(title)
        if where == "activity id":
            _rename(activities, edges, aid, change(aid))
        elif where == "edge label":
            edges.append(m.PrecedentEdge("e0", aid, aid, change("label"), m.EdgeTag.UNTAGGED))
        elif where == "verb" and act.task_id in tasks:
            tasks[act.task_id] = tasks[act.task_id]._replace(verb=change(tasks[act.task_id].verb))
        elif obj is not None:
            field = "title" if where == "object title" else "locator"
            objects[obj.id] = obj._replace(**{field: change(getattr(obj, field))})
    elif fault in ("empty id", "id not text"):
        _rename(activities, edges, aid, "" if fault == "empty id" else rng.choice([5, 7, ("a",), ("\n",)]))
    elif fault == "composite object":
        objects["part"] = m.LearningObject("part", "part", m.ObjectKind.ATOMIC, "part")
        objects[act.object_id] = m.LearningObject(act.object_id, "whole", m.ObjectKind.COMPOSITE, "", ("part",))
    elif fault == "unknown kind" and obj is not None:
        objects[obj.id] = obj._replace(kind=rng.choice(["atomic", "blob"]))
    elif fault == "duration":
        activities[aid] = act._replace(expected_duration_minutes=rng.choice([float("inf"), float("nan"), -1.5]))
    elif fault == "duration not a number":
        activities[aid] = act._replace(expected_duration_minutes="5")
    elif fault in ("bad tag", "dangling edge", "label not text"):
        tag = rng.choice(["sequence", "bogus"]) if fault == "bad tag" else m.EdgeTag.UNTAGGED
        ends = [aid, "missing"] if fault == "dangling edge" else [aid, aid]
        rng.shuffle(ends)
        label = rng.choice([None, 0, 5, ["a"], ("\r",)]) if fault == "label not text" else ""
        edges.insert(rng.randint(0, len(edges)), m.PrecedentEdge("e0", *ends, label, tag))
    elif fault == "empty verb" and act.task_id in tasks:
        tasks[act.task_id] = tasks[act.task_id]._replace(verb="")
    elif fault == "no locator" and obj is not None:
        objects[obj.id] = obj._replace(locator="")
    elif fault == "atomic with children" and obj is not None:
        objects[obj.id] = obj._replace(children=(rng.choice(list(objects)),))
    elif fault == "composite without children" and obj is not None:
        objects[obj.id] = obj._replace(kind=m.ObjectKind.COMPOSITE, locator="")
    elif fault == "missing child" and obj is not None:
        objects[obj.id] = obj._replace(kind=m.ObjectKind.COMPOSITE, children=("gone", rng.choice(list(objects))))
    elif fault == "containment cycle":
        objects["c1"] = m.LearningObject("c1", "c1", m.ObjectKind.COMPOSITE, "", ("c2",))
        objects["c2"] = m.LearningObject("c2", "c2", m.ObjectKind.COMPOSITE, "", ("c1",))
    elif fault == "missing object":
        activities[aid] = act._replace(object_id="O99")
    elif fault == "missing task":
        activities[aid] = act._replace(task_id="nope")
    elif fault == "duplicate edge id" and edges:
        edges.append(rng.choice(edges))
    elif fault == "text subclass":
        _rename(activities, edges, aid, Text(aid))
        if obj is not None:
            objects[obj.id] = obj._replace(title=Text(obj.title), locator=Text(obj.locator))
        edges[:] = [e._replace(label=Text(e.label)) for e in edges]
    elif fault in ("title not text", "locator not text") and obj is not None:
        value = rng.choice([3, None, ["a"], ("b\r",), {"k": 1}])
        objects[obj.id] = obj._replace(**{"title" if fault == "title not text" else "locator": value})
    elif fault == "verb not text" and act.task_id in tasks:
        tasks[act.task_id] = tasks[act.task_id]._replace(verb=rng.choice([3, ["a"], ("\n",)]))
    elif fault == "course title not text":
        return rng.choice([5, None, ["a"], ("\n",), {"k": 1}, b"x"])
    return title


STORE_NODES = ["LA1", "LA2", "LA3"]


def store_text(rng: random.Random) -> str:
    """A note store's text with zero to two faults planted."""
    texts = ["", "u1", "a b", 'q"\\', "é\t"]
    records = [{"kind": "note", "note_id": f"n{i}", "node_id": rng.choice(STORE_NODES),
                "learner_id": rng.choice(texts), "timestamp": rng.randint(0, 10**12),
                "access": rng.choice(["private", "tutors", "all"]), "body": rng.choice(texts),
                "attachments": rng.sample(texts, rng.randint(0, 2))} for i in range(rng.randint(1, 5))]
    note_ids = [record["note_id"] for record in records]
    records += [{"kind": "message", "message_id": f"m{i}", "sender_id": rng.choice(texts),
                 "recipients": rng.choice(["*", rng.sample(["u1", "u2", "u3"], rng.randint(1, 3))]),
                 "note_refs": rng.sample(note_ids, rng.randint(1, len(note_ids))),
                 "sent_at": rng.randint(0, 10**12)} for i in range(rng.randint(1, 4))]
    rng.shuffle(records)
    options = dict(sort_keys=rng.random() < 0.5, ensure_ascii=rng.random() < 0.5,
                   separators=rng.choice([(",", ":"), (", ", ": ")]))
    lines = [json.dumps(record, **options) for record in records]
    for fault in rng.sample(STORE_FAULTS, rng.choice([0, 1, 1, 1, 2])):
        _plant_line(rng, fault, records, lines, options)
    out = []
    for line in lines:
        out += rng.choice([[], [], [""], [" \t"]])
        out.append(line)
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in out)


def _plant_line(rng, fault, records, lines, options) -> None:
    index = rng.randrange(len(lines))
    record = records[index] = dict(records[index])
    kind = record.get("kind")
    time_field = "timestamp" if kind == "note" else "sent_at"
    line = None
    if fault == "bad json":
        line = lines[index][:-1]
    elif fault == "not an object":
        line = rng.choice([json.dumps(list(record.values())), "5", '"note"', "null"])
    elif fault == "unhashable kind":
        record["kind"] = [kind]
    elif fault == "unknown kind":
        record["kind"] = rng.choice(["banana", None, 1, "Note"])
    elif fault == "missing field":
        del record[rng.choice(sorted(record))]
    elif fault in ("bool as integer", "float as integer", "negative time"):
        record[time_field] = {"bool as integer": True, "float as integer": 1.5, "negative time": -3}[fault]
    elif fault in ("attachments not a list", "attachment not a string") and kind == "note":
        record["attachments"] = "a" if fault == "attachments not a list" else [*record["attachments"], 1]
    elif fault == "duplicate id":
        at = rng.randint(0, len(lines))
        records.insert(at, dict(record))
        lines.insert(at, json.dumps(record, **options))
        return
    elif fault == "unknown activity" and kind == "note":
        record["node_id"] = "LA9"
    elif fault == "dangling ref" and kind == "message":
        record["note_refs"] = [*record["note_refs"], "n99"]
    elif fault == "unknown access" and kind == "note":
        record["access"] = rng.choice(["public", 3, None])
    elif fault == "recipients not a list" and kind == "message":
        record["recipients"] = rng.choice(["u1", 3, ["u1", 2]])
    elif fault == "padded record":
        line = rng.choice([" {}", "{}\t", " {} "]).format(lines[index])
    elif fault == "trailing data":
        line = lines[index] + rng.choice([" x", "{}", "]"])
    elif fault == "deep nesting":
        depth = rng.choice([5000, 100000])
        line = "[" * depth + "]" * depth
    elif fault == "deep field":
        depth = rng.choice([5000, 100000])
        line = lines[index][:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}"
    elif fault == "long integer":
        line = lines[index][:-1] + f', "{time_field}": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}"
    if line is None:
        line = json.dumps(record, **options)
    lines[index] = line


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # an outcome is also the type and message of what is raised
        return f"{type(exc).__name__}: {exc}"


def outcomes(count: int) -> None:
    """Print one JSON line per input: its index, the call and the outcome, with the ``odlgraph`` on the path."""
    from odlgraph import course_format, model, notes
    from odlgraph.dot_export import ExportStyle, export_dot
    from odlgraph.options import Overlay

    store_env = model.LearningEnvironment(
        {aid: model.LearningActivity(aid, "O1", "read") for aid in STORE_NODES}, (),
        {"O1": model.LearningObject("O1", "content", model.ObjectKind.ATOMIC, "content")},
        {"read": model.LearningTask("read", "read")})
    out = sys.stdout
    for index in range(count):
        rng = random.Random(index)
        results = []
        if index % 2 == 0:
            env, title = course(rng, model)
            walk = rng.sample(list(env.activities), rng.randint(0, len(env.activities)))
            results += [("validate", lambda: model.validate(env)),
                        ("serialize", lambda: course_format.serialize(env, "odlg", title=title)),
                        ("dot", lambda: export_dot(env)),
                        ("dot reference", lambda: export_dot(env, ExportStyle(include_reference_edges=True))),
                        ("dot visit order", lambda: export_dot(env, ExportStyle(Overlay.VISIT_ORDER), walk))]
        else:
            text = store_text(rng)
            results.append(("loads", lambda: notes.loads(text, store_env)[1:]))
            try:
                store = notes.loads(text, store_env)
            except Exception:
                store = None
            if store is not None and store.notes:
                note = next(iter(store.notes.values()))
                field = rng.choice(list(note._fields))
                bad = note._replace(**{field: rng.choice([getattr(note, field), None, 1.5, True, ["x"], (1,), "x"])})
                broken = store._replace(notes={**store.notes, note.note_id: bad})
                results.append(("dumps", lambda: notes.dumps(broken)))
                # One note and one message appended, each fresh or with one rule of the store broken.
                change = rng.choice([{}, {}, {"note_id": note.note_id}, {"node_id": "LA9"}, {"timestamp": -1},
                                     {field: rng.choice([None, 1.5, True, ["x"], (1,)])}])
                extra = note._replace(**{"note_id": "n-new", **change})
                results.append(("attach_note", lambda: notes.attach_note(store, extra)[1:]))
                sent = dict(message_id=rng.choice(["m-new", "m0"]), sender_id=note.learner_id,
                            recipients=rng.choice(["*", ("u1",), "u1"]), note_refs=(note.note_id,),
                            sent_at=rng.choice([0, 7, -1, True]))
                results.append(("send_message", lambda: notes.send_message(store, notes.Message(**sent), "tutor")[1:]))
        for call, run in results:
            out.write(json.dumps([index, call, _outcome(run)]) + "\n")


def _tree(rev: str, into: Path) -> Path:
    """``rev``'s ``src/`` unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def _run(src: Path, count: int, hash_seed: str, into: Path) -> Path:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    with open(into, "w") as out:
        subprocess.run([sys.executable, __file__, "--outcomes", str(count)], env=env, stdout=out, check=True)
    return into


def main(argv: list[str]) -> int:
    if argv[:1] == ["--outcomes"]:
        outcomes(int(argv[1]))
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[0], "\nusage: codec_differential.py REV [N]", file=sys.stderr)
        return 2
    count = int(argv[1]) if len(argv) > 1 else 4000
    with tempfile.TemporaryDirectory() as temp:
        temp = Path(temp)
        old = _run(_tree(argv[0], temp / "old"), count, "1", temp / "old.jsonl")
        new = _run(ROOT / "src", count, "2", temp / "new.jsonl")
        differ = calls = 0
        with open(old) as before, open(new) as after:
            for left, right in zip(before, after, strict=True):
                calls += 1
                if left != right:
                    differ += 1
                    index, call, was = json.loads(left)
                    print(f"input {index} {call}:\n  {argv[0]}: {was[:300]}\n  here: {json.loads(right)[2][:300]}")
    print(f"{count} inputs, {calls} calls, {differ} outcomes differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
