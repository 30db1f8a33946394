"""Seeded, stdlib-only input generator for the odlgraph benchmark.

Writes every input a workload needs into one directory: graph courses
(``.odlg``, with a share of reference nodes), an outline course (``.odlc``),
access logs (CSV, shuffled line order), a JSON-Lines note store and a
cluster file, all in the formats the package README documents.  The files
are written directly, never through ``odlgraph``, so the program under test
receives only generated bytes.  The same seed always gives byte-identical
files.

Run on its own::

    python3 bench/gen.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

LEARNERS_PER_STORE = 200
SESSION_GAP = (3_600, 86_400)  # seconds between sessions, always over the 1800 s timeout
STEP_GAP = (5, 300)  # seconds between clicks inside a session
VERBS = ("read", "write", "exerc", "observe", "listen")
TAGS = ("difficulty", "interest", "failure")

# Every workload names its main inputs and a few small side inputs, so that
# each layer of the pipeline runs at least a little on every workload.
PROFILES = {
    "analytics": {
        "course": {"activities": 300, "refs": 30, "extra_edges": 300},
        "log": {"kind": "walk", "learners": 1000, "lines": 30_000, "session_len": (5, 30),
                "back": 0.12, "ref": 0.08, "teleport": 0.02, "unknown": 0.005},
        "outline": 60,
        "store": (80, 20),
        "clusters": 8,
        "build_edges": 40,
    },
    "mining": {
        "course": {"activities": 186, "refs": 6, "extra_edges": 180},
        "log": {"kind": "dense", "learners": 200, "lines": 20_000, "topics": 4, "core": 26, "alternatives": 9,
                "stray": 0.3, "back": 0.1},
        "side_log": {"kind": "walk", "learners": 40, "lines": 1_000, "session_len": (5, 30),
                     "back": 0.12, "ref": 0.08, "teleport": 0.02, "unknown": 0.005},
        "outline": 60,
        "store": (80, 20),
        "clusters": 8,
        "build_edges": 40,
    },
    "authoring": {
        "course": {"activities": 800, "refs": 5, "extra_edges": 300},
        "side_log": {"kind": "walk", "learners": 40, "lines": 1_000, "session_len": (5, 30),
                     "back": 0.12, "ref": 0.08, "teleport": 0.02, "unknown": 0.005},
        "outline": 1500,
        "store": (2000, 500),
        "clusters": 40,
        "build_edges": 600,
    },
}


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def graph_course(rng: random.Random, activities: int, refs: int, extra_edges: int) -> tuple[str, dict]:
    """An ``.odlg`` course: a sequence spine with back edges, extra tagged edges and reference nodes.

    Returns the text and a shape dict (ids, reference ids, out-neighbours).
    """
    ids = [f"A{i}" for i in range(1, activities + 1)]
    ref_ids = sorted(rng.sample(ids, refs), key=lambda a: int(a[1:]))
    ref_set = set(ref_ids)
    lines = ["# generated course"]
    for i, aid in enumerate(ids, 1):
        if aid in ref_set:
            fields = [aid, f"Reference {i}", "consult", f"ref/{i}.html", "ref", ""]
        else:
            title = f"Unit {i} | part {rng.randint(1, 9)}" if rng.random() < 0.1 else f"Unit {i}"
            duration = str(rng.randint(1, 90)) if rng.random() < 0.3 else ""
            fields = [aid, title, rng.choice(VERBS), f"content/{i}.html", "", duration]
        lines.append("NODE " + "|".join(_escape(f) for f in fields))

    content = [a for a in ids if a not in ref_set]
    edges: list[tuple[str, str, str, str]] = []
    for a, b in zip(content, content[1:]):
        edges.append((a, b, "sequence", ""))
        edges.append((b, a, "failure", f"if you failed {b}"))
    for _ in range(extra_edges):
        a, b = rng.sample(content, 2)
        tag = rng.choice(TAGS)
        edges.append((a, b, tag, f"if you found {a} {rng.choice(('easy', 'hard', 'dull'))}"))
        if rng.random() < 0.1:
            edges.append((a, b, tag, edges[-1][3]))  # duplicates are meaningful and kept
    out: dict[str, list[str]] = {a: [] for a in ids}
    for a, b, tag, label in edges:
        lines.append("EDGE " + "|".join(_escape(f) for f in (a, b, tag, label)))
        out[a].append(b)
    return "\n".join(lines) + "\n", {"ids": ids, "refs": ref_ids, "content": content, "out": out}


def outline_course(rng: random.Random, count: int) -> str:
    """An ``.odlc`` outline whose depth drifts by at most one level per line."""
    lines = ["Generated outline"]
    depth = 0
    for i in range(1, count + 1):
        roll = rng.random()
        if i > 1 and roll < 0.2 and depth < 4:
            depth += 1
        elif roll < 0.4 and depth > 0:
            depth = rng.randint(0, depth - 1)
        verb = rng.choice(VERBS) + "\t" if rng.random() < 0.7 else ""
        lines.append("\t" * depth + f"{verb}Topic {i} section {rng.randint(1, 50)}")
    return "\n".join(lines) + "\n"


def _walk_session(rng: random.Random, shape: dict, spec: dict, length: int) -> list[str]:
    """One session as a walk: forward steps, back-steps, reference look-ups, rare jumps."""
    content, refs, out = shape["content"], shape["refs"], shape["out"]
    walk = [rng.choice(content)]
    while len(walk) < length:
        here = walk[-1]
        roll = rng.random()
        if roll < spec["unknown"]:
            walk.append(f"X{rng.randint(1, 999)}")
            walk.append(here)  # the walk goes on from where it was
            continue
        roll -= spec["unknown"]
        if roll < spec["back"] and len(walk) > 1 and walk[-2] in out:
            walk.append(walk[-2])
        elif roll < spec["back"] + spec["ref"] and refs:
            walk.append(rng.choice(refs))
            walk.append(here)
        elif roll < spec["back"] + spec["ref"] + spec["teleport"] or here not in out or not out[here]:
            walk.append(rng.choice(content))
        else:
            walk.append(rng.choice(out[here]))
    return walk[:length]


def _topics(rng: random.Random, content: list[str], spec: dict) -> list[tuple[list[str], list[tuple[str, str]]]]:
    """Split content into topic blocks of core units plus units offered in two alternative versions.

    A session takes exactly one version of each alternative unit, so a
    topic's co-occurrence graph is a complete graph minus one edge per
    alternative pair, which has exactly ``2 ** alternatives`` maximal cliques.
    """
    per_topic = spec["core"] + 2 * spec["alternatives"]
    pool = rng.sample(content, spec["topics"] * per_topic)
    topics = []
    for t in range(spec["topics"]):
        block = pool[t * per_topic:(t + 1) * per_topic]
        core, rest = block[:spec["core"]], block[spec["core"]:]
        topics.append((core, list(zip(rest[0::2], rest[1::2]))))
    return topics


def _dense_session(rng: random.Random, shape: dict, spec: dict, topics: list) -> list[str]:
    """One long session over one topic, with a rare off-topic visit and some back-steps."""
    core, alternatives = rng.choice(topics)
    distinct = core + [rng.choice(pair) for pair in alternatives]
    rng.shuffle(distinct)
    if rng.random() < spec["stray"]:
        distinct.insert(rng.randrange(len(distinct)), rng.choice(shape["content"]))
    walk: list[str] = []
    for aid in distinct:
        walk.append(aid)
        if len(walk) > 2 and rng.random() < spec["back"]:
            walk.append(walk[-3])
    return walk


def access_log(rng: random.Random, shape: dict, spec: dict) -> str:
    """CSV ``learner_id,timestamp,activity_id`` with exactly ``spec['lines']`` data lines, shuffled."""
    topics = _topics(rng, shape["content"], spec) if spec["kind"] == "dense" else []
    rows: list[str] = []
    clock: dict[str, int] = {}
    while len(rows) < spec["lines"]:
        learner = f"u{rng.randint(1, spec['learners'])}"
        if spec["kind"] == "dense":
            walk = _dense_session(rng, shape, spec, topics)
        else:
            walk = _walk_session(rng, shape, spec, rng.randint(*spec["session_len"]))
        t = clock.get(learner, 1_000_000) + rng.randint(*SESSION_GAP)
        for aid in walk[: spec["lines"] - len(rows)]:
            rows.append(f"{learner},{t},{aid}")
            t += rng.randint(*STEP_GAP)
        clock[learner] = t
    rng.shuffle(rows)
    return "learner_id,timestamp,activity_id\n" + "\n".join(rows) + "\n"


def note_store(rng: random.Random, shape: dict, notes: int, messages: int) -> str:
    """A JSON-Lines note store: notes first, then pointer-only messages that reference visible notes."""
    records = []
    visible: dict[str, list[str]] = {}  # learner -> note ids that learner may point at
    public: list[str] = []
    for i in range(1, notes + 1):
        learner = f"u{rng.randint(1, LEARNERS_PER_STORE)}"
        access = rng.choice(("private", "tutors", "all"))
        note_id = f"n{i}"
        records.append({
            "kind": "note", "note_id": note_id, "node_id": rng.choice(shape["ids"]),
            "learner_id": learner, "timestamp": 1_000_000 + i * 60, "access": access,
            "body": f"note {i} about {rng.choice(VERBS)}",
            "attachments": [f"file{i}.pdf"] if rng.random() < 0.1 else [],
        })
        visible.setdefault(learner, []).append(note_id)
        if access == "all":
            public.append(note_id)
    for i in range(1, messages + 1):
        sender = f"u{rng.randint(1, LEARNERS_PER_STORE)}"
        seen = visible.get(sender, []) + public
        refs = sorted(set(rng.sample(seen, min(len(seen), rng.randint(1, 3)))), key=lambda n: int(n[1:]))
        recipients = "*" if rng.random() < 0.1 else sorted(
            {f"u{rng.randint(1, LEARNERS_PER_STORE)}" for _ in range(rng.randint(1, 4))})
        records.append({
            "kind": "message", "message_id": f"m{i}", "sender_id": sender,
            "recipients": recipients, "note_refs": refs, "sent_at": 2_000_000 + i * 60,
        })
    return "".join(json.dumps(r, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records)


def cluster_file(rng: random.Random, shape: dict, count: int) -> str:
    """``kind<TAB>support<TAB>member,member,...`` lines over the course's activities."""
    lines = []
    for _ in range(count):
        members = sorted(rng.sample(shape["ids"], rng.randint(2, 6)), key=lambda a: int(a[1:]))
        lines.append(f"{rng.choice(('clique', 'component'))}\t{rng.randint(2, 40)}\t{','.join(members)}")
    return "\n".join(lines) + "\n"


def notes_plan(rng: random.Random, store_text: str, shape: dict) -> dict:
    """Arguments for the note commands a job runs, including one send that must be refused."""
    notes = [json.loads(line) for line in store_text.splitlines() if '"kind":"note"' in line]
    private = [n for n in notes if n["access"] == "private"]
    victim = rng.choice(private)
    thief = next(f"u{k}" for k in range(1, LEARNERS_PER_STORE + 2) if f"u{k}" != victim["learner_id"])
    public = [n for n in notes if n["access"] == "all"]
    return {
        "add": [{"node": rng.choice(shape["ids"]), "learner": f"u{rng.randint(1, LEARNERS_PER_STORE)}",
                 "access": rng.choice(("private", "tutors", "all")), "body": f"added {k}"} for k in range(3)],
        "send": [{"sender": n["learner_id"], "to": f"u{rng.randint(1, LEARNERS_PER_STORE)}", "refs": n["note_id"]}
                 for n in rng.sample(public, 3)],
        "refused": {"sender": thief, "to": victim["learner_id"], "refs": victim["note_id"]},
        "list": [{"node": n["node_id"], "requester": n["learner_id"], "role": role}
                 for n, role in zip(rng.sample(notes, 2), ("learner", "tutor"))],
        "inbox": [f"u{rng.randint(1, LEARNERS_PER_STORE)}" for _ in range(2)],
    }


def build_spec(rng: random.Random, edges: int) -> str:
    """A small ``.odlg`` course that the library job rebuilds call by call through the model builders."""
    nodes = max(2, edges // 2)
    refs = max(1, nodes // 20)
    spine = 2 * (nodes - refs - 1)  # graph_course links consecutive content nodes both ways
    text, _ = graph_course(rng, nodes, refs, edges - spine)
    return text


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input of ``workload`` for ``seed`` into ``out``; return the job parameters."""
    profile = PROFILES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    course_text, shape = graph_course(rng, **profile["course"])
    files["course.odlg"] = course_text
    if "log" in profile:
        files["log.csv"] = access_log(rng, shape, profile["log"])
    if "side_log" in profile:
        files["side.csv"] = access_log(rng, shape, profile["side_log"])
    files["outline.odlc"] = outline_course(rng, profile["outline"])
    files["notes.jsonl"] = note_store(rng, shape, *profile["store"])
    files["clusters.tsv"] = cluster_file(rng, shape, profile["clusters"])
    files["build.odlg"] = build_spec(rng, profile["build_edges"])
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return {"notes": notes_plan(rng, files["notes.jsonl"], shape)}


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in PROFILES:
        sys.exit(f"usage: gen.py {{{','.join(PROFILES)}}} SEED OUTDIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
