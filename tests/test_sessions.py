from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from odlgraph.errors import DanglingRef, LearnerMismatch, NonAdjacentStep, OdlError, ParseError
from odlgraph.paths import CoverageReport, Cycle
from odlgraph.sessions import (
    ControlBlock,
    Session,
    Visit,
    build_experience,
    iter_blocks,
    parse_log,
    sessionize,
)

import oracles
from conftest import assert_record_contract, quick_env


ENV = quick_env(
    ["LA5", "LA15", "LA7", "Dictionary"],
    [("LA5", "LA15"), ("LA15", "LA5")],
    reference={"Dictionary"},
)
ADJACENT = oracles.step_judge(ENV)


def blocks_of(*rows: tuple[str, int, str]) -> list[ControlBlock]:
    return [ControlBlock(learner, ts, aid) for learner, ts, aid in rows]


def test_a_block_keeps_what_its_line_says_and_the_course_its_object_and_task():
    (block,) = parse_log(["u1,1000,LA5"], ENV)
    assert block == ControlBlock("u1", 1000, "LA5", None)
    activity = ENV.activities[block.activity_id]
    assert (activity.object_id, activity.task_id) == ("O1", "read")


def test_parse_log_blocks_share_the_course_and_learner_strings():
    # Each line splits off fresh strings; blocks hold shared ones instead.
    blocks = parse_log([f"u{i % 2},{i},{aid}" for i, aid in enumerate(["LA5", "LA15", "LA5", "LA7"] * 3)], ENV)
    for block in blocks:
        assert block.activity_id is ENV.activities[block.activity_id].id
    by_learner: dict[str, str] = {}
    for block in blocks:
        assert by_learner.setdefault(block.learner_id, block.learner_id) is block.learner_id
    assert sorted(by_learner) == ["u0", "u1"]


def test_parse_log_keeps_note_pointer():
    (block,) = parse_log(["u1,1000,LA5,n42"], ENV)
    assert block.note_id == "n42"


def test_parse_log_rejects_bad_timestamp():
    with pytest.raises(ParseError) as err:
        parse_log(["u1,notatime,LA5"], ENV)
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_log(["u1,5,LA5", "u1,-3,LA5"], ENV)
    assert (err.value.line_no, err.value.reason) == (2, "negative timestamp")


def test_parse_log_unknown_activity():
    with pytest.raises(DanglingRef) as err:
        parse_log(["u1,5,LA5", "u1,6,LA99"], ENV)
    assert err.value.missing_id == "LA99" and err.value.line_no == 2

    skipped: list[tuple[int, str]] = []
    kept = parse_log(["u1,5,LA5", "u1,6,LA99"], ENV, skip_unknown=True, skipped=skipped)
    assert [b.activity_id for b in kept] == ["LA5"]
    assert skipped == [(2, "LA99")]


def test_a_timestamp_padded_with_what_strip_drops_but_int_refuses_is_read():
    # int() skips surrounding whitespace except U+001C to U+001F, which str.strip() drops.
    (block,) = parse_log(["u1,\x1c5\x1c,LA5"], ENV)
    assert block.timestamp == 5
    assert [b.timestamp for b in parse_log(["u1, \x1f7\t,LA5", "u1,\x1d5\x1e,LA5"], ENV)] == [7, 5]
    with pytest.raises(ParseError) as err:
        parse_log(["u1,5,LA5", "u1,\x1cx\x1f,LA5"], ENV)
    assert err.value.line_no == 2 and "bad timestamp 'x'" in str(err.value)


def test_iter_blocks_gives_parse_log_a_block_at_a_time():
    lines = ["u1,5,LA5", "u1,6,GHOST", "u2,7,LA15", "u1,soon,LA5", "u1,8,LA5"]
    skipped: list[tuple[int, str]] = []
    found = iter_blocks(lines, ENV, skip_unknown=True, skipped=skipped)
    assert next(found) == ControlBlock("u1", 5, "LA5")
    assert skipped == []
    assert next(found).learner_id == "u2"
    assert skipped == [(2, "GHOST")]
    with pytest.raises(ParseError) as err:
        next(found)  # the bad line raises when the iteration reaches it
    assert err.value.line_no == 4
    assert parse_log(lines[:3], ENV, skip_unknown=True) == list(iter_blocks(lines[:3], ENV, skip_unknown=True))


def test_sessionize_takes_blocks_one_at_a_time():
    blocks = blocks_of(("u2", 0, "LA5"), ("u1", 600, "LA15"), ("u1", 0, "LA5"), ("u1", 5000, "LA7"))
    assert sessionize(iter(blocks), 1800) == sessionize(blocks, 1800)


def test_parse_log_skips_optional_header_and_blanks():
    kept = parse_log(["learner_id,timestamp,activity_id", "", "u1,1,LA5"], ENV)
    assert len(kept) == 1


def test_sessionize_splits_at_timeout_gap():
    sessions = sessionize(blocks_of(("u1", 0, "LA5"), ("u1", 600, "LA15"), ("u1", 3000, "LA5")), 1800)
    assert [[b.timestamp for b in s.blocks] for s in sessions] == [[0, 600], [3000]]
    assert [s.session_index for s in sessions] == [1, 2]


def test_sessionize_singleton():
    (session,) = sessionize(blocks_of(("u1", 42, "LA5")), 1800)
    assert len(session.blocks) == 1 and session.session_index == 1


def test_sessionize_partitions_independently_per_learner():
    interleaved = blocks_of(
        ("u1", 0, "LA5"), ("u2", 1, "LA15"), ("u1", 10, "LA15"), ("u2", 5000, "LA5"), ("u1", 20, "LA5")
    )
    sessions = sessionize(interleaved, 1800)
    for learner in ("u1", "u2"):
        mine = [s for s in sessions if s.learner_id == learner]
        stamps = sorted(b.timestamp for b in interleaved if b.learner_id == learner)
        assert [[b.timestamp for b in s.blocks] for s in mine] == oracles.gap_sessions(stamps, 1800)


def test_sessionize_requires_positive_timeout():
    with pytest.raises(ValueError):
        sessionize([], 0)


def test_experience_concatenates_sessions_without_teleports():
    sessions = sessionize(blocks_of(("u1", 0, "LA5"), ("u1", 10, "LA15"), ("u1", 9000, "LA5")), 1800)
    exp = build_experience(sessions, ENV)
    assert [v.activity_id for v in exp.visits] == ["LA5", "LA15", "LA5"]
    assert [v.teleport for v in exp.visits] == [False, False, False]
    assert exp.source_sessions == (1, 2)


def test_reference_node_step_is_not_a_teleport():
    sessions = sessionize(blocks_of(("u1", 0, "LA7"), ("u1", 5, "Dictionary"), ("u1", 9, "LA7")), 1800)
    exp = build_experience(sessions, ENV)
    assert all(not v.teleport for v in exp.visits)


def test_lenient_mode_marks_teleports_where_not_adjacent():
    sessions = sessionize(blocks_of(("u1", 0, "LA7"), ("u1", 5, "LA5")), 1800)
    exp = build_experience(sessions, ENV, "lenient")
    assert [v.teleport for v in exp.visits] == [False, True]


def test_strict_mode_raises_on_non_adjacent_step():
    sessions = sessionize(blocks_of(("u1", 0, "LA7"), ("u1", 5, "LA5")), 1800)
    with pytest.raises(NonAdjacentStep) as err:
        build_experience(sessions, ENV, "strict")
    assert err.value.position == 1


def test_mixed_learners_rejected():
    sessions = sessionize(blocks_of(("u1", 0, "LA5"), ("u2", 0, "LA5")), 1800)
    with pytest.raises(LearnerMismatch):
        build_experience(sessions, ENV)


def test_experience_rejects_bad_mode_and_empty_input():
    sessions = sessionize(blocks_of(("u1", 0, "LA5")), 1800)
    with pytest.raises(ValueError):
        build_experience(sessions, ENV, "sloppy")
    with pytest.raises(ValueError):
        build_experience([], ENV)


# --- randomized partition properties -----------------------------------------


@st.composite
def random_blocks(draw) -> list[ControlBlock]:
    n = draw(st.integers(min_value=1, max_value=30))
    rows = []
    for _ in range(n):
        learner = draw(st.sampled_from(["u1", "u2", "u3"]))
        ts = draw(st.integers(min_value=0, max_value=20_000))
        aid = draw(st.sampled_from(["LA5", "LA15", "LA7", "Dictionary"]))
        rows.append((learner, ts, aid))
    return blocks_of(*rows)


@given(random_blocks(), st.integers(min_value=1, max_value=5000))
@settings(max_examples=150)
def test_sessionize_is_a_partition_with_correct_gaps(blocks, timeout):
    sessions = sessionize(blocks, timeout)
    order = [(s.learner_id, s.session_index) for s in sessions]
    assert order == sorted(order)  # the CLI groups learners by this order
    for learner in {b.learner_id for b in blocks}:
        mine = [s for s in sessions if s.learner_id == learner]
        assert [s.session_index for s in mine] == list(range(1, len(mine) + 1))
        assert sum(len(s.blocks) for s in mine) == sum(1 for b in blocks if b.learner_id == learner)
        flattened = [b.timestamp for s in mine for b in s.blocks]
        assert flattened == sorted(b.timestamp for b in blocks if b.learner_id == learner)
        for s in mine:
            stamps = [b.timestamp for b in s.blocks]
            assert all(b - a <= timeout for a, b in zip(stamps, stamps[1:]))
        for earlier, later in zip(mine, mine[1:]):
            assert later.blocks[0].timestamp - earlier.blocks[-1].timestamp > timeout


@given(random_blocks(), st.integers(min_value=1, max_value=5000))
@settings(max_examples=100)
def test_lenient_experience_flags_exactly_the_non_adjacent_pairs(blocks, timeout):
    sessions = sessionize(blocks, timeout)
    for learner in {b.learner_id for b in blocks}:
        mine = [s for s in sessions if s.learner_id == learner]
        exp = build_experience(mine, ENV, "lenient")
        ids = [v.activity_id for v in exp.visits]
        for i, visit in enumerate(exp.visits):
            expected = i > 0 and not ADJACENT(ids[i - 1], ids[i])
            assert visit.teleport == expected


def test_equal_timestamps_preserve_log_order():
    rows = [("u1", 100, "LA5"), ("u1", 100, "LA15"), ("u1", 100, "LA7")]
    (session,) = sessionize(blocks_of(*rows), 60)
    assert [b.activity_id for b in session.blocks] == ["LA5", "LA15", "LA7"]


# --- the records --------------------------------------------------------------


@pytest.mark.parametrize(
    "cls,values,fields,defaults",
    [
        (ControlBlock, ("u1", 5, "LA5", "n1"),
         ("learner_id", "timestamp", "activity_id", "note_id"), {"note_id": None}),
        (Visit, ("LA5", 5, True), ("activity_id", "timestamp", "teleport"), {"teleport": False}),
        (Cycle, ("LA5", 0, 2, ("LA7",)), ("anchor_activity", "start_index", "end_index", "interior"), {}),
        (Session, ("u1", (ControlBlock("u1", 5, "LA5"),), 1),
         ("learner_id", "blocks", "session_index"), {}),
        (CoverageReport, (frozenset({"LA5"}), 4, 0.25), ("visited", "total", "ratio"), {}),
    ],
    ids=["ControlBlock", "Visit", "Cycle", "Session", "CoverageReport"],
)
def test_records_keep_their_fields_and_are_immutable_values(cls, values, fields, defaults):
    assert_record_contract(cls, values, fields, defaults)


# --- parse_log against a naive reader ----------------------------------------


COURSE_IDS = frozenset(ENV.activities)


def library_parse(lines: list[str], skip_unknown: bool) -> tuple:
    skipped: list[tuple[int, str]] = []
    try:
        blocks = parse_log(lines, ENV, skip_unknown=skip_unknown, skipped=skipped)
    except ParseError as err:
        return ("parse", err.line_no)
    except DanglingRef as err:
        return ("dangling", err.line_no, err.missing_id)
    return ("ok", [tuple(b) for b in blocks], skipped)


def generated_log(rng: random.Random, lines: int, bad: bool) -> list[str]:
    def pad(text: str) -> str:
        return rng.choice(["", " ", "\t", "  "]) + text + rng.choice(["", " ", "\t"])

    known = sorted(COURSE_IDS)
    out = []
    if rng.random() < 0.7:
        out.append(pad(rng.choice(["learner_id,timestamp,activity_id", "Learner_ID , ts , what", "learner_id"])))
    for _ in range(lines):
        roll = rng.random()
        if roll < 0.08:
            out.append(rng.choice(["", "   ", "\t", "\r"]))
            continue
        fields = [pad(f"u{rng.randint(1, 9)}"), pad(str(rng.randint(0, 50_000))),
                  pad(rng.choice(known) if roll > 0.15 else f"GHOST{rng.randint(1, 3)}")]
        if rng.random() < 0.3:
            fields.append(pad(rng.choice(["", f"n{rng.randint(1, 99)}"])))
        out.append(",".join(fields) + rng.choice(["", "\r"]))
    if bad:
        broken = rng.choice([
            "u1,5", "u1,5,LA5,n1,extra", " ,5,LA5", "u1,soon,LA5", "u1,-3,LA5", "u1,1.5,LA5",
            "learner_id,timestamp,activity_id",  # a header after data is a data line
        ])
        out.insert(rng.randint(len(out) // 2, len(out)), broken)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_parse_log_matches_a_naive_reader(seed):
    rng = random.Random(seed)
    lines = generated_log(rng, 400, bad=seed % 3 == 2)
    for skip_unknown in (False, True):
        expected = oracles.naive_parse_log(lines, COURSE_IDS, skip_unknown)
        assert library_parse(lines, skip_unknown) == expected
    if seed % 3 != 2:
        assert expected[0] == "ok" and expected[2] and any(row[3] for row in expected[1])


LOG_FRAGMENTS = ["u1", "u2", " ", "", "LA5", "Dictionary", "GHOST", "0", "17", "-1", "x", "n1", "learner_id",
                 "\t", "\r", "\u2028", "\x85", "1_0", "\u0665", "\x1c", "\x1f"]
# Timestamp padding: U+001C to U+001F, which str.strip() drops and int() refuses, among spaces and
# tabs, which both skip.
STAMP_PADDING = st.text(alphabet="\x1c\x1d\x1e\x1f \t", max_size=3)


@given(
    st.lists(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from(LOG_FRAGMENTS), max_size=6).map(",".join),
            st.tuples(
                st.sampled_from(["u1", "u2"]), STAMP_PADDING, st.text(alphabet="0123456789", min_size=1, max_size=6),
                STAMP_PADDING, st.sampled_from(["LA5", "Dictionary", "GHOST"]),
            ).map(lambda parts: "{},{}{}{},{}".format(*parts)),
        ),
        max_size=12,
    ),
    st.booleans(),
)
@settings(max_examples=300)
def test_parse_log_raises_only_odl_errors(lines, skip_unknown):
    try:
        parse_log(lines, ENV, skip_unknown=skip_unknown, skipped=[])
    except OdlError:
        pass
    assert library_parse(lines, skip_unknown) == oracles.naive_parse_log(lines, COURSE_IDS, skip_unknown)


# --- build_experience against the pairwise step-judge walk ---------------------


def random_course(rng: random.Random, size: int = 240):
    ids = [f"A{i}" for i in range(size)]
    reference = set(rng.sample(ids, size // 10))
    edges = [(a, rng.choice(ids)) for a in ids for _ in range(rng.randint(1, 4))]
    return quick_env(ids, edges, reference), reference, edges


def random_walk(rng: random.Random, course, steps: int, jump_share: float) -> list[str]:
    env, reference, edges = course
    ids, references = list(env.activities), sorted(reference)
    leaving: dict[str, list[str]] = {}
    for a, b in edges:
        leaving.setdefault(a, []).append(b)
    node = rng.choice(ids)
    walk = [node]
    while len(walk) < steps:
        roll = rng.random()
        if roll < jump_share:
            node = rng.choice(ids)
        elif roll < jump_share + 0.1 or node not in leaving:
            node = rng.choice(references)
        else:
            node = rng.choice(leaving[node])
        walk.append(node)
    return walk


def as_sessions(rng: random.Random, walk: list[str]) -> list[Session]:
    """The walk cut into sessions of one learner, handed over in shuffled order."""
    cuts = sorted(rng.sample(range(1, len(walk)), min(len(walk) - 1, 30)))
    bounds = list(zip([0, *cuts], [*cuts, len(walk)]))
    sessions = [
        Session("u1", tuple(ControlBlock("u1", t, walk[t]) for t in range(lo, hi)), index)
        for index, (lo, hi) in enumerate(bounds, 1)
    ]
    rng.shuffle(sessions)
    return sessions


def experience_outcome(sessions: list[Session], env, mode: str) -> tuple:
    try:
        experience = build_experience(sessions, env, mode)
    except DanglingRef as err:
        return ("dangling", err.missing_id)
    except NonAdjacentStep as err:
        return ("non_adjacent", err.position, err.from_id, err.to_id)
    return ("ok", [v.teleport for v in experience.visits])


def oracle_outcome(walk: list[str], env, mode: str) -> tuple:
    try:
        return oracles.pairwise_experience(walk, oracles.step_judge(env), mode == "strict")
    except KeyError as err:
        return ("dangling", err.args[0])


PLANTS = {
    "none": lambda rng, walk: walk,
    "first": lambda rng, walk: ["GHOST0", *walk[1:]],
    "first-two": lambda rng, walk: ["GHOST0", "GHOST1", *walk[2:]],
    "only-step": lambda rng, walk: ["GHOST0"],
    "later": lambda rng, walk: [*walk[:700], "GHOST1", *walk[701:]],
    "last": lambda rng, walk: [*walk[:-1], "GHOST1"],
    "first-and-later": lambda rng, walk: ["GHOST0", *walk[1:500], "GHOST1", *walk[501:]],
    "two-later": lambda rng, walk: [*walk[:300], "GHOST1", *walk[301:900], "GHOST2", *walk[901:]],
    "two-in-a-row": lambda rng, walk: [*walk[:400], "GHOST1", "GHOST2", *walk[402:]],
}


@pytest.mark.parametrize("plant", list(PLANTS))
@pytest.mark.parametrize("jump_share", [0.0, 0.05], ids=["edges-only", "jumps"])
@pytest.mark.parametrize("seed", [1, 2])
def test_experience_matches_the_pairwise_is_adjacent_walk_at_scale(seed, jump_share, plant):
    rng = random.Random(seed)
    course = random_course(rng)
    env, reference, _ = course
    walk = PLANTS[plant](rng, random_walk(rng, course, 1200, jump_share))
    if jump_share == 0.0 and plant == "none":
        # One unconnected step, late in an otherwise connected walk.
        late = next(j for j in range(900, len(walk)) if walk[j - 1] not in reference)
        walk[late] = next(a for a in env.activities if not oracles.step_judge(env)(walk[late - 1], a))
    sessions = as_sessions(rng, walk)
    for mode in ("lenient", "strict"):
        outcome = experience_outcome(sessions, env, mode)
        assert outcome == oracle_outcome(walk, env, mode)
        if outcome[0] == "ok":
            experience = build_experience(sessions, env, mode)
            assert [(v.activity_id, v.timestamp) for v in experience.visits] == list(zip(walk, range(len(walk))))
    if plant == "none":
        flags = experience_outcome(sessions, env, "lenient")[1]
        assert 0 < sum(flags) < len(walk) - 1
        if jump_share == 0.0:
            assert experience_outcome(sessions, env, "strict")[:2] == ("non_adjacent", flags.index(True))
