"""Mutation fuzzers of two CLI file readers, run in-process: whatever the
input, `compensate` and `report` exit 0, 1 or 2 with at most one stderr
line, never a traceback. A third fuzzer reorders and relabels the records
of a valid episode log and holds `report` to the walks the cycle takes."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard.cli import main
from harvest_guard.fsm import Event, Stage, Variant, run_episode, write_episode_log
from harvest_guard.grasp import GraspClass
from harvest_guard.slip_windows import SlipLabel

from conftest import ALIGNMENT_CSV, ScriptedWorld, renumbered

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# cell and line contents that have broken readers before, or come close
_CELLS = st.sampled_from(
    ["", " ", "nan", "inf", "-inf", "1e400", "-0", "0x10", "1_0", "abc", '"', '"1"', '"1,2"', "\x00", "#", "\r", "9" * 400]
)
_LINES = st.sampled_from(["1" * 131_073, "", "\r", "# note", ",,,", " ", '"', "\x00"])
_BYTES = st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\n\n"]))
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-(2**63), 2**64, 10**400]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
# the first elements are the likeliest draws, so the decoder's limits come first
_JSON_LINES = st.sampled_from(["[" * 100_000, "1" * 5_000, "{", '{"a": NaN}', "", "{}", "[]", "null"])


def _run(argv):
    """`main(argv)` run in-process: its exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _edit_lines(case, lines, new_line):
    """One line-level edit: drop, repeat, swap or insert a line."""
    how = case.draw(st.sampled_from(["drop", "repeat", "swap", "insert"]), label="line edit")
    i = case.draw(st.integers(0, len(lines) - 1), label="line") if lines else 0
    if how == "drop" and lines:
        del lines[i]
    elif how == "repeat" and lines:
        lines.insert(i, lines[i])
    elif how == "swap" and lines:
        j = case.draw(st.integers(0, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines.insert(i, case.draw(new_line, label="new line"))


def _edit_bytes(case, raw):
    """Insert a few bytes somewhere, or cut the file short."""
    at = case.draw(st.integers(0, len(raw)), label="at")
    insert = case.draw(st.one_of(st.none(), _BYTES), label="insert")  # None truncates
    return raw[:at] if insert is None else raw[:at] + insert + raw[at:]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(case=st.data())
def test_compensate_survives_any_edit_of_the_audit(fuzz_dir, case):
    lines = ALIGNMENT_CSV.read_text().splitlines()
    for _ in range(case.draw(st.integers(1, 4), label="edits")):
        if case.draw(st.booleans(), label="cell edit") and lines:
            i = case.draw(st.integers(0, len(lines) - 1), label="line")
            cells = lines[i].split(",")
            cells[case.draw(st.integers(0, len(cells) - 1), label="cell")] = case.draw(_CELLS, label="value")
            lines[i] = ",".join(cells)
        else:
            _edit_lines(case, lines, _LINES)
    raw = "".join(line + "\n" for line in lines).encode()
    if case.draw(st.booleans(), label="byte edit"):
        raw = _edit_bytes(case, raw)
    data = fuzz_dir / "trials.csv"
    data.write_bytes(raw)
    code, err = _run(["compensate", "--input", str(data), "--out", str(fuzz_dir / "records.csv")])
    assert code in (0, 1, 2)
    assert len(err) <= 1


@pytest.fixture(scope="module")
def episode_log(fuzz_dir):
    out = fuzz_dir / "run"
    assert _run(["simulate", "--seed", "3", "--episodes", "3", "--out", str(out)]) == (0, [])
    return out / "episodes.jsonl"


@FUZZ
@given(case=st.data())
def test_report_survives_any_edit_of_a_log(fuzz_dir, episode_log, case):
    docs = [json.loads(line) for line in episode_log.read_text().splitlines()]
    for _ in range(case.draw(st.integers(0, 3), label="field edits")):
        doc = docs[case.draw(st.integers(0, len(docs) - 1), label="record")]
        key = case.draw(st.sampled_from(sorted(doc)), label="field")
        if case.draw(st.booleans(), label="drop"):
            del doc[key]
        else:
            doc[key] = case.draw(_JSON_VALUES, label="value")
    lines = [json.dumps(doc) for doc in docs]
    for _ in range(case.draw(st.integers(0, 2), label="line edits")):
        _edit_lines(case, lines, _JSON_LINES)
    raw = "".join(line + "\n" for line in lines).encode()
    if case.draw(st.booleans(), label="byte edit"):
        raw = _edit_bytes(case, raw)
    log = fuzz_dir / "edited.jsonl"
    log.write_bytes(raw)
    code, err = _run(["report", "--episodes", str(log), "--out", str(fuzz_dir / "summary.csv")])
    assert code in (0, 1, 2)
    assert len(err) <= 1


_LABELS = {"stage": Stage, "variant": Variant, "event": Event}


def _labelled_walks(docs):
    """Each episode's (stage, variant, event) sequence in log record `docs`."""
    walks = {}
    for doc in docs:
        walks.setdefault(doc["episode_id"], []).append(tuple(doc[key] for key in _LABELS))
    return [tuple(walk) for walk in walks.values()]


@pytest.fixture(scope="module")
def cycle_walks(fuzz_dir):
    """The labelled walks of the log the cycle writes for each fault script."""
    scripts = itertools.product((False, True), GraspClass, SlipLabel)
    log = fuzz_dir / "scripts.jsonl"
    episodes = [run_episode(ScriptedWorld(*script), deterministic=True, episode_id=i) for i, script in enumerate(scripts)]
    write_episode_log(log, episodes)
    return set(_labelled_walks(json.loads(line) for line in log.read_text().splitlines()))


@pytest.fixture(scope="module")
def longer_log(fuzz_dir):
    out = fuzz_dir / "longer"
    assert _run(["simulate", "--seed", "2", "--episodes", "8", "--out", str(out)]) == (0, [])
    return out / "episodes.jsonl"


@FUZZ
@given(case=st.data())
def test_report_accepts_only_the_walks_of_the_cycle(fuzz_dir, longer_log, cycle_walks, case):
    lines = longer_log.read_text().splitlines()
    for _ in range(case.draw(st.integers(1, 3), label="edits")):
        if case.draw(st.booleans(), label="relabel"):
            i = case.draw(st.integers(0, len(lines) - 1), label="line")
            doc = json.loads(lines[i])
            key = case.draw(st.sampled_from(sorted(_LABELS)), label="field")
            doc[key] = case.draw(st.sampled_from([m.value for m in _LABELS[key] if m.value != doc[key]]), label="value")
            lines[i] = json.dumps(doc)
        else:
            _edit_lines(case, lines, st.sampled_from(list(lines)))  # an inserted line repeats a record
    # renumbered seqs get most edits past the order check to the walk rule
    docs = [json.loads(line) for line in lines]
    log = fuzz_dir / "relabelled.jsonl"
    log.write_text("".join(line + "\n" for line in renumbered(docs)))
    code, err = _run(["report", "--episodes", str(log), "--out", str(fuzz_dir / "walks.csv")])
    assert code in (0, 1)
    assert len(err) <= 1
    if code == 0:
        assert set(_labelled_walks(docs)) <= cycle_walks
