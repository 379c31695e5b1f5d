"""Mutation fuzzers of the CLI file readers, run in-process: whatever the
input, `compensate`, `report`, `train-slip`, `eval-slip` and `train-grasp`
exit 0, 1 or 2 with at most one stderr line, never a traceback, and a
model a training command writes loads back. Another fuzzer reorders and
relabels the records of a valid episode log and holds `report` to the
walks the cycle takes. The last writes scenario files for `simulate` and
holds `report` to the summary `simulate` wrote."""

import contextlib
import io
import itertools
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard.cli import main
from harvest_guard.fsm import Event, Stage, Variant, run_episode, write_episode_log
from harvest_guard.grasp import GraspClass, GraspModel
from harvest_guard.lstm import SlipModel
from harvest_guard.model_io import load_model
from harvest_guard.slip_windows import SlipLabel
from harvest_guard.world import _CONFIG_SCHEMA, MAX_FRAMES, ScenarioConfig

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


def _edit_cell(case, lines, first=0, values=_CELLS):
    """Replace one cell of one CSV line, from line `first` on, with a drawn
    value."""
    i = case.draw(st.integers(first, len(lines) - 1), label="line")
    cells = lines[i].split(",")
    cells[case.draw(st.integers(0, len(cells) - 1), label="cell")] = case.draw(values, label="value")
    lines[i] = ",".join(cells)


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
            _edit_cell(case, lines)
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


# cells a dataset reader accepts alone: labels, in-range features, a flag
_DATA_CELLS = st.sampled_from(["0", "1", "2", "0.5", "5e-324", "1.0"])


def _edit_dataset(case, lines, orders):
    """Cell, header and line edits to a dataset's CSV lines; with `orders`,
    also episode_id and frame_id edits: renumber one row, or move one
    episode's rows to the end."""
    kinds = ["cell", "line"] + (["order"] if orders else []) + ["header"]
    for _ in range(case.draw(st.integers(0, 3), label="edits")):
        how = case.draw(st.sampled_from(kinds), label="edit")
        if how == "cell" and len(lines) > 1:
            _edit_cell(case, lines, first=1, values=st.one_of(_DATA_CELLS, _CELLS))
        elif how == "header" and lines:
            names = lines[0].split(",")
            i = case.draw(st.integers(0, len(names) - 1), label="column")
            name = case.draw(st.one_of(st.none(), st.sampled_from(names), _CELLS), label="name")  # None drops it
            names[i:i + 1] = [] if name is None else [name]
            lines[0] = ",".join(names)
        elif how == "order" and len(lines) > 1:
            i = case.draw(st.integers(1, len(lines) - 1), label="row")
            cells = lines[i].split(",")
            if case.draw(st.booleans(), label="renumber"):
                cells[case.draw(st.integers(0, 1), label="id column")] = str(case.draw(st.integers(-1, 16), label="id"))
                lines[i] = ",".join(cells)
            else:
                moved = [line for line in lines[1:] if line.split(",")[0] == cells[0]]
                lines[1:] = [line for line in lines[1:] if line.split(",")[0] != cells[0]] + moved
        else:
            _edit_lines(case, lines, _LINES)


def _edited_dataset(case, data, orders):
    """The file at `data`, edited, written next to it."""
    lines = data.read_text().splitlines()
    _edit_dataset(case, lines, orders)
    raw = "".join(line + "\n" for line in lines).encode()
    if case.draw(st.integers(0, 3), label="byte edit") == 3:
        raw = _edit_bytes(case, raw)
    edited = data.with_name("edited-" + data.name)
    edited.write_bytes(raw)
    return edited


def _train(argv, model, kind):
    """Run a training command that writes `model`: exit 0, 1 or 2 with at
    most one stderr line, and a model file, one `load_model` accepts, only
    on exit 0."""
    model.unlink(missing_ok=True)
    code, err = _run(argv + ["--out", str(model), "--seed", "0"])
    assert code in (0, 1, 2)
    assert len(err) <= 1
    assert model.exists() == (code == 0)
    if code == 0:
        assert isinstance(load_model(model), kind)
    return code


# a 1x4 LSTM trained for one epoch: the readers and the training loop, not the fit
_SMALL_SLIP = ["--epochs", "1", "--layers", "1", "--hidden", "4"]


@pytest.fixture(scope="module")
def slip_data(fuzz_dir):
    """A small SlipData file and a model trained on it."""
    data, model = fuzz_dir / "slip.csv", fuzz_dir / "slip.json"
    assert _run(["gen-data", "--kind", "slip", "--counts", "12,6,6", "--seed", "0", "--out", str(data)])[0] == 0
    assert _train(["train-slip", "--data", str(data), *_SMALL_SLIP], model, SlipModel) == 0
    return data, model


@settings(FUZZ, max_examples=100)
@given(case=st.data())
def test_slip_training_survives_any_edit_of_a_dataset(slip_data, case):
    data, clean_model = slip_data
    edited = _edited_dataset(case, data, orders=True)
    model = data.with_name("edited-slip.json")
    code = _train(["train-slip", "--data", str(edited), *_SMALL_SLIP], model, SlipModel)
    for slip_model in [clean_model] + ([model] if code == 0 else []):
        code, err = _run(["eval-slip", "--data", str(edited), "--model", str(slip_model)])
        assert code in (0, 1, 2)
        assert len(err) <= 1


@pytest.fixture(scope="module")
def grasp_data(fuzz_dir):
    data = fuzz_dir / "grasp.csv"
    assert _run(["gen-data", "--kind", "grasp", "--counts", "6,4,4", "--seed", "0", "--out", str(data)])[0] == 0
    return data


@settings(FUZZ, max_examples=100)
@given(case=st.data())
def test_grasp_training_survives_any_edit_of_a_dataset(grasp_data, case):
    edited = _edited_dataset(case, grasp_data, orders=False)
    _train(["train-grasp", "--data", str(edited)], grasp_data.with_name("edited-grasp.json"), GraspModel)


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


# the int keys that size a per-frame array; counts up to 64 only cost time,
# and the larger ones must fail the config check before anything is built
_FRAME_ATTRS = {"grasp_frames", "frames_normal", "frames_slipping", "frames_slipped"}
_NOT_NUMBERS = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "0x10", "1_0", "%(x)s", "1.5"])


def _ini_value(case, attr):
    """A drawn value for a scenario key: a number, in range or not, or text
    that is no number."""
    if isinstance(getattr(ScenarioConfig, attr), float):
        number = st.one_of(st.sampled_from([0.0, -1.0, 0.5, 1e308, -1e308, 5e-324]), st.floats(allow_nan=False))
    elif attr in _FRAME_ATTRS:
        number = st.one_of(st.integers(-2, 64), st.sampled_from([MAX_FRAMES + 1, 2**63, 10**30]))
    else:
        number = st.one_of(st.integers(-3, 10), st.sampled_from([2**63, -(2**63), 10**30]))
    return case.draw(st.one_of(number.map(str), _NOT_NUMBERS), label=attr)


@settings(FUZZ, max_examples=100)
@given(case=st.data())
def test_simulated_scenarios_round_trip_through_report(fuzz_dir, case):
    # some keys of some sections at their defaults, then a few drawn values
    # and perhaps a repeated line
    lines, values = [], []
    for section, keys in _CONFIG_SCHEMA.items():
        if case.draw(st.booleans(), label=f"[{section}]"):
            lines.append(f"[{section}]")
            for key, attr in keys.items():
                if case.draw(st.booleans(), label=f"{section}.{key}"):
                    values.append((len(lines), key, attr))
                    lines.append(f"{key} = {getattr(ScenarioConfig, attr)}")
    for _ in range(case.draw(st.integers(0, 2), label="drawn values")) if values else ():
        i, key, attr = case.draw(st.sampled_from(values), label="key")
        lines[i] = f"{key} = {_ini_value(case, attr)}"
    too_many_frames = any(
        attr in _FRAME_ATTRS and value.isdecimal() and int(value) > MAX_FRAMES
        for i, _, attr in values
        for value in [lines[i].split(" = ")[1]]
    )
    if lines and case.draw(st.integers(0, 3), label="repeat") == 3:
        i = case.draw(st.integers(0, len(lines) - 1), label="repeated line")
        lines.insert(i + 1, lines[i])
    ini = fuzz_dir / "scenario.ini"
    ini.write_text("".join(line + "\n" for line in lines))
    out = fuzz_dir / "scenario-run"
    shutil.rmtree(out, ignore_errors=True)
    seed = str(case.draw(st.integers(0, 3), label="seed"))
    code, err = _run(["simulate", "--config", str(ini), "--seed", seed, "--episodes", "8", "--out", str(out)])
    assert code in (0, 1, 2)
    assert len(err) <= 1
    assert out.exists() == (code == 0)
    if too_many_frames:
        assert code == 1 and len(err) == 1
    if code == 0:
        summary = fuzz_dir / "scenario-summary.csv"
        assert _run(["report", "--episodes", str(out / "episodes.jsonl"), "--out", str(summary)]) == (0, [])
        assert summary.read_bytes() == (out / "summary.csv").read_bytes()
