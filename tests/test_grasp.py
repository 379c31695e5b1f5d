"""Grasp verification: classifier training and the proceed/abort rule."""

import itertools
import re

import numpy as np
import pytest

from harvest_guard.errors import ValidationError
from harvest_guard.grasp import (
    FAULT_CLASSES,
    GraspAction,
    GraspClass,
    GraspModel,
    classify_grasp,
    first_bad_observation,
    grasp_decision_step,
    read_grasp_csv,
    train_grasp_classifier,
    write_grasp_csv,
)
from harvest_guard.lstm import softmax
from harvest_guard.slip_decision import StabilityState, first_action
from harvest_guard.world import episode_rng, gen_grasp_observations, sample_grasp_dataset

RIPE, EMPTY, UNRIPE = GraspClass.RIPE_HELD, GraspClass.EMPTY, GraspClass.UNRIPE_HELD
ZERO_MODEL = GraspModel(np.zeros((3, 4)), np.zeros(3))


def test_observation_validation():
    good = np.array([[0.8, 0.1, 0.3, 1.0], [0.0, 0.0, 0.0, 0.0]])
    assert first_bad_observation(good) is None
    assert first_bad_observation(np.empty((0, 4))) is None
    cases = [
        ([1.2, 0.1, 0.3, 1.0], "red_fraction must lie in [0, 1], got 1.2"),
        ([0.5, -0.1, 0.3, 1.0], "green_fraction must lie in [0, 1], got -0.1"),
        ([0.5, 0.1, float("nan"), 1.0], "fruit_area must lie in [0, 1], got nan"),
        ([0.5, 0.1, 0.0, 1.0], "fruit_present requires a positive fruit_area"),
        ([0.5, 0.1, 0.3, 0.5], "fruit_present must be 0 or 1, got 0.5"),
    ]
    for row, problem in cases:
        x = np.vstack([good, [row], good])
        assert first_bad_observation(x) == (2, problem)
        with pytest.raises(ValidationError, match=re.escape(problem)):
            classify_grasp(ZERO_MODEL, x)
    with pytest.raises(ValidationError, match=re.escape("shape (n, 4)")):
        first_bad_observation(np.zeros(4))


def test_model_shape_validation():
    with pytest.raises(ValidationError):
        GraspModel(np.zeros((2, 4)), np.zeros(3))
    with pytest.raises(ValidationError):
        GraspModel(np.zeros((3, 4)), np.zeros(2))
    with pytest.raises(ValidationError):
        classify_grasp(object(), np.array([[0.5, 0.2, 0.3, 1.0]]))


def test_ties_go_to_ripe_held():
    # all-zero weights score every class alike; the tie goes to RipeHeld
    x = np.array([[0.5, 0.2, 0.3, 1.0], [0.0, 0.0, 0.0, 0.0]])
    assert classify_grasp(ZERO_MODEL, x) == [RIPE, RIPE]
    assert classify_grasp(ZERO_MODEL, np.empty((0, 4))) == []


def test_training_separates_synthetic_classes():
    x, y = sample_grasp_dataset((60, 60, 60), seed=0)
    model = train_grasp_classifier(x, y)
    assert classify_grasp(model, x) == [GraspClass(v) for v in y.tolist()]


def test_training_is_deterministic():
    x, y = sample_grasp_dataset((20, 20, 20), seed=1)
    a = train_grasp_classifier(x, y, seed=5)
    b = train_grasp_classifier(x, y, seed=5)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_training_requires_every_class():
    x, y = sample_grasp_dataset((10, 10, 0), seed=0)
    with pytest.raises(ValidationError, match="UNRIPE_HELD"):
        train_grasp_classifier(x, y)


def test_training_rejects_degenerate_inputs():
    x, y = sample_grasp_dataset((2, 2, 2), seed=0)
    with pytest.raises(ValidationError):
        train_grasp_classifier(x, y[:-1])
    with pytest.raises(ValidationError):
        train_grasp_classifier(np.empty((0, 4)), np.empty(0, dtype=np.int64))
    with pytest.raises(ValidationError):
        train_grasp_classifier(x, y, learning_rate=0.0)
    with pytest.raises(ValidationError):
        train_grasp_classifier(x, y, epochs=0)
    bad = x.copy()
    bad[3, 1] = 1.5
    with pytest.raises(ValidationError, match=re.escape("green_fraction must lie in [0, 1], got 1.5")):
        train_grasp_classifier(bad, y)


def test_two_consecutive_faults_abort():
    assert first_action(grasp_decision_step, [EMPTY, EMPTY]) == (GraspAction.ABORT_CYCLE, 1)
    assert first_action(grasp_decision_step, [RIPE, UNRIPE, UNRIPE]) == (GraspAction.ABORT_CYCLE, 2)


def test_two_consecutive_ripe_proceed():
    assert first_action(grasp_decision_step, [RIPE, RIPE]) == (GraspAction.PROCEED, 1)
    assert first_action(grasp_decision_step, [EMPTY, RIPE, RIPE]) == (GraspAction.PROCEED, 2)


def test_pooled_faults_extend_each_other():
    assert first_action(grasp_decision_step, [EMPTY, UNRIPE]) == (GraspAction.ABORT_CYCLE, 1)
    assert first_action(grasp_decision_step, [UNRIPE, EMPTY]) == (GraspAction.ABORT_CYCLE, 1)


def test_alternating_stream_stays_undecided():
    stream = [RIPE, EMPTY, RIPE, UNRIPE, RIPE, EMPTY]
    assert first_action(grasp_decision_step, stream) == (None, None)


def test_fired_decision_clears_counters():
    state = StabilityState()
    state, action = grasp_decision_step(state, EMPTY)
    assert action is None
    state, action = grasp_decision_step(state, EMPTY)
    assert action is GraspAction.ABORT_CYCLE
    assert state == StabilityState()
    # the very next frame starts a fresh run, keyed on the fault family
    state, action = grasp_decision_step(state, EMPTY)
    assert action is None and state == StabilityState(last=True, count=1)


def _bruteforce_decision(stream):
    """Restated rule: first index where two consecutive frames agree on a
    verdict family (faults pooled)."""
    for i in range(1, len(stream)):
        a, b = stream[i - 1], stream[i]
        if a is RIPE and b is RIPE:
            return GraspAction.PROCEED, i
        if a in FAULT_CLASSES and b in FAULT_CLASSES:
            return GraspAction.ABORT_CYCLE, i
    return None, None


def test_exhaustive_streams_match_bruteforce():
    # all 3^6 six-frame class streams
    for raw in itertools.product(list(GraspClass), repeat=6):
        stream = list(raw)
        assert first_action(grasp_decision_step, stream) == _bruteforce_decision(stream)


def test_grasp_csv_round_trip(tmp_path):
    x, y = sample_grasp_dataset((5, 5, 5), seed=2)
    path = tmp_path / "grasp.csv"
    write_grasp_csv(path, x, y)
    got_x, got_y = read_grasp_csv(path)
    assert got_x.tobytes() == x.tobytes() and got_x.dtype == "float64" and got_x.flags.c_contiguous
    assert got_y.tolist() == y.tolist() and got_y.dtype == "int64"
    # byte-stable rewrite
    again = tmp_path / "grasp2.csv"
    write_grasp_csv(again, got_x, got_y)
    assert path.read_bytes() == again.read_bytes()


def test_grasp_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("red_fraction,label\n0.5,0\n")
    with pytest.raises(ValidationError, match="missing columns"):
        read_grasp_csv(path)


def test_grasp_csv_reports_bad_row(tmp_path):
    path = tmp_path / "grasp.csv"
    write_grasp_csv(path, *sample_grasp_dataset((2, 1, 1), seed=3))
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[-1] = "9"  # label outside the enum
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_grasp_csv(path)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("1.5,0.1,0.3,1,0", "red_fraction must lie in [0, 1], got 1.5"),
        ("0.5,0.1,nan,1,0", "fruit_area must lie in [0, 1], got nan"),
        ("0.5,0.1,0.0,2,0", "fruit_present requires a positive fruit_area"),
        ("0.5,0.1,0.3,2,0", "fruit_present must be 0 or 1, got 2"),
        ("0.5,0.1,0.3,-1,0", "fruit_present must be 0 or 1, got -1"),
        ("0.5,0.1,0.3," + "9" * 400 + ",0", "int too large to convert to float"),
        ("0.5,x,0.3,1,0", "could not convert string to float: 'x'"),
        ("0.5,0.1,0.3,1.0,0", "invalid literal for int() with base 10: '1.0'"),
        ("0.5,0.1,0.3,1,3", "3 is not a valid GraspClass"),
    ],
)
def test_grasp_csv_names_the_line_of_a_bad_row(tmp_path, row, problem):
    # one bad row among good ones; each message is the one a row-by-row
    # reader gave
    path = tmp_path / "grasp.csv"
    write_grasp_csv(path, *sample_grasp_dataset((2, 1, 1), seed=3))
    lines = path.read_text().splitlines()
    lines.insert(3, row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as exc:
        read_grasp_csv(path)
    assert str(exc.value) == f"{path}: bad row at line 4: {problem}"


# --- per-frame oracle ------------------------------------------------------
# Reference: the per-frame generator (three scalar rng.normal draws per
# frame) and the one-row classifier, verbatim apart from the names and
# the generator returning a tuple. The batched versions must give the
# same bits, leave the generator in the same state and pick the same
# classes, so every comparison below is exact.

_REF_BANDS = {
    RIPE: {"red": (0.62, 0.05, 0.35, 0.90), "green": (0.06, 0.02, 0.0, 0.20), "area": (0.50, 0.05, 0.20, 0.80)},
    UNRIPE: {"red": (0.05, 0.02, 0.0, 0.20), "green": (0.55, 0.05, 0.35, 0.90), "area": (0.45, 0.05, 0.20, 0.80)},
}


def _ref_observation(outcome, rng, noise_scale=1.0):
    if outcome is EMPTY:
        if noise_scale == 0.0:
            return (0.0, 0.0, 0.0, False)
        small = lambda: float(min(0.15, abs(rng.normal(0.0, 0.02 * noise_scale))))
        red, green = small(), small()
        area = small()
        return (red, green, area, False)
    bands = _REF_BANDS[outcome]

    def draw(name):
        mean, std, lo, hi = bands[name]
        return float(min(hi, max(lo, rng.normal(mean, std * noise_scale))))

    return (draw("red"), draw("green"), max(draw("area"), 0.05), True)


def _ref_classify(model, row):
    red, green, area, present = row
    scores = softmax(model.weights @ np.array([red, green, area, float(present)]) + model.bias)
    return GraspClass(int(scores.argmax()))


_ORACLE_MODELS = [ZERO_MODEL, train_grasp_classifier(*sample_grasp_dataset((30, 30, 30), seed=1), epochs=3)]
_ORACLE_MODELS += [GraspModel(*(np.random.default_rng(k).normal(0.0, s, size) for size in ((3, 4), 3)))
                   for k, s in ((0, 1.0), (1, 30.0), (2, 1e-3))]


@pytest.mark.parametrize("noise_scale", [0.0, 0.5, 1.0, 3.0, 40.0])
def test_generator_and_classifier_match_per_frame_reference(noise_scale):
    for outcome in GraspClass:
        for seed in range(20):
            n = seed % 7
            rng, ref_rng = episode_rng(seed, 3), episode_rng(seed, 3)
            x = gen_grasp_observations(outcome, n, rng, noise_scale)
            ref_rows = [_ref_observation(outcome, ref_rng, noise_scale) for _ in range(n)]
            ref = np.array(ref_rows, dtype=np.float64).reshape(n, 4)
            assert x.tobytes() == ref.tobytes() and x.dtype == "float64" and x.flags.c_contiguous
            assert rng.random() == ref_rng.random()  # the generator ends in the same state
            for model in _ORACLE_MODELS:
                assert classify_grasp(model, x) == [_ref_classify(model, row) for row in ref_rows]


def test_batched_classifier_matches_per_row_reference():
    # three class rows a few ulps apart: their scores tie but for rounding,
    # so the class depends on the bits of each product; x @ W.T rounds
    # differently from per-row W @ x and picks another class in ~40% of
    # these trials, so the batch must keep the per-row product
    rng = np.random.default_rng(11)
    for _ in range(300):
        base = rng.normal(size=4) * 10.0 ** rng.uniform(-1, 1)
        model = GraspModel(base + rng.integers(-3, 4, size=(3, 4)) * np.spacing(base), np.zeros(3))
        x = rng.random((10, 4))
        x[:, 3] = x[:, 3] < 0.5
        assert classify_grasp(model, x) == [_ref_classify(model, row) for row in x.tolist()]
