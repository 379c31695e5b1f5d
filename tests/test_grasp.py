"""Grasp verification: classifier training and the proceed/abort rule."""

import itertools

import numpy as np
import pytest

from harvest_guard.errors import ValidationError
from harvest_guard.grasp import (
    FAULT_CLASSES,
    GraspAction,
    GraspClass,
    GraspModel,
    GripperObservation,
    classify_grasp,
    grasp_decision_step,
    grasp_scores,
    read_grasp_csv,
    train_grasp_classifier,
    write_grasp_csv,
)
from harvest_guard.slip_decision import StabilityState, first_action
from harvest_guard.world import sample_grasp_dataset

RIPE, EMPTY, UNRIPE = GraspClass.RIPE_HELD, GraspClass.EMPTY, GraspClass.UNRIPE_HELD


def test_observation_validation():
    GripperObservation(0.8, 0.1, 0.3, True)
    GripperObservation(0.0, 0.0, 0.0, False)
    with pytest.raises(ValidationError):
        GripperObservation(1.2, 0.1, 0.3, True)
    with pytest.raises(ValidationError):
        GripperObservation(0.5, -0.1, 0.3, True)
    with pytest.raises(ValidationError):
        GripperObservation(0.5, 0.1, 0.0, True)  # present but zero area


def test_model_shape_validation():
    with pytest.raises(ValidationError):
        GraspModel(np.zeros((2, 4)), np.zeros(3))
    with pytest.raises(ValidationError):
        GraspModel(np.zeros((3, 4)), np.zeros(2))
    with pytest.raises(ValidationError):
        grasp_scores(object(), GripperObservation(0.5, 0.2, 0.3, True))


def test_scores_are_a_distribution():
    model = GraspModel(np.zeros((3, 4)), np.zeros(3))
    scores = grasp_scores(model, GripperObservation(0.5, 0.2, 0.3, True))
    assert scores.shape == (3,)
    assert scores.sum() == pytest.approx(1.0)
    assert np.allclose(scores, 1.0 / 3.0)


def test_training_separates_synthetic_classes():
    data = sample_grasp_dataset((60, 60, 60), seed=0)
    obs = [o for o, _ in data]
    labels = [l for _, l in data]
    model = train_grasp_classifier(obs, labels)
    correct = sum(classify_grasp(model, o)[0] is l for o, l in data)
    assert correct == len(data)


def test_training_is_deterministic():
    data = sample_grasp_dataset((20, 20, 20), seed=1)
    obs = [o for o, _ in data]
    labels = [l for _, l in data]
    a = train_grasp_classifier(obs, labels, seed=5)
    b = train_grasp_classifier(obs, labels, seed=5)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_training_requires_every_class():
    data = sample_grasp_dataset((10, 10, 0), seed=0)
    obs = [o for o, _ in data]
    labels = [l for _, l in data]
    with pytest.raises(ValidationError, match="UNRIPE_HELD"):
        train_grasp_classifier(obs, labels)


def test_training_rejects_degenerate_inputs():
    data = sample_grasp_dataset((2, 2, 2), seed=0)
    obs = [o for o, _ in data]
    labels = [l for _, l in data]
    with pytest.raises(ValidationError):
        train_grasp_classifier(obs, labels[:-1])
    with pytest.raises(ValidationError):
        train_grasp_classifier([], [])
    with pytest.raises(ValidationError):
        train_grasp_classifier(obs, labels, learning_rate=0.0)
    with pytest.raises(ValidationError):
        train_grasp_classifier(obs, labels, epochs=0)


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
    data = sample_grasp_dataset((5, 5, 5), seed=2)
    path = tmp_path / "grasp.csv"
    write_grasp_csv(path, data)
    assert read_grasp_csv(path) == data
    # byte-stable rewrite
    again = tmp_path / "grasp2.csv"
    write_grasp_csv(again, data)
    assert path.read_bytes() == again.read_bytes()


def test_grasp_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("red_fraction,label\n0.5,0\n")
    with pytest.raises(ValidationError, match="missing columns"):
        read_grasp_csv(path)


def test_grasp_csv_reports_bad_row(tmp_path):
    data = sample_grasp_dataset((2, 1, 1), seed=3)
    path = tmp_path / "grasp.csv"
    write_grasp_csv(path, data)
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[-1] = "9"  # label outside the enum
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_grasp_csv(path)
