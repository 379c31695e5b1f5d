"""Stacked-LSTM classifier tests: forward math, gradients, training."""

import math

import numpy as np
import pytest

from harvest_guard.errors import ValidationError
from harvest_guard.lstm import (
    LstmArch,
    SlipModel,
    TrainConfig,
    evaluate,
    init_model,
    loss_and_grads,
    lstm_train,
    predict_proba,
    softmax,
)
from harvest_guard.slip_windows import FrameFeatures, SlipLabel, SlipWindow, windows_to_arrays

from conftest import fd_max_rel_err

SMALL = LstmArch(n_layers=2, hidden_size=8)


def _window(rng, label=SlipLabel.NORMAL, shift=0.0):
    frames = []
    for _ in range(5):
        a = 0.15 + shift + rng.uniform(0.0, 0.05)
        g = 0.3 + rng.uniform(0.0, 0.05)
        frames.append(
            FrameFeatures(a, g, 1.0 - a - g, rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2),
                          rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
        )
    return SlipWindow(frames=tuple(frames), label=label)


def _dataset(rng, n_per_class=8):
    out = []
    for label, shift in ((SlipLabel.NORMAL, 0.0), (SlipLabel.SLIPPING, 0.15), (SlipLabel.SLIPPED, 0.3)):
        out.extend(_window(rng, label, shift) for _ in range(n_per_class))
    return out


def _zero_model(arch=SMALL):
    h, c = arch.hidden_size, arch.n_classes
    w_x = [np.zeros((4 * h, arch.input_size if i == 0 else h)) for i in range(arch.n_layers)]
    w_h = [np.zeros((4 * h, h)) for i in range(arch.n_layers)]
    b = [np.zeros(4 * h) for _ in range(arch.n_layers)]
    return SlipModel(arch, w_x, w_h, b, np.zeros((c, h)), np.zeros(c))


def test_zero_model_is_uniform():
    model = _zero_model()
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(4, 5, 7))
    probs = predict_proba(model, x)
    assert np.allclose(probs, 1.0 / 3.0)


def test_zero_model_loss_is_ln3():
    model = _zero_model()
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, size=(6, 5, 7))
    y = rng.integers(0, 3, size=6)
    loss, _ = loss_and_grads(model, x, y)
    assert loss == pytest.approx(math.log(3.0), abs=1e-9)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def test_forward_matches_handrolled_cell():
    # independent single-layer reference computed step by step
    arch = LstmArch(n_layers=1, hidden_size=3, inter_dropout=0.0, head_dropout=0.0)
    model = init_model(arch, seed=7)
    rng = np.random.default_rng(2)
    window = _window(rng)

    hs = arch.hidden_size
    h = np.zeros(hs)
    c = np.zeros(hs)
    for frame in window.frames:
        x_t = frame.as_vector()
        z = model.w_x[0] @ x_t + model.w_h[0] @ h + model.b[0]
        gi = _sigmoid(z[:hs])
        gf = _sigmoid(z[hs : 2 * hs])
        gg = np.tanh(z[2 * hs : 3 * hs])
        go = _sigmoid(z[3 * hs :])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
    logits = model.w_out @ h + model.b_out
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()

    got = predict_proba(model, windows_to_arrays([window])[0])[0]
    assert np.allclose(got, expected, atol=1e-12)


def test_infer_mode_is_repeatable():
    model = init_model(SMALL, seed=0)
    rng = np.random.default_rng(3)
    window = _window(rng)
    x, _ = windows_to_arrays([window])
    assert np.array_equal(predict_proba(model, x), predict_proba(model, x))


def test_gradients_match_finite_differences():
    # acceptance sweeps 10 seeds; two here keep the unit run quick
    for seed in (0, 1):
        assert fd_max_rel_err(seed) < 1e-4


def test_init_recurrent_blocks_are_orthogonal():
    model = init_model(SMALL, seed=3)
    h = SMALL.hidden_size
    for gate in range(4):
        block = model.w_h[0][gate * h : (gate + 1) * h]
        assert np.allclose(block @ block.T, np.eye(h), atol=1e-10)
    # forget-gate bias starts open, everything else at zero
    assert np.all(model.b[0][h : 2 * h] == 1.0)
    assert np.all(model.b[0][:h] == 0.0)
    assert np.all(model.b[0][2 * h :] == 0.0)


def test_training_is_bitwise_deterministic():
    rng = np.random.default_rng(6)
    windows = _dataset(rng)
    cfg = TrainConfig(epochs=3, seed=11)
    m1 = lstm_train(windows, config=cfg, arch=SMALL)
    m2 = lstm_train(windows, config=cfg, arch=SMALL)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a, b)
    assert m1.metadata["train_loss"] == m2.metadata["train_loss"]


def test_training_learns_single_class():
    rng = np.random.default_rng(7)
    windows = [_window(rng, SlipLabel.SLIPPING) for _ in range(12)]
    model = lstm_train(windows, config=TrainConfig(epochs=10, seed=0), arch=SMALL)
    losses = model.metadata["train_loss"]
    assert losses[-1] < losses[0]
    pred, _ = evaluate(model, windows)
    assert np.all(pred == int(SlipLabel.SLIPPING))


def test_best_epoch_selection_uses_validation_accuracy():
    rng = np.random.default_rng(8)
    train = _dataset(rng, n_per_class=10)
    val = _dataset(rng, n_per_class=4)
    model = lstm_train(train, val, TrainConfig(epochs=5, seed=2), SMALL)
    history = model.metadata["val_accuracy"]
    assert len(history) == 5
    assert model.metadata["best_epoch"] == history.index(max(history)) + 1


def test_no_validation_set_keeps_final_weights():
    rng = np.random.default_rng(9)
    model = lstm_train(_dataset(rng), config=TrainConfig(epochs=2, seed=0), arch=SMALL)
    assert "best_epoch" not in model.metadata
    assert "val_accuracy" not in model.metadata


def test_evaluate_breaks_ties_toward_severity():
    model = _zero_model()
    rng = np.random.default_rng(10)
    windows = [_window(rng) for _ in range(3)]
    pred, true = evaluate(model, windows)
    assert np.all(pred == int(SlipLabel.SLIPPED))
    assert np.all(true == int(SlipLabel.NORMAL))


def test_softmax_rows_sum_to_one():
    logits = np.array([[1.0, 2.0, 3.0], [-1000.0, 0.0, 1000.0]])
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs.min() >= 0.0


def test_config_and_arch_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(eps=0.0)
    with pytest.raises(ValidationError):
        LstmArch(n_layers=0)
    with pytest.raises(ValidationError):
        LstmArch(n_classes=1)
    with pytest.raises(ValidationError):
        LstmArch(inter_dropout=1.0)


def test_model_shape_validation():
    arch = LstmArch(n_layers=1, hidden_size=4)
    good = _zero_model(arch)
    with pytest.raises(ValidationError):
        SlipModel(arch, good.w_x, good.w_h, good.b, np.zeros((3, 5)), good.b_out)
    with pytest.raises(ValidationError):
        SlipModel(arch, [], [], [], good.w_out, good.b_out)


def test_wrong_feature_width_rejected():
    model = init_model(SMALL, seed=0)
    with pytest.raises(ValidationError):
        predict_proba(model, np.zeros((2, 5, 6)))


def test_empty_training_set_rejected():
    with pytest.raises(ValidationError):
        lstm_train([], config=TrainConfig(epochs=1), arch=SMALL)
