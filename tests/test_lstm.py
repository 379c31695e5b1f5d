"""Stacked-LSTM classifier tests: forward math, gradients, training."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from harvest_guard import cli, lstm, world
from harvest_guard.errors import ValidationError
from harvest_guard.grasp import GraspModel
from harvest_guard.lstm import (
    LstmArch,
    SlipModel,
    TrainConfig,
    array_layout,
    evaluate,
    init_model,
    loss_and_grads,
    lstm_train,
    predict_proba,
    softmax,
)
from harvest_guard.model_io import save_model
from harvest_guard.slip_windows import SlipLabel, SlipWindows, windows_to_arrays

from conftest import fd_max_rel_err

SMALL = LstmArch(n_layers=2, hidden_size=8)


def _window(rng, shift=0.0):
    frames = []
    for _ in range(5):
        a = 0.15 + shift + rng.uniform(0.0, 0.05)
        g = 0.3 + rng.uniform(0.0, 0.05)
        frames.append(
            [a, g, 1.0 - a - g, rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2), rng.uniform(0.3, 0.7),
             rng.uniform(0.3, 0.7)]
        )
    return frames


def _windows(rng, labels, shifts=(0.0, 0.15, 0.3)):
    x = np.array([_window(rng, shifts[label]) for label in labels]).reshape(len(labels), 5, 7)
    return SlipWindows(x, np.array(labels, dtype=np.int64))


def _dataset(rng, n_per_class=8):
    return _windows(rng, [label for label in SlipLabel for _ in range(n_per_class)])


def _zero_model(arch=SMALL):
    return SlipModel(arch, {name: np.zeros(shape) for name, shape in array_layout(arch)})


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
    window = _windows(rng, [SlipLabel.NORMAL])

    hs = arch.hidden_size
    h = np.zeros(hs)
    c = np.zeros(hs)
    for x_t in window.x[0]:
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

    got = predict_proba(model, windows_to_arrays(window)[0])[0]
    assert np.allclose(got, expected, atol=1e-12)


def test_infer_mode_is_repeatable():
    model = init_model(SMALL, seed=0)
    rng = np.random.default_rng(3)
    x, _ = windows_to_arrays(_windows(rng, [SlipLabel.NORMAL]))
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
    windows = _windows(rng, [SlipLabel.SLIPPING] * 12, shifts=(0.0, 0.0, 0.0))
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
    windows = _windows(rng, [SlipLabel.NORMAL] * 3)
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
        LstmArch(n_layers=0)
    with pytest.raises(ValidationError):
        LstmArch(n_classes=1)
    with pytest.raises(ValidationError):
        LstmArch(inter_dropout=1.0)


def test_model_shape_validation():
    arch = LstmArch(n_layers=1, hidden_size=4)
    good = _zero_model(arch).named_arrays()
    with pytest.raises(ValidationError, match=r"^head\.w shape \(3, 5\), expected \(3, 4\)$"):
        SlipModel(arch, {**good, "head.w": np.zeros((3, 5))})
    with pytest.raises(ValidationError, match="^unexpected array 'head.w', expected 'layer0.w_x'$"):
        SlipModel(arch, {"head.w": good["head.w"], "head.b": good["head.b"]})
    with pytest.raises(ValidationError, match="^missing array 'head.b'$"):
        SlipModel(arch, {k: v for k, v in good.items() if k != "head.b"})
    with pytest.raises(ValidationError, match="^unexpected array 'extra'$"):
        SlipModel(arch, {**good, "extra": np.zeros(1)})
    with pytest.raises(ValidationError, match="^unexpected array 'layer0.b', expected 'layer0.w_h'$"):
        SlipModel(arch, {k: good[k] for k in ("layer0.w_x", "layer0.b", "layer0.w_h", "head.w", "head.b")})


def test_model_check_is_bounded_by_the_arrays_given():
    # listing a billion layers would take minutes and gigabytes; the check
    # stops at the first name past the arrays it holds
    arch = LstmArch(n_layers=10**9, hidden_size=4)
    one_layer = _zero_model(LstmArch(n_layers=1, hidden_size=4)).named_arrays()
    layer0 = {k: v for k, v in one_layer.items() if k.startswith("layer0.")}
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="^missing array 'layer1.w_x'$"):
        SlipModel(arch, layer0)
    assert time.perf_counter() - start < 1.0


def test_array_layout_names_every_array_in_parameter_order():
    arch = LstmArch(n_layers=2, hidden_size=3)
    assert list(array_layout(arch)) == [
        ("layer0.w_x", (12, 7)), ("layer0.w_h", (12, 3)), ("layer0.b", (12,)),
        ("layer1.w_x", (12, 3)), ("layer1.w_h", (12, 3)), ("layer1.b", (12,)),
        ("head.w", (3, 3)), ("head.b", (3,)),
    ]
    model = init_model(arch, seed=0)
    assert list(model.named_arrays()) == [name for name, _ in array_layout(arch)]
    expected = [a for layer in range(2) for a in (model.w_x[layer], model.w_h[layer], model.b[layer])]
    assert all(p is a for p, a in zip(model.parameters(), [*expected, model.w_out, model.b_out], strict=True))


def test_wrong_feature_width_rejected():
    model = init_model(SMALL, seed=0)
    with pytest.raises(ValidationError):
        predict_proba(model, np.zeros((2, 5, 6)))


def test_empty_training_set_rejected():
    with pytest.raises(ValidationError):
        lstm_train([], config=TrainConfig(epochs=1), arch=SMALL)


# --- kernel oracle --------------------------------------------------------
# Reference: the unpacked cell kernel (three masked sigmoid calls per
# step, one array per gate, a concatenated dz), verbatim apart from the
# names. The packed kernel must give the same bits, so every comparison
# below is exact; both sides run on the same BLAS, so this pins no
# machine's GEMM rounding.


def _ref_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_forward_batch(model, x, dropout_rng):
    a = model.arch
    n_batch, n_steps, d_in = x.shape
    if d_in != a.input_size:
        raise ValidationError(f"input feature size {d_in}, model expects {a.input_size}")
    h_size = a.hidden_size

    cache = {"steps": [], "inputs": [], "masks": [], "x": x}
    current = x
    for layer in range(a.n_layers):
        cache["inputs"].append(current)
        h = np.zeros((n_batch, h_size))
        c = np.zeros((n_batch, h_size))
        step_cache = []
        outputs = np.empty((n_batch, n_steps, h_size))
        for t in range(n_steps):
            x_t = current[:, t, :]
            z = x_t @ model.w_x[layer].T + h @ model.w_h[layer].T + model.b[layer]
            gi = _ref_sigmoid(z[:, :h_size])
            gf = _ref_sigmoid(z[:, h_size : 2 * h_size])
            gg = np.tanh(z[:, 2 * h_size : 3 * h_size])
            go = _ref_sigmoid(z[:, 3 * h_size :])
            c_new = gf * c + gi * gg
            tanh_c = np.tanh(c_new)
            h_new = go * tanh_c
            step_cache.append((x_t, h, c, gi, gf, gg, go, tanh_c))
            h, c = h_new, c_new
            outputs[:, t, :] = h
        cache["steps"].append(step_cache)

        mask = None
        if dropout_rng is not None and layer < a.n_layers - 1 and a.inter_dropout > 0.0:
            keep = 1.0 - a.inter_dropout
            mask = (dropout_rng.random(outputs.shape) < keep) / keep
            outputs = outputs * mask
        cache["masks"].append(mask)
        current = outputs

    h_final = current[:, -1, :]
    head_mask = None
    if dropout_rng is not None and a.head_dropout > 0.0:
        keep = 1.0 - a.head_dropout
        head_mask = (dropout_rng.random(h_final.shape) < keep) / keep
        h_final = h_final * head_mask
    cache["head_mask"] = head_mask
    cache["h_final"] = h_final
    logits = h_final @ model.w_out.T + model.b_out
    return logits, cache


def _ref_backward_batch(model, cache, dlogits):
    a = model.arch
    h_size = a.hidden_size
    x = cache["x"]
    n_batch, n_steps, _ = x.shape

    d_w_out = dlogits.T @ cache["h_final"]
    d_b_out = dlogits.sum(axis=0)
    dh_final = dlogits @ model.w_out
    if cache["head_mask"] is not None:
        dh_final = dh_final * cache["head_mask"]

    d_current = np.zeros((n_batch, n_steps, h_size))
    d_current[:, -1, :] = dh_final

    grads_layers = [None] * a.n_layers
    for layer in reversed(range(a.n_layers)):
        if cache["masks"][layer] is not None:
            d_current = d_current * cache["masks"][layer]
        d_in = a.input_size if layer == 0 else h_size
        d_w_x = np.zeros_like(model.w_x[layer])
        d_w_h = np.zeros_like(model.w_h[layer])
        d_b = np.zeros_like(model.b[layer])
        d_input = np.zeros((n_batch, n_steps, d_in))
        dh_next = np.zeros((n_batch, h_size))
        dc_next = np.zeros((n_batch, h_size))
        for t in reversed(range(n_steps)):
            x_t, h_prev, c_prev, gi, gf, gg, go, tanh_c = cache["steps"][layer][t]
            dh = d_current[:, t, :] + dh_next
            d_go = dh * tanh_c
            dc = dc_next + dh * go * (1.0 - tanh_c * tanh_c)
            d_gi = dc * gg
            d_gf = dc * c_prev
            d_gg = dc * gi
            dc_next = dc * gf
            dz = np.concatenate(
                [
                    d_gi * gi * (1.0 - gi),
                    d_gf * gf * (1.0 - gf),
                    d_gg * (1.0 - gg * gg),
                    d_go * go * (1.0 - go),
                ],
                axis=1,
            )
            d_w_x += dz.T @ x_t
            d_w_h += dz.T @ h_prev
            d_b += dz.sum(axis=0)
            d_input[:, t, :] = dz @ model.w_x[layer]
            dh_next = dz @ model.w_h[layer]
        grads_layers[layer] = (d_w_x, d_w_h, d_b)
        d_current = d_input

    grads = []
    for layer in range(a.n_layers):
        grads.extend(grads_layers[layer])
    grads.extend((d_w_out, d_b_out))
    return grads


def _ref_loss_and_grads(model, x, y, dropout_rng=None):
    logits, cache = _ref_forward_batch(model, x, dropout_rng)
    probs = softmax(logits)
    n = x.shape[0]
    loss = float(-np.log(probs[np.arange(n), y] + 1e-12).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, _ref_backward_batch(model, cache, dlogits)


@pytest.mark.parametrize("arch", [SMALL, LstmArch()], ids=["2x8", "5x64"])
def test_kernel_matches_reference_bit_for_bit(arch):
    rng = np.random.default_rng(12)
    model = init_model(arch, seed=5)
    for n_batch in [*range(1, 13), 33]:
        # spread well past the feature range so gates saturate both ways
        x = rng.normal(0.0, 3.0, size=(n_batch, 5, arch.input_size))
        y = rng.integers(0, arch.n_classes, size=n_batch)
        logits, _ = _ref_forward_batch(model, x, None)
        # bytes, not values: array_equal takes -0.0 for +0.0
        assert predict_proba(model, x).tobytes() == softmax(logits).tobytes(), n_batch
        for dropout_seed in (None, n_batch):
            ref_rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
            new_rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
            ref_loss, ref_grads = _ref_loss_and_grads(model, x, y, ref_rng)
            loss, grads = loss_and_grads(model, x, y, new_rng)
            assert loss == ref_loss, (n_batch, dropout_seed)
            assert len(grads) == len(ref_grads)
            for g, ref in zip(grads, ref_grads):
                assert g.shape == ref.shape and g.tobytes() == ref.tobytes(), (n_batch, dropout_seed)


@pytest.mark.parametrize("arch", [SMALL, LstmArch()], ids=["2x8", "5x64"])
def test_stacked_forward_matches_per_episode_calls_bit_for_bit(arch):
    rng = np.random.default_rng(14)
    model = init_model(arch, seed=5)
    for n_episodes in (1, 5, 33):
        for n_batch in (1, 3, 10, 12):
            x = rng.normal(0.0, 3.0, size=(n_episodes, n_batch, 5, arch.input_size))
            stacked = predict_proba(model, x)
            assert stacked.shape == (n_episodes, n_batch, arch.n_classes)
            per_episode = np.stack([predict_proba(model, xe) for xe in x])
            assert stacked.tobytes() == per_episode.tobytes(), (n_episodes, n_batch)


@pytest.mark.parametrize("arch", [SMALL, LstmArch()], ids=["2x8", "5x64"])
def test_split_stack_matches_per_episode_calls_bit_for_bit(arch):
    # past 8 rows the two 8-aligned halves run on two threads; the worker
    # takes the tail, and 9 to 16 rows give it fewer rows than the caller
    rng = np.random.default_rng(15)
    model = init_model(arch, seed=5)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock between the halves as often as it can
    try:
        for n_episodes in (2, 3, 31, 32, 64):
            for n_batch in (1, 10):
                x = rng.normal(0.0, 3.0, size=(n_episodes, n_batch, 5, arch.input_size))
                stacked = predict_proba(model, x)
                per_episode = np.stack([predict_proba(model, xe) for xe in x])
                assert stacked.shape == per_episode.shape, (n_episodes, n_batch)
                assert stacked.tobytes() == per_episode.tobytes(), (n_episodes, n_batch)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("arch", [SMALL, LstmArch()], ids=["2x8", "5x64"])
@pytest.mark.parametrize("bias_zero", [-0.0, 0.0])
def test_zero_windows_match_reference_bytes(arch, bias_zero):
    # zero inputs through zero input weights make every x_t @ W_x.T and
    # h @ W_h.T a zero, so the signs of the zeros in z rest on the bias
    model = init_model(arch, seed=5)
    for w_x, b in zip(model.w_x, model.b):
        w_x[...] = 0.0
        b[...] = bias_zero
    for shape in ((1,), (10,), (3, 10)):
        x = np.zeros((*shape, 5, arch.input_size))
        flat = x.reshape(-1, 5, arch.input_size)
        ref = softmax(_ref_forward_batch(model, flat, None)[0]).reshape(*shape, arch.n_classes)
        assert predict_proba(model, x).tobytes() == ref.tobytes(), shape


@pytest.mark.parametrize("lead", [(936,), (32, 10)], ids=["batch", "stack"])
def test_inference_holds_under_10_kb_per_window(lead):
    model = init_model(LstmArch(), seed=5)
    x = np.random.default_rng(17).normal(size=(*lead, 5, model.arch.input_size))
    predict_proba(model, x)  # warm up: the pool, imports and caches
    tracemalloc.start()
    try:
        predict_proba(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / math.prod(lead) <= 10_000


@pytest.fixture(scope="module")
def trained():
    # init_model weights gave the same bits at every batch size on the BLAS
    # build measured; after four short Adam epochs, unblocked inference gave
    # other bits at 126 of the batch sizes 1-300 below
    return lstm_train(_dataset(np.random.default_rng(1), 32), config=TrainConfig(epochs=4, seed=0))


def test_every_batch_size_gives_the_bits_of_8_row_calls(trained):
    x = np.random.default_rng(18).normal(0.0, 3.0, size=(1000, 5, trained.arch.input_size))
    ref = np.concatenate([predict_proba(trained, x[k : k + 8]) for k in range(0, len(x), 8)])
    # 1,000 rows make halves of 504 and 496 rows, past the 400 where one GEMM changed bits
    sizes = [*range(1, 301), 1000]
    differ = [n for n in sizes if predict_proba(trained, x[:n]).tobytes() != ref[:n].tobytes()]
    assert differ == []


@pytest.mark.parametrize("lead", [(0,), (3, 0), (0, 4), (13,), (2, 9), (32, 10), (20, 23), (2, 3, 4)], ids=str)
def test_any_leading_shape_gives_the_rows_of_the_flat_call(trained, lead):
    a = trained.arch
    x = np.random.default_rng(19).normal(0.0, 3.0, size=(*lead, 5, a.input_size))
    probs = predict_proba(trained, x)
    assert probs.shape == (*lead, a.n_classes)
    assert probs.tobytes() == predict_proba(trained, x.reshape(-1, 5, a.input_size)).tobytes()
    if len(lead) == 2 and lead[0]:  # an (E, B) stack, as simulate runs it
        assert probs.tobytes() == np.stack([predict_proba(trained, xe) for xe in x]).reshape(probs.shape).tobytes()


@pytest.mark.parametrize("lead", [(40,), (4, 10)], ids=["batch", "stack"])
def test_wrong_feature_width_raises_before_any_thread_starts(monkeypatch, lead):
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (starts.append(thread), start(thread)))
    with pytest.raises(ValidationError, match="input feature size 6, model expects 7"):
        predict_proba(init_model(SMALL, seed=5), np.zeros((*lead, 5, 6)))
    assert starts == []


def test_inference_memory_is_bounded_by_the_block():
    # windows run in blocks of at most 256 rows, so ten times the windows
    # add only their logits and probabilities to the peak
    model = init_model(LstmArch(), seed=5)
    rng = np.random.default_rng(20)
    peaks = {}
    for n in (936, 936, 9360, 9357):  # the first call warms up the pool, imports and caches
        x = rng.normal(size=(n, 5, model.arch.input_size))
        tracemalloc.start()
        try:
            predict_proba(model, x)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[9360] <= 1.5 * peaks[936] and peaks[9357] <= 1.5 * peaks[936], peaks


def test_worker_half_failure_is_raised_once_in_the_caller(monkeypatch):
    forward = lstm._infer_logits

    def fail_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker half failed")
        return forward(*args, **kwargs)

    monkeypatch.setattr(lstm, "_infer_logits", fail_off_the_main_thread)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    threads = threading.active_count()
    x = np.random.default_rng(16).normal(size=(4, 3, 5, SMALL.input_size))
    with pytest.raises(RuntimeError, match="^worker half failed$") as raised:
        predict_proba(init_model(SMALL, seed=5), x)
    assert raised.value.__context__ is None
    assert hooked == []
    assert threading.active_count() == threads


def test_only_learned_slip_inference_starts_threads(tmp_path, monkeypatch, capsys):
    starts = []
    start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    grasp_model, slip_model = tmp_path / "grasp.json", tmp_path / "slip.json"
    save_model(grasp_model, GraspModel(np.zeros((3, 4)), np.zeros(3)))  # every episode reaches snap-off
    save_model(slip_model, init_model(SMALL, seed=0))
    run = ["simulate", "--seed", "3", "--episodes", "40", "--out", str(tmp_path / "run")]
    assert cli.main(run) == 0
    assert cli.main(run + ["--grasp-model", str(grasp_model)]) == 0
    assert starts == []
    assert cli.main(run + ["--grasp-model", str(grasp_model), "--slip-model", str(slip_model)]) == 0
    assert len(starts) == math.ceil(40 / world.EPISODE_CHUNK)  # one worker per stacked forward


def test_sigmoid_matches_two_branch_form_bit_for_bit():
    # exp overflows past 709 and underflows to 0 past 745; 1e-310 is
    # subnormal; from about 37 on, 1 + exp(-z) rounds to 1
    edges = [0.0, np.inf, 709.0, 745.0, 800.0, 1e-310, 1.0, 36.0, 40.0]
    z = np.concatenate([
        np.array(edges + [-v for v in edges] + [np.nan]),
        np.random.default_rng(13).normal(0.0, 10.0, size=100_000),
    ])
    z = np.stack([z, z[::-1]])  # 2-D, like the (B, 4H) pre-activations
    got, ref = lstm._sigmoid(z), _ref_sigmoid(z)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got[~np.isnan(got)]), np.signbit(ref[~np.isnan(ref)]))
    # in place, as inference calls it: out is z itself
    in_place = z.copy()
    lstm._sigmoid(in_place, in_place, np.empty_like(z), np.empty(z.shape, dtype=bool))
    assert in_place.tobytes() == got.tobytes()
