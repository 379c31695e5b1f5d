"""From-scratch stacked LSTM slip classifier, trained with BPTT.

Pure numpy, float64 end to end. The default architecture is 5 stacked
LSTM layers of hidden size 64 over 5-frame windows of 7 features, with
inter-layer dropout 0.2, pre-head dropout 0.3, and a linear 64->3 head
under a softmax. Training is minibatch Adam on the cross-entropy;
everything random (init, shuffling, dropout) comes from one seeded
generator, so a given seed reproduces the final weights bit for bit.

Gate layout inside the stacked weight matrices is i, f, g, o:

    z = x @ W_x.T + h @ W_h.T + b          # (4H,) split into i,f,g,o
    c' = sigmoid(f) * c + sigmoid(i) * tanh(g)
    h' = sigmoid(o) * tanh(c')

array_layout(arch) is the one list of the weight arrays: their names,
shapes and order. SlipModel checks its arrays against it, init_model
draws them in its order, and model files name them by it.

Each training step keeps its gates in one packed (B, 4H) buffer: one
sigmoid pass over all of z, then tanh written over the g slice in place;
the backward pass copies i, f, g, o out of it as contiguous blocks and
fills one (B, 4H) buffer per layer with the pre-activation gradient.
Only loss_and_grads keeps the per-step state that backpropagation needs.
Inference (predict_proba) has its own step loop, which caches nothing:
it computes the gates in place in z, skips the recurrent GEMM of the
zero initial state, and runs any input as flat rows in blocks of at most
_BLOCK rows zero-padded to a multiple of 8, so a row's bits do not depend
on its batch. Two 8-aligned halves run on the calling thread and a worker.

The kernel's bits are part of its contract: a seed must keep producing
the same weights and labels. So the GEMM operand layouts, the batch
shapes and the order of every sum and product are fixed; the sigmoid
evaluates the overflow-free two-branch form, not the cheaper
0.5 * (1 + tanh(z / 2)), which rounds differently.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .errors import ValidationError, require_finite
from .slip_windows import FEATURE_ORDER, SlipWindows, windows_to_arrays


@dataclass(frozen=True)
class LstmArch:
    """Shape of the network. Defaults match the deployed classifier."""

    n_layers: int = 5
    hidden_size: int = 64
    input_size: int = 7
    n_classes: int = 3
    inter_dropout: float = 0.2
    head_dropout: float = 0.3

    def __post_init__(self) -> None:
        if not all(type(n) is int for n in (self.n_layers, self.hidden_size, self.input_size, self.n_classes)):
            raise ValidationError(f"architecture sizes must be integers: {self}")
        if self.n_layers < 1 or self.hidden_size < 1 or self.input_size < 1 or self.n_classes < 2:
            raise ValidationError(f"degenerate architecture: {self}")
        for name in ("inter_dropout", "head_dropout"):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise ValidationError(f"{name} must lie in [0, 1), got {rate}")


# Adam's moment decay rates and denominator guard, at the usual values
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.005
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(learning_rate=self.learning_rate)
        if self.epochs <= 0:
            raise ValidationError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ValidationError(f"learning rate must be positive, got {self.learning_rate}")
        if self.batch_size <= 0:
            raise ValidationError(f"batch size must be positive, got {self.batch_size}")


def array_layout(arch: LstmArch) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every weight array, in parameter order: per layer,
    bottom-up, layer<i>.w_x (4H, D_i), layer<i>.w_h (4H, H) and
    layer<i>.b (4H,), then head.w (C, H) and head.b (C,). Lazy, so a check
    can stop at the arrays it holds however large n_layers is."""
    gates = 4 * arch.hidden_size
    for layer in range(arch.n_layers):
        yield f"layer{layer}.w_x", (gates, arch.input_size if layer == 0 else arch.hidden_size)
        yield f"layer{layer}.w_h", (gates, arch.hidden_size)
        yield f"layer{layer}.b", (gates,)
    yield "head.w", (arch.n_classes, arch.hidden_size)
    yield "head.b", (arch.n_classes,)


class SlipModel:
    """Weights of the stacked LSTM plus the metadata needed to rerun it.

    arrays maps every array_layout name, in layout order, to an array of
    its shape. The kernel reads them through w_x[l], w_h[l], b[l], w_out
    and b_out, which are the same arrays. metadata records the seed, the
    feature order (always FEATURE_ORDER, which load_model enforces), and
    the training hyperparameters.
    """

    def __init__(self, arch: LstmArch, arrays: dict[str, np.ndarray], metadata: dict[str, Any] | None = None) -> None:
        layout = array_layout(arch)
        # one layout entry per array given: a huge n_layers is never listed in full
        for name, a in arrays.items():
            want_name, want = next(layout, (None, None))
            if name != want_name:
                raise ValidationError(f"unexpected array {name!r}" + (f", expected {want_name!r}" if want_name else ""))
            if a.shape != want:
                raise ValidationError(f"{name} shape {a.shape}, expected {want}")
        for name, _ in layout:  # the first entry left is missing
            raise ValidationError(f"missing array {name!r}")
        self.arch = arch
        self._arrays = arrays
        params, n = list(arrays.values()), 3 * arch.n_layers
        self.w_x, self.w_h, self.b = params[0:n:3], params[1:n:3], params[2:n:3]
        self.w_out, self.b_out = params[n:]
        self.metadata: dict[str, Any] = dict(metadata or {})
        self.metadata.setdefault("feature_order", list(FEATURE_ORDER))

    def parameters(self) -> list[np.ndarray]:
        """All weight arrays in array_layout order."""
        return list(self._arrays.values())

    def named_arrays(self) -> dict[str, np.ndarray]:
        return self._arrays


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal_gates(rng: np.random.Generator, h: int) -> np.ndarray:
    """(4H, H) recurrent matrix: one orthogonal block per gate. Keeps the
    hidden-state norm through depth, which a small uniform init does not."""
    blocks = []
    for _ in range(4):
        q, r = np.linalg.qr(rng.normal(size=(h, h)))
        blocks.append(q * np.sign(np.diag(r)))
    return np.concatenate(blocks, axis=0)


def init_model(arch: LstmArch = LstmArch(), seed: int = 0, rng: np.random.Generator | None = None) -> SlipModel:
    """Fresh model: glorot-uniform input and head weights, orthogonal
    recurrent blocks, biases zero except each layer's forget gate, which
    starts at 1 so early training does not forget everything. The draws
    run in array_layout order."""
    if rng is None:
        rng = np.random.default_rng(seed)
    h = arch.hidden_size
    arrays: dict[str, np.ndarray] = {}
    for name, shape in array_layout(arch):
        if name.endswith(".w_h"):
            arrays[name] = _orthogonal_gates(rng, h)
        elif len(shape) == 2:  # layer w_x and head.w
            arrays[name] = _glorot(rng, shape)
        else:
            arrays[name] = np.zeros(shape)
            if name != "head.b":
                arrays[name][h : 2 * h] = 1.0
    return SlipModel(arch, arrays, metadata={"seed": seed})


def _sigmoid(
    z: np.ndarray, out: np.ndarray | None = None, e: np.ndarray | None = None, ge0: np.ndarray | None = None
) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.
    Both branches share e = exp(-|z|), so one pass gives the same bits as
    evaluating each branch on its own half. out, e and ge0 (bool) are
    optional buffers of z's shape; without them each is a new array. out
    may be z itself: ge0 is taken from z before out is written."""
    e = np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    # max(e, 1) is 1 since e <= 1, max(e, 0) is e, and NaN stays NaN
    out = np.maximum(e, np.greater_equal(z, 0, out=ge0), out=out)
    return np.divide(out, np.add(e, 1.0, out=e), out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def severity_argmax(probs: np.ndarray) -> np.ndarray:
    """Row-wise argmax with ties broken toward the higher class index
    (= severity)."""
    return probs.shape[1] - 1 - probs[:, ::-1].argmax(axis=1)


def _step_buffers(lead: tuple[int, ...], h_size: int) -> dict[str, np.ndarray]:
    """Every array one time step writes, for a (*lead) batch: the (4H)
    pre-activation z, its scratch, the packed gates, the new state (h, c)
    and tanh(c)."""
    gate, state = (*lead, 4 * h_size), (*lead, h_size)
    buf = {name: np.empty(gate) for name in ("z", "zh", "e", "gates")}
    buf["ge0"] = np.empty(gate, dtype=bool)
    buf.update((name, np.empty(state)) for name in ("h", "c", "tanh_c", "prod"))
    return buf


def _check_width(model: SlipModel, x: np.ndarray) -> None:
    if x.shape[-1] != model.arch.input_size:
        raise ValidationError(f"input feature size {x.shape[-1]}, model expects {model.arch.input_size}")


def _forward_batch(model: SlipModel, x: np.ndarray,
                   dropout_rng: np.random.Generator | None) -> tuple[np.ndarray, dict[str, Any]]:
    """Training forward: run (B, T, D) inputs through the stack and return
    the (B, C) logits and the cache _backward_batch reads. dropout_rng None
    runs without dropout (the finite-difference checks). Each step writes
    into fresh arrays, which the cache keeps."""
    a = model.arch
    *lead, n_steps, _ = x.shape
    h_size = a.hidden_size
    s_i, s_f, s_g, s_o = (slice(k * h_size, (k + 1) * h_size) for k in range(4))

    masks: list[np.ndarray | None] = []
    layer_steps: list[list[tuple[np.ndarray, ...]]] = []
    current = x
    for layer in range(a.n_layers):
        w_x_t, w_h_t, bias = model.w_x[layer].T, model.w_h[layer].T, model.b[layer]
        h, c, outputs = np.zeros((*lead, h_size)), np.zeros((*lead, h_size)), np.empty((*lead, n_steps, h_size))
        steps: list[tuple[np.ndarray, ...]] = []
        for t in range(n_steps):
            x_t = current[..., t, :]
            step = _step_buffers(lead, h_size)
            # z = x_t @ W_x.T + h @ W_h.T + b, summed in that order
            z, gates = step["z"], step["gates"]
            np.add(np.matmul(x_t, w_x_t, out=z), np.matmul(h, w_h_t, out=step["zh"]), out=z)
            np.add(z, bias, out=z)
            _sigmoid(z, gates, step["e"], step["ge0"])
            np.tanh(z[..., s_g], out=gates[..., s_g])
            c_new = np.multiply(gates[..., s_f], c, out=step["c"])
            np.add(c_new, np.multiply(gates[..., s_i], gates[..., s_g], out=step["prod"]), out=c_new)
            tanh_c = np.tanh(c_new, out=step["tanh_c"])
            steps.append((x_t, h, c, gates, tanh_c))
            h, c = np.multiply(gates[..., s_o], tanh_c, out=step["h"]), c_new
            outputs[..., t, :] = h
        layer_steps.append(steps)

        mask = None
        if dropout_rng is not None and layer < a.n_layers - 1 and a.inter_dropout > 0.0:
            keep = 1.0 - a.inter_dropout
            mask = (dropout_rng.random(outputs.shape) < keep) / keep
            outputs = outputs * mask
        masks.append(mask)
        current = outputs

    h_final = current[..., -1, :]
    head_mask = None
    if dropout_rng is not None and a.head_dropout > 0.0:
        keep = 1.0 - a.head_dropout
        head_mask = (dropout_rng.random(h_final.shape) < keep) / keep
        h_final = h_final * head_mask
    cache = {"x": x, "steps": layer_steps, "masks": masks, "head_mask": head_mask, "h_final": h_final}
    return h_final @ model.w_out.T + model.b_out, cache


def _backward_batch(
    model: SlipModel, cache: dict[str, Any], dlogits: np.ndarray
) -> list[np.ndarray]:
    """Gradients for every parameter, in model.parameters() order."""
    a = model.arch
    h_size = a.hidden_size
    s_i, s_f, s_g, s_o = (slice(k * h_size, (k + 1) * h_size) for k in range(4))
    x = cache["x"]
    n_batch, n_steps, _ = x.shape

    d_w_out = dlogits.T @ cache["h_final"]
    d_b_out = dlogits.sum(axis=0)
    dh_final = dlogits @ model.w_out
    if cache["head_mask"] is not None:
        dh_final = dh_final * cache["head_mask"]

    d_current = np.zeros((n_batch, n_steps, h_size))
    d_current[:, -1, :] = dh_final

    grads = [d_w_out, d_b_out]
    for layer in reversed(range(a.n_layers)):
        if cache["masks"][layer] is not None:
            d_current = d_current * cache["masks"][layer]
        d_w_x = np.zeros_like(model.w_x[layer])
        d_w_h = np.zeros_like(model.w_h[layer])
        d_b = np.zeros_like(model.b[layer])
        # nothing reads the gradient w.r.t. the input windows
        d_input = np.zeros((n_batch, n_steps, h_size)) if layer else None
        dh_next = np.zeros((n_batch, h_size))
        dc_next = np.zeros((n_batch, h_size))
        # gradient w.r.t. the pre-activation z, one (B, 4H) buffer reused
        # by every step; the products keep the order (d * g) * (1 - g)
        dz = np.empty((n_batch, 4 * h_size))
        for t in reversed(range(n_steps)):
            x_t, h_prev, c_prev, gates, tanh_c = cache["steps"][layer][t]
            # one gate-major copy: the dozen products below run about twice
            # as fast on contiguous (B, H) blocks as on strided slices
            gi, gf, gg, go = gates.reshape(n_batch, 4, h_size).transpose(1, 0, 2).copy()
            dh = d_current[:, t, :] + dh_next
            dc = dc_next + dh * go * (1.0 - tanh_c * tanh_c)
            np.multiply(dc * gg * gi, 1.0 - gi, out=dz[:, s_i])
            np.multiply(dc * c_prev * gf, 1.0 - gf, out=dz[:, s_f])
            np.multiply(dc * gi, 1.0 - gg * gg, out=dz[:, s_g])
            np.multiply(dh * tanh_c * go, 1.0 - go, out=dz[:, s_o])
            d_w_x += dz.T @ x_t
            d_w_h += dz.T @ h_prev
            d_b += dz.sum(axis=0)
            if layer:
                d_input[:, t, :] = dz @ model.w_x[layer]
            if t:  # step 0 has no earlier step to pass the state gradients to
                dh_next = dz @ model.w_h[layer]
                dc_next = dc * gf
        grads[:0] = (d_w_x, d_w_h, d_b)
        d_current = d_input
    return grads


def loss_and_grads(
    model: SlipModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over the batch plus gradients for every
    parameter. Pass a generator to draw dropout masks; None runs the
    network deterministically (used by the finite-difference checks)."""
    _check_width(model, x)
    logits, cache = _forward_batch(model, x, dropout_rng)
    probs = softmax(logits)
    n = x.shape[0]
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(n), y] + eps).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, _backward_batch(model, cache, dlogits)


# rows per inference block: padded to a multiple of 8, a block of up to
# 400 rows gave each row the bits of an 8-row call (README Determinism)
_BLOCK = 256


def _block_buffers(model: SlipModel, x: np.ndarray) -> list[np.ndarray]:
    """The seven buffers _infer_logits reuses for every block of x's rows."""
    h_size, rows = model.arch.hidden_size, min(-(-len(x) // 8) * 8, _BLOCK)
    return [*(np.empty((rows, 4 * h_size), dtype) for dtype in (float, float, bool)),
            *(np.empty((rows, h_size)) for _ in range(3)), np.empty((rows, x.shape[1], h_size))]


def _infer_logits(model: SlipModel, x: np.ndarray, logits: np.ndarray, bufs: list[np.ndarray]) -> None:
    """Inference forward: (N, T, D) rows -> their (N, C) logits, written to
    logits, with the bits of _forward_batch on 8-row batches. The gates go
    over z in place, tanh(g) into h (dead once its GEMM has run) and tanh(c')
    into prod. All layers share one output buffer: step t reads step t of
    the layer below into its GEMM before it writes its own. With finite W_h,
    h @ W_h.T of the +0 state at t = 0 is +0, so adding +0.0 keeps the bits."""
    h_size = model.arch.hidden_size
    s_i, s_f, s_g, s_o = (slice(k * h_size, (k + 1) * h_size) for k in range(4))
    for start in range(0, len(x), _BLOCK):
        current = block = x[start : start + _BLOCK]
        if len(block) % 8:  # zero rows pad the ragged tail to a multiple of 8
            current = np.concatenate([block, np.zeros((-len(block) % 8, *block.shape[1:]))])
        z, zh, ge0, h, c, prod, outputs = (b[: len(current)] for b in bufs)
        for layer in range(model.arch.n_layers):
            w_x_t, w_h_t, bias = model.w_x[layer].T, model.w_h[layer].T, model.b[layer]
            c.fill(0.0)
            for t in range(x.shape[1]):
                # z = x_t @ W_x.T + h @ W_h.T + b, summed in that order
                np.matmul(current[:, t, :], w_x_t, out=z)
                np.add(z, np.matmul(h, w_h_t, out=zh) if t else 0.0, out=z)
                np.add(z, bias, out=z)
                np.tanh(z[:, s_g], out=h)
                _sigmoid(z, z, zh, ge0)
                np.multiply(z[:, s_f], c, out=c)
                np.add(c, np.multiply(z[:, s_i], h, out=prod), out=c)
                np.multiply(z[:, s_o], np.tanh(c, out=prod), out=h)
                outputs[:, t, :] = h
            current = outputs
        logits[start : start + len(block)] = (outputs[:, -1, :] @ model.w_out.T + model.b_out)[: len(block)]


def predict_proba(model: SlipModel, x: np.ndarray) -> np.ndarray:
    """(..., T, D) windows -> (..., C) class probabilities, no dropout.
    The model's W_h must be finite (load_model and lstm_train see to it):
    the first step of each layer skips the GEMM of the zero state.

    The windows run as flat (N, T, D) rows. Past 8 rows, a one-worker pool
    runs those from the 8-aligned middle on and the calling thread those
    before it, each half in its own blocks; numpy and BLAS release the GIL,
    so the halves overlap on two cores. A worker exception is raised here,
    once, after the worker has ended."""
    _check_width(model, x)
    *lead, n_steps, n_features = x.shape
    rows = x.reshape(-1, n_steps, n_features)
    logits = np.empty((len(rows), model.arch.n_classes))
    if len(rows) <= 8:
        _infer_logits(model, rows, logits, _block_buffers(model, rows))
    else:
        half = -(-len(rows) // 16) * 8
        # allocated by the calling thread: the worker's own malloc arena kept 1.6 MB more RSS
        lower, upper = _block_buffers(model, rows[:half]), _block_buffers(model, rows[half:])
        with ThreadPoolExecutor(max_workers=1) as pool:  # leaving the block joins the worker
            worker = pool.submit(_infer_logits, model, rows[half:], logits[half:], upper)
            _infer_logits(model, rows[:half], logits[:half], lower)
            worker.result()
    return softmax(logits.reshape(*lead, model.arch.n_classes))


# a diverging run overflows; the checks after each epoch report it once
@np.errstate(over="ignore", invalid="ignore")
def lstm_train(
    train_windows: SlipWindows,
    val_windows: SlipWindows | None = None,
    config: TrainConfig = TrainConfig(),
    arch: LstmArch = LstmArch(),
) -> SlipModel:
    """Train on labeled windows; returns the fitted model.

    The per-epoch mean training loss lands in metadata["train_loss"]
    (and validation accuracy in metadata["val_accuracy"] when a
    validation set is given). With a validation set the weights returned
    are those of the best-accuracy epoch (earliest on ties), recorded in
    metadata["best_epoch"]; without one, the final epoch's. Same data +
    same config => bitwise-equal weights.
    """
    if not train_windows:
        raise ValidationError("training needs a non-empty window set")
    rng = np.random.default_rng(config.seed)
    model = init_model(arch, seed=config.seed, rng=rng)
    x_train, y_train = windows_to_arrays(train_windows)

    params = model.parameters()
    # Adam moment buffers; the depth of the stack shrinks raw gradients
    # by orders of magnitude, so plain SGD stalls at the uniform logit.
    m1 = [np.zeros_like(p) for p in params]
    m2 = [np.zeros_like(p) for p in params]
    step = 0
    n = len(train_windows)
    losses: list[float] = []
    val_acc: list[float] = []
    best_acc = -1.0
    best_epoch = 0
    best_params: list[np.ndarray] | None = None
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = loss_and_grads(model, x_train[idx], y_train[idx], dropout_rng=rng)
            epoch_loss += loss * len(idx)
            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            for p, a, b, g in zip(params, m1, m2, grads):
                a *= ADAM_BETA1
                a += (1.0 - ADAM_BETA1) * g
                b *= ADAM_BETA2
                b += (1.0 - ADAM_BETA2) * g * g
                p -= config.learning_rate * (a / bias1) / (np.sqrt(b / bias2) + ADAM_EPS)
        losses.append(epoch_loss / n)
        if not np.isfinite(losses[-1]):
            raise ValidationError(f"training diverged in epoch {epoch + 1}: the loss is {losses[-1]}")
        for name, p in model.named_arrays().items():
            if not np.isfinite(p).all():
                raise ValidationError(f"training diverged in epoch {epoch + 1}: array {name!r} holds non-finite values")
        if val_windows:
            pred, true = evaluate(model, val_windows)
            acc = float((pred == true).mean())
            val_acc.append(acc)
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch + 1
                best_params = [p.copy() for p in params]

    if best_params is not None:
        for p, kept in zip(params, best_params):
            p[...] = kept
        model.metadata["best_epoch"] = best_epoch

    model.metadata.update(
        {
            "seed": config.seed,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "optimizer": "adam",
            "train_loss": losses,
        }
    )
    if val_acc:
        model.metadata["val_accuracy"] = val_acc
    return model


def evaluate(model: SlipModel, windows: SlipWindows) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and true labels for a window set (argmax, ties
    toward higher severity)."""
    if not windows:
        raise ValidationError("evaluate needs a non-empty window set")
    x, y = windows_to_arrays(windows)
    return severity_argmax(predict_proba(model, x)), y
