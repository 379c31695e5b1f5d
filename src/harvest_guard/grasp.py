"""Grasp verification during the deflating stage.

A small classifier looks at what the gripper holds (ripe fruit, nothing,
or an unripe fruit) and a two-consecutive-frame rule turns the resulting
class stream into a proceed-or-abort decision. The classifier here is a
linear softmax over summary features of the gripper image; anything with
the same call signature can be dropped in instead.
"""

from __future__ import annotations

import csv
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError, csv_records, require_finite
from .lstm import softmax
from .slip_decision import StabilityState, stability_step

GRASP_FEATURES = ("red_fraction", "green_fraction", "fruit_area", "fruit_present")
GRASP_CSV_HEADER = (*GRASP_FEATURES, "label")


class GraspClass(IntEnum):
    RIPE_HELD = 0
    EMPTY = 1
    UNRIPE_HELD = 2


# classes that mean the cycle grabbed the wrong thing (or nothing)
FAULT_CLASSES = frozenset({GraspClass.EMPTY, GraspClass.UNRIPE_HELD})


def first_bad_observation(x: np.ndarray) -> tuple[int, str] | None:
    """(row, reason) of the first row of an (n, 4) observation array that
    breaks the contract, or None. Each fraction must lie in [0, 1] (NaN
    fails), a present fruit needs a positive area and fruit_present must be
    0 or 1; a row is checked in GRASP_FEATURES order, then for those rules."""
    if x.ndim != 2 or x.shape[1] != len(GRASP_FEATURES):
        raise ValidationError(f"observations must have shape (n, {len(GRASP_FEATURES)}), got {x.shape}")
    in_range = (x[:, :3] >= 0.0) & (x[:, :3] <= 1.0)
    needs_area = (x[:, 2] == 0.0) & (x[:, 3] != 0.0)
    bad = ~in_range.all(axis=1) | needs_area | ((x[:, 3] != 0.0) & (x[:, 3] != 1.0))
    if not bad.any():
        return None
    row = int(bad.argmax())
    for col, name in enumerate(GRASP_FEATURES[:3]):
        if not in_range[row, col]:
            return row, f"{name} must lie in [0, 1], got {x[row, col].item()}"
    if needs_area[row]:
        return row, "fruit_present requires a positive fruit_area"
    return row, f"fruit_present must be 0 or 1, got {x[row, 3].item():g}"


def _require_observations(x: np.ndarray) -> None:
    bad = first_bad_observation(x)
    if bad is not None:
        raise ValidationError(bad[1])


class GraspModel:
    """Linear softmax classifier: scores = softmax(W @ features + b)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, metadata: dict[str, Any] | None = None) -> None:
        if weights.shape != (len(GraspClass), len(GRASP_FEATURES)):
            raise ValidationError(f"weights shape {weights.shape}, expected (3, 4)")
        if bias.shape != (len(GraspClass),):
            raise ValidationError(f"bias shape {bias.shape}, expected (3,)")
        self.weights = weights
        self.bias = bias
        self.metadata: dict[str, Any] = dict(metadata or {})

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}


def classify_grasp(model: GraspModel, x: np.ndarray) -> list[GraspClass]:
    """The class of each row of an (n, 4) observation array.

    Each row's scores are its own matrix-vector product, so a batch gives
    the same bits as classifying the rows one by one (x @ W.T does not).
    A tie goes to the lower class index, RIPE_HELD first.
    """
    if not isinstance(model, GraspModel):
        raise ValidationError("classify_grasp needs a trained GraspModel")
    _require_observations(x)
    probs = softmax((model.weights @ x[:, :, None])[:, :, 0] + model.bias)
    return [GraspClass(i) for i in probs.argmax(axis=1).tolist()]


def train_grasp_classifier(
    x: np.ndarray,
    y: np.ndarray,
    learning_rate: float = 0.5,
    epochs: int = 300,
    seed: int = 0,
) -> GraspModel:
    """Full-batch softmax regression on an (n, 4) observation array and
    its (n,) labels; deterministic per seed.

    Every class must appear at least once so each output row gets
    gradient signal.
    """
    if len(x) != len(y):
        raise ValidationError("observations and labels differ in length")
    if not len(y):
        raise ValidationError("training needs a non-empty observation set")
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _require_observations(x)
    present = {GraspClass(l) for l in y.tolist()}
    if present != set(GraspClass):
        missing = sorted(set(GraspClass) - present, key=int)
        raise ValidationError(f"training set is missing classes {[c.name for c in missing]}")
    require_finite(learning_rate=learning_rate)
    if learning_rate <= 0 or epochs <= 0:
        raise ValidationError("learning rate and epochs must be positive")

    rng = np.random.default_rng(seed)
    n = len(y)
    w = rng.uniform(-0.1, 0.1, size=(len(GraspClass), len(GRASP_FEATURES)))
    b = np.zeros(len(GraspClass))
    for _ in range(epochs):
        probs = softmax(x @ w.T + b)
        probs[np.arange(n), y] -= 1.0
        probs /= n
        w -= learning_rate * (probs.T @ x)
        b -= learning_rate * probs.sum(axis=0)
    return GraspModel(w, b, metadata={"seed": seed, "learning_rate": learning_rate, "epochs": epochs})


class GraspAction(Enum):
    PROCEED = "proceed"
    ABORT_CYCLE = "abort-cycle"


def grasp_decision_step(state: StabilityState, cls: GraspClass) -> tuple[StabilityState, GraspAction | None]:
    """One frame of the proceed-or-abort rule, keyed on the fault family.

    Two consecutive fault-family frames fire AbortCycle; Empty and
    UnripeHeld extend each other's runs. Two consecutive RipeHeld frames
    fire Proceed. A fired decision clears the state.
    """
    fault = cls in FAULT_CLASSES
    state, fired = stability_step(state, fault)
    if not fired:
        return state, None
    return state, GraspAction.ABORT_CYCLE if fault else GraspAction.PROCEED


def write_grasp_csv(path: str | Path, x: np.ndarray, y: np.ndarray) -> None:
    """An (n, 4) observation array and its (n,) labels as GraspData rows."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRASP_CSV_HEADER)
        for (red, green, area, present), label in zip(x.tolist(), y.tolist()):
            writer.writerow([repr(red), repr(green), repr(area), int(present), label])


def read_grasp_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a GraspData file into an (n, 4) float64 observation array and
    (n,) int64 labels; fruit_present parses as an integer.

    Once every row has parsed, the first observation that breaks the
    contract (first_bad_observation) is reported by its line.
    """
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[GraspClass] = []
    linenos: list[int] = []
    for lineno, rec in csv_records(path, GRASP_CSV_HEADER):
        try:
            row = [float(rec[name]) for name in GRASP_FEATURES[:3]] + [float(int(rec["fruit_present"]))]
            label = GraspClass(int(rec["label"]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
        rows.append(row)
        labels.append(label)
        linenos.append(lineno)
    x = np.array(rows, dtype=np.float64).reshape(len(rows), len(GRASP_FEATURES))
    bad = first_bad_observation(x)
    if bad is not None:
        row_index, problem = bad
        raise ValidationError(f"{path}: bad row at line {linenos[row_index]}: {problem}")
    return x, np.array(labels, dtype=np.int64)
