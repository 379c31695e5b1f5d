"""Grasp verification during the deflating stage.

A small classifier looks at what the gripper holds (ripe fruit, nothing,
or an unripe fruit) and a two-consecutive-frame rule turns the resulting
class stream into a proceed-or-abort decision. The classifier here is a
linear softmax over summary features of the gripper image; anything with
the same call signature can be dropped in instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ValidationError, open_text, require_finite
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


@dataclass(frozen=True)
class GripperObservation:
    """Color and area summary of one gripper-camera frame."""

    red_fraction: float
    green_fraction: float
    fruit_area: float
    fruit_present: bool

    def __post_init__(self) -> None:
        for name in ("red_fraction", "green_fraction", "fruit_area"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        if self.fruit_area == 0.0 and self.fruit_present:
            raise ValidationError("fruit_present requires a positive fruit_area")

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.red_fraction, self.green_fraction, self.fruit_area, float(self.fruit_present)]
        )


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


def grasp_scores(model: GraspModel, obs: GripperObservation) -> np.ndarray:
    """Class probabilities for one observation; sums to 1."""
    if not isinstance(model, GraspModel):
        raise ValidationError("classify_grasp needs a trained GraspModel")
    return softmax(model.weights @ obs.as_vector() + model.bias)


def classify_grasp(model: GraspModel, obs: GripperObservation) -> tuple[GraspClass, float]:
    scores = grasp_scores(model, obs)
    idx = int(scores.argmax())
    return GraspClass(idx), float(scores[idx])


def train_grasp_classifier(
    observations: Sequence[GripperObservation],
    labels: Sequence[GraspClass],
    learning_rate: float = 0.5,
    epochs: int = 300,
    seed: int = 0,
) -> GraspModel:
    """Full-batch softmax regression; deterministic per seed.

    Every class must appear at least once so each output row gets
    gradient signal.
    """
    if len(observations) != len(labels):
        raise ValidationError("observations and labels differ in length")
    if not observations:
        raise ValidationError("training needs a non-empty observation set")
    present = {GraspClass(int(l)) for l in labels}
    if present != set(GraspClass):
        missing = sorted(set(GraspClass) - present, key=int)
        raise ValidationError(f"training set is missing classes {[c.name for c in missing]}")
    require_finite(learning_rate=learning_rate)
    if learning_rate <= 0 or epochs <= 0:
        raise ValidationError("learning rate and epochs must be positive")

    rng = np.random.default_rng(seed)
    x = np.stack([o.as_vector() for o in observations])
    y = np.array([int(l) for l in labels])
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


def write_grasp_csv(
    path: str | Path, rows: Iterable[tuple[GripperObservation, GraspClass]]
) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRASP_CSV_HEADER)
        for obs, label in rows:
            writer.writerow(
                [
                    repr(float(obs.red_fraction)),
                    repr(float(obs.green_fraction)),
                    repr(float(obs.fruit_area)),
                    int(obs.fruit_present),
                    int(label),
                ]
            )


def read_grasp_csv(path: str | Path) -> list[tuple[GripperObservation, GraspClass]]:
    path = Path(path)
    out: list[tuple[GripperObservation, GraspClass]] = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        fields = reader.fieldnames or []
        missing = [c for c in GRASP_CSV_HEADER if c not in fields]
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}")
        for lineno, rec in enumerate(reader, start=2):
            try:
                obs = GripperObservation(
                    red_fraction=float(rec["red_fraction"]),
                    green_fraction=float(rec["green_fraction"]),
                    fruit_area=float(rec["fruit_area"]),
                    fruit_present=bool(int(rec["fruit_present"])),
                )
                label = GraspClass(int(rec["label"]))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
            out.append((obs, label))
    return out
