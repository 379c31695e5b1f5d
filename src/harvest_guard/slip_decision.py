"""Turning slip probabilities into labels and labels into actions.

The 3-class softmax output is labelled by its argmax, ties going to the
more severe class. A time-stability rule then requires the same label on
two consecutive frames before any action fires, filtering single-frame
flickers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .lstm import severity_argmax
from .slip_windows import SlipLabel

PROB_SUM_TOL = 1e-6


def classify_slip(probs: np.ndarray) -> list[SlipLabel]:
    """Each row's most probable class in an (n, 3) probability batch,
    ties going to the more severe class. Every value must lie in [0, 1]
    and every row sum to 1 within PROB_SUM_TOL; a NaN fails both checks.
    """
    if probs.ndim != 2 or probs.shape[1] != len(SlipLabel):
        raise ValidationError(f"need an (n, {len(SlipLabel)}) probability batch, got shape {probs.shape}")
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    bad = ~(in_range & (np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
    if bad.any():
        i = int(bad.argmax())
        raise ValidationError(f"row {i}: {probs[i].tolist()} must lie in [0, 1] and sum to 1 +/- {PROB_SUM_TOL}")
    return [SlipLabel(i) for i in severity_argmax(probs).tolist()]


class RecoveryAction(Enum):
    CONTINUE_SNAP_OFF = "continue-snap-off"
    REGRASP_AND_RESNAP = "regrasp-and-resnap"
    ABORT_CYCLE = "abort-cycle"


# label confirmed twice in a row -> what the arm does about it
ACTION_FOR_LABEL = {
    SlipLabel.NORMAL: RecoveryAction.CONTINUE_SNAP_OFF,
    SlipLabel.SLIPPING: RecoveryAction.REGRASP_AND_RESNAP,
    SlipLabel.SLIPPED: RecoveryAction.ABORT_CYCLE,
}


@dataclass(frozen=True)
class StabilityState:
    """Running memory of the last prediction and how many consecutive
    frames produced it."""

    last: SlipLabel | None = None
    count: int = 0

    def __post_init__(self) -> None:
        if self.last is not None and self.count < 1:
            raise ValidationError("count must be >= 1 while a prediction is held")
        if self.last is None and self.count != 0:
            raise ValidationError("count must be 0 with no held prediction")


def time_stability_step(
    state: StabilityState, prediction: SlipLabel
) -> tuple[StabilityState, RecoveryAction | None]:
    """One frame of the two-consecutive rule.

    A repeat increments the count, a change resets it to 1. The moment a
    label is seen twice in a row the matching action fires and the state
    clears, so the next identical frame starts a fresh count.
    """
    count = state.count + 1 if prediction == state.last else 1
    if count >= 2:
        return StabilityState(), ACTION_FOR_LABEL[prediction]
    return StabilityState(last=prediction, count=count), None


def run_stability(predictions: list[SlipLabel]) -> tuple[RecoveryAction | None, int | None]:
    """Scan a prediction stream until the first action fires.

    Returns (action, index of the firing frame), or (None, None) when
    the stream ends without two consecutive equal predictions.
    """
    state = StabilityState()
    for i, p in enumerate(predictions):
        state, action = time_stability_step(state, p)
        if action is not None:
            return action, i
    return None, None
