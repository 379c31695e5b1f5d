"""Turning slip probabilities into labels and labels into actions.

The 3-class softmax output is labelled by its argmax, ties going to the
more severe class. A time-stability rule then requires the same label on
two consecutive frames before any action fires, filtering single-frame
flickers. That rule, `stability_step` scanned by `first_action`, is
shared with the grasp monitor, which keys it on the fault family.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Collection, Hashable, Iterable

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


def stability_step(last: Hashable | None, key: Hashable) -> tuple[Hashable | None, bool]:
    """One frame of the two-consecutive rule, shared by both monitors.

    The state is the last key seen, or None at the start. The moment a
    key is seen twice in a row the rule fires and the state clears, so
    the next identical frame starts a fresh pair.
    """
    if key == last:
        return None, True
    return key, False


def first_action(
    step: Callable[[Any, Any], tuple[Any, Any]], stream: Iterable, ignore: Collection = ()
) -> tuple[Any, int | None]:
    """Scan a stream with a monitor's step until it fires an action not in
    `ignore`; scanning goes on, from the cleared state, past one that is.

    Returns (action, index of the firing frame), or (None, None) when
    the stream ends first.
    """
    state = None
    for i, item in enumerate(stream):
        state, action = step(state, item)
        if action is not None and action not in ignore:
            return action, i
    return None, None


def time_stability_step(
    state: SlipLabel | None, prediction: SlipLabel
) -> tuple[SlipLabel | None, RecoveryAction | None]:
    """One slip window: the label is the key, and a confirmed label fires
    its ACTION_FOR_LABEL action."""
    state, fired = stability_step(state, prediction)
    return state, ACTION_FOR_LABEL[prediction] if fired else None
