"""Slip classification and the two-consecutive stability rule."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harvest_guard.errors import ValidationError
from harvest_guard.slip_decision import (
    ACTION_FOR_LABEL,
    RecoveryAction,
    StabilityState,
    classify_slip,
    first_action,
    time_stability_step,
)
from harvest_guard.slip_windows import SlipLabel


def test_probabilities_must_sum_to_one():
    assert classify_slip(np.array([[0.2, 0.3, 0.5]])) == [SlipLabel.SLIPPED]
    for bad in ([0.2, 0.3, 0.6], [-0.1, 0.6, 0.5], [1.1, 0.0, -0.1], [np.nan, 0.5, 0.5]):
        with pytest.raises(ValidationError, match=r"row 1: .* must lie in \[0, 1\] and sum to 1"):
            classify_slip(np.array([[0.2, 0.3, 0.5], bad]))
    with pytest.raises(ValidationError, match="probability batch"):
        classify_slip(np.array([0.2, 0.3, 0.5]))


def test_argmax_picks_highest():
    probs = np.array([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    assert classify_slip(probs) == [SlipLabel.NORMAL, SlipLabel.SLIPPING, SlipLabel.SLIPPED]
    assert classify_slip(np.empty((0, 3))) == []


def test_argmax_ties_go_to_severity():
    probs = np.array([[0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.2, 0.4, 0.4]])
    assert classify_slip(probs) == [SlipLabel.SLIPPING, SlipLabel.SLIPPED, SlipLabel.SLIPPED]


@given(
    pn=st.floats(min_value=0.0, max_value=1.0),
    ps=st.floats(min_value=0.0, max_value=1.0),
)
def test_policies_agree_with_direct_rules(pn, ps):
    if pn + ps > 1.0:
        pn, ps = pn / (pn + ps), ps / (pn + ps)
    pd = max(0.0, 1.0 - pn - ps)

    expected = SlipLabel.SLIPPED
    if pn > max(ps, pd):
        expected = SlipLabel.NORMAL
    elif ps > pd:
        expected = SlipLabel.SLIPPING
    assert classify_slip(np.array([[pn, ps, pd]])) == [expected]


def test_stability_state_validation():
    StabilityState()
    StabilityState(last=SlipLabel.NORMAL, count=1)
    with pytest.raises(ValidationError):
        StabilityState(last=SlipLabel.NORMAL, count=0)
    with pytest.raises(ValidationError):
        StabilityState(last=None, count=1)


def test_stability_step_counts_and_fires():
    state = StabilityState()
    state, action = time_stability_step(state, SlipLabel.SLIPPING)
    assert action is None and state.count == 1
    state, action = time_stability_step(state, SlipLabel.NORMAL)
    assert action is None and state.count == 1  # change resets the run
    state, action = time_stability_step(state, SlipLabel.NORMAL)
    assert action is RecoveryAction.CONTINUE_SNAP_OFF
    assert state == StabilityState()  # cleared after firing


def test_single_flicker_never_fires():
    stream = [SlipLabel.NORMAL, SlipLabel.SLIPPING, SlipLabel.NORMAL, SlipLabel.SLIPPED]
    assert first_action(time_stability_step, stream) == (None, None)


def test_action_fires_on_second_consecutive_frame():
    stream = [SlipLabel.NORMAL, SlipLabel.SLIPPING, SlipLabel.SLIPPING]
    assert first_action(time_stability_step, stream) == (RecoveryAction.REGRASP_AND_RESNAP, 2)
    stream = [SlipLabel.SLIPPED, SlipLabel.SLIPPED, SlipLabel.SLIPPING]
    assert first_action(time_stability_step, stream) == (RecoveryAction.ABORT_CYCLE, 1)


def _bruteforce_first_action(stream):
    """The rule restated naively: fire at the first adjacent equal pair."""
    for i in range(1, len(stream)):
        if stream[i] == stream[i - 1]:
            return ACTION_FOR_LABEL[stream[i]], i
    return None, None


def test_exhaustive_streams_match_bruteforce():
    # every possible 6-frame prediction stream, all 3^6 of them
    for raw in itertools.product(list(SlipLabel), repeat=6):
        assert first_action(time_stability_step, list(raw)) == _bruteforce_first_action(raw)


def test_cleared_state_requires_fresh_pair():
    # after a fire, a third identical frame must not fire alone
    state = StabilityState()
    stream = [SlipLabel.SLIPPING] * 3
    fired = []
    for p in stream:
        state, action = time_stability_step(state, p)
        fired.append(action)
    assert fired == [None, RecoveryAction.REGRASP_AND_RESNAP, None]
