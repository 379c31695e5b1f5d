"""Cycle state machine: timing, anchor episodes, logs."""

import itertools

import numpy as np
import pytest

from harvest_guard.errors import ValidationError
from harvest_guard.fsm import (
    DEFAULT_TIMING,
    EpisodeResponses,
    EpisodeTruth,
    Event,
    HarvestEpisode,
    LOG_FIELDS,
    MIN_DURATION_S,
    Outcome,
    Stage,
    StageRecord,
    StageTiming,
    Variant,
    advance,
    episode_cycle,
    read_episode_log,
    run_episode,
    sample_stage_duration,
    write_episode_log,
)
from harvest_guard.geometry import RelativeError
from harvest_guard.grasp import GraspAction, GraspClass
from harvest_guard.slip_decision import ACTION_FOR_LABEL
from harvest_guard.slip_windows import SlipLabel

from conftest import ScriptedWorld


def test_timing_table_validation():
    with pytest.raises(ValidationError, match="duplicate"):
        StageTiming(
            (
                (Stage.HOMING, Variant.NORMAL, 1.0, 0.0),
                (Stage.HOMING, Variant.NORMAL, 2.0, 0.0),
            )
        )
    with pytest.raises(ValidationError):
        StageTiming(((Stage.HOMING, Variant.NORMAL, 0.0, 0.0),))
    with pytest.raises(ValidationError):
        StageTiming(((Stage.HOMING, Variant.NORMAL, 1.0, -0.1),))


def test_timing_lookup_and_overrides():
    assert DEFAULT_TIMING.lookup(Stage.SNAP_OFF, Variant.SLIPPED_ABORT) == (1.44, 0.07)
    with pytest.raises(ValidationError):
        DEFAULT_TIMING.lookup(Stage.COMPENSATION, Variant.SLIPPED_ABORT)

    # a custom table overrides the defaults and holds only its own rows
    custom = StageTiming(((Stage.SNAP_OFF, Variant.NORMAL, 2.0, 0.1),))
    assert custom.lookup(Stage.SNAP_OFF, Variant.NORMAL) == (2.0, 0.1)
    with pytest.raises(ValidationError):
        custom.lookup(Stage.HOMING, Variant.NORMAL)


def test_duration_sampling():
    assert sample_stage_duration(DEFAULT_TIMING, Stage.PLACING, Variant.NORMAL, deterministic=True) == 4.36
    with pytest.raises(ValidationError):
        sample_stage_duration(DEFAULT_TIMING, Stage.PLACING, Variant.NORMAL)

    wild = StageTiming(((Stage.HOMING, Variant.NORMAL, 0.02, 5.0),))
    rng = np.random.default_rng(0)
    draws = [sample_stage_duration(wild, Stage.HOMING, Variant.NORMAL, rng) for _ in range(200)]
    assert min(draws) >= MIN_DURATION_S  # negative normals get floored
    assert min(draws) == MIN_DURATION_S  # and with std 5.0 some certainly were


def _run(world, **kwargs):
    return run_episode(world, deterministic=True, rng=np.random.default_rng(0), **kwargs)


def test_no_fault_cycle_takes_11_22_seconds():
    ep = _run(ScriptedWorld())
    assert ep.outcome is Outcome.PICKED_AND_PLACED
    assert [r.stage for r in ep.records] == [
        Stage.INFLATING_APPROACHING,
        Stage.SWALLOWING,
        Stage.DEFLATING,
        Stage.SNAP_OFF,
        Stage.DESCENDING,
        Stage.PLACING,
        Stage.HOMING,
    ]
    assert ep.total_s == pytest.approx(11.22, abs=1e-9)
    assert not ep.responses.compensated


def test_compensated_recovery_cycle_takes_12_71_seconds():
    ep = _run(ScriptedWorld(misaligned=True, slip=SlipLabel.SLIPPING))
    assert ep.outcome is Outcome.RECOVERED_AFTER_SLIP
    assert ep.total_s == pytest.approx(12.71, abs=1e-9)
    assert ep.responses.compensated
    stages = [r.stage for r in ep.records]
    assert Stage.COMPENSATION in stages
    assert stages.count(Stage.SNAP_OFF) == 2

    # one recovery draw split at the detection point, nothing added
    recovery = [r for r in ep.records if r.variant is Variant.SLIPPING_RECOVERY]
    assert len(recovery) == 2
    assert recovery[0].duration_s + recovery[1].duration_s == pytest.approx(1.81, abs=1e-12)
    assert recovery[0].duration_s == pytest.approx(1.81 * 2 / 7, abs=1e-12)
    assert recovery[0].event is Event.TWO_CONSECUTIVE_SLIPPING
    assert recovery[1].event is Event.SNAP_OK
    assert ep.responses.slip_detect_frame == 1


def test_slipped_abort_takes_7_27_seconds():
    ep = _run(ScriptedWorld(slip=SlipLabel.SLIPPED))
    assert ep.outcome is Outcome.ABORTED_SLIPPED
    assert ep.total_s == pytest.approx(7.27, abs=1e-9)
    stages = [r.stage for r in ep.records]
    assert Stage.PLACING not in stages
    abort = [r for r in ep.records if r.variant is Variant.SLIPPED_ABORT]
    assert len(abort) == 1 and abort[0].duration_s == pytest.approx(1.44)


def test_empty_grasp_abort_takes_5_26_seconds():
    ep = _run(ScriptedWorld(grasp=GraspClass.EMPTY))
    assert ep.outcome is Outcome.ABORTED_EMPTY_OR_MISGRASP
    assert ep.total_s == pytest.approx(5.26, abs=1e-9)
    stages = [r.stage for r in ep.records]
    assert Stage.SNAP_OFF not in stages and Stage.PLACING not in stages
    assert ep.responses.grasp_detected is GraspClass.EMPTY


def test_misgrasp_abort_takes_5_23_seconds():
    ep = _run(ScriptedWorld(grasp=GraspClass.UNRIPE_HELD))
    assert ep.outcome is Outcome.ABORTED_EMPTY_OR_MISGRASP
    assert ep.total_s == pytest.approx(5.23, abs=1e-9)
    deflating = [r for r in ep.records if r.stage is Stage.DEFLATING]
    assert deflating[0].variant is Variant.MISGRASP_RESPONSE


class _CustomGraspWorld(ScriptedWorld):
    def __init__(self, stream):
        super().__init__()
        self._stream = stream

    def grasp_stream(self, truth, rng):
        return list(self._stream)


def test_undecided_grasp_stream_fails_open():
    world = _CustomGraspWorld(
        [GraspClass.RIPE_HELD, GraspClass.EMPTY, GraspClass.RIPE_HELD, GraspClass.EMPTY]
    )
    ep = _run(world)
    assert ep.outcome is Outcome.PICKED_AND_PLACED
    assert ep.responses.grasp_action is GraspAction.PROCEED
    assert ep.responses.grasp_detected is None and ep.responses.grasp_detect_frame is None


def test_mixed_fault_frames_abort():
    # Empty then UnripeHeld is two consecutive fault frames: faults pool
    world = _CustomGraspWorld([GraspClass.EMPTY, GraspClass.UNRIPE_HELD, GraspClass.RIPE_HELD, GraspClass.RIPE_HELD])
    ep = _run(world)
    assert ep.outcome is Outcome.ABORTED_EMPTY_OR_MISGRASP
    assert ep.responses.grasp_detected is GraspClass.UNRIPE_HELD
    assert ep.responses.grasp_detect_frame == 1


def _slip_scan_oracle(stream):
    """The snap-off rule restated: the first window whose label repeats
    the one before it, unless that label is Normal."""
    for i in range(1, len(stream)):
        if stream[i] == stream[i - 1] != SlipLabel.NORMAL:
            return ACTION_FOR_LABEL[stream[i]], i
    return None, None


def test_slip_scan_matches_exhaustive_oracle():
    # all 3^8 eight-window label streams, sent into the cycle at snap-off;
    # a confirmed Normal is scanned past, not acted on
    world = ScriptedWorld()
    for stream in itertools.product(list(SlipLabel), repeat=8):
        cycle = episode_cycle(world, DEFAULT_TIMING, np.random.default_rng(0), True, 0)
        assert isinstance(advance(cycle), EpisodeTruth)
        responses = advance(cycle, list(stream)).responses
        assert (responses.slip_action, responses.slip_detect_frame) == _slip_scan_oracle(stream)


def _records(stages):
    out = []
    for stage in stages:
        event = {
            Stage.INFLATING_APPROACHING: Event.ALIGNED,
            Stage.COMPENSATION: Event.COMPENSATED,
            Stage.SWALLOWING: Event.SWALLOWED,
            Stage.DEFLATING: Event.GRASP_OK,
            Stage.SNAP_OFF: Event.SNAP_OK,
            Stage.DESCENDING: Event.DESCENDED_WITH_FRUIT,
            Stage.PLACING: Event.PLACED,
            Stage.HOMING: Event.HOMED,
        }[stage]
        out.append(StageRecord(stage, Variant.NORMAL, 1.0, event))
    return tuple(out)


_TRUTH = EpisodeTruth(RelativeError(0.0, 0.0), GraspClass.RIPE_HELD, SlipLabel.NORMAL)
_RESPONSES = EpisodeResponses(False, None, None, GraspAction.PROCEED, None, None, None, None)

_FULL = [
    Stage.INFLATING_APPROACHING,
    Stage.SWALLOWING,
    Stage.DEFLATING,
    Stage.SNAP_OFF,
    Stage.DESCENDING,
    Stage.PLACING,
    Stage.HOMING,
]


def _episode(stages, outcome):
    return HarvestEpisode(0, _records(stages), _TRUTH, _RESPONSES, outcome)


def test_episode_structure_validation():
    _episode(_FULL, Outcome.PICKED_AND_PLACED)  # the happy path is legal

    with pytest.raises(ValidationError, match="homing"):
        _episode(_FULL[:-1], Outcome.PICKED_AND_PLACED)
    with pytest.raises(ValidationError, match="compensation"):
        _episode([Stage.COMPENSATION, Stage.COMPENSATION] + _FULL, Outcome.PICKED_AND_PLACED)
    with pytest.raises(ValidationError, match="placing"):
        _episode(_FULL + [Stage.PLACING, Stage.HOMING], Outcome.PICKED_AND_PLACED)
    with pytest.raises(ValidationError, match="snap-off"):
        _episode([Stage.SNAP_OFF, Stage.SNAP_OFF] + _FULL, Outcome.PICKED_AND_PLACED)
    # placing must match the outcome in both directions
    with pytest.raises(ValidationError, match="placing presence"):
        _episode([s for s in _FULL if s is not Stage.PLACING], Outcome.PICKED_AND_PLACED)
    with pytest.raises(ValidationError, match="placing presence"):
        _episode(_FULL, Outcome.ABORTED_SLIPPED)


def test_stochastic_runs_are_reproducible_and_sane():
    world = ScriptedWorld(misaligned=True, slip=SlipLabel.SLIPPING)
    a = run_episode(world, rng=np.random.default_rng(42))
    b = run_episode(world, rng=np.random.default_rng(42))
    assert a.total_s == b.total_s
    assert all(r.duration_s >= MIN_DURATION_S for r in a.records)
    assert a.total_s == pytest.approx(sum(r.duration_s for r in a.records))
    assert a.outcome is Outcome.RECOVERED_AFTER_SLIP


def test_episode_log_round_trip(tmp_path):
    episodes = [
        run_episode(ScriptedWorld(), deterministic=True, episode_id=0),
        run_episode(ScriptedWorld(grasp=GraspClass.EMPTY), deterministic=True, episode_id=1),
    ]
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, episodes)
    rows = read_episode_log(path)
    assert len(rows) == sum(len(ep.records) for ep in episodes)
    assert list(rows[0].keys()) == list(LOG_FIELDS)
    assert rows[0]["stage"] == "inflating-approaching"
    assert {r["episode_id"] for r in rows} == {0, 1}

    again = tmp_path / "episodes2.jsonl"
    write_episode_log(again, episodes)
    assert path.read_bytes() == again.read_bytes()


def test_episode_log_rejects_reordered_keys(tmp_path):
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, [run_episode(ScriptedWorld(), deterministic=True)])
    lines = path.read_text().splitlines()
    import json

    doc = json.loads(lines[0])
    scrambled = {k: doc[k] for k in reversed(list(doc))}
    lines[0] = json.dumps(scrambled)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="unexpected log fields"):
        read_episode_log(path)
