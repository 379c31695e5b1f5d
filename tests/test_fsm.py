"""Cycle state machine: timing, anchor episodes, logs."""

import itertools
import json

import numpy as np
import pytest

from harvest_guard.errors import ValidationError
from harvest_guard.fsm import (
    STAGE_TIMING,
    EpisodeResponses,
    EpisodeTruth,
    Event,
    HarvestEpisode,
    LOG_FIELDS,
    MIN_DURATION_S,
    Outcome,
    Stage,
    StageRecord,
    Variant,
    advance,
    episode_cycle,
    episode_problem,
    read_episode_log,
    run_episode,
    write_episode_log,
)
from harvest_guard.grasp import GraspAction, GraspClass
from harvest_guard.slip_decision import ACTION_FOR_LABEL
from harvest_guard.slip_windows import SlipLabel

from conftest import ScriptedWorld, implied_outcome


def test_timing_lookup_and_overrides(monkeypatch):
    assert STAGE_TIMING[Stage.SNAP_OFF, Variant.SLIPPED_ABORT] == (1.44, 0.07)
    assert (Stage.COMPENSATION, Variant.SLIPPED_ABORT) not in STAGE_TIMING
    assert all(mean > 0 and std >= 0 for mean, std in STAGE_TIMING.values())

    # an overridden entry is what the cycle draws from, floored at the minimum
    monkeypatch.setitem(STAGE_TIMING, (Stage.HOMING, Variant.NORMAL), (0.02, 5.0))
    homing = [run_episode(ScriptedWorld(), rng=np.random.default_rng(s)).records[-1].duration_s for s in range(200)]
    assert min(homing) >= MIN_DURATION_S  # negative normals get floored
    assert min(homing) == MIN_DURATION_S  # and with std 5.0 some certainly were


def test_timing_table_covers_exactly_the_recorded_stages():
    # every fault script, at the stage means: the table has no dead entry
    # and no (stage, variant) a cycle can record is missing from it
    seen = set()
    for misaligned, grasp, slip in itertools.product((False, True), GraspClass, SlipLabel):
        ep = run_episode(ScriptedWorld(misaligned, grasp, slip), deterministic=True)
        seen |= {(r.stage, r.variant) for r in ep.records}
    assert seen == set(STAGE_TIMING)


def test_outcome_is_what_the_responses_imply():
    outcomes, walks = set(), set()
    for misaligned, grasp, slip in itertools.product((False, True), GraspClass, SlipLabel):
        ep = run_episode(ScriptedWorld(misaligned, grasp, slip), deterministic=True)
        assert ep.outcome is implied_outcome(ep.responses)
        assert episode_problem(ep.records) is None
        outcomes.add(ep.outcome)
        walks.add(tuple(r.stage for r in ep.records))
    assert outcomes == set(Outcome)
    # each outcome with and without compensation
    assert len(walks) == 8


def test_duration_sampling():
    # deterministic mode takes each record's mean exactly
    ep = run_episode(ScriptedWorld(misaligned=True), deterministic=True)
    assert [r.duration_s for r in ep.records] == [STAGE_TIMING[r.stage, r.variant][0] for r in ep.records]

    # a stochastic draw lands near its mean, and exactly on it where the std is 0
    ep = run_episode(ScriptedWorld(misaligned=True), rng=np.random.default_rng(3))
    for r in ep.records:
        mean, std = STAGE_TIMING[r.stage, r.variant]
        assert abs(r.duration_s - mean) <= 6 * std
    assert any(r.duration_s != STAGE_TIMING[r.stage, r.variant][0] for r in ep.records)


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


def test_compensated_recovery_cycle_takes_12_71_seconds(tmp_path):
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
    assert ep.responses.slip_detect_frame == 1

    # the log names the monitor that closed each stage
    write_episode_log(tmp_path / "episodes.jsonl", [ep])
    assert [json.loads(line)["event"] for line in (tmp_path / "episodes.jsonl").read_text().splitlines()] == [
        "misaligned", "compensated", "swallowed", "grasp-ok", "two-consecutive-slipping", "snap-ok",
        "descended-with-fruit", "placed", "homed",
    ]


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
        cycle = episode_cycle(world, np.random.default_rng(0), True, 0)
        assert isinstance(advance(cycle), EpisodeTruth)
        responses = advance(cycle, list(stream)).responses
        assert (responses.slip_action, responses.slip_detect_frame) == _slip_scan_oracle(stream)


def _records(stages, snap_off=Variant.NORMAL):
    return tuple(StageRecord(stage, snap_off if stage is Stage.SNAP_OFF else Variant.NORMAL, 1.0) for stage in stages)


_TRUTH = EpisodeTruth((0.0, 0.0), GraspClass.RIPE_HELD, SlipLabel.NORMAL)
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


def _episode(stages, snap_off=Variant.NORMAL):
    return HarvestEpisode(0, _records(stages, snap_off), _TRUTH, _RESPONSES)


def test_episode_structure_validation():
    assert _episode(_FULL).outcome is Outcome.PICKED_AND_PLACED  # the happy path is legal

    def problem(stages, snap_off=Variant.NORMAL):
        with pytest.raises(ValidationError) as exc:
            _episode(stages, snap_off)
        return str(exc.value)

    assert problem(_FULL[:-1]) == "picked-and-placed walk has no record at seq 6, expected homing"
    assert problem([]) == "picked-and-placed walk has no record at seq 0, expected inflating-approaching"
    full_compensated = _FULL[:1] + [Stage.COMPENSATION] + _FULL[1:]
    assert problem(full_compensated[:2] + full_compensated[1:]) == (
        "picked-and-placed walk has compensation at seq 2, expected swallowing"
    )
    assert problem(_FULL + [Stage.PLACING, Stage.HOMING]) == (
        "picked-and-placed walk has placing at seq 7, expected no record"
    )
    assert problem([Stage.SNAP_OFF, Stage.SNAP_OFF] + _FULL) == (
        "picked-and-placed walk has snap-off at seq 0, expected inflating-approaching"
    )
    # placing must match the outcome the records imply, in both directions
    unplaced = [s for s in _FULL if s is not Stage.PLACING]
    assert _episode(unplaced, Variant.SLIPPED_ABORT).outcome is Outcome.ABORTED_SLIPPED
    assert problem(unplaced) == "picked-and-placed walk has homing at seq 5, expected placing"
    assert problem(_FULL, Variant.SLIPPED_ABORT) == "aborted-slipped walk has placing at seq 5, expected homing"

    # given events, the first that differs from the walk's is the problem
    walk_events = [Event.ALIGNED, Event.SWALLOWED, Event.GRASP_OK, Event.SNAP_OK, Event.DESCENDED_WITH_FRUIT,
                   Event.PLACED, Event.HOMED]
    assert episode_problem(_records(_FULL), walk_events) is None
    assert episode_problem(_records(_FULL), [Event.ALIGNED, Event.PLACED]) == (
        "swallowing at seq 1 has event placed, expected swallowed"
    )
    # a wrong stage is named before any event
    assert episode_problem(_records(unplaced), [Event.HOMED]) == "picked-and-placed walk has homing at seq 5, expected placing"


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
    assert read_episode_log(path) == [(ep.episode_id, list(ep.records)) for ep in episodes]
    first = json.loads(path.read_text().splitlines()[0])
    assert list(first) == list(LOG_FIELDS)
    assert first["stage"] == "inflating-approaching"

    again = tmp_path / "episodes2.jsonl"
    write_episode_log(again, episodes)
    assert path.read_bytes() == again.read_bytes()


def test_episode_log_rejects_reordered_keys(tmp_path):
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, [run_episode(ScriptedWorld(), deterministic=True)])
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    scrambled = {k: doc[k] for k in reversed(list(doc))}
    lines[0] = json.dumps(scrambled)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="unexpected log fields"):
        read_episode_log(path)
