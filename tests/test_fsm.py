"""Cycle state machine: timing, anchor episodes, logs."""

import itertools
import json

import numpy as np
import pytest

from harvest_guard import fsm
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

    # once the stages pass, the first variant that differs from the walk's,
    # before any event: a slipped abort's deflating is normal
    slipped = list(_records(unplaced, Variant.SLIPPED_ABORT))
    slipped[2] = StageRecord(Stage.DEFLATING, Variant.EMPTY_GRASP_RESPONSE, 1.0)
    assert episode_problem(slipped, [Event.PLACED]) == "deflating at seq 2 has variant empty-grasp-response, expected normal"


# the scan that decided every episode before the whole-walk fast path,
# kept as its oracle: the fault by a min over severity ranks, then the
# first stage, variant or event that differs from the fault's walk
_SEVERITY = {variant: rank for rank, variant in enumerate(fsm._FAULT_OUTCOMES)}


def _scan_fault(records):
    return min((r.variant for r in records), key=_SEVERITY.__getitem__, default=Variant.NORMAL)


def _scan_problem(records, events=()):
    fault = _scan_fault(records)
    walk = fsm._WALKS[fault, len(records) > 1 and records[1].stage is Stage.COMPENSATION]
    for seq, (got, want) in enumerate(itertools.zip_longest((r.stage for r in records), (s for s, _, _ in walk))):
        if got is not want:
            got, want = (stage.value if stage is not None else "no record" for stage in (got, want))
            return f"{fsm._FAULT_OUTCOMES[fault].value} walk has {got} at seq {seq}, expected {want}"
    for i, name, labels in ((1, "variant", [r.variant for r in records]), (2, "event", events)):
        for seq, (got, want) in enumerate(zip(labels, walk)):
            if got is not want[i]:
                return f"{want[0].value} at seq {seq} has {name} {got.value}, expected {want[i].value}"
    return None


def _edits(walk):
    """(records, events) of a walk and of every single-record drop,
    duplicate, adjacent swap, stage change, variant change and event
    change of it, and every prefix of its events. A record edit comes
    with no events, with the walk's, and with the walk's edited alike
    (a drop, duplicate or swap moves the events too)."""
    records = [StageRecord(stage, variant, 1.0) for stage, variant, _ in walk]
    events = [event for _, _, event in walk]
    yield records, events
    for i, rec in enumerate(records):
        edits = [(records[:i] + records[i + 1:], events[:i] + events[i + 1:]),
                 (records[:i] + [rec] + records[i:], events[:i] + [events[i]] + events[i:])]
        if i + 1 < len(records):
            swap = [i + 1, i]
            edits.append((records[:i] + [records[j] for j in swap] + records[i + 2:],
                          events[:i] + [events[j] for j in swap] + events[i + 2:]))
        edits += [(records[:i] + [StageRecord(stage, rec.variant, 1.0)] + records[i + 1:], events)
                  for stage in Stage if stage is not rec.stage]
        edits += [(records[:i] + [StageRecord(rec.stage, variant, 1.0)] + records[i + 1:], events)
                  for variant in Variant if variant is not rec.variant]
        for edited, edited_events in edits:
            yield edited, ()
            yield edited, events
            yield edited, edited_events
        for event in Event:
            if event is not events[i]:
                yield records, events[:i] + [event] + events[i + 1:]
    for n in range(len(events)):
        yield records, events[:n]


def test_episode_problem_matches_the_full_scan():
    problems = set()
    for walk in fsm._WALKS.values():
        for records, events in _edits(walk):
            expected = _scan_problem(records, events)
            assert episode_problem(records, events) == expected, (records, events)
            assert episode_problem(tuple(records), tuple(events)) == expected
            problems.add(expected)
    # every walk passes, and the edits reach all three kinds of message
    assert None in problems
    assert {kind for p in problems if p for kind in ("walk has", "has variant", "has event") if kind in p} == {
        "walk has", "has variant", "has event"
    }


def test_fault_of_is_the_most_severe_variant():
    for n in range(4):
        for variants in itertools.product(Variant, repeat=n):
            records = [StageRecord(Stage.HOMING, v, 1.0) for v in variants]
            assert fsm._fault_of(records) is _scan_fault(records)
            assert fsm._fault_of(iter(records)) is _scan_fault(records)


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


# details and durations whose JSON text takes escapes or the shortest float repr
_LOG_DETAILS = ("", '"\\', "\t\n\x00", "é 中", "\u2028", "\U0001f353")
_LOG_DURATIONS = (0.0, 0.01, 1e-05, 0.1 + 0.2, 1e16, 5e-324, 1.7976931348623157e308, 2, np.float64(1.25))


def test_episode_log_lines_are_json_dumps_of_each_record(tmp_path):
    # the oracle is the per-record json.dumps of the seven-key dict
    values = itertools.count()
    episodes, expected = [], []
    for episode_id, walk in enumerate(fsm._WALKS.values()):
        records = []
        for seq, (stage, variant, event) in enumerate(walk):
            i = next(values)
            detail, duration = _LOG_DETAILS[i % len(_LOG_DETAILS)], _LOG_DURATIONS[i % len(_LOG_DURATIONS)]
            records.append(StageRecord(stage, variant, duration, detail))
            doc = {
                "episode_id": episode_id,
                "seq": seq,
                "stage": stage.value,
                "variant": variant.value,
                "duration_s": duration,
                "event": event.value,
                "detail": detail,
            }
            expected.append(json.dumps(doc))
        episodes.append(HarvestEpisode(episode_id, tuple(records), _TRUTH, _RESPONSES))
    assert len(episodes) == 10 and next(values) > len(_LOG_DURATIONS)  # every walk, every value
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, episodes)
    assert path.read_text(encoding="ascii").split("\n") == expected + [""]
    # the reader names the first duration past its one-day ceiling, and
    # reads every record back once durations are capped there
    first_over = _LOG_DURATIONS.index(1e16) + 1
    with pytest.raises(ValidationError, match=rf": line {first_over}: duration_s must be <= 86400, got 1e\+16$"):
        read_episode_log(path)
    capped = [
        HarvestEpisode(ep.episode_id, tuple(
            StageRecord(r.stage, r.variant, min(r.duration_s, fsm.MAX_LOG_DURATION_S), r.detail) for r in ep.records
        ), _TRUTH, _RESPONSES)
        for ep in episodes
    ]
    write_episode_log(path, capped)
    assert read_episode_log(path) == [(ep.episode_id, list(ep.records)) for ep in capped]


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
