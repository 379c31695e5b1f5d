"""Block draws against the one-draw-per-call code they replaced.

The cycle draws each run of stage durations between two monitor decisions
in one standard_normal call, the truth its two normals and two uniforms
in one call each, and the approach its actuation and vision pairs in one
call. The code that drew one value per rng.normal or rng.random call is
kept here as the oracle: every record, truth and response must be
bit-equal to it, and every generator must end in the same state.
"""

import itertools
import struct

import numpy as np
import pytest

from harvest_guard.errors import require_finite
from harvest_guard.fsm import (
    _WALKS,
    MIN_DURATION_S,
    STAGE_TIMING,
    ApproachOutcome,
    EpisodeResponses,
    EpisodeTruth,
    HarvestEpisode,
    Outcome,
    StageRecord,
    Stage,
    Variant,
    advance,
    run_episode,
)
from harvest_guard.geometry import compensated_point, needs_compensation
from harvest_guard.grasp import GraspAction, GraspClass, GraspModel, grasp_decision_step
from harvest_guard.slip_decision import RecoveryAction, first_action, time_stability_step
from harvest_guard.slip_windows import SlipLabel
from harvest_guard.world import (
    _GRASP_ORDER,
    _SLIP_ORDER,
    NOMINAL_PICKING_POINT,
    EpisodeWorld,
    ScenarioConfig,
    episode_rng,
    run_episodes,
)

from conftest import ScriptedWorld


def _oracle_cycle(world, rng, deterministic, episode_id):
    """The cycle as it was before block draws: one rng.normal call per drawn duration."""

    def draw(stage, variant):
        mean, std = STAGE_TIMING[stage, variant]
        return mean if deterministic else max(MIN_DURATION_S, float(rng.normal(mean, std)))

    records = []

    def record(detail="", duration_s=None):
        stage, variant, _ = walk[len(records)]
        duration_s = draw(stage, variant) if duration_s is None else duration_s
        records.append(StageRecord(stage, variant, duration_s, detail))

    truth = world.sample_truth(rng)
    approach = world.approach(truth, rng)
    walk = _WALKS[Variant.NORMAL, approach.compensated]
    record("visual error ({:.1f}, {:.1f}) mm".format(*approach.visual_error))
    if approach.compensated:
        record(f"residual ({approach.residual_x:.1f}, {approach.residual_y:.1f}) mm")
    record()  # swallowing

    frames = world.grasp_stream(truth, rng)
    grasp_action, grasp_frame = first_action(grasp_decision_step, frames)
    grasp_detected = None if grasp_frame is None else frames[grasp_frame]
    if grasp_action is None:
        grasp_action = GraspAction.PROCEED

    slip_action = detect_idx = None
    if grasp_action is GraspAction.ABORT_CYCLE:
        fault = Variant.EMPTY_GRASP_RESPONSE if grasp_detected is GraspClass.EMPTY else Variant.MISGRASP_RESPONSE
        walk = _WALKS[fault, approach.compensated]
        record(f"detected {grasp_detected.name.lower()}")
    else:
        record()  # deflating
        predictions = list((yield truth))
        slip_action, detect_idx = first_action(
            time_stability_step, predictions, ignore=(RecoveryAction.CONTINUE_SNAP_OFF,)
        )
        if slip_action is RecoveryAction.ABORT_CYCLE:
            walk = _WALKS[Variant.SLIPPED_ABORT, approach.compensated]
            record(f"slip confirmed at window {detect_idx}")
        elif slip_action is RecoveryAction.REGRASP_AND_RESNAP:
            walk = _WALKS[Variant.SLIPPING_RECOVERY, approach.compensated]
            phase = draw(Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY)
            frames_seen = detect_idx + 1
            fraction = frames_seen / max(len(predictions), frames_seen)
            record(f"slipping confirmed at window {detect_idx}", phase * fraction)
            record("regrasped and re-snapped", phase * (1.0 - fraction))
        else:
            record()  # snap-off

    for _ in walk[len(records):]:
        record()

    responses = EpisodeResponses(
        compensated=approach.compensated,
        residual_x=approach.residual_x if approach.compensated else None,
        residual_y=approach.residual_y if approach.compensated else None,
        grasp_action=grasp_action,
        grasp_detected=grasp_detected,
        grasp_detect_frame=grasp_frame,
        slip_action=slip_action,
        slip_detect_frame=detect_idx,
    )
    return HarvestEpisode(episode_id, tuple(records), truth, responses)


def _oracle_run(world, rng, deterministic=False, episode_id=0):
    cycle = _oracle_cycle(world, rng, deterministic, episode_id)
    stop = advance(cycle)
    if isinstance(stop, EpisodeTruth):
        stop = advance(cycle, world.slip_stream(stop, rng))
    return stop


class _PerDrawWorld:
    """An EpisodeWorld whose truth and approach draw one value or pair per
    call, as they did before block draws; its grasp and slip streams are
    the world's own."""

    def __init__(self, world):
        self.world = world
        self.grasp_stream = world.grasp_stream
        self.slip_stream = world.slip_stream

    def sample_truth(self, rng):
        cfg = self.world.config
        ex = float(rng.normal(cfg.error_mean_x_mm, cfg.error_std_x_mm))
        ey = float(rng.normal(cfg.error_mean_y_mm, cfg.error_std_y_mm))
        grasp = _GRASP_ORDER[rng.choice(3, p=[cfg.p_ripe, cfg.p_empty, cfg.p_unripe])]
        slip = _SLIP_ORDER[rng.choice(3, p=[cfg.p_slip_normal, cfg.p_slipping, cfg.p_slipped])]
        return EpisodeTruth((ex, ey), grasp, slip)

    def approach(self, truth, rng):
        cfg, params = self.world.config, self.world._params
        px, py = NOMINAL_PICKING_POINT
        ex, ey = truth.positional_error
        act, vis = cfg.actuation_noise_std_mm, cfg.vision_noise_std_mm
        a1x, a1y = rng.normal(0.0, act, size=2).tolist() if act > 0 else (0.0, 0.0)
        e1x, e1y = px - ex + a1x, py - ey + a1y
        require_finite(x=e1x, y=e1y)
        v_x, v_y = rng.normal(0.0, vis, size=2).tolist() if vis > 0 else (0.0, 0.0)
        dx, dy = (px - e1x) + v_x, (py - e1y) + v_y
        require_finite(dx=dx, dy=dy)
        if not needs_compensation(dx, dy, params):
            return ApproachOutcome((dx, dy), False, ex - a1x, ey - a1y)
        tx, ty = compensated_point(px, py, dx, dy, params)
        a2x, a2y = rng.normal(0.0, act, size=2).tolist() if act > 0 else (0.0, 0.0)
        e2x, e2y = tx - ex + a2x, ty - ey + a2y
        require_finite(x=e2x, y=e2y)
        return ApproachOutcome((dx, dy), True, px - e2x, py - e2y)


def _bits(value):
    """`value` with every float as its type and IEEE-754 bytes, so that ==
    compares bits: -0.0 and 0.0 differ, and so do a float and an np.float64."""
    if isinstance(value, float):
        return type(value), struct.pack("<d", value)
    if isinstance(value, HarvestEpisode):
        return value.episode_id, _bits(value.records), _bits(value.truth), _bits(value.responses)
    if isinstance(value, tuple):
        return type(value), tuple(_bits(v) for v in value)
    return value


def _assert_same(world, oracle_world, seed, index=0, deterministic=False):
    rng, oracle_rng = episode_rng(seed, index), episode_rng(seed, index)
    episode = run_episode(world, rng, deterministic)
    assert _bits(episode) == _bits(_oracle_run(oracle_world, oracle_rng, deterministic))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return episode


_SCRIPTS = list(itertools.product((False, True), GraspClass, SlipLabel))


@pytest.mark.parametrize("misaligned,grasp,slip", _SCRIPTS)
def test_scripted_cycles_match_the_per_draw_oracle(misaligned, grasp, slip):
    world = ScriptedWorld(misaligned, grasp, slip)
    for seed in range(50):
        episode = _assert_same(world, world, seed)
    assert episode.responses.compensated is misaligned
    # deterministic mode draws nothing
    _assert_same(world, world, 0, deterministic=True)
    rng = episode_rng(0, 0)
    run_episode(world, rng, deterministic=True)
    assert rng.bit_generator.state == episode_rng(0, 0).bit_generator.state


def test_scripted_cycles_reach_every_outcome_with_and_without_compensation():
    seen = {(run_episode(ScriptedWorld(*script), deterministic=True).outcome, script[0]) for script in _SCRIPTS}
    assert seen == set(itertools.product(Outcome, (False, True)))


# scores frames by their red (RipeHeld) and green (UnripeHeld) areas, so a
# grasp model aborts on the fault classes the world injects
_SORTING_GRASP = GraspModel(np.array([[10.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0], [0.0, 10.0, 0.0, 5.0]]),
                            np.array([0.0, 3.0, 0.0]))


@pytest.mark.parametrize("config,grasp_model", [
    (ScenarioConfig(), None),
    (ScenarioConfig(actuation_noise_std_mm=0.0), None),
    (ScenarioConfig(vision_noise_std_mm=0.0), None),
    (ScenarioConfig(), _SORTING_GRASP),
], ids=["default-noise", "no-actuation-noise", "no-vision-noise", "grasp-model"])
def test_episode_world_matches_the_per_draw_oracle(config, grasp_model):
    world = EpisodeWorld(config, grasp_model=grasp_model)
    oracle_world = _PerDrawWorld(world)
    episodes = [_assert_same(world, oracle_world, seed, index) for seed in range(50) for index in range(8)]
    # the seeds reach every outcome, with and without compensation
    assert {(e.outcome, e.responses.compensated) for e in episodes} == set(itertools.product(Outcome, (False, True)))
    # the chunked runner draws the same from each episode's generator
    oracle = [_oracle_run(oracle_world, episode_rng(3, i), episode_id=i) for i in range(40)]
    assert [_bits(e) for e in run_episodes(world, 40, master_seed=3)] == [_bits(e) for e in oracle]
