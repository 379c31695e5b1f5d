"""The simulator against its closed form. Under ground-truth monitors a
scenario fixes its outcome mix, its compensation rate and each outcome's
expected cycle time exactly; a run of fixed seed must land within K
standard errors of each. The seeds, N and K were fixed before any run."""

import math

import pytest

from harvest_guard.fsm import MIN_DURATION_S, STAGE_TIMING, Outcome, Stage, Variant
from harvest_guard.geometry import CompensationParams
from harvest_guard.world import EpisodeWorld, ScenarioConfig, run_episodes

K = 4.0  # standard errors
N = 6000  # episodes per scenario

_N = Variant.NORMAL
# the records every walk starts with, and each outcome's records after
# them, compensation aside; a recovery's two snap-off records share one
# SLIPPING_RECOVERY draw, and a grasp abort's deflating response
# depends on the class it saw (see _expected)
_HEAD = [(Stage.INFLATING_APPROACHING, _N), (Stage.SWALLOWING, _N)]
_TAIL = {
    Outcome.PICKED_AND_PLACED: [(Stage.DEFLATING, _N), (Stage.SNAP_OFF, _N), (Stage.DESCENDING, _N),
                                (Stage.PLACING, _N), (Stage.HOMING, _N)],
    Outcome.ABORTED_SLIPPED: [(Stage.DEFLATING, _N), (Stage.SNAP_OFF, Variant.SLIPPED_ABORT),
                              (Stage.DESCENDING, _N), (Stage.HOMING, _N)],
    Outcome.RECOVERED_AFTER_SLIP: [(Stage.DEFLATING, _N), (Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY),
                                   (Stage.DESCENDING, _N), (Stage.PLACING, _N), (Stage.HOMING, _N)],
    Outcome.ABORTED_EMPTY_OR_MISGRASP: [(Stage.DESCENDING, _N), (Stage.HOMING, _N)],
}


def _p_within(mean, var, t):
    """P(|X| <= t) for X ~ Normal(mean, var)."""
    if var == 0:
        return float(abs(mean) <= t)
    scale = math.sqrt(2.0 * var)
    return 0.5 * (math.erf((t - mean) / scale) - math.erf((-t - mean) / scale))


def _expected(cfg):
    """Each outcome's probability, the compensation rate and each
    outcome's mean total, from the scenario and STAGE_TIMING alone."""
    t = CompensationParams().threshold_t
    noise = cfg.actuation_noise_std_mm ** 2 + cfg.vision_noise_std_mm ** 2
    p_comp = 1.0 - (_p_within(cfg.error_mean_x_mm, cfg.error_std_x_mm ** 2 + noise, t)
                    * _p_within(cfg.error_mean_y_mm, cfg.error_std_y_mm ** 2 + noise, t))
    p_abort = cfg.p_empty + cfg.p_unripe
    probs = {
        Outcome.ABORTED_EMPTY_OR_MISGRASP: p_abort,
        Outcome.ABORTED_SLIPPED: cfg.p_ripe * cfg.p_slipped,
        Outcome.RECOVERED_AFTER_SLIP: cfg.p_ripe * cfg.p_slipping,
        Outcome.PICKED_AND_PLACED: cfg.p_ripe * cfg.p_slip_normal,
    }

    def mean(*pairs):
        return sum(STAGE_TIMING[pair][0] for pair in pairs)

    head = mean(*_HEAD) + p_comp * mean((Stage.COMPENSATION, _N))
    means = {outcome: head + mean(*tail) for outcome, tail in _TAIL.items()}
    if p_abort:
        means[Outcome.ABORTED_EMPTY_OR_MISGRASP] += (
            cfg.p_empty * mean((Stage.DEFLATING, Variant.EMPTY_GRASP_RESPONSE))
            + cfg.p_unripe * mean((Stage.DEFLATING, Variant.MISGRASP_RESPONSE))
        ) / p_abort
    return probs, p_comp, means


def _check_rate(name, hits, n, p):
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) <= K * se + 1e-12, (name, hits / n, p, se)


_QUIET_APPROACH = dict(error_std_x_mm=1.0, error_std_y_mm=1.0, actuation_noise_std_mm=0.5, vision_noise_std_mm=0.5)


@pytest.mark.parametrize("seed,overrides,timing", [
    (1101, {}, {}),
    (1102, dict(error_std_x_mm=0.0, error_std_y_mm=0.0, actuation_noise_std_mm=0.0, vision_noise_std_mm=0.0,
                grasp_noise_scale=0.0, slip_noise_std=0.0), {}),
    (1103, dict(p_ripe=0.0, p_empty=1.0, p_unripe=0.0), {}),
    (1104, dict(error_mean_x_mm=200.0), {}),
    (1105, dict(error_mean_x_mm=0.0, error_mean_y_mm=0.0, **_QUIET_APPROACH), {}),
    (1106, dict(p_slip_normal=0.4, p_slipping=0.3, p_slipped=0.3), {
        (Stage.COMPENSATION, _N): (1.4, 0.1),
        (Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY): (3.1, 0.25),
        (Stage.PLACING, _N): (2.5, 0.2),
    }),
], ids=["defaults", "zero-noise", "all-empty", "always-compensates", "never-compensates", "patched-timing"])
def test_ground_truth_runs_match_the_closed_form(monkeypatch, seed, overrides, timing):
    for pair, entry in timing.items():
        monkeypatch.setitem(STAGE_TIMING, pair, entry)
    # the floor never binds, so each record's mean is its stage mean:
    # every stage mean lies at least 10 of its stds above it (compensation
    # exactly 10, up to rounding)
    assert all(mean - 10 * std >= MIN_DURATION_S - 1e-12 for mean, std in STAGE_TIMING.values())
    cfg = ScenarioConfig(**overrides)
    probs, p_comp, means = _expected(cfg)
    episodes = run_episodes(EpisodeWorld(cfg), N, master_seed=seed)

    _check_rate("compensated", sum(ep.records[1].stage is Stage.COMPENSATION for ep in episodes), N, p_comp)
    totals = {outcome: [] for outcome in Outcome}
    for ep in episodes:
        totals[ep.outcome].append(ep.total_s)
    for outcome, p in probs.items():
        got = totals[outcome]
        _check_rate(outcome.value, len(got), N, p)
        if len(got) > 1:
            mean = math.fsum(got) / len(got)
            se = math.sqrt(math.fsum((x - mean) ** 2 for x in got) / (len(got) - 1) / len(got))
            assert abs(mean - means[outcome]) <= K * se + 1e-9, (outcome.value, mean, means[outcome], se)
