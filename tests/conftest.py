"""Shared test fixtures: repo data paths, scripted episode worlds, and the
frozen finite-difference gradient-check procedure."""

import json
import os
from pathlib import Path

# at these GEMM sizes a second BLAS thread costs CPU and saves no time;
# set before numpy loads OpenBLAS, and only if the caller has not chosen
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from harvest_guard.fsm import EpisodeResponses, EpisodeTruth, Outcome
from harvest_guard.geometry import CompensationParams
from harvest_guard.grasp import GraspAction, GraspClass
from harvest_guard.lstm import LstmArch, init_model, loss_and_grads
from harvest_guard.slip_decision import RecoveryAction
from harvest_guard.slip_windows import SlipLabel, build_windows
from harvest_guard.world import _CONFIG_SCHEMA, ScenarioConfig, gen_slip_trajectory, simulate_approach

REPO_ROOT = Path(__file__).resolve().parent.parent
ALIGNMENT_CSV = REPO_ROOT / "data" / "alignment_reference.csv"

# every (section, key) of a scenario INI that holds a float, by the type of its default
FLOAT_KEYS = [
    (section, key)
    for section, keys in _CONFIG_SCHEMA.items()
    for key, attr in keys.items()
    if isinstance(getattr(ScenarioConfig, attr), float)
]


def fd_max_rel_err(seed: int) -> float:
    """Worst relative error between analytic and central-difference
    gradients on a reduced dropout-free network.

    Methodology is frozen: per seed, draw one 3-window batch, compare up
    to 6 sampled coordinates per parameter array at eps = 1e-5, and score
    |analytic - numeric| / max(1e-6, |analytic| + |numeric|). The eps is
    as small as float64 allows here; gradients deep in the stack are
    ~1e-7, so a smaller step drowns in subtraction noise.
    """
    arch = LstmArch(n_layers=2, hidden_size=8, inter_dropout=0.0, head_dropout=0.0)
    rng = np.random.default_rng(seed)
    model = init_model(arch, seed=seed)
    x = rng.uniform(0.05, 0.3, size=(3, 5, 7))
    y = rng.integers(0, 3, size=3)
    _, grads = loss_and_grads(model, x, y)
    eps = 1e-5
    worst = 0.0
    for p, g in zip(model.parameters(), grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in rng.integers(0, flat_p.size, size=min(6, flat_p.size)):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up, _ = loss_and_grads(model, x, y)
            flat_p[i] = orig - eps
            down, _ = loss_and_grads(model, x, y)
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * eps)
            rel = abs(flat_g[i] - numeric) / max(1e-6, abs(flat_g[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst


def implied_outcome(responses: EpisodeResponses) -> Outcome:
    """The outcome the monitors' decisions lead to: a grasp abort ends the
    cycle before snap-off, where the slip monitor may abort or regrasp."""
    if responses.grasp_action is GraspAction.ABORT_CYCLE:
        return Outcome.ABORTED_EMPTY_OR_MISGRASP
    if responses.slip_action is RecoveryAction.ABORT_CYCLE:
        return Outcome.ABORTED_SLIPPED
    if responses.slip_action is RecoveryAction.REGRASP_AND_RESNAP:
        return Outcome.RECOVERED_AFTER_SLIP
    return Outcome.PICKED_AND_PLACED


def renumbered(docs: list[dict]) -> list[str]:
    """Episode log lines of record `docs` with each episode's seq
    renumbered 0, 1, 2, ... in file order."""
    seqs: dict[object, int] = {}
    for doc in docs:
        doc["seq"] = seqs[doc["episode_id"]] = seqs.get(doc["episode_id"], -1) + 1
    return [json.dumps(doc) for doc in docs]


class ScriptedWorld:
    """Episode world with a fixed fault script and noiseless sensing.

    The approach is exact (no actuation or vision noise), the grasp
    stream repeats the injected class, and the slip stream replays the
    ground-truth window labels of a noiseless trajectory. With
    deterministic timing this pins every episode total to a sum of
    stage means.
    """

    def __init__(
        self,
        misaligned: bool = False,
        grasp: GraspClass = GraspClass.RIPE_HELD,
        slip: SlipLabel = SlipLabel.NORMAL,
    ) -> None:
        self.misaligned = misaligned
        self.grasp = grasp
        self.slip = slip

    def sample_truth(self, rng) -> EpisodeTruth:
        err = (20.0, 15.0) if self.misaligned else (0.0, 0.0)
        return EpisodeTruth(positional_error=err, grasp_outcome=self.grasp, slip_outcome=self.slip)

    def approach(self, truth, rng):
        cfg = ScenarioConfig(actuation_noise_std_mm=0.0, vision_noise_std_mm=0.0)
        return simulate_approach(cfg, CompensationParams(), rng, injected_error=truth.positional_error)

    def grasp_stream(self, truth, rng):
        return [truth.grasp_outcome] * 4

    def slip_stream(self, truth, rng):
        cfg = ScenarioConfig(slip_noise_std=0.0)
        traj = gen_slip_trajectory(cfg, truth.slip_outcome, rng)
        return [SlipLabel(v) for v in build_windows(traj.frames, traj.labels).y.tolist()]
