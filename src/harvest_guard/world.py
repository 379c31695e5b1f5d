"""Synthetic world: injected faults, noisy approaches, feature curves.

Everything here is generation. Given a scenario config and a seed it
produces positional errors with actuation/vision noise, gripper-content
observations per injected class, slip feature trajectories whose curves
mimic the recorded slip process (area roughly constant while held, linear
decay plus center drift while slipping, near-zero area once gone), and
whole datasets with exact per-class window counts.

Determinism contract: every episode or trajectory draws from its own
generator seeded by (master seed, index), so outputs are byte-identical
across runs and independent of scheduling.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, open_text, require_finite
from .fsm import ApproachOutcome, EpisodeTruth, HarvestEpisode, advance, episode_cycle
from .fsm import run_episode  # noqa: F401  not called here; perfbench traces world.run_episode
from .geometry import CompensationParams, compensated_point, needs_compensation
from .grasp import GRASP_FEATURES, GraspClass, GraspModel, classify_grasp, write_grasp_csv
from .lstm import SlipModel, predict_proba
from .slip_decision import classify_slip
from .slip_windows import (
    FEATURE_ORDER, LOOKAHEAD, WINDOW_LEN, SlipLabel, build_windows, first_bad_frame, frame_windows, write_slip_csv
)

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic world; defaults give a plausible orchard."""

    episodes: int = 100
    master_seed: int = 1

    # approach: injected positional error and the two noise sources, mm
    error_mean_x_mm: float = 12.0
    error_mean_y_mm: float = 8.0
    error_std_x_mm: float = 6.0
    error_std_y_mm: float = 5.0
    actuation_noise_std_mm: float = 3.0
    vision_noise_std_mm: float = 2.0

    # grasp outcome mix and observation noise
    p_ripe: float = 0.8
    p_empty: float = 0.1
    p_unripe: float = 0.1
    grasp_noise_scale: float = 1.0
    grasp_frames: int = 4

    # slip outcome mix and trajectory shape
    p_slip_normal: float = 0.7
    p_slipping: float = 0.15
    p_slipped: float = 0.15
    slip_initial_area: float = 0.30
    slip_decay_rate: float = 0.02
    frames_normal: int = 6
    frames_slipping: int = 4
    frames_slipped: int = 4
    slip_noise_std: float = 0.004

    def __post_init__(self) -> None:
        require_finite(**{k: v for k, v in vars(self).items() if isinstance(v, float)})
        if self.episodes < 0:
            raise ValidationError(f"episodes must be non-negative, got {self.episodes}")
        for name in (
            "error_std_x_mm",
            "error_std_y_mm",
            "actuation_noise_std_mm",
            "vision_noise_std_mm",
            "grasp_noise_scale",
            "slip_noise_std",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        for triple, names in (
            ((self.p_ripe, self.p_empty, self.p_unripe), "grasp probabilities"),
            ((self.p_slip_normal, self.p_slipping, self.p_slipped), "slip probabilities"),
        ):
            if any(p < 0 for p in triple):
                raise ValidationError(f"{names} must be non-negative, got {triple}")
            if abs(sum(triple) - 1.0) > PROB_SUM_TOL:
                raise ValidationError(f"{names} must sum to 1 +/- {PROB_SUM_TOL}, got {sum(triple)}")
        if not (0.0 < self.slip_initial_area <= 0.5):
            raise ValidationError(f"slip_initial_area must lie in (0, 0.5], got {self.slip_initial_area}")
        if self.slip_decay_rate <= 0:
            raise ValidationError(f"slip_decay_rate must be > 0, got {self.slip_decay_rate}")
        for name in ("frames_normal", "frames_slipping", "frames_slipped", "grasp_frames"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")


# INI layout: section -> {key: attribute}
_CONFIG_SCHEMA: dict[str, dict[str, str]] = {
    "simulation": {"episodes": "episodes", "master_seed": "master_seed"},
    "approach": {
        "error_mean_x_mm": "error_mean_x_mm",
        "error_mean_y_mm": "error_mean_y_mm",
        "error_std_x_mm": "error_std_x_mm",
        "error_std_y_mm": "error_std_y_mm",
        "actuation_noise_std_mm": "actuation_noise_std_mm",
        "vision_noise_std_mm": "vision_noise_std_mm",
    },
    "grasp": {
        "p_ripe": "p_ripe",
        "p_empty": "p_empty",
        "p_unripe": "p_unripe",
        "noise_scale": "grasp_noise_scale",
        "frames": "grasp_frames",
    },
    "slip": {
        "p_normal": "p_slip_normal",
        "p_slipping": "p_slipping",
        "p_slipped": "p_slipped",
        "initial_area": "slip_initial_area",
        "decay_rate": "slip_decay_rate",
        "frames_normal": "frames_normal",
        "frames_slipping": "frames_slipping",
        "frames_slipped": "frames_slipped",
        "feature_noise_std": "slip_noise_std",
    },
}


def load_config(path: str | Path) -> ScenarioConfig:
    """Read an INI scenario file; missing keys keep their defaults,
    unknown keys are rejected."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    with open_text(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValidationError(f"{path}: not an INI file: {str(exc).splitlines()[0]}") from exc
    # configparser hides [DEFAULT] from sections() and copies its keys into
    # every other section, so reject them here or they load as nothing
    for key in parser.defaults():
        raise ValidationError(f"{path}: unknown key {key!r} in [DEFAULT]")
    kwargs: dict[str, object] = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ValidationError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise ValidationError(f"{path}: unknown key {key!r} in [{section}]")
            attr = _CONFIG_SCHEMA[section][key]
            try:
                kwargs[attr] = int(raw) if isinstance(getattr(ScenarioConfig, attr), int) else float(raw)
            except ValueError as exc:
                raise ValidationError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    return ScenarioConfig(**kwargs)


def save_config(path: str | Path, config: ScenarioConfig) -> None:
    parser = configparser.ConfigParser()
    for section, keys in _CONFIG_SCHEMA.items():
        parser[section] = {}
        for key, attr in keys.items():
            value = getattr(config, attr)
            parser[section][key] = str(value)
    path = Path(path)
    with path.open("w") as fh:
        parser.write(fh)


def episode_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-episode generator; independent of how many episodes ran before."""
    return np.random.default_rng([master_seed, index])


# --- slip trajectories --------------------------------------------------

@dataclass(frozen=True, eq=False)
class SlipTrajectory:
    """(n, 7) float64 frames in FEATURE_ORDER and their (n,) int64 labels."""

    frames: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.frames.shape != (len(self.labels), len(FEATURE_ORDER)):
            raise ValidationError(f"frames must have shape ({len(self.labels)}, {len(FEATURE_ORDER)})")
        bad = first_bad_frame(self.frames)
        if bad is not None:
            raise ValidationError(bad[1])
        labels = self.labels.tolist()
        if labels != sorted(labels):
            raise ValidationError("slip severity may never decrease within a trajectory")


# base geometry of the visible strawberry box
_GRIPPER_AREA = 0.35
_BOX_W, _BOX_H = 0.28, 0.30
_CENTER_X, _CENTER_Y = 0.50, 0.45
_Y_DRIFT_PER_FRAME = 0.02
_GONE_AREA = 0.005
_MIN_AREA = 0.01
# a drop builds up before its annotated onset; the last few pre-slip
# frames creep at a rising fraction of the full rate
_PRE_SLIP_FRAMES = 3
# an irrecoverable drop pulls away faster than a recoverable slip
_DROP_ACCEL = 3.0


# the jittered features, in draw order s, g, w, h, x, y: their columns in
# FEATURE_ORDER and their clamp bounds; background_area is derived
_NOISY_COLS = [0, 1, 3, 4, 5, 6]
_NOISY_LO = np.array([0.001, 0.05, 0.0, 0.0, 0.0, 0.0])
_NOISY_HI = np.array([0.60, 0.60, 1.0, 1.0, 1.0, 1.0])
# a slipped frame: the fruit is gone and nothing is jittered
_GONE_ROW = (_GONE_AREA, _GRIPPER_AREA, 0.0, 0.0, 0.0, 0.0)


@functools.lru_cache(maxsize=64)
def _slip_curve(initial_area: float, decay_rate: float, phases: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The noise-free (n_moving, 6) curve, one (s, g, w, h, x, y) row per
    moving (normal or slipping) frame, and the (n,) int64 phase labels.

    When a fault phase follows, the tail of the normal phase already
    creeps (fractional area decay plus downward drift). Window labels
    look ahead of the frames they cover, so the pre-onset cue is what
    makes them predictable at all. A curve that ends in slipped frames
    moves _DROP_ACCEL times as fast. Both arrays are shared between calls
    and read-only.
    """
    n_normal, n_slipping, n_slipped = phases
    accel = _DROP_ACCEL if n_slipped else 1.0

    def moved(area: float, y: float, frac: float) -> tuple[float, float]:
        area = max(_MIN_AREA, area - decay_rate * accel * frac)
        y = min(1.0, y + _Y_DRIFT_PER_FRAME * accel * frac)
        return area, y

    rows: list[tuple[float, ...]] = []
    area, y = initial_area, _CENTER_Y
    ramp = min(_PRE_SLIP_FRAMES, n_normal) if (n_slipping or n_slipped) else 0
    for i in range(n_normal + n_slipping):
        left = n_normal - i
        if left <= 0:
            area, y = moved(area, y, 1.0)
        elif ramp and left <= ramp:
            area, y = moved(area, y, (ramp - left + 1) / ramp)
        scale = math.sqrt(max(area, 0.0) / initial_area)
        rows.append((area, _GRIPPER_AREA, _BOX_W * scale, _BOX_H * scale, _CENTER_X, y))
    curve = np.array(rows).reshape(len(rows), 6)
    labels = np.repeat(np.arange(len(SlipLabel), dtype=np.int64), phases)
    curve.flags.writeable = labels.flags.writeable = False
    return curve, labels


def _trajectory(config: ScenarioConfig, phases: tuple[int, int, int], rng: np.random.Generator) -> SlipTrajectory:
    """Curve generator over (normal, slipping, slipped) phase lengths.

    The noise-free curve comes from _slip_curve, computed once per
    (config, phases). The moving frames then take their feature
    noise from one (n_moving, 6) normal draw in column order s, g, w, h,
    x, y; slipped frames and zero noise draw nothing.
    """
    curve, labels = _slip_curve(config.slip_initial_area, config.slip_decay_rate, phases)
    noise = config.slip_noise_std
    moving = curve + rng.normal(0.0, noise, size=curve.shape) if noise > 0 else curve

    n_moving = len(curve)
    features = np.empty((len(labels), len(FEATURE_ORDER)))
    features[:n_moving, _NOISY_COLS] = np.minimum(_NOISY_HI, np.maximum(_NOISY_LO, moving))
    features[n_moving:, _NOISY_COLS] = _GONE_ROW
    features[:, 2] = 1.0 - features[:, 0] - features[:, 1]
    return SlipTrajectory(features, labels)


def gen_slip_trajectory(
    config: ScenarioConfig,
    outcome: SlipLabel,
    rng: np.random.Generator,
) -> SlipTrajectory:
    """One snap-off observation sequence for the requested outcome class.

    All outcomes share the same total length, so downstream window counts
    match. A slipped outcome passes through exactly one slipping frame,
    reflecting how abruptly an actual drop shows up at the frame rate.
    """
    total = config.frames_normal + config.frames_slipping + config.frames_slipped
    if outcome is SlipLabel.NORMAL:
        return _trajectory(config, (total, 0, 0), rng)
    if outcome is SlipLabel.SLIPPING:
        return _trajectory(config, (config.frames_normal, total - config.frames_normal, 0), rng)
    if outcome is SlipLabel.SLIPPED:
        return _trajectory(config, (config.frames_normal, 1, total - config.frames_normal - 1), rng)
    raise ValidationError(f"unknown slip outcome {outcome!r}")


# --- grasp observations --------------------------------------------------

# class-conditional (mean, std, lo, hi) of red, green and area, in draw
# order; red/green clipped into disjoint bands so the classes stay
# linearly separable at any noise scale
_GRASP_BANDS = {
    GraspClass.RIPE_HELD: np.array([(0.62, 0.05, 0.35, 0.90), (0.06, 0.02, 0.0, 0.20), (0.50, 0.05, 0.20, 0.80)]),
    GraspClass.UNRIPE_HELD: np.array([(0.05, 0.02, 0.0, 0.20), (0.55, 0.05, 0.35, 0.90), (0.45, 0.05, 0.20, 0.80)]),
}
_EMPTY_STD, _EMPTY_MAX = 0.02, 0.15  # an empty gripper sees small |noise| specks


def gen_grasp_observations(
    outcome: GraspClass, n: int, rng: np.random.Generator, noise_scale: float = 1.0
) -> np.ndarray:
    """n gripper frames of one grasp outcome as an (n, 4) array in
    GRASP_FEATURES order.

    The red, green and area columns come from one (n, 3) normal draw, row
    by row. A held fruit draws even at noise_scale 0; an empty gripper
    then draws nothing and sees all zeros.
    """
    x = np.zeros((n, len(GRASP_FEATURES)))
    if outcome is GraspClass.EMPTY:
        if noise_scale != 0.0:
            x[:, :3] = np.minimum(_EMPTY_MAX, np.abs(rng.normal(0.0, _EMPTY_STD * noise_scale, size=(n, 3))))
        return x
    mean, std, lo, hi = _GRASP_BANDS[outcome].T
    x[:, :3] = np.minimum(hi, np.maximum(lo, rng.normal(mean, std * noise_scale, size=(n, 3))))
    x[:, 3] = 1.0
    return x


def sample_grasp_dataset(
    counts: tuple[int, int, int], seed: int, noise_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """counts = (ripe, empty, unripe) observations as an (n, 4) array and
    (n,) int64 labels, grouped by class; deterministic per seed."""
    if any(c < 0 for c in counts):
        raise ValidationError(f"counts must be non-negative, got {counts}")
    x = np.concatenate([
        gen_grasp_observations(cls, n, np.random.default_rng([seed, int(cls)]), noise_scale)
        for cls, n in zip(GraspClass, counts)
    ])
    return x, np.repeat(np.arange(len(GraspClass), dtype=np.int64), counts)


# --- approach simulation --------------------------------------------------

# nominal picking point (x, y) in arm coordinates, mm; residuals do not
# depend on its location
NOMINAL_PICKING_POINT = (400.0, 300.0)


def simulate_approach(
    config: ScenarioConfig,
    params: CompensationParams,
    rng: np.random.Generator,
    injected_error: tuple[float, float],
) -> ApproachOutcome:
    """One noisy approach with optional correction.

    The arm aims at the picking point but lands offset by the injected
    error plus actuation noise; vision measures the offset with its own
    noise; if the measured error trips the threshold the arm re-aims at
    the compensated point (fresh actuation noise). The residual is the
    true point minus where the effector finally sits, per axis. Errors
    are (dx, dy) pairs, picking point minus effector.
    """
    px, py = NOMINAL_PICKING_POINT
    ex, ey = injected_error
    act = config.actuation_noise_std_mm
    vis = config.vision_noise_std_mm
    a1x, a1y = rng.normal(0.0, act, size=2).tolist() if act > 0 else (0.0, 0.0)
    e1x = px - ex + a1x
    e1y = py - ey + a1y
    require_finite(x=e1x, y=e1y)
    v_x, v_y = rng.normal(0.0, vis, size=2).tolist() if vis > 0 else (0.0, 0.0)
    dx, dy = (px - e1x) + v_x, (py - e1y) + v_y
    require_finite(dx=dx, dy=dy)

    if not needs_compensation(dx, dy, params):
        return ApproachOutcome((dx, dy), False, ex - a1x, ey - a1y)

    tx, ty = compensated_point(px, py, dx, dy, params)
    a2x, a2y = rng.normal(0.0, act, size=2).tolist() if act > 0 else (0.0, 0.0)
    e2x = tx - ex + a2x
    e2y = ty - ey + a2y
    require_finite(x=e2x, y=e2y)
    return ApproachOutcome((dx, dy), True, px - e2x, py - e2y)


# --- dataset generation ---------------------------------------------------

def plan_slip_trajectories(
    config: ScenarioConfig, targets: tuple[int, int, int]
) -> list[tuple[int, int, int]]:
    """Phase plans whose window yields hit the target label counts exactly.

    A window plus its lookahead spans lead = WINDOW_LEN + LOOKAHEAD - 1
    frames past its first one. A trajectory of `lead` normal frames
    followed by k fault frames yields exactly k windows of that fault
    label (the lookahead promotes every window); a pure normal run of
    lead+m frames yields m normal windows. Targets are chunked to the
    configured phase sizes.
    """
    n_normal, n_slipping, n_slipped = targets
    if min(targets) < 0:
        raise ValidationError(f"targets must be non-negative, got {targets}")
    lead = WINDOW_LEN + LOOKAHEAD - 1
    plans: list[tuple[int, int, int]] = []
    chunk_fault = config.frames_slipping + config.frames_slipped
    for target, kind in ((n_slipping, "slipping"), (n_slipped, "slipped")):
        full, rest = divmod(target, chunk_fault)
        sizes = [chunk_fault] * full + ([rest] if rest else [])
        for k in sizes:
            plans.append((lead, k, 0) if kind == "slipping" else (lead, 0, k))
    chunk_normal = config.frames_normal + config.frames_slipping + config.frames_slipped - lead
    chunk_normal = max(chunk_normal, 1)
    full, rest = divmod(n_normal, chunk_normal)
    plans.extend([(lead + chunk_normal, 0, 0)] * full)
    if rest:
        plans.append((lead + rest, 0, 0))
    return plans


def gen_slip_dataset(
    path: str | Path,
    config: ScenarioConfig,
    targets: tuple[int, int, int],
    seed: int,
) -> None:
    """SlipData CSV whose per-label window counts equal `targets` exactly."""
    plans = plan_slip_trajectories(config, targets)
    episodes = []
    for i, phases in enumerate(plans):
        traj = _trajectory(config, phases, episode_rng(seed, i))
        episodes.append((i, traj.frames, traj.labels))
    write_slip_csv(path, episodes)


def gen_grasp_dataset(
    path: str | Path,
    config: ScenarioConfig,
    counts: tuple[int, int, int],
    seed: int,
) -> None:
    """GraspData CSV with exactly `counts` = (ripe, empty, unripe) rows."""
    write_grasp_csv(path, *sample_grasp_dataset(counts, seed, config.grasp_noise_scale))


# --- the episode world ----------------------------------------------------

_GRASP_ORDER = (GraspClass.RIPE_HELD, GraspClass.EMPTY, GraspClass.UNRIPE_HELD)
_SLIP_ORDER = (SlipLabel.NORMAL, SlipLabel.SLIPPING, SlipLabel.SLIPPED)


def _choice_cdf(p: tuple[float, float, float]) -> np.ndarray:
    """The normalised cumulative weights Generator.choice searches."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


class EpisodeWorld:
    """Bundles generation and (optional) learned perception for episodes.

    Without models, the monitors see ground truth: the grasp stream
    repeats the injected class and the slip stream replays the window
    labels a perfect predictor would emit. With models attached, streams
    come from the classifiers instead.

    The slip phases must yield a window, or the slip monitor never fires:
    WINDOW_LEN + LOOKAHEAD frames for ground truth, WINDOW_LEN for a model.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        slip_model: SlipModel | None = None,
        grasp_model: GraspModel | None = None,
    ) -> None:
        frames = config.frames_normal + config.frames_slipping + config.frames_slipped
        need = WINDOW_LEN if slip_model is not None else WINDOW_LEN + LOOKAHEAD
        if frames < need:
            raise ValidationError(f"slip phases total {frames} frames; the slip monitor needs at least {need}")
        self.config = config
        self.slip_model = slip_model
        self.grasp_model = grasp_model
        self._grasp_cdf = _choice_cdf((config.p_ripe, config.p_empty, config.p_unripe))
        self._slip_cdf = _choice_cdf((config.p_slip_normal, config.p_slipping, config.p_slipped))
        self._params = CompensationParams()
        self._truth_windows: dict[SlipLabel, tuple[SlipLabel, ...]] = {}

    def sample_truth(self, rng: np.random.Generator) -> EpisodeTruth:
        ex = float(rng.normal(self.config.error_mean_x_mm, self.config.error_std_x_mm))
        ey = float(rng.normal(self.config.error_mean_y_mm, self.config.error_std_y_mm))
        require_finite(dx=ex, dy=ey)
        # one uniform per class, searched as Generator.choice(3, p=...) does
        grasp = _GRASP_ORDER[self._grasp_cdf.searchsorted(rng.random(), side="right")]
        slip = _SLIP_ORDER[self._slip_cdf.searchsorted(rng.random(), side="right")]
        return EpisodeTruth((ex, ey), grasp, slip)

    def approach(self, truth: EpisodeTruth, rng: np.random.Generator) -> ApproachOutcome:
        return simulate_approach(self.config, self._params, rng, truth.positional_error)

    def grasp_stream(self, truth: EpisodeTruth, rng: np.random.Generator) -> list[GraspClass]:
        if self.grasp_model is None:
            return [truth.grasp_outcome] * self.config.grasp_frames
        x = gen_grasp_observations(truth.grasp_outcome, self.config.grasp_frames, rng, self.config.grasp_noise_scale)
        return classify_grasp(self.grasp_model, x)

    def _truth_stream(self, outcome: SlipLabel, traj: SlipTrajectory) -> tuple[SlipLabel, ...]:
        """The window labels a perfect predictor emits for an outcome. They
        depend only on the trajectory's labels, which the outcome fixes, so
        the first trajectory of each outcome computes them."""
        if outcome not in self._truth_windows:
            y = build_windows(traj.frames, traj.labels).y
            self._truth_windows[outcome] = tuple(_SLIP_ORDER[v] for v in y.tolist())
        return self._truth_windows[outcome]

    def slip_stream(self, truth: EpisodeTruth, rng: np.random.Generator) -> list[SlipLabel]:
        return self.slip_streams([(truth, rng)])[0]

    def slip_streams(self, requests: list[tuple[EpisodeTruth, np.random.Generator]]) -> list[list[SlipLabel]]:
        """The slip labels of many episodes at snap-off. Each request draws
        its trajectory from its own generator, in order; a model then runs
        one forward (none for no requests) over the (E, B, T, D) stack of
        their windows, which equal trajectory lengths make rectangular."""
        trajs = [gen_slip_trajectory(self.config, truth.slip_outcome, rng) for truth, rng in requests]
        if self.slip_model is None or not trajs:
            return [list(self._truth_stream(truth.slip_outcome, t)) for (truth, _), t in zip(requests, trajs)]
        n_windows = len(trajs[0].frames) - WINDOW_LEN + 1
        probs = predict_proba(self.slip_model, np.stack([frame_windows(t.frames, n_windows) for t in trajs]))
        labels = classify_slip(probs.reshape(-1, probs.shape[-1]))
        return [labels[k : k + n_windows] for k in range(0, len(labels), n_windows)]


EPISODE_CHUNK = 32  # episodes per stacked slip forward, half on each thread; 16 is slower, 48-128 no faster


def run_episodes(
    world: EpisodeWorld,
    n_episodes: int,
    deterministic: bool = False,
    *,
    master_seed: int,
) -> list[HarvestEpisode]:
    """n episodes with per-episode derived seeds; order-independent. Equal
    to run_episode per episode, but each chunk's cycles walk to snap-off,
    one slip_streams call perceives them all, then each cycle finishes."""
    episodes: list[HarvestEpisode] = []
    for start in range(0, n_episodes, EPISODE_CHUNK):
        ids = range(start, min(start + EPISODE_CHUNK, n_episodes))
        rngs = [episode_rng(master_seed, i) for i in ids]
        cycles = [episode_cycle(world, rng, deterministic, i) for i, rng in zip(ids, rngs)]
        stops = [advance(cycle) for cycle in cycles]
        waiting = [k for k, stop in enumerate(stops) if isinstance(stop, EpisodeTruth)]
        for k, slip in zip(waiting, world.slip_streams([(stops[k], rngs[k]) for k in waiting])):
            stops[k] = advance(cycles[k], slip)
        episodes.extend(stops)
    return episodes
