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

import bisect
import configparser
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator, NamedTuple

import numpy as np

from .errors import ValidationError, open_text, require_finite
from .fsm import ApproachOutcome, EpisodeTruth, HarvestEpisode, advance, episode_cycle
from .fsm import run_episode  # noqa: F401  not called here; perfbench traces world.run_episode
from .geometry import CompensationParams, compensated_point, needs_compensation
from .grasp import GRASP_FEATURES, GraspClass, GraspModel, classify_grasp, write_grasp_csv
from .lstm import SlipModel, predict_proba
from .slip_decision import classify_slip
from .slip_windows import (
    FEATURE_ORDER, LOOKAHEAD, WINDOW_LEN, SlipLabel, build_windows, frame_windows, write_slip_csv
)

PROB_SUM_TOL = 1e-9
MAX_FRAMES = 1000  # per frame count; a huge count would exhaust memory building per-frame lists
# the most items one command generates: simulate's episodes (streamed a chunk
# at a time; the summary keeps each one's total), gen-data's per-class counts
MAX_COUNT = 1_000_000
MAX_MM = 1000  # the largest approach error mean or spread: 1 m, past the arm's reach; keeps every draw finite


def _ini(section: str, default: float, *, key: str | None = None, least: float | None = None,
         above: float | None = None, most: float | None = None) -> Any:
    """A ScenarioConfig field: its default, the INI [section] and key (the
    field name unless given) it loads from, and its bounds: `least` and
    `most` inclusive, `above` exclusive."""
    return field(default=default, metadata={"section": section, "key": key, "least": least, "above": above, "most": most})


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic world; defaults give a plausible orchard.
    Fields are in INI file order."""

    episodes: int = _ini("simulation", 100, least=0, most=MAX_COUNT)
    master_seed: int = _ini("simulation", 1)

    # approach: injected positional error and the two noise sources, mm
    error_mean_x_mm: float = _ini("approach", 12.0, least=-MAX_MM, most=MAX_MM)
    error_mean_y_mm: float = _ini("approach", 8.0, least=-MAX_MM, most=MAX_MM)
    error_std_x_mm: float = _ini("approach", 6.0, least=0, most=MAX_MM)
    error_std_y_mm: float = _ini("approach", 5.0, least=0, most=MAX_MM)
    actuation_noise_std_mm: float = _ini("approach", 3.0, least=0, most=MAX_MM)
    vision_noise_std_mm: float = _ini("approach", 2.0, least=0, most=MAX_MM)

    # grasp outcome mix and observation noise
    p_ripe: float = _ini("grasp", 0.8, least=0)
    p_empty: float = _ini("grasp", 0.1, least=0)
    p_unripe: float = _ini("grasp", 0.1, least=0)
    grasp_noise_scale: float = _ini("grasp", 1.0, key="noise_scale", least=0)
    grasp_frames: int = _ini("grasp", 4, key="frames", least=1, most=MAX_FRAMES)

    # slip outcome mix and trajectory shape
    p_slip_normal: float = _ini("slip", 0.7, key="p_normal", least=0)
    p_slipping: float = _ini("slip", 0.15, least=0)
    p_slipped: float = _ini("slip", 0.15, least=0)
    slip_initial_area: float = _ini("slip", 0.30, key="initial_area", above=0, most=0.5)
    slip_decay_rate: float = _ini("slip", 0.02, key="decay_rate", above=0)
    frames_normal: int = _ini("slip", 6, least=1, most=MAX_FRAMES)
    frames_slipping: int = _ini("slip", 4, least=1, most=MAX_FRAMES)
    frames_slipped: int = _ini("slip", 4, least=1, most=MAX_FRAMES)
    slip_noise_std: float = _ini("slip", 0.004, key="feature_noise_std", least=0)

    def __post_init__(self) -> None:
        require_finite(**{k: v for k, v in vars(self).items() if isinstance(v, float)})
        for f in fields(self):
            value, bounds = getattr(self, f.name), f.metadata
            if bounds["least"] is not None and value < bounds["least"]:
                raise ValidationError(f"{f.name} must be >= {bounds['least']}, got {value}")
            if bounds["above"] is not None and value <= bounds["above"]:
                raise ValidationError(f"{f.name} must be > {bounds['above']}, got {value}")
            if bounds["most"] is not None and value > bounds["most"]:
                raise ValidationError(f"{f.name} must be <= {bounds['most']}, got {value}")
        for triple, names in (
            ((self.p_ripe, self.p_empty, self.p_unripe), "grasp probabilities"),
            ((self.p_slip_normal, self.p_slipping, self.p_slipped), "slip probabilities"),
        ):
            if abs(sum(triple) - 1.0) > PROB_SUM_TOL:
                raise ValidationError(f"{names} must sum to 1 +/- {PROB_SUM_TOL}, got {sum(triple)}")


# INI layout: section -> {key: attribute}, in field order; each section's
# fields are adjacent, so one groupby pass finds them
_CONFIG_SCHEMA: dict[str, dict[str, str]] = {
    section: {f.metadata["key"] or f.name: f.name for f in group}
    for section, group in itertools.groupby(fields(ScenarioConfig), lambda f: f.metadata["section"])
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


# --- a chunk's episode generators in one SeedSequence pass ---------------
#
# numpy's default_rng of a [seed, id] list hashes its entropy words (the
# seed's little-endian 32-bit words, then the id) into a 4-word uint32
# pool, and PCG64 seeds itself from generate_state(4, uint64) of that
# pool. episode_rngs runs the same uint32 arithmetic (numpy's SeedSequence)
# on arrays holding every id of a chunk. Array ops wrap modulo 2**32
# silently; numpy scalar-by-scalar products would warn instead, so every
# product here has an array operand.

ID_LIMIT = 2**32  # episode ids stay one entropy word
_POOL = 4
_OTHERS = np.array([[d for d in range(_POOL) if d != s] for s in range(_POOL)])  # each source word's destinations
_XSHIFT = 16
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..calls, as uint32: hash call k
    xors with entry k and multiplies by entry k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    consts = np.array(out, dtype=np.uint32)
    consts.flags.writeable = False  # every caller shares it
    return consts


_STATE_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's 8 uint32 words


def _hashmix(value: np.ndarray, xor: Any, mul: Any) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _XSHIFT
    return out


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 its 4 precomputed seed words; it has no spawn."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}")
        return self.words


def _check_ids(ids: range) -> None:
    if ids and not (min(ids[0], ids[-1]) >= 0 and max(ids[0], ids[-1]) < ID_LIMIT):
        raise ValidationError(f"episode ids must lie in [0, 2**32), got {ids[0]} to {ids[-1]}")


def episode_rngs(master_seed: int, ids: range) -> list[np.random.Generator]:
    """The generators of ids in [0, 2**32), each with the state of default_rng
    of [master_seed, id], from one SeedSequence pass; every per-item stream comes from here."""
    _check_ids(ids)
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    seed_words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"), "<u4")
    entropy = np.zeros((max(len(seed_words) + 1, _POOL), len(ids)), dtype=np.uint32)
    entropy[: len(seed_words)] = seed_words[:, None]
    entropy[len(seed_words)] = np.arange(ids.start, ids.stop, ids.step, dtype=np.uint32)
    # 4 pool fills, 12 cross-mixes, then 4 mixes per word past the pool;
    # numpy mixes one destination word at a time, but each round's
    # destinations read only their own word and the source, so they run
    # as one block, with consecutive hash constants
    a = _hash_consts(0x43B0D7E5, 0x931E8875, 16 + _POOL * (len(entropy) - _POOL))[:, None]
    pool = _hashmix(entropy[:_POOL], a[:_POOL], a[1 : _POOL + 1])
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k : k + 3], a[k + 1 : k + 4]))
        k += 3
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[k : k + _POOL], a[k + 1 : k + _POOL + 1]))
        k += _POOL
    state = _hashmix(np.concatenate([pool, pool]), _STATE_B[:-1, None], _STATE_B[1:, None])
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]


# --- slip trajectories --------------------------------------------------

class SlipTrajectory(NamedTuple):
    """(n, 7) float64 frames in FEATURE_ORDER and their (n,) int64 labels, which never decrease."""

    frames: np.ndarray
    labels: np.ndarray


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


# the clamp bounds of the jittered features, in draw order s, g, w, h, x,
# y: FEATURE_ORDER without background_area (column 2), which is derived
_NOISY_LO = np.array([0.001, 0.05, 0.0, 0.0, 0.0, 0.0])
_NOISY_HI = np.array([0.60, 0.60, 1.0, 1.0, 1.0, 1.0])
# a slipped frame in FEATURE_ORDER: the fruit is gone and nothing is jittered
_GONE_ROW = (_GONE_AREA, _GRIPPER_AREA, 1.0 - _GONE_AREA - _GRIPPER_AREA, 0.0, 0.0, 0.0, 0.0)


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
        scale = math.sqrt(area / initial_area)
        rows.append((area, _GRIPPER_AREA, _BOX_W * scale, _BOX_H * scale, _CENTER_X, y))
    curve = np.array(rows).reshape(len(rows), 6)
    labels = np.repeat(np.arange(len(SlipLabel), dtype=np.int64), phases)
    curve.flags.writeable = labels.flags.writeable = False
    return curve, labels


def _jittered(config: ScenarioConfig, plans: list[tuple[tuple[int, int, int], np.random.Generator]]) -> np.ndarray:
    """The clamped (s, g, w, h, x, y) moving rows of (phases, rng) plans, in
    plan order; each plan's _slip_curve takes one (n_moving, 6) normal draw
    of its own generator (none at zero noise). The clamp leaves s, g <= 0.60,
    so only background_area = 1 - s - g can leave [0, 1], an error at its
    first row; noise-free curves pass (s <= 0.5, g = 0.35 leave b >= 0.15)."""
    curves = [_slip_curve(config.slip_initial_area, config.slip_decay_rate, phases)[0] for phases, _ in plans]
    noise = config.slip_noise_std
    moving = np.concatenate(curves)
    if noise > 0:
        moving = moving + np.concatenate([rng.normal(0.0, noise, size=c.shape) for c, (_, rng) in zip(curves, plans)])
    clamped = np.minimum(_NOISY_HI, np.maximum(_NOISY_LO, moving))
    background = 1.0 - clamped[:, 0] - clamped[:, 1]
    low = background < 0.0
    if low.any():
        raise ValidationError(f"slip.feature_noise_std = {noise} pushes a frame out of the feature range: "
                              f"{FEATURE_ORDER[2]} must lie in [0, 1], got {background[low.argmax()].item()}")
    return clamped


def _frames(clamped: np.ndarray, n: int) -> np.ndarray:
    """(n, 7) frames in FEATURE_ORDER: the clamped rows, then slipped ones."""
    features = np.empty((n, len(FEATURE_ORDER)))
    moved = features[: len(clamped)]
    moved[:, :2], moved[:, 3:] = clamped[:, :2], clamped[:, 2:]
    moved[:, 2] = 1.0 - clamped[:, 0] - clamped[:, 1]
    features[len(clamped) :] = _GONE_ROW
    return features


def _trajectory(config: ScenarioConfig, phases: tuple[int, int, int], rng: np.random.Generator) -> SlipTrajectory:
    """The frames of one (normal, slipping, slipped) plan; _jittered's check keeps them in the feature range."""
    labels = _slip_curve(config.slip_initial_area, config.slip_decay_rate, phases)[1]
    return SlipTrajectory(_frames(_jittered(config, [(phases, rng)]), len(labels)), labels)


def _phases(config: ScenarioConfig, outcome: SlipLabel) -> tuple[int, int, int]:
    """An outcome's (normal, slipping, slipped) frame counts. All share one
    total, so window counts match; a drop shows as abruptly as an actual one
    at the frame rate, with exactly one slipping frame."""
    if not isinstance(outcome, SlipLabel):
        raise ValidationError(f"unknown slip outcome {outcome!r}")
    n, total = config.frames_normal, config.frames_normal + config.frames_slipping + config.frames_slipped
    return ((total, 0, 0), (n, total - n, 0), (n, 1, total - n - 1))[outcome]


def gen_slip_trajectory(config: ScenarioConfig, outcome: SlipLabel, rng: np.random.Generator) -> SlipTrajectory:
    """One snap-off observation sequence for the requested outcome class."""
    return _trajectory(config, _phases(config, outcome), rng)


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
        gen_grasp_observations(cls, n, rng, noise_scale)
        for cls, n, rng in zip(GraspClass, counts, episode_rngs(seed, range(len(GraspClass))))
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
    act, vis = config.actuation_noise_std_mm, config.vision_noise_std_mm
    # the actuation pair, then the vision pair, each drawn only when its std
    # is not 0, in one block: 0.0 + std * z is bit for bit what
    # rng.normal(0.0, std, size=2) returns
    z = rng.standard_normal(2 * (act > 0) + 2 * (vis > 0)).tolist()
    a1x, a1y = (0.0 + act * z[0], 0.0 + act * z[1]) if act > 0 else (0.0, 0.0)
    v_x, v_y = (0.0 + vis * z[-2], 0.0 + vis * z[-1]) if vis > 0 else (0.0, 0.0)
    e1x = px - ex + a1x
    e1y = py - ey + a1y
    require_finite(x=e1x, y=e1y)
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


def gen_slip_dataset(path: str | Path, config: ScenarioConfig, targets: tuple[int, int, int], seed: int) -> None:
    """SlipData CSV whose per-label window counts equal `targets` exactly;
    trajectory i draws from stream i, and each chunk is written as it is built."""
    plans = plan_slip_trajectories(config, targets)
    write_slip_csv(path, (
        (i, *_trajectory(config, plans[i], rng))
        for ids in _chunks(range(len(plans))) for i, rng in zip(ids, episode_rngs(seed, ids))
    ))


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


def _choice_cdf(p: tuple[float, float, float]) -> list[float]:
    """The normalised cumulative weights Generator.choice searches."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


class EpisodeWorld:
    """Bundles generation and (optional) learned perception for episodes.

    Without models, the monitors see ground truth: the grasp stream
    repeats the injected class and the slip stream replays the window
    labels a perfect predictor would emit, from the noise-free curve, while
    each snap-off still draws its noise and checks its background area.
    With models attached, streams come from the classifiers instead.

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
        cfg = self.config
        # mean + std * z is bit for bit what rng.normal(mean, std) returns
        z_x, z_y = rng.standard_normal(2).tolist()
        # one uniform per class, searched as Generator.choice(3, p=...) does
        u_grasp, u_slip = rng.random(2).tolist()
        return EpisodeTruth(
            (cfg.error_mean_x_mm + cfg.error_std_x_mm * z_x, cfg.error_mean_y_mm + cfg.error_std_y_mm * z_y),
            _GRASP_ORDER[bisect.bisect_right(self._grasp_cdf, u_grasp)],
            _SLIP_ORDER[bisect.bisect_right(self._slip_cdf, u_slip)],
        )

    def approach(self, truth: EpisodeTruth, rng: np.random.Generator) -> ApproachOutcome:
        return simulate_approach(self.config, self._params, rng, truth.positional_error)

    def grasp_stream(self, truth: EpisodeTruth, rng: np.random.Generator) -> list[GraspClass]:
        if self.grasp_model is None:
            return [truth.grasp_outcome] * self.config.grasp_frames
        x = gen_grasp_observations(truth.grasp_outcome, self.config.grasp_frames, rng, self.config.grasp_noise_scale)
        return classify_grasp(self.grasp_model, x)

    def _truth_stream(self, outcome: SlipLabel) -> tuple[SlipLabel, ...]:
        """The window labels a perfect predictor emits for an outcome; they depend
        only on its phase labels, so its first request builds them, drawing nothing."""
        if outcome not in self._truth_windows:
            cfg = self.config
            curve, labels = _slip_curve(cfg.slip_initial_area, cfg.slip_decay_rate, _phases(cfg, outcome))
            y = build_windows(_frames(curve, len(labels)), labels).y
            self._truth_windows[outcome] = tuple(_SLIP_ORDER[v] for v in y.tolist())
        return self._truth_windows[outcome]

    def slip_stream(self, truth: EpisodeTruth, rng: np.random.Generator) -> list[SlipLabel]:
        return self.slip_streams([(truth, rng)])[0]

    def slip_streams(self, requests: list[tuple[EpisodeTruth, np.random.Generator]]) -> list[list[SlipLabel]]:
        """The slip labels of many episodes at snap-off. Each request draws
        its noise from its own generator, in order: ground truth in one
        _jittered call that builds no frames; a model over whole
        trajectories, then one forward over the (E, B, T, D) stack of their
        windows, which equal trajectory lengths make rectangular."""
        if not requests:
            return []
        if self.slip_model is None:
            _jittered(self.config, [(_phases(self.config, truth.slip_outcome), rng) for truth, rng in requests])
            return [list(self._truth_stream(truth.slip_outcome)) for truth, _ in requests]
        trajs = [gen_slip_trajectory(self.config, truth.slip_outcome, rng) for truth, rng in requests]
        n_windows = len(trajs[0].frames) - WINDOW_LEN + 1
        probs = predict_proba(self.slip_model, np.stack([frame_windows(t.frames, n_windows) for t in trajs]))
        labels = classify_slip(probs.reshape(-1, probs.shape[-1]))
        return [labels[k : k + n_windows] for k in range(0, len(labels), n_windows)]


# episodes per slip forward, and so the most episodes simulate holds at
# once. Against 32 in paired sim-learned runs on a 2-vCPU VM, while each
# episode ran its own GEMMs, 16 was slower, 64 faster in only 5 of 7 pairs
# and 128 peaked about 8 MB higher; not re-measured with blocked inference.
EPISODE_CHUNK = 32


def _chunks(ids: range) -> Iterator[range]:
    """ids in consecutive pieces of EPISODE_CHUNK."""
    return (ids[k : k + EPISODE_CHUNK] for k in range(0, len(ids), EPISODE_CHUNK))


def run_episodes(
    world: EpisodeWorld,
    n_episodes: int,
    deterministic: bool = False,
    *,
    master_seed: int,
    first: int = 0,
) -> list[HarvestEpisode]:
    """n episodes, ids first to first + n - 1, with per-episode derived
    seeds; order-independent. Equal to run_episode per episode, but each
    chunk's cycles walk to snap-off, one slip_streams call perceives them
    all, then each cycle finishes. Ids must lie in [0, 2**32); a run that
    would pass that raises before it draws anything."""
    episodes: list[HarvestEpisode] = []
    end = first + n_episodes
    _check_ids(range(first, end))
    for ids in _chunks(range(first, end)):
        rngs = episode_rngs(master_seed, ids)
        cycles = [episode_cycle(world, rng, deterministic, i) for i, rng in zip(ids, rngs)]
        stops = [advance(cycle) for cycle in cycles]
        waiting = [k for k, stop in enumerate(stops) if isinstance(stop, EpisodeTruth)]
        for k, slip in zip(waiting, world.slip_streams([(stops[k], rngs[k]) for k in waiting])):
            stops[k] = advance(cycles[k], slip)
        episodes.extend(stops)
    return episodes
