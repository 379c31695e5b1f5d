"""Eight-stage harvesting cycle with fault monitoring and recovery.

One episode walks InflatingApproaching -> [Compensation] -> Swallowing ->
Deflating -> SnapOff -> Descending -> [Placing] -> Homing. Three monitors
can redirect the walk: the approach check inserts a Compensation stage,
the grasp verifier can abort out of Deflating (skipping snap-off and
placing), and the slip monitor can either abort out of SnapOff (skipping
placing) or trigger one regrasp-and-resnap recovery.

Each stage record draws its duration from STAGE_TIMING, the paper's
measured mean and std per (stage, variant): Normal(mean, std) floored at
MIN_DURATION_S, or the mean exactly in deterministic mode. Fault
responses replace the normal duration of their stage rather than adding
to it, which is how the measured timings account for them. A slipping
recovery spends one draw across two SnapOff records: the part before
detection and the re-snap after it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Generator, Iterable, Protocol, Sequence

import numpy as np

from .errors import ValidationError, open_text
from .grasp import GraspAction, GraspClass, grasp_decision_step
from .slip_decision import RecoveryAction, first_action, time_stability_step
from .slip_windows import SlipLabel


class Stage(Enum):
    INFLATING_APPROACHING = "inflating-approaching"
    COMPENSATION = "compensation"
    SWALLOWING = "swallowing"
    DEFLATING = "deflating"
    SNAP_OFF = "snap-off"
    DESCENDING = "descending"
    PLACING = "placing"
    HOMING = "homing"


class Variant(Enum):
    NORMAL = "normal"
    EMPTY_GRASP_RESPONSE = "empty-grasp-response"
    MISGRASP_RESPONSE = "misgrasp-response"
    SLIPPING_RECOVERY = "slipping-recovery"
    SLIPPED_ABORT = "slipped-abort"


class Event(Enum):
    ALIGNED = "aligned"
    MISALIGNED = "misaligned"
    COMPENSATED = "compensated"
    SWALLOWED = "swallowed"
    GRASP_OK = "grasp-ok"
    GRASP_ABORT = "grasp-abort"
    SNAP_OK = "snap-ok"
    TWO_CONSECUTIVE_SLIPPING = "two-consecutive-slipping"
    TWO_CONSECUTIVE_SLIPPED = "two-consecutive-slipped"
    DESCENDED_WITH_FRUIT = "descended-with-fruit"
    DESCENDED_EMPTY = "descended-empty"
    PLACED = "placed"
    HOMED = "homed"


class Outcome(Enum):
    PICKED_AND_PLACED = "picked-and-placed"
    ABORTED_EMPTY_OR_MISGRASP = "aborted-empty-or-misgrasp"
    ABORTED_SLIPPED = "aborted-slipped"
    RECOVERED_AFTER_SLIP = "recovered-after-slip"


# outcomes that end with the fruit placed, so the cycle runs the placing stage
PLACING_OUTCOMES = frozenset({Outcome.PICKED_AND_PLACED, Outcome.RECOVERED_AFTER_SLIP})


# the paper's measured (mean, std) seconds of every (stage, variant) a cycle can record
STAGE_TIMING: dict[tuple[Stage, Variant], tuple[float, float]] = {
    (Stage.INFLATING_APPROACHING, Variant.NORMAL): (1.25, 0.01),
    (Stage.COMPENSATION, Variant.NORMAL): (0.71, 0.07),
    (Stage.SWALLOWING, Variant.NORMAL): (0.73, 0.00),
    (Stage.DEFLATING, Variant.NORMAL): (0.99, 0.00),
    (Stage.DEFLATING, Variant.EMPTY_GRASP_RESPONSE): (0.42, 0.04),
    (Stage.DEFLATING, Variant.MISGRASP_RESPONSE): (0.39, 0.03),
    (Stage.SNAP_OFF, Variant.NORMAL): (1.03, 0.00),
    (Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY): (1.81, 0.07),
    (Stage.SNAP_OFF, Variant.SLIPPED_ABORT): (1.44, 0.07),
    (Stage.DESCENDING, Variant.NORMAL): (0.98, 0.08),
    (Stage.PLACING, Variant.NORMAL): (4.36, 0.01),
    (Stage.HOMING, Variant.NORMAL): (1.88, 0.00),
}

MIN_DURATION_S = 0.01


@dataclass(frozen=True)
class StageRecord:
    stage: Stage
    variant: Variant
    duration_s: float
    event: Event  # the event that closed this stage
    detail: str = ""


@dataclass(frozen=True)
class EpisodeTruth:
    """What the simulator actually injected, independent of detection."""

    positional_error: tuple[float, float]  # injected (dx, dy), mm
    grasp_outcome: GraspClass
    slip_outcome: SlipLabel


@dataclass(frozen=True)
class EpisodeResponses:
    """What the monitors decided."""

    compensated: bool
    residual_x: float | None
    residual_y: float | None
    grasp_action: GraspAction
    grasp_detected: GraspClass | None
    grasp_detect_frame: int | None
    slip_action: RecoveryAction | None
    slip_detect_frame: int | None


@dataclass(frozen=True)
class HarvestEpisode:
    episode_id: int
    records: tuple[StageRecord, ...]
    truth: EpisodeTruth
    responses: EpisodeResponses
    outcome: Outcome

    def __post_init__(self) -> None:
        if not self.records or self.records[-1].stage is not Stage.HOMING:
            raise ValidationError("every episode must end with the homing stage")
        stages = [r.stage for r in self.records]
        if stages.count(Stage.COMPENSATION) > 1:
            raise ValidationError("compensation may occur at most once per cycle")
        if stages.count(Stage.PLACING) > 1:
            raise ValidationError("placing may occur at most once per cycle")
        if stages.count(Stage.SNAP_OFF) > 2:
            raise ValidationError("snap-off may occur at most twice per cycle")
        if (Stage.PLACING in stages) != (self.outcome in PLACING_OUTCOMES):
            raise ValidationError(f"placing presence inconsistent with outcome {self.outcome.value}")

    @property
    def total_s(self) -> float:
        return sum(r.duration_s for r in self.records)


class ApproachLike(Protocol):
    visual_error: tuple[float, float]  # measured (dx, dy), mm
    compensated: bool
    residual_x: float
    residual_y: float


class WorldLike(Protocol):
    """What run_episode needs from a simulation world."""

    def sample_truth(self, rng: np.random.Generator) -> EpisodeTruth: ...

    def approach(self, truth: EpisodeTruth, rng: np.random.Generator) -> ApproachLike: ...

    def grasp_stream(self, truth: EpisodeTruth, rng: np.random.Generator) -> Sequence[GraspClass]: ...

    def slip_stream(self, truth: EpisodeTruth, rng: np.random.Generator) -> Sequence[SlipLabel]: ...


def advance(cycle: Generator, labels: Sequence[SlipLabel] | None = None) -> EpisodeTruth | HarvestEpisode:
    """Run a cycle to its next stop: the truth awaiting slip labels at snap-off, or the episode."""
    try:
        return cycle.send(labels)
    except StopIteration as done:
        return done.value


def run_episode(
    world: WorldLike,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
    episode_id: int = 0,
) -> HarvestEpisode:
    """Drive one full cycle; faults become outcomes, never exceptions."""
    if rng is None:
        rng = np.random.default_rng(0)
    cycle = episode_cycle(world, rng, deterministic, episode_id)
    stop = advance(cycle)
    if isinstance(stop, EpisodeTruth):
        stop = advance(cycle, world.slip_stream(stop, rng))
    return stop


def episode_cycle(
    world: WorldLike, rng: np.random.Generator, deterministic: bool, episode_id: int
) -> Generator[EpisodeTruth, Sequence[SlipLabel], HarvestEpisode]:
    """The eight-stage walk of one episode. Unless the grasp aborts, it
    suspends once, at snap-off, to yield the truth; the caller draws the
    slip perception from the same rng and sends back its labels."""

    def draw(stage: Stage, variant: Variant) -> float:
        mean, std = STAGE_TIMING[stage, variant]
        return mean if deterministic else max(MIN_DURATION_S, float(rng.normal(mean, std)))

    records: list[StageRecord] = []

    def record(stage: Stage, variant: Variant, event: Event, detail: str = "") -> None:
        records.append(StageRecord(stage, variant, draw(stage, variant), event, detail))

    truth = world.sample_truth(rng)

    # approach; the visual check decides whether a compensation move runs
    approach = world.approach(truth, rng)
    record(
        Stage.INFLATING_APPROACHING,
        Variant.NORMAL,
        Event.MISALIGNED if approach.compensated else Event.ALIGNED,
        "visual error ({:.1f}, {:.1f}) mm".format(*approach.visual_error),
    )
    if approach.compensated:
        record(
            Stage.COMPENSATION,
            Variant.NORMAL,
            Event.COMPENSATED,
            f"residual ({approach.residual_x:.1f}, {approach.residual_y:.1f}) mm",
        )
    record(Stage.SWALLOWING, Variant.NORMAL, Event.SWALLOWED)

    # deflating: the grasp verifier watches frames until a verdict or the
    # stream ends
    frames = world.grasp_stream(truth, rng)
    grasp_action, grasp_frame = first_action(grasp_decision_step, frames)
    grasp_detected = None if grasp_frame is None else frames[grasp_frame]
    if grasp_action is None:
        # fail open: an undetected fault wastes one cycle, a false abort a ripe fruit
        grasp_action = GraspAction.PROCEED

    slip_action: RecoveryAction | None = None
    detect_idx: int | None = None
    if grasp_action is GraspAction.ABORT_CYCLE:
        # fault response replaces the normal deflating duration and folds
        # in the re-inflation move
        response = (
            Variant.EMPTY_GRASP_RESPONSE
            if grasp_detected is GraspClass.EMPTY
            else Variant.MISGRASP_RESPONSE
        )
        record(Stage.DEFLATING, response, Event.GRASP_ABORT, f"detected {grasp_detected.name.lower()}")
        outcome = Outcome.ABORTED_EMPTY_OR_MISGRASP
    else:
        record(Stage.DEFLATING, Variant.NORMAL, Event.GRASP_OK)

        # snap-off: the slip monitor scans window predictions past any
        # confirmed normal; the first regrasp or abort action decides the path
        predictions = list((yield truth))
        slip_action, detect_idx = first_action(
            time_stability_step, predictions, ignore=(RecoveryAction.CONTINUE_SNAP_OFF,)
        )

        outcome = Outcome.PICKED_AND_PLACED
        if slip_action is RecoveryAction.ABORT_CYCLE:
            record(
                Stage.SNAP_OFF,
                Variant.SLIPPED_ABORT,
                Event.TWO_CONSECUTIVE_SLIPPED,
                f"slip confirmed at window {detect_idx}",
            )
            outcome = Outcome.ABORTED_SLIPPED
        elif slip_action is RecoveryAction.REGRASP_AND_RESNAP:
            # one recovery draw covers the whole snap-off phase, split at the
            # detection point across the interrupted and re-snap records
            phase = draw(Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY)
            frames_seen = detect_idx + 1
            fraction = frames_seen / max(len(predictions), frames_seen)
            records.append(
                StageRecord(
                    Stage.SNAP_OFF,
                    Variant.SLIPPING_RECOVERY,
                    phase * fraction,
                    Event.TWO_CONSECUTIVE_SLIPPING,
                    f"slipping confirmed at window {detect_idx}",
                )
            )
            records.append(
                StageRecord(
                    Stage.SNAP_OFF,
                    Variant.SLIPPING_RECOVERY,
                    phase * (1.0 - fraction),
                    Event.SNAP_OK,
                    "regrasped and re-snapped",
                )
            )
            outcome = Outcome.RECOVERED_AFTER_SLIP
        else:
            record(Stage.SNAP_OFF, Variant.NORMAL, Event.SNAP_OK)

    with_fruit = outcome in PLACING_OUTCOMES
    record(
        Stage.DESCENDING,
        Variant.NORMAL,
        Event.DESCENDED_WITH_FRUIT if with_fruit else Event.DESCENDED_EMPTY,
    )
    if with_fruit:
        record(Stage.PLACING, Variant.NORMAL, Event.PLACED)
    record(Stage.HOMING, Variant.NORMAL, Event.HOMED)

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
    return HarvestEpisode(episode_id, tuple(records), truth, responses, outcome)


LOG_FIELDS = ("episode_id", "seq", "stage", "variant", "duration_s", "event", "detail")


def write_episode_log(path: str | Path, episodes: Iterable[HarvestEpisode]) -> None:
    """One structured line per stage record, fixed key order, byte-stable
    for identical inputs."""
    path = Path(path)
    with path.open("w") as fh:
        for ep in episodes:
            for seq, rec in enumerate(ep.records):
                doc = {
                    "episode_id": ep.episode_id,
                    "seq": seq,
                    "stage": rec.stage.value,
                    "variant": rec.variant.value,
                    "duration_s": rec.duration_s,
                    "event": rec.event.value,
                    "detail": rec.detail,
                }
                fh.write(json.dumps(doc) + "\n")


_LOG_ENUM_VALUES = {
    "stage": {m.value for m in Stage},
    "variant": {m.value for m in Variant},
    "event": {m.value for m in Event},
}


def _log_value_problem(doc: dict[str, object]) -> str | None:
    """What is wrong with the first bad value of a log line, if any."""
    for key in ("episode_id", "seq"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            return f"{key} must be an integer, got {doc[key]!r}"
    d = doc["duration_s"]
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not math.isfinite(d):
        return f"duration_s must be a finite number, got {d!r}"
    for key, values in _LOG_ENUM_VALUES.items():
        if not isinstance(doc[key], str) or doc[key] not in values:
            return f"unknown {key} {doc[key]!r}"
    if not isinstance(doc["detail"], str):
        return f"detail must be a string, got {doc['detail']!r}"
    return None


def _order_problem(prev: dict[str, object] | None, doc: dict[str, object], seen: set[object]) -> str | None:
    """What is wrong with where a well-formed log line sits, if anything:
    an episode runs seq 0, 1, 2, ... to its one homing record, then the
    next episode starts."""
    homed = prev is None or prev["stage"] == Stage.HOMING.value
    if homed and doc["episode_id"] in seen:
        return f"episode {doc['episode_id']} already ended"
    if not homed and doc["episode_id"] != prev["episode_id"]:
        return f"episode {prev['episode_id']} ends in {prev['stage']}, not homing"
    expected = 0 if homed else prev["seq"] + 1
    if doc["seq"] != expected:
        return f"episode {doc['episode_id']} has seq {doc['seq']}, expected {expected}"
    return None


def read_episode_log(path: str | Path) -> list[dict[str, object]]:
    path = Path(path)
    out: list[dict[str, object]] = []
    seen: set[object] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError also for ints over 4,300 digits
                raise ValidationError(f"{path}: line {lineno}: not JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ValidationError(f"{path}: line {lineno}: not a JSON object")
            if list(doc.keys()) != list(LOG_FIELDS):
                raise ValidationError(f"{path}: line {lineno}: unexpected log fields {list(doc.keys())}")
            problem = _log_value_problem(doc) or _order_problem(out[-1] if out else None, doc, seen)
            if problem:
                raise ValidationError(f"{path}: line {lineno}: {problem}")
            seen.add(doc["episode_id"])
            out.append(doc)
            last_lineno = lineno
    last = out[-1] if out else None
    if last is not None and last["stage"] != Stage.HOMING.value:
        raise ValidationError(f"{path}: line {last_lineno}: episode {last['episode_id']} ends in {last['stage']}, not homing")
    return out
