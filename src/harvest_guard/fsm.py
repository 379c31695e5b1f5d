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

outcome_of(records) decides an episode's outcome. _WALKS holds the walk
each outcome fixes, with and without compensation, as the (stage, event)
of every record, and is the one place events are defined: the cycle
takes the stages after snap-off from it, write_episode_log each record's
event, and episode_problem(records, events) checks records, and any
logged events, against it. read_episode_log accepts only the
(stage, variant) keys of STAGE_TIMING and runs that check on each
episode at its homing line.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import product, zip_longest
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
    detail: str = ""


def outcome_of(records: Iterable[StageRecord]) -> Outcome:
    """The outcome of an episode's records: a slipped abort beats a grasp
    abort, which beats the slipping recovery, which beats picked-and-placed.
    Each fault variant has one stage in STAGE_TIMING, so variants suffice."""
    variants = {r.variant for r in records}
    if Variant.SLIPPED_ABORT in variants:
        return Outcome.ABORTED_SLIPPED
    if Variant.EMPTY_GRASP_RESPONSE in variants or Variant.MISGRASP_RESPONSE in variants:
        return Outcome.ABORTED_EMPTY_OR_MISGRASP
    if Variant.SLIPPING_RECOVERY in variants:
        return Outcome.RECOVERED_AFTER_SLIP
    return Outcome.PICKED_AND_PLACED


def _make_walk(outcome: Outcome, compensated: bool) -> tuple[tuple[Stage, Event], ...]:
    """The (stage, event) of each record a cycle writes: a grasp abort skips
    snap-off and placing, a slipped abort placing, and a slipping recovery
    records snap-off twice."""
    snap_off = {
        Outcome.PICKED_AND_PLACED: [Event.SNAP_OK],
        Outcome.ABORTED_EMPTY_OR_MISGRASP: [],
        Outcome.ABORTED_SLIPPED: [Event.TWO_CONSECUTIVE_SLIPPED],
        Outcome.RECOVERED_AFTER_SLIP: [Event.TWO_CONSECUTIVE_SLIPPING, Event.SNAP_OK],
    }[outcome]
    placed = outcome in (Outcome.PICKED_AND_PLACED, Outcome.RECOVERED_AFTER_SLIP)
    return tuple(
        [(Stage.INFLATING_APPROACHING, Event.MISALIGNED if compensated else Event.ALIGNED)]
        + [(Stage.COMPENSATION, Event.COMPENSATED)] * compensated
        + [(Stage.SWALLOWING, Event.SWALLOWED)]
        + [(Stage.DEFLATING, Event.GRASP_OK if snap_off else Event.GRASP_ABORT)]
        + [(Stage.SNAP_OFF, event) for event in snap_off]
        + [(Stage.DESCENDING, Event.DESCENDED_WITH_FRUIT if placed else Event.DESCENDED_EMPTY)]
        + [(Stage.PLACING, Event.PLACED)] * placed
        + [(Stage.HOMING, Event.HOMED)]
    )


# every walk a cycle takes, by (outcome, compensated)
_WALKS = {key: _make_walk(*key) for key in product(Outcome, (False, True))}


def _walk_of(records: Sequence[StageRecord]) -> tuple[tuple[Stage, Event], ...]:
    """The walk the records' outcome fixes, compensated when their second stage is."""
    return _WALKS[outcome_of(records), len(records) > 1 and records[1].stage is Stage.COMPENSATION]


def episode_problem(records: Sequence[StageRecord], events: Sequence[Event] = ()) -> str | None:
    """What keeps an episode's records from being the walk their outcome
    fixes, if anything: the first seq whose stage differs from it, or else
    the first seq whose given event does."""
    walk = _walk_of(records)
    for seq, (got, want) in enumerate(zip_longest((r.stage for r in records), (stage for stage, _ in walk))):
        if got is not want:
            got, want = (stage.value if stage is not None else "no record" for stage in (got, want))
            return f"{outcome_of(records).value} walk has {got} at seq {seq}, expected {want}"
    for seq, (event, (stage, want)) in enumerate(zip(events, walk)):
        if event is not want:
            return f"{stage.value} at seq {seq} has event {event.value}, expected {want.value}"
    return None


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

    def __post_init__(self) -> None:
        problem = episode_problem(self.records)
        if problem:
            raise ValidationError(problem)

    @property
    def outcome(self) -> Outcome:
        return outcome_of(self.records)

    @property
    def total_s(self) -> float:
        return sum(r.duration_s for r in self.records)


@dataclass(frozen=True)
class ApproachOutcome:
    visual_error: tuple[float, float]  # measured (dx, dy), mm
    compensated: bool
    residual_x: float
    residual_y: float


class WorldLike(Protocol):
    """What run_episode needs from a simulation world."""

    def sample_truth(self, rng: np.random.Generator) -> EpisodeTruth: ...

    def approach(self, truth: EpisodeTruth, rng: np.random.Generator) -> ApproachOutcome: ...

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

    def record(stage: Stage, variant: Variant, detail: str = "", duration_s: float | None = None) -> None:
        duration_s = draw(stage, variant) if duration_s is None else duration_s
        records.append(StageRecord(stage, variant, duration_s, detail))

    truth = world.sample_truth(rng)

    # approach; the visual check decides whether a compensation move runs
    approach = world.approach(truth, rng)
    record(Stage.INFLATING_APPROACHING, Variant.NORMAL, "visual error ({:.1f}, {:.1f}) mm".format(*approach.visual_error))
    if approach.compensated:
        residual = f"residual ({approach.residual_x:.1f}, {approach.residual_y:.1f}) mm"
        record(Stage.COMPENSATION, Variant.NORMAL, residual)
    record(Stage.SWALLOWING, Variant.NORMAL)

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
        record(Stage.DEFLATING, response, f"detected {grasp_detected.name.lower()}")
    else:
        record(Stage.DEFLATING, Variant.NORMAL)

        # snap-off: the slip monitor scans window predictions past any
        # confirmed normal; the first regrasp or abort action decides the path
        predictions = list((yield truth))
        slip_action, detect_idx = first_action(
            time_stability_step, predictions, ignore=(RecoveryAction.CONTINUE_SNAP_OFF,)
        )

        if slip_action is RecoveryAction.ABORT_CYCLE:
            record(Stage.SNAP_OFF, Variant.SLIPPED_ABORT, f"slip confirmed at window {detect_idx}")
        elif slip_action is RecoveryAction.REGRASP_AND_RESNAP:
            # one recovery draw covers the whole snap-off phase, split at the
            # detection point across the interrupted and re-snap records
            phase = draw(Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY)
            frames_seen = detect_idx + 1
            fraction = frames_seen / max(len(predictions), frames_seen)
            detail = f"slipping confirmed at window {detect_idx}"
            record(Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY, detail, phase * fraction)
            record(Stage.SNAP_OFF, Variant.SLIPPING_RECOVERY, "regrasped and re-snapped", phase * (1.0 - fraction))
        else:
            record(Stage.SNAP_OFF, Variant.NORMAL)

    # the rest of the walk the outcome fixes: descending, placing when the
    # fruit is held, homing
    for stage, _ in _walk_of(records)[len(records):]:
        record(stage, Variant.NORMAL)

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


LOG_FIELDS = ("episode_id", "seq", "stage", "variant", "duration_s", "event", "detail")


def write_episode_log(path: str | Path, episodes: Iterable[HarvestEpisode]) -> None:
    """One structured line per stage record, fixed key order, byte-stable
    for identical inputs."""
    path = Path(path)
    with path.open("w") as fh:
        for ep in episodes:
            for seq, (rec, (_, event)) in enumerate(zip(ep.records, _walk_of(ep.records))):
                doc = {
                    "episode_id": ep.episode_id,
                    "seq": seq,
                    "stage": rec.stage.value,
                    "variant": rec.variant.value,
                    "duration_s": rec.duration_s,
                    "event": event.value,
                    "detail": rec.detail,
                }
                fh.write(json.dumps(doc) + "\n")


# each enum-valued log field: its members by value
_LOG_ENUMS = {key: {m.value: m for m in enum} for key, enum in (("stage", Stage), ("variant", Variant), ("event", Event))}
# the (stage, variant) values a cycle records
_LOG_PAIRS = {(stage.value, variant.value) for stage, variant in STAGE_TIMING}


def _log_value_problem(doc: dict[str, object]) -> str | None:
    """What is wrong with the first bad value of a log line, if any."""
    for key in ("episode_id", "seq"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            return f"{key} must be an integer, got {doc[key]!r}"
    d = doc["duration_s"]
    # abs(d) <= max fails for NaN, the infinities and ints past the float range
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not abs(d) <= sys.float_info.max:
        return f"duration_s must be a finite number, got {d!r}"
    if d < 0:
        return f"duration_s must be non-negative, got {d!r}"
    for key, members in _LOG_ENUMS.items():
        if not isinstance(doc[key], str) or doc[key] not in members:
            return f"unknown {key} {doc[key]!r}"
    if not isinstance(doc["detail"], str):
        return f"detail must be a string, got {doc['detail']!r}"
    if (doc["stage"], doc["variant"]) not in _LOG_PAIRS:
        return f"stage {doc['stage']!r} has no variant {doc['variant']!r}"
    return None


def _order_problem(episodes: dict[int, list[StageRecord]], doc: dict[str, object]) -> str | None:
    """What is wrong with where a well-formed log line sits, if anything:
    an episode runs seq 0, 1, 2, ... to its one homing record, then the
    next episode starts."""
    last_id, last = next(reversed(episodes.items()), (None, None))
    homed = last is None or last[-1].stage is Stage.HOMING
    if homed and doc["episode_id"] in episodes:
        return f"episode {doc['episode_id']} already ended"
    if not homed and doc["episode_id"] != last_id:
        return f"episode {last_id} ends in {last[-1].stage.value}, not homing"
    expected = 0 if homed else len(last)
    if doc["seq"] != expected:
        return f"episode {doc['episode_id']} has seq {doc['seq']}, expected {expected}"
    return None


def read_episode_log(path: str | Path) -> list[tuple[int, list[StageRecord]]]:
    """The episodes of a log in file order, as (episode_id, records). The
    first line that is not a well-formed record in its place is an error,
    and so is a homing line that ends a walk episode_problem rejects."""
    path = Path(path)
    episodes: dict[int, list[StageRecord]] = {}
    events: list[Event] = []  # those of the current episode
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
            problem = _log_value_problem(doc) or _order_problem(episodes, doc)
            if problem:
                raise ValidationError(f"{path}: line {lineno}: {problem}")
            stage, variant, event = (_LOG_ENUMS[key][doc[key]] for key in _LOG_ENUMS)
            episode = episodes.setdefault(doc["episode_id"], [])
            episode.append(StageRecord(stage, variant, float(doc["duration_s"]), doc["detail"]))
            events.append(event)
            if stage is Stage.HOMING:
                if problem := episode_problem(episode, events):
                    raise ValidationError(f"{path}: line {lineno}: episode {doc['episode_id']}: {problem}")
                events.clear()
            last_lineno = lineno
    last_id, last = next(reversed(episodes.items()), (None, None))
    if last is not None and last[-1].stage is not Stage.HOMING:
        raise ValidationError(f"{path}: line {last_lineno}: episode {last_id} ends in {last[-1].stage.value}, not homing")
    return list(episodes.items())
