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
detection and the re-snap after it. The records between two monitor
decisions draw their durations as one standard_normal block, mean + std
* z each, which is bit for bit the rng.normal(mean, std) of one draw per
record, in the same order.

An episode's fault is its one variant other than NORMAL, or NORMAL, and
outcome_of(records) is the outcome it fixes; a HarvestEpisode keeps the
walk key its check found, for its outcome and its log lines. _WALKS
holds each fault's walk, with and without compensation, as the (stage,
variant, event) of every record; _make_walk alone orders the stages and
gives records their variant and event. The cycle looks up its walk once
per monitor decision and appends the records of the walk its monitors
have fixed so far, up to the next decision. episode_problem(records,
events) checks records and logged events against it: a valid walk passes
on one comparison with the whole walk, and only an invalid one is
scanned for its first problem. The four enums hash by identity, as their
members are singletons. write_episode_log writes each record as exactly
json.dumps of its LOG_FIELDS dict: _LINE_TEXT holds, per walk entry, the
text json.dumps gives around the episode_id, duration_s and detail
values, and only those three are encoded per record. read_episode_log
accepts only the (stage, variant) keys of STAGE_TIMING, runs that check
on each episode at its homing line and yields the episode there.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import product, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Generator, Iterable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import ValidationError, open_text
from .grasp import GraspAction, GraspClass, grasp_decision_step
from .slip_decision import RecoveryAction, first_action, time_stability_step
from .slip_windows import SlipLabel


class _Label(Enum):
    """An enum that hashes by identity. Its members are singletons that
    compare by identity, so dict lookups find what Enum.__hash__ would
    find, without a Python call per lookup."""

    __hash__ = object.__hash__


class Stage(_Label):
    INFLATING_APPROACHING = "inflating-approaching"
    COMPENSATION = "compensation"
    SWALLOWING = "swallowing"
    DEFLATING = "deflating"
    SNAP_OFF = "snap-off"
    DESCENDING = "descending"
    PLACING = "placing"
    HOMING = "homing"


class Variant(_Label):
    NORMAL = "normal"
    EMPTY_GRASP_RESPONSE = "empty-grasp-response"
    MISGRASP_RESPONSE = "misgrasp-response"
    SLIPPING_RECOVERY = "slipping-recovery"
    SLIPPED_ABORT = "slipped-abort"


class Event(_Label):
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


class Outcome(_Label):
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


class StageRecord(NamedTuple):
    stage: Stage
    variant: Variant
    duration_s: float
    detail: str = ""


# the outcome each fault fixes, most severe first: an episode's fault is
# its first variant in this order
_FAULT_OUTCOMES = {
    Variant.SLIPPED_ABORT: Outcome.ABORTED_SLIPPED,
    Variant.EMPTY_GRASP_RESPONSE: Outcome.ABORTED_EMPTY_OR_MISGRASP,
    Variant.MISGRASP_RESPONSE: Outcome.ABORTED_EMPTY_OR_MISGRASP,
    Variant.SLIPPING_RECOVERY: Outcome.RECOVERED_AFTER_SLIP,
    Variant.NORMAL: Outcome.PICKED_AND_PLACED,
}


def _fault_of(records: Iterable[StageRecord]) -> Variant:
    variants = [r.variant for r in records]
    for variant in _FAULT_OUTCOMES:
        if variant in variants:
            return variant
    return Variant.NORMAL


def outcome_of(records: Iterable[StageRecord]) -> Outcome:
    """The outcome of an episode's records: that of their most severe variant."""
    return _FAULT_OUTCOMES[_fault_of(records)]


def _make_walk(fault: Variant, compensated: bool) -> tuple[tuple[Stage, Variant, Event], ...]:
    """The (stage, variant, event) of each record a cycle writes: a grasp
    abort takes deflating and skips snap-off and placing, a slipped abort
    takes snap-off and skips placing, and a slipping recovery takes two."""
    normal = Variant.NORMAL
    snap_off = {
        Variant.NORMAL: [Event.SNAP_OK],
        Variant.SLIPPED_ABORT: [Event.TWO_CONSECUTIVE_SLIPPED],
        Variant.SLIPPING_RECOVERY: [Event.TWO_CONSECUTIVE_SLIPPING, Event.SNAP_OK],
    }.get(fault, [])
    placed = fault in (Variant.NORMAL, Variant.SLIPPING_RECOVERY)
    return tuple(
        [(Stage.INFLATING_APPROACHING, normal, Event.MISALIGNED if compensated else Event.ALIGNED)]
        + [(Stage.COMPENSATION, normal, Event.COMPENSATED)] * compensated
        + [(Stage.SWALLOWING, normal, Event.SWALLOWED)]
        + [(Stage.DEFLATING, normal, Event.GRASP_OK) if snap_off else (Stage.DEFLATING, fault, Event.GRASP_ABORT)]
        + [(Stage.SNAP_OFF, fault, event) for event in snap_off]
        + [(Stage.DESCENDING, normal, Event.DESCENDED_WITH_FRUIT if placed else Event.DESCENDED_EMPTY)]
        + [(Stage.PLACING, normal, Event.PLACED)] * placed
        + [(Stage.HOMING, normal, Event.HOMED)]
    )


# every walk a cycle takes, by (fault, compensated)
_WALKS = {key: _make_walk(*key) for key in product(Variant, (False, True))}
# each key itself: an episode keeps one of these ten, not a tuple of its own
_WALK_KEYS = {key: key for key in _WALKS}
# each walk's (stage, variant) pairs and events, which a valid episode matches as a whole
_WALK_PAIRS = {key: [(stage, variant) for stage, variant, _ in walk] for key, walk in _WALKS.items()}
_WALK_EVENTS = {key: [event for _, _, event in walk] for key, walk in _WALKS.items()}


def _walk_key(records: Sequence[StageRecord]) -> tuple[Variant, bool]:
    """The _WALKS key of the walk the records' fault fixes, compensated
    when their second stage is."""
    return _WALK_KEYS[_fault_of(records), len(records) > 1 and records[1].stage is Stage.COMPENSATION]


def episode_problem(records: Sequence[StageRecord], events: Sequence[Event] = ()) -> str | None:
    """What keeps an episode's records from being the walk their fault
    fixes, if anything: the first seq whose stage differs from it, or else
    the first whose variant does, or else the first whose given event does."""
    return _walk_problem(_walk_key(records), records, events)


def _walk_problem(key: tuple[Variant, bool], records: Sequence[StageRecord], events: Sequence[Event] = ()) -> str | None:
    """episode_problem of records whose _walk_key is `key`."""
    pairs_match = [(r.stage, r.variant) for r in records] == _WALK_PAIRS[key]
    if pairs_match and (not events or list(events) == _WALK_EVENTS[key]):
        return None
    walk = _WALKS[key]
    for seq, (got, want) in enumerate(zip_longest((r.stage for r in records), (stage for stage, _, _ in walk))):
        if got is not want:
            got, want = (stage.value if stage is not None else "no record" for stage in (got, want))
            return f"{_FAULT_OUTCOMES[key[0]].value} walk has {got} at seq {seq}, expected {want}"
    for i, name, labels in ((1, "variant", [r.variant for r in records]), (2, "event", events)):
        for seq, (got, want) in enumerate(zip(labels, walk)):
            if got is not want[i]:
                return f"{want[0].value} at seq {seq} has {name} {got.value}, expected {want[i].value}"
    return None


class EpisodeTruth(NamedTuple):
    """What the simulator actually injected, independent of detection."""

    positional_error: tuple[float, float]  # injected (dx, dy), mm
    grasp_outcome: GraspClass
    slip_outcome: SlipLabel


class EpisodeResponses(NamedTuple):
    """What the monitors decided."""

    compensated: bool
    residual_x: float | None
    residual_y: float | None
    grasp_action: GraspAction
    grasp_detected: GraspClass | None
    grasp_detect_frame: int | None
    slip_action: RecoveryAction | None
    slip_detect_frame: int | None


@dataclass(frozen=True, slots=True)
class HarvestEpisode:
    episode_id: int
    records: tuple[StageRecord, ...]
    truth: EpisodeTruth
    responses: EpisodeResponses
    # the _WALKS key of the records, kept from the one scan that checks them
    _walk: tuple[Variant, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = _walk_key(self.records)
        problem = _walk_problem(key, self.records)
        if problem:
            raise ValidationError(problem)
        object.__setattr__(self, "_walk", key)

    @property
    def outcome(self) -> Outcome:
        return _FAULT_OUTCOMES[self._walk[0]]

    @property
    def total_s(self) -> float:
        return sum(r.duration_s for r in self.records)


class ApproachOutcome(NamedTuple):
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
    slip perception from the same rng and sends back its labels. Each
    monitor decision fixes the walk up to the next one, and the records
    in between draw their durations as one block."""

    def durations(pairs: Sequence[tuple[Stage, Variant]]) -> list[float]:
        """Each (stage, variant)'s duration, in order: mean + std * z from
        one standard_normal block, bit for bit what one rng.normal(mean,
        std) per pair returns, floored at MIN_DURATION_S; or each mean in
        deterministic mode, drawing nothing."""
        if deterministic:
            return [STAGE_TIMING[pair][0] for pair in pairs]
        times = []
        for pair, z in zip(pairs, rng.standard_normal(len(pairs)).tolist()):
            mean, std = STAGE_TIMING[pair]
            times.append(max(MIN_DURATION_S, mean + std * z))
        return times

    records: list[StageRecord] = []

    def record(walk: list[tuple[Stage, Variant]], times: list[float], *details: str) -> None:
        """Append the next len(times) records of a _WALK_PAIRS walk, with
        these durations, and these details on the first of them."""
        n = len(records)
        for (stage, variant), duration_s, detail in zip_longest(walk[n : n + len(times)], times, details, fillvalue=""):
            records.append(StageRecord(stage, variant, duration_s, detail))

    truth = world.sample_truth(rng)

    # approach; the visual check decides whether a compensation move runs
    approach = world.approach(truth, rng)
    compensated = approach.compensated
    # each monitor sets the walk of its fault before the records it decides
    walk = _WALK_PAIRS[Variant.NORMAL, compensated]
    details = ["visual error ({:.1f}, {:.1f}) mm".format(*approach.visual_error)]
    if compensated:
        details.append(f"residual ({approach.residual_x:.1f}, {approach.residual_y:.1f}) mm")
    record(walk, durations(walk[: walk.index((Stage.DEFLATING, Variant.NORMAL))]), *details)

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
        # in the re-inflation move; no monitor decides the rest of the walk
        fault = Variant.EMPTY_GRASP_RESPONSE if grasp_detected is GraspClass.EMPTY else Variant.MISGRASP_RESPONSE
        walk = _WALK_PAIRS[fault, compensated]
        record(walk, durations(walk[len(records) :]), f"detected {grasp_detected.name.lower()}")
    else:
        record(walk, durations([walk[len(records)]]))

        # snap-off: the slip monitor scans window predictions past any
        # confirmed normal; the first regrasp or abort action decides the
        # path, and with it the rest of the walk: descending, placing when
        # the fruit is held, homing
        predictions = yield truth
        slip_action, detect_idx = first_action(
            time_stability_step, predictions, ignore=(RecoveryAction.CONTINUE_SNAP_OFF,)
        )

        if slip_action is RecoveryAction.ABORT_CYCLE:
            walk = _WALK_PAIRS[Variant.SLIPPED_ABORT, compensated]
            record(walk, durations(walk[len(records) :]), f"slip confirmed at window {detect_idx}")
        elif slip_action is RecoveryAction.REGRASP_AND_RESNAP:
            # one recovery draw, the first of the block, covers the whole
            # snap-off phase, split at the detection point across the
            # interrupted and re-snap records
            walk = _WALK_PAIRS[Variant.SLIPPING_RECOVERY, compensated]
            phase, *times = durations(walk[len(records) + 1 :])
            fraction = (detect_idx + 1) / len(predictions)
            record(walk, [phase * fraction, phase * (1.0 - fraction), *times],
                   f"slipping confirmed at window {detect_idx}", "regrasped and re-snapped")
        else:
            record(walk, durations(walk[len(records) :]))

    responses = EpisodeResponses(
        compensated=compensated,
        residual_x=approach.residual_x if compensated else None,
        residual_y=approach.residual_y if compensated else None,
        grasp_action=grasp_action,
        grasp_detected=grasp_detected,
        grasp_detect_frame=grasp_frame,
        slip_action=slip_action,
        slip_detect_frame=detect_idx,
    )
    return HarvestEpisode(episode_id, tuple(records), truth, responses)


LOG_FIELDS = ("episode_id", "seq", "stage", "variant", "duration_s", "event", "detail")


# json.dumps writes it as "\u0000", which no key or enum value holds
_SLOT = "\0"


def _line_text(seq: int, stage: Stage, variant: Variant, event: Event) -> tuple[str, ...]:
    """json.dumps of a record's log line, cut at its episode_id, duration_s
    and detail values: the four pieces of text around them."""
    doc = dict(zip(LOG_FIELDS, (_SLOT, seq, stage.value, variant.value, _SLOT, event.value, _SLOT)))
    return tuple(json.dumps(doc).split(json.dumps(_SLOT)))


# the fixed text of each record's log line, by walk and seq
_LINE_TEXT = {key: tuple(_line_text(seq, *entry) for seq, entry in enumerate(walk)) for key, walk in _WALKS.items()}


def _json_number(value: object) -> str:
    """json.dumps(value): json writes an int or a finite float as its repr."""
    if (type(value) is float and math.isfinite(value)) or type(value) is int:
        return repr(value)
    return json.dumps(value)


def _json_str(value: object) -> str:
    """json.dumps(value): with its defaults, json encodes a str with encode_basestring_ascii."""
    return encode_basestring_ascii(value) if type(value) is str else json.dumps(value)


def write_episode_log(path: str | Path, episodes: Iterable[HarvestEpisode]) -> None:
    """One line per stage record, exactly json.dumps of its dict of
    LOG_FIELDS, so byte-stable for identical inputs. Each line is its walk
    entry's fixed text around the record's episode_id, duration_s and
    detail; each episode is one write."""
    path = Path(path)
    with path.open("w") as fh:
        for ep in episodes:
            eid = _json_number(ep.episode_id)
            fh.write(
                "".join(
                    f"{head}{eid}{to_duration}{_json_number(rec.duration_s)}{to_detail}{_json_str(rec.detail)}{tail}\n"
                    for rec, (head, to_duration, to_detail, tail) in zip(ep.records, _LINE_TEXT[ep._walk])
                )
            )


# each enum-valued log field: its members by value
_LOG_ENUMS = {key: {m.value: m for m in enum} for key, enum in (("stage", Stage), ("variant", Variant), ("event", Event))}
# the (stage, variant) values a cycle records
_LOG_PAIRS = {(stage.value, variant.value) for stage, variant in STAGE_TIMING}
# the longest stage a log may record: one day lies far above any stage the
# cycle draws and keeps every episode total, mean and std finite
MAX_LOG_DURATION_S = 86_400


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
    if d > MAX_LOG_DURATION_S:
        return f"duration_s must be <= {MAX_LOG_DURATION_S}, got {d!r}"
    for key, members in _LOG_ENUMS.items():
        if not isinstance(doc[key], str) or doc[key] not in members:
            return f"unknown {key} {doc[key]!r}"
    if not isinstance(doc["detail"], str):
        return f"detail must be a string, got {doc['detail']!r}"
    if (doc["stage"], doc["variant"]) not in _LOG_PAIRS:
        return f"stage {doc['stage']!r} has no variant {doc['variant']!r}"
    return None


def _order_problem(
    run: range, rest: set[int], episode_id: int | None, records: list[StageRecord], doc: dict[str, object]
) -> str | None:
    """What is wrong with where a well-formed log line sits, if anything:
    an episode runs seq 0, 1, 2, ... to its one homing record, then the
    next episode starts. `records` are those of the current episode
    `episode_id` so far, empty between episodes, and `run` and `rest`
    hold the ids of every episode before it, as read_episode_log keeps
    them."""
    if not records and (doc["episode_id"] in run or doc["episode_id"] in rest):
        return f"episode {doc['episode_id']} already ended"
    if records and doc["episode_id"] != episode_id:
        return f"episode {episode_id} ends in {records[-1].stage.value}, not homing"
    if doc["seq"] != len(records):
        return f"episode {doc['episode_id']} has seq {doc['seq']}, expected {len(records)}"
    return None


def read_episode_log(path: str | Path) -> Iterator[tuple[int, list[StageRecord]]]:
    """The episodes of a log in file order, as (episode_id, records), each
    yielded at its homing line. The first line that is not a well-formed
    record in its place is an error, and so is a homing line that ends a
    walk episode_problem rejects; each is raised when iteration reaches
    it. Only the current episode and the ids of ended ones are held."""
    path = Path(path)
    # the ids of ended episodes: the run of ids, each one above the last,
    # that a log in id order keeps extending, and a set of every other one
    run = range(0)
    rest: set[int] = set()
    # the current episode: its id, records and events so far
    episode_id: int | None = None
    records: list[StageRecord] = []
    events: list[Event] = []
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
            problem = _log_value_problem(doc) or _order_problem(run, rest, episode_id, records, doc)
            if problem:
                raise ValidationError(f"{path}: line {lineno}: {problem}")
            stage, variant, event = (_LOG_ENUMS[key][doc[key]] for key in _LOG_ENUMS)
            episode_id = doc["episode_id"]
            records.append(StageRecord(stage, variant, float(doc["duration_s"]), doc["detail"]))
            events.append(event)
            last_lineno = lineno
            if stage is Stage.HOMING:
                if problem := episode_problem(records, events):
                    raise ValidationError(f"{path}: line {lineno}: episode {episode_id}: {problem}")
                if not run:
                    run = range(episode_id, episode_id + 1)
                elif episode_id == run.stop:
                    run = range(run.start, episode_id + 1)
                else:
                    rest.add(episode_id)
                yield episode_id, records
                records, events = [], []
    if records:
        raise ValidationError(f"{path}: line {last_lineno}: episode {episode_id} ends in {records[-1].stage.value}, not homing")
