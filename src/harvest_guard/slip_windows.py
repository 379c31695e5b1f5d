"""Per-frame slip features, sliding windows, and dataset balancing.

A trajectory of gripper-camera frames is reduced to 7 normalized features
per frame. Sequences of 5 consecutive frames form the classifier inputs,
each labeled by what happens in the 3 frames that follow the window: the
most severe status seen there, so a window is marked as soon as trouble
is imminent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import ValidationError, open_text

WINDOW_LEN = 5
LOOKAHEAD = 3

FEATURE_ORDER = (
    "strawberry_area",
    "gripper_area",
    "background_area",
    "w",
    "h",
    "x",
    "y",
)

AREA_SUM_TOL = 0.01

T = TypeVar("T")


class SlipLabel(IntEnum):
    """Slip status, ordered by severity."""

    NORMAL = 0
    SLIPPING = 1
    SLIPPED = 2


@dataclass(frozen=True)
class FrameFeatures:
    """The 7 per-frame features, all normalized to [0, 1].

    The three area fractions partition the image (strawberry, gripper,
    background), so they must sum to 1 within a small tolerance. w, h are
    the strawberry box size as fractions of the image; x, y its center.
    """

    strawberry_area: float
    gripper_area: float
    background_area: float
    w: float
    h: float
    x: float
    y: float

    def __post_init__(self) -> None:
        for name in FEATURE_ORDER:
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        area_sum = self.strawberry_area + self.gripper_area + self.background_area
        if abs(area_sum - 1.0) > AREA_SUM_TOL:
            raise ValidationError(f"area fractions must sum to 1 +/- {AREA_SUM_TOL}, got {area_sum}")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_ORDER], dtype=np.float64)


@dataclass(frozen=True)
class SlipWindow:
    """Five consecutive frames plus the label derived from what follows."""

    frames: tuple[FrameFeatures, ...]
    label: SlipLabel

    def __post_init__(self) -> None:
        if len(self.frames) != WINDOW_LEN:
            raise ValidationError(f"a window holds exactly {WINDOW_LEN} frames, got {len(self.frames)}")


def build_windows(frames: Sequence[FrameFeatures], labels: Sequence[SlipLabel]) -> list[SlipWindow]:
    """Slide a 5-frame window over one trajectory.

    Window i covers frames[i:i+5] and is labeled by the maximum-severity
    status among labels[i+5:i+8], so every window has a full 3-frame
    lookahead. A trajectory of n >= 8 frames yields exactly n - 7 windows;
    shorter trajectories yield none.
    """
    if len(frames) != len(labels):
        raise ValidationError(f"frames ({len(frames)}) and labels ({len(labels)}) differ in length")
    need = WINDOW_LEN + LOOKAHEAD
    windows: list[SlipWindow] = []
    for i in range(len(frames) - need + 1):
        future = labels[i + WINDOW_LEN : i + WINDOW_LEN + LOOKAHEAD]
        windows.append(
            SlipWindow(frames=tuple(frames[i : i + WINDOW_LEN]), label=SlipLabel(max(future)))
        )
    return windows


def windows_to_arrays(windows: Sequence[SlipWindow]) -> tuple[np.ndarray, np.ndarray]:
    """Stack windows into (n, 5, 7) inputs and (n,) integer labels."""
    x = np.stack([np.stack([f.as_vector() for f in w.frames]) for w in windows])
    y = np.array([int(w.label) for w in windows], dtype=np.int64)
    return x, y


def class_counts(windows: Sequence[SlipWindow]) -> dict[SlipLabel, int]:
    counts: dict[SlipLabel, int] = {}
    for w in windows:
        counts[w.label] = counts.get(w.label, 0) + 1
    return counts


def oversample(windows: Sequence[SlipWindow], rng_seed: int) -> list[SlipWindow]:
    """Duplicate minority-class windows until every present class matches
    the majority count.

    All originals are kept; the top-up draws uniformly with replacement
    from each minority class, seeded for reproducibility.
    """
    if not windows:
        raise ValidationError("oversample needs a non-empty window set")
    rng = np.random.default_rng(rng_seed)
    by_class: dict[SlipLabel, list[SlipWindow]] = {}
    for w in windows:
        by_class.setdefault(w.label, []).append(w)
    majority = max(len(group) for group in by_class.values())

    out = list(windows)
    for label in sorted(by_class):
        group = by_class[label]
        deficit = majority - len(group)
        if deficit > 0:
            picks = rng.integers(0, len(group), size=deficit)
            out.extend(group[i] for i in picks)
    return out


def _round_half_away(value: float) -> int:
    import math

    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def stratified_split_counts(counts: Sequence[int], ratio: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-class train/validation sizes for a stratified split.

    Each class contributes round(count * ratio) items to training
    (rounding half away from zero) and the remainder to validation.
    """
    if not (0.0 < ratio < 1.0):
        raise ValidationError(f"split ratio must lie in (0, 1), got {ratio}")
    for c in counts:
        if c < 1:
            raise ValidationError(f"every class needs at least one item, got counts {tuple(counts)}")
    train = tuple(_round_half_away(c * ratio) for c in counts)
    val = tuple(c - t for c, t in zip(counts, train))
    return train, val


def stratified_split_windows(
    windows: Sequence[T], ratio: float, rng_seed: int, key: Callable[[T], int] = attrgetter("label")
) -> tuple[list[T], list[T]]:
    """Split items per class after a seeded within-class shuffle.

    `key` gives an item's class (a window's label by default). Classes
    are taken in ascending order and sizes follow
    stratified_split_counts; every input item lands in exactly one side.
    """
    by_class: dict[int, list[T]] = {}
    for w in windows:
        by_class.setdefault(key(w), []).append(w)
    labels = sorted(by_class)
    counts = [len(by_class[lab]) for lab in labels]
    train_counts, _ = stratified_split_counts(counts, ratio)

    rng = np.random.default_rng(rng_seed)
    train: list[T] = []
    val: list[T] = []
    for lab, n_train in zip(labels, train_counts):
        group = by_class[lab]
        order = rng.permutation(len(group))
        train.extend(group[i] for i in order[:n_train])
        val.extend(group[i] for i in order[n_train:])
    return train, val


def prepare_splits(
    windows: Sequence[SlipWindow],
    ratio: float,
    rng_seed: int,
    oversample_first: bool = False,
) -> tuple[list[SlipWindow], list[SlipWindow]]:
    """Balanced train set plus untouched validation set.

    Default order splits first and oversamples only the training side, so
    duplicated windows can never leak into validation. With
    oversample_first the whole set is balanced before splitting,
    replicating pipelines that balance up front.
    """
    if oversample_first:
        balanced = oversample(windows, rng_seed)
        return stratified_split_windows(balanced, ratio, rng_seed)
    train, val = stratified_split_windows(windows, ratio, rng_seed)
    return oversample(train, rng_seed), val


# SlipData CSV: one frame per row, grouped by episode.
SLIP_CSV_HEADER = ("episode_id", "frame_id", *FEATURE_ORDER, "label")


def write_slip_csv(
    path: str | Path,
    episodes: Iterable[tuple[int, Sequence[FrameFeatures], Sequence[SlipLabel]]],
) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLIP_CSV_HEADER)
        for episode_id, frames, labels in episodes:
            for frame_id, (frame, label) in enumerate(zip(frames, labels)):
                writer.writerow(
                    [episode_id, frame_id]
                    + [repr(float(getattr(frame, name))) for name in FEATURE_ORDER]
                    + [int(label)]
                )


def read_slip_csv(path: str | Path) -> list[tuple[int, list[FrameFeatures], list[SlipLabel]]]:
    """Read a SlipData file back into per-episode frame/label sequences.

    Frames of one episode must be contiguous and in frame_id order;
    violations are rejected rather than silently reordered.
    """
    path = Path(path)
    episodes: list[tuple[int, list[FrameFeatures], list[SlipLabel]]] = []
    seen: set[int] = set()
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        fields = reader.fieldnames or []
        missing = [c for c in SLIP_CSV_HEADER if c not in fields]
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}")
        current_id: int | None = None
        for lineno, rec in enumerate(reader, start=2):
            try:
                episode_id = int(rec["episode_id"])
                frame_id = int(rec["frame_id"])
                frame = FrameFeatures(**{name: float(rec[name]) for name in FEATURE_ORDER})
                label = SlipLabel(int(rec["label"]))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
            if episode_id != current_id:
                if episode_id in seen:
                    raise ValidationError(f"{path}: episode {episode_id} is not contiguous (line {lineno})")
                seen.add(episode_id)
                current_id = episode_id
                episodes.append((episode_id, [], []))
            frames, labels = episodes[-1][1], episodes[-1][2]
            if frame_id != len(frames):
                raise ValidationError(f"{path}: frame_id out of order in episode {episode_id} (line {lineno})")
            frames.append(frame)
            labels.append(label)
    return episodes


def windows_from_slip_csv(path: str | Path) -> list[SlipWindow]:
    """Windows built per episode so no window spans an episode boundary."""
    windows: list[SlipWindow] = []
    for _, frames, labels in read_slip_csv(path):
        windows.extend(build_windows(frames, labels))
    return windows
