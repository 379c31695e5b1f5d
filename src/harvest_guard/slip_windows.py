"""Per-frame slip features, sliding windows, and dataset balancing.

A trajectory of gripper-camera frames is reduced to 7 normalized features
per frame: one (n, 7) float64 array in FEATURE_ORDER with an (n,) int64
label vector. Sequences of 5 consecutive frames form the classifier
inputs, each labeled by what happens in the 3 frames that follow the
window: the most severe status seen there, so a window is marked as soon
as trouble is imminent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, csv_records

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


class SlipLabel(IntEnum):
    """Slip status, ordered by severity."""

    NORMAL = 0
    SLIPPING = 1
    SLIPPED = 2


def first_bad_frame(frames: np.ndarray) -> tuple[int, str] | None:
    """(row, reason) of the first frame in an (n, 7) array that breaks
    the feature contract, or None. Every feature must lie in [0, 1] (NaN
    fails) and the three area fractions, which partition the image, must
    sum to 1 within AREA_SUM_TOL; a row is checked in FEATURE_ORDER, then
    by its area sum."""
    in_range = (frames >= 0.0) & (frames <= 1.0)
    area_sum = frames[:, 0] + frames[:, 1] + frames[:, 2]
    bad = ~in_range.all(axis=1) | (np.abs(area_sum - 1.0) > AREA_SUM_TOL)
    if not bad.any():
        return None
    row = int(bad.argmax())
    for col, name in enumerate(FEATURE_ORDER):
        if not in_range[row, col]:
            return row, f"{name} must lie in [0, 1], got {frames[row, col].item()}"
    return row, f"area fractions must sum to 1 +/- {AREA_SUM_TOL}, got {area_sum[row].item()}"


@dataclass(frozen=True, eq=False)
class SlipWindows:
    """A labeled window set: x holds (n, 5, 7) float64 windows of frames
    in FEATURE_ORDER, y the (n,) int64 labels."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx: np.ndarray) -> SlipWindows:
        """The windows at `idx`, in that order, as C-contiguous copies."""
        return SlipWindows(self.x[idx], self.y[idx])


def frame_windows(frames: np.ndarray, count: int) -> np.ndarray:
    """The first `count` windows of an (n, 7) frame array as one
    (count, 5, 7) C-contiguous copy; window i is frames[i:i+5]."""
    return frames[np.arange(count)[:, None] + np.arange(WINDOW_LEN)]


def build_windows(frames: np.ndarray, labels: np.ndarray) -> SlipWindows:
    """Slide a 5-frame window over one trajectory.

    Window i covers frames[i:i+5] and is labeled by the maximum-severity
    status among labels[i+5:i+8], so every window has a full 3-frame
    lookahead. A trajectory of n >= 8 frames yields exactly n - 7 windows;
    shorter trajectories yield none.
    """
    if len(frames) != len(labels):
        raise ValidationError(f"frames ({len(frames)}) and labels ({len(labels)}) differ in length")
    count = max(0, len(frames) - WINDOW_LEN - LOOKAHEAD + 1)
    worst = labels[WINDOW_LEN : WINDOW_LEN + count]
    for k in range(1, LOOKAHEAD):
        worst = np.maximum(worst, labels[WINDOW_LEN + k : WINDOW_LEN + k + count])
    return SlipWindows(frame_windows(frames, count), worst)


def windows_to_arrays(windows: SlipWindows) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 5, 7) inputs and (n,) integer labels of a window set."""
    return windows.x, windows.y


def class_counts(labels: np.ndarray) -> dict[SlipLabel, int]:
    classes, counts = np.unique(labels, return_counts=True)
    return {SlipLabel(c): n for c, n in zip(classes.tolist(), counts.tolist())}


def oversample(labels: np.ndarray, rng_seed: int) -> np.ndarray:
    """Indices that duplicate minority-class items until every present
    class matches the majority count.

    All originals come first, in order; the top-up draws uniformly with
    replacement from each minority class (in ascending class order),
    seeded for reproducibility.
    """
    if len(labels) == 0:
        raise ValidationError("oversample needs a non-empty window set")
    rng = np.random.default_rng(rng_seed)
    classes, counts = np.unique(labels, return_counts=True)
    majority = int(counts.max())
    picks = [np.arange(len(labels))]
    for label, count in zip(classes.tolist(), counts.tolist()):
        if count < majority:
            members = np.flatnonzero(labels == label)
            picks.append(members[rng.integers(0, count, size=majority - count)])
    return np.concatenate(picks)


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
    # count * ratio is never negative, so half away from zero is half up
    train = tuple(math.floor(c * ratio + 0.5) for c in counts)
    val = tuple(c - t for c, t in zip(counts, train))
    return train, val


def stratified_split(labels: np.ndarray, ratio: float, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train and validation indices of a label vector, split per class
    after a seeded within-class shuffle.

    Classes are taken in ascending order, each class's members in input
    order are shuffled by one permutation, and sizes follow
    stratified_split_counts; every index lands on exactly one side.
    """
    classes, counts = np.unique(labels, return_counts=True)
    train_counts, _ = stratified_split_counts(counts.tolist(), ratio)

    rng = np.random.default_rng(rng_seed)
    train: list[int] = []
    val: list[int] = []
    for label, n_train in zip(classes.tolist(), train_counts):
        members = np.flatnonzero(labels == label)
        shuffled = members[rng.permutation(len(members))].tolist()
        train.extend(shuffled[:n_train])
        val.extend(shuffled[n_train:])
    return np.array(train, dtype=np.intp), np.array(val, dtype=np.intp)


def prepare_splits(
    windows: SlipWindows,
    ratio: float,
    rng_seed: int,
    oversample_first: bool = False,
) -> tuple[SlipWindows, SlipWindows]:
    """Balanced train set plus untouched validation set.

    Default order splits first and oversamples only the training side, so
    duplicated windows can never leak into validation. With
    oversample_first the whole set is balanced before splitting,
    replicating pipelines that balance up front.
    """
    if oversample_first:
        balanced = oversample(windows.y, rng_seed)
        train, val = stratified_split(windows.y[balanced], ratio, rng_seed)
        return windows.take(balanced[train]), windows.take(balanced[val])
    train, val = stratified_split(windows.y, ratio, rng_seed)
    return windows.take(train[oversample(windows.y[train], rng_seed)]), windows.take(val)


# SlipData CSV: one frame per row, grouped by episode.
SLIP_CSV_HEADER = ("episode_id", "frame_id", *FEATURE_ORDER, "label")


def write_slip_csv(path: str | Path, episodes: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> None:
    """Episodes of (episode_id, (n, 7) frames, (n,) labels) as SlipData rows."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLIP_CSV_HEADER)
        for episode_id, frames, labels in episodes:
            for frame_id, (row, label) in enumerate(zip(frames.tolist(), labels.tolist())):
                writer.writerow([episode_id, frame_id, *map(repr, row), label])


def read_slip_csv(path: str | Path) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Read a SlipData file back into per-episode (n, 7) frame arrays and
    (n,) int64 label vectors.

    Frames of one episode must be contiguous and in frame_id order;
    violations are rejected rather than silently reordered. Once every
    row has parsed, the first frame that breaks the feature contract
    (first_bad_frame) is reported by its line.
    """
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[SlipLabel] = []
    starts: list[tuple[int, int]] = []  # (episode_id, index of its first row)
    seen: set[int] = set()
    linenos: list[int] = []
    for lineno, rec in csv_records(path, SLIP_CSV_HEADER):
        try:
            episode_id = int(rec["episode_id"])
            frame_id = int(rec["frame_id"])
            row = [float(rec[name]) for name in FEATURE_ORDER]
            label = SlipLabel(int(rec["label"]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
        if not starts or episode_id != starts[-1][0]:
            if episode_id in seen:
                raise ValidationError(f"{path}: episode {episode_id} is not contiguous (line {lineno})")
            seen.add(episode_id)
            starts.append((episode_id, len(rows)))
        if frame_id != len(rows) - starts[-1][1]:
            raise ValidationError(f"{path}: frame_id out of order in episode {episode_id} (line {lineno})")
        rows.append(row)
        labels.append(label)
        linenos.append(lineno)
    frames = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_ORDER))
    bad = first_bad_frame(frames)
    if bad is not None:
        row_index, problem = bad
        raise ValidationError(f"{path}: bad row at line {linenos[row_index]}: {problem}")
    y = np.array(labels, dtype=np.int64)
    ends = [first for _, first in starts[1:]] + [len(rows)]
    return [(episode_id, frames[a:b], y[a:b]) for (episode_id, a), b in zip(starts, ends)]


def windows_from_slip_csv(path: str | Path) -> SlipWindows:
    """Windows built per episode so no window spans an episode boundary."""
    parts = [build_windows(frames, labels) for _, frames, labels in read_slip_csv(path)]
    x = np.concatenate([p.x for p in parts] or [np.empty((0, WINDOW_LEN, len(FEATURE_ORDER)))])
    y = np.concatenate([p.y for p in parts] or [np.empty(0, dtype=np.int64)])
    return SlipWindows(x, y)
