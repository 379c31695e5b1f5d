"""Evaluation quantities and report files.

Pure functions over counts and sequences: confusion-matrix metrics,
cycle-time aggregates, success rates. Degenerate denominators never
raise; they produce 0.0 so batch reports survive empty classes. Report
writing fixes field order and numeric formatting, so identical results
give byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts; rows are true classes, columns predicted."""

    counts: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        k = len(self.labels)
        if k == 0:
            raise ValidationError("confusion matrix needs at least one class")
        if len(self.counts) != k or any(len(row) != k for row in self.counts):
            raise ValidationError(f"counts must be {k}x{k}")
        if any(c < 0 for row in self.counts for c in row):
            raise ValidationError("counts must be non-negative")

    @classmethod
    def from_pairs(
        cls, true: Sequence[int], pred: Sequence[int], labels: Sequence[str]
    ) -> "ConfusionMatrix":
        if len(true) != len(pred):
            raise ValidationError("true and predicted sequences differ in length")
        k = len(labels)
        m = [[0] * k for _ in range(k)]
        for t, p in zip(true, pred):
            if not (0 <= t < k and 0 <= p < k):
                raise ValidationError(f"class index out of range: ({t}, {p})")
            m[t][p] += 1
        return cls(tuple(tuple(row) for row in m), tuple(labels))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


def confusion_metrics(cm: ConfusionMatrix) -> dict[str, ClassMetrics]:
    """Per-class precision, recall and F1; each is 0.0 where its denominator is."""
    k = len(cm.labels)
    out: dict[str, ClassMetrics] = {}
    for i, label in enumerate(cm.labels):
        tp = cm.counts[i][i]
        fp = sum(cm.counts[r][i] for r in range(k)) - tp
        fn = sum(cm.counts[i]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[label] = ClassMetrics(precision, recall, f1)
    return out


def macro_f1(cm: ConfusionMatrix) -> float:
    per_class = confusion_metrics(cm)
    return sum(m.f1 for m in per_class.values()) / len(per_class)


@dataclass(frozen=True)
class TimingAggregate:
    mean_s: float
    std_s: float
    n: int


def aggregate_cycle_times(totals: Mapping[str, Sequence[float]]) -> dict[str, TimingAggregate]:
    """Summarize each outcome's episode totals (seconds), in sorted outcome
    order, with the sample mean and sample (n-1) standard deviation; a
    single episode reports std 0."""
    out: dict[str, TimingAggregate] = {}
    for outcome in sorted(totals):
        vals = np.array(totals[outcome], dtype=np.float64)
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out[outcome] = TimingAggregate(float(vals.mean()), std, len(vals))
    return out


# canonical condition order for success tallies
CONDITIONS = ("EmptyGrasp", "Misgrasp", "Normal", "Slipping", "Slipped")


@dataclass(frozen=True)
class SuccessTally:
    """Success/failure counts per injected-fault condition."""

    counts: tuple[tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for condition, success, failure in self.counts:
            if condition not in CONDITIONS:
                raise ValidationError(f"unknown condition {condition!r}")
            if condition in seen:
                raise ValidationError(f"condition {condition!r} listed twice")
            seen.add(condition)
            if success < 0 or failure < 0:
                raise ValidationError("counts must be non-negative")


def success_rates(tally: SuccessTally) -> dict[str, Decimal]:
    """success / (success + failure) as a percentage with exactly two
    decimals, rounding halves up (96.875 -> 96.88)."""
    out: dict[str, Decimal] = {}
    for condition, success, failure in tally.counts:
        total = success + failure
        if total < 1:
            raise ValidationError(f"condition {condition!r} has no trials")
        pct = (Decimal(success) * 100 / Decimal(total)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        out[condition] = pct
    return out


# --- report files ------------------------------------------------------

def format_value(key: str, value: object) -> str:
    """Canonical text form. Keys ending in _pct get two decimals; keys
    ending in _s or _mm get three; other floats keep full repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, Decimal):
        if key.endswith("_pct"):
            return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if key.endswith("_pct"):
            return f"{value:.2f}"
        if key.endswith("_s") or key.endswith("_mm"):
            return f"{value:.3f}"
        return repr(value)
    return str(value)


def write_report(path: str | Path, rows: Sequence[Mapping[str, object]]) -> None:
    """Write rows as CSV in the first row's field order, which every row
    must share."""
    path = Path(path)
    fields = list(rows[0].keys()) if rows else []
    for i, row in enumerate(rows):
        if list(row.keys()) != fields:
            raise ValidationError(f"row {i} fields {list(row.keys())} differ from {fields}")
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            if fields:
                writer.writerow(fields)
            for row in rows:
                writer.writerow([format_value(k, row[k]) for k in fields])
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc

