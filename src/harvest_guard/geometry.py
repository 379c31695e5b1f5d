"""Gripper-to-picking-point error compensation in the robot-arm frame.

The approach stage leaves the end-effector somewhere beneath the target
fruit. Both positions are observed in the same camera view and expressed
in the robot-arm frame (millimetres), so the offset between them can be
measured directly and, when it exceeds the tolerance, used to command a
corrected picking point. Only x and y are corrected; the snap-off motion
deliberately overshoots in z, so the vertical offset is left alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError, csv_records, require_finite


class CompensationMode(Enum):
    """How the per-axis tolerance check gates the applied correction.

    PER_AXIS corrects each axis independently, exactly when that axis
    exceeds the tolerance. EITHER_AXIS_BOTH corrects both x and y as soon
    as either exceeds it; field alignment logs show both axes being
    corrected together, so this is the default.
    """

    PER_AXIS = "per-axis"
    EITHER_AXIS_BOTH = "either"


@dataclass(frozen=True)
class CompensationParams:
    """Tolerance and gains for the correction step.

    threshold_t is the per-axis tolerance in mm. k_x and k_y scale the
    measured error before it is added to the commanded point.
    """

    threshold_t: float = 10.0
    k_x: float = 1.0
    k_y: float = 0.5
    mode: CompensationMode = CompensationMode.EITHER_AXIS_BOTH

    def __post_init__(self) -> None:
        require_finite(threshold_t=self.threshold_t, k_x=self.k_x, k_y=self.k_y)
        if self.threshold_t <= 0:
            raise ValidationError(f"threshold_t must be > 0, got {self.threshold_t}")
        if self.k_x < 0 or self.k_y < 0:
            raise ValidationError("gains k_x, k_y must be non-negative")


def _axes_to_correct(dx: float, dy: float, params: CompensationParams) -> tuple[bool, bool]:
    """The one compensation rule: which of x and y a measured offset
    (dx, dy) corrects, given the tolerance and mode."""
    t = params.threshold_t
    over_x = abs(dx) > t
    over_y = abs(dy) > t
    if params.mode is CompensationMode.EITHER_AXIS_BOTH:
        trigger = over_x or over_y
        return trigger, trigger
    return over_x, over_y


def needs_compensation(dx: float, dy: float, params: CompensationParams) -> bool:
    """Whether the measured x/y offset exceeds the tolerance on either
    axis, |dx| > T or |dy| > T. Both modes share this test; they differ
    only in which axes compensated_point then corrects."""
    return any(_axes_to_correct(dx, dy, params))


def compensated_point(x: float, y: float, dx: float, dy: float, params: CompensationParams) -> tuple[float, float]:
    """The corrected picking point (x_c, y_c) for a measured offset.

    Each corrected axis moves by its gain times the measured offset:
    x_c = x + k_x * dx when the mode applies an x correction, else x;
    y_c analogously with k_y. z is never corrected, so it is not an
    argument. If no axis triggers, (x, y) is returned unchanged.
    """
    fix_x, fix_y = _axes_to_correct(dx, dy, params)
    return (x + params.k_x * dx if fix_x else x, y + params.k_y * dy if fix_y else y)


def mean_abs_error(values: Sequence[float]) -> float:
    """Arithmetic mean of absolute values. Rejects an empty sequence."""
    n = len(values)
    if n == 0:
        raise ValidationError("mean_abs_error needs at least one value")
    require_finite(**{f"values[{i}]": v for i, v in enumerate(values)})
    total = sum(abs(v) for v in values)
    if math.isinf(total):  # the sum overflows: add the values scaled by 2^-k < 1/n instead
        k = n.bit_length()
        return math.ldexp(sum(math.ldexp(abs(v), -k) for v in values) / n, k)
    return total / n


# CSV layout shared by the audit input and output. Input needs the first
# six columns; the paired optional columns carry listed log values.
_PICKING = ("xs", "ys", "zs")
_EFFECTOR = ("xe", "ye", "ze")
_LISTED_PAIRS = (("dx", "dy"), ("dx_w", "dy_w"), ("e_x", "e_y"))
RECORD_COLUMNS = (
    *_PICKING, *_EFFECTOR,
    "dx", "dy", "dx_w", "dy_w",
    "x_ce", "y_ce", "z_ce", "e_x", "e_y",
)


def read_alignment_csv(path: str | Path) -> list[dict[str, float | None]]:
    """Read audit input rows, each a dict keyed by RECORD_COLUMNS.

    Header must contain xs,ys,zs,xe,ye,ze. Each of the pairs dx/dy
    (listed visual offset), dx_w/dy_w (ground-truth offset) and e_x/e_y
    (measured residual) is read only when both its cells are non-empty;
    every column not read holds None, x_ce,y_ce,z_ce included, so a full
    record file can be re-ingested. Every value read must be finite, and
    so must the offsets xs - xe and ys - ye the rule is fed. Lines
    starting with '#' are comments.
    """
    path = Path(path)
    rows: list[dict[str, float | None]] = []
    for lineno, rec in csv_records(path, (*_PICKING, *_EFFECTOR)):
        row: dict[str, float | None] = dict.fromkeys(RECORD_COLUMNS)
        try:
            for names in (_PICKING, _EFFECTOR, *_LISTED_PAIRS):
                if names in _LISTED_PAIRS and "" in (rec.get(c, "") for c in names):
                    continue  # a pair with an empty cell was not measured
                values = {c: float(rec[c]) for c in names}
                require_finite(**values)
                row.update(values)
            require_finite(**{"xs - xe": row["xs"] - row["xe"], "ys - ye": row["ys"] - row["ye"]})
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
        rows.append(row)
    return rows


def compensate_row(row: dict[str, float | None], params: CompensationParams) -> dict[str, float | None]:
    """Audit one approach: measure the offset and apply the correction rule.

    Returns the row's record, a new dict over RECORD_COLUMNS. The offset
    fed to the rule is the coordinate difference (xs - xe, ys - ye). The
    reported dx,dy keep the row's listed values (logged at finer
    precision than the rounded coordinates) and otherwise take that
    difference. When no axis is corrected, x_ce,y_ce,z_ce and e_x,e_y
    are None. Otherwise z_ce is zs, and the residuals come from the
    row's listed e_x,e_y when present; else they are predicted as the
    best-known pre-correction offset (dx_w,dy_w, or the difference)
    minus the applied correction.
    """
    xs, ys = row["xs"], row["ys"]
    dx, dy = xs - row["xe"], ys - row["ye"]
    record = dict(row, x_ce=None, y_ce=None, z_ce=None, e_x=None, e_y=None)
    if row["dx"] is None:
        record["dx"], record["dy"] = dx, dy
    fix_x, fix_y = _axes_to_correct(dx, dy, params)
    if not (fix_x or fix_y):
        return record
    record["x_ce"], record["y_ce"] = compensated_point(xs, ys, dx, dy, params)
    record["z_ce"] = row["zs"]
    if row["e_x"] is not None:
        record["e_x"], record["e_y"] = row["e_x"], row["e_y"]
    else:
        base_x = dx if row["dx_w"] is None else row["dx_w"]
        base_y = dy if row["dy_w"] is None else row["dy_w"]
        record["e_x"] = base_x - (params.k_x * dx if fix_x else 0.0)
        record["e_y"] = base_y - (params.k_y * dy if fix_y else 0.0)
    return record


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".3f").rstrip("0").rstrip(".")


def write_records_csv(records: Iterable[dict[str, float | None]], path: str | Path) -> None:
    """Emit records with the full audit column set; None is an empty cell."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        writer.writerows([_fmt(r[c]) for c in RECORD_COLUMNS] for r in records)
