"""Gripper-to-picking-point error compensation in the robot-arm frame.

The approach stage leaves the end-effector somewhere beneath the target
fruit. Both positions are observed in the same camera view and expressed
in the robot-arm frame (millimetres), so the offset between them can be
measured directly and, when it exceeds the tolerance on either axis, used
to command a corrected picking point. Only x and y are corrected, both
at once; the snap-off motion deliberately overshoots in z, so the
vertical offset is left alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError, csv_records, require_finite


@dataclass(frozen=True)
class CompensationParams:
    """Tolerance and gains for the correction step.

    threshold_t is the per-axis tolerance in mm. k_x and k_y scale the
    measured error before it is added to the commanded point.
    """

    threshold_t: float = 10.0
    k_x: float = 1.0
    k_y: float = 0.5

    def __post_init__(self) -> None:
        require_finite(threshold_t=self.threshold_t, k_x=self.k_x, k_y=self.k_y)
        if self.threshold_t <= 0:
            raise ValidationError(f"threshold_t must be > 0, got {self.threshold_t}")
        if self.k_x < 0 or self.k_y < 0:
            raise ValidationError("gains k_x, k_y must be non-negative")


def needs_compensation(dx: float, dy: float, params: CompensationParams) -> bool:
    """The one compensation rule: whether the measured x/y offset exceeds
    the tolerance on either axis, |dx| > T or |dy| > T. When it does, both
    x and y are corrected."""
    t = params.threshold_t
    return abs(dx) > t or abs(dy) > t


def compensated_point(x: float, y: float, dx: float, dy: float, params: CompensationParams) -> tuple[float, float]:
    """The corrected picking point (x_c, y_c) for a measured offset.

    When the offset trips the rule, each axis moves by its gain times the
    measured offset: x_c = x + k_x * dx and y_c = y + k_y * dy. z is never
    corrected, so it is not an argument. Otherwise (x, y) is returned
    unchanged.
    """
    if not needs_compensation(dx, dy, params):
        return x, y
    return x + params.k_x * dx, y + params.k_y * dy


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


def read_alignment_csv(path: str | Path) -> list[tuple[int, dict[str, float | None]]]:
    """Read audit input rows as (file line, row), each row a dict keyed by
    RECORD_COLUMNS.

    Header must contain xs,ys,zs,xe,ye,ze. Each of the pairs dx/dy
    (listed visual offset), dx_w/dy_w (ground-truth offset) and e_x/e_y
    (measured residual) is read only when both its cells are non-empty;
    every column not read holds None, x_ce,y_ce,z_ce included, so a full
    record file can be re-ingested. Every value read must be finite, and
    so must the offsets xs - xe and ys - ye the rule is fed. Lines
    starting with '#' are comments.
    """
    path = Path(path)
    rows: list[tuple[int, dict[str, float | None]]] = []
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
        rows.append((lineno, row))
    return rows


def compensate_row(row: dict[str, float | None], params: CompensationParams) -> dict[str, float | None]:
    """Audit one approach: measure the offset and apply the correction rule.

    Returns the row's record, a new dict over RECORD_COLUMNS. The offset
    fed to the rule is the coordinate difference (xs - xe, ys - ye). The
    reported dx,dy keep the row's listed values (logged at finer
    precision than the rounded coordinates) and otherwise take that
    difference. When the rule does not trip, x_ce,y_ce,z_ce and e_x,e_y
    are None. Otherwise z_ce is zs, and the residuals come from the
    row's listed e_x,e_y when present; else they are predicted as the
    best-known pre-correction offset (dx_w,dy_w, or the difference)
    minus the applied correction. A corrected point or residual that
    overflows raises ValidationError naming its column.
    """
    xs, ys = row["xs"], row["ys"]
    dx, dy = xs - row["xe"], ys - row["ye"]
    record = dict(row, x_ce=None, y_ce=None, z_ce=None, e_x=None, e_y=None)
    if row["dx"] is None:
        record["dx"], record["dy"] = dx, dy
    if not needs_compensation(dx, dy, params):
        return record
    record["x_ce"], record["y_ce"] = compensated_point(xs, ys, dx, dy, params)
    record["z_ce"] = row["zs"]
    if row["e_x"] is not None:
        record["e_x"], record["e_y"] = row["e_x"], row["e_y"]
    else:
        base_x = dx if row["dx_w"] is None else row["dx_w"]
        base_y = dy if row["dy_w"] is None else row["dy_w"]
        record["e_x"] = base_x - params.k_x * dx
        record["e_y"] = base_y - params.k_y * dy
    require_finite(**{c: record[c] for c in ("x_ce", "y_ce", "e_x", "e_y")})
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
