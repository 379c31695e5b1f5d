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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError, csv_records, require_finite


@dataclass(frozen=True)
class ArmPoint3:
    """A 3D position in the robot-arm frame, in millimetres.

    All geometry in this module lives in this single frame; the API never
    mixes frames, so no frame tag is carried.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        require_finite(x=self.x, y=self.y, z=self.z)


@dataclass(frozen=True)
class RelativeError:
    """Componentwise offset picking-point minus end-effector, in mm."""

    dx: float
    dy: float
    dz: float = 0.0

    def __post_init__(self) -> None:
        require_finite(dx=self.dx, dy=self.dy, dz=self.dz)


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


@dataclass(frozen=True)
class CompensationRecord:
    """One audited approach: measured errors plus the applied correction.

    ``compensated`` is None exactly when no axis exceeded the tolerance
    (per the active mode); residuals are present only when a correction
    was applied. In a static audit the residuals are the predicted
    remaining offset after the corrective move; the simulator overwrites
    them with the offset it actually observes.
    """

    picking: ArmPoint3
    effector: ArmPoint3
    visual_err: RelativeError
    physical_err_x: float | None = None
    physical_err_y: float | None = None
    compensated: ArmPoint3 | None = None
    residual_x: float | None = None
    residual_y: float | None = None

    def __post_init__(self) -> None:
        if self.compensated is None and (self.residual_x is not None or self.residual_y is not None):
            raise ValidationError("residuals are only defined when a correction was applied")


@dataclass(frozen=True)
class AlignmentRow:
    """One input row for the compensation audit.

    Beyond the two logged positions, a row may carry the values the
    original log listed alongside them: the vision-measured offset
    (``visual_err``, often logged at finer precision than the rounded
    coordinates), the independently measured ground-truth offset before
    compensation (``physical_err``), and the ground-truth offset measured
    again after the corrective move (``measured_residual``). Listed
    values are carried through to the record verbatim; only the
    coordinates drive the correction rule itself.
    """

    picking: ArmPoint3
    effector: ArmPoint3
    visual_err: tuple[float, float] | None = None
    physical_err: tuple[float, float] | None = None
    measured_residual: tuple[float, float] | None = None


def relative_error(picking: ArmPoint3, effector: ArmPoint3) -> RelativeError:
    """Offset of the picking point relative to the end-effector.

    Componentwise picking minus effector, both in the robot-arm frame.
    """
    return RelativeError(
        dx=picking.x - effector.x,
        dy=picking.y - effector.y,
        dz=picking.z - effector.z,
    )


def needs_compensation(err: RelativeError, params: CompensationParams) -> bool:
    """Whether the measured x/y offset exceeds the tolerance on either
    axis, |dx| > T or |dy| > T. Both modes share this test; they differ
    only in which axes compensated_point then corrects."""
    return any(_axes_to_correct(err, params))


def _axes_to_correct(err: RelativeError, params: CompensationParams) -> tuple[bool, bool]:
    t = params.threshold_t
    over_x = abs(err.dx) > t
    over_y = abs(err.dy) > t
    if params.mode is CompensationMode.EITHER_AXIS_BOTH:
        trigger = over_x or over_y
        return trigger, trigger
    return over_x, over_y


def _corrected(picking: ArmPoint3, err: RelativeError, params: CompensationParams, fix: tuple[bool, bool]) -> ArmPoint3:
    fix_x, fix_y = fix
    return ArmPoint3(
        x=picking.x + params.k_x * err.dx if fix_x else picking.x,
        y=picking.y + params.k_y * err.dy if fix_y else picking.y,
        z=picking.z,
    )


def compensated_point(picking: ArmPoint3, err: RelativeError, params: CompensationParams) -> ArmPoint3:
    """The corrected picking point for a measured error.

    Each corrected axis moves by its gain times the measured error:
    x_c = x_p + k_x * dx (when the mode applies an x correction, else
    x_p), y_c analogously with k_y. z is never touched. If no axis
    triggers, the picking point is returned unchanged.
    """
    return _corrected(picking, err, params, _axes_to_correct(err, params))


def mean_abs_error(values: Sequence[float]) -> float:
    """Arithmetic mean of absolute values. Rejects an empty sequence."""
    if len(values) == 0:
        raise ValidationError("mean_abs_error needs at least one value")
    require_finite(**{f"values[{i}]": v for i, v in enumerate(values)})
    return sum(abs(v) for v in values) / len(values)


def compensate_row(row: AlignmentRow, params: CompensationParams) -> CompensationRecord:
    """Audit one approach: measure the error and apply the correction rule.

    The error fed to the correction is the coordinate difference between
    the logged picking point and effector position. The reported visual
    error prefers the row's listed measurement (logged at finer precision
    than the rounded coordinates) when one is present. Residuals come
    from the row's post-correction measurement when available; otherwise
    they are predicted as the best-known pre-correction error minus the
    applied correction.
    """
    err = relative_error(row.picking, row.effector)
    vis_x, vis_y = row.visual_err if row.visual_err is not None else (err.dx, err.dy)
    reported = RelativeError(vis_x, vis_y)
    phys_x, phys_y = row.physical_err if row.physical_err is not None else (None, None)

    fix_x, fix_y = _axes_to_correct(err, params)
    if not (fix_x or fix_y):
        return CompensationRecord(
            picking=row.picking,
            effector=row.effector,
            visual_err=reported,
            physical_err_x=phys_x,
            physical_err_y=phys_y,
        )

    corrected = _corrected(row.picking, err, params, (fix_x, fix_y))
    if row.measured_residual is not None:
        residual_x, residual_y = row.measured_residual
    else:
        base_x = phys_x if phys_x is not None else err.dx
        base_y = phys_y if phys_y is not None else err.dy
        residual_x = base_x - (params.k_x * err.dx if fix_x else 0.0)
        residual_y = base_y - (params.k_y * err.dy if fix_y else 0.0)
    return CompensationRecord(
        picking=row.picking,
        effector=row.effector,
        visual_err=reported,
        physical_err_x=phys_x,
        physical_err_y=phys_y,
        compensated=corrected,
        residual_x=residual_x,
        residual_y=residual_y,
    )


def compensate_rows(rows: Iterable[AlignmentRow], params: CompensationParams) -> list[CompensationRecord]:
    return [compensate_row(row, params) for row in rows]


# CSV layout shared by the audit input and output. Input needs the first
# six columns; the paired optional columns carry listed log values.
_INPUT_COLUMNS = ("xs", "ys", "zs", "xe", "ye", "ze")
RECORD_COLUMNS = (
    "xs", "ys", "zs", "xe", "ye", "ze",
    "dx", "dy", "dx_w", "dy_w",
    "x_ce", "y_ce", "z_ce", "e_x", "e_y",
)


def read_alignment_csv(path: str | Path) -> list[AlignmentRow]:
    """Read audit input rows.

    Header must contain xs,ys,zs,xe,ye,ze; the pairs dx/dy, dx_w/dy_w and
    e_x/e_y are picked up when present (empty cells mean not measured).
    Every value read must be finite. Extra columns are ignored so a full
    record file can be re-ingested. Lines starting with '#' are comments.
    """
    path = Path(path)
    rows: list[AlignmentRow] = []

    def pair(rec: dict[str, str], a: str, b: str) -> tuple[float, float] | None:
        if rec.get(a, "") != "" and rec.get(b, "") != "":
            x, y = float(rec[a]), float(rec[b])
            require_finite(**{a: x, b: y})
            return (x, y)
        return None

    for lineno, rec in csv_records(path, _INPUT_COLUMNS):
        try:
            picking = ArmPoint3(float(rec["xs"]), float(rec["ys"]), float(rec["zs"]))
            effector = ArmPoint3(float(rec["xe"]), float(rec["ye"]), float(rec["ze"]))
            visual = pair(rec, "dx", "dy")
            physical = pair(rec, "dx_w", "dy_w")
            residual = pair(rec, "e_x", "e_y")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
        rows.append(
            AlignmentRow(
                picking=picking,
                effector=effector,
                visual_err=visual,
                physical_err=physical,
                measured_residual=residual,
            )
        )
    return rows


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".3f").rstrip("0").rstrip(".")


def write_records_csv(records: Iterable[CompensationRecord], path: str | Path) -> None:
    """Emit records with the full audit column set.

    Rows that needed no correction leave the compensated-point and
    residual fields empty.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            comp = r.compensated
            writer.writerow([
                _fmt(r.picking.x), _fmt(r.picking.y), _fmt(r.picking.z),
                _fmt(r.effector.x), _fmt(r.effector.y), _fmt(r.effector.z),
                _fmt(r.visual_err.dx), _fmt(r.visual_err.dy),
                _fmt(r.physical_err_x), _fmt(r.physical_err_y),
                _fmt(comp.x if comp else None), _fmt(comp.y if comp else None),
                _fmt(comp.z if comp else None),
                _fmt(r.residual_x), _fmt(r.residual_y),
            ])
