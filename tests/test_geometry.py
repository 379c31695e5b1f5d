"""Compensation-rule tests, including a full replay of the bundled audit log."""

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard.errors import ValidationError, csv_records, require_finite
from harvest_guard.geometry import (
    CompensationParams,
    RECORD_COLUMNS,
    compensate_row,
    compensated_point,
    mean_abs_error,
    needs_compensation,
    read_alignment_csv,
    write_records_csv,
)

from conftest import ALIGNMENT_CSV

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def _row(**cells):
    """An audit row as read_alignment_csv returns it: unlisted columns are None."""
    return dict(dict.fromkeys(RECORD_COLUMNS), **cells)


def test_relative_error_is_picking_minus_effector():
    record = compensate_row(_row(xs=709.0, ys=221.0, zs=706.0, xe=686.0, ye=225.0, ze=647.0), CompensationParams())
    assert (record["dx"], record["dy"]) == (23, -4)


def test_threshold_is_strict():
    params = CompensationParams()
    assert not needs_compensation(10.0, 0.0, params)
    assert not needs_compensation(0.0, -10.0, params)
    assert needs_compensation(10.1, 0.0, params)
    assert needs_compensation(0.0, -10.1, params)


def test_both_modes_share_the_trigger():
    # the per-axis mode is gone; the trigger it shared with the either-axis
    # rule stays: either axis over the tolerance trips it
    params = CompensationParams()
    for dx, dy, over in ((10.0, -10.0, False), (10.1, 0.0, True), (0.0, -10.1, True), (12.0, 11.0, True)):
        assert needs_compensation(dx, dy, params) is over


def test_default_gains_halve_y_correction():
    assert compensated_point(709.0, 221.0, 23.0, -4.0, CompensationParams()) == (732.0, 219.0)


def test_either_axis_mode_corrects_both():
    assert compensated_point(100.0, 200.0, 12.0, 5.0, CompensationParams()) == (112.0, 202.5)


def test_mean_abs_error():
    assert mean_abs_error([3.0, -4.0, 5.0]) == pytest.approx(4.0)
    with pytest.raises(ValidationError):
        mean_abs_error([])


def test_mean_abs_error_of_values_whose_sum_overflows():
    # the plain sum of these is inf; the mean is finite
    assert mean_abs_error([1.7e308, -1.7e308]) == 1.7e308
    assert mean_abs_error([1.7976931348623157e308] * 3) == 1.7976931348623157e308
    # sums that stay in range keep the plain sum's bits, subnormals included
    assert mean_abs_error([5e-324]) == 5e-324
    assert mean_abs_error([5.1, 5.19]) == (5.1 + 5.19) / 2


def test_non_finite_values_are_rejected_by_name(tmp_path):
    nan, inf = float("nan"), float("inf")
    trials = tmp_path / "trials.csv"
    for row, problem in (
        ("nan,221,706,686,225,647,,", "xs must be finite, got nan"),
        ("709,221,706,686,225,647,22,inf", "dy must be finite, got inf"),
        ("1e308,221,706,-1e308,225,647,,", r"xs - xe must be finite, got inf"),
        ("709,-1e308,706,686,1e308,647,,", r"ys - ye must be finite, got -inf"),
    ):
        trials.write_text(f"xs,ys,zs,xe,ye,ze,dx,dy\n{row}\n")
        with pytest.raises(ValidationError, match=rf"^{trials}: bad row at line 2: {problem}$"):
            read_alignment_csv(trials)
    with pytest.raises(ValidationError, match=r"^k_x must be finite, got nan$"):
        CompensationParams(k_x=nan)
    with pytest.raises(ValidationError, match=r"^values\[1\] must be finite, got -inf$"):
        mean_abs_error([1.0, -inf])


@pytest.mark.parametrize("row,params,problem", [
    (_row(xs=400.0, ys=300.0, zs=0.0, xe=380.0, ye=300.0, ze=0.0), CompensationParams(k_x=1e308),
     "x_ce must be finite, got inf"),
    (_row(xs=0.0, ys=0.0, zs=0.0, xe=-20.0, ye=0.0, ze=0.0, dx_w=-1.7e308, dy_w=0.0), CompensationParams(k_x=2.5e306),
     "e_x must be finite, got -inf"),
], ids=["corrected-point", "residual"])
def test_a_correction_that_overflows_names_its_column(row, params, problem):
    with pytest.raises(ValidationError, match=f"^{problem}$"):
        compensate_row(row, params)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        CompensationParams(threshold_t=0.0)
    with pytest.raises(ValidationError):
        CompensationParams(k_x=-0.1)


@given(x=finite, y=finite, z=finite, dx=finite, dy=finite)
def test_z_is_never_corrected(x, y, z, dx, dy):
    record = compensate_row(_row(xs=x, ys=y, zs=z, xe=x - dx, ye=y - dy, ze=0.0), CompensationParams())
    assert record["zs"] == z
    assert record["z_ce"] == (None if record["x_ce"] is None else z)


@given(
    x=finite,
    y=finite,
    dx=st.floats(min_value=-10.0, max_value=10.0),
    dy=st.floats(min_value=-10.0, max_value=10.0),
)
def test_within_tolerance_is_identity(x, y, dx, dy):
    assert compensated_point(x, y, dx, dy, CompensationParams()) == (x, y)


@given(dx=finite, dy=finite)
def test_either_mode_moves_both_axes_or_neither(dx, dy):
    params = CompensationParams()
    p = compensated_point(50.0, 60.0, dx, dy, params)
    if needs_compensation(dx, dy, params):
        assert p == (50.0 + params.k_x * dx, 60.0 + params.k_y * dy)
    else:
        assert p == (50.0, 60.0)


def _listed_targets():
    """Raw compensated-point columns straight out of the bundled log."""
    with ALIGNMENT_CSV.open(newline="") as fh:
        filtered = (line for line in fh if not line.startswith("#"))
        rows = list(csv.DictReader(filtered))
    out = []
    for rec in rows:
        if rec["x_ce"] == "":
            out.append(None)
        else:
            out.append((float(rec["x_ce"]), float(rec["y_ce"]), float(rec["z_ce"])))
    return out


def test_alignment_log_replay_matches_listed_points():
    rows = read_alignment_csv(ALIGNMENT_CSV)
    assert [lineno for lineno, _ in rows] == list(range(10, 30))
    records = [compensate_row(row, CompensationParams()) for _, row in rows]
    listed = _listed_targets()

    compensated = [r for r in records if r["x_ce"] is not None]
    assert len(compensated) == 17
    assert [i for i, r in enumerate(records) if r["x_ce"] is None] == [7, 10, 18]

    for rec, target in zip(records, listed):
        if target is None:
            assert rec["x_ce"] is None
            continue
        assert rec["x_ce"] is not None
        assert abs(rec["x_ce"] - target[0]) <= 1.0
        assert abs(rec["y_ce"] - target[1]) <= 1.0
        assert rec["z_ce"] == target[2]


def test_alignment_log_error_means():
    records = [compensate_row(row, CompensationParams()) for _, row in read_alignment_csv(ALIGNMENT_CSV)]
    dx = mean_abs_error([r["dx"] for r in records])
    dy = mean_abs_error([r["dy"] for r in records])
    dx_w = mean_abs_error([r["dx_w"] for r in records])
    dy_w = mean_abs_error([r["dy_w"] for r in records])
    e_x = mean_abs_error([r["e_x"] for r in records if r["e_x"] is not None])
    e_y = mean_abs_error([r["e_y"] for r in records if r["e_y"] is not None])
    assert dx == pytest.approx(14.07, abs=0.01)
    assert dy == pytest.approx(8.64, abs=0.01)
    assert dx_w == pytest.approx(11.52, abs=0.01)
    assert dy_w == pytest.approx(5.15, abs=0.01)
    assert e_x == pytest.approx(3.12, abs=0.01)
    assert e_y == pytest.approx(4.11, abs=0.01)


def test_records_csv_round_trip(tmp_path):
    records = [compensate_row(row, CompensationParams()) for _, row in read_alignment_csv(ALIGNMENT_CSV)]
    out = tmp_path / "records.csv"
    write_records_csv(records, out)
    with out.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert tuple(header) == RECORD_COLUMNS
    assert len(body) == 20

    again = tmp_path / "records2.csv"
    write_records_csv(records, again)
    assert out.read_bytes() == again.read_bytes()

    # a record file carries every input column, so it re-ingests cleanly
    reread = read_alignment_csv(out)
    assert len(reread) == 20
    assert compensate_row(reread[0][1], CompensationParams())["x_ce"] is not None


def test_read_alignment_csv_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("xs,ys,zs\n1,2,3\n")
    with pytest.raises(ValidationError):
        read_alignment_csv(bad)


def test_read_alignment_csv_reports_bad_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("xs,ys,zs,xe,ye,ze\n1,2,3,4,5,6\n1,oops,3,4,5,6\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_alignment_csv(bad)


def test_read_alignment_csv_missing_file():
    with pytest.raises(OSError):
        read_alignment_csv("/nonexistent/alignment.csv")


# --- audit oracle ----------------------------------------------------------
# Reference: the dataclass-based audit, verbatim apart from the names. The
# dict version must give equal record cells and equal record-file bytes.

@dataclass(frozen=True)
class _RefArmPoint3:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        require_finite(x=self.x, y=self.y, z=self.z)


@dataclass(frozen=True)
class _RefRelativeError:
    dx: float
    dy: float
    dz: float = 0.0

    def __post_init__(self) -> None:
        require_finite(dx=self.dx, dy=self.dy, dz=self.dz)


@dataclass(frozen=True)
class _RefCompensationRecord:
    picking: _RefArmPoint3
    effector: _RefArmPoint3
    visual_err: _RefRelativeError
    physical_err_x: float | None = None
    physical_err_y: float | None = None
    compensated: _RefArmPoint3 | None = None
    residual_x: float | None = None
    residual_y: float | None = None

    def __post_init__(self) -> None:
        if self.compensated is None and (self.residual_x is not None or self.residual_y is not None):
            raise ValidationError("residuals are only defined when a correction was applied")


@dataclass(frozen=True)
class _RefAlignmentRow:
    picking: _RefArmPoint3
    effector: _RefArmPoint3
    visual_err: tuple[float, float] | None = None
    physical_err: tuple[float, float] | None = None
    measured_residual: tuple[float, float] | None = None


def _ref_relative_error(picking, effector):
    return _RefRelativeError(
        dx=picking.x - effector.x,
        dy=picking.y - effector.y,
        dz=picking.z - effector.z,
    )


def _ref_axes_to_correct(err, params):
    t = params.threshold_t
    trigger = abs(err.dx) > t or abs(err.dy) > t
    return trigger, trigger


def _ref_corrected(picking, err, params, fix):
    fix_x, fix_y = fix
    return _RefArmPoint3(
        x=picking.x + params.k_x * err.dx if fix_x else picking.x,
        y=picking.y + params.k_y * err.dy if fix_y else picking.y,
        z=picking.z,
    )


def _ref_compensate_row(row, params):
    err = _ref_relative_error(row.picking, row.effector)
    vis_x, vis_y = row.visual_err if row.visual_err is not None else (err.dx, err.dy)
    reported = _RefRelativeError(vis_x, vis_y)
    phys_x, phys_y = row.physical_err if row.physical_err is not None else (None, None)

    fix_x, fix_y = _ref_axes_to_correct(err, params)
    if not (fix_x or fix_y):
        return _RefCompensationRecord(
            picking=row.picking,
            effector=row.effector,
            visual_err=reported,
            physical_err_x=phys_x,
            physical_err_y=phys_y,
        )

    corrected = _ref_corrected(row.picking, err, params, (fix_x, fix_y))
    if row.measured_residual is not None:
        residual_x, residual_y = row.measured_residual
    else:
        base_x = phys_x if phys_x is not None else err.dx
        base_y = phys_y if phys_y is not None else err.dy
        residual_x = base_x - (params.k_x * err.dx if fix_x else 0.0)
        residual_y = base_y - (params.k_y * err.dy if fix_y else 0.0)
    return _RefCompensationRecord(
        picking=row.picking,
        effector=row.effector,
        visual_err=reported,
        physical_err_x=phys_x,
        physical_err_y=phys_y,
        compensated=corrected,
        residual_x=residual_x,
        residual_y=residual_y,
    )


def _ref_read_alignment_csv(path):
    path = Path(path)
    rows = []

    def pair(rec, a, b):
        if rec.get(a, "") != "" and rec.get(b, "") != "":
            x, y = float(rec[a]), float(rec[b])
            require_finite(**{a: x, b: y})
            return (x, y)
        return None

    for lineno, rec in csv_records(path, ("xs", "ys", "zs", "xe", "ye", "ze")):
        try:
            picking = _RefArmPoint3(float(rec["xs"]), float(rec["ys"]), float(rec["zs"]))
            effector = _RefArmPoint3(float(rec["xe"]), float(rec["ye"]), float(rec["ze"]))
            visual = pair(rec, "dx", "dy")
            physical = pair(rec, "dx_w", "dy_w")
            residual = pair(rec, "e_x", "e_y")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad row at line {lineno}: {exc}") from exc
        rows.append(
            _RefAlignmentRow(
                picking=picking,
                effector=effector,
                visual_err=visual,
                physical_err=physical,
                measured_residual=residual,
            )
        )
    return rows


def _ref_fmt(value):
    if value is None:
        return ""
    return format(value, ".3f").rstrip("0").rstrip(".")


def _ref_write_records_csv(records, fh):
    writer = csv.writer(fh)
    writer.writerow(RECORD_COLUMNS)
    for r in records:
        comp = r.compensated
        writer.writerow([
            _ref_fmt(r.picking.x), _ref_fmt(r.picking.y), _ref_fmt(r.picking.z),
            _ref_fmt(r.effector.x), _ref_fmt(r.effector.y), _ref_fmt(r.effector.z),
            _ref_fmt(r.visual_err.dx), _ref_fmt(r.visual_err.dy),
            _ref_fmt(r.physical_err_x), _ref_fmt(r.physical_err_y),
            _ref_fmt(comp.x if comp else None), _ref_fmt(comp.y if comp else None),
            _ref_fmt(comp.z if comp else None),
            _ref_fmt(r.residual_x), _ref_fmt(r.residual_y),
        ])


def _ref_cells(r):
    """The reference record's cells, keyed as the record CSV names them."""
    comp = r.compensated
    return dict(zip(RECORD_COLUMNS, (
        r.picking.x, r.picking.y, r.picking.z,
        r.effector.x, r.effector.y, r.effector.z,
        r.visual_err.dx, r.visual_err.dy,
        r.physical_err_x, r.physical_err_y,
        comp.x if comp else None, comp.y if comp else None, comp.z if comp else None,
        r.residual_x, r.residual_y,
    )))


_AUDIT_PARAMS = [CompensationParams(), CompensationParams(k_x=0.8, k_y=0.7, threshold_t=7.0)]


def _assert_audit_matches(records, ref_records, out):
    assert records == [_ref_cells(r) for r in ref_records]
    for r in records:
        # the residuals exist exactly when a correction was applied, and z is never corrected
        assert (r["e_x"] is None) == (r["e_y"] is None) == (r["x_ce"] is None) == (r["z_ce"] is None)
        assert r["z_ce"] in (None, r["zs"])
    write_records_csv(records, out)
    expected = io.StringIO(newline="")
    _ref_write_records_csv(ref_records, expected)
    assert out.read_bytes() == expected.getvalue().encode()


def test_compensate_matches_dataclass_reference(tmp_path):
    stale_residuals = 0  # re-ingested rows with a listed residual that the new values leave uncorrected
    for params in _AUDIT_PARAMS:
        first = tmp_path / "records.csv"
        _assert_audit_matches(
            [compensate_row(row, params) for _, row in read_alignment_csv(ALIGNMENT_CSV)],
            [_ref_compensate_row(row, params) for row in _ref_read_alignment_csv(ALIGNMENT_CSV)],
            first,
        )
        for again in _AUDIT_PARAMS:
            rows = [row for _, row in read_alignment_csv(first)]
            records = [compensate_row(row, again) for row in rows]
            _assert_audit_matches(
                records,
                [_ref_compensate_row(row, again) for row in _ref_read_alignment_csv(first)],
                tmp_path / "again.csv",
            )
            stale_residuals += sum(row["e_x"] is not None and r["x_ce"] is None for row, r in zip(rows, records))
    assert stale_residuals > 0


_pair = st.one_of(st.none(), st.tuples(finite, finite))
_offset = st.floats(min_value=-25.0, max_value=25.0)


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("audit-oracle")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    picking=st.tuples(finite, finite, finite),
    offset=st.tuples(_offset, _offset, _offset),
    visual=_pair,
    physical=_pair,
    residual=_pair,
    params=st.sampled_from(_AUDIT_PARAMS),
)
def test_compensate_matches_dataclass_reference_on_any_row(oracle_dir, picking, offset, visual, physical, residual, params):
    effector = tuple(p - o for p, o in zip(picking, offset))
    row = _row(**dict(zip(("xs", "ys", "zs", "xe", "ye", "ze"), picking + effector)))
    for names, value in ((("dx", "dy"), visual), (("dx_w", "dy_w"), physical), (("e_x", "e_y"), residual)):
        if value is not None:
            row.update(zip(names, value))
    ref_row = _RefAlignmentRow(_RefArmPoint3(*picking), _RefArmPoint3(*effector), visual, physical, residual)
    _assert_audit_matches([compensate_row(row, params)], [_ref_compensate_row(ref_row, params)], oracle_dir / "r.csv")
