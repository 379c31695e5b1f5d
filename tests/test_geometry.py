"""Compensation-rule tests, including a full replay of the bundled audit log."""

import csv

import pytest
from hypothesis import given, strategies as st

from harvest_guard.errors import ValidationError
from harvest_guard.geometry import (
    AlignmentRow,
    ArmPoint3,
    CompensationMode,
    CompensationParams,
    CompensationRecord,
    RECORD_COLUMNS,
    RelativeError,
    compensate_row,
    compensate_rows,
    compensated_point,
    mean_abs_error,
    needs_compensation,
    read_alignment_csv,
    relative_error,
    write_records_csv,
)

from conftest import ALIGNMENT_CSV

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_relative_error_is_picking_minus_effector():
    err = relative_error(ArmPoint3(709, 221, 706), ArmPoint3(686, 225, 647))
    assert (err.dx, err.dy, err.dz) == (23, -4, 59)


def test_threshold_is_strict():
    params = CompensationParams()
    assert not needs_compensation(RelativeError(10.0, 0.0), params)
    assert not needs_compensation(RelativeError(0.0, -10.0), params)
    assert needs_compensation(RelativeError(10.1, 0.0), params)
    assert needs_compensation(RelativeError(0.0, -10.1), params)


def test_both_modes_share_the_trigger():
    # the modes differ only in which axes they correct
    for mode in CompensationMode:
        params = CompensationParams(mode=mode)
        for dx, dy, over in ((10.0, -10.0, False), (10.1, 0.0, True), (0.0, -10.1, True), (12.0, 11.0, True)):
            assert needs_compensation(RelativeError(dx, dy), params) is over


def test_default_gains_halve_y_correction():
    p = compensated_point(ArmPoint3(709, 221, 706), RelativeError(23, -4), CompensationParams())
    assert (p.x, p.y, p.z) == (732.0, 219.0, 706.0)


def test_per_axis_mode_corrects_only_exceeding_axis():
    params = CompensationParams(mode=CompensationMode.PER_AXIS)
    p = compensated_point(ArmPoint3(100, 200, 300), RelativeError(12, 5), params)
    assert (p.x, p.y, p.z) == (112.0, 200.0, 300.0)


def test_either_axis_mode_corrects_both():
    p = compensated_point(ArmPoint3(100, 200, 300), RelativeError(12, 5), CompensationParams())
    assert (p.x, p.y, p.z) == (112.0, 202.5, 300.0)


def test_mean_abs_error():
    assert mean_abs_error([3.0, -4.0, 5.0]) == pytest.approx(4.0)
    with pytest.raises(ValidationError):
        mean_abs_error([])


def test_non_finite_values_are_rejected_by_name():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValidationError, match=r"^x must be finite, got nan$"):
        ArmPoint3(nan, 0.0, 0.0)
    with pytest.raises(ValidationError, match=r"^dy must be finite, got inf$"):
        RelativeError(0.0, inf)
    with pytest.raises(ValidationError, match=r"^k_x must be finite, got nan$"):
        CompensationParams(k_x=nan)
    with pytest.raises(ValidationError, match=r"^values\[1\] must be finite, got -inf$"):
        mean_abs_error([1.0, -inf])


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        ArmPoint3(float("nan"), 0.0, 0.0)
    with pytest.raises(ValidationError):
        RelativeError(float("inf"), 0.0)
    with pytest.raises(ValidationError):
        CompensationParams(threshold_t=0.0)
    with pytest.raises(ValidationError):
        CompensationParams(k_x=-0.1)
    with pytest.raises(ValidationError):
        CompensationRecord(
            picking=ArmPoint3(0, 0, 0),
            effector=ArmPoint3(0, 0, 0),
            visual_err=RelativeError(0, 0),
            residual_x=1.0,
        )


@given(x=finite, y=finite, z=finite, dx=finite, dy=finite)
def test_z_is_never_corrected(x, y, z, dx, dy):
    p = compensated_point(ArmPoint3(x, y, z), RelativeError(dx, dy), CompensationParams())
    assert p.z == z


@given(
    x=finite,
    y=finite,
    dx=st.floats(min_value=-10.0, max_value=10.0),
    dy=st.floats(min_value=-10.0, max_value=10.0),
)
def test_within_tolerance_is_identity(x, y, dx, dy):
    picking = ArmPoint3(x, y, 0.0)
    for mode in CompensationMode:
        params = CompensationParams(mode=mode)
        assert compensated_point(picking, RelativeError(dx, dy), params) == picking


@given(dx=finite, dy=finite)
def test_either_mode_moves_both_axes_or_neither(dx, dy):
    params = CompensationParams()
    picking = ArmPoint3(50.0, 60.0, 70.0)
    err = RelativeError(dx, dy)
    p = compensated_point(picking, err, params)
    if needs_compensation(err, params):
        assert p.x == picking.x + params.k_x * dx
        assert p.y == picking.y + params.k_y * dy
    else:
        assert p == picking


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
    assert len(rows) == 20
    records = compensate_rows(rows, CompensationParams())
    listed = _listed_targets()

    compensated = [r for r in records if r.compensated is not None]
    assert len(compensated) == 17
    assert [i for i, r in enumerate(records) if r.compensated is None] == [7, 10, 18]

    for rec, target in zip(records, listed):
        if target is None:
            assert rec.compensated is None
            continue
        assert rec.compensated is not None
        assert abs(rec.compensated.x - target[0]) <= 1.0
        assert abs(rec.compensated.y - target[1]) <= 1.0
        assert rec.compensated.z == target[2]


def test_alignment_log_error_means():
    records = compensate_rows(read_alignment_csv(ALIGNMENT_CSV), CompensationParams())
    dx = mean_abs_error([r.visual_err.dx for r in records])
    dy = mean_abs_error([r.visual_err.dy for r in records])
    dx_w = mean_abs_error([r.physical_err_x for r in records])
    dy_w = mean_abs_error([r.physical_err_y for r in records])
    e_x = mean_abs_error([r.residual_x for r in records if r.residual_x is not None])
    e_y = mean_abs_error([r.residual_y for r in records if r.residual_y is not None])
    assert dx == pytest.approx(14.07, abs=0.01)
    assert dy == pytest.approx(8.64, abs=0.01)
    assert dx_w == pytest.approx(11.52, abs=0.01)
    assert dy_w == pytest.approx(5.15, abs=0.01)
    assert e_x == pytest.approx(3.12, abs=0.01)
    assert e_y == pytest.approx(4.11, abs=0.01)


def test_records_csv_round_trip(tmp_path):
    records = compensate_rows(read_alignment_csv(ALIGNMENT_CSV), CompensationParams())
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
    assert compensate_rows(reread, CompensationParams())[0].compensated is not None


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
