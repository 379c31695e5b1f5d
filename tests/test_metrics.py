"""Metric formulas, exact percentage rounding, and report files."""

import csv
import json
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from harvest_guard.errors import ValidationError
from harvest_guard.metrics import (
    CONDITIONS,
    ConfusionMatrix,
    SuccessTally,
    aggregate_cycle_times,
    confusion_metrics,
    format_value,
    macro_f1,
    success_rates,
    write_report,
)

FIELD_CM = ConfusionMatrix(
    counts=((89, 11, 0), (6, 94, 0), (0, 6, 94)),
    labels=("normal", "slipping", "slipped"),
)


def test_confusion_matrix_validation():
    with pytest.raises(ValidationError):
        ConfusionMatrix(counts=((1,),), labels=())
    with pytest.raises(ValidationError):
        ConfusionMatrix(counts=((1, 2),), labels=("a", "b"))
    with pytest.raises(ValidationError):
        ConfusionMatrix(counts=((1, -2), (0, 1)), labels=("a", "b"))


def test_from_pairs_counts_and_checks():
    cm = ConfusionMatrix.from_pairs([0, 0, 1, 2], [0, 1, 1, 2], ["a", "b", "c"])
    assert cm.counts == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValidationError):
        ConfusionMatrix.from_pairs([0, 3], [0, 0], ["a", "b"])
    with pytest.raises(ValidationError):
        ConfusionMatrix.from_pairs([0], [0, 0], ["a"])


def test_recalls_on_hundred_per_class_matrix():
    metrics = confusion_metrics(FIELD_CM)
    assert metrics["normal"].recall == pytest.approx(0.89)
    assert metrics["slipping"].recall == pytest.approx(0.94)
    assert metrics["slipped"].recall == pytest.approx(0.94)
    assert metrics["normal"].precision == pytest.approx(89 / 95)
    assert metrics["slipping"].zero_denominators == frozenset()


def test_macro_f1_is_mean_of_class_f1():
    metrics = confusion_metrics(FIELD_CM)
    expected = sum(m.f1 for m in metrics.values()) / 3
    assert macro_f1(FIELD_CM) == pytest.approx(expected)
    perfect = ConfusionMatrix(((5, 0), (0, 7)), ("a", "b"))
    assert macro_f1(perfect) == pytest.approx(1.0)


def test_zero_denominators_flag_instead_of_raising():
    cm = ConfusionMatrix(((0, 0), (3, 0)), ("a", "b"))
    metrics = confusion_metrics(cm)
    # class a: never predicted correctly, never true... tp=0, fp=3, fn=0
    assert metrics["a"].precision == 0.0
    assert "recall" in metrics["a"].zero_denominators
    assert "f1" in metrics["a"].zero_denominators
    # class b: tp=0, fp=0 -> precision flagged
    assert "precision" in metrics["b"].zero_denominators
    assert metrics["b"].f1 == 0.0


def test_cycle_time_aggregates():
    rows = [("picked", 10.0), ("picked", 12.0), ("abort", 5.0)]
    agg = aggregate_cycle_times(rows)
    assert list(agg) == ["abort", "picked"]  # sorted outcomes
    assert agg["picked"].mean_s == pytest.approx(11.0)
    assert agg["picked"].std_s == pytest.approx(2.0 ** 0.5)  # ddof=1
    assert agg["picked"].n == 2
    assert agg["abort"].std_s == 0.0  # single sample
    assert agg["abort"].n == 1


def test_success_rates_exact_two_decimals():
    tally = SuccessTally(
        counts=(
            ("Normal", 27, 3),
            ("EmptyGrasp", 30, 3),
            ("Misgrasp", 31, 1),
            ("Slipping", 26, 6),
            ("Slipped", 32, 4),
        )
    )
    rates = success_rates(tally)
    assert rates["Normal"] == Decimal("90.00")
    assert rates["EmptyGrasp"] == Decimal("90.91")
    assert rates["Misgrasp"] == Decimal("96.88")  # 96.875 rounds half up
    assert rates["Slipping"] == Decimal("81.25")
    assert rates["Slipped"] == Decimal("88.89")


def test_success_tally_validation():
    with pytest.raises(ValidationError):
        SuccessTally(counts=(("Weird", 1, 1),))
    with pytest.raises(ValidationError):
        SuccessTally(counts=(("Normal", 1, 1), ("Normal", 2, 2)))
    with pytest.raises(ValidationError):
        SuccessTally(counts=(("Normal", -1, 1),))
    with pytest.raises(ValidationError):
        success_rates(SuccessTally(counts=(("Normal", 0, 0),)))
    assert set(CONDITIONS) == {"EmptyGrasp", "Misgrasp", "Normal", "Slipping", "Slipped"}


@given(success=st.integers(0, 500), failure=st.integers(0, 500))
def test_success_rate_matches_decimal_reference(success, failure):
    if success + failure == 0:
        return
    rates = success_rates(SuccessTally(counts=(("Normal", success, failure),)))
    got = rates["Normal"]
    exact = Decimal(success) * 100 / Decimal(success + failure)
    assert got.as_tuple().exponent == -2
    # half-up rounding: error in (-0.005, 0.005], exact halves land on +0.005
    assert Decimal("-0.005") < got - exact <= Decimal("0.005")


def test_format_value_suffix_rules():
    assert format_value("success_pct", 90.909) == "90.91"
    assert format_value("success_pct", Decimal("90.9")) == "90.90"
    assert format_value("mean_s", 11.2168) == "11.217"
    assert format_value("offset_mm", 1.5) == "1.500"
    assert format_value("count", 12) == "12"
    assert format_value("flag", True) == "1"
    assert format_value("ratio", 0.1) == "0.1"  # repr keeps full precision
    assert format_value("name", "picked") == "picked"


def test_report_round_trip_csv(tmp_path):
    rows = [
        {"outcome": "picked", "n": 3, "mean_s": 11.2168},
        {"outcome": "abort", "n": 1, "mean_s": 5.26},
    ]
    path = tmp_path / "report.csv"
    write_report(path, rows, fmt="csv")
    assert path.read_bytes() == b"outcome,n,mean_s\r\npicked,3,11.217\r\nabort,1,5.260\r\n"
    with path.open(newline="") as fh:
        assert list(csv.DictReader(fh)) == [
            {"outcome": "picked", "n": "3", "mean_s": "11.217"},
            {"outcome": "abort", "n": "1", "mean_s": "5.260"},
        ]
    # identical rows -> identical bytes
    again = tmp_path / "report2.csv"
    write_report(again, rows, fmt="csv")
    assert path.read_bytes() == again.read_bytes()


def test_report_round_trip_jsonlines(tmp_path):
    rows = [{"outcome": "picked", "n": 2, "mean_s": 10.5}]
    path = tmp_path / "report.jsonl"
    write_report(path, rows, fmt="jsonlines")
    assert path.read_bytes() == b'{"outcome": "picked", "n": 2, "mean_s": 10.5}\n'
    assert json.loads(path.read_text()) == {"outcome": "picked", "n": 2, "mean_s": 10.5}


def test_report_field_order_is_enforced(tmp_path):
    rows = [
        {"a": 1, "b": 2},
        {"b": 2, "a": 1},  # same keys, wrong order
    ]
    with pytest.raises(ValidationError, match="row 1"):
        write_report(tmp_path / "r.csv", rows)


def test_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValidationError):
        write_report(tmp_path / "r.x", [], fmt="xml")


def test_report_write_failure_is_os_error(tmp_path):
    with pytest.raises(OSError):
        write_report(tmp_path / "missing" / "r.csv", [{"a": 1}])
