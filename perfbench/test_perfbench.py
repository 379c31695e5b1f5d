"""Tests of the benchmark's own logic: span self times, the tail rule
and op accounting. Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, self_times  # noqa: E402
from stats import OpLog, spread, tail  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 2.0, 3.0, 1),  # grandchild: counts against a, not op
        Span("a", 6.0, 8.0, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"op": 4.0, "a": 5.0, "b": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_counts_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda n: list(range(n))
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    original = mod.inner
    tracer.patch(mod, "outer", "m.outer")
    tracer.patch(mod, "inner", "m.inner", counter=lambda a, k, r: {"items": len(r)})

    with tracer.active():
        assert mod.outer(3) == [0, 1, 2, 0, 1, 2]
    assert mod.inner is original

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", None), ("m.inner", 0), ("m.inner", 0)]
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    tracer.fold("op")
    phase = tracer.phases["op"]
    assert (phase.units, phase.root_s) == (1, 5.0)
    assert phase.self_s == {"m.outer": 3.0, "m.inner": 2.0}
    assert phase.calls == {"m.outer": 1, "m.inner": 2}
    assert phase.counts == {"m.inner.items": 6}
    assert tracer.spans == []


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer(clock=iter([0.0, 1.0]).__next__)
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer.patch(mod, "boom", "m.boom")
    with pytest.raises(ZeroDivisionError), tracer.active():
        mod.boom()
    assert tracer.spans == [Span("m.boom", 0.0, 1.0, None)]
    tracer.fold("op")
    assert tracer.phases["op"].root_s == 1.0


@pytest.mark.parametrize(
    "n, rank, beyond",
    [
        (100, 89, 10),  # p90: ten of a hundred beyond it
        (11, 0, 10),  # the minimum is the only rank with ten beyond
        (30, 19, 10),
        (5, 0, 4),  # too few samples: the minimum, with its true count beyond
        (1, 0, 0),
    ],
)
def test_tail_is_the_highest_rank_with_ten_samples_beyond(n, rank, beyond):
    samples = [float(i) for i in reversed(range(n))]
    t = tail(samples)
    assert t.value == float(rank)
    assert t.beyond == beyond == sum(s > t.value for s in samples)
    assert t.n == n
    assert t.pct == pytest.approx(100.0 * (rank + 1) / n)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


def test_spread_is_iqr_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert spread([7.0]) == 0.0


def test_failed_ops_count_against_attempted():
    log = OpLog()
    log.record(0.5, None)
    log.record(0.6, "report does not reproduce summary.csv")
    log.record(float("nan"), "crash")
    log.record(0.4, None)
    assert (log.attempted, log.failed) == (4, 2)
    assert log.failed_frac == 0.5
    assert OpLog().failed_frac == 1.0  # nothing attempted is not a success


def test_metric_names_and_units_match_benchmark_json():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layers = {name: unit for name, (_, unit) in run.layer_metrics(Tracer()).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**layers, **run.TRACE_METRICS}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert all(v == 0.0 for v, _ in run.layer_metrics(Tracer()).values())
