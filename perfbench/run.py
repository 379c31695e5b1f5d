"""Closed-loop benchmark of the harvest-guard CLI.

    python3 perfbench/run.py --workload sim-truth --seed 1 --seconds 30 --trace 0

One client runs one op (one CLI command, in-process) at a time, in one
process per run, with BLAS pinned to one thread. Ops run until --seconds
have passed; every op is checked and a failed check is a failed op.

--trace 0 sets up SETUP_REPEATS times, runs the ops, then runs op 0 again,
which must reproduce its output digest; it prints the end-to-end
metrics. --trace 1 sets up once under the tracer and runs every op
untraced and then traced with the same seed (the digests must match); it
prints the per-layer metrics. Lines before the last start with '#'; the
last is one JSON object with the keys correct, attempted, failed and
metrics. Exit code 1 means bad arguments or a failed set-up, 2 that the
program source is missing.
"""

from __future__ import annotations

import os

# pinned before numpy loads BLAS
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from spans import Tracer
from stats import OpLog, spread, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# A run is flagged as shared when the 1-minute load reaches the core
# count (this process counts one) or the reference kernel's times spread
# this much.
NOISY_SPREAD = 0.10
# share of each op's wall time spent timing the reference kernel after it
REFERENCE_SHARE = 0.05
# the reference kernel's time on a quiet 2-vCPU Xeon VM at 2.1 GHz;
# setup_s is set-up time rescaled to a machine running at that speed
REFERENCE_NOMINAL_S = 0.012


# name -> unit; BENCHMARK.json lists the same metrics
END_TO_END_UNITS = {"op_cost_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace_overhead_frac": "ratio", "trace_unattributed_frac": "ratio"}


class Op(NamedTuple):
    wall_s: float
    problem: str | None
    digest: str


def environment() -> dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "load_before": os.getloadavg(),
    }


def emit(tag: str, doc: object) -> None:
    print(f"# {tag} {json.dumps(doc, sort_keys=True)}", flush=True)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI: the start-up
    cost every command-line invocation pays."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import harvest_guard.cli"], env={**os.environ, "PYTHONPATH": str(SRC)},
                   check=True, timeout=120)
    return time.perf_counter() - start


def run_op(workload, op_seed: int, work: Path, tracer: Tracer | None = None) -> Op:
    """One timed op, then its checks outside the timing. With a tracer,
    op and check are traced and folded into the phases 'op' and 'check'."""
    from workloads import call_cli, digest_dir, fresh_dir

    def scope(phase: str):
        return tracer.active(phase) if tracer else contextlib.nullcontext()

    out = fresh_dir(work / "op")
    wall = float("nan")
    try:
        with scope("op"):
            rc, wall, err = call_cli(workload.argv(op_seed, out))
        if rc != 0:
            return Op(wall, f"exit {rc}: {err}", "")
        digest = digest_dir(out)
        with scope("check"):
            problem = workload.check(op_seed, out, work / "check")
        return Op(wall, problem, digest)
    except Exception:  # an op that crashes is a failed op, not a failed run
        return Op(wall, traceback.format_exc(limit=3).strip().replace("\n", " | "), "")


def log_op(log: OpLog, label: str, seed: int, op: Op, note: str = "") -> None:
    log.record(op.wall_s, op.problem)
    verdict = "ok" if op.problem is None else "FAIL " + op.problem
    print(f"# op {label} seed={seed} wall_s={op.wall_s:.6f}{note} digest={op.digest} {verdict}", flush=True)


def reference_kernel() -> float:
    """Wall time of a fixed computation that no program change can move:
    interpreter work, then small numpy and BLAS calls, the mix the ops
    run. Timed beside every op, it measures how fast the shared machine
    runs at that moment."""
    import numpy as np

    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(40_000):
        acc[i % 997] = acc.get(i % 997, 0) + i * i
    a = np.full((32, 64), 0.5)
    w = np.full((64, 64), 0.01)
    for _ in range(600):
        a = np.tanh(a @ w)
    return time.perf_counter() - start


def reference_s(after_op_s: float) -> float:
    """Mean reference kernel time over repeats that add up to about
    REFERENCE_SHARE of the op just run, so long ops get a finer sample."""
    times = [reference_kernel()]
    while sum(times) < REFERENCE_SHARE * after_op_s:
        times.append(reference_kernel())
    return statistics.fmean(times)


def end_to_end(workload, seconds: float, work: Path) -> tuple[OpLog, dict]:
    from workloads import SetupError, derive_seed, digest_dir

    reference_kernel()  # warm-up
    refs = [reference_s(0.0)]

    def cost(wall_s: float) -> float:
        """wall_s over the mean reference time just before and after it."""
        refs.append(reference_s(wall_s))
        return wall_s / ((refs[-2] + refs[-1]) / 2)

    setup_walls, setup_costs, digests = [], [], []
    for i in range(SETUP_REPEATS):
        where = work / f"setup{i}"
        where.mkdir()
        imports = import_seconds()
        start = time.perf_counter()
        workload.setup(where)
        setup_walls.append(imports + time.perf_counter() - start)
        setup_costs.append(cost(setup_walls[-1]))
        digests.append(digest_dir(where))
    emit("setup", {"seconds": setup_walls, "digests": digests, **workload.info})
    if len(set(digests)) != 1:
        raise SetupError("set-up outputs differ between repeats")

    log = OpLog()
    op_costs: list[float] = []

    def timed(label: str, op_seed: int, expect: str | None = None) -> Op:
        op = run_op(workload, op_seed, work)
        if expect is not None and op.problem is None and op.digest != expect:
            op = op._replace(problem=f"digest differs from the first run's {expect}")
        op_costs.append(cost(op.wall_s))  # a crashed op's nan wall takes one repeat
        log_op(log, label, op_seed, op, f" reference_s={refs[-1]:.6f}")
        return op

    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        op_seed = derive_seed(workload.seed, index)
        op = timed(str(index), op_seed)
        if index == 0:
            first_seed, first = op_seed, op
            # from op 0's output, before the next op replaces it
            f1 = workload.val_macro_f1(op_seed, work / "op") if op.problem is None else None
        index += 1

    # same seed, same bytes
    timed("0-repeat", first_seed, expect=first.digest)

    walls = [w for w in log.walls if w == w]  # a crashed op has no wall time
    p50 = statistics.median(walls)
    t = tail(walls)
    metrics = {
        "op_cost_ref": statistics.median(c for c in op_costs if c == c),
        "setup_s": statistics.median(setup_costs) * REFERENCE_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    printed = {
        workload.work_name: (workload.work_per_op / p50, "1/s"),
        "op_s_p50": (p50, "s"),
        "op_s_tail": (t.value, "s"),
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "failed_op_frac": (log.failed_frac, "ratio"),
        "reference_s_p50": (statistics.median(refs), "s"),
    }
    if f1 is not None:
        printed["val_macro_f1"] = (f1, "ratio")
    summary = {
        "work_per_op": workload.work_per_op,
        "op_s_tail_pct": t.pct,
        "ops_beyond_tail": t.beyond,
        "ops": t.n,
        "reference_spread": spread(refs),
        "op0_digest": first.digest,
    }
    return log, {
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()},
        "printed": printed,
        "summary": summary,
    }


def per_layer(workload, seconds: float, work: Path) -> tuple[OpLog, dict]:
    from workloads import derive_seed, trace_points

    tracer = Tracer()
    trace_points(tracer)
    (work / "setup").mkdir()
    with tracer.active("setup"):
        workload.setup(work / "setup")

    log = OpLog()
    ratios: list[float] = []
    traced_walls: list[float] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        op_seed = derive_seed(workload.seed, index)
        plain = run_op(workload, op_seed, work)
        traced = run_op(workload, op_seed, work, tracer)
        if traced.problem is None and traced.digest != plain.digest:
            traced = traced._replace(problem=f"traced digest {traced.digest} differs from untraced")
        log_op(log, str(index), op_seed, plain)
        log_op(log, f"{index}-traced", op_seed, traced)
        if plain.problem is None and traced.problem is None:
            ratios.append(traced.wall_s / plain.wall_s)
            traced_walls.append(traced.wall_s)
        index += 1

    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    # share of traced op wall time outside every span: the harness only
    unattributed = 1.0 - tracer.phases["op"].root_s / sum(traced_walls) if traced_walls else 0.0
    metrics = layer_metrics(tracer)
    for name, value in (("trace_overhead_frac", overhead), ("trace_unattributed_frac", unattributed)):
        metrics[name] = (value, TRACE_METRICS[name])
    return log, {"metrics": metrics, "printed": {"failed_op_frac": (log.failed_frac, "ratio")},
                 "summary": {"pairs": index}}


# (metric, unit, phase, table, key). Values are per unit of the phase:
# per op, per set-up or per check.
LAYER_TABLE: list[tuple[str, str, str, str, str]] = [
    (f"{span}.self_s", "s", "op", "self_s", span)
    for span in (
        "world.gen_slip_trajectory", "world.sample_truth", "world.approach", "world.grasp_stream",
        "world.slip_stream", "world.run_episodes", "grasp.classify_grasp", "grasp.grasp_decision_step",
        "slip_windows.build_windows", "slip_windows.windows_from_slip_csv", "slip_windows.read_slip_csv",
        "slip_windows.windows_to_arrays", "slip_windows.prepare_splits", "lstm.predict_proba",
        "lstm.loss_and_grads", "lstm.lstm_train", "slip_decision.classify_slip",
        "slip_decision.time_stability_step", "fsm.run_episode", "fsm.write_episode_log",
        "metrics.aggregate_cycle_times", "metrics.write_report", "model_io.load_model",
        "model_io.save_model", "cli.main",
    )
] + [
    ("world.gen_slip_dataset.self_s", "s", "setup", "self_s", "world.gen_slip_dataset"),
    ("fsm.read_episode_log.self_s", "s", "check", "self_s", "fsm.read_episode_log"),
] + [
    (f"{span}.calls", "count", "op", "calls", span)
    for span in (
        "geometry.needs_compensation", "geometry.compensated_point", "grasp.classify_grasp",
        "lstm.predict_proba", "lstm.loss_and_grads", "slip_decision.classify_slip", "fsm.run_episode",
    )
] + [
    (key, unit, "op", "counts", key)
    for key, unit in (
        ("world.gen_slip_trajectory.frames", "count"), ("slip_windows.build_windows.windows", "count"),
        ("lstm.predict_proba.windows", "count"), ("fsm.write_episode_log.bytes", "B"),
        ("model_io.load_model.bytes", "B"), ("model_io.save_model.bytes", "B"),
    )
]

# ratio metric -> numerator and denominator, each (table, key) of the op phase
LAYER_RATIOS = {
    "geometry.compensated_frac": (("calls", "geometry.compensated_point"), ("calls", "geometry.needs_compensation")),
    "grasp.frames_used_frac": (("calls", "grasp.grasp_decision_step"), ("counts", "world.grasp_stream.frames")),
    "slip_decision.windows_used_frac": (
        ("calls", "slip_decision.time_stability_step"), ("counts", "world.slip_stream.windows")),
    "lstm.predict_proba.windows_per_call": (("counts", "lstm.predict_proba.windows"), ("calls", "lstm.predict_proba")),
    "fsm.records_per_episode": (("counts", "fsm.run_episode.records"), ("calls", "fsm.run_episode")),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, phase, table, key in LAYER_TABLE:
        totals = tracer.phases[phase]
        out[metric] = (totals.per_unit(getattr(totals, table), key), unit)
    ops = tracer.phases["op"]
    for metric, ((t_num, k_num), (t_den, k_den)) in LAYER_RATIOS.items():
        den = getattr(ops, t_den).get(k_den, 0)
        out[metric] = (getattr(ops, t_num).get(k_num, 0) / den if den else 0.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "harvest_guard" / "__init__.py").is_file():
        print(f"error: no harvest_guard source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # loads numpy and harvest_guard

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment()
    emit("env", env)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            log, result = per_layer(workload, args.seconds, work)
        else:
            log, result = end_to_end(workload, args.seconds, work)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    load_after = os.getloadavg()
    noisy = []
    if max(env["load_before"][0], load_after[0]) >= (env["nproc"] or 1):
        noisy.append("load")
    if result["summary"].get("reference_spread", 0.0) > NOISY_SPREAD:
        noisy.append("spread")
    emit("summary", {**result["summary"], "load_after": load_after, "noisy": noisy, "failures": log.failures})
    for metric, (value, unit) in {**result["metrics"], **result["printed"]}.items():
        print(f"# {metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
