"""Acceptance checks for the fault-diagnosis and recovery engine.

Each test verifies one headline guarantee end to end and prints a single
verdict line (run with `pytest tests/test_acceptance.py -v -s` to see them
inline). Tolerances and runtime budgets are asserted, not just reported.
"""

import itertools
import time

import numpy as np

from harvest_guard.cli import main as cli_main
from harvest_guard.fsm import Outcome, Stage, Variant, run_episode
from harvest_guard.geometry import CompensationParams, compensate_row, mean_abs_error, read_alignment_csv
from harvest_guard.grasp import (
    FAULT_CLASSES,
    GraspAction,
    GraspClass,
    classify_grasp,
    grasp_decision_step,
    train_grasp_classifier,
)
from harvest_guard.lstm import LstmArch, TrainConfig, evaluate, lstm_train
from harvest_guard.metrics import ConfusionMatrix, confusion_metrics, macro_f1, success_rates, SuccessTally
from harvest_guard.slip_decision import ACTION_FOR_LABEL, first_action, time_stability_step
from harvest_guard.slip_windows import SlipLabel, class_counts, prepare_splits, stratified_split, windows_from_slip_csv
from harvest_guard.world import ScenarioConfig, EpisodeWorld, gen_slip_dataset, run_episodes, sample_grasp_dataset

from conftest import ALIGNMENT_CSV, ScriptedWorld, episode_rng, fd_max_rel_err


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{num:2d}/10] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _csv_targets():
    import csv

    with ALIGNMENT_CSV.open(newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return [
        None if rec["x_ce"] == "" else (float(rec["x_ce"]), float(rec["y_ce"]))
        for rec in rows
    ]


def test_acceptance_01_alignment_audit_replay():
    t0 = time.perf_counter()
    params = CompensationParams()
    records = [compensate_row(row, params) for _, row in read_alignment_csv(ALIGNMENT_CSV)]
    listed = _csv_targets()

    point_ok = True
    for rec, target in zip(records, listed):
        if target is None:
            point_ok &= rec["x_ce"] is None
        else:
            point_ok &= (
                rec["x_ce"] is not None
                and abs(rec["x_ce"] - target[0]) <= 1.0
                and abs(rec["y_ce"] - target[1]) <= 1.0
            )

    means = (
        mean_abs_error([r["dx"] for r in records]),
        mean_abs_error([r["dy"] for r in records]),
        mean_abs_error([r["dx_w"] for r in records]),
        mean_abs_error([r["dy_w"] for r in records]),
        mean_abs_error([r["e_x"] for r in records if r["e_x"] is not None]),
        mean_abs_error([r["e_y"] for r in records if r["e_y"] is not None]),
    )
    wanted = (14.07, 8.64, 11.52, 5.15, 3.12, 4.11)
    means_ok = all(abs(m - w) <= 0.01 for m, w in zip(means, wanted))
    elapsed = time.perf_counter() - t0

    _verdict(
        1,
        "alignment audit replay",
        point_ok and means_ok and elapsed < 1.0,
        f"20 trials, 17 corrected, means {tuple(round(m, 4) for m in means)} in {elapsed:.3f}s",
    )


def test_acceptance_02_stratified_split_counts():
    labels = np.repeat([SlipLabel.NORMAL, SlipLabel.SLIPPING, SlipLabel.SLIPPED], [389, 346, 388])
    train, val = stratified_split(labels, 0.7, rng_seed=0)
    got_train = class_counts(labels[train])
    got_val = class_counts(labels[val])
    train_counts = tuple(got_train[l] for l in SlipLabel)
    val_counts = tuple(got_val[l] for l in SlipLabel)
    ok = train_counts == (272, 242, 272) and val_counts == (117, 104, 116)
    _verdict(2, "stratified split counts", ok, f"train {train_counts}, val {val_counts}")


def test_acceptance_03_analytic_gradients():
    t0 = time.perf_counter()
    worst = max(fd_max_rel_err(seed) for seed in range(10))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(3, "analytic gradients vs central differences", ok, f"10 seeds, max rel err {worst:.3e} in {elapsed:.1f}s")


def test_acceptance_04_slip_training_quality_and_determinism(tmp_path):
    t0 = time.perf_counter()
    targets = (791, 173, 2158)  # field mix 719:157:1962, scaled past 3000 windows
    path_a = tmp_path / "slip_a.csv"
    path_b = tmp_path / "slip_b.csv"
    gen_slip_dataset(path_a, ScenarioConfig(), targets, seed=0)
    gen_slip_dataset(path_b, ScenarioConfig(), targets, seed=0)
    bytes_ok = path_a.read_bytes() == path_b.read_bytes()

    windows = windows_from_slip_csv(path_a)
    counts = class_counts(windows.y)
    counts_ok = tuple(counts[l] for l in SlipLabel) == targets and len(windows) >= 3000

    train, val = prepare_splits(windows, 0.7, 0)
    config = TrainConfig(epochs=14, seed=0)
    first = lstm_train(train, val, config, LstmArch())
    second = lstm_train(train, val, config, LstmArch())
    bitwise_ok = all(np.array_equal(a, b) for a, b in zip(first.parameters(), second.parameters()))

    pred, true = evaluate(first, val)
    cm = ConfusionMatrix.from_pairs(true.tolist(), pred.tolist(), ("normal", "slipping", "slipped"))
    f1 = macro_f1(cm)
    elapsed = time.perf_counter() - t0

    ok = bytes_ok and counts_ok and bitwise_ok and f1 >= 0.85 and elapsed < 300.0
    _verdict(
        4,
        "slip classifier quality and bitwise determinism",
        ok,
        f"{len(windows)} windows, macro-F1 {f1:.4f}, identical weights {bitwise_ok}, {elapsed:.1f}s",
    )


def test_acceptance_05_decision_rules_match_exhaustive_oracles():
    def slip_oracle(stream):
        for i in range(1, len(stream)):
            if stream[i] == stream[i - 1]:
                return ACTION_FOR_LABEL[stream[i]], i
        return None, None

    def grasp_oracle(stream):
        for i in range(1, len(stream)):
            a, b = stream[i - 1], stream[i]
            if a is GraspClass.RIPE_HELD and b is GraspClass.RIPE_HELD:
                return GraspAction.PROCEED, i
            if a in FAULT_CLASSES and b in FAULT_CLASSES:
                return GraspAction.ABORT_CYCLE, i
        return None, None

    slip_ok = all(
        first_action(time_stability_step, stream) == slip_oracle(stream)
        for stream in itertools.product(list(SlipLabel), repeat=6)
    )
    grasp_ok = all(
        first_action(grasp_decision_step, stream) == grasp_oracle(stream)
        for stream in itertools.product(list(GraspClass), repeat=6)
    )
    _verdict(
        5,
        "decision rules vs exhaustive 3^6 stream oracles",
        slip_ok and grasp_ok,
        f"slip streams {3**6} ok={slip_ok}, grasp streams {3**6} ok={grasp_ok}",
    )


def test_acceptance_06_cycle_timing_anchors():
    t0 = time.perf_counter()
    plain = run_episode(ScriptedWorld(), deterministic=True)
    recovery = run_episode(ScriptedWorld(misaligned=True, slip=SlipLabel.SLIPPING), deterministic=True)
    anchors_ok = abs(plain.total_s - 11.22) < 1e-9 and abs(recovery.total_s - 12.71) < 1e-9

    parts = [r.duration_s for r in recovery.records if r.variant is Variant.SLIPPING_RECOVERY]
    conservation_ok = (
        len(parts) == 2
        and abs(sum(parts) - 1.81) < 1e-12
        and abs(plain.total_s - sum(r.duration_s for r in plain.records)) < 1e-12
    )

    world = ScriptedWorld()
    totals = np.array([run_episode(world, rng=episode_rng(4, i)).total_s for i in range(1000)])
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    mean_ok = abs(totals.mean() - 11.22) <= 3 * se
    elapsed = time.perf_counter() - t0

    ok = anchors_ok and conservation_ok and mean_ok and elapsed < 10.0
    _verdict(
        6,
        "cycle timing anchors and conservation",
        ok,
        f"deterministic {plain.total_s:.2f}/{recovery.total_s:.2f}s, "
        f"1000-episode mean {totals.mean():.4f} (3SE {3 * se:.4f}), {elapsed:.1f}s",
    )


def test_acceptance_07_structural_invariants_at_scale():
    t0 = time.perf_counter()
    episodes = run_episodes(EpisodeWorld(ScenarioConfig()), 10000, master_seed=7)
    violations = 0
    for ep in episodes:
        stages = [r.stage for r in ep.records]
        bad = (
            stages[-1] is not Stage.HOMING
            or stages.count(Stage.COMPENSATION) > 1
            or stages.count(Stage.PLACING) > 1
            or stages.count(Stage.SNAP_OFF) > 2
            or (
                ep.outcome in (Outcome.ABORTED_SLIPPED, Outcome.ABORTED_EMPTY_OR_MISGRASP)
                and Stage.PLACING in stages
            )
            or (ep.outcome is Outcome.ABORTED_EMPTY_OR_MISGRASP and Stage.SNAP_OFF in stages)
            or (
                ep.outcome in (Outcome.PICKED_AND_PLACED, Outcome.RECOVERED_AFTER_SLIP)
                and Stage.PLACING not in stages
            )
        )
        violations += bad
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and len(episodes) == 10000
    _verdict(7, "episode structure at scale", ok, f"10000 mixed-fault episodes, {violations} violations, {elapsed:.1f}s")


def test_acceptance_08_success_rate_rounding():
    tally = SuccessTally(
        counts=(
            ("Normal", 27, 3),
            ("EmptyGrasp", 30, 3),
            ("Misgrasp", 31, 1),
            ("Slipping", 26, 6),
            ("Slipped", 32, 4),
        )
    )
    rates = {k: str(v) for k, v in success_rates(tally).items()}
    wanted = {
        "Normal": "90.00",
        "EmptyGrasp": "90.91",
        "Misgrasp": "96.88",
        "Slipping": "81.25",
        "Slipped": "88.89",
    }
    _verdict(8, "success-rate percentages at two decimals", rates == wanted, f"{rates}")


def test_acceptance_09_grasp_classifier_separates_cleanly():
    x, y = sample_grasp_dataset((300, 300, 300), seed=0)
    # dataset is grouped per class: the first 210 of each class train
    train = np.concatenate([np.arange(start, start + 210) for start in (0, 300, 600)])
    val = np.concatenate([np.arange(start + 210, start + 300) for start in (0, 300, 600)])
    model = train_grasp_classifier(x[train], y[train], seed=0)
    pred = [int(c) for c in classify_grasp(model, x[val])]
    true = y[val].tolist()
    cm = ConfusionMatrix.from_pairs(true, pred, ("ripe", "empty", "unripe"))
    per_class = confusion_metrics(cm)
    ok = all(m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0 for m in per_class.values())
    detail = ", ".join(f"{name} P/R/F1 {m.precision:.2f}/{m.recall:.2f}/{m.f1:.2f}" for name, m in per_class.items())
    _verdict(9, "grasp classifier on held-out synthetic data", ok, detail)


def test_acceptance_10_cli_runs_are_byte_identical(tmp_path, capsys):
    gen_outs = [tmp_path / f"slip{i}.csv" for i in (1, 2)]
    for out in gen_outs:
        code = cli_main(["gen-data", "--kind", "slip", "--counts", "60,20,20", "--out", str(out), "--seed", "9"])
        assert code == 0
    gen_ok = gen_outs[0].read_bytes() == gen_outs[1].read_bytes()

    sim_dirs = [tmp_path / f"run{i}" for i in (1, 2)]
    for out_dir in sim_dirs:
        code = cli_main(["simulate", "--seed", "9", "--episodes", "150", "--out", str(out_dir)])
        assert code == 0
    sim_ok = all(
        (sim_dirs[0] / name).read_bytes() == (sim_dirs[1] / name).read_bytes()
        for name in ("episodes.jsonl", "scenario.ini", "summary.csv")
    )
    capsys.readouterr()  # swallow the CLI chatter; the verdict stays visible
    _verdict(10, "CLI reruns byte-identical per seed", gen_ok and sim_ok, f"gen-data {gen_ok}, simulate {sim_ok}")
