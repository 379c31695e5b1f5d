"""The benchmark's workloads: set-up, one op, and the op's checks.

An op is one `harvest_guard.cli.main` call. Each workload builds the
argument list of op `index` from a seed derived from the workload seed
and the index, writes the op's outputs into one directory, and checks
them after the op, outside its timing.

- sim-truth: `simulate` with ground-truth monitors, so the LSTM never
  runs; time goes to world generation, the FSM walk and log writing.
- sim-learned: `simulate --slip-model --grasp-model` with the default
  5x64 LSTM, so LSTM inference on small batches dominates.
- train-slip: `train-slip` at the acceptance-test dataset size, which
  uses the same LSTM layer for batch-32 forward and backward passes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
import time
from pathlib import Path
from types import ModuleType

from harvest_guard import cli
from harvest_guard.fsm import Outcome
from harvest_guard.lstm import SlipModel, evaluate
from harvest_guard.metrics import ConfusionMatrix, macro_f1
from harvest_guard.model_io import load_model
from harvest_guard.slip_windows import prepare_splits, windows_from_slip_csv

SPLIT_RATIO = 0.7  # train-slip's default --ratio


class SetupError(Exception):
    """Set-up produced inputs that would hide the paths the workload measures."""


def derive_seed(seed: int, *salt: object) -> int:
    """Non-negative 63-bit seed from the workload seed and a salt."""
    digest = hashlib.sha256(repr((seed, *salt)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; returns (exit code, wall s, stderr).
    Its stdout is captured and dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return rc, wall, err.getvalue().strip()


def digest_dir(path: Path) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def must(argv: list[str]) -> None:
    rc, _, err = call_cli(argv)
    if rc != 0:
        raise SetupError(f"{argv[0]} exited {rc}: {err}")


def slip_macro_f1(data: Path, model_path: Path, split_seed: int) -> float:
    """Macro-F1 of a slip model on the validation side of the split that
    `train-slip --seed split_seed` made."""
    model = load_model(model_path)
    _, val = prepare_splits(windows_from_slip_csv(data), SPLIT_RATIO, split_seed)
    pred, true = evaluate(model, val)
    names = tuple(str(i) for i in range(model.arch.n_classes))
    return macro_f1(ConfusionMatrix.from_pairs(true.tolist(), pred.tolist(), names))


def check_sim(out: Path, check_dir: Path, episodes: int) -> tuple[str | None, dict[str, int]]:
    """`report` must rebuild summary.csv byte for byte, and the outcome
    counts must sum to the episode count. Returns (problem, outcome mix)."""
    summary = out / "summary.csv"
    rebuilt = fresh_dir(check_dir) / "report.csv"
    rc, _, err = call_cli(["report", "--episodes", str(out / "episodes.jsonl"), "--out", str(rebuilt)])
    if rc != 0:
        return f"report exited {rc}: {err}", {}
    if rebuilt.read_bytes() != summary.read_bytes():
        return "report does not reproduce summary.csv", {}
    with summary.open(newline="") as fh:
        mix = {row["outcome"]: int(row["n"]) for row in csv.DictReader(fh)}
    if sum(mix.values()) != episodes:
        return f"outcome counts sum to {sum(mix.values())}, expected {episodes}", mix
    return None, mix


class Workload:
    name = ""
    work_name = ""  # name of the printed throughput: work per op / median op time
    work_per_op = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.info: dict[str, object] = {}

    def setup(self, where: Path) -> None:
        """Generate inputs into `where` and warm up; sets self.info."""
        raise NotImplementedError

    def argv(self, op_seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, op_seed: int, out: Path, check_dir: Path) -> str | None:
        raise NotImplementedError

    def val_macro_f1(self, op_seed: int, out: Path) -> float | None:
        """Quality of a trained model, for workloads whose op trains one."""
        return None


class SimTruth(Workload):
    name = "sim-truth"
    work_name = "episodes_per_s"
    work_per_op = 1000
    warmup_episodes = 50

    def setup(self, where: Path) -> None:
        out = fresh_dir(where / "warmup")
        must(self._argv(derive_seed(self.seed, "warmup"), out, self.warmup_episodes))
        problem, _ = check_sim(out, where / "warmup-check", self.warmup_episodes)
        if problem:
            raise SetupError(f"warm-up: {problem}")

    def _argv(self, op_seed: int, out: Path, episodes: int) -> list[str]:
        return ["simulate", "--seed", str(op_seed), "--episodes", str(episodes), "--out", str(out)]

    def argv(self, op_seed: int, out: Path) -> list[str]:
        return self._argv(op_seed, out, self.work_per_op)

    def check(self, op_seed: int, out: Path, check_dir: Path) -> str | None:
        return check_sim(out, check_dir, self.work_per_op)[0]


class SimLearned(SimTruth):
    name = "sim-learned"
    work_per_op = 200
    warmup_episodes = 100
    # The monitor models are fixed inputs, so every run measures the same
    # perception. This data/seed/epoch choice reaches macro-F1 0.876; a
    # model below the floor aborts most episodes and hides the FSM paths.
    slip_counts, slip_data_seed, slip_train_seed, slip_epochs = "300,120,120", 7, 0, 8
    grasp_counts, grasp_data_seed, grasp_train_seed = "120,120,120", 7, 0
    min_slip_macro_f1 = 0.80

    def setup(self, where: Path) -> None:
        slip_csv, grasp_csv = where / "slip.csv", where / "grasp.csv"
        self.slip_model, self.grasp_model = where / "slip_model.json", where / "grasp_model.json"
        must(["gen-data", "--kind", "slip", "--counts", self.slip_counts, "--out", str(slip_csv),
              "--seed", str(self.slip_data_seed)])
        must(["train-slip", "--data", str(slip_csv), "--out", str(self.slip_model),
              "--seed", str(self.slip_train_seed), "--epochs", str(self.slip_epochs)])
        f1 = slip_macro_f1(slip_csv, self.slip_model, self.slip_train_seed)
        must(["gen-data", "--kind", "grasp", "--counts", self.grasp_counts, "--out", str(grasp_csv),
              "--seed", str(self.grasp_data_seed)])
        must(["train-grasp", "--data", str(grasp_csv), "--out", str(self.grasp_model),
              "--seed", str(self.grasp_train_seed)])

        out = fresh_dir(where / "warmup")
        must(self._argv(derive_seed(self.seed, "warmup"), out, self.warmup_episodes))
        problem, mix = check_sim(out, where / "warmup-check", self.warmup_episodes)
        self.info = {"slip_val_macro_f1": f1, "warmup_outcomes": mix}
        if problem:
            raise SetupError(f"warm-up: {problem}")
        if f1 < self.min_slip_macro_f1:
            raise SetupError(f"slip model macro-F1 {f1:.4f} is below {self.min_slip_macro_f1}")
        missing = [o.value for o in Outcome if not mix.get(o.value)]
        if missing:
            raise SetupError(f"warm-up never reached outcomes {missing}")

    def _argv(self, op_seed: int, out: Path, episodes: int) -> list[str]:
        return super()._argv(op_seed, out, episodes) + [
            "--slip-model", str(self.slip_model), "--grasp-model", str(self.grasp_model)]


class TrainSlip(Workload):
    name = "train-slip"
    work_name = "train_windows_per_s"
    # window label counts of the acceptance-test training set: 3,122 windows
    counts = "791,173,2158"
    epochs = 1

    def setup(self, where: Path) -> None:
        self.data = where / "slip.csv"
        must(["gen-data", "--kind", "slip", "--counts", self.counts, "--out", str(self.data),
              "--seed", str(derive_seed(self.seed, "data"))])
        # training windows per epoch after oversampling depend only on the
        # class counts and the split ratio
        train, _ = prepare_splits(windows_from_slip_csv(self.data), SPLIT_RATIO, 0)
        self.work_per_op = self.epochs * len(train)

        # warm up on a small set so the first timed op pays no lazy set-up
        small = where / "warmup.csv"
        must(["gen-data", "--kind", "slip", "--counts", "20,20,20", "--out", str(small), "--seed", "0"])
        must(["train-slip", "--data", str(small), "--out", str(where / "warmup.json"), "--seed", "0",
              "--epochs", "1"])
        self.info = {"train_windows_per_epoch": len(train)}

    def argv(self, op_seed: int, out: Path) -> list[str]:
        return ["train-slip", "--data", str(self.data), "--out", str(out / "model.json"),
                "--seed", str(op_seed), "--epochs", str(self.epochs)]

    def check(self, op_seed: int, out: Path, check_dir: Path) -> str | None:
        model = load_model(out / "model.json")
        if not isinstance(model, SlipModel):
            return f"train-slip wrote a {type(model).__name__}"
        return None

    def val_macro_f1(self, op_seed: int, out: Path) -> float | None:
        return slip_macro_f1(self.data, out / "model.json", op_seed)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (SimTruth, SimLearned, TrainSlip)}


def trace_points(tracer) -> None:
    """Register the spans of the traced run, each at the attribute its
    caller looks up, named <module>.<function> after where it is defined."""
    from harvest_guard import fsm, lstm, slip_windows, world

    def size_of_path(args: tuple, kwargs: dict, result: object) -> dict[str, float]:
        return {"bytes": Path(args[0]).stat().st_size}

    def length(key: str):
        return lambda args, kwargs, result: {key: len(result)}

    points: list[tuple[ModuleType | type, str, str, object]] = [
        (cli, "main", "cli.main", None),
        (cli, "gen_slip_dataset", "world.gen_slip_dataset", None),
        (cli, "run_episodes", "world.run_episodes", None),
        (world, "run_episode", "fsm.run_episode", lambda a, k, r: {"records": len(r.records)}),
        (world.EpisodeWorld, "sample_truth", "world.sample_truth", None),
        (world.EpisodeWorld, "approach", "world.approach", None),
        (world.EpisodeWorld, "grasp_stream", "world.grasp_stream", length("frames")),
        (world.EpisodeWorld, "slip_stream", "world.slip_stream", length("windows")),
        (world, "gen_slip_trajectory", "world.gen_slip_trajectory", lambda a, k, r: {"frames": len(r.frames)}),
        (world, "needs_compensation", "geometry.needs_compensation", None),
        (world, "compensated_point", "geometry.compensated_point", None),
        (world, "classify_grasp", "grasp.classify_grasp", None),
        (fsm, "grasp_decision_step", "grasp.grasp_decision_step", None),
        (world, "build_windows", "slip_windows.build_windows", length("windows")),
        (slip_windows, "build_windows", "slip_windows.build_windows", length("windows")),
        (cli, "windows_from_slip_csv", "slip_windows.windows_from_slip_csv", None),
        (slip_windows, "read_slip_csv", "slip_windows.read_slip_csv", None),
        (lstm, "windows_to_arrays", "slip_windows.windows_to_arrays", None),
        (cli, "prepare_splits", "slip_windows.prepare_splits", None),
        (world, "predict_proba", "lstm.predict_proba", length("windows")),
        (lstm, "predict_proba", "lstm.predict_proba", length("windows")),
        (lstm, "loss_and_grads", "lstm.loss_and_grads", None),
        (cli, "lstm_train", "lstm.lstm_train", None),
        (world, "classify_slip", "slip_decision.classify_slip", None),
        (fsm, "time_stability_step", "slip_decision.time_stability_step", None),
        (cli, "write_episode_log", "fsm.write_episode_log", size_of_path),
        (cli, "read_episode_log", "fsm.read_episode_log", None),
        (cli, "aggregate_cycle_times", "metrics.aggregate_cycle_times", None),
        (cli, "write_report", "metrics.write_report", None),
        (cli, "load_model", "model_io.load_model", size_of_path),
        (cli, "save_model", "model_io.save_model", size_of_path),
    ]
    for owner, attr, name, counter in points:
        tracer.patch(owner, attr, name, counter)
