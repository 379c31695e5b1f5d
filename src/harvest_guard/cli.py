"""Command-line entry point.

Subcommands: gen-data, train-slip, eval-slip, train-grasp, compensate,
simulate, report. Exit codes: 0 success, 1 validation problem (including
bad flags), 2 I/O failure. Generating and training commands require
--seed; nothing is ever seeded from the clock. The HARVEST_GUARD_LOG
environment variable (error, info, debug) sets stderr log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import __version__
from .errors import ValidationError
from .fsm import HarvestEpisode, outcome_of, read_episode_log, write_episode_log
from .geometry import (
    CompensationParams,
    compensate_row,
    mean_abs_error,
    read_alignment_csv,
    write_records_csv,
)
from .grasp import (
    GRASP_EPOCHS, GRASP_LEARNING_RATE, GraspClass, GraspModel, classify_grasp, read_grasp_csv, train_grasp_classifier
)
from .lstm import LstmArch, SlipModel, TrainConfig, evaluate, lstm_train
from .metrics import (
    ConfusionMatrix,
    aggregate_cycle_times,
    confusion_metrics,
    macro_f1,
    write_report,
)
from .model_io import load_model, save_model
from .slip_windows import (
    LOOKAHEAD,
    WINDOW_LEN,
    SlipLabel,
    check_split_ratio,
    class_counts,
    prepare_splits,
    stratified_split,
    windows_from_slip_csv,
)
from .world import (
    EPISODE_CHUNK,
    MAX_COUNT,
    EpisodeWorld,
    ScenarioConfig,
    gen_grasp_dataset,
    gen_slip_dataset,
    load_config,
    run_episodes,
    save_config,
)

log = logging.getLogger("harvest_guard")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through the
    # validation path instead so 2 stays reserved for I/O failures
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(f"{self.prog}: {message}")


def _setup_logging() -> None:
    level_name = os.environ.get("HARVEST_GUARD_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValidationError(
            f"HARVEST_GUARD_LOG must be one of {sorted(levels)}, got {level_name!r}"
        )
    # set on every call, so each main() of a process follows the variable;
    # basicConfig would keep the first call's level and stream
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers = [handler]
    log.setLevel(levels[level_name])
    log.propagate = False


def _parse_counts(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--counts needs three comma-separated integers, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--counts needs integers, got {text!r}") from None
    if min(a, b, c) < 0:
        raise ValidationError(f"--counts needs non-negative integers, got {text!r}")
    if max(a, b, c) > MAX_COUNT:
        raise ValidationError(f"--counts allows at most {MAX_COUNT} per class, got {text!r}")
    return a, b, c


# train-slip's largest stack: about 8 M parameters, 65 MB per copy of the weights
_MAX_LAYERS, _MAX_HIDDEN = 16, 256


def _seed(text: str) -> int:
    """argparse type of every seed flag: numpy seeds are non-negative."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _load_scenario(path: str | None) -> ScenarioConfig:
    return load_config(path) if path else ScenarioConfig()


def _load_model_of(path: str, kind: type) -> SlipModel | GraspModel:
    model = load_model(path)
    if not isinstance(model, kind):
        raise ValidationError(f"{path}: holds a {type(model).__name__}, expected a {kind.__name__}")
    return model


def build_parser() -> _Parser:
    parser = _Parser(prog="harvest-guard", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a SlipData or GraspData CSV")
    p.add_argument("--kind", choices=("slip", "grasp"), required=True)
    p.add_argument(
        "--counts",
        required=True,
        help=f"slip: window labels normal,slipping,slipped; grasp: rows ripe,empty,unripe; each at most {MAX_COUNT}",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--config", help="scenario INI file (defaults used when omitted)")

    p = sub.add_parser("train-slip", help="train the slip classifier on a SlipData CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file destination")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--ratio", type=float, default=0.7, help="train fraction of the stratified split")
    p.add_argument("--layers", type=int, default=LstmArch.n_layers, help=f"LSTM layers, at most {_MAX_LAYERS}")
    p.add_argument("--hidden", type=int, default=LstmArch.hidden_size, help=f"units per layer, at most {_MAX_HIDDEN}")

    p = sub.add_parser("eval-slip", help="evaluate a slip model on a SlipData CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="optional per-class metrics CSV")
    p.add_argument("--split-ratio", type=float, help="evaluate only the validation side of this split")
    p.add_argument("--split-seed", type=_seed, help="seed of the split to reproduce (with --split-ratio)")

    p = sub.add_parser("train-grasp", help="train the grasp classifier on a GraspData CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file destination")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--epochs", type=int, default=GRASP_EPOCHS)
    p.add_argument("--lr", type=float, default=GRASP_LEARNING_RATE)
    p.add_argument("--ratio", type=float, default=0.7)

    p = sub.add_parser("compensate", help="replay an alignment audit CSV through the compensation rule")
    p.add_argument("--input", required=True, help="CSV with xs,ys,zs,xe,ye,ze[,dx_w,dy_w]")
    p.add_argument("--out", required=True, help="per-trial record CSV destination")
    p.add_argument("--kx", type=float, default=CompensationParams.k_x)
    p.add_argument("--ky", type=float, default=CompensationParams.k_y)
    p.add_argument("--threshold", type=float, default=CompensationParams.threshold_t)

    p = sub.add_parser("simulate", help="run fault-injection harvest episodes")
    p.add_argument("--config", help="scenario INI file")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--episodes", type=int, help=f"override episode count from the config; at most {MAX_COUNT}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--deterministic", action="store_true", help="stage durations at their means")
    p.add_argument("--slip-model", help="use this slip model instead of ground-truth monitoring")
    p.add_argument("--grasp-model", help="use this grasp model instead of ground-truth monitoring")

    p = sub.add_parser("report", help="aggregate an episode log into a summary report")
    p.add_argument("--episodes", required=True, help="episode JSONL log")
    p.add_argument("--out", required=True)

    return parser


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = _load_scenario(args.config)
    counts = _parse_counts(args.counts)
    if args.kind == "slip":
        gen_slip_dataset(args.out, config, counts, args.seed)
    else:
        gen_grasp_dataset(args.out, config, counts, args.seed)
    log.info("wrote %s dataset with counts %s to %s", args.kind, counts, args.out)
    print(f"{args.out}: {args.kind} dataset, counts {counts[0]},{counts[1]},{counts[2]}")
    return 0


def _cmd_train_slip(args: argparse.Namespace) -> int:
    check_split_ratio(args.ratio)
    for flag, value, cap in (("--layers", args.layers, _MAX_LAYERS), ("--hidden", args.hidden, _MAX_HIDDEN)):
        if value > cap:
            raise ValidationError(f"{flag} allows at most {cap}, got {value}")
    arch = LstmArch(n_layers=args.layers, hidden_size=args.hidden)
    config = TrainConfig(epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size, seed=args.seed)
    windows = windows_from_slip_csv(args.data)
    if not windows:
        raise ValidationError(f"{args.data}: no windows (episodes need at least {WINDOW_LEN + LOOKAHEAD} frames)")
    counts = class_counts(windows.y)
    log.info("loaded %d windows, counts %s", len(windows), {k.name: v for k, v in sorted(counts.items())})
    train, val = prepare_splits(windows, args.ratio, args.seed)
    model = lstm_train(train, val, config, arch)
    model.metadata["split_ratio"] = args.ratio
    # training always splits first; the key stays so model files keep their bytes
    model.metadata["oversample_first"] = False
    save_model(args.out, model)
    final_loss = model.metadata["train_loss"][-1]
    summary = f"trained on {len(train)} windows ({args.epochs} epochs); final loss {final_loss:.4f}"
    val_hist = model.metadata.get("val_accuracy")
    if val_hist:
        summary += f"; best val accuracy {max(val_hist):.4f} (epoch {model.metadata['best_epoch']})"
    print(summary)
    print(f"model saved to {args.out}")
    return 0


_SLIP_CLASS_NAMES = tuple(l.name.lower() for l in SlipLabel)


def _cmd_eval_slip(args: argparse.Namespace) -> int:
    if (args.split_ratio is None) != (args.split_seed is None):
        raise ValidationError("--split-ratio and --split-seed go together")
    if args.split_ratio is not None:
        check_split_ratio(args.split_ratio)
    model = _load_model_of(args.model, SlipModel)
    windows = windows_from_slip_csv(args.data)
    if args.split_ratio is not None:
        # the validation side of train-slip's split; nothing is oversampled
        windows = windows.take(stratified_split(windows.y, args.split_ratio, args.split_seed)[1])
    if not windows:
        raise ValidationError(f"{args.data}: nothing to evaluate")
    pred, true = evaluate(model, windows)
    cm = ConfusionMatrix.from_pairs(true.tolist(), pred.tolist(), _SLIP_CLASS_NAMES)
    per_class = confusion_metrics(cm)
    rows = [
        {"class": name, "precision": m.precision, "recall": m.recall, "f1": m.f1}
        for name, m in per_class.items()
    ]
    for row in rows:
        print(f"{row['class']:>9}: precision {row['precision']:.4f} recall {row['recall']:.4f} f1 {row['f1']:.4f}")
    print(f"macro-F1: {macro_f1(cm):.4f}")
    if args.out:
        write_report(args.out, rows)
        log.info("wrote metrics report to %s", args.out)
    return 0


def _cmd_train_grasp(args: argparse.Namespace) -> int:
    check_split_ratio(args.ratio)
    x, y = read_grasp_csv(args.data)
    if not len(y):
        raise ValidationError(f"{args.data}: empty dataset")
    train_idx, val_idx = stratified_split(y, args.ratio, args.seed)
    model = train_grasp_classifier(x[train_idx], y[train_idx], args.lr, args.epochs, args.seed)
    save_model(args.out, model)
    if len(val_idx):
        pred = [int(c) for c in classify_grasp(model, x[val_idx])]
        cm = ConfusionMatrix.from_pairs(y[val_idx].tolist(), pred, tuple(c.name.lower() for c in GraspClass))
        for name, m in confusion_metrics(cm).items():
            print(f"{name:>12}: precision {m.precision:.2f} recall {m.recall:.2f} f1 {m.f1:.2f}")
    print(f"model saved to {args.out}")
    return 0


def _cmd_compensate(args: argparse.Namespace) -> int:
    params = CompensationParams(threshold_t=args.threshold, k_x=args.kx, k_y=args.ky)
    trials = read_alignment_csv(args.input)
    if not trials:
        raise ValidationError(f"{args.input}: no trials")
    records = []
    for lineno, row in trials:
        try:
            records.append(compensate_row(row, params))
        except ValidationError as exc:
            raise ValidationError(f"{args.input}: line {lineno}: {exc}") from exc
    write_records_csv(records, args.out)

    print(f"trials: {len(records)}  compensated: {sum(1 for r in records if r['x_ce'] is not None)}")
    # dx,dy are in every record; the ground-truth offsets and residuals
    # are summarised over the records that carry them
    for a, b in (("dx", "dy"), ("dx_w", "dy_w"), ("e_x", "e_y")):
        listed = [r for r in records if r[a] is not None]
        if listed:
            print(
                f"mean |{a}|: {mean_abs_error([r[a] for r in listed]):.2f} mm  "
                f"mean |{b}|: {mean_abs_error([r[b] for r in listed]):.2f} mm"
            )
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


@contextmanager
def _staged(path: Path) -> Iterator[Path]:
    """A temporary file to write `path`'s contents to. It sits in the
    nearest existing ancestor of `path`'s directory, and once the block
    ends that directory is made and the file moved to `path`. Any
    exception, KeyboardInterrupt too, removes it instead, so a failing
    write creates no directory and leaves every existing file as it was."""
    ancestor = next((p for p in path.parents if p.is_dir()), path.parent)
    staged = ancestor / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        yield staged
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(staged, path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_scenario(args.config)
    # the flag passes the config's own bound; scenario.ini records the loaded config
    n = config.episodes if args.episodes is None else dataclasses.replace(config, episodes=args.episodes).episodes
    if n < 1:
        raise ValidationError(f"need at least one episode, got {n}")
    slip_model = _load_model_of(args.slip_model, SlipModel) if args.slip_model else None
    grasp_model = _load_model_of(args.grasp_model, GraspModel) if args.grasp_model else None
    world = EpisodeWorld(config, slip_model=slip_model, grasp_model=grasp_model)
    # all the summary needs: each episode's total, by outcome, in run order
    totals: dict[str, list[float]] = {}

    def episodes() -> Iterator[HarvestEpisode]:
        for first in range(0, n, EPISODE_CHUNK):
            chunk = run_episodes(world, min(EPISODE_CHUNK, n - first), deterministic=args.deterministic,
                                 master_seed=args.seed, first=first)
            for ep in chunk:
                totals.setdefault(ep.outcome.value, []).append(ep.total_s)
            yield from chunk

    out_dir = Path(args.out)
    with _staged(out_dir / "episodes.jsonl") as staged:
        write_episode_log(staged, episodes())
    save_config(out_dir / "scenario.ini", config)

    _write_summary(totals, out_dir / "summary.csv")
    print(f"episode log: {out_dir / 'episodes.jsonl'}")
    return 0


def _write_summary(totals: dict[str, list[float]], path: str | Path) -> None:
    """Per-outcome cycle-time rows of each outcome's episode totals, written
    to `path` and printed."""
    rows = [
        {"outcome": outcome, "n": agg.n, "mean_s": agg.mean_s, "std_s": agg.std_s}
        for outcome, agg in aggregate_cycle_times(totals).items()
    ]
    write_report(path, rows)
    for row in rows:
        print(f"{row['outcome']}: n={row['n']} mean {row['mean_s']:.3f} s std {row['std_s']:.3f} s")


def _cmd_report(args: argparse.Namespace) -> int:
    # per outcome, each episode's id and total, in file order
    groups: dict[str, tuple[list[int], list[float]]] = {}
    for episode_id, records in read_episode_log(args.episodes):
        ids, totals = groups.setdefault(outcome_of(records).value, ([], []))
        ids.append(episode_id)
        totals.append(sum(r.duration_s for r in records))
    if not groups:
        raise ValidationError(f"{args.episodes}: empty log")
    # each outcome's totals by episode id, which the reader keeps unique
    by_id = {
        outcome: [totals[k] for k in sorted(range(len(ids)), key=ids.__getitem__)]
        for outcome, (ids, totals) in groups.items()
    }
    _write_summary(by_id, args.out)
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train-slip": _cmd_train_slip,
    "eval-slip": _cmd_eval_slip,
    "train-grasp": _cmd_train_grasp,
    "compensate": _cmd_compensate,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
