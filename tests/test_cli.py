"""Command-line behavior: exit codes, determinism, file outputs."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from harvest_guard.cli import main
from harvest_guard.grasp import GRASP_CSV_HEADER, GraspModel
from harvest_guard.lstm import LstmArch, init_model
from harvest_guard.model_io import save_model
from harvest_guard.slip_windows import SLIP_CSV_HEADER, windows_from_slip_csv
from harvest_guard.world import _CONFIG_SCHEMA, ScenarioConfig, load_config, save_config

from conftest import ALIGNMENT_CSV, FLOAT_KEYS, REPO_ROOT, renumbered


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_is_usage_error(capsys):
    assert main(["harvest-everything"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen-data", "--kind", "slip", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_seed_is_usage_error(tmp_path, capsys):
    code = main(["gen-data", "--kind", "slip", "--counts", "5,5,5", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_bad_counts_is_usage_error(tmp_path, capsys):
    code = main(
        ["gen-data", "--kind", "slip", "--counts", "5,5", "--out", str(tmp_path / "x.csv"), "--seed", "0"]
    )
    assert code == 1
    assert "three comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-data", "--kind", "slip", "--counts", "5,5,5", "--out", "x.csv", "--seed", "-1"],
        ["train-slip", "--data", "x.csv", "--out", "m.json", "--seed", "-1"],
        ["train-grasp", "--data", "x.csv", "--out", "m.json", "--seed", "-1"],
        ["simulate", "--out", "run", "--seed", "-1"],
        ["simulate", "--out", "run", "--seed", "seven"],
        ["eval-slip", "--data", "x.csv", "--model", "m.json", "--split-ratio", "0.7", "--split-seed", "-1"],
    ],
)
def test_bad_seed_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "seed must be a non-negative integer" in err[0]


def test_invalid_log_level_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HARVEST_GUARD_LOG", "loud")
    assert main(["gen-data", "--kind", "slip", "--counts", "1,1,1", "--out", str(tmp_path / "x.csv"), "--seed", "0"]) == 1
    assert "HARVEST_GUARD_LOG" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(
        [
            "gen-data",
            "--kind",
            "slip",
            "--counts",
            "1,1,1",
            "--out",
            str(tmp_path / "x.csv"),
            "--seed",
            "0",
            "--config",
            str(tmp_path / "absent.ini"),
        ]
    )
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


def test_gen_data_slip_writes_expected_windows(tmp_path, capsys):
    out = tmp_path / "slip.csv"
    assert main(["gen-data", "--kind", "slip", "--counts", "12,4,4", "--out", str(out), "--seed", "1"]) == 0
    windows = windows_from_slip_csv(out)
    assert len(windows) == 20
    assert "slip dataset" in capsys.readouterr().out


def test_gen_data_is_byte_identical_per_seed(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for out in (a, b):
        assert main(["gen-data", "--kind", "slip", "--counts", "10,5,5", "--out", str(out), "--seed", "3"]) == 0
    assert main(["gen-data", "--kind", "slip", "--counts", "10,5,5", "--out", str(c), "--seed", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_compensate_replays_the_bundled_audit(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["compensate", "--input", str(ALIGNMENT_CSV), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "trials: 20  compensated: 17" in printed
    assert "mean |dx|: 14.07 mm  mean |dy|: 8.64 mm" in printed
    assert "mean |dx_w|: 11.52 mm  mean |dy_w|: 5.15 mm" in printed
    assert "mean |e_x|: 3.12 mm  mean |e_y|: 4.11 mm" in printed
    assert out.exists()


def test_compensate_means_of_huge_offsets_stay_finite(tmp_path, capsys):
    data, out = tmp_path / "trials.csv", tmp_path / "records.csv"
    row = "709,221,706,686,225,647,22,-4,1.7e308,3"
    data.write_text(f"xs,ys,zs,xe,ye,ze,dx,dy,dx_w,dy_w\n{row}\n{row}\n")
    assert main(["compensate", "--input", str(data), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"mean |dx_w|: {1.7e308:.2f} mm  mean |dy_w|: 3.00 mm" in printed.splitlines()
    assert "inf" not in printed


def test_compensate_of_a_header_only_file_has_no_trials(tmp_path, capsys):
    data, out = tmp_path / "empty.csv", tmp_path / "records.csv"
    data.write_text("xs,ys,zs,xe,ye,ze\n")
    assert main(["compensate", "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {data}: no trials\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "row, problem",
    [
        ("709,221,706,686,225,647,22,-4,nan,4.2", "dx_w must be finite, got nan"),
        ("709,221,706,686,225,647,inf,-4,,", "dx must be finite, got inf"),
        ("nan,221,706,686,225,647,,,,", "xs must be finite, got nan"),
        ("709,221,706,nan,225,647,,,,", "xe must be finite, got nan"),
        ("1e308,221,706,-1e308,225,647,,,,", "xs - xe must be finite, got inf"),
    ],
)
def test_compensate_rejects_non_finite_values_before_writing(tmp_path, capsys, row, problem):
    data, out = tmp_path / "trials.csv", tmp_path / "records.csv"
    data.write_text(f"xs,ys,zs,xe,ye,ze,dx,dy,dx_w,dy_w\n{row}\n")
    assert main(["compensate", "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: bad row at line 2: {problem}"]
    assert not out.exists()


def _csv_with_bad_row_on_line_5(path, header, good, bad):
    # a comment line and a blank line both count as file lines
    path.write_text(f"# recorded on the test rig\n{header}\n{good}\n\n{bad}\n")


def test_compensate_names_the_file_line_of_a_bad_row(tmp_path, capsys):
    data, out = tmp_path / "trials.csv", tmp_path / "records.csv"
    row = "709,221,706,686,225,647"
    _csv_with_bad_row_on_line_5(data, "xs,ys,zs,xe,ye,ze,dx,dy", row + ",22,-4", row + ",inf,-4")
    assert main(["compensate", "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: bad row at line 5: dx must be finite, got inf"]


def test_simulate_writes_three_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "5", "--episodes", "20", "--out", str(out_dir)]) == 0
    assert (out_dir / "episodes.jsonl").exists()
    assert (out_dir / "scenario.ini").exists()
    assert (out_dir / "summary.csv").exists()
    assert load_config(out_dir / "scenario.ini") == ScenarioConfig()
    with (out_dir / "summary.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["outcome", "n", "mean_s", "std_s"]
    assert sum(int(r["n"]) for r in rows) == 20
    assert "episode log:" in capsys.readouterr().out


def test_simulate_is_byte_identical_per_seed(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    other = tmp_path / "other"
    for out_dir, seed in ((first, "7"), (second, "7"), (other, "8")):
        assert main(["simulate", "--seed", seed, "--episodes", "15", "--out", str(out_dir)]) == 0
    for name in ("episodes.jsonl", "scenario.ini", "summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "episodes.jsonl").read_bytes() != (other / "episodes.jsonl").read_bytes()


def test_simulate_rejects_zero_episodes(tmp_path, capsys):
    assert main(["simulate", "--seed", "1", "--episodes", "0", "--out", str(tmp_path / "r")]) == 1


def test_report_aggregates_an_episode_log(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "25", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    report = tmp_path / "summary2.csv"
    assert main(["report", "--episodes", str(out_dir / "episodes.jsonl"), "--out", str(report)]) == 0
    # rebuilding the summary from the log reproduces simulate's own summary
    assert report.read_bytes() == (out_dir / "summary.csv").read_bytes()


@pytest.mark.parametrize(
    "line, problem",
    [
        ("{not json", "line 2: not JSON"),
        ("[1, 2, 3]", "line 2: not a JSON object"),
        pytest.param("[" * 100_000, "line 2: not JSON: maximum recursion depth", id="deep-nesting"),
        pytest.param("1" * 5_000, "line 2: not JSON: Exceeds the limit (4300 digits)", id="long-int"),
    ],
)
def test_report_rejects_malformed_log_lines(tmp_path, capsys, line, problem):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "1", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    first = log.read_text().splitlines()[0]
    log.write_text(f"{first}\n{line}\n")
    assert main(["report", "--episodes", str(log), "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and problem in err[0]


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("duration_s", '"x"', "duration_s must be a finite number, got 'x'"),
        ("duration_s", "NaN", "duration_s must be a finite number, got nan"),
        ("duration_s", "true", "duration_s must be a finite number, got True"),
        pytest.param("duration_s", "1" + "0" * 400, f"duration_s must be a finite number, got {10**400}", id="huge-int"),
        pytest.param("duration_s", "-100.0", "duration_s must be non-negative, got -100.0", id="negative"),
        ("episode_id", '"a"', "episode_id must be an integer, got 'a'"),
        ("episode_id", "[1]", "episode_id must be an integer, got [1]"),
        ("seq", "1.0", "seq must be an integer, got 1.0"),
        ("seq", "false", "seq must be an integer, got False"),
        ("stage", '"flying"', "unknown stage 'flying'"),
        ("variant", "{}", "unknown variant {}"),
        ("event", "null", "unknown event None"),
        ("detail", "5", "detail must be a string, got 5"),
    ],
)
def test_report_rejects_log_values_of_the_wrong_kind(tmp_path, capsys, field, value, problem):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "1", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    first, second = log.read_text().splitlines()[:2]
    doc = json.loads(second)
    bad = json.dumps(doc).replace(f'"{field}": {json.dumps(doc[field])}', f'"{field}": {value}')
    assert bad != json.dumps(doc)
    log.write_text(f"{first}\n{bad}\n")
    report = tmp_path / "s.csv"
    assert main(["report", "--episodes", str(log), "--out", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {log}: line 2: {problem}"]
    assert not report.exists()


def test_report_rejects_a_stage_variant_pair_the_cycle_never_records(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "1", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    lines = log.read_text().splitlines()
    homing = json.loads(lines[-1])
    assert homing["stage"] == "homing"
    homing["variant"] = "slipped-abort"
    lines[-1] = json.dumps(homing)
    log.write_text("\n".join(lines) + "\n")
    report = tmp_path / "s.csv"
    assert main(["report", "--episodes", str(log), "--out", str(report)]) == 1
    problem = f"line {len(lines)}: stage 'homing' has no variant 'slipped-abort'"
    assert capsys.readouterr().err.splitlines() == [f"error: {log}: {problem}"]
    assert not report.exists()


@pytest.mark.parametrize(
    "case", ["repeated episode", "repeated record", "missing record", "no homing", "no final homing", "after homing"]
)
def test_report_rejects_a_log_whose_records_do_not_form_episodes(tmp_path, capsys, case):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "3", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    lines = log.read_text().splitlines()
    one = [json.loads(line)["seq"] for line in lines].index(0, 1)  # episode 1's first line
    if case == "repeated episode":  # once accepted, adding episode 0's first stage again to its total
        lines.append(lines[0])
        problem = f"line {len(lines)}: episode 0 already ended"
    elif case == "repeated record":
        lines.insert(1, lines[0])
        problem = "line 2: episode 0 has seq 0, expected 1"
    elif case == "missing record":
        del lines[one + 1]
        problem = f"line {one + 2}: episode 1 has seq 2, expected 1"
    elif case == "no homing":
        stage = json.loads(lines[one - 2])["stage"]
        del lines[one - 1]
        problem = f"line {one}: episode 0 ends in {stage}, not homing"
    elif case == "no final homing":  # blank lines after the last record do not move its line
        stage = json.loads(lines[-2])["stage"]
        lines[-1] = ""
        problem = f"line {len(lines) - 1}: episode 2 ends in {stage}, not homing"
    else:  # a second homing record, numbered in sequence
        homing = json.loads(lines[one - 1])
        homing["seq"] += 1
        lines.insert(one, json.dumps(homing))
        problem = f"line {one + 1}: episode 0 already ended"
    log.write_text("\n".join(lines) + "\n")
    report = tmp_path / "s.csv"
    assert main(["report", "--episodes", str(log), "--out", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {log}: {problem}"]
    assert not report.exists()


@pytest.mark.parametrize(
    "case, homing_line, problem",
    [
        # a grasp abort's swallowing edited to placing once counted as an abort
        ("placed", 5, "episode 0: aborted-empty-or-misgrasp walk has placing at seq 1, expected swallowing"),
        ("dropped", 19, "episode 2: picked-and-placed walk has snap-off at seq 3, expected deflating"),
        ("three-dropped", 17, "episode 2: picked-and-placed walk has descending at seq 2, expected swallowing"),
        ("swapped", 12, "episode 1: aborted-slipped walk has descending at seq 4, expected snap-off"),
        # once the stages pass, the first event the walk does not write; the
        # two edits of "events" once left report's exit code and summary unchanged
        ("events", 5, "episode 0: swallowing at seq 1 has event placed, expected swallowed"),
        ("homing-event", 20, "episode 2: homing at seq 7 has event grasp-abort, expected homed"),
        ("aligned", 20, "episode 2: inflating-approaching at seq 0 has event aligned, expected misaligned"),
        ("with-fruit", 12, "episode 1: descending at seq 5 has event descended-with-fruit, expected descended-empty"),
    ],
    ids=["placed", "dropped", "three-dropped", "swapped", "events", "homing-event", "aligned", "with-fruit"],
)
def test_report_rejects_an_episode_the_cycle_cannot_walk(tmp_path, capsys, case, homing_line, problem):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "3", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    docs = [json.loads(line) for line in log.read_text().splitlines()]
    # episode 0 is a grasp abort, 1 a compensated slipped abort and 2 a compensated pick
    assert [doc["event"] for doc in docs if doc["stage"] in ("inflating-approaching", "deflating", "snap-off")] == [
        "aligned", "grasp-abort", "misaligned", "grasp-ok", "two-consecutive-slipped", "misaligned", "grasp-ok", "snap-ok"
    ]
    event_edits = {
        "events": {19: "grasp-abort", 1: "placed"},
        "homing-event": {19: "grasp-abort"},
        "aligned": {12: "aligned"},  # episode 2's approach, which a compensation follows
        "with-fruit": {10: "descended-with-fruit"},  # episode 1's descending, after a slipped abort
    }
    if case == "placed":
        assert docs[1]["stage"] == "swallowing"
        docs[1].update(stage="placing", event="placed")
    elif case == "dropped":
        del docs[15]  # episode 2's deflating
    elif case == "three-dropped":
        del docs[14:17]  # episode 2's swallowing, deflating and snap-off
    elif case == "swapped":
        docs[9], docs[10] = docs[10], docs[9]  # episode 1's snap-off and descending
    else:
        for i, event in event_edits[case].items():
            docs[i]["event"] = event
    lines = renumbered(docs)
    assert json.loads(lines[homing_line - 1])["stage"] == "homing"
    log.write_text("\n".join(lines) + "\n")
    report = tmp_path / "s.csv"
    assert main(["report", "--episodes", str(log), "--out", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {log}: line {homing_line}: {problem}"]
    assert not report.exists()


def test_train_and_eval_slip_round_trip(tmp_path, capsys):
    data = tmp_path / "slip.csv"
    model = tmp_path / "slip.model.json"
    assert main(["gen-data", "--kind", "slip", "--counts", "30,12,12", "--out", str(data), "--seed", "0"]) == 0
    code = main(
        [
            "train-slip",
            "--data",
            str(data),
            "--out",
            str(model),
            "--seed",
            "0",
            "--epochs",
            "2",
            "--layers",
            "2",
            "--hidden",
            "8",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "best val accuracy" in printed
    assert model.exists()

    assert main(["eval-slip", "--data", str(data), "--model", str(model)]) == 0
    assert "macro-F1:" in capsys.readouterr().out


def test_train_slip_bytes_do_not_depend_on_blas_threads(tmp_path):
    # hidden 64 at batch 32 makes the gate GEMMs big enough for OpenBLAS
    # to split them across threads; smaller ones always run on one
    data = tmp_path / "slip.csv"
    assert main(["gen-data", "--kind", "slip", "--counts", "120,40,40", "--out", str(data), "--seed", "0"]) == 0
    models = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
        }
        out = tmp_path / f"threads{threads}.json"
        argv = ["train-slip", "--data", str(data), "--out", str(out), "--seed", "0", "--epochs", "1",
                "--layers", "2", "--hidden", "64"]
        proc = subprocess.run([sys.executable, "-m", "harvest_guard.cli", *argv],
                              capture_output=True, text=True, env=env, check=False, timeout=120)
        assert proc.returncode == 0, proc.stderr
        models[threads] = out.read_bytes()
    assert models["1"] == models["2"]


def test_learned_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # each stacked slip forward runs its two episode halves on two threads,
    # so at 2 BLAS threads each episode thread may also run BLAS threads
    slip, grasp = tmp_path / "slip.json", tmp_path / "grasp.json"
    save_model(slip, init_model(LstmArch(n_layers=2, hidden_size=64), seed=0))
    save_model(grasp, GraspModel(np.zeros((3, 4)), np.zeros(3)))  # every episode reaches snap-off
    logs = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
        }
        run = tmp_path / f"threads{threads}"
        argv = ["simulate", "--seed", "7", "--episodes", "200", "--out", str(run), "--slip-model", str(slip),
                "--grasp-model", str(grasp)]
        proc = subprocess.run([sys.executable, "-m", "harvest_guard.cli", *argv],
                              capture_output=True, text=True, env=env, check=False, timeout=120)
        assert proc.returncode == 0, proc.stderr
        logs[threads] = (run / "episodes.jsonl").read_bytes()
    assert logs["1"] == logs["2"]


def test_eval_slip_split_flags_must_pair(tmp_path, capsys):
    data = tmp_path / "slip.csv"
    model = tmp_path / "m.json"
    main(["gen-data", "--kind", "slip", "--counts", "10,5,5", "--out", str(data), "--seed", "0"])
    main(["train-slip", "--data", str(data), "--out", str(model), "--seed", "0", "--epochs", "1", "--layers", "1", "--hidden", "4"])
    capsys.readouterr()
    assert main(["eval-slip", "--data", str(data), "--model", str(model), "--split-ratio", "0.7"]) == 1
    assert "go together" in capsys.readouterr().err


def test_eval_slip_split_of_a_header_only_file_has_nothing_to_evaluate(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text(",".join(SLIP_CSV_HEADER) + "\n")
    model = _slip_model_file(tmp_path / "m.json")
    argv = ["eval-slip", "--data", str(data), "--model", str(model), "--split-ratio", "0.7", "--split-seed", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: nothing to evaluate"]


def test_train_grasp_reports_validation_metrics(tmp_path, capsys):
    data = tmp_path / "grasp.csv"
    model = tmp_path / "grasp.model.json"
    assert main(["gen-data", "--kind", "grasp", "--counts", "30,30,30", "--out", str(data), "--seed", "1"]) == 0
    assert main(["train-grasp", "--data", str(data), "--out", str(model), "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert "model saved to" in printed
    assert "precision 1.00" in printed  # separable bands train clean


@pytest.mark.parametrize("flag", ["2", "-1"])
def test_train_grasp_rejects_a_fruit_present_flag_other_than_0_or_1(tmp_path, capsys, flag):
    data = tmp_path / "grasp.csv"
    assert main(["gen-data", "--kind", "grasp", "--counts", "3,3,3", "--out", str(data), "--seed", "1"]) == 0
    lines = data.read_text().splitlines()
    lines.insert(3, f"0.5,0.1,0.3,{flag},0")
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    model = tmp_path / "grasp.model.json"
    assert main(["train-grasp", "--data", str(data), "--out", str(model), "--seed", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: bad row at line 4: fruit_present must be 0 or 1, got {flag}"]
    assert not model.exists()


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0.5,0.1,0.3,x,0", "invalid literal for int() with base 10: 'x'"),
        ("0.5,0.1,0.3,2,0", "fruit_present must be 0 or 1, got 2"),
    ],
)
def test_train_grasp_names_the_file_line_of_a_bad_row(tmp_path, capsys, row, problem):
    data, model = tmp_path / "grasp.csv", tmp_path / "grasp.model.json"
    _csv_with_bad_row_on_line_5(data, ",".join(GRASP_CSV_HEADER), "0.5,0.1,0.3,1,0", row)
    assert main(["train-grasp", "--data", str(data), "--out", str(model), "--seed", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: bad row at line 5: {problem}"]


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0,1,0.2,oops,0.5,0.1,0.15,0.03,0.5,0", "could not convert string to float: 'oops'"),
        ("0,1,0.2,0.3,0.5,0.1,0.15,1.25,0.5,0", "x must lie in [0, 1], got 1.25"),
    ],
)
def test_train_slip_names_the_file_line_of_a_bad_row(tmp_path, capsys, row, problem):
    data, model = tmp_path / "slip.csv", tmp_path / "slip.model.json"
    _csv_with_bad_row_on_line_5(data, ",".join(SLIP_CSV_HEADER), "0,0,0.2,0.3,0.5,0.1,0.15,0.03,0.5,0", row)
    assert main(["train-slip", "--data", str(data), "--out", str(model), "--seed", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: bad row at line 5: {problem}"]


def _csv_command(command, data, out):
    """The argv that feeds `data` to one of the three CSV readers."""
    if command == "compensate":
        return ["compensate", "--input", str(data), "--out", str(out)]
    extra = ["--epochs", "1", "--layers", "1", "--hidden", "2"] if command == "train-slip" else ["--epochs", "5"]
    return [command, "--data", str(data), "--out", str(out), "--seed", "1", *extra]


def _csv_for(command, path):
    if command == "compensate":
        path.write_text("xs,ys,zs,xe,ye,ze\n709,221,706,686,225,647\n")
    else:
        kind = command.removeprefix("train-")
        assert main(["gen-data", "--kind", kind, "--counts", "3,3,3", "--out", str(path), "--seed", "1"]) == 0


@pytest.mark.parametrize("command", ["compensate", "train-grasp", "train-slip"])
def test_a_blank_line_before_the_header_is_skipped(tmp_path, capsys, command):
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    _csv_for(command, plain)
    padded.write_text("# audit\n\n" + plain.read_text())
    capsys.readouterr()
    assert main(_csv_command(command, plain, tmp_path / "plain.out")) == 0
    assert main(_csv_command(command, padded, tmp_path / "padded.out")) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "padded.out").read_bytes() == (tmp_path / "plain.out").read_bytes()


@pytest.mark.parametrize("command", ["compensate", "train-grasp", "train-slip"])
def test_an_oversized_field_is_one_error_line(tmp_path, capsys, command):
    header, good = {
        "compensate": ("xs,ys,zs,xe,ye,ze", "709,221,706,686,225,647"),
        "train-grasp": (",".join(GRASP_CSV_HEADER), "0.5,0.1,0.3,1,0"),
        "train-slip": (",".join(SLIP_CSV_HEADER), "0,0,0.2,0.3,0.5,0.1,0.15,0.03,0.5,0"),
    }[command]
    data, out = tmp_path / "data.csv", tmp_path / "out"
    _csv_with_bad_row_on_line_5(data, header, good, "1" * 131_073 + good[1:])
    assert main(_csv_command(command, data, out)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: line 5: field larger than field limit (131072)"]
    assert not out.exists()


def test_simulate_bytes_are_pinned(tmp_path, capsys):
    # same seed, same bytes across versions of the code, not only across
    # two runs of one version; a change here changes what a seed produces
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "7", "--episodes", "200", "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("episodes.jsonl", "summary.csv", "scenario.ini")
    }
    assert digests == {
        "episodes.jsonl": "9de6ce4a186293bebb6477f13c439586db7de7999c73c532aa7a990ce8ae799e",
        "summary.csv": "1526a787752b28f3d3518683c951140df1fca476a56b4ad77960a8f5a0fa8a2f",
        "scenario.ini": "8fa4772293a4b788594f6cade8dcb6b4c237d7267db9e5bee3498b1c38edbbb4",
    }


def test_gen_data_slip_bytes_are_pinned(tmp_path, capsys):
    # the benchmark's sim-learned training set; gen-data is the other
    # caller of the trajectory generator, so its bytes are pinned too
    out = tmp_path / "slip.csv"
    assert main(["gen-data", "--kind", "slip", "--counts", "300,120,120", "--seed", "7", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9fd5b1e26c54a7da506f1ff417443ce71abd8e2054b663582484c09583ff09fa"


def test_training_bytes_are_pinned(tmp_path, capsys):
    # the stratified split, the oversampling draws and the learned-monitor
    # path: the order of every training window reaches these bytes, so a
    # data path that reorders a draw or a window fails here
    slip, grasp = tmp_path / "slip.csv", tmp_path / "grasp.csv"
    slip_model, first_model, grasp_model = (tmp_path / n for n in ("slip.json", "first.json", "grasp.json"))
    assert main(["gen-data", "--kind", "slip", "--counts", "60,25,25", "--out", str(slip), "--seed", "3"]) == 0
    assert main(["gen-data", "--kind", "grasp", "--counts", "30,30,30", "--out", str(grasp), "--seed", "1"]) == 0
    train = ["train-slip", "--data", str(slip), "--seed", "0", "--layers", "2", "--hidden", "8", "--epochs", "2",
             "--lr", "0.03"]
    assert main(train + ["--out", str(slip_model)]) == 0
    assert main(train + ["--out", str(first_model), "--oversample-first"]) == 0
    assert main(["train-grasp", "--data", str(grasp), "--out", str(grasp_model), "--seed", "1"]) == 0
    capsys.readouterr()
    evaluated = ["eval-slip", "--data", str(slip), "--model", str(slip_model), "--split-ratio", "0.7", "--split-seed", "0"]
    assert main(evaluated) == 0
    eval_stdout = capsys.readouterr().out
    run = tmp_path / "run"
    simulated = ["simulate", "--seed", "7", "--episodes", "100", "--out", str(run), "--slip-model", str(slip_model),
                 "--grasp-model", str(grasp_model)]
    assert main(simulated) == 0
    digests = {
        "slip model": hashlib.sha256(slip_model.read_bytes()).hexdigest(),
        "oversample-first model": hashlib.sha256(first_model.read_bytes()).hexdigest(),
        "grasp model": hashlib.sha256(grasp_model.read_bytes()).hexdigest(),
        "eval-slip stdout": hashlib.sha256(eval_stdout.encode()).hexdigest(),
        "episodes.jsonl": hashlib.sha256((run / "episodes.jsonl").read_bytes()).hexdigest(),
    }
    assert digests == {
        "slip model": "272448c238f1b21abbf32dbae48302f5c4d174c9257591c3a33a66a2b741ce6d",
        "oversample-first model": "d428b39777497c1562036ed0e413ba849c59b9e4f99946a39fb1657503d4d30c",
        "grasp model": "4e4103727b1b84dda0ec3c1cb6827d03f11a355a823f6e51b994f5c3dd861f13",
        "eval-slip stdout": "12ee286ac7ff67c45ace3b137d5b138ea12592ea6cefa17c007d55345f7deb36",
        "episodes.jsonl": "ffdda36dfbb99eecebaa3fa1612fc21c6b0c46f63c56f569e06e98fcf62a9870",
    }


def test_grasp_bytes_are_pinned(tmp_path, capsys):
    # the grasp draws, the CSV round trip, training and the learned grasp
    # monitor; at noise_scale = 0 held classes still draw and an empty
    # grasp draws nothing, so the episode log pins the draw order too
    data, loud, model = tmp_path / "grasp.csv", tmp_path / "loud.csv", tmp_path / "grasp.json"
    (tmp_path / "loud.ini").write_text("[grasp]\nnoise_scale = 8\n")
    (tmp_path / "quiet.ini").write_text("[grasp]\nnoise_scale = 0\n")
    assert main(["gen-data", "--kind", "grasp", "--counts", "120,120,120", "--seed", "7", "--out", str(data)]) == 0
    assert main(["gen-data", "--kind", "grasp", "--counts", "40,40,40", "--seed", "2", "--out", str(loud),
                 "--config", str(tmp_path / "loud.ini")]) == 0
    capsys.readouterr()
    # three epochs leave the noisy classes part-separated, so the printed
    # metrics move if any validation prediction does
    assert main(["train-grasp", "--data", str(loud), "--out", str(model), "--seed", "0", "--epochs", "3"]) == 0
    train_stdout = capsys.readouterr().out.replace(str(model), "<model>")
    assert main(["train-grasp", "--data", str(data), "--out", str(model), "--seed", "0"]) == 0
    run = tmp_path / "run"
    assert main(["simulate", "--seed", "7", "--episodes", "200", "--out", str(run), "--grasp-model", str(model),
                 "--config", str(tmp_path / "quiet.ini")]) == 0
    digests = {
        "gen-data grasp": hashlib.sha256(data.read_bytes()).hexdigest(),
        "train-grasp stdout": hashlib.sha256(train_stdout.encode()).hexdigest(),
        "episodes.jsonl": hashlib.sha256((run / "episodes.jsonl").read_bytes()).hexdigest(),
    }
    assert digests == {
        "gen-data grasp": "8404fe7ab78c705fad26b6b4df85a4f1277427d84d0ac65540925388807cdc16",
        "train-grasp stdout": "74853d583c70da5d461e7e8a4ea3f3c372134f3c3ecb795d27812ad92067b64b",
        "episodes.jsonl": "f49fb4af48cf6c74f41cfad4e5e094237de0770b78d06c57f27ab1f961e1f68b",
    }


def test_simulate_rejects_a_frame_outside_the_feature_range(tmp_path, capsys):
    # a large fruit plus heavy noise can push strawberry and gripper areas
    # past the whole image; the frame check stops the run
    config = tmp_path / "crowded.ini"
    config.write_text("[slip]\ninitial_area = 0.5\nfeature_noise_std = 0.2\n")
    argv = ["simulate", "--seed", "1", "--episodes", "100", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: background_area must lie in [0, 1], got -0.004478998574600324"]


def test_simulate_names_the_effector_axis_that_overflows(tmp_path, capsys):
    # a 1e308 mm error plus 1e308 mm actuation noise lands the effector at
    # infinity; the approach check names the landed coordinate, not the
    # visual error derived from it
    config = tmp_path / "overflow.ini"
    config.write_text("[approach]\nerror_mean_x_mm = 1e308\nerror_std_x_mm = 0\nactuation_noise_std_mm = 1e308\n")
    argv = ["simulate", "--seed", "1", "--episodes", "50", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: y must be finite, got inf"]


def test_simulate_names_the_injected_error_that_overflows(tmp_path, capsys):
    # a 1e308 mm mean plus a 1e308 mm spread draws an infinite injected error
    config = tmp_path / "overflow.ini"
    config.write_text("[approach]\nerror_mean_x_mm = 1e308\nerror_std_x_mm = 1e308\n")
    argv = ["simulate", "--seed", "1", "--episodes", "50", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: dx must be finite, got inf"]


@pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_simulate_rejects_non_finite_config_values(tmp_path, capsys, section, key):
    config = tmp_path / "scenario.ini"
    config.write_text(f"[{section}]\n{key} = nan\n")
    argv = ["simulate", "--seed", "1", "--episodes", "5", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {_CONFIG_SCHEMA[section][key]} must be finite, got nan"]


def test_negative_grasp_noise_scale_is_rejected(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text("[grasp]\nnoise_scale = -1\n")
    grasp_model = tmp_path / "grasp.json"
    save_model(grasp_model, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    simulate = ["simulate", "--seed", "1", "--episodes", "5", "--config", str(config), "--out", str(tmp_path / "run")]
    for argv in (
        simulate,
        simulate + ["--grasp-model", str(grasp_model)],
        ["gen-data", "--kind", "grasp", "--counts", "3,3,3", "--seed", "1", "--config", str(config),
         "--out", str(tmp_path / "grasp.csv")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: grasp_noise_scale must be >= 0, got -1.0"]
    assert not (tmp_path / "run").exists() and not (tmp_path / "grasp.csv").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
@pytest.mark.parametrize("kind", ["slip", "grasp"])
def test_non_finite_learning_rate_is_rejected(tmp_path, capsys, kind, lr):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["gen-data", "--kind", kind, "--counts", "10,5,5", "--out", str(data), "--seed", "0"]) == 0
    capsys.readouterr()
    argv = [f"train-{kind}", "--data", str(data), "--out", str(model), "--seed", "0", "--epochs", "1", "--lr", lr]
    if kind == "slip":
        argv += ["--layers", "1", "--hidden", "4"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: learning_rate must be finite, got {lr}"]
    assert not model.exists()


@pytest.mark.parametrize("user_value", [None, "2"])
def test_package_defaults_blas_to_one_thread(user_value):
    # OpenBLAS starts its threads when numpy loads, so the default must be
    # in place before the package imports numpy; a value the user set wins
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    probe = (
        "import os, harvest_guard\n"
        "status = open('/proc/self/status') if os.path.exists('/proc/self/status') else []\n"
        "threads = [l.split()[1] for l in status if l.startswith('Threads:')]\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], *threads)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=False,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    blas_threads, *os_threads = proc.stdout.split()
    assert blas_threads == (user_value or "1")
    if user_value is None and os_threads:  # OpenBLAS started no worker thread
        assert os_threads == ["1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--episodes", "BAD", "--out", "s.csv"],
        ["simulate", "--config", "BAD", "--seed", "1", "--out", "run"],
        ["simulate", "--slip-model", "BAD", "--seed", "1", "--out", "run"],
        ["simulate", "--grasp-model", "BAD", "--seed", "1", "--out", "run"],
        ["compensate", "--input", "BAD", "--out", "records.csv"],
        ["train-slip", "--data", "BAD", "--out", "m.json", "--seed", "0"],
        ["train-grasp", "--data", "BAD", "--out", "m.json", "--seed", "0"],
    ],
)
def test_non_utf8_input_is_validation_error(tmp_path, monkeypatch, capsys, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(np.random.default_rng(0).bytes(200))
    monkeypatch.chdir(tmp_path)
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{bad}: not UTF-8 text" in err[0]


def test_error_is_one_stderr_line_in_a_fresh_process(tmp_path):
    # in-process runs share pytest's logging set-up; a real process
    # configures logging itself and must still print one line
    bad = tmp_path / "bad.bin"
    bad.write_bytes(np.random.default_rng(0).bytes(200))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "harvest_guard.cli", "compensate", "--input", str(bad), "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True, env=env, check=False, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {bad}: not UTF-8 text (invalid start byte at byte 1)"]


def test_simulate_rejects_slip_phases_without_a_window(tmp_path, capsys):
    config = tmp_path / "short.ini"
    config.write_text("[slip]\nframes_normal = 1\nframes_slipping = 1\nframes_slipped = 1\n")
    argv = ["simulate", "--seed", "1", "--episodes", "300", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "slip phases total 3 frames" in err[0]
    assert not (tmp_path / "run").exists()


def _slip_model_file(path, **arch):
    save_model(path, init_model(LstmArch(n_layers=1, hidden_size=2, **arch), seed=0))
    return path


def test_models_of_the_wrong_kind_are_rejected(tmp_path, capsys):
    grasp = tmp_path / "grasp.json"
    save_model(grasp, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    slip = _slip_model_file(tmp_path / "slip.json")
    data = tmp_path / "slip.csv"
    assert main(["gen-data", "--kind", "slip", "--counts", "3,3,3", "--out", str(data), "--seed", "0"]) == 0
    capsys.readouterr()
    run = ["simulate", "--seed", "1", "--episodes", "2", "--out", str(tmp_path / "run")]
    for argv, problem in (
        (run + ["--slip-model", str(grasp)], "holds a GraspModel, expected a SlipModel"),
        (run + ["--grasp-model", str(slip)], "holds a SlipModel, expected a GraspModel"),
        (["eval-slip", "--data", str(data), "--model", str(grasp)], "holds a GraspModel, expected a SlipModel"),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and problem in err[0]


def test_two_class_slip_model_is_rejected(tmp_path, capsys):
    model = _slip_model_file(tmp_path / "slip2.json", n_classes=2)
    data = tmp_path / "slip.csv"
    assert main(["gen-data", "--kind", "slip", "--counts", "3,3,3", "--out", str(data), "--seed", "0"]) == 0
    capsys.readouterr()
    for argv in (
        ["simulate", "--seed", "1", "--episodes", "2", "--out", str(tmp_path / "run"), "--slip-model", str(model)],
        ["eval-slip", "--data", str(data), "--model", str(model)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "maps 7 features to 2 classes" in err[0]
