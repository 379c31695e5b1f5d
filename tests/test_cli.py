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


@pytest.mark.parametrize("kind", ["slip", "grasp"])
def test_counts_over_the_cap_are_usage_errors(tmp_path, capsys, kind):
    out = tmp_path / "x.csv"
    assert main(["gen-data", "--kind", kind, "--counts", "1000001,0,0", "--out", str(out), "--seed", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --counts allows at most 1000000 per class, got '1000001,0,0'"
    ]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["slip", "grasp"])
def test_negative_counts_are_one_flag_error_for_both_kinds(tmp_path, capsys, kind):
    out = tmp_path / "x.csv"
    assert main(["gen-data", "--kind", kind, "--counts=-1,2,3", "--out", str(out), "--seed", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --counts needs non-negative integers, got '-1,2,3'"]
    assert not out.exists()


@pytest.mark.parametrize("source, episodes, message", [
    ("flag", "1000001", "error: episodes must be <= 1000000, got 1000001"),
    ("config", "1000001", "error: episodes must be <= 1000000, got 1000001"),
    ("flag", "-1", "error: episodes must be >= 0, got -1"),
], ids=["flag", "config", "flag-negative"])
def test_episodes_over_the_cap_are_rejected(tmp_path, capsys, source, episodes, message):
    # the flag goes through the same field-table bound as the INI key
    out = tmp_path / "run"
    argv = ["simulate", "--seed", "1", "--out", str(out)]
    if source == "flag":
        argv += ["--episodes", episodes]
    else:
        config = tmp_path / "scenario.ini"
        config.write_text(f"[simulation]\nepisodes = {episodes}\n")
        argv += ["--config", str(config)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


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


def test_log_level_follows_the_variable_on_every_call(tmp_path, monkeypatch, capsys):
    # every call sets the level again, also under pytest, whose root
    # logger already has a handler that logging.basicConfig would defer to
    out = tmp_path / "x.csv"
    argv = ["gen-data", "--kind", "slip", "--counts", "3,3,3", "--out", str(out), "--seed", "0"]
    runs = []
    for level in ("error", "info", "error"):
        monkeypatch.setenv("HARVEST_GUARD_LOG", level)
        assert main(argv) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, captured.err, out.read_bytes()))
    assert [err for _, err, _ in runs] == ["", f"INFO wrote slip dataset with counts (3, 3, 3) to {out}\n", ""]
    assert runs[0][0] == runs[1][0] == runs[2][0] and runs[0][2] == runs[1][2] == runs[2][2]


@pytest.mark.parametrize(
    "argv",
    [
        ["train-slip", "--data", "slip.csv", "--out", "out.json", "--seed", "0", "--epochs", "1", "--layers", "1",
         "--hidden", "2", "--oversample-first"],
        ["report", "--episodes", "run/episodes.jsonl", "--out", "out.csv", "--format", "csv"],
        ["eval-slip", "--data", "slip.csv", "--model", "slip.json", "--out", "out.csv", "--format", "csv"],
    ],
    ids=["oversample-first", "report-format", "eval-slip-format"],
)
def test_removed_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    # the inputs are real, so each command would write its output without the flag
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "--kind", "slip", "--counts", "3,3,3", "--out", "slip.csv", "--seed", "0"]) == 0
    assert main(["simulate", "--seed", "1", "--episodes", "2", "--out", "run"]) == 0
    _slip_model_file(tmp_path / "slip.json")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "unrecognized arguments" in err[0]
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval-slip", "--model", "absent.json", "--split-ratio", "0.7"], "--split-ratio and --split-seed go together"),
        (["eval-slip", "--model", "absent.json", "--split-seed", "0"], "--split-ratio and --split-seed go together"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--layers", "0"], "degenerate architecture: LstmArch("),
        (["train-slip", "--out", "m.json", "--seed", "0", "--hidden", "0"], "degenerate architecture: LstmArch("),
        (["train-slip", "--out", "m.json", "--seed", "0", "--epochs", "0"], "epochs must be positive, got 0"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--lr", "0"], "learning rate must be positive, got 0.0"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--lr", "nan"], "learning_rate must be finite"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--batch-size", "0"], "batch size must be positive, got 0"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--ratio", "2"], "split ratio must lie in (0, 1), got 2.0"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--ratio", "0"], "split ratio must lie in (0, 1), got 0.0"),
        (["train-slip", "--out", "m.json", "--seed", "0", "--ratio", "nan"], "split ratio must lie in (0, 1), got nan"),
        (["eval-slip", "--model", "absent.json", "--split-ratio", "2", "--split-seed", "0"],
         "split ratio must lie in (0, 1), got 2.0"),
        (["eval-slip", "--model", "absent.json", "--split-ratio", "0", "--split-seed", "0"],
         "split ratio must lie in (0, 1), got 0.0"),
        (["eval-slip", "--model", "absent.json", "--split-ratio", "nan", "--split-seed", "0"],
         "split ratio must lie in (0, 1), got nan"),
        (["train-grasp", "--out", "m.json", "--seed", "0", "--ratio", "2"], "split ratio must lie in (0, 1), got 2.0"),
    ],
    ids=["split-ratio-alone", "split-seed-alone", "layers-0", "hidden-0", "epochs-0", "lr-0", "lr-nan", "batch-0",
         "ratio-2", "ratio-0", "ratio-nan", "split-ratio-2", "split-ratio-0", "split-ratio-nan", "grasp-ratio-2"],
)
def test_slip_flags_are_checked_before_any_file_is_read(tmp_path, monkeypatch, capsys, argv, message):
    # neither --data nor --model exists: reading either first would exit 2
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--data", "absent.csv"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("flags,rows,problem", [
    (["--kx", "1e308"], None, "line 10: x_ce must be finite, got inf"),
    ([], ["1e308,0,0,-7e307,0,0"], "line 2: x_ce must be finite, got inf"),
    (["--kx", "1e308"], ["400,300,0,380,300,0"], "line 2: x_ce must be finite, got inf"),
], ids=["reference-audit-huge-gain", "huge-offset", "plain-row-huge-gain"])
def test_compensate_rejects_a_correction_that_overflows_before_writing(tmp_path, capsys, flags, rows, problem):
    data, out = tmp_path / "trials.csv", tmp_path / "records.csv"
    if rows is None:
        data = ALIGNMENT_CSV
    else:
        data.write_text("xs,ys,zs,xe,ye,ze\n" + "".join(row + "\n" for row in rows))
    assert main(["compensate", "--input", str(data), "--out", str(out), *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {data}: {problem}\n")
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
        pytest.param("duration_s", "86400.001", "duration_s must be <= 86400, got 86400.001", id="over-a-day"),
        pytest.param("duration_s", "1.7976931348623157e308", "duration_s must be <= 86400, got 1.7976931348623157e+308",
                     id="largest-float"),
        pytest.param("duration_s", "1e309", "duration_s must be a finite number, got inf", id="past-largest-float"),
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


def test_report_rejects_durations_whose_totals_would_overflow(tmp_path, capsys):
    # each 1.7e308 is finite, but an episode's two of them sum past the
    # float range, and the report would hold inf and nan
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "1", "--episodes", "3", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    docs = [json.loads(line) for line in log.read_text().splitlines()]
    for doc in docs:
        if doc["stage"] in ("swallowing", "homing"):
            doc["duration_s"] = 1.7e308
    log.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    lineno = next(i for i, doc in enumerate(docs, 1) if doc["stage"] == "swallowing")
    report = tmp_path / "s.csv"
    assert main(["report", "--episodes", str(log), "--out", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {log}: line {lineno}: duration_s must be <= 86400, got 1.7e+308"
    ]
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


def test_report_rejects_a_log_of_one_homing_record(tmp_path, capsys):
    # an episode of one record has no second stage to say whether it was compensated
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "1", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    homing = json.loads(log.read_text().splitlines()[-1])
    assert homing["stage"] == "homing"
    homing["seq"] = 0
    log.write_text(json.dumps(homing) + "\n")
    report = tmp_path / "s.csv"
    assert main(["report", "--episodes", str(log), "--out", str(report)]) == 1
    problem = "episode 0: picked-and-placed walk has homing at seq 0, expected inflating-approaching"
    assert capsys.readouterr().err.splitlines() == [f"error: {log}: line 1: {problem}"]
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
        # once the stages pass, the first variant the walk does not write;
        # the cycle writes a fault variant on one stage only
        ("abort-variant", 12, "episode 1: deflating at seq 3 has variant empty-grasp-response, expected normal"),
        ("recovery-variant", 44, "episode 5: snap-off at seq 4 has variant normal, expected slipping-recovery"),
    ],
    ids=["placed", "dropped", "three-dropped", "swapped", "events", "homing-event", "aligned", "with-fruit",
         "abort-variant", "recovery-variant"],
)
def test_report_rejects_an_episode_the_cycle_cannot_walk(tmp_path, capsys, case, homing_line, problem):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "8", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    log = out_dir / "episodes.jsonl"
    docs = [json.loads(line) for line in log.read_text().splitlines()]
    # episode 0 is a grasp abort, 1 a compensated slipped abort, 2 a
    # compensated pick and 5 a compensated recovery
    assert [doc["event"] for doc in docs[:20] if doc["stage"] in ("inflating-approaching", "deflating", "snap-off")] == [
        "aligned", "grasp-abort", "misaligned", "grasp-ok", "two-consecutive-slipped", "misaligned", "grasp-ok", "snap-ok"
    ]
    assert [(doc["episode_id"], doc["stage"], doc["variant"]) for doc in docs[35:44:4]] == [
        (5, "inflating-approaching", "normal"), (5, "snap-off", "slipping-recovery"), (5, "homing", "normal")
    ]
    field_edits = {
        "events": {19: {"event": "grasp-abort"}, 1: {"event": "placed"}},
        "homing-event": {19: {"event": "grasp-abort"}},
        "aligned": {12: {"event": "aligned"}},  # episode 2's approach, which a compensation follows
        "with-fruit": {10: {"event": "descended-with-fruit"}},  # episode 1's descending, after a slipped abort
        "abort-variant": {8: {"variant": "empty-grasp-response"}},  # episode 1's deflating
        "recovery-variant": {39: {"variant": "normal"}},  # episode 5's first snap-off
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
        for i, fields in field_edits[case].items():
            docs[i].update(fields)
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


# (BLAS threads, one CPU): 4 threads on one CPU time-share it
_BLAS_SETTINGS = [("1", False), ("2", False), ("4", False), ("4", True)]


def _cli_subprocess(argv, threads="1", one_cpu=False):
    """The CLI run in a child process with `threads` BLAS threads, pinned
    to one of this process's CPUs when `one_cpu` is set."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
    }
    # the child pins itself before numpy starts its BLAS threads
    pin = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if one_cpu else ""
    run_cli = pin + "import runpy; runpy.run_module('harvest_guard.cli', run_name='__main__')"
    return subprocess.run([sys.executable, "-c", run_cli, *argv],
                          capture_output=True, text=True, env=env, check=False, timeout=120)


def test_train_slip_bytes_do_not_depend_on_blas_threads(tmp_path):
    # hidden 64 at batch 32 makes the gate GEMMs big enough for OpenBLAS
    # to split them across threads; smaller ones always run on one
    data = tmp_path / "slip.csv"
    assert main(["gen-data", "--kind", "slip", "--counts", "120,40,40", "--out", str(data), "--seed", "0"]) == 0
    models = {}
    for threads, one_cpu in _BLAS_SETTINGS:
        out = tmp_path / f"threads{threads}-{one_cpu}.json"
        argv = ["train-slip", "--data", str(data), "--out", str(out), "--seed", "0", "--epochs", "1",
                "--layers", "2", "--hidden", "64"]
        proc = _cli_subprocess(argv, threads, one_cpu)
        assert proc.returncode == 0, proc.stderr
        models[threads, one_cpu] = out.read_bytes()
    assert len(set(models.values())) == 1


def test_learned_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # each stacked slip forward runs its two episode halves on two threads,
    # so at 2 or more BLAS threads each episode thread may also run BLAS threads
    slip, grasp = tmp_path / "slip.json", tmp_path / "grasp.json"
    save_model(slip, init_model(LstmArch(n_layers=2, hidden_size=64), seed=0))
    save_model(grasp, GraspModel(np.zeros((3, 4)), np.zeros(3)))  # every episode reaches snap-off
    logs = {}
    for threads, one_cpu in _BLAS_SETTINGS:
        run = tmp_path / f"threads{threads}-{one_cpu}"
        argv = ["simulate", "--seed", "7", "--episodes", "200", "--out", str(run), "--slip-model", str(slip),
                "--grasp-model", str(grasp)]
        proc = _cli_subprocess(argv, threads, one_cpu)
        assert proc.returncode == 0, proc.stderr
        logs[threads, one_cpu] = (run / "episodes.jsonl").read_bytes()
    assert len(set(logs.values())) == 1


def test_train_slip_that_diverges_exits_1_and_writes_no_model(tmp_path):
    # a child process, so that a numpy warning would reach its real stderr
    data, model = tmp_path / "slip.csv", tmp_path / "m.json"
    assert main(["gen-data", "--kind", "slip", "--counts", "30,12,12", "--out", str(data), "--seed", "0"]) == 0
    argv = ["train-slip", "--data", str(data), "--out", str(model), "--seed", "0", "--lr", "1e308",
            "--layers", "1", "--hidden", "4", "--epochs", "2"]
    proc = _cli_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: training diverged in epoch 1: the loss is nan"]
    assert not model.exists()

    # the grasp classifier's logits overflow in the same way: the first
    # set's weights would turn non-finite in epoch 3, the second's stay finite
    for counts, data_seed, seed, epoch in (("50,20,80", "0", "0", 1), ("40,40,40", "2", "1", 3)):
        data = tmp_path / f"grasp-{counts}.csv"
        assert main(["gen-data", "--kind", "grasp", "--counts", counts, "--out", str(data), "--seed", data_seed]) == 0
        proc = _cli_subprocess(["train-grasp", "--data", str(data), "--out", str(model), "--seed", seed, "--lr", "1.7e308"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: training diverged in epoch {epoch}: logits overflow"]
        assert not model.exists()


@pytest.mark.parametrize("flag, value, cap", [("--layers", "17", 16), ("--hidden", "257", 256)])
def test_train_slip_rejects_an_architecture_over_its_cap(tmp_path, capsys, flag, value, cap):
    data, model = tmp_path / "slip.csv", tmp_path / "m.json"
    assert main(["gen-data", "--kind", "slip", "--counts", "10,5,5", "--out", str(data), "--seed", "0"]) == 0
    capsys.readouterr()
    assert main(["train-slip", "--data", str(data), "--out", str(model), "--seed", "0", flag, value]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {flag} allows at most {cap}, got {value}"]
    assert not model.exists()


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
    slip_model, grasp_model = tmp_path / "slip.json", tmp_path / "grasp.json"
    assert main(["gen-data", "--kind", "slip", "--counts", "60,25,25", "--out", str(slip), "--seed", "3"]) == 0
    assert main(["gen-data", "--kind", "grasp", "--counts", "30,30,30", "--out", str(grasp), "--seed", "1"]) == 0
    train = ["train-slip", "--data", str(slip), "--seed", "0", "--layers", "2", "--hidden", "8", "--epochs", "2",
             "--lr", "0.03"]
    assert main(train + ["--out", str(slip_model)]) == 0
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
        "grasp model": hashlib.sha256(grasp_model.read_bytes()).hexdigest(),
        "eval-slip stdout": hashlib.sha256(eval_stdout.encode()).hexdigest(),
        "episodes.jsonl": hashlib.sha256((run / "episodes.jsonl").read_bytes()).hexdigest(),
    }
    assert digests == {
        "slip model": "272448c238f1b21abbf32dbae48302f5c4d174c9257591c3a33a66a2b741ce6d",
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


_NOISY = "[slip]\ninitial_area = 0.3\nfeature_noise_std = 0.05\n"


def test_noisy_simulate_bytes_are_pinned(tmp_path, capsys):
    # ground truth at twelve times the default feature noise: a snap-off's
    # noise draw comes before the stage-time draws of the rest of its cycle,
    # so skipping, resizing or reordering it moves the log
    config = tmp_path / "noisy.ini"
    config.write_text(_NOISY)
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "7", "--episodes", "300", "--config", str(config), "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("episodes.jsonl", "summary.csv", "scenario.ini")
    }
    assert digests == {
        "episodes.jsonl": "d9e78af4391be5eff38cd8542da93a491d1af26fd5dd1c4006d43528bfbab045",
        "summary.csv": "067005a69e4b0d4e6eb0e38d948b74c6d9a0e2bc1c3dd62e7d761b347c886e50",
        "scenario.ini": "d0b6e7f9f255a2b54783dfe64cdcfc965f52a0d208fcc2c6cd86fd5bd630b4d7",
    }


def test_noisy_gen_data_slip_bytes_are_pinned(tmp_path, capsys):
    # the jittered, clamped and assembled frames; with a small fruit the
    # strawberry_area clamp at 0.001 binds on many frames
    digests = {}
    for name, text in (("noisy", _NOISY), ("small", _NOISY.replace("0.3", "0.05"))):
        config, data = tmp_path / f"{name}.ini", tmp_path / f"{name}.csv"
        config.write_text(text)
        argv = ["gen-data", "--kind", "slip", "--counts", "300,120,120", "--seed", "3", "--config", str(config)]
        assert main(argv + ["--out", str(data)]) == 0
        digests[name] = hashlib.sha256(data.read_bytes()).hexdigest()
    with (tmp_path / "small.csv").open() as fh:
        assert sum(row["strawberry_area"] == "0.001" for row in csv.DictReader(fh)) > 100
    assert digests == {
        "noisy": "cc34a83d35f7b742fc5027db7c47dd4208ba15ed04b51342f1cbb62643ee6a26",
        "small": "ce217fe0e741491db6235a1be7613be41309827e0018e0d4dd0f3acd60e67dce",
    }


_CROWDED = "error: slip.feature_noise_std = 0.2 pushes a frame out of the feature range: background_area must lie in [0, 1], got "


def test_simulate_rejects_a_frame_outside_the_feature_range(tmp_path, capsys):
    # a large fruit plus heavy noise can push strawberry and gripper areas
    # past the whole image; the frame check stops the run and names the key
    config = tmp_path / "crowded.ini"
    config.write_text("[slip]\ninitial_area = 0.5\nfeature_noise_std = 0.2\n")
    argv = ["simulate", "--seed", "1", "--episodes", "100", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [_CROWDED + "-0.004478998574600324"]
    assert not (tmp_path / "run").exists()


def test_gen_data_rejects_a_frame_outside_the_feature_range(tmp_path, capsys):
    config = tmp_path / "crowded.ini"
    config.write_text("[slip]\ninitial_area = 0.5\nfeature_noise_std = 0.2\n")
    data = tmp_path / "slip.csv"
    argv = ["gen-data", "--kind", "slip", "--counts", "20,10,10", "--seed", "1", "--config", str(config), "--out", str(data)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [_CROWDED + "-0.08344046711318887"]
    assert not data.exists()


def test_a_noise_free_large_fruit_stays_in_the_feature_range(tmp_path):
    # s <= 0.5 and g = 0.35 leave background_area >= 0.15 on every clean frame
    config = tmp_path / "large.ini"
    config.write_text("[slip]\ninitial_area = 0.5\nfeature_noise_std = 0\n")
    assert main(["simulate", "--seed", "1", "--episodes", "100", "--config", str(config),
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["gen-data", "--kind", "slip", "--counts", "20,10,10", "--seed", "1", "--config", str(config),
                 "--out", str(tmp_path / "slip.csv")]) == 0


@pytest.mark.parametrize("command,section,key,attr", [
    (["simulate", "--episodes", "5"], "grasp", "frames", "grasp_frames"),
    (["gen-data", "--kind", "slip", "--counts", "3,3,3"], "slip", "frames_normal", "frames_normal"),
], ids=["simulate-grasp", "gen-data-slip"])
def test_a_huge_frame_count_is_one_error_line(tmp_path, capsys, command, section, key, attr):
    # 10^12 grasp frames would build a 10^12-item list and 10^12 normal
    # frames a 10^12-step curve loop; the config check stops both first
    config = tmp_path / "huge.ini"
    config.write_text(f"[{section}]\n{key} = {10**12}\n")
    out = tmp_path / "out"
    assert main(command + ["--seed", "1", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {attr} must be <= 1000, got {10**12}"]
    assert not out.exists()


def test_simulate_names_the_effector_axis_that_overflows(tmp_path, capsys):
    # a 1e308 mm error plus 1e308 mm actuation noise would land the effector
    # at infinity; the scenario bound stops the error first
    config = tmp_path / "overflow.ini"
    config.write_text("[approach]\nerror_mean_x_mm = 1e308\nerror_std_x_mm = 0\nactuation_noise_std_mm = 1e308\n")
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "1", "--episodes", "50", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: error_mean_x_mm must be <= 1000, got 1e+308"]
    assert not out.exists()


def test_simulate_names_the_injected_error_that_overflows(tmp_path, capsys):
    # a 1e308 mm mean plus a 1e308 mm spread would draw an infinite injected
    # error; the scenario bound stops the mean first
    config = tmp_path / "overflow.ini"
    config.write_text("[approach]\nerror_mean_x_mm = 1e308\nerror_std_x_mm = 1e308\n")
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "1", "--episodes", "50", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: error_mean_x_mm must be <= 1000, got 1e+308"]
    assert not out.exists()


_APPROACH_KEYS = ("error_mean_x_mm", "error_mean_y_mm", "error_std_x_mm", "error_std_y_mm",
                  "actuation_noise_std_mm", "vision_noise_std_mm")


@pytest.mark.parametrize("key", _APPROACH_KEYS)
def test_simulate_bounds_each_approach_key_at_one_metre(tmp_path, capsys, key):
    config, out = tmp_path / "scenario.ini", tmp_path / "run"
    past, bound = (-1000.5, ">= -1000") if key == "error_mean_y_mm" else (1000.5, "<= 1000")
    config.write_text(f"[approach]\n{key} = {past}\n")
    assert main(["simulate", "--seed", "1", "--episodes", "5", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {key} must be {bound}, got {past}"]
    assert not out.exists()
    config.write_text(f"[approach]\n{key} = {past:.0f}\n")
    assert main(["simulate", "--seed", "1", "--episodes", "5", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "episodes.jsonl").exists()


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
    # outside pytest's capture, a real process must still print one line
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
