"""The benchmark's traced run patches package functions at the attribute
each caller looks up. Renaming or removing one of those attributes must
fail here, not only in a traced benchmark run; so must an attribute that
still resolves but that the simulation no longer calls."""

import math

import numpy as np

from harvest_guard import cli, fsm, world
from harvest_guard.grasp import GraspAction, GraspModel
from harvest_guard.lstm import LstmArch, init_model
from harvest_guard.model_io import save_model
from harvest_guard.slip_windows import LOOKAHEAD, WINDOW_LEN, SlipLabel, windows_from_slip_csv

from conftest import REPO_ROOT

# spans a `simulate` run must reach, with ground truth or with models
SIM_SPANS = {
    "grasp.grasp_decision_step",
    "slip_decision.time_stability_step",
    "slip_decision.classify_slip",
    "lstm.predict_proba",
    "slip_windows.build_windows",
    "grasp.classify_grasp",
    "geometry.needs_compensation",
    "geometry.compensated_point",
    "world.gen_slip_trajectory",
}

# spans a `train-slip` run must reach
TRAIN_SPANS = {
    "slip_windows.read_slip_csv",
    "slip_windows.windows_from_slip_csv",
    "slip_windows.build_windows",
    "slip_windows.windows_to_arrays",
    "slip_windows.prepare_splits",
    "lstm.loss_and_grads",
    "lstm.lstm_train",
}


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from spans import Tracer
    from workloads import trace_points

    tracer = Tracer()
    trace_points(tracer)
    return tracer


def test_every_trace_point_resolves(monkeypatch):
    originals = (fsm.grasp_decision_step, fsm.time_stability_step, world.build_windows, world.classify_slip)
    tracer = _tracer(monkeypatch)
    with tracer.active():  # getattr on every patched attribute
        assert fsm.time_stability_step is not originals[1]
    assert (fsm.grasp_decision_step, fsm.time_stability_step, world.build_windows, world.classify_slip) == originals


def test_simulate_calls_every_sim_trace_point(tmp_path, monkeypatch, capsys):
    slip_model, grasp_model = tmp_path / "slip.json", tmp_path / "grasp.json"
    save_model(slip_model, init_model(LstmArch(n_layers=1, hidden_size=4), seed=0))
    # all-zero weights score every frame RipeHeld, so every episode reaches snap-off
    save_model(grasp_model, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    runs = []  # (world, episodes) of each simulate run
    run_episodes = cli.run_episodes

    def keep_episodes(w, *args, **kwargs):
        runs.append((w, run_episodes(w, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_episodes", keep_episodes)
    tracer = _tracer(monkeypatch)
    run = ["simulate", "--seed", "3", "--episodes", "20"]
    with tracer.active("op"):
        assert cli.main(run + ["--out", str(tmp_path / "truth")]) == 0
        assert cli.main(run + ["--out", str(tmp_path / "models"), "--slip-model", str(slip_model),
                               "--grasp-model", str(grasp_model)]) == 0
    op = tracer.phases["op"]
    assert SIM_SPANS - set(op.calls) == set()
    # every default trajectory holds 14 frames
    trajectories = op.calls["world.gen_slip_trajectory"]
    assert trajectories > 0 and op.counts["world.gen_slip_trajectory.frames"] == 14 * trajectories

    # each monitor's step runs once per frame its scan consumed: to the
    # firing frame, or to the end of an undecided stream; the slip scan
    # runs only after a grasp that proceeds
    grasp_used = slip_used = 0
    for w, episodes in runs:
        n_windows = 14 - WINDOW_LEN + 1 - (0 if w.slip_model else LOOKAHEAD)
        for ep in episodes:
            r = ep.responses
            grasp_used += w.config.grasp_frames if r.grasp_detect_frame is None else r.grasp_detect_frame + 1
            if r.grasp_action is GraspAction.PROCEED:
                slip_used += n_windows if r.slip_detect_frame is None else r.slip_detect_frame + 1
    assert len(runs) == 2 and slip_used > 0
    assert op.calls["grasp.grasp_decision_step"] == grasp_used
    assert op.calls["slip_decision.time_stability_step"] == slip_used


def test_ground_truth_simulate_draws_one_trajectory_per_proceeding_grasp(tmp_path, monkeypatch, capsys):
    episodes = []
    run_episodes = cli.run_episodes

    def keep_episodes(*args, **kwargs):
        episodes.extend(run_episodes(*args, **kwargs))
        return episodes

    monkeypatch.setattr(cli, "run_episodes", keep_episodes)
    tracer = _tracer(monkeypatch)
    with tracer.active("op"):
        assert cli.main(["simulate", "--seed", "3", "--episodes", "100", "--out", str(tmp_path / "run")]) == 0
    op = tracer.phases["op"]
    # every snap-off draws and checks its own trajectory, even though the
    # window labels are computed once per slip outcome
    proceeding = sum(ep.responses.grasp_action is GraspAction.PROCEED for ep in episodes)
    assert len(episodes) == 100 and proceeding > 0
    assert op.calls["world.gen_slip_trajectory"] == proceeding
    assert op.calls["slip_windows.build_windows"] <= len(SlipLabel)


def test_simulate_stacks_slip_inference_across_episodes(tmp_path, monkeypatch, capsys):
    slip_model, grasp_model = tmp_path / "slip.json", tmp_path / "grasp.json"
    save_model(slip_model, init_model(LstmArch(n_layers=1, hidden_size=4), seed=0))
    save_model(grasp_model, GraspModel(np.zeros((3, 4)), np.zeros(3)))  # every episode reaches snap-off
    tracer = _tracer(monkeypatch)
    with tracer.active("op"):
        assert cli.main(["simulate", "--seed", "3", "--episodes", "70", "--out", str(tmp_path / "run"),
                         "--slip-model", str(slip_model), "--grasp-model", str(grasp_model)]) == 0
    # one forward per chunk of episodes, not one per episode
    assert 0 < tracer.phases["op"].calls["lstm.predict_proba"] <= math.ceil(70 / 32)


def test_simulate_classifies_each_grasp_stream_in_one_call(tmp_path, monkeypatch, capsys):
    grasp_model = tmp_path / "grasp.json"
    save_model(grasp_model, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    tracer = _tracer(monkeypatch)
    with tracer.active("op"):
        assert cli.main(["simulate", "--seed", "3", "--episodes", "20", "--out", str(tmp_path / "run"),
                         "--grasp-model", str(grasp_model)]) == 0
    op = tracer.phases["op"]
    # every episode reaches deflating; its frames are one batch, not one call each
    assert op.calls["grasp.classify_grasp"] == op.calls["world.grasp_stream"] == 20
    assert op.counts["world.grasp_stream.frames"] == 20 * world.ScenarioConfig().grasp_frames


def test_train_slip_calls_every_training_trace_point(tmp_path, monkeypatch, capsys):
    data, model = tmp_path / "slip.csv", tmp_path / "model.json"
    assert cli.main(["gen-data", "--kind", "slip", "--counts", "12,5,6", "--out", str(data), "--seed", "0"]) == 0
    tracer = _tracer(monkeypatch)
    with tracer.active("op"):
        assert cli.main(["train-slip", "--data", str(data), "--out", str(model), "--seed", "0", "--epochs", "1",
                         "--layers", "1", "--hidden", "4"]) == 0
    op = tracer.phases["op"]
    assert TRAIN_SPANS - set(op.calls) == set()
    assert op.counts["slip_windows.build_windows.windows"] == len(windows_from_slip_csv(data)) == 23

    # the benchmark scores trained models through this chain
    from workloads import slip_macro_f1

    assert 0.0 <= slip_macro_f1(data, model, split_seed=0) <= 1.0
