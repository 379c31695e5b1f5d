"""The benchmark's traced run patches package functions at the attribute
each caller looks up. Renaming or removing one of those attributes must
fail here, not only in a traced benchmark run; so must an attribute that
still resolves but that the simulation no longer calls."""

import numpy as np

from harvest_guard import cli, fsm, world
from harvest_guard.grasp import GraspModel
from harvest_guard.lstm import LstmArch, init_model
from harvest_guard.model_io import save_model

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
    tracer = _tracer(monkeypatch)
    run = ["simulate", "--seed", "3", "--episodes", "20"]
    with tracer.active():
        assert cli.main(run + ["--out", str(tmp_path / "truth")]) == 0
        assert cli.main(run + ["--out", str(tmp_path / "models"), "--slip-model", str(slip_model),
                               "--grasp-model", str(grasp_model)]) == 0
    assert SIM_SPANS - {span.name for span in tracer.spans} == set()
