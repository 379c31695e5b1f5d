"""The benchmark's traced run patches package functions at the attribute
each caller looks up. Renaming or removing one of those attributes must
fail here, not only in a traced benchmark run."""


from harvest_guard import fsm, world

from conftest import REPO_ROOT


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from spans import Tracer
    from workloads import trace_points

    originals = (fsm.grasp_decision_step, fsm.time_stability_step, world.build_windows, world.classify_slip)
    tracer = Tracer()
    trace_points(tracer)
    with tracer.active():  # getattr on every patched attribute
        assert fsm.time_stability_step is not originals[1]
    assert (fsm.grasp_decision_step, fsm.time_stability_step, world.build_windows, world.classify_slip) == originals
