"""Synthetic-world tests: config files, trajectories, approaches, episodes."""

import re
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard import world as world_module
from harvest_guard.errors import ValidationError, require_finite
from harvest_guard.fsm import (
    EpisodeTruth, Outcome, Stage, episode_problem, outcome_of, read_episode_log, run_episode, write_episode_log
)
from harvest_guard.geometry import CompensationParams
from harvest_guard.grasp import GraspClass, GraspModel
from harvest_guard.lstm import LstmArch, TrainConfig, init_model, lstm_train
from harvest_guard.slip_windows import (
    FEATURE_ORDER, SlipLabel, build_windows, class_counts, first_bad_frame, windows_from_slip_csv
)
from harvest_guard.world import (
    _CONFIG_SCHEMA,
    _DROP_ACCEL,
    _jittered,
    _phases,
    _slip_curve,
    _trajectory,
    EPISODE_CHUNK,
    ID_LIMIT,
    MAX_COUNT,
    EpisodeWorld,
    ScenarioConfig,
    episode_rng,
    episode_rngs,
    gen_grasp_observations,
    gen_slip_dataset,
    gen_slip_trajectory,
    load_config,
    plan_slip_trajectories,
    run_episodes,
    sample_grasp_dataset,
    save_config,
    simulate_approach,
)

from conftest import FLOAT_KEYS, implied_outcome

QUIET = ScenarioConfig(actuation_noise_std_mm=0.0, vision_noise_std_mm=0.0, slip_noise_std=0.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        ScenarioConfig(episodes=-1)
    with pytest.raises(ValidationError):
        ScenarioConfig(actuation_noise_std_mm=-0.5)
    with pytest.raises(ValidationError):
        ScenarioConfig(p_ripe=0.8, p_empty=0.1, p_unripe=0.2)
    with pytest.raises(ValidationError):
        ScenarioConfig(p_slip_normal=-0.1, p_slipping=0.55, p_slipped=0.55)
    with pytest.raises(ValidationError):
        ScenarioConfig(slip_initial_area=0.6)
    with pytest.raises(ValidationError):
        ScenarioConfig(slip_decay_rate=0.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(frames_normal=0)
    with pytest.raises(ValidationError):
        ScenarioConfig(grasp_frames=0)


# (field, "least", "above" or "most", the first value that bound rejects:
# one past an inclusive bound, an exclusive bound itself), from the field table
PAST_BOUNDS = [
    (f, end, type(f.default)(f.metadata[end] + step))
    for f in fields(ScenarioConfig)
    for end, step in (("least", -1), ("above", 0), ("most", 1))
    if f.metadata[end] is not None
]


def test_the_field_table_bounds_the_noise_and_the_frame_counts():
    assert {(f.name, end, value) for f, end, value in PAST_BOUNDS} == {
        *((name, "least", -1.0) for name in (
            "error_std_x_mm", "error_std_y_mm", "actuation_noise_std_mm", "vision_noise_std_mm", "grasp_noise_scale",
            "slip_noise_std", "p_ripe", "p_empty", "p_unripe", "p_slip_normal", "p_slipping", "p_slipped",
        )),
        *((name, "least", 0) for name in ("grasp_frames", "frames_normal", "frames_slipping", "frames_slipped")),
        *((name, "most", 1001) for name in ("grasp_frames", "frames_normal", "frames_slipping", "frames_slipped")),
        ("error_mean_x_mm", "least", -1001.0),
        ("error_mean_x_mm", "most", 1001.0),
        ("error_mean_y_mm", "least", -1001.0),
        ("error_mean_y_mm", "most", 1001.0),
        *((name, "most", 1001.0) for name in (
            "error_std_x_mm", "error_std_y_mm", "actuation_noise_std_mm", "vision_noise_std_mm",
        )),
        ("episodes", "least", -1),
        ("episodes", "most", 1_000_001),
        ("slip_initial_area", "above", 0.0),
        ("slip_initial_area", "most", 1.5),
        ("slip_decay_rate", "above", 0.0),
    }


@pytest.mark.parametrize("f,end,value", PAST_BOUNDS, ids=[f"{f.name}-{end}" for f, end, _ in PAST_BOUNDS])
def test_config_rejects_a_value_one_past_its_bound(tmp_path, f, end, value):
    path = tmp_path / "scenario.ini"
    path.write_text(f"[{f.metadata['section']}]\n{f.metadata['key'] or f.name} = {value}\n")
    op = {"least": ">=", "above": ">", "most": "<="}[end]
    with pytest.raises(ValidationError) as info:
        load_config(path)
    assert str(info.value) == f"{f.name} must be {op} {f.metadata[end]}, got {value}"


@pytest.mark.parametrize("text,message", [
    ("[slip]\nframes_normal = 0\n[grasp]\nframes = 2000\n", "grasp_frames must be <= 1000, got 2000"),
    ("[slip]\nframes_slipped = 5000\nframes_slipping = -1\n", "frames_slipping must be >= 1, got -1"),
    ("[slip]\nframes_normal = 0\n[grasp]\np_empty = -0.1\n", "p_empty must be >= 0, got -0.1"),
    ("[slip]\np_normal = 0.5\nframes_normal = 1000\n", r"slip probabilities must sum to 1 \+/- 1e-09, got 0.8"),
], ids=["grasp-before-slip", "slipping-before-slipped", "probability-before-frames", "sums-after-bounds"])
def test_config_names_the_first_bad_bound_in_field_order(tmp_path, text, message):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    with pytest.raises(ValidationError, match=rf"^{message}$"):
        load_config(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_config_rejects_non_finite_floats(tmp_path, section, key, raw):
    # NaN fails no comparison, so range checks alone let it through
    path = tmp_path / "scenario.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    attr = _CONFIG_SCHEMA[section][key]
    with pytest.raises(ValidationError, match=rf"^{attr} must be finite, got {raw}$"):
        load_config(path)


def test_config_ini_round_trip(tmp_path):
    config = ScenarioConfig(episodes=42, master_seed=9, p_ripe=0.5, p_empty=0.25, p_unripe=0.25)
    path = tmp_path / "scenario.ini"
    save_config(path, config)
    assert load_config(path) == config


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[slip]\nbogus = 1\n")
    with pytest.raises(ValidationError, match="bogus"):
        load_config(path)


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[weather]\nrain = 1\n")
    with pytest.raises(ValidationError, match="weather"):
        load_config(path)


@pytest.mark.parametrize("text", ["[DEFAULT]\nepisodes = 5\n", "[DEFAULT]\nepisodes = 5\n[slip]\nframes_normal = 6\n"],
                         ids=["alone", "beside-a-section"])
def test_config_rejects_default_section_keys(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    with pytest.raises(ValidationError, match=r"unknown key 'episodes' in \[DEFAULT\]$"):
        load_config(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[simulation]\nepisodes = many\n")
    with pytest.raises(ValidationError, match="episodes"):
        load_config(path)
    # a '%' is a bad number, not the start of an interpolation
    path.write_text("[simulation]\nepisodes = 5%\n")
    with pytest.raises(ValidationError, match="bad value for simulation.episodes: '5%'"):
        load_config(path)


def test_config_without_section_header_is_validation_error(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("episodes = 5\n")
    with pytest.raises(ValidationError, match="not an INI file: File contains no section headers."):
        load_config(path)


def test_config_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.ini")


def test_episode_rng_is_stable_and_stream_separated():
    a = episode_rng(5, 3).uniform(size=4)
    b = episode_rng(5, 3).uniform(size=4)
    c = episode_rng(5, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _assert_default_rng_streams(master_seed, ids):
    rngs = episode_rngs(master_seed, ids)
    assert len(rngs) == len(ids)
    for i, rng in zip(ids, rngs):
        oracle = np.random.default_rng([master_seed, i])
        assert rng.bit_generator.state == oracle.bit_generator.state, (master_seed, i)
        assert rng.random(3).tobytes() == oracle.random(3).tobytes()
        assert rng.integers(0, 2**63, size=2).tolist() == oracle.integers(0, 2**63, size=2).tolist()


# seeds of 1, 1, 2, 2, 3, 4 and 5 little-endian 32-bit words: from 4 words
# on, the id is mixed in past the 4-word pool
@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3, 2**96 + 1, 2**130 + 7])
def test_episode_rngs_match_default_rng(master_seed):
    for first in (0, MAX_COUNT - 32, ID_LIMIT - 32):
        for size in (1, 7, 32):
            _assert_default_rng_streams(master_seed, range(first, first + size))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**200), st.integers(0, ID_LIMIT - 1), st.integers(0, EPISODE_CHUNK))
def test_episode_rngs_match_default_rng_for_any_seed(master_seed, first, size):
    _assert_default_rng_streams(master_seed, range(first, min(first + size, ID_LIMIT)))


def test_episode_rngs_seed_words_serve_pcg64_alone():
    seed_seq = episode_rngs(3, range(1))[0].bit_generator.seed_seq
    words = np.random.SeedSequence([3, 0]).generate_state(4, np.uint64)
    assert seed_seq.generate_state(4, np.uint64).tobytes() == words.tobytes()
    for request in ((4,), (4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            seed_seq.generate_state(*request)
    assert not hasattr(seed_seq, "spawn")


@pytest.mark.parametrize("ids", [range(ID_LIMIT - 1, ID_LIMIT + 1), range(-1, 3), range(ID_LIMIT, ID_LIMIT + 1)])
def test_episode_rngs_reject_ids_past_one_word(ids):
    with pytest.raises(ValidationError, match=r"episode ids must lie in \[0, 2\*\*32\)"):
        episode_rngs(0, ids)


def test_run_episodes_rejects_an_id_at_2_to_the_32_before_drawing(monkeypatch):
    world = EpisodeWorld(ScenarioConfig())
    last = ID_LIMIT - 1
    assert run_episodes(world, 1, master_seed=2, first=last) == [run_episode(world, episode_rng(2, last), episode_id=last)]
    calls = []
    monkeypatch.setattr(world_module, "episode_rngs", lambda *args: calls.append(args))
    monkeypatch.setattr(world_module, "episode_cycle", lambda *args: calls.append(args))
    # the first chunk's ids are all valid; the last id of the run is 2**32
    message = rf"episode ids must lie in \[0, 2\*\*32\), got {ID_LIMIT - 40} to {ID_LIMIT}$"
    with pytest.raises(ValidationError, match=message):
        run_episodes(world, 41, master_seed=2, first=ID_LIMIT - 40)
    assert calls == []


def test_run_episode_defaults_to_seed_zero(tmp_path):
    world = EpisodeWorld(ScenarioConfig())
    logs = {}
    for name, episode in (("default", run_episode(world)), ("zero", run_episode(world, np.random.default_rng(0))),
                          ("one", run_episode(world, np.random.default_rng(1)))):
        write_episode_log(tmp_path / name, [episode])
        logs[name] = (tmp_path / name).read_bytes()
    assert logs["default"] == logs["zero"] != logs["one"]


def test_trajectory_lengths_and_labels():
    cfg = ScenarioConfig()
    for outcome in SlipLabel:
        traj = gen_slip_trajectory(cfg, outcome, episode_rng(0, 0))
        assert len(traj.frames) == 14  # all outcomes share one length
    normal = gen_slip_trajectory(cfg, SlipLabel.NORMAL, episode_rng(0, 1))
    assert all(l == SlipLabel.NORMAL for l in normal.labels)
    slipping = gen_slip_trajectory(cfg, SlipLabel.SLIPPING, episode_rng(0, 2))
    assert list(slipping.labels) == [SlipLabel.NORMAL] * 6 + [SlipLabel.SLIPPING] * 8
    slipped = gen_slip_trajectory(cfg, SlipLabel.SLIPPED, episode_rng(0, 3))
    assert list(slipped.labels) == (
        [SlipLabel.NORMAL] * 6 + [SlipLabel.SLIPPING] + [SlipLabel.SLIPPED] * 7
    )


_FRAME_COUNT = st.integers(1, 12)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    frames=st.tuples(_FRAME_COUNT, _FRAME_COUNT, _FRAME_COUNT),
    targets=st.tuples(*[st.integers(0, 30)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_severity_never_decreases(frames, targets, seed):
    # every trajectory the generator builds: one per episode outcome, one per dataset plan
    config = ScenarioConfig(frames_normal=frames[0], frames_slipping=frames[1], frames_slipped=frames[2])
    built = [(sum(frames), gen_slip_trajectory(config, outcome, episode_rng(seed, i))) for i, outcome in enumerate(SlipLabel)]
    for i, phases in enumerate(plan_slip_trajectories(config, targets)):
        traj = _trajectory(config, phases, episode_rng(seed, i))
        assert np.bincount(traj.labels, minlength=len(SlipLabel)).tolist() == list(phases)
        built.append((sum(phases), traj))
    for n, traj in built:
        assert traj.frames.shape == (n, len(FEATURE_ORDER)) and traj.frames.dtype == np.float64
        assert traj.labels.shape == (n,) and traj.labels.dtype == np.int64
        assert (np.diff(traj.labels) >= 0).all()


def _column(traj, name):
    return traj.frames[:, FEATURE_ORDER.index(name)].tolist()


def test_quiet_normal_trajectory_is_static():
    traj = gen_slip_trajectory(QUIET, SlipLabel.NORMAL, episode_rng(0, 0))
    assert all(a == pytest.approx(0.30) for a in _column(traj, "strawberry_area"))
    assert all(y == pytest.approx(0.45) for y in _column(traj, "y"))


def test_quiet_slipping_trajectory_creeps_then_slides():
    traj = gen_slip_trajectory(QUIET, SlipLabel.SLIPPING, episode_rng(0, 0))
    areas = _column(traj, "strawberry_area")
    ys = _column(traj, "y")
    # first three frames are steady; the pre-onset ramp then starts
    assert areas[0] == areas[1] == areas[2] == pytest.approx(0.30)
    assert all(areas[i + 1] < areas[i] for i in range(2, 13))
    assert all(ys[i + 1] >= ys[i] for i in range(13))
    assert ys[-1] > ys[0]
    # the box shrinks with the area
    w = _column(traj, "w")
    assert w[-1] < w[0]


def test_quiet_slipped_trajectory_drops_fast_then_vanishes():
    traj = gen_slip_trajectory(QUIET, SlipLabel.SLIPPED, episode_rng(0, 0))
    slipping = gen_slip_trajectory(QUIET, SlipLabel.SLIPPING, episode_rng(0, 0))
    # a drop moves faster than a recoverable slip at the same frame
    assert _column(traj, "strawberry_area")[6] < _column(slipping, "strawberry_area")[6]
    for s_area, _, _, w, h, x, y in traj.frames[7:].tolist():
        assert s_area == pytest.approx(0.005)
        assert w == 0.0 and h == 0.0 and x == 0.0 and y == 0.0


def test_empty_grasp_observation_quiet_is_all_zero():
    rng, untouched = episode_rng(0, 0), episode_rng(0, 0)
    x = gen_grasp_observations(GraspClass.EMPTY, 4, rng, noise_scale=0.0)
    assert x.shape == (4, 4) and not x.any()
    assert rng.random() == untouched.random()  # nothing was drawn


def test_grasp_color_bands_stay_disjoint():
    rng = episode_rng(1, 0)
    ripe, empty, unripe = (gen_grasp_observations(cls, 200, rng, noise_scale=2.0) for cls in GraspClass)
    red, green, present = 0, 1, 3
    assert (ripe[:, red] >= 0.35).all() and (unripe[:, red] < 0.35).all()
    assert (unripe[:, green] >= 0.35).all() and (ripe[:, green] < 0.35).all()
    assert (ripe[:, present] == 1.0).all() and (unripe[:, present] == 1.0).all()
    assert (empty[:, present] == 0.0).all()


def test_grasp_dataset_counts_and_determinism():
    x, y = sample_grasp_dataset((7, 3, 5), seed=4)
    assert x.shape == (15, 4) and y.dtype == "int64"
    assert y.tolist() == [GraspClass.RIPE_HELD] * 7 + [GraspClass.EMPTY] * 3 + [GraspClass.UNRIPE_HELD] * 5
    again, _ = sample_grasp_dataset((7, 3, 5), seed=4)
    other, _ = sample_grasp_dataset((7, 3, 5), seed=5)
    assert again.tobytes() == x.tobytes() and other.tobytes() != x.tobytes()
    with pytest.raises(ValidationError):
        sample_grasp_dataset((-1, 0, 0), seed=0)


def test_quiet_approach_with_unit_gains_cancels_the_error():
    params = CompensationParams(k_x=1.0, k_y=1.0)
    out = simulate_approach(QUIET, params, episode_rng(0, 0), injected_error=(20.0, 15.0))
    assert out.compensated
    assert out.residual_x == pytest.approx(0.0, abs=1e-12)
    assert out.residual_y == pytest.approx(0.0, abs=1e-12)


def test_quiet_approach_default_gains_halve_y():
    out = simulate_approach(
        QUIET, CompensationParams(), episode_rng(0, 0), injected_error=(0.0, -20.0)
    )
    assert out.compensated
    assert out.visual_error[1] == pytest.approx(-20.0)
    assert out.residual_x == pytest.approx(0.0, abs=1e-12)
    assert out.residual_y == pytest.approx(-10.0, abs=1e-12)


def test_quiet_approach_below_threshold_skips_correction():
    out = simulate_approach(
        QUIET, CompensationParams(), episode_rng(0, 0), injected_error=(3.0, 2.0)
    )
    assert not out.compensated
    assert out.residual_x == pytest.approx(3.0)
    assert out.residual_y == pytest.approx(2.0)


@pytest.mark.parametrize("params,injected,message", [
    (CompensationParams(), (float("inf"), 0.0), "x must be finite, got -inf"),
    (CompensationParams(k_x=1e308), (20.0, 0.0), "x must be finite, got inf"),
], ids=["injected-error", "corrected-aim"])
def test_approach_names_the_effector_axis_that_overflows(params, injected, message):
    # library callers pass their own error and gains, which the scenario bounds do not cover
    for config in (QUIET, ScenarioConfig()):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            simulate_approach(config, params, episode_rng(0, 0), injected_error=injected)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("values,message", [
    ({"a": _NAN, "b": 1.0}, "a must be finite, got nan"),
    ({"a": 1.0, "b": _NAN}, "b must be finite, got nan"),
    ({"a": _INF, "b": 1.0}, "a must be finite, got inf"),
    ({"a": 1.0, "b": -_INF}, "b must be finite, got -inf"),
    ({"a": _INF, "b": _NAN}, "a must be finite, got inf"),
    ({"a": -_INF, "b": _INF}, "a must be finite, got -inf"),
    ({"a": 1e308, "b": 1e308, "c": _NAN}, "c must be finite, got nan"),
], ids=["nan-first", "nan-second", "inf-first", "inf-second", "inf-then-nan", "infs-that-cancel", "after-overflow"])
def test_require_finite_names_the_first_bad_value(values, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        require_finite(**values)


def test_require_finite_passes_finite_values_whose_sum_overflows():
    require_finite(a=1e308, b=1e308, c=-1e308)
    require_finite(a=-1e308, b=-1e308)
    require_finite()


def test_noisy_approach_residuals_match_field_scale():
    world = EpisodeWorld(ScenarioConfig())
    got_x, got_y = [], []
    for i in range(500):
        rng = episode_rng(3, i)
        out = world.approach(world.sample_truth(rng), rng)
        if out.compensated:
            got_x.append(abs(out.residual_x))
            got_y.append(abs(out.residual_y))
    assert len(got_x) > 250  # the default error scale trips the check often
    assert np.mean(got_x) == pytest.approx(3.12, abs=1.5)
    assert np.mean(got_y) == pytest.approx(4.11, abs=1.5)


def test_plan_covers_targets_exactly():
    cfg = ScenarioConfig()
    plans = plan_slip_trajectories(cfg, (791, 173, 2158))
    normal = sum(p[0] - 7 for p in plans if p[1] == 0 and p[2] == 0)
    slipping = sum(p[1] for p in plans)
    slipped = sum(p[2] for p in plans)
    assert (normal, slipping, slipped) == (791, 173, 2158)
    # fault plans keep the 7-frame normal prefix that pins window counts
    assert all(p[0] == 7 for p in plans if p[1] or p[2])
    with pytest.raises(ValidationError):
        plan_slip_trajectories(cfg, (-1, 0, 0))


def test_generated_dataset_hits_window_targets(tmp_path):
    path = tmp_path / "slip.csv"
    gen_slip_dataset(path, ScenarioConfig(), (20, 9, 10), seed=0)
    counts = class_counts(windows_from_slip_csv(path).y)
    assert counts == {SlipLabel.NORMAL: 20, SlipLabel.SLIPPING: 9, SlipLabel.SLIPPED: 10}


def test_generated_dataset_is_byte_stable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    gen_slip_dataset(a, ScenarioConfig(), (15, 5, 5), seed=2)
    gen_slip_dataset(b, ScenarioConfig(), (15, 5, 5), seed=2)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    gen_slip_dataset(c, ScenarioConfig(), (15, 5, 5), seed=3)
    assert a.read_bytes() != c.read_bytes()


def test_world_truth_respects_degenerate_mixes():
    cfg = ScenarioConfig(p_ripe=1.0, p_empty=0.0, p_unripe=0.0, p_slip_normal=0.0, p_slipping=0.0, p_slipped=1.0)
    world = EpisodeWorld(cfg)
    for i in range(10):
        truth = world.sample_truth(episode_rng(0, i))
        assert truth.grasp_outcome is GraspClass.RIPE_HELD
        assert truth.slip_outcome is SlipLabel.SLIPPED


def test_world_ground_truth_streams():
    world = EpisodeWorld(ScenarioConfig())
    truth = world.sample_truth(episode_rng(0, 0))
    grasp = world.grasp_stream(truth, episode_rng(0, 1))
    assert grasp == [truth.grasp_outcome] * 4
    slip = world.slip_stream(truth, episode_rng(0, 2))
    assert len(slip) == 7  # 14-frame trajectory -> 7 windows
    if truth.slip_outcome is SlipLabel.NORMAL:
        assert set(slip) == {SlipLabel.NORMAL}


def test_run_episodes_is_prefix_stable_and_seeded():
    world = EpisodeWorld(ScenarioConfig())
    five = run_episodes(world, 5, master_seed=7)
    ten = run_episodes(world, 10, master_seed=7)
    assert [e.total_s for e in five] == [e.total_s for e in ten[:5]]
    assert [e.outcome for e in five] == [e.outcome for e in ten[:5]]
    other = run_episodes(world, 5, master_seed=8)
    assert [e.total_s for e in five] != [e.total_s for e in other]


# scores RipeHeld on red, UnripeHeld on green and Empty on a missing fruit
SORTING_GRASP = GraspModel(np.array([[10.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0], [0.0, 10.0, 0.0, 5.0]]),
                           np.array([0.0, 3.0, 0.0]))


@pytest.fixture(scope="module")
def slip_model(tmp_path_factory):
    """A 2x8 LSTM trained until 70 model-monitored episodes reach all four outcomes."""
    data = tmp_path_factory.mktemp("slip") / "slip.csv"
    gen_slip_dataset(data, ScenarioConfig(), (60, 30, 30), seed=0)
    return lstm_train(windows_from_slip_csv(data), config=TrainConfig(epochs=40, seed=0),
                      arch=LstmArch(n_layers=2, hidden_size=8))


def _one_at_a_time(world, n, seed):
    return [run_episode(world, episode_rng(seed, i), episode_id=i) for i in range(n)]


@pytest.mark.parametrize("with_models", [False, True], ids=["truth", "models"])
@pytest.mark.parametrize("n", [0, 70])  # 70 episodes cross two chunk boundaries
def test_phased_runner_equals_one_episode_at_a_time(with_models, n, slip_model):
    world = EpisodeWorld(ScenarioConfig(), *((slip_model, SORTING_GRASP) if with_models else ()))
    phased = run_episodes(world, n, master_seed=5)
    assert len(phased) == n
    for episode, alone in zip(phased, _one_at_a_time(world, n, 5)):
        assert episode == alone
        assert episode_problem(episode.records) is None
    if n:
        assert {e.outcome for e in phased} == set(Outcome)


@pytest.mark.parametrize("grasp_model", [None, SORTING_GRASP], ids=["truth", "model"])
def test_phased_runner_makes_no_slip_forward_when_every_grasp_aborts(grasp_model, slip_model, monkeypatch):
    calls = []
    monkeypatch.setattr(world_module, "predict_proba", lambda *args: calls.append(args))
    world = EpisodeWorld(ScenarioConfig(p_ripe=0.0, p_empty=0.5, p_unripe=0.5), slip_model, grasp_model)
    episodes = run_episodes(world, 40, master_seed=5)
    assert {e.outcome for e in episodes} == {Outcome.ABORTED_EMPTY_OR_MISGRASP}
    assert calls == []
    assert episodes == _one_at_a_time(world, 40, 5)


def test_no_slip_requests_draw_nothing(monkeypatch):
    calls = []
    for name in ("_jittered", "gen_slip_trajectory", "build_windows", "predict_proba"):
        monkeypatch.setattr(world_module, name, lambda *args, name=name: calls.append(name))
    model = init_model(LstmArch(n_layers=1, hidden_size=2), seed=0)
    for world in (EpisodeWorld(ScenarioConfig()), EpisodeWorld(ScenarioConfig(), slip_model=model)):
        assert world.slip_streams([]) == []
    assert calls == []


def test_outcome_frequencies_match_the_mix():
    world = EpisodeWorld(ScenarioConfig())
    episodes = run_episodes(world, 2000, master_seed=11)
    n = len(episodes)
    freq = {o: sum(1 for e in episodes if e.outcome is o) for o in Outcome}
    # p(fault-free pick) = 0.8 * 0.7 etc.; allow 3 sigma per binomial count
    expect = {
        Outcome.PICKED_AND_PLACED: 0.8 * 0.7,
        Outcome.ABORTED_EMPTY_OR_MISGRASP: 0.2,
        Outcome.RECOVERED_AFTER_SLIP: 0.8 * 0.15,
        Outcome.ABORTED_SLIPPED: 0.8 * 0.15,
    }
    for outcome, p in expect.items():
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(freq[outcome] - n * p) <= 3 * sigma

    # structural invariants hold across the batch
    for ep in episodes:
        assert ep.outcome is implied_outcome(ep.responses)
        assert episode_problem(ep.records) is None
        stages = [r.stage for r in ep.records]
        assert stages[-1] is Stage.HOMING
        if ep.outcome in (Outcome.ABORTED_SLIPPED, Outcome.ABORTED_EMPTY_OR_MISGRASP):
            assert Stage.PLACING not in stages


def test_episode_log_reads_back_the_records_of_every_episode(tmp_path):
    episodes = run_episodes(EpisodeWorld(ScenarioConfig()), 500, master_seed=3)
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, episodes)
    read = list(read_episode_log(path))
    assert len(read) == len(episodes)
    for ep, (episode_id, records) in zip(episodes, read):
        assert episode_id == ep.episode_id
        assert records == list(ep.records)
        assert outcome_of(records) is ep.outcome


def test_world_rejects_slip_phases_too_short_for_a_window():
    short = ScenarioConfig(frames_normal=1, frames_slipping=1, frames_slipped=1)
    model = init_model(LstmArch(n_layers=1, hidden_size=2), seed=0)
    with pytest.raises(ValidationError, match="3 frames; the slip monitor needs at least 8"):
        EpisodeWorld(short)
    with pytest.raises(ValidationError, match="3 frames; the slip monitor needs at least 5"):
        EpisodeWorld(short, slip_model=model)
    # the shortest accepted phases still give the slip monitor one window
    truth = EpisodeWorld(ScenarioConfig()).sample_truth(episode_rng(0, 0))
    shortest_truth = EpisodeWorld(ScenarioConfig(frames_normal=6, frames_slipping=1, frames_slipped=1))
    assert len(shortest_truth.slip_stream(truth, episode_rng(0, 1))) == 1
    shortest_model = EpisodeWorld(
        ScenarioConfig(frames_normal=3, frames_slipping=1, frames_slipped=1), slip_model=model
    )
    assert len(shortest_model.slip_stream(truth, episode_rng(0, 1))) == 1


# --- world-generation oracle ---------------------------------------------
# Reference: the scalar generator (one rng.normal call per jittered
# feature) and the rng.choice class draws, verbatim apart from the names
# and the reference trajectory returning (frames, labels). The block draw
# must give the same bits and leave the generator in the same state, so
# every comparison below is exact.

_REF_GRIPPER_AREA = 0.35
_REF_BOX_W, _REF_BOX_H = 0.28, 0.30
_REF_CENTER_X, _REF_CENTER_Y = 0.50, 0.45
_REF_Y_DRIFT_PER_FRAME = 0.02
_REF_GONE_AREA = 0.005
_REF_MIN_AREA = 0.01
_REF_PRE_SLIP_FRAMES = 3


def _ref_make_frame(s_area, w, h, x, y, noise, rng):
    def jitter(v: float, lo: float = 0.0, hi: float = 1.0) -> float:
        if noise > 0:
            v = v + rng.normal(0.0, noise)
        return float(min(hi, max(lo, v)))

    s = jitter(s_area, 0.001, 0.60)
    g = jitter(_REF_GRIPPER_AREA, 0.05, 0.60)
    background = 1.0 - s - g
    return (s, g, background, jitter(w), jitter(h), jitter(x), jitter(y))


def _ref_trajectory(config, phases, rng, accel=1.0):
    n_normal, n_slipping, n_slipped = phases
    frames = []
    labels = []
    noise = config.slip_noise_std
    area0 = config.slip_initial_area

    def box_scale(area: float) -> float:
        return float(np.sqrt(max(area, 0.0) / area0))

    def moved(area: float, y: float, frac: float) -> tuple[float, float]:
        area = max(_REF_MIN_AREA, area - config.slip_decay_rate * accel * frac)
        y = min(1.0, y + _REF_Y_DRIFT_PER_FRAME * accel * frac)
        return area, y

    area, y = area0, _REF_CENTER_Y
    ramp = min(_REF_PRE_SLIP_FRAMES, n_normal) if (n_slipping or n_slipped) else 0
    for i in range(n_normal):
        left = n_normal - i
        if ramp and left <= ramp:
            area, y = moved(area, y, (ramp - left + 1) / ramp)
        scale = box_scale(area)
        frames.append(_ref_make_frame(area, _REF_BOX_W * scale, _REF_BOX_H * scale, _REF_CENTER_X, y, noise, rng))
        labels.append(SlipLabel.NORMAL)
    for _ in range(n_slipping):
        area, y = moved(area, y, 1.0)
        scale = box_scale(area)
        frames.append(_ref_make_frame(area, _REF_BOX_W * scale, _REF_BOX_H * scale, _REF_CENTER_X, y, noise, rng))
        labels.append(SlipLabel.SLIPPING)
    for _ in range(n_slipped):
        frames.append(_ref_make_frame(_REF_GONE_AREA, 0.0, 0.0, 0.0, 0.0, 0.0, rng))
        labels.append(SlipLabel.SLIPPED)
    return tuple(frames), tuple(labels)


_GRASP_ORDER = (GraspClass.RIPE_HELD, GraspClass.EMPTY, GraspClass.UNRIPE_HELD)
_SLIP_ORDER = (SlipLabel.NORMAL, SlipLabel.SLIPPING, SlipLabel.SLIPPED)


def _ref_sample_truth(config, rng):
    ex = rng.normal(config.error_mean_x_mm, config.error_std_x_mm)
    ey = rng.normal(config.error_mean_y_mm, config.error_std_y_mm)
    grasp = _GRASP_ORDER[rng.choice(3, p=[config.p_ripe, config.p_empty, config.p_unripe])]
    slip = _SLIP_ORDER[rng.choice(3, p=[config.p_slip_normal, config.p_slipping, config.p_slipped])]
    return (float(ex), float(ey)), grasp, slip


ORACLE_CONFIGS = {"default": ScenarioConfig(), "quiet": QUIET, "noiseless-slip": ScenarioConfig(slip_noise_std=0.0)}


def _assert_trajectory_matches_reference(config, phases, seed, accel):
    rng, ref_rng = episode_rng(seed, 0), episode_rng(seed, 0)
    traj = _trajectory(config, phases, rng)
    ref_frames, ref_labels = _ref_trajectory(config, phases, ref_rng, accel)
    assert traj.labels.tolist() == list(ref_labels) and traj.labels.dtype == "int64"
    assert len(traj.frames) == len(ref_frames) == sum(phases)
    ref = np.array(ref_frames, dtype=np.float64).reshape(len(ref_frames), 7)
    got = traj.frames
    assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()  # signed zeros too
    assert got.dtype == "float64" and got.flags.c_contiguous
    assert rng.random() == ref_rng.random()  # the generator ends in the same state


@pytest.mark.parametrize("config", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS.keys())
def test_outcome_trajectories_match_scalar_reference(config):
    for outcome in SlipLabel:
        for seed in range(25):
            traj = gen_slip_trajectory(config, outcome, episode_rng(seed, 0))
            phases = tuple(int((traj.labels == label).sum()) for label in SlipLabel)
            accel = _DROP_ACCEL if outcome is SlipLabel.SLIPPED else 1.0
            _assert_trajectory_matches_reference(config, phases, seed, accel)


@pytest.mark.parametrize("config", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS.keys())
def test_phase_plans_match_scalar_reference(config):
    plans = [(1, 1, 6), (9, 2, 3), (0, 0, 4), (0, 3, 0), *plan_slip_trajectories(config, (20, 9, 10))]
    for seed, phases in enumerate(plans):
        # a plan that ends in slipped frames is a drop
        _assert_trajectory_matches_reference(config, phases, seed, _DROP_ACCEL if phases[2] else 1.0)


def _chunks(config):
    """Derandomised chunks of phase plans: every dataset plan alone and all
    together, plans without moving frames, and episode chunks of mixed
    outcomes in several orders."""
    plans = plan_slip_trajectories(config, (20, 9, 10))
    normal, slipping, slipped = (_phases(config, outcome) for outcome in SlipLabel)
    return [
        *([p] for p in plans), plans, [(0, 0, 4)], [(0, 0, 4), (0, 3, 0), (0, 0, 2)],
        [normal, slipped, slipping, normal, normal, slipped], [slipped, slipping, normal] * 4, [slipping] * 9,
    ]


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.2, 3.0, 1e308])
@pytest.mark.parametrize("area", [0.3, 0.45, 0.5])
def test_jittered_chunks_match_scalar_reference(area, noise):
    # one draw-and-check call over a chunk of plans must raise exactly when
    # the scalar reference of some plan, in order, builds a frame that
    # first_bad_frame rejects, naming that frame; every plan's generator
    # ends where the reference twin's does, failing or not
    config = ScenarioConfig(slip_initial_area=area, slip_noise_std=noise)
    failed = []  # the failing plan's place in its chunk
    for seed, chunk in enumerate(_chunks(config) * 3):
        rngs = [episode_rng(seed, i) for i in range(len(chunk))]
        twins = [episode_rng(seed, i) for i in range(len(chunk))]
        refs = [np.array(_ref_trajectory(config, phases, twin, _DROP_ACCEL if phases[2] else 1.0)[0]).reshape(-1, 7)
                for phases, twin in zip(chunk, twins)]
        bad = next(((k, b[1]) for k, b in enumerate(map(first_bad_frame, refs)) if b is not None), None)
        if bad is None:
            got = _jittered(config, list(zip(chunk, rngs)))
            moving = np.concatenate([ref[: phases[0] + phases[1]] for phases, ref in zip(chunk, refs)])
            assert got.tobytes() == moving[:, [0, 1, 3, 4, 5, 6]].tobytes()
        else:
            with pytest.raises(ValidationError) as info:
                _jittered(config, list(zip(chunk, rngs)))
            message = f"slip.feature_noise_std = {noise} pushes a frame out of the feature range: {bad[1]}"
            assert str(info.value) == message
            failed.append(bad[0])
        assert [rng.bit_generator.state for rng in rngs] == [twin.bit_generator.state for twin in twins]
    # noise-free curves always pass; where a scenario fails, some chunk
    # fails past its first plan, so the plan order is checked too
    assert bool(failed) == (noise >= 0.2 or (area, noise) == (0.5, 0.05))
    assert any(failed) == bool(failed)


@pytest.mark.parametrize(
    "mix",
    [
        {},
        {"p_ripe": 1.0, "p_empty": 0.0, "p_unripe": 0.0, "p_slip_normal": 0.0, "p_slipping": 0.0, "p_slipped": 1.0},
        {"p_ripe": 0.0, "p_empty": 1.0, "p_unripe": 0.0, "p_slip_normal": 0.0, "p_slipping": 1.0, "p_slipped": 0.0},
        {"p_ripe": 0.0, "p_empty": 0.0, "p_unripe": 1.0, "p_slip_normal": 1.0, "p_slipping": 0.0, "p_slipped": 0.0},
        {"p_ripe": 0.5, "p_empty": 0.0, "p_unripe": 0.5, "p_slip_normal": 0.1, "p_slipping": 0.2, "p_slipped": 0.7},
    ],
    ids=["default", "ripe-slipped", "empty-slipping", "unripe-normal", "mixed"],
)
def test_sample_truth_matches_choice_reference(mix):
    config = ScenarioConfig(**mix)
    world = EpisodeWorld(config)
    for seed in range(2000):
        rng, ref_rng = episode_rng(seed, 0), episode_rng(seed, 0)
        truth = world.sample_truth(rng)
        assert (truth.positional_error, truth.grasp_outcome, truth.slip_outcome) == _ref_sample_truth(config, ref_rng)
        assert rng.random() == ref_rng.random()


def test_interleaved_worlds_keep_their_own_curves_and_truth_streams():
    # two worlds whose cached curves and truth streams differ in every key
    other = ScenarioConfig(frames_normal=7, frames_slipping=3, frames_slipped=5,
                           slip_initial_area=0.25, slip_decay_rate=0.03)
    worlds = [EpisodeWorld(ScenarioConfig()), EpisodeWorld(other)]
    previous = None
    for seed in range(6):
        for world in worlds:
            for outcome in SlipLabel:
                traj = gen_slip_trajectory(world.config, outcome, episode_rng(seed, 0))
                phases = tuple(int((traj.labels == label).sum()) for label in SlipLabel)
                accel = _DROP_ACCEL if outcome is SlipLabel.SLIPPED else 1.0
                ref_frames, ref_labels = _ref_trajectory(world.config, phases, episode_rng(seed, 0), accel)
                assert traj.frames.tobytes() == np.array(ref_frames, dtype=np.float64).tobytes()
                assert traj.labels.tolist() == list(ref_labels)

                curve, labels = _slip_curve(world.config.slip_initial_area, world.config.slip_decay_rate, phases)
                assert not curve.flags.writeable and not labels.flags.writeable
                with pytest.raises(ValueError):
                    curve[...] = 0.0
                assert traj.labels is labels
                assert traj.frames.flags.writeable and not np.shares_memory(traj.frames, curve)
                if previous is not None:
                    assert not np.shares_memory(traj.frames, previous.frames)
                previous = traj

                truth = EpisodeTruth((0.0, 0.0), GraspClass.RIPE_HELD, outcome)
                fresh = gen_slip_trajectory(world.config, outcome, episode_rng(seed, 2))
                expected = [SlipLabel(v) for v in build_windows(fresh.frames, fresh.labels).y.tolist()]
                stream = world.slip_stream(truth, episode_rng(seed, 1))
                assert stream == expected
                stream.clear()  # each call returns its own list
                assert world.slip_stream(truth, episode_rng(seed, 1)) == expected


# --- approach oracle -------------------------------------------------------
# Reference: the dataclass-based approach and the dataclass compensation rule
# it called, verbatim apart from the names. The float version must give the
# same bits and leave the generator in the same state.

@dataclass(frozen=True)
class _RefArmPoint3:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        require_finite(x=self.x, y=self.y, z=self.z)


@dataclass(frozen=True)
class _RefRelativeError:
    dx: float
    dy: float
    dz: float = 0.0

    def __post_init__(self) -> None:
        require_finite(dx=self.dx, dy=self.dy, dz=self.dz)


_REF_NOMINAL_PICKING_POINT = _RefArmPoint3(400.0, 300.0, 250.0)


def _ref_axes_to_correct(err, params):
    t = params.threshold_t
    trigger = abs(err.dx) > t or abs(err.dy) > t
    return trigger, trigger


def _ref_needs_compensation(err, params):
    return any(_ref_axes_to_correct(err, params))


def _ref_compensated_point(picking, err, params):
    fix_x, fix_y = _ref_axes_to_correct(err, params)
    return _RefArmPoint3(
        x=picking.x + params.k_x * err.dx if fix_x else picking.x,
        y=picking.y + params.k_y * err.dy if fix_y else picking.y,
        z=picking.z,
    )


def _ref_simulate_approach(config, params, rng, injected_error):
    picking = _REF_NOMINAL_PICKING_POINT
    act = config.actuation_noise_std_mm
    vis = config.vision_noise_std_mm
    a1x, a1y = rng.normal(0.0, act, size=2) if act > 0 else (0.0, 0.0)
    e1 = _RefArmPoint3(
        picking.x - injected_error.dx + a1x,
        picking.y - injected_error.dy + a1y,
        picking.z,
    )
    v_x, v_y = rng.normal(0.0, vis, size=2) if vis > 0 else (0.0, 0.0)
    visual = _RefRelativeError((picking.x - e1.x) + v_x, (picking.y - e1.y) + v_y)

    if not _ref_needs_compensation(visual, params):
        return visual, False, float(injected_error.dx - a1x), float(injected_error.dy - a1y)

    target = _ref_compensated_point(picking, visual, params)
    a2x, a2y = rng.normal(0.0, act, size=2) if act > 0 else (0.0, 0.0)
    e2 = _RefArmPoint3(
        target.x - injected_error.dx + a2x,
        target.y - injected_error.dy + a2y,
        target.z,
    )
    residual_x = picking.x - e2.x
    residual_y = picking.y - e2.y
    return visual, True, float(residual_x), float(residual_y)


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


APPROACH_CONFIGS = {
    "default": ScenarioConfig(),
    "no-actuation-noise": ScenarioConfig(actuation_noise_std_mm=0.0),
    "no-vision-noise": ScenarioConfig(vision_noise_std_mm=0.0),
}


@pytest.mark.parametrize("config", APPROACH_CONFIGS.values(), ids=APPROACH_CONFIGS.keys())
def test_approach_matches_dataclass_reference(config):
    params = CompensationParams()
    errors = np.random.default_rng(0).normal([12.0, 8.0], [10.0, 10.0], size=(1200, 2)).tolist()
    compensated = 0
    for seed, (dx, dy) in enumerate(errors):
        rng, ref_rng = episode_rng(seed, 0), episode_rng(seed, 0)
        out = simulate_approach(config, params, rng, (dx, dy))
        visual, flag, res_x, res_y = _ref_simulate_approach(config, params, ref_rng, _RefRelativeError(dx, dy))
        assert _bits(*out.visual_error) == _bits(visual.dx, visual.dy)
        assert all(type(v) is float for v in out.visual_error)
        assert out.compensated is flag
        assert _bits(out.residual_x, out.residual_y) == _bits(res_x, res_y)
        assert type(out.residual_x) is type(out.residual_y) is float
        assert rng.random() == ref_rng.random()  # the generator ends in the same state
        compensated += flag
    assert 300 < compensated < 1100  # both branches run often
