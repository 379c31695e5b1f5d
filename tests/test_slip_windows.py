"""Windowing, balancing, and SlipData CSV tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harvest_guard.errors import ValidationError
from harvest_guard.slip_windows import (
    AREA_SUM_TOL,
    FEATURE_ORDER,
    SlipLabel,
    SlipWindows,
    build_windows,
    class_counts,
    first_bad_frame,
    oversample,
    prepare_splits,
    read_slip_csv,
    stratified_split,
    stratified_split_counts,
    windows_from_slip_csv,
    windows_to_arrays,
    write_slip_csv,
)


def _frame(tag: float = 0.0, area: float = 0.2) -> list[float]:
    # tag lands in x so frame identity survives through windowing
    return [area, 0.3, 1.0 - 0.3 - area, 0.1, 0.15, tag, 0.5]


def _labeled(labels):
    frames = np.array([_frame(tag=i / 100.0) for i in range(len(labels))]).reshape(len(labels), 7)
    return frames, np.array(labels, dtype=np.int64)


def test_eight_frames_one_window():
    frames, labels = _labeled([0, 0, 0, 0, 0, 0, 1, 2])
    windows = build_windows(frames, labels)
    assert len(windows) == 1
    assert windows.y.tolist() == [SlipLabel.SLIPPED]
    assert np.array_equal(windows.x[0], frames[:5])


def test_lookahead_promotes_before_onset():
    frames, labels = _labeled([0] * 9 + [1, 1, 1])
    got = build_windows(frames, labels).y.tolist()
    assert got == [
        SlipLabel.NORMAL,
        SlipLabel.NORMAL,
        SlipLabel.SLIPPING,
        SlipLabel.SLIPPING,
        SlipLabel.SLIPPING,
    ]


def test_short_trajectory_yields_nothing():
    frames, labels = _labeled([0] * 7)
    windows = build_windows(frames, labels)
    assert len(windows) == 0 and windows.x.shape == (0, 5, 7)


def test_mismatched_lengths_rejected():
    frames, labels = _labeled([0] * 8)
    with pytest.raises(ValidationError):
        build_windows(frames, labels[:7])


@given(raw=st.lists(st.sampled_from([0, 1, 2]), max_size=40))
def test_windowing_matches_bruteforce(raw):
    frames, labels = _labeled(raw)
    windows = build_windows(frames, labels)
    assert len(windows) == max(0, len(raw) - 7)
    assert windows.x.flags.c_contiguous and windows.x.dtype == "float64" and windows.y.dtype == "int64"
    for i in range(len(windows)):
        assert np.array_equal(windows.x[i], frames[i : i + 5])
        assert windows.y[i] == max(raw[i + 5 : i + 8])


def _problem(*row):
    return first_bad_frame(np.array([_frame(), row]))


def test_frame_features_validation():
    assert _problem(*_frame(area=1.5)) == (1, "strawberry_area must lie in [0, 1], got 1.5")
    assert _problem(0.5, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1) == (1, "area fractions must sum to 1 +/- 0.01, got 1.5")
    assert _problem(0.2, 0.3, 0.5, -0.1, 0.1, 0.1, 0.1) == (1, "w must lie in [0, 1], got -0.1")
    assert _problem(0.2, 0.3, 0.5, 0.1, 0.1, float("nan"), 0.1) == (1, "x must lie in [0, 1], got nan")
    # partition tolerance is 0.01
    assert _problem(0.2, 0.3, 0.509, 0.1, 0.1, 0.1, 0.1) is None
    assert _problem(0.2, 0.3, 0.52, 0.1, 0.1, 0.1, 0.1) == (1, "area fractions must sum to 1 +/- 0.01, got 1.02")


def test_windows_to_arrays_shapes():
    frames, labels = _labeled([0] * 10)
    x, y = windows_to_arrays(build_windows(frames, labels))
    assert x.shape == (3, 5, 7)
    assert y.shape == (3,)
    assert x.dtype == "float64" and y.dtype == "int64"


def _windows_with_counts(n_normal, n_slipping, n_slipped):
    # tag every window so duplicates are traceable to their source
    y = np.repeat([0, 1, 2], [n_normal, n_slipping, n_slipped])
    x = np.array([[_frame(tag=tag / 10000.0)] * 5 for tag in range(len(y))]).reshape(len(y), 5, 7)
    return SlipWindows(x, y)


def _tags(windows):
    return (windows.x[:, 0, 5] * 10000.0).round().astype(int).tolist()


def test_oversample_matches_majority():
    windows = _windows_with_counts(5, 1, 0)
    balanced = windows.take(oversample(windows.y, rng_seed=0))
    counts = class_counts(balanced.y)
    assert counts[SlipLabel.NORMAL] == 5
    assert counts[SlipLabel.SLIPPING] == 5
    assert SlipLabel.SLIPPED not in counts
    # every original survives, duplicates draw from the minority pool
    assert _tags(balanced)[: len(windows)] == _tags(windows)
    assert set(_tags(balanced)[len(windows) :]) == {5}


def test_oversample_imbalanced_field_mix():
    windows = _windows_with_counts(719, 157, 1962)
    counts = class_counts(windows.y[oversample(windows.y, rng_seed=1)])
    assert counts == {
        SlipLabel.NORMAL: 1962,
        SlipLabel.SLIPPING: 1962,
        SlipLabel.SLIPPED: 1962,
    }


def test_oversample_is_seeded():
    labels = _windows_with_counts(6, 2, 3).y
    a = oversample(labels, rng_seed=7)
    b = oversample(labels, rng_seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(oversample(labels, rng_seed=8), a) or len(a) == len(labels)


def test_oversample_rejects_empty():
    with pytest.raises(ValidationError):
        oversample(np.empty(0, dtype=np.int64), rng_seed=0)


def test_split_counts_field_dataset():
    train, val = stratified_split_counts((389, 346, 388), 0.7)
    assert train == (272, 242, 272)
    assert val == (117, 104, 116)


def test_split_counts_rounds_half_away_from_zero():
    assert stratified_split_counts((5,), 0.5) == ((3,), (2,))
    assert stratified_split_counts((7,), 0.7) == ((5,), (2,))
    assert stratified_split_counts((10, 10), 0.5) == ((5, 5), (5, 5))


def test_split_counts_validation():
    with pytest.raises(ValidationError):
        stratified_split_counts((10,), 0.0)
    with pytest.raises(ValidationError):
        stratified_split_counts((10,), 1.0)
    with pytest.raises(ValidationError):
        stratified_split_counts((10, 0), 0.7)


def test_split_windows_partitions_input():
    labels = _windows_with_counts(9, 6, 5).y
    train, val = stratified_split(labels, 0.7, rng_seed=3)
    assert len(train) + len(val) == len(labels)
    assert class_counts(labels[train]) == {
        SlipLabel.NORMAL: 6,
        SlipLabel.SLIPPING: 4,
        SlipLabel.SLIPPED: 4,
    }
    # index partition: each input item lands on exactly one side
    assert sorted(train.tolist() + val.tolist()) == list(range(len(labels)))


def test_prepare_splits_keeps_validation_untouched():
    windows = _windows_with_counts(20, 8, 4)
    _, val = stratified_split(windows.y, 0.7, rng_seed=0)
    got_train, got_val = prepare_splits(windows, 0.7, rng_seed=0)
    assert _tags(got_val) == val.tolist()
    assert np.array_equal(got_val.x, windows.x[val]) and np.array_equal(got_val.y, windows.y[val])
    counts = class_counts(got_train.y)
    assert len(set(counts.values())) == 1  # balanced
    # duplicates stay on the training side
    assert len(set(_tags(got_val))) == len(got_val)
    assert not set(_tags(got_train)) & set(_tags(got_val))


def test_slip_csv_round_trip(tmp_path):
    frames_a, labels_a = _labeled([0, 0, 0, 0, 0, 1, 1, 2])
    frames_b, labels_b = _labeled([0] * 9)
    path = tmp_path / "slip.csv"
    write_slip_csv(path, [(0, frames_a, labels_a), (1, frames_b, labels_b)])
    episodes = read_slip_csv(path)
    assert [e[0] for e in episodes] == [0, 1]
    for (_, frames, labels), want_frames, want_labels in zip(episodes, (frames_a, frames_b), (labels_a, labels_b)):
        assert frames.tobytes() == want_frames.tobytes() and np.array_equal(labels, want_labels)
        assert labels.dtype == "int64"


def test_windows_never_span_episodes(tmp_path):
    frames, labels = _labeled([0] * 8)
    path = tmp_path / "slip.csv"
    write_slip_csv(path, [(0, frames, labels), (1, frames, labels)])
    windows = windows_from_slip_csv(path)
    # 16 concatenated frames would give 9; per-episode it is 1 + 1
    assert len(windows) == 2


def test_slip_csv_rejects_split_episode(tmp_path):
    frames, labels = _labeled([0] * 8)
    path = tmp_path / "slip.csv"
    write_slip_csv(path, [(0, frames[:4], labels[:4]), (1, frames, labels), (0, frames[4:], labels[4:])])
    with pytest.raises(ValidationError, match="not contiguous"):
        read_slip_csv(path)


def test_slip_csv_rejects_frame_id_gap(tmp_path):
    frames, labels = _labeled([0] * 8)
    path = tmp_path / "slip.csv"
    write_slip_csv(path, [(0, frames, labels)])
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[4:]))  # drop frame 2
    with pytest.raises(ValidationError, match="out of order"):
        read_slip_csv(path)


def test_slip_csv_rejects_missing_column(tmp_path):
    path = tmp_path / "slip.csv"
    path.write_text("episode_id,frame_id\n0,0\n")
    with pytest.raises(ValidationError, match="missing columns"):
        read_slip_csv(path)


def test_slip_csv_reports_bad_value(tmp_path):
    frames, labels = _labeled([0] * 8)
    path = tmp_path / "slip.csv"
    write_slip_csv(path, [(0, frames, labels)])
    text = path.read_text().replace("\n0,3,", "\n0,3,oops", 1)
    path.write_text(text)
    with pytest.raises(ValidationError, match="line 5"):
        read_slip_csv(path)


@pytest.mark.parametrize(
    "row,problem",
    [
        ("0,3,0.2,0.3,0.5,0.1,0.15,1.25,0.5,0", "x must lie in [0, 1], got 1.25"),
        ("0,3,0.2,0.3,0.45,0.1,0.15,0.03,0.5,0", "area fractions must sum to 1 +/- 0.01, got 0.95"),
    ],
)
def test_slip_csv_names_the_first_bad_frame_by_line(tmp_path, row, problem):
    frames, labels = _labeled([0] * 8)
    path = tmp_path / "slip.csv"
    write_slip_csv(path, [(0, frames, labels)])
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4] + [row + "\n"] + lines[5:]))
    with pytest.raises(ValidationError) as err:
        read_slip_csv(path)
    assert str(err.value) == f"{path}: bad row at line 5: {problem}"


def _scan_bad_frame(frames):
    """first_bad_frame's row scan alone, kept as the oracle of its
    whole-array fast path."""
    in_range = (frames >= 0.0) & (frames <= 1.0)
    area_sum = frames[:, 0] + frames[:, 1] + frames[:, 2]
    bad = ~in_range.all(axis=1) | (np.abs(area_sum - 1.0) > AREA_SUM_TOL)
    if not bad.any():
        return None
    row = int(bad.argmax())
    for col, name in enumerate(FEATURE_ORDER):
        if not in_range[row, col]:
            return row, f"{name} must lie in [0, 1], got {frames[row, col].item()}"
    return row, f"area fractions must sum to 1 +/- {AREA_SUM_TOL}, got {area_sum[row].item()}"


def _area_sums_at_the_tolerance():
    """background_area values that put 0.2 + 0.3 + b at 1 +/- AREA_SUM_TOL
    and a few steps to either side of it."""
    for edge in (1.0 - 0.2 - 0.3 - AREA_SUM_TOL, 1.0 - 0.2 - 0.3 + AREA_SUM_TOL):
        b = edge
        for _ in range(4):
            b = np.nextafter(b, -1.0)
        for _ in range(9):
            yield b
            b = np.nextafter(b, 2.0)


def test_first_bad_frame_matches_the_row_scan():
    values = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 1.0 + 2.0**-52, np.nextafter(0.0, -1.0), 0.5)
    frames, _ = _labeled([0] * 8)
    cases = [frames, np.empty((0, 7)), frames[:1]]
    for row in (0, 5, 7):
        for col in range(7):
            for value in values:
                bad = frames.copy()
                bad[row, col] = value
                cases.append(bad)
        edges = []
        for b in _area_sums_at_the_tolerance():
            edges.append(frames.copy())
            edges[-1][row, 2] = b
        # the steps cross the tolerance, so both verdicts occur among them
        assert {_scan_bad_frame(edge) is None for edge in edges} == {True, False}
        cases += edges
    # two bad rows: the first is named
    two = frames.copy()
    two[6, 3], two[2, 2] = np.nan, 0.6
    cases.append(two)
    results = []
    for case in cases:
        expected = _scan_bad_frame(case)
        assert first_bad_frame(case) == expected, case
        results.append(expected)
    # every column fails somewhere
    assert {r[1].split(" ")[0] for r in results if r} >= set(FEATURE_ORDER)
