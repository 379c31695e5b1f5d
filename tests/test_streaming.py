"""`simulate` and `report` stream a run: the same bytes as holding it
whole, nothing left behind by a run that fails part way, and peak
memory that does not grow with the episode count."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard import world
from harvest_guard.cli import main
from harvest_guard.errors import ValidationError
from harvest_guard.fsm import HarvestEpisode, read_episode_log, run_episode, write_episode_log

from conftest import ScriptedWorld


def test_run_episodes_in_chunks_from_any_first_id_equals_the_whole_run():
    config = world.ScenarioConfig()
    whole = world.run_episodes(world.EpisodeWorld(config), 70, master_seed=5)
    parts = [world.run_episodes(world.EpisodeWorld(config), end - first, master_seed=5, first=first)
             for first, end in ((0, 10), (10, 45), (45, 70))]
    assert [ep.episode_id for ep in whole] == list(range(70))
    assert [ep for part in parts for ep in part] == whole


def _tree(root):
    """Every path under root, each file with its bytes."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("error", [ValidationError("episode 40 fails"), KeyboardInterrupt()], ids=["error", "interrupt"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_simulate_failing_after_its_first_chunk_leaves_no_trace(tmp_path, monkeypatch, capsys, existing, error):
    out = tmp_path / "runs" / "run"
    if existing:
        # an older run's three files, which a failing run leaves as they are
        assert main(["simulate", "--seed", "2", "--episodes", "5", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["episodes.jsonl", "scenario.ini", "summary.csv"]
    before = _tree(tmp_path)
    capsys.readouterr()

    sample_truth, calls = world.EpisodeWorld.sample_truth, []

    def fails_at_episode_40(self, rng):
        # episodes draw their truths in id order; 40 lies in the second chunk
        calls.append(len(calls))
        if len(calls) > 40:
            raise error
        return sample_truth(self, rng)

    monkeypatch.setattr(world.EpisodeWorld, "sample_truth", fails_at_episode_40)
    argv = ["simulate", "--seed", "1", "--episodes", "100", "--out", str(out)]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: episode 40 fails"]
    assert len(calls) == 41 > world.EPISODE_CHUNK
    # no directory made, no temporary file left, every older file unchanged
    assert _tree(tmp_path) == before


def _episode_blocks(path):
    """The lines of each episode of a log, in file order."""
    blocks, block = [], []
    for line in path.read_text().splitlines(keepends=True):
        block.append(line)
        if json.loads(line)["stage"] == "homing":
            blocks.append(block)
            block = []
    return blocks


@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_report_ignores_the_order_of_episodes_in_the_log(tmp_path, capsys, reorder):
    # numpy's pairwise mean depends on the order of the totals, so report
    # must put the episodes back in id order
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "25", "--out", str(out)]) == 0
    blocks = _episode_blocks(out / "episodes.jsonl")
    assert len(blocks) == 25
    if reorder == "reversed":
        blocks.reverse()
    else:
        random.Random(0).shuffle(blocks)
    log = tmp_path / "reordered.jsonl"
    log.write_text("".join(line for block in blocks for line in block))
    assert log.read_bytes() != (out / "episodes.jsonl").read_bytes()
    summary = tmp_path / "summary.csv"
    assert main(["report", "--episodes", str(log), "--out", str(summary)]) == 0
    assert summary.read_bytes() == (out / "summary.csv").read_bytes()


def test_report_sorts_episode_ids_past_64_bits(tmp_path, capsys):
    # episode ids are any JSON integers: renumbered in the same order and
    # reversed, the log still gives simulate's summary. Its first ids fit
    # in int64, down to -2**63 at old id 16, and the rest lie below it.
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "2", "--episodes", "25", "--out", str(out)]) == 0
    lines = []
    for block in reversed(_episode_blocks(out / "episodes.jsonl")):
        for line in block:
            doc = json.loads(line)
            doc["episode_id"] = (doc["episode_id"] - 24) * 2**60
            lines.append(json.dumps(doc) + "\n")
    log = tmp_path / "renumbered.jsonl"
    log.write_text("".join(lines))
    assert [eid for eid, _ in read_episode_log(log)][7:10] == [-(2**63) + 2**60, -(2**63), -(2**63) - 2**60]
    summary = tmp_path / "summary.csv"
    assert main(["report", "--episodes", str(log), "--out", str(summary)]) == 0
    assert summary.read_bytes() == (out / "summary.csv").read_bytes()


_TEMPLATE = run_episode(ScriptedWorld(), deterministic=True)
_IDS = st.integers(-3, 6) | st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 2**70])


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(_IDS, max_size=10))
def test_episode_log_rejects_exactly_the_ids_that_already_ended(tmp_path_factory, ids):
    path = tmp_path_factory.mktemp("log") / "episodes.jsonl"
    write_episode_log(path, [HarvestEpisode(i, _TEMPLATE.records, _TEMPLATE.truth, _TEMPLATE.responses) for i in ids])
    repeat = next((k for k, i in enumerate(ids) if i in ids[:k]), None)
    if repeat is None:
        assert [eid for eid, _ in read_episode_log(path)] == ids
    else:
        line = repeat * len(_TEMPLATE.records) + 1
        with pytest.raises(ValidationError, match=rf": line {line}: episode {ids[repeat]} already ended$"):
            list(read_episode_log(path))


def test_episode_log_reader_yields_each_episode_before_reading_the_next(tmp_path):
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, [HarvestEpisode(i, _TEMPLATE.records, _TEMPLATE.truth, _TEMPLATE.responses) for i in range(3)])
    with path.open("a") as fh:
        fh.write("not json\n")
    episodes = read_episode_log(path)
    assert [eid for eid, _ in (next(episodes), next(episodes), next(episodes))] == [0, 1, 2]
    with pytest.raises(ValidationError, match=rf": line {3 * len(_TEMPLATE.records) + 1}: not JSON"):
        next(episodes)


def _peak_bytes(argv):
    """Peak traced Python memory of one CLI call."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A directory for the traced runs, after one warm-up simulate and report."""
    root = tmp_path_factory.mktemp("streaming")
    assert main(["simulate", "--seed", "1", "--episodes", "50", "--out", str(root / "warm")]) == 0
    assert main(["report", "--episodes", str(root / "warm" / "episodes.jsonl"), "--out", str(root / "warm.csv")]) == 0
    return root


def test_simulate_memory_does_not_grow_with_the_episode_count(logs, capsys):
    small, large = (_peak_bytes(["simulate", "--seed", "2", "--episodes", str(n), "--out", str(logs / f"run{n}")])
                    for n in (500, 5000))
    assert large <= 3 * small, (small, large)


def test_report_memory_does_not_grow_with_the_episode_count(logs, capsys):
    peaks = []
    for n in (500, 5000):
        assert main(["simulate", "--seed", "2", "--episodes", str(n), "--out", str(logs / f"log{n}")]) == 0
        peaks.append(_peak_bytes(["report", "--episodes", str(logs / f"log{n}" / "episodes.jsonl"),
                                  "--out", str(logs / f"report{n}.csv")]))
    small, large = peaks
    assert large <= 3 * small, (small, large)
