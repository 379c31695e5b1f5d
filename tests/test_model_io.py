"""Model persistence: bit-exact round-trips and malformed-file rejection."""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard.cli import main
from harvest_guard.errors import ValidationError
from harvest_guard.grasp import GraspModel
from harvest_guard.lstm import LstmArch, SlipModel, init_model
from harvest_guard.slip_windows import FEATURE_ORDER
from harvest_guard.model_io import (
    FORMAT_NAME,
    FORMAT_VERSION,
    KIND_GRASP,
    KIND_SLIP,
    load_model,
    save_model,
)

ARCH = LstmArch(n_layers=2, hidden_size=6)


def test_slip_model_round_trip(tmp_path):
    model = init_model(ARCH, seed=4)
    model.metadata["note"] = "round-trip"
    path = tmp_path / "slip.model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.arch == ARCH
    assert loaded.metadata["note"] == "round-trip"
    assert loaded.metadata["seed"] == 4
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)  # repr round-trips doubles exactly


def test_grasp_model_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    model = GraspModel(rng.normal(size=(3, 4)), rng.normal(size=3), metadata={"seed": 0})
    path = tmp_path / "grasp.model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert isinstance(loaded, GraspModel)
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    assert loaded.metadata == model.metadata


def test_file_is_self_describing(tmp_path):
    path = tmp_path / "slip.model.json"
    save_model(path, init_model(ARCH, seed=0))
    doc = json.loads(path.read_text())
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION
    assert doc["kind"] == KIND_SLIP
    assert doc["arch"]["n_layers"] == 2
    assert "layer0.w_x" in doc["arrays"]
    assert "head.w" in doc["arrays"]

    path2 = tmp_path / "grasp.model.json"
    save_model(path2, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    doc2 = json.loads(path2.read_text())
    assert doc2["kind"] == KIND_GRASP
    assert "arch" not in doc2


def test_save_is_byte_stable(tmp_path):
    model = init_model(ARCH, seed=9)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_model(a, model)
    save_model(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not a model")
    with pytest.raises(ValidationError, match="not a model file"):
        load_model(path)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["int-over-4300-digits", "nested-100k-deep"])
def test_load_rejects_json_the_decoder_cannot_hold(tmp_path, text):
    # json raises a plain ValueError and a RecursionError here, not a
    # JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="not a model file"):
        load_model(path)


def test_load_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValidationError, match="format tag"):
        load_model(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": FORMAT_NAME, "version": 99}))
    with pytest.raises(ValidationError, match="version"):
        load_model(path)


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": FORMAT_NAME, "version": 1, "kind": "mystery"}))
    with pytest.raises(ValidationError, match="unknown model kind"):
        load_model(path)


def test_load_rejects_missing_array(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, init_model(ARCH, seed=0))
    doc = json.loads(path.read_text())
    del doc["arrays"]["layer1.w_h"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="layer1.w_h"):
        load_model(path)


def test_load_rejects_non_object_metadata(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    doc = json.loads(path.read_text())
    doc["metadata"] = [1, 2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="metadata must be a JSON object"):
        load_model(path)


def test_load_rejects_malformed_array(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, GraspModel(np.zeros((3, 4)), np.zeros(3)))
    doc = json.loads(path.read_text())
    doc["arrays"]["weights"] = {"shape": [3, 4]}  # data missing
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="malformed"):
        load_model(path)


def test_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.json")


def test_save_rejects_foreign_objects(tmp_path):
    with pytest.raises(ValidationError):
        save_model(tmp_path / "x.json", object())


@pytest.mark.parametrize(
    "model, array, bad",
    [
        (GraspModel(np.zeros((3, 4)), np.zeros(3)), "weights", float("nan")),
        (init_model(ARCH, seed=0), "layer1.w_h", float("inf")),
    ],
)
def test_load_rejects_non_finite_weights(tmp_path, capsys, model, array, bad):
    path = tmp_path / "model.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    doc["arrays"][array]["data"][1] = bad
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    with pytest.raises(ValidationError, match=f"{array!r} holds non-finite"):
        load_model(path)
    flag = "--grasp-model" if isinstance(model, GraspModel) else "--slip-model"
    code = main(["simulate", "--seed", "1", "--episodes", "2", "--out", str(tmp_path / "run"), flag, str(path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "non-finite" in err[0]


@pytest.mark.parametrize(
    "edit, problem",
    [
        ({"n_layers": 1.5}, "architecture sizes must be integers"),
        ({"hidden_size": 2.0}, "architecture sizes must be integers"),
        ({"n_layers": 0}, "degenerate architecture"),
        ({"inter_dropout": "x"}, "not supported between"),
        ({"depth": 3}, "unexpected keyword argument 'depth'"),
    ],
)
def test_load_names_the_file_of_a_bad_architecture_block(tmp_path, edit, problem):
    path = tmp_path / "model.json"
    save_model(path, init_model(ARCH, seed=0))
    doc = json.loads(path.read_text())
    doc["arch"].update(edit)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: bad architecture block: .*{problem}"):
        load_model(path)


@pytest.mark.parametrize(
    "arch, problem",
    [
        (LstmArch(n_layers=1, hidden_size=2, input_size=6), "maps 6 features to 3 classes"),
        (LstmArch(n_layers=1, hidden_size=2, n_classes=2), "maps 7 features to 2 classes"),
    ],
)
def test_load_rejects_slip_shapes_the_simulator_cannot_feed(tmp_path, arch, problem):
    path = tmp_path / "model.json"
    save_model(path, init_model(arch, seed=0))
    with pytest.raises(ValidationError, match=problem):
        load_model(path)


@pytest.mark.parametrize(
    "order",
    [
        [*FEATURE_ORDER[:-1], "z"],  # a feature this package does not compute
        [FEATURE_ORDER[1], FEATURE_ORDER[0], *FEATURE_ORDER[2:]],  # permuted
    ],
)
def test_load_rejects_any_other_feature_order(tmp_path, order):
    path = tmp_path / "model.json"
    save_model(path, init_model(ARCH, seed=0))
    doc = json.loads(path.read_text())
    assert doc["metadata"]["feature_order"] == list(FEATURE_ORDER)  # still written
    doc["metadata"]["feature_order"] = order
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="feature_order must be"):
        load_model(path)


# --- writer oracle -----------------------------------------------------------
# Reference: the one-call writer that the spliced C-encoder writer replaced,
# verbatim apart from the names. Every model must keep its file bytes.


def _reference_bytes(model):
    if isinstance(model, SlipModel):
        kind = KIND_SLIP
        arch = {
            "n_layers": model.arch.n_layers,
            "hidden_size": model.arch.hidden_size,
            "input_size": model.arch.input_size,
            "n_classes": model.arch.n_classes,
            "inter_dropout": model.arch.inter_dropout,
            "head_dropout": model.arch.head_dropout,
        }
    else:
        kind = KIND_GRASP
        arch = None
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "metadata": model.metadata,
        "arrays": {
            name: {"shape": list(a.shape), "data": [float(v) for v in a.ravel()]}
            for name, a in model.named_arrays().items()
        },
    }
    if arch is not None:
        doc["arch"] = arch
    return (json.dumps(doc, indent=1) + "\n").encode()


class _GraspWithEmptyArray(GraspModel):
    def named_arrays(self):
        return {**super().named_arrays(), "empty": np.zeros((0, 4))}


# text a stand-in or a splice point could match, in keys, values and nesting
TRICKY_METADATA = {
    "a": '"data": null',
    "b": '"data": [',
    "c": ", ",
    "d": '\n "arrays": {',
    "data": None,
    "arrays": {"data": None, "x": {"data": [1.5, ", "]}},
}


def _grasp(seed):
    rng = np.random.default_rng(seed)
    return GraspModel(rng.normal(size=(3, 4)), rng.normal(size=3), metadata={"seed": seed})


def _tricky(model):
    model.metadata.update(TRICKY_METADATA)
    return model


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: init_model(LstmArch(n_layers=1, hidden_size=4), seed=1), id="slip-1x4"),
        pytest.param(lambda: init_model(LstmArch(n_layers=2, hidden_size=16), seed=2), id="slip-2x16"),
        pytest.param(lambda: init_model(LstmArch(n_layers=5, hidden_size=64), seed=3), id="slip-5x64"),
        pytest.param(lambda: _grasp(4), id="grasp"),
        pytest.param(
            lambda: GraspModel(np.arange(12).reshape(3, 4), np.linspace(-1, 1, 3, dtype=np.float32)), id="grasp-int-f32"
        ),
        pytest.param(lambda: _GraspWithEmptyArray(np.ones((3, 4)), np.zeros(3)), id="zero-size-array"),
        pytest.param(lambda: _tricky(_grasp(5)), id="grasp-tricky-metadata"),
        pytest.param(lambda: _tricky(init_model(LstmArch(n_layers=1, hidden_size=3), seed=6)), id="slip-tricky-metadata"),
    ],
)
def test_writer_matches_one_call_json_dumps(tmp_path, build):
    model = build()
    path = tmp_path / "model.json"
    save_model(path, model)
    assert path.read_bytes() == _reference_bytes(model)


def test_writer_matches_one_call_json_dumps_after_training(tmp_path):
    data, path = tmp_path / "slip.csv", tmp_path / "slip.json"
    assert main(["gen-data", "--kind", "slip", "--counts", "12,6,6", "--out", str(data), "--seed", "0"]) == 0
    argv = ["train-slip", "--data", str(data), "--out", str(path), "--seed", "0", "--epochs", "1",
            "--layers", "2", "--hidden", "8"]
    assert main(argv) == 0
    assert path.read_bytes() == _reference_bytes(load_model(path))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_writer_keeps_non_finite_literals(tmp_path, bad):
    model = _grasp(7)
    model.weights[1, 2] = bad
    path = tmp_path / "model.json"
    save_model(path, model)
    assert path.read_bytes() == _reference_bytes(model)
    assert {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(bad)] in path.read_text()
    with pytest.raises(ValidationError, match="'weights' holds non-finite"):
        load_model(path)


# --- reader fuzzer -----------------------------------------------------------
# A valid 1x2 slip model file, mutated at the JSON level (drop a key or an
# element, retype a value), then perhaps at the byte level (truncate, or
# insert bytes that are not UTF-8), and read by eval-slip in-process.
# Whatever the file holds, eval-slip exits 0, 1 or 2 with at most one
# stderr line; an exception escaping cli.main is a traceback.


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, model = root / "slip.csv", root / "base.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--kind", "slip", "--counts", "3,3,3", "--out", str(data), "--seed", "0"]) == 0
    save_model(model, init_model(LstmArch(n_layers=1, hidden_size=2), seed=0))
    return root, data, json.loads(model.read_text())


def _doc_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _doc_paths(value, (*prefix, key))
    elif isinstance(node, list):
        # a data list's ends stand for its middle
        for i in (0, -1) if prefix[-1:] == ("data",) else range(len(node)):
            yield from _doc_paths(node[i], (*prefix, i))


def _mutate(doc, path, value, drop):
    """doc with the node at path dropped or replaced; unchanged if an
    earlier mutation removed the path."""
    if not path:
        return value
    parent = doc
    try:
        for step in path[:-1]:
            parent = parent[step]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=st.data())
def test_eval_slip_survives_any_model_file(fuzz_base, case):
    root, data, base = fuzz_base
    doc = json.loads(json.dumps(base))
    paths = list(_doc_paths(base))
    for _ in range(case.draw(st.integers(1, 3), label="edits")):
        path = case.draw(st.sampled_from(paths), label="path")
        drop = bool(path) and case.draw(st.booleans(), label="drop")
        doc = _mutate(doc, path, None if drop else case.draw(_JSON_VALUES, label="value"), drop)
    raw = (json.dumps(doc, indent=1) + "\n").encode()
    if case.draw(st.booleans(), label="byte edit"):
        at = case.draw(st.integers(0, len(raw)), label="at")
        insert = case.draw(st.one_of(st.none(), _NOT_UTF8), label="insert")  # None truncates
        raw = raw[:at] if insert is None else raw[:at] + insert + raw[at:]
    model = root / "model.json"
    model.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval-slip", "--data", str(data), "--model", str(model)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
