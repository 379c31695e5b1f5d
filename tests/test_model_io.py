"""Model persistence: bit-exact round-trips under both format versions and
malformed-file rejection."""

import base64
import contextlib
import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harvest_guard.cli import main
from harvest_guard.errors import ValidationError
from harvest_guard.grasp import GraspModel
from harvest_guard.lstm import LstmArch, SlipModel, array_layout, init_model
from harvest_guard.slip_windows import FEATURE_ORDER
from harvest_guard.model_io import (
    FORMAT_NAME,
    FORMAT_VERSION,
    KIND_GRASP,
    KIND_SLIP,
    _array_from_payload,
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
        assert a.tobytes() == b.tobytes()  # the payload is the float64 bytes


def test_saved_slip_arrays_follow_the_layout(tmp_path):
    path = tmp_path / "slip.model.json"
    save_model(path, init_model(ARCH, seed=0))
    doc = json.loads(path.read_text())
    names = [name for name, _ in array_layout(ARCH)]
    assert list(doc["arrays"]) == names
    # a file may list its arrays in any order; they load in layout order
    doc["arrays"] = dict(reversed(doc["arrays"].items()))
    path.write_text(json.dumps(doc))
    assert list(load_model(path).named_arrays()) == names


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
    "model, array, bad, version",
    [
        pytest.param(GraspModel(np.zeros((3, 4)), np.zeros(3)), "weights", float("nan"), 2, id="model0-weights-nan"),
        pytest.param(init_model(ARCH, seed=0), "layer1.w_h", float("inf"), 2, id="model1-layer1.w_h-inf"),
        pytest.param(GraspModel(np.zeros((3, 4)), np.zeros(3)), "bias", float("-inf"), 2, id="model2-bias--inf"),
        pytest.param(init_model(ARCH, seed=0), "head.b", float("nan"), 1, id="model3-head.b-nan-v1-literal"),
    ],
)
def test_load_rejects_non_finite_weights(tmp_path, capsys, model, array, bad, version):
    path = tmp_path / "model.json"
    doc = json.loads(_reference_bytes(model, version))
    if version == 1:
        doc["arrays"][array]["data"][1] = bad  # json writes NaN / Infinity literals
    else:
        _put_double(doc["arrays"][array], 1, struct.pack("<d", bad))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: array {array!r} holds non-finite"):
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


# --- writer oracle and version 1 compatibility ---------------------------------
# _reference_bytes is the one-call writer of either version. Version 1 is
# what earlier releases wrote: their files must keep loading to the bits
# of the model, as the version 2 file does.


def _reference_bytes(model, version):
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

    def data(a):
        values = [float(v) for v in a.ravel()]
        if version == 1:
            return values
        return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")

    doc = {
        "format": FORMAT_NAME,
        "version": version,
        "kind": kind,
        "metadata": model.metadata,
        "arrays": {name: {"shape": list(a.shape), "data": data(a)} for name, a in model.named_arrays().items()},
    }
    if arch is not None:
        doc["arch"] = arch
    return (json.dumps(doc, indent=1) + "\n").encode()


def _assert_loads_to_the_bits_of(path, model):
    """Every payload in the file, and every array load_model returns, holds
    the model's float64 bits in a writable, C-contiguous, aligned array."""
    doc = json.loads(path.read_text())
    decoded = {name: _array_from_payload(name, p, doc["version"]) for name, p in doc["arrays"].items()}
    want = model.named_arrays()
    for arrays in (decoded, load_model(path).named_arrays()):
        for name, got in arrays.items():
            expect = np.asarray(want[name], dtype=np.float64)
            assert got.dtype == np.float64 and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous and got.flags.aligned


class _GraspWithEmptyArray(GraspModel):
    def named_arrays(self):
        return {**super().named_arrays(), "empty": np.zeros((0, 4))}


# metadata whose text looks like array payloads, in keys, values and nesting
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
    v2, v1 = tmp_path / "v2.json", tmp_path / "v1.json"
    save_model(v2, model)
    assert v2.read_bytes() == _reference_bytes(model, 2)
    v1.write_bytes(_reference_bytes(model, 1))
    for path in (v2, v1):
        if isinstance(model, _GraspWithEmptyArray):
            # no model uses a zero-size array, so its payload only decodes:
            # load_model rejects the unused name before decoding anything
            doc = json.loads(path.read_text())
            assert _array_from_payload("empty", doc["arrays"]["empty"], doc["version"]).shape == (0, 4)
            with pytest.raises(ValidationError, match="unexpected array 'empty'$"):
                load_model(path)
        else:
            _assert_loads_to_the_bits_of(path, model)


def test_writer_matches_one_call_json_dumps_after_training(tmp_path):
    data, path, v1 = tmp_path / "slip.csv", tmp_path / "slip.json", tmp_path / "v1.json"
    assert main(["gen-data", "--kind", "slip", "--counts", "12,6,6", "--out", str(data), "--seed", "0"]) == 0
    argv = ["train-slip", "--data", str(data), "--out", str(path), "--seed", "0", "--epochs", "1",
            "--layers", "2", "--hidden", "8"]
    assert main(argv) == 0
    model = load_model(path)
    assert path.read_bytes() == _reference_bytes(model, 2)
    v1.write_bytes(_reference_bytes(model, 1))
    _assert_loads_to_the_bits_of(v1, model)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_writer_keeps_non_finite_literals(tmp_path, bad):
    # the writer checks nothing: version 2 keeps the bit pattern and
    # version 1 the JSON literal, and the reader rejects both
    model = _grasp(7)
    model.weights[1, 2] = bad
    v2, v1 = tmp_path / "v2.json", tmp_path / "v1.json"
    save_model(v2, model)
    assert v2.read_bytes() == _reference_bytes(model, 2)
    raw = base64.b64decode(json.loads(v2.read_text())["arrays"]["weights"]["data"])
    assert raw[8 * 6 : 8 * 7] == struct.pack("<d", bad)
    v1.write_bytes(_reference_bytes(model, 1))
    assert {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(bad)] in v1.read_text()
    for path in (v2, v1):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: array 'weights' holds non-finite"):
            load_model(path)


def test_simulate_logs_the_same_episodes_with_v1_and_v2_models(tmp_path):
    slip, grasp = tmp_path / "slip.csv", tmp_path / "grasp.csv"
    models = {name: (tmp_path / f"{name}.json", tmp_path / f"{name}.v1.json") for name in ("slip", "grasp")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--kind", "slip", "--counts", "30,15,15", "--out", str(slip), "--seed", "3"]) == 0
        assert main(["gen-data", "--kind", "grasp", "--counts", "30,30,30", "--out", str(grasp), "--seed", "1"]) == 0
        assert main(["train-slip", "--data", str(slip), "--out", str(models["slip"][0]), "--seed", "0",
                     "--layers", "2", "--hidden", "8", "--epochs", "1"]) == 0
        assert main(["train-grasp", "--data", str(grasp), "--out", str(models["grasp"][0]), "--seed", "1"]) == 0
        for v2, v1 in models.values():
            v1.write_bytes(_reference_bytes(load_model(v2), 1))
        logs = []
        for which in (0, 1):  # the version 2 pair, then the version 1 pair
            run = tmp_path / f"run{which}"
            assert main(["simulate", "--seed", "7", "--episodes", "100", "--out", str(run),
                         "--slip-model", str(models["slip"][which]),
                         "--grasp-model", str(models["grasp"][which])]) == 0
            logs.append((run / "episodes.jsonl").read_bytes())
    assert logs[0] == logs[1]



# --- version, shape and payload rules ------------------------------------------


def _eval_slip(data, model):
    """eval-slip run in-process: its exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval-slip", "--data", str(data), "--model", str(model)])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("version", [True, 1.0, 2.0, 3], ids=["true", "1.0", "2.0", "3"])
def test_version_must_be_the_int_1_or_2(eval_inputs, tmp_path, version):
    data, docs = eval_inputs
    # the payload layout the version compares equal to, so only the type can fail
    doc = json.loads(json.dumps(docs[1 if version == 1 else 2]))
    doc["version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: unsupported version {version!r}')}$"):
        load_model(path)
    code, err = _eval_slip(data, path)
    assert code == 1 and len(err) == 1 and str(path) in err[0]


@pytest.mark.parametrize(
    "model, edit, problem",
    [
        (init_model(LstmArch(n_layers=1, hidden_size=2), seed=0), lambda doc: doc["arch"].update(hidden_size=1_000_000),
         "layer0.w_x shape (8, 7), expected (4000000, 7)"),
        (_grasp(0), lambda doc: doc["arrays"]["weights"].update(shape=[4, 3]), "weights shape (4, 3), expected (3, 4)"),
    ],
    ids=["slip-hidden-size", "grasp-weights-shape"],
)
def test_load_names_the_file_of_a_shape_the_architecture_rejects(tmp_path, capsys, model, edit, problem):
    path = tmp_path / "model.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        load_model(path)
    flag = "--grasp-model" if isinstance(model, GraspModel) else "--slip-model"
    code = main(["simulate", "--seed", "1", "--episodes", "2", "--out", str(tmp_path / "run"), flag, str(path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {problem}"]


@pytest.mark.parametrize(
    "model, edit, name",
    [
        (init_model(LstmArch(n_layers=2, hidden_size=8), seed=0), lambda doc: doc["arch"].update(n_layers=1),
         "layer1.w_x"),
        # a payload that cannot decode: the name is rejected before any payload is decoded
        (_grasp(0), lambda doc: doc["arrays"].update(extra={"shape": [1], "data": "!"}), "extra"),
    ],
    ids=["slip-n-layers-edited", "grasp-extra-array"],
)
def test_load_rejects_arrays_the_architecture_does_not_use(tmp_path, capsys, model, edit, name):
    # a 2x8 file with n_layers edited to 1 once loaded as a 1-layer network
    # built from layer 0 and the head
    path = tmp_path / "model.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    problem = f"unexpected array {name!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        load_model(path)
    flag = "--grasp-model" if isinstance(model, GraspModel) else "--slip-model"
    code = main(["simulate", "--seed", "1", "--episodes", "2", "--out", str(tmp_path / "run"), flag, str(path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {problem}"]


@pytest.mark.parametrize("n_layers", [10**12, 2**62], ids=["10**12", "2**62"])
def test_huge_n_layers_stops_at_the_first_missing_array(eval_inputs, tmp_path, n_layers):
    # the expected names are listed lazily: naming every layer first would
    # build billions of strings before the check could fail
    data, docs = eval_inputs
    doc = json.loads(json.dumps(docs[2]))
    doc["arch"]["n_layers"] = n_layers
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert _eval_slip(data, path) == (1, [f"error: {path}: missing array 'layer1.w_x'"])


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("shape", [[3, 4.9], [3, True, 4], [-1, 4]], ids=["float", "bool", "negative"])
def test_load_rejects_shape_entries_that_are_not_counts(tmp_path, shape, version):
    # version 1 once read [3, 4.9] as (3, 4) and [-1, 4] as (3, 4); true passed as 1
    path = tmp_path / "model.json"
    doc = json.loads(_reference_bytes(_grasp(0), version))
    doc["arrays"]["weights"]["shape"] = shape
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: array 'weights' is malformed: shape must be"):
        load_model(path)


def _put_double(payload, index, word):
    """Overwrite element `index` of a version 2 payload with the 8 bytes `word`."""
    raw = bytearray(base64.b64decode(payload["data"]))
    raw[8 * index : 8 * index + 8] = word
    payload["data"] = base64.b64encode(raw).decode("ascii")


def _reencoded(payload, change):
    payload["data"] = base64.b64encode(change(base64.b64decode(payload["data"]))).decode("ascii")


# little-endian float64 bit patterns: quiet, signalling and negative NaN, +inf, -inf
NON_FINITE_BITS = [0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0000,
                   0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000]

PAYLOAD_EDITS = {
    "outside-alphabet": lambda p: p.update(data="!" + p["data"][1:]),
    "url-safe-alphabet": lambda p: p.update(data="-_" + p["data"][2:]),
    "whitespace": lambda p: p.update(data=p["data"][:4] + "\n" + p["data"][4:]),
    "non-ascii": lambda p: p.update(data="é" + p["data"][1:]),
    "missing-padding": lambda p: p.update(data=p["data"].rstrip("=")),
    "excess-padding": lambda p: p.update(data=p["data"] + "="),
    "one-double-short": lambda p: _reencoded(p, lambda raw: raw[:-8]),
    "one-byte-over": lambda p: _reencoded(p, lambda raw: raw + b"\0"),
    "list-data": lambda p: p.update(data=[0.0] * 56),
    "no-data": lambda p: p.update(data=None),
    "signalling-nan": lambda p: _put_double(p, 3, struct.pack("<Q", NON_FINITE_BITS[1])),
}


@pytest.mark.parametrize("edit", PAYLOAD_EDITS.values(), ids=PAYLOAD_EDITS.keys())
def test_malformed_v2_payload_names_the_file_and_array(eval_inputs, tmp_path, edit):
    data, docs = eval_inputs
    doc = json.loads(json.dumps(docs[2]))
    assert doc["arrays"]["layer0.w_x"]["data"].endswith("==")  # 448 bytes, so padding can go missing
    edit(doc["arrays"]["layer0.w_x"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, err = _eval_slip(data, path)
    assert code == 1 and len(err) == 1
    assert f"{path}: array 'layer0.w_x' " in err[0]


def test_huge_shape_fails_the_byte_count_check(eval_inputs, tmp_path):
    # 8 * 2**80 bytes: the byte count check runs before numpy sees the shape
    data, docs = eval_inputs
    doc = json.loads(json.dumps(docs[2]))
    doc["arrays"]["layer0.w_x"]["shape"] = [2**40, 2**40]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, err = _eval_slip(data, path)
    assert code == 1
    problem = f"448 data bytes, shape {[2**40] * 2} needs {8 * 2**80}"
    assert err == [f"error: {path}: array 'layer0.w_x' is malformed: {problem}"]


# --- reader fuzzer -----------------------------------------------------------
# A valid 1x2 slip model file of either version, its version 2 payload
# perhaps broken (base64 that does not decode, a wrong byte count, a
# non-finite bit pattern, a shape entry that is not a count), then mutated
# at the JSON level (drop a key or an element, retype a value), then
# perhaps at the byte level (truncate, or insert bytes that are not
# UTF-8), and read by eval-slip in-process. Whatever the file holds,
# eval-slip exits 0, 1 or 2 with at most one stderr line; an exception
# escaping cli.main is a traceback.


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A SlipData file eval-slip can read, and the documents of one 1x2
    slip model under format versions 1 and 2."""
    root = tmp_path_factory.mktemp("eval")
    data, v2 = root / "slip.csv", root / "v2.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--kind", "slip", "--counts", "3,3,3", "--out", str(data), "--seed", "0"]) == 0
    model = init_model(LstmArch(n_layers=1, hidden_size=2), seed=0)
    save_model(v2, model)
    return data, {1: json.loads(_reference_bytes(model, 1)), 2: json.loads(v2.read_text())}


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


def _break_payload(case, payload):
    """One version 2 payload edit drawn from the ways a payload can be wrong."""
    data, raw = payload["data"], bytearray(base64.b64decode(payload["data"]))
    how = case.draw(st.sampled_from(["char", "padding", "length", "bits", "shape"]), label="payload edit")
    if how == "char":  # outside the alphabet, or padding where it cannot go
        at = case.draw(st.integers(0, len(data)), label="at")
        payload["data"] = data[:at] + case.draw(st.sampled_from("!-_*. \n=é\x00"), label="char") + data[at:]
    elif how == "padding":
        payload["data"] = case.draw(st.sampled_from([data.rstrip("="), data + "=", data[:-1]]), label="padding")
    elif how == "length":  # valid base64 of too few or too many bytes
        cut = case.draw(st.integers(-16, 16).filter(bool), label="bytes")
        payload["data"] = base64.b64encode(raw[:cut] if cut < 0 else raw + bytes(cut)).decode("ascii")
    elif how == "bits":
        at = case.draw(st.integers(0, len(raw) // 8 - 1), label="element")
        raw[8 * at : 8 * at + 8] = struct.pack("<Q", case.draw(st.sampled_from(NON_FINITE_BITS), label="bits"))
        payload["data"] = base64.b64encode(raw).decode("ascii")
    else:  # a huge entry only ever meets the byte count check: no zero entry, so the count is off
        at = case.draw(st.integers(0, len(payload["shape"]) - 1), label="entry")
        entry = st.sampled_from([-1, -8, True, False, 2.0, 1.5, 2**31, 2**63, 2**64, 10**30])
        payload["shape"][at] = case.draw(entry, label="shape entry")


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


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=st.data())
def test_eval_slip_survives_any_model_file(eval_inputs, case):
    data, docs = eval_inputs
    base = docs[case.draw(st.sampled_from([1, 2]), label="version")]
    doc = json.loads(json.dumps(base))
    if base["version"] == 2 and case.draw(st.booleans(), label="break a payload"):
        _break_payload(case, doc["arrays"][case.draw(st.sampled_from(sorted(doc["arrays"])), label="array")])
    paths = list(_doc_paths(base))
    for _ in range(case.draw(st.integers(0, 3), label="edits")):
        path = case.draw(st.sampled_from(paths), label="path")
        drop = bool(path) and case.draw(st.booleans(), label="drop")
        doc = _mutate(doc, path, None if drop else case.draw(_JSON_VALUES, label="value"), drop)
    raw = (json.dumps(doc, indent=1) + "\n").encode()
    if case.draw(st.booleans(), label="byte edit"):
        at = case.draw(st.integers(0, len(raw)), label="at")
        insert = case.draw(st.one_of(st.none(), _NOT_UTF8), label="insert")  # None truncates
        raw = raw[:at] if insert is None else raw[:at] + insert + raw[at:]
    model = data.parent / "model.json"
    model.write_bytes(raw)
    code, err = _eval_slip(data, model)
    assert code in (0, 1, 2)
    assert len(err) <= 1
