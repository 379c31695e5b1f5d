"""Model persistence: bit-exact round-trips and malformed-file rejection."""

import json

import numpy as np
import pytest

from harvest_guard.errors import ValidationError
from harvest_guard.grasp import GraspModel
from harvest_guard.lstm import LstmArch, init_model
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
    from harvest_guard.cli import main

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
