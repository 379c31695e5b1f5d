"""One-file model persistence.

A model file is `json.dumps(doc, indent=1)` plus a newline: a format tag,
a version, a kind, the architecture (slip models only), metadata, and
every weight array as `{"shape": [...], "data": ...}`. A slip model's
arrays are the names of lstm.array_layout. Version 2 stores
`data` as the base64 (RFC 4648) of the array's little-endian float64
bytes in C order, so a load returns the saved bits by construction.
load_model also reads version 1, whose `data` is a flat JSON list of
numbers printed through repr. The version must be the int 1 or 2 and each
shape entry a non-negative int (not `true` or `3.0`); a version 2 payload
must be valid base64 of 8 bytes per element. Arrays holding a NaN or an
infinity are rejected, and every load error names the file.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError, open_text
from .grasp import GraspModel
from .lstm import LstmArch, SlipModel, array_layout
from .slip_windows import FEATURE_ORDER, SlipLabel

FORMAT_NAME = "harvest-guard-model"
FORMAT_VERSION = 2

KIND_SLIP = "slip-lstm"
KIND_GRASP = "grasp-linear"


def _array_from_payload(name: str, payload: Any, version: int) -> np.ndarray:
    try:
        shape, data = payload["shape"], payload["data"]
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
        if version == 1:
            array = np.array(data, dtype=np.float64).reshape(shape)
        elif not isinstance(data, str):
            raise TypeError(f"data must be a base64 string, got {type(data).__name__}")
        else:
            raw = base64.b64decode(data, validate=True)
            if len(raw) != (need := 8 * math.prod(shape)):
                raise ValueError(f"{len(raw)} data bytes, shape {shape} needs {need}")
            # frombuffer is a read-only view of raw; astype copies it
            array = np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"array {name!r} is malformed: {exc}") from exc
    if not np.isfinite(array).all():
        raise ValidationError(f"array {name!r} holds non-finite values")
    return array


def save_model(path: str | Path, model: SlipModel | GraspModel) -> None:
    if not isinstance(model, (SlipModel, GraspModel)):
        raise ValidationError(f"cannot persist {type(model).__name__}")
    doc: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": KIND_SLIP if isinstance(model, SlipModel) else KIND_GRASP,
        "metadata": model.metadata,
        "arrays": {
            name: {"shape": list(a.shape), "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}
            for name, a in model.named_arrays().items()
        },
    }
    if isinstance(model, SlipModel):
        doc["arch"] = asdict(model.arch)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path: str | Path) -> SlipModel | GraspModel:
    path = Path(path)
    with open_text(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError also for ints over 4,300 digits
        raise ValidationError(f"{path}: not a model file: {exc}") from exc
    try:
        return _model_from(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _model_from(doc: Any) -> SlipModel | GraspModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValidationError(f"missing format tag {FORMAT_NAME!r}")
    version = doc.get("version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise ValidationError(f"unsupported version {version!r}")
    kind = doc.get("kind")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be a JSON object")
    payloads = doc.get("arrays") or {}
    if not isinstance(payloads, dict):
        raise ValidationError("arrays must be a JSON object")

    if kind == KIND_GRASP:
        names, build = ("weights", "bias"), lambda arrays: GraspModel(arrays["weights"], arrays["bias"], metadata)
    elif kind == KIND_SLIP:
        try:
            arch = LstmArch(**doc["arch"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad architecture block: {exc}") from exc
        # the simulator feeds FEATURE_ORDER vectors and reads SlipLabel rows
        if (arch.input_size, arch.n_classes) != (len(FEATURE_ORDER), len(SlipLabel)):
            raise ValidationError(f"slip model maps {arch.input_size} features to {arch.n_classes} classes")
        if metadata.get("feature_order", list(FEATURE_ORDER)) != list(FEATURE_ORDER):
            raise ValidationError(f"feature_order must be {list(FEATURE_ORDER)}")
        # lazy: n_layers has no upper bound, and the first missing name ends the check
        names, build = (name for name, _ in array_layout(arch)), lambda arrays: SlipModel(arch, arrays, metadata)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    # by name only, before any payload is decoded: a file whose arch was
    # edited must not load as a different network built from some arrays
    expected = []  # distinct keys of payloads, so never more than it holds
    for name in names:
        if name not in payloads:
            raise ValidationError(f"missing array {name!r}")
        expected.append(name)
    known = set(expected)
    for name in payloads:
        if name not in known:
            raise ValidationError(f"unexpected array {name!r}")
    arrays = {name: _array_from_payload(name, p, version) for name, p in payloads.items()}
    return build({name: arrays[name] for name in expected})
