"""One-file model persistence.

Models are stored as a single self-describing JSON text file: a format
tag, a kind, the architecture, metadata, and every weight array flattened
alongside its shape. JSON serializes doubles through repr, which
round-trips bit for bit, so save -> load returns numerically identical
weights.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError, open_text
from .grasp import GraspModel
from .lstm import LstmArch, SlipModel
from .slip_windows import FEATURE_ORDER, SlipLabel

FORMAT_NAME = "harvest-guard-model"
FORMAT_VERSION = 1

KIND_SLIP = "slip-lstm"
KIND_GRASP = "grasp-linear"


def _array_from_payload(path: Path, name: str, payload: Any) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in payload["shape"])
        data = np.array(payload["data"], dtype=np.float64).reshape(shape)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: array {name!r} is malformed: {exc}") from exc
    if not np.isfinite(data).all():
        raise ValidationError(f"{path}: array {name!r} holds non-finite values")
    return data


def save_model(path: str | Path, model: SlipModel | GraspModel) -> None:
    path = Path(path)
    if isinstance(model, SlipModel):
        kind = KIND_SLIP
        arch: dict[str, Any] | None = {
            "n_layers": model.arch.n_layers,
            "hidden_size": model.arch.hidden_size,
            "input_size": model.arch.input_size,
            "n_classes": model.arch.n_classes,
            "inter_dropout": model.arch.inter_dropout,
            "head_dropout": model.arch.head_dropout,
        }
    elif isinstance(model, GraspModel):
        kind = KIND_GRASP
        arch = None
    else:
        raise ValidationError(f"cannot persist {type(model).__name__}")
    arrays = model.named_arrays()
    doc: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "metadata": model.metadata,
        "arrays": {name: {"shape": list(a.shape), "data": None} for name, a in arrays.items()},
    }
    if arch is not None:
        doc["arch"] = arch
    # The file is json.dumps(doc, indent=1), whose indent forces the
    # pure-Python encoder; only the skeleton goes through it. Each float
    # list goes through the C encoder, its item separator writing the
    # indent of depth 3. Metadata comes before "arrays" and indents deeper,
    # so past the first one-space "arrays" key every "data": null is a
    # stand-in (array names and arch keys are fixed).
    head, key, tail = json.dumps(doc, indent=1).partition('\n "arrays": ')
    slots = tail.split('"data": null')
    parts = [head, key, slots[0]]
    for a, after in zip(arrays.values(), slots[1:]):
        values = a.astype(np.float64, copy=False).ravel().tolist()
        body = json.dumps(values, separators=(",\n    ", ": "))[1:-1]
        parts += ['"data": ', f"[\n    {body}\n   ]" if values else "[]", after]
    path.write_text("".join(parts) + "\n")


def load_model(path: str | Path) -> SlipModel | GraspModel:
    path = Path(path)
    with open_text(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError also for ints over 4,300 digits
        raise ValidationError(f"{path}: not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValidationError(f"{path}: missing format tag {FORMAT_NAME!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ValidationError(f"{path}: metadata must be a JSON object")
    payloads = doc.get("arrays") or {}
    if not isinstance(payloads, dict):
        raise ValidationError(f"{path}: arrays must be a JSON object")
    arrays = {name: _array_from_payload(path, name, p) for name, p in payloads.items()}

    if kind == KIND_GRASP:
        for need in ("weights", "bias"):
            if need not in arrays:
                raise ValidationError(f"{path}: missing array {need!r}")
        return GraspModel(arrays["weights"], arrays["bias"], metadata)

    if kind == KIND_SLIP:
        try:
            arch = LstmArch(**doc["arch"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad architecture block: {exc}") from exc
        # the simulator feeds FEATURE_ORDER vectors and reads SlipLabel rows
        if (arch.input_size, arch.n_classes) != (len(FEATURE_ORDER), len(SlipLabel)):
            raise ValidationError(f"{path}: slip model maps {arch.input_size} features to {arch.n_classes} classes")
        if metadata.get("feature_order", list(FEATURE_ORDER)) != list(FEATURE_ORDER):
            raise ValidationError(f"{path}: feature_order must be {list(FEATURE_ORDER)}")
        w_x, w_h, b = [], [], []
        for layer in range(arch.n_layers):
            for group, name in ((w_x, f"layer{layer}.w_x"), (w_h, f"layer{layer}.w_h"), (b, f"layer{layer}.b")):
                if name not in arrays:
                    raise ValidationError(f"{path}: missing array {name!r}")
                group.append(arrays[name])
        for need in ("head.w", "head.b"):
            if need not in arrays:
                raise ValidationError(f"{path}: missing array {need!r}")
        return SlipModel(arch, w_x, w_h, b, arrays["head.w"], arrays["head.b"], metadata)

    raise ValidationError(f"{path}: unknown model kind {kind!r}")
