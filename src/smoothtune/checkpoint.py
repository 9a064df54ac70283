"""Text checkpoint format: a single JSON document holding config and tensors.

Floats round-trip exactly through Python's shortest-repr JSON encoding, so a
saved/loaded state is bit-identical to the live one. Readers reject unknown
versions and refuse truncated or malformed files without partial effects.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing

import numpy as np

from .errors import CheckpointError
from .model import ModelConfig, ModelParams, param_shapes

CHECKPOINT_VERSION = 1


def tensors_to_obj(params: ModelParams) -> dict:
    return {
        name: {"shape": list(block.shape), "data": block.ravel().tolist()}
        for name, block in params.items()
    }


def tensors_from_obj(obj: dict, config: ModelConfig) -> ModelParams:
    """The blocks of a tensors section, refused unless they are the config's
    and every value is finite."""
    params: ModelParams = {}
    for name, entry in obj.items():
        try:
            shape = tuple(int(d) for d in entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed tensor entry {name!r}: {exc}") from exc
        expected = int(np.prod(shape)) if shape else 1
        if data.size != expected:
            raise CheckpointError(f"tensor {name!r}: data length does not match shape {shape}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
        params[name] = data.reshape(shape)
    if {name: block.shape for name, block in params.items()} != param_shapes(config):
        raise CheckpointError("its tensors are not the config's blocks")
    return params


def config_from_obj(cls, obj: dict):
    """Rebuild a config dataclass from its `dataclasses.asdict` form: nested
    configs are rebuilt and JSON arrays become tuples for tuple fields."""
    try:
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, value in obj.items():
            hint = hints.get(name)
            if dataclasses.is_dataclass(hint):
                value = config_from_obj(hint, value)
            elif typing.get_origin(hint) is tuple:
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed {cls.__name__}: {exc}") from exc


def write_json(path: str, document: dict) -> None:
    """Write atomically so failed runs never leave a readable partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder; json.dump streams through the Python one
        fh.write(json.dumps(document) + "\n")
    os.replace(tmp, path)


def read_json(path: str, sections: tuple[str, ...] = ()) -> dict:
    """A checkpoint document of the supported version holding `sections`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot load {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"cannot load {path}: top level is not an object")
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"cannot load {path}: unsupported version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    for key in sections:
        if key not in document:
            raise CheckpointError(f"cannot load {path}: missing section {key!r}")
    return document


def load_params(path: str) -> tuple[ModelConfig, ModelParams]:
    """The model config and params of a checkpoint whose blocks are the config's."""
    document = read_json(path, ("config", "tensors"))
    try:
        config = config_from_obj(ModelConfig, document["config"])
        return config, tensors_from_obj(document["tensors"], config)
    except CheckpointError as exc:
        raise CheckpointError(f"cannot load {path}: {exc}") from exc
