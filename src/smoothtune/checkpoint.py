"""Text checkpoint format: a single JSON document holding config and tensors.

Floats round-trip exactly through Python's shortest-repr JSON encoding, so a
saved/loaded state is bit-identical to the live one. A document holds its
tensors as numpy arrays, and the writer turns each into Python floats only
when it reaches it, so a save holds one tensor's floats and text at a time;
the bytes are those of `json.dumps` of the document with its tensors as
lists. A failed write leaves no partial file and an existing file unchanged.
Readers reject unknown versions and refuse truncated or malformed files
without partial effects, among them a config missing a field, holding an
unknown one, or holding a value whose JSON type is not its field's annotation
(an integer for an int, any number for a float; true/false is neither).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing

import numpy as np

from .data import write_atomically
from .errors import CheckpointError
from .model import ModelConfig, ModelParams, param_shapes

CHECKPOINT_VERSION = 1


def tensors_to_obj(params: ModelParams) -> dict:
    return {
        name: {"shape": list(block.shape), "data": block.ravel()}
        for name, block in params.items()
    }


def tensors_from_obj(obj: dict, config: ModelConfig) -> ModelParams:
    """The blocks of a tensors section, refused unless they are the config's
    blocks and hold finite JSON numbers under shapes of JSON integers."""
    blocks, params = param_shapes(config), {}
    for name, entry in obj.items():
        try:
            shape, values = tuple(entry["shape"]), entry["data"]
            data = np.asarray(values, dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"malformed tensor entry {name!r}: {exc}") from exc
        # numpy reads fractions, text and true/false as numbers, so JSON types are checked
        if not set(map(type, shape)) <= {int}:
            raise CheckpointError(f"tensor {name!r}: shape entries must be JSON integers")
        if data.ndim != 1 or not set(map(type, values)) <= {int, float}:
            raise CheckpointError(f"tensor {name!r}: data must be a list of JSON numbers, "
                                  "not text or true/false")
        if shape != blocks.get(name):
            raise CheckpointError("its tensors are not the config's blocks")
        if data.size != int(np.prod(shape)):
            raise CheckpointError(f"tensor {name!r}: data length does not match shape {shape}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
        params[name] = data.reshape(shape)
    if params.keys() != blocks.keys():
        raise CheckpointError("its tensors are not the config's blocks")
    return params


# field annotation -> (the types of the JSON values it takes, what they are)
_JSON_TYPES = {int: ({int}, "an integer"), float: ({int, float}, "a number"),
               bool: ({bool}, "true or false"), str: ({str}, "a string")}


def _field_value(name: str, hint, value):
    """The value of a config field annotated `hint`, refused unless it is a
    JSON value of that type (true/false is no number); a nested config is
    rebuilt and a JSON array becomes a tuple, each entry of its entry type."""
    if dataclasses.is_dataclass(hint):
        return config_from_obj(hint, value)
    if typing.get_origin(hint) is tuple:
        if type(value) is not list:
            raise TypeError(f"{name} is {value!r}, not a list")
        return tuple(_field_value(f"{name} entry", typing.get_args(hint)[0], v) for v in value)
    types, what = _JSON_TYPES[hint]
    if type(value) not in types:
        raise TypeError(f"{name} is {value!r}, not {what}")
    return value


def config_from_obj(cls, obj: dict):
    """Rebuild a config dataclass from its `dataclasses.asdict` form, refused
    unless it holds every field and no other, each of its annotation's type."""
    try:
        hints = typing.get_type_hints(cls)
        if type(obj) is not dict:
            raise TypeError(f"{obj!r} is not a JSON object")
        if odd := sorted(obj.keys() ^ hints.keys()):
            raise TypeError(f"{'unknown' if odd[0] in obj else 'missing'} field {odd[0]!r}")
        return cls(**{name: _field_value(name, hint, obj[name]) for name, hint in hints.items()})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed {cls.__name__}: {exc}") from exc


def _pieces(value):
    """The text of json.dumps(value) for a value whose dict keys are strings,
    a dict item at a time, each numpy array written as its tolist() only when
    it is reached."""
    if isinstance(value, dict):
        yield "{"
        for n, (key, item) in enumerate(value.items()):
            yield (", " if n else "") + json.dumps(key) + ": "
            yield from _pieces(item)
        yield "}"
    else:
        # json.dumps runs the C encoder; json.dump streams through the Python one
        yield json.dumps(value.tolist() if isinstance(value, np.ndarray) else value)


def write_json(path: str, document: dict) -> None:
    """Write atomically so failed runs never leave a readable partial file."""
    write_atomically(path, itertools.chain(_pieces(document), ("\n",)))


def read_json(path: str, sections: tuple[str, ...] = ()) -> dict:
    """A checkpoint document of the supported version holding `sections`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
