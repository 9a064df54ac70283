"""The config schema: every key's type and default come from the config
dataclasses, the archived `config.ini` bytes of the presets are pinned, and an
archived config parses back to the config it was written from."""

import dataclasses
import hashlib
import json
import os
import re
import warnings

import pytest

from smoothtune.adversarial import AdvConfig
from smoothtune.checkpoint import config_from_obj
from smoothtune.errors import CheckpointError, ConfigError
from smoothtune.model import ModelConfig
from smoothtune.optimizer import ProxConfig
from smoothtune.runconfig import CONFIG_KEYS, RunConfig, effective_config_text, parse_config
from smoothtune.trainer import TrainConfig

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of effective_config_text(parse_config(path, overrides)), taken from the
# hand-written archive that preceded the derived schema
_ARCHIVES = [
    ("configs/cluster_sweep.ini", [],
     "b4a72489061982273671e8329ca799d3b995721c97363b30fc557040e13162d7"),
    ("configs/two_moons_smooth.ini", [],
     "bdde4f2471c63888ed7ffb1032eaca4a7382980051338bf0511c3e480911cd10"),
    ("configs/two_moons_vanilla.ini", [],
     "b70cdad59836151f28c30deaa7336e2b4957545043f82965ee7ce4229a5a7700"),
    ("bench/tokens_transformer.ini", [],
     "4c07a705c5aa83bd51c3e3243d48a75982499702f27618eec982d47234138e40"),
    ("configs/two_moons_vanilla.ini", ["run.probe_eps=0.05"],
     "82b410a5b20fe2162f3e7881658b9352251ec19e97dc19b65b7cb5f0b7fdeb1d"),
]


@pytest.mark.parametrize("path,overrides,digest", _ARCHIVES)
def test_archived_config_bytes_are_pinned(path, overrides, digest):
    text = effective_config_text(parse_config(os.path.join(_ROOT, path), overrides))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("path,overrides,digest", _ARCHIVES)
def test_archived_config_parses_back_to_the_same_config(tmp_path, path, overrides, digest):
    cfg = parse_config(os.path.join(_ROOT, path), overrides)
    archived = tmp_path / "config.ini"
    archived.write_text(effective_config_text(cfg))
    assert parse_config(str(archived)) == cfg


def test_every_field_is_set_by_exactly_one_key():
    nested = {(RunConfig, "model"), (RunConfig, "train"), (RunConfig, "sweep"),
              (TrainConfig, "adv"), (TrainConfig, "prox")}
    fields = [(cls, f.name)
              for cls in (ModelConfig, AdvConfig, ProxConfig, TrainConfig, RunConfig)
              for f in dataclasses.fields(cls) if (cls, f.name) not in nested]
    targets = [(cls, name) for _, _, cls, name in CONFIG_KEYS]
    assert sorted(targets, key=str) == sorted(fields, key=str)
    keys = [(section, key) for section, key, _, _ in CONFIG_KEYS]
    assert len(set(keys)) == len(keys) == 39


_MINIMAL = ("[smart]\nmethod = smooth\nouter_steps = 7\n"
            "[data]\ntrain = t.jsonl\n[run]\nseed = 3\nout = o\n")


def test_defaults_come_from_the_dataclasses(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text(_MINIMAL)
    cfg = parse_config(str(path))
    assert cfg == RunConfig(model=ModelConfig(), train=TrainConfig(outer_steps=7, seed=3),
                            method="smooth", train_path="t.jsonl", out_dir="o")


_RULED = [(section, key, rule) for section, key, cls, name in CONFIG_KEYS
          for f in dataclasses.fields(cls) if f.name == name
          if (rule := f.metadata.get("rule")) is not None]


def _edges(rule):
    """A value just inside `rule` and one just outside it, as config text."""
    if isinstance(rule, list):  # a rule for every entry
        return _edges(rule[0])
    if isinstance(rule, tuple):
        return rule[-1], "bogus"
    if rule[0] in "[(":
        low, high = (json.loads(end) for end in rule[1:-1].split(","))  # ints stay ints
        inside = low if rule[0] == "[" else high if rule[-1] == "]" else (low + high) / 2
        return str(inside), str(high if rule[-1] == ")" else high + 1)
    op, bound = rule.split()
    return (bound, str(int(bound) - 1)) if op == ">=" else (bound + ".5", bound)


def test_only_free_values_have_no_rule():
    """`classes` and `heads` are checked against other fields, and the rest
    take any value of their type (any finite float for ema_switch)."""
    ruled = {(section, key) for section, key, _ in _RULED}
    assert {(section, key) for section, key, _, _ in CONFIG_KEYS} - ruled == {
        ("model", "classes"), ("model", "heads"), ("smart", "ema_switch"),
        ("smart", "detach_clean"), ("data", "train"), ("data", "test"), ("run", "out")}


@pytest.mark.parametrize("section,key,rule", _RULED,
                         ids=[f"{section}.{key}" for section, key, _ in _RULED])
def test_each_key_is_refused_by_its_own_name_outside_its_rule(tmp_path, section, key, rule):
    path = tmp_path / "minimal.ini"
    path.write_text(_MINIMAL)
    inside, outside = _edges(rule)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps = 0 is below the default noise_std
        parse_config(str(path), [f"{section}.{key}={inside}"])
    with pytest.raises(ConfigError) as refused:
        parse_config(str(path), [f"{section}.{key}={outside}"])
    assert re.fullmatch(re.escape(f"[{section}].{key}: ") + r"(every entry )?must be .*, got .*",
                        str(refused.value))


def test_checkpointed_configs_round_trip_through_json():
    train = TrainConfig(reg_weight=2.5, adv=AdvConfig(eps=0.2, steps=3, norm="two"),
                        prox=ProxConfig(mode="vbpp"), seed=9, reg_detach_clean=True)
    model = ModelConfig(hidden=(8, 4), dropout=0.0)
    for cls, cfg in ((TrainConfig, train), (ModelConfig, model)):
        obj = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_obj(cls, obj) == cfg


def _json_form(cls, edits):
    """The JSON form of the default `cls` with `edits` applied, or `edits`
    itself when it is not a dict: a dotted name reaches into a nested config,
    and the value MISSING drops the field."""
    if not isinstance(edits, dict):
        return edits
    obj = json.loads(json.dumps(dataclasses.asdict(cls())))
    for path, value in edits.items():
        *outer, name = path.split(".")
        inner = obj
        for key in outer:
            inner = inner[key]
        if value is dataclasses.MISSING:
            del inner[name]
        else:
            inner[name] = value
    return obj


@pytest.mark.parametrize("obj", [
    {"hidden": None},
    {"unknown": 1},
    {"dropout": 2.0},
    {"dropout": None},
    {"hidden": [8, None]},
    {"input_dim": [4, 4]},  # a rule on a number is not one for each entry of a list
    {"arch": []},
    {"vocab_size": float("inf")},
    "not an object",
    # a JSON value of another type than its field's annotation, or no value
    {"input_dim": 2.0},
    {"hidden": [16.0, 16]},
    {"dropout": False},
    {"layers": True},
    {"hidden": dataclasses.MISSING},
])
def test_malformed_checkpointed_config_raises(obj):
    with pytest.raises(CheckpointError, match="malformed ModelConfig"):
        config_from_obj(ModelConfig, _json_form(ModelConfig, obj))


@pytest.mark.parametrize("edits, says", [
    ({"adv.norm": "three"}, "malformed AdvConfig"),
    ({"batch_size": 20.0}, "batch_size is 20.0, not an integer"),
    ({"seed": 0.0}, "seed is 0.0, not an integer"),
    ({"seed": True}, "seed is True, not an integer"),
    ({"seed": 2**64}, f"seed: must be in [0, 18446744073709551616), got {2**64}"),
    ({"reg_weight": True}, "reg_weight is True, not a number"),
    ({"reg_detach_clean": 0}, "reg_detach_clean is 0, not true or false"),
    ({"adv.steps": 1.0}, "malformed AdvConfig: steps is 1.0, not an integer"),
    ({"prox.ema_switch": None}, "malformed ProxConfig: ema_switch is None, not a number"),
    ({"prox": dataclasses.MISSING}, "missing field 'prox'"),
    ({"prox.mode": dataclasses.MISSING}, "malformed ProxConfig: missing field 'mode'"),
])
def test_malformed_checkpointed_train_config_raises(edits, says):
    with pytest.raises(CheckpointError, match=f"malformed TrainConfig: .*{re.escape(says)}"):
        config_from_obj(TrainConfig, _json_form(TrainConfig, edits))
