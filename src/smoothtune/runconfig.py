"""Run configuration: sectioned key=value files, flag overrides, validation.

A run's effective (merged) config is archived into its output directory before
any work starts, so every output file is reproducible from what was recorded.
Each value's type, default and rule (`errors.checked`) live on its dataclass
field, and `CONFIG_KEYS` says which key sets which field; each [sweep] list
takes its entries' type and rule from the key it sweeps. Validation names
every bad `[section].key` before any config dataclass is built.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import typing
from dataclasses import dataclass, field

from .adversarial import AdvConfig
from .errors import ConfigError, checked, rule_error
from .model import ModelConfig
from .optimizer import ProxConfig
from .trainer import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    method: str = checked(("smooth", "vanilla"))
    train_path: str
    out_dir: str
    test_path: str | None = None
    eval_every: int = checked(">= 0", 0)
    checkpoint_every: int = checked(">= 0", 0)
    probe_eps: float | None = checked(">= 0", None)  # defaults to the adversarial eps
    probe_samples: int = checked(">= 1", 64)
    sweep: dict = field(default_factory=dict)


# (section, key, dataclass, field) in archive order; `key=field` where the names differ
CONFIG_KEYS = [(section, token.split("=")[0], cls, token.split("=")[-1]) for section, cls, keys in (
    ("model", ModelConfig, " ".join(f.name for f in dataclasses.fields(ModelConfig))),
    ("smart", RunConfig, "method"),
    ("smart", TrainConfig, "reg_weight"),
    ("smart", AdvConfig, "eps noise_std step_size adv_steps=steps norm"),
    ("smart", ProxConfig, "prox_mode=mode prox_weight ema_early ema_late ema_switch"),
    ("smart", TrainConfig, "inner_steps outer_steps batch_size peak_lr warmup_frac clip_norm "
                           "detach_clean=reg_detach_clean"),
    ("data", RunConfig, "train=train_path test=test_path"),
    ("run", TrainConfig, "seed"),
    ("run", RunConfig, "out=out_dir eval_every checkpoint_every probe_samples probe_eps"),
) for token in keys.split()]

# each [sweep] list but `fractions` sweeps one key, and its entries take that key's type and rule
_SWEEP_KEYS = {"methods": ("smart", "method"), "reg_weights": ("smart", "reg_weight"),
               "prox_weights": ("smart", "prox_weight"), "seeds": ("run", "seed")}

_REQUIRED = {("smart", "method"), ("smart", "outer_steps"), ("data", "train"),
             ("run", "seed"), ("run", "out")}

_HINTS = {cls: typing.get_type_hints(cls)
          for cls in (ModelConfig, AdvConfig, ProxConfig, TrainConfig, RunConfig)}
_RULES = {(cls, f.name): f.metadata.get("rule") for cls in _HINTS for f in dataclasses.fields(cls)}
# (section, key) -> (type, rule) of its value
_SCHEMA = {(section, key): (_HINTS[cls][name], _RULES[cls, name])
           for section, key, cls, name in CONFIG_KEYS}
_SCHEMA.update({("sweep", key): (list[_SCHEMA[swept][0]], [_SCHEMA[swept][1]])
                for key, swept in _SWEEP_KEYS.items()})
_SCHEMA["sweep", "fractions"] = (list[float], ["(0, 1]"])
_SECTIONS = {section for section, _ in _SCHEMA}


def _parse_value(kind, text: str):
    args = typing.get_args(kind)
    if type(None) in args:           # `X | None` parses as X
        return _parse_value(args[0], text)
    if kind is bool:                 # index() raises ValueError for any other word
        return ("false", "0", "no", "true", "1", "yes").index(text.strip().lower()) >= 3
    container = typing.get_origin(kind)
    if container in (list, tuple):
        return container(args[0](t.strip()) for t in text.split(",") if t.strip())
    return kind(text)


def parse_config(path: str | None, overrides: list[str] | None = None,
                 require_sweep: bool = False) -> RunConfig:
    """Read [model]/[smart]/[data]/[run] (and [sweep]) sections, apply
    section.key=value overrides, validate everything at once."""
    # no header is empty, so none is special; a `%` is a literal
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            reason = " ".join(line.strip() for line in str(exc).splitlines())
            raise ConfigError(f"cannot read config {path}: {reason}") from exc
    errors: list[str] = []
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            errors.append(f"override {ov!r} is not section.key=value")
            continue
        target, value = ov.split("=", 1)
        section, key = (part.strip() for part in target.split(".", 1))
        if not section:  # configparser would give the key to every section
            errors.append("[]: unknown section")
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())

    values: dict[tuple[str, str], object] = {}
    given: set[tuple[str, str]] = set()  # known keys, parsed or not
    bad_values: list[str] = []          # reported after every unknown key
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"[{section}]: unknown section")
            continue
        for key, text in parser.items(section):
            if (section, key) not in _SCHEMA:
                errors.append(f"[{section}].{key}: unknown key")
                continue
            given.add((section, key))
            kind, rule = _SCHEMA[section, key]
            try:
                value = values[section, key] = _parse_value(kind, text)
                error = ("must list at least one value" if section == "sweep" and not value
                         else rule_error(rule, value))
            except ValueError:
                error = f"cannot parse {text!r}"
            if error:
                bad_values.append(f"[{section}].{key}: {error}")
    errors += bad_values
    errors += [f"[{section}].{key}: missing required key"
               for section, key in sorted(_REQUIRED) if (section, key) not in given]
    sweep = {key: value for (section, key), value in values.items() if section == "sweep"}
    if require_sweep and not sweep:
        errors.append("[sweep]: section required for sweep runs")
    if errors:
        raise ConfigError("; ".join(errors))

    kwargs: dict[type, dict] = {cls: {} for cls in _HINTS}
    for section, key, cls, name in CONFIG_KEYS:
        if (section, key) in values:
            kwargs[cls][name] = values[section, key]
    try:
        model = ModelConfig(**kwargs[ModelConfig])
        train = TrainConfig(adv=AdvConfig(**kwargs[AdvConfig]),
                            prox=ProxConfig(**kwargs[ProxConfig]), **kwargs[TrainConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(model=model, train=train, sweep=sweep, **kwargs[RunConfig])


def _format(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def config_values(cfg: RunConfig) -> dict[tuple[str, str], object]:
    """(section, key) -> the value of the field each key sets, in archive order."""
    owners = {ModelConfig: cfg.model, AdvConfig: cfg.train.adv, ProxConfig: cfg.train.prox,
              TrainConfig: cfg.train, RunConfig: cfg}
    return {(section, key): getattr(owners[cls], name) for section, key, cls, name in CONFIG_KEYS}


def effective_config_text(cfg: RunConfig) -> str:
    """The merged config as a sectioned key=value document; None values are left out."""
    items: dict[str, dict[str, str]] = {}
    for (section, key), value in config_values(cfg).items():
        if value is not None:
            items.setdefault(section, {})[key] = _format(value)
    if cfg.sweep:
        items["sweep"] = {key: _format(vals) for key, vals in cfg.sweep.items()}
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(items)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
