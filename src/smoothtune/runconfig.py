"""Run configuration: sectioned key=value files, flag overrides, validation.

A run's effective (merged) config is archived into its output directory before
any work starts, so every output file is reproducible from what was recorded.
Validation collects every offending key before failing. Each value's type and
default live on its dataclass field; `CONFIG_KEYS` says which key sets which field.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import typing
from dataclasses import dataclass, field

from .adversarial import AdvConfig
from .errors import ConfigError
from .model import ModelConfig
from .optimizer import ProxConfig
from .trainer import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    method: str                      # "smooth" | "vanilla"
    train_path: str
    out_dir: str
    test_path: str | None = None
    eval_every: int = 0
    checkpoint_every: int = 0
    probe_eps: float | None = None   # defaults to the adversarial eps
    probe_samples: int = 64
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

_SWEEP_KEYS = {"methods": list[str], "reg_weights": list[float], "prox_weights": list[float],
               "fractions": list[float], "seeds": list[int]}

_METHODS = ("smooth", "vanilla")
_FINITE_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
# [sweep] lists whose every entry must pass a range check: (test, what it requires)
_SWEEP_RANGES = {
    "methods": (lambda v: v in _METHODS, "'smooth' or 'vanilla'"),
    "reg_weights": _FINITE_NON_NEGATIVE,
    "prox_weights": _FINITE_NON_NEGATIVE,
    "fractions": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
}
# [run] values checked the same way, so a bad one fails before any output exists
_RUN_RANGES = {
    "eval_every": _NON_NEGATIVE,
    "checkpoint_every": _NON_NEGATIVE,
    "probe_samples": (lambda v: v >= 1, ">= 1"),
    "probe_eps": _FINITE_NON_NEGATIVE,
}

_REQUIRED = {("smart", "method"), ("smart", "outer_steps"), ("data", "train"),
             ("run", "seed"), ("run", "out")}

_HINTS = {cls: typing.get_type_hints(cls)
          for cls in (ModelConfig, AdvConfig, ProxConfig, TrainConfig, RunConfig)}
_TYPES = {(section, key): _HINTS[cls][name] for section, key, cls, name in CONFIG_KEYS}
_TYPES.update({("sweep", key): kind for key, kind in _SWEEP_KEYS.items()})
_SECTIONS = {section for section, _ in _TYPES}


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
    parser = configparser.ConfigParser(default_section="")  # no header is empty: none is special
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
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
    unparsed: list[str] = []            # reported after every unknown key
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"[{section}]: unknown section")
            continue
        for key, text in parser.items(section):
            if (section, key) not in _TYPES:
                errors.append(f"[{section}].{key}: unknown key")
                continue
            given.add((section, key))
            try:
                values[section, key] = _parse_value(_TYPES[section, key], text)
            except ValueError:
                unparsed.append(f"[{section}].{key}: cannot parse {text!r}")
    errors += unparsed
    errors += [f"[{section}].{key}: missing required key"
               for section, key in sorted(_REQUIRED) if (section, key) not in given]
    sweep = {key: value for (section, key), value in values.items() if section == "sweep"}
    if require_sweep and not sweep:
        errors.append("[sweep]: section required for sweep runs")
    method = values.get(("smart", "method"))
    if method is not None and method not in _METHODS:
        errors.append(f"[smart].method: must be 'smooth' or 'vanilla', got {method!r}")
    errors += [f"[sweep].{key}: must list at least one value"
               for key, vals in sweep.items() if not vals]
    for key, (ok, wanted) in _SWEEP_RANGES.items():
        bad = [v for v in sweep.get(key, ()) if not ok(v)]
        if bad:
            errors.append(f"[sweep].{key}: every entry must be {wanted}, got {_format(bad)}")
    errors += [f"[run].{key}: must be {wanted}, got {_format(values['run', key])}"
               for key, (ok, wanted) in _RUN_RANGES.items()
               if ("run", key) in values and not ok(values["run", key])]
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
    parser = configparser.ConfigParser()
    parser.read_dict(items)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
