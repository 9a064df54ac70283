"""Exception types shared across the package, and the rules of config values:
a config dataclass field with a valid range carries it (`checked`), and
`check_fields` tests every field of a config against its rule and against its
rule across fields, if it has one."""

import dataclasses
import math


class ContractViolation(ValueError):
    """An operation was called in a way its contract forbids (shape mismatch, wrong tape, ...)."""


class InputError(ValueError):
    """User-supplied data is invalid (bad label, out-of-range token id, malformed record, ...)."""


class CheckpointError(ValueError):
    """A checkpoint file could not be loaded (bad version, truncated, corrupt)."""


class ConfigError(ValueError):
    """A run configuration is invalid; message lists every offending key."""


def checked(rule, default=dataclasses.MISSING):
    """A dataclass field whose value must meet `rule`: a tuple of the allowed
    choices, a bound such as ">= 0" or an interval such as "[0, 1)". A rule
    in a list, as in [">= 1"], applies to every entry of a tuple or list."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def _meets(rule, value) -> bool:
    if isinstance(value, float) and not math.isfinite(value):
        return False
    if rule is None:
        return True
    if isinstance(rule, tuple):
        return value in rule
    if rule[0] in "[(":
        low, high = (float(end) for end in rule[1:-1].split(","))
        return ((low <= value if rule[0] == "[" else low < value)
                and (value <= high if rule[-1] == "]" else value < high))
    op, bound = rule.split()
    return value >= float(bound) if op == ">=" else value > float(bound)


def _wanted(rule, value) -> str:
    if isinstance(rule, tuple):
        return ", ".join(map(repr, rule[:-1])) + f" or {rule[-1]!r}"
    if rule is None or rule[0] in "[(":
        return "finite" if rule is None else f"in {rule}"
    return f"finite and {rule}" if isinstance(value, float) else rule


def rule_error(rule, value) -> str | None:
    """What is wrong with `value` under `rule` (a field's `checked` rule, or
    None for none), or None when nothing is. Floats must also be finite."""
    entries = isinstance(rule, list)
    rule = rule[0] if entries else rule
    bad = [v for v in (value if entries else [value]) if not _meets(rule, v)]
    if not bad:
        return None
    shown = ",".join(repr(v) if isinstance(v, str) else str(v) for v in bad)
    return f"{'every entry ' if entries else ''}must be {_wanted(rule, bad[0])}, got {shown}"


def check_fields(config) -> None:
    """Refuse a config dataclass with any field that breaks its rule, or its
    rule across fields (metadata "across": the config -> what is wrong with
    this field, or a false value), naming every bad field."""
    bad = [f"{f.name}: {error}" for f in dataclasses.fields(config)
           if (error := rule_error(f.metadata.get("rule"), getattr(config, f.name))
               or "across" in f.metadata and f.metadata["across"](config))]
    if bad:
        raise ContractViolation("; ".join(bad))
