"""Exception types shared across the package, and the finiteness check every
config dataclass runs."""

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


def check_finite_fields(config) -> None:
    """Refuse a config dataclass with a NaN or infinite number in any field:
    range checks written as comparisons let NaN through."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractViolation(f"{f.name} must be finite, got {value}")
