"""ADAM with global-norm gradient clipping, the warmup/linear-decay schedule,
the trust-region settings, and the EMA teacher.

Norms and clipping take the block views of a stack's flat gradients, each
with a leading run axis: every run is normed and clipped on its own, with the
block sums added in block order, and a run over the bound is scaled in place.
ADAM and the EMA are elementwise, so they work on one flat array per stack
(`model.flatten_params`), in place, with the float ops of the out-of-place
formulas in the same order; every run of a stack is updated exactly as it
would be alone."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, check_fields, checked

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Flat moments and step count; `work` holds adam_step's temporaries."""

    def __init__(self, m: np.ndarray, v: np.ndarray, t: int = 0):
        self.m, self.v, self.t = m, v, t
        self.work = (np.empty(m.shape), np.empty(m.shape))


def init_adam(params: np.ndarray) -> AdamState:
    return AdamState(np.zeros_like(params), np.zeros_like(params))


def global_grad_norm(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """One L2 norm per run over all blocks, whose leading axis is the run
    (block sums added in block order)."""
    total = 0.0
    for g in blocks:
        total = total + (g * g).reshape(len(g), -1).sum(axis=-1)
    return np.sqrt(total)


def clip_gradients(blocks: Sequence[np.ndarray], max_norm: float, norms: np.ndarray) -> None:
    """Scale in place the blocks of each run whose norm (global_grad_norm's)
    is over max_norm, so that it is max_norm; runs inside are not written."""
    if max_norm <= 0:
        raise ContractViolation("max_norm must be > 0")
    for i in np.flatnonzero(norms > max_norm):
        scale = max_norm / norms[i]
        for g in blocks:
            g[i] *= scale


def lr_at(step: int, total_steps: int, peak: float, warmup_fraction: float) -> float:
    """Linear 0 -> peak over the first warmup_fraction of steps, then linear
    peak -> 0 over the rest. lr(0) = lr(total_steps) = 0."""
    if not 0 <= step <= total_steps:
        raise ContractViolation(f"step {step} outside [0, {total_steps}]")
    if not 0 < warmup_fraction < 1:
        raise ContractViolation("warmup_fraction must lie in (0, 1)")
    w = warmup_fraction * total_steps
    if step <= w:
        return peak * step / w
    return peak * (total_steps - step) / (total_steps - w)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """One bias-corrected ADAM update of the flat `params`, in place; advances
    the state and never writes `grads`."""
    if not params.shape == grads.shape == state.m.shape:
        raise ContractViolation(f"adam_step: params {params.shape}, grads {grads.shape}, "
                                f"moments {state.m.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    m, v, (a, b) = state.m, state.v, state.work
    # m <- beta1 m + (1 - beta1) g and v <- beta2 v + (1 - beta2) g^2
    np.add(np.multiply(m, ADAM_BETA1, out=m), np.multiply(grads, 1.0 - ADAM_BETA1, out=a), out=m)
    np.multiply(np.multiply(grads, grads, out=a), 1.0 - ADAM_BETA2, out=a)
    np.add(np.multiply(v, ADAM_BETA2, out=v), a, out=v)
    # step = lr * (m / c1) / (sqrt(v / c2) + eps), in a
    np.multiply(np.divide(m, c1, out=a), lr, out=a)
    a /= np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b)
    np.subtract(params, a, out=params)


# ---------------------------------------------------------------------------
# Trust region and EMA teacher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProxConfig:
    prox_weight: float = checked(">= 0", 1.0)  # trust-region strength; 0 turns it off
    # "mbpp" (EMA teacher) | "vbpp" (previous iterate)
    mode: str = checked(("mbpp", "vbpp"), "mbpp")
    ema_early: float = checked("[0, 1)", 0.99)
    ema_late: float = checked("[0, 1)", 0.999)
    ema_switch: float = 0.1    # fraction of outer steps run at ema_early

    __post_init__ = check_fields


def teacher_update(teacher: np.ndarray, current: np.ndarray, beta: float) -> None:
    """(1 - beta) * current + beta * teacher, written into the flat teacher."""
    if not 0 <= beta < 1:
        raise ContractViolation(f"beta must lie in [0, 1), got {beta}")
    if current.shape != teacher.shape:
        raise ContractViolation(f"teacher_update: shape {current.shape} vs {teacher.shape}")
    # the current term first, so a teacher sharing memory with `current` blends right
    np.add(np.multiply(current, 1.0 - beta), np.multiply(teacher, beta, out=teacher), out=teacher)


def beta_at(outer_step: int, total: int, cfg: ProxConfig) -> float:
    """Teacher momentum for outer step t in 1..total; early value up to and
    including the switch boundary. vbpp pins the teacher to the previous
    iterate, which is the beta = 0 special case."""
    if not 1 <= outer_step <= total:
        raise ContractViolation(f"outer step {outer_step} outside [1, {total}]")
    if cfg.mode == "vbpp":
        return 0.0
    return cfg.ema_early if outer_step <= cfg.ema_switch * total else cfg.ema_late
