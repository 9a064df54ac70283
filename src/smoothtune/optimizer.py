"""ADAM with global-norm gradient clipping, the warmup/linear-decay schedule,
the trust-region settings, and the EMA teacher.

Norms and clipping take the per-block gradients and a `lead` count of stack
axes: stacked runs are normed and clipped each on its own, with the block sums
added in block order. ADAM and the EMA are elementwise, so they work on one
flat array per stack (`model.flatten_params`), in place, with the float ops of
the out-of-place formulas in the same order; every run of a stack is updated
exactly as it would be alone."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, check_finite_fields

GradientMap = dict[str, np.ndarray]

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


def global_grad_norm(grads: GradientMap, lead: int = 0):
    """L2 norm over the concatenation of all blocks: a float, or with `lead`
    stack axes an array of one norm per run (block sums added in block order)."""
    total = 0.0
    for g in grads.values():
        total = total + (g * g).reshape(g.shape[:lead] + (-1,)).sum(axis=-1)
    norm = np.sqrt(total)
    return float(norm) if lead == 0 else norm


def clip_gradients(grads: GradientMap, max_norm: float, lead: int = 0,
                   norm=None) -> GradientMap:
    """Scale all blocks together so the global L2 norm is at most max_norm;
    with `lead` stack axes, each run on its own. `norm` is global_grad_norm's
    value when the caller has it already."""
    if max_norm <= 0:
        raise ContractViolation("max_norm must be > 0")
    norm = np.asarray(global_grad_norm(grads, lead) if norm is None else norm)
    inside = norm <= max_norm
    if inside.all():
        return grads
    # exactly 1.0 for a run inside the bound, which leaves its gradients as they are
    scale = np.divide(max_norm, norm, out=np.ones_like(norm), where=~inside)
    return {name: g * scale.reshape(scale.shape + (1,) * (g.ndim - lead))
            for name, g in grads.items()}


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
    prox_weight: float = 1.0   # trust-region strength; ignored when mode is "off"
    mode: str = "mbpp"         # "mbpp" (EMA teacher) | "vbpp" (previous iterate) | "off"
    ema_early: float = 0.99
    ema_late: float = 0.999
    ema_switch: float = 0.1    # fraction of outer steps run at ema_early

    def __post_init__(self):
        check_finite_fields(self)
        if self.mode not in ("mbpp", "vbpp", "off"):
            raise ContractViolation(f"mode must be mbpp/vbpp/off, got {self.mode!r}")
        if self.prox_weight < 0:
            raise ContractViolation("prox_weight must be >= 0")
        if not (0 <= self.ema_early < 1 and 0 <= self.ema_late < 1):
            raise ContractViolation("ema_early and ema_late must lie in [0, 1)")

    @property
    def effective_weight(self) -> float:
        return 0.0 if self.mode == "off" else self.prox_weight


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
