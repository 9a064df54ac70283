"""Worst-case input search: noisy initialization plus projected gradient ascent
on the output divergence, confined to an eps-ball around each embedding.

The inner search treats parameters as constants; the outer objective treats the
returned points as constants (no differentiation through the search), so no
second-order machinery is ever needed. The search and the smoothness term
take a stack of S runs (unstacked params are a stack of one) and count every
pass they make; each run draws its noise from its own stream, all of them in
one grid draw.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import model as mdl
from .autodiff import Tape
from .errors import check_fields, checked
from .losses import smooth_loss_mean_node
from .tensor import Rng, gaussian_stack


@dataclass(frozen=True)
class AdvConfig:
    eps: float = checked(">= 0", 1e-5)        # ball radius
    noise_std: float = checked(">= 0", 1e-5)  # std of the random start offset
    step_size: float = checked("> 0", 1e-3)   # ascent step per iteration
    steps: int = checked(">= 0", 1)           # ascent iterations
    norm: str = checked(("inf", "two"), "inf")

    def __post_init__(self):
        check_fields(self)
        if self.noise_std > self.eps:
            warnings.warn(
                f"noise_std {self.noise_std} exceeds eps {self.eps}; "
                "any value up to eps behaves well",
                stacklevel=2,
            )


@dataclass(slots=True)
class PassCounters:
    """Monotone counts of whole-batch model passes."""

    forwards: int = 0
    backwards: int = 0


def rows_norm(d: np.ndarray, norm: str, examples: int) -> np.ndarray:
    """Per-example norm over the axes after the first `examples` (the batch
    axis, after a stack axis when there is one), shaped for broadcasting."""
    rows = d.shape[:examples]
    flat = np.abs(d).reshape(rows + (-1,))
    n = np.max(flat, axis=-1) if norm == "inf" else np.sqrt(np.sum(flat * flat, axis=-1))
    return n.reshape(rows + (1,) * (d.ndim - examples))


def _normalize_rows(grad: np.ndarray, norm: str, examples: int) -> np.ndarray:
    n = rows_norm(grad, norm, examples)
    return np.divide(grad, n, out=np.zeros_like(grad), where=n > 0)


def _project_rows(x_tilde: np.ndarray, x: np.ndarray, eps: float, norm: str,
                  examples: int) -> np.ndarray:
    if norm == "inf":
        return np.clip(x_tilde, x - eps, x + eps)
    d = x_tilde - x
    n = rows_norm(d, "two", examples)
    scale = np.where(n > eps, np.divide(eps, n, out=np.ones_like(n), where=n > 0), 1.0)
    return x + d * scale


def find_adversarial(
    model_cfg: mdl.ModelConfig,
    params: mdl.ModelParams,
    batch_embeddings: np.ndarray,
    clean_outputs: np.ndarray,
    cfg: AdvConfig,
    rngs: Sequence[Rng],
    masks: list[np.ndarray] | None,
    counters: PassCounters,
) -> np.ndarray:
    """Per-example worst-case points within the eps-ball around each embedding.

    Starts from x + noise, then takes `cfg.steps` normalized gradient-ascent
    steps on the divergence from the (cached) clean outputs, projecting back
    onto the ball after every step. Gradients are per example: each point
    climbs toward its own worst case. `rngs` holds one rng per run.
    """
    x = batch_embeddings
    examples = 1 + mdl.stack_axes(model_cfg, params)
    noise = gaussian_stack(rngs, x.shape[examples - 1:], cfg.noise_std).reshape(x.shape)
    x_adv = _project_rows(x + noise, x, cfg.eps, cfg.norm, examples)
    for _ in range(cfg.steps):
        tape = Tape()
        pvars = mdl.leaf_params(tape, params, requires_grad=False)
        x_var = tape.leaf(x_adv, requires_grad=True)
        out = mdl.build_head(model_cfg, pvars, x_var, masks)
        loss = smooth_loss_mean_node(model_cfg.task, out, tape.const(clean_outputs))
        counters.forwards += 1
        counters.backwards += 1
        grad = tape.backward(loss)[x_var]
        x_adv = _project_rows(x_adv + cfg.step_size * _normalize_rows(grad, cfg.norm, examples),
                              x, cfg.eps, cfg.norm, examples)
    return x_adv


def build_smoothness_term(
    tape: Tape,
    model_cfg: mdl.ModelConfig,
    pvars: dict,
    clean_outputs_var,
    adversarial_points: np.ndarray,
    masks: list[np.ndarray] | None,
    counters: PassCounters,
):
    """Batch-mean divergence between outputs at fixed adversarial points and the
    clean outputs, on an existing tape. Parameter gradients flow through both
    branches; the points themselves enter as constants."""
    counters.forwards += 1
    perturbed = mdl.build_head(model_cfg, pvars, tape.const(adversarial_points), masks)
    return smooth_loss_mean_node(model_cfg.task, perturbed, clean_outputs_var)
