"""Task losses and output-divergence losses, as tape nodes and per-example rows.

Each task of `ModelConfig.task` has one task loss and one divergence, which
SMART's smoothness term and trust region share (a regression model's task
loss and mean squared error are its divergence from the labels); any other
task is refused:

    classification   cross-entropy   symmetrized KL, sum_j (p_j - q_j)(log p_j - log q_j)
    regression       squared error   squared difference (p - q)^2

Probabilities are clamped to [1e-12, 1] before every logarithm; the clamp sits
far below any probability shift the regularizer can produce, so it only guards
log(0). Batch losses are arithmetic means, which keeps the regularizer weight
comparable across batch sizes. The tape builders take a batch with or without a
leading stack axis; with one, they give each run's own mean.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ContractViolation, InputError
from .tensor import as_tensor, row_sum

PROB_CLAMP = 1e-12


def clamped_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.clip(x, PROB_CLAMP, 1.0))


def smooth_loss_rows(task: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-example divergence between two output batches (no simplex re-check)."""
    if task == "classification":
        diff = clamped_log(p) - clamped_log(q)
        return row_sum((p - q) * diff)[..., 0]
    if task == "regression":
        return (p - q) ** 2
    raise ContractViolation(f"unknown task {task!r}")


def check_labels(labels, k: int) -> np.ndarray:
    """Class labels as an array, refused unless they are integers in [0, k)."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError("classification labels must be integers")
    if labels.size and not 0 <= labels.min() <= labels.max() < k:
        raise InputError(f"class label out of range [0, {k}): min {labels.min()}, max {labels.max()}")
    return labels


# ---------------------------------------------------------------------------
# Tape builders (batch means, differentiable)
# ---------------------------------------------------------------------------

def smooth_loss_mean_node(task: str, p: Var, q: Var) -> Var:
    """Batch mean of the per-example divergence, built on p/q's tape; one mean
    per run when p and q are stacked."""
    if task == "classification":
        # (p - q) * (log p - log q) summed over classes equals the symmetrized KL
        lp = ad.log(ad.clip(p, PROB_CLAMP, 1.0))
        lq = ad.log(ad.clip(q, PROB_CLAMP, 1.0))
        per_entry = ad.mul(ad.sub(p, q), ad.sub(lp, lq))
        return ad.cmul(ad.sum_all(per_entry, p.value.ndim - 2), 1.0 / p.value.shape[-2])
    if task == "regression":
        d = ad.sub(p, q)
        return ad.mean_all(ad.mul(d, d), p.value.ndim - 1)
    raise ContractViolation(f"unknown task {task!r}")


def task_loss_mean_node(task: str, outputs: Var, labels) -> Var:
    """Batch mean task loss, built on the outputs' tape; one mean per run when
    the outputs and labels are stacked."""
    if task == "classification":
        labels = check_labels(labels, outputs.value.shape[-1])
        picked = ad.clip(ad.pick(outputs, labels), PROB_CLAMP, 1.0)
        return ad.cmul(ad.mean_all(ad.log(picked), np.ndim(labels) - 1), -1.0)
    return smooth_loss_mean_node(task, outputs, outputs.tape.const(as_tensor(labels)))
