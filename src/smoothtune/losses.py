"""Task losses and output-divergence losses, as tape nodes and per-example rows.

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

def task_kind_for(task: str) -> str:
    return "cross_entropy" if task == "classification" else "squared_error"


def smooth_kind_for(task: str) -> str:
    return "symmetrized_kl" if task == "classification" else "squared"


def _clamped_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.clip(x, PROB_CLAMP, 1.0))


def smooth_loss_rows(kind: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-example divergence between two output batches (no simplex re-check)."""
    if kind == "symmetrized_kl":
        diff = _clamped_log(p) - _clamped_log(q)
        return row_sum((p - q) * diff)[..., 0]
    if kind == "squared":
        return (p - q) ** 2
    raise ContractViolation(f"unknown smooth loss kind {kind!r}")


def _check_labels(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError("classification labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InputError(f"label out of range [0, {k})")
    return labels


# ---------------------------------------------------------------------------
# Tape builders (batch means, differentiable)
# ---------------------------------------------------------------------------

def smooth_loss_mean_node(kind: str, p: Var, q: Var) -> Var:
    """Batch mean of the per-example divergence, built on p/q's tape; one mean
    per run when p and q are stacked."""
    if kind == "symmetrized_kl":
        # (p - q) * (log p - log q) summed over classes equals the symmetrized KL
        lp = ad.log(ad.clip(p, PROB_CLAMP, 1.0))
        lq = ad.log(ad.clip(q, PROB_CLAMP, 1.0))
        per_entry = ad.mul(ad.sub(p, q), ad.sub(lp, lq))
        return ad.cmul(ad.sum_all(per_entry, p.value.ndim - 2), 1.0 / p.value.shape[-2])
    if kind == "squared":
        d = ad.sub(p, q)
        return ad.mean_all(ad.mul(d, d), p.value.ndim - 1)
    raise ContractViolation(f"unknown smooth loss kind {kind!r}")


def task_loss_mean_node(kind: str, outputs: Var, labels) -> Var:
    """Batch mean task loss, built on the outputs' tape; one mean per run when
    the outputs and labels are stacked."""
    lead = np.ndim(labels) - 1
    if kind == "cross_entropy":
        labels = _check_labels(labels, outputs.value.shape[-1])
        picked = ad.clip(ad.pick(outputs, labels), PROB_CLAMP, 1.0)
        return ad.cmul(ad.mean_all(ad.log(picked), lead), -1.0)
    if kind == "squared_error":
        d = ad.sub(outputs, outputs.tape.const(as_tensor(labels)))
        return ad.mean_all(ad.mul(d, d), lead)
    raise ContractViolation(f"unknown task loss kind {kind!r}")
