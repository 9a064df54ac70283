"""Task losses, output-divergence losses, and KL machinery.

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

TASK_KINDS = ("cross_entropy", "squared_error")
SMOOTH_KINDS = ("symmetrized_kl", "squared")


def task_kind_for(task: str) -> str:
    return "cross_entropy" if task == "classification" else "squared_error"


def smooth_kind_for(task: str) -> str:
    return "symmetrized_kl" if task == "classification" else "squared"


def _check_simplex(p: np.ndarray, name: str) -> None:
    sums = np.sum(p, axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(p < -1e-12):
        raise ContractViolation(f"{name} is not on the probability simplex")


def _clamped_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.clip(x, PROB_CLAMP, 1.0))


def kl(p, q) -> float:
    """D_KL(p || q) for simplex rows, with 0*log(0/q) treated as 0."""
    p, q = as_tensor(p), as_tensor(q)
    _check_simplex(p, "p")
    _check_simplex(q, "q")
    return float(np.sum(p * (_clamped_log(p) - _clamped_log(q))))


def sym_kl(p, q) -> float:
    """D_KL(p || q) + D_KL(q || p)."""
    return kl(p, q) + kl(q, p)


def squared_smooth(p: float, q: float) -> float:
    return float((p - q) ** 2)


def smooth_loss_rows(kind: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-example divergence between two output batches (no simplex re-check)."""
    if kind == "symmetrized_kl":
        diff = _clamped_log(p) - _clamped_log(q)
        return row_sum((p - q) * diff)[..., 0]
    if kind == "squared":
        return (p - q) ** 2
    raise ContractViolation(f"unknown smooth loss kind {kind!r}")


def task_loss(kind: str, output, label) -> float:
    """Loss for a single example."""
    if kind == "cross_entropy":
        output = as_tensor(output)
        label = int(label)
        if not 0 <= label < output.shape[-1]:
            raise InputError(f"label {label} out of range for {output.shape[-1]} classes")
        return float(-_clamped_log(output[..., label]))
    if kind == "squared_error":
        return float((float(output) - float(label)) ** 2)
    raise ContractViolation(f"unknown task loss kind {kind!r}")


def batch_task_loss(kind: str, outputs: np.ndarray, labels: np.ndarray) -> float:
    """Arithmetic mean of per-example task losses."""
    if kind == "cross_entropy":
        labels = _check_labels(labels, outputs.shape[-1])
        picked = outputs[np.arange(outputs.shape[0]), labels]
        return float(-np.mean(_clamped_log(picked)))
    if kind == "squared_error":
        return float(np.mean((outputs - as_tensor(labels)) ** 2))
    raise ContractViolation(f"unknown task loss kind {kind!r}")


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
