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

Each tape builder records one node. Its forward runs the float ops of the
elementwise chain (clip, log, sub, mul, a sum or mean, a scale) that once
built the loss, in the chain's order, and its adjoint returns the parts that
chain's backward passed to p and q, in the order it added them, listing a
parent once per part: values and gradients are the chain's, bit for bit. A
dead parent (a constant, as the ascent and teacher targets are) gets no part.
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


def _clamped_log_adjoint(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g passed back through clamped_log(x): divided by the clamped x, then
    zeroed where the clamp did not pass x through."""
    return g / np.clip(x, PROB_CLAMP, 1.0) * ((x >= PROB_CLAMP) & (x <= 1.0))


def _sym_kl_entries(p: np.ndarray, q: np.ndarray):
    """The symmetrized KL's entries (p - q) * (log p - log q), each log taken of
    the clamped value, and the two factors, which its adjoint reads."""
    e = clamped_log(p) - clamped_log(q)  # before d, so both logs are freed first
    d = p - q
    return d * e, d, e


def smooth_loss_rows(task: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-example divergence between two output batches (no simplex re-check)."""
    if task == "classification":
        return row_sum(_sym_kl_entries(p, q)[0])[..., 0]
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
    tape = ad._same_tape(p, q)
    pv, qv = p.value, q.value
    if pv.shape != qv.shape:
        raise ContractViolation(f"divergence: shape mismatch {pv.shape} vs {qv.shape}")
    shape, need_p, need_q = pv.shape, tape.needs(p), tape.needs(q)
    if task == "classification":
        # summed over classes and examples, then scaled by 1 / examples
        entries, d, e = _sym_kl_entries(pv, qv)
        c = 1.0 / shape[-2]

        def vjp(g):
            g = np.broadcast_to((c * g).reshape(shape[:-2] + (1, 1)), shape).copy()
            gd, ge = g * e, g * d
            return (gd if need_p else None, -gd if need_q else None,
                    _clamped_log_adjoint(-ge, qv) if need_q else None,
                    _clamped_log_adjoint(ge, pv) if need_p else None)

        value = c * entries.reshape(shape[:-2] + (-1,)).sum(axis=-1)
        return tape._record(value, (p.index, q.index, q.index, p.index), vjp)
    if task == "regression":
        d = pv - qv
        n = shape[-1]

        def vjp(g):
            t = np.broadcast_to((g / n).reshape(shape[:-1] + (1,)), shape).copy() * d
            t = t + t  # d * d passed one part through each factor
            return (t if need_p else None, -t if need_q else None)

        return tape._record((d * d).mean(axis=-1), (p.index, q.index), vjp)
    raise ContractViolation(f"unknown task {task!r}")


def task_loss_mean_node(task: str, outputs: Var, labels) -> Var:
    """Batch mean task loss, built on the outputs' tape; one mean per run when
    the outputs and labels are stacked."""
    if task != "classification":
        return smooth_loss_mean_node(task, outputs, outputs.tape.const(as_tensor(labels)))
    shape = outputs.value.shape
    labels = check_labels(labels, shape[-1])
    if len(shape) < 2 or labels.shape != shape[:-1]:
        raise ContractViolation(
            f"cross-entropy: expected rows of shape {labels.shape} + (k,), got {shape}")
    where = labels[..., None]
    picked = np.take_along_axis(outputs.value, where, axis=-1)[..., 0]
    rows, n = labels.shape, labels.shape[-1]

    def vjp(g):
        g = np.broadcast_to(((-1.0 * g) / n).reshape(rows[:-1] + (1,)), rows).copy()
        out = np.zeros(shape)
        np.put_along_axis(out, where, _clamped_log_adjoint(g, picked)[..., None], axis=-1)
        return (out,)

    return outputs.tape._record(-1.0 * clamped_log(picked).mean(axis=-1), (outputs.index,), vjp)
