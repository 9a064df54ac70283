"""Evaluation metrics and the local-smoothness probes behind the boundary plots."""

from __future__ import annotations

import numpy as np

from . import model as mdl
from .data import Dataset
from .errors import ContractViolation, InputError
from .losses import clamped_log, smooth_loss_rows
from .tensor import Rng


def _finite(value, what: str) -> float:
    if not np.isfinite(value):
        raise ContractViolation(f"non-finite {what}: {value}")
    return float(value)


@np.errstate(over="ignore", invalid="ignore")
def _outputs(model_cfg: mdl.ModelConfig, params: mdl.ModelParams, inputs) -> np.ndarray:
    """One `model.forward` of `inputs`, refused where an output is not finite."""
    if not np.isfinite(outputs := mdl.forward(model_cfg, params, inputs)).all():
        raise ContractViolation("non-finite model outputs")
    return outputs


def accuracy(model_cfg: mdl.ModelConfig, params: mdl.ModelParams, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties break toward the lowest class."""
    if model_cfg.task != "classification" or dataset.task != "classification":
        raise InputError("accuracy needs a classification model and dataset")
    return _task_metric(model_cfg, _outputs(model_cfg, params, dataset.inputs), dataset)


def task_metric(model_cfg: mdl.ModelConfig, params: mdl.ModelParams, dataset: Dataset) -> float:
    """`accuracy` for a classification model, the mean squared error for regression."""
    if model_cfg.task == "classification":
        return accuracy(model_cfg, params, dataset)
    if dataset.task != "regression":
        raise InputError(f"a regression model needs a dataset of its task, got {dataset.task!r}")
    return _task_metric(model_cfg, _outputs(model_cfg, params, dataset.inputs), dataset)


@np.errstate(over="ignore", invalid="ignore")
def _task_metric(model_cfg: mdl.ModelConfig, outputs: np.ndarray, dataset: Dataset) -> float:
    """Accuracy of probability rows (ties break toward the lowest class), or
    the mean squared error of predictions, against the dataset's labels."""
    hits_or_errors = (np.argmax(outputs, axis=1) == dataset.labels
                      if model_cfg.task == "classification"
                      else smooth_loss_rows(model_cfg.task, outputs, dataset.labels))
    return _finite(np.mean(hits_or_errors), "task metric")


def agreement_cross_entropy(model_cfg: mdl.ModelConfig, params: mdl.ModelParams,
                            dataset: Dataset) -> float:
    """Mean cross-entropy between annotation distributions and model outputs:
    -(1/n) sum_i sum_j p_j(x_i) log f_j(x_i), with the usual probability clamp.

    Bounded below by the mean soft-label entropy, with equality exactly when
    the model reproduces the annotation distribution.
    """
    if dataset.soft_labels is None:
        raise InputError("agreement_cross_entropy needs soft labels")
    probs = _outputs(model_cfg, params, dataset.inputs)
    if probs.shape[1] != dataset.soft_labels.shape[1]:
        raise InputError(
            f"model outputs {probs.shape[1]} classes but soft labels have "
            f"{dataset.soft_labels.shape[1]}"
        )
    return float(-np.mean(np.sum(dataset.soft_labels * clamped_log(probs), axis=1)))


@np.errstate(over="ignore", invalid="ignore")
def local_smoothness_probe(
    model_cfg: mdl.ModelConfig,
    params: mdl.ModelParams,
    dataset: Dataset,
    eps: float,
    samples_per_point: int,
    seed: int,
    with_metric: bool = False,
) -> float | tuple[float, float]:
    """Mean over examples of the worst divergence seen among uniform samples in
    the L-inf eps-ball around each embedding, and with `with_metric` the value
    of `task_metric`, read off the clean outputs; a non-finite one is refused.

    Sample offsets are unit-cube draws scaled by eps, so growing eps with the
    same seed pushes the same sample directions outward. The clean forward and
    every sample forward write a blocked body into one feature array, so a
    probe maps one full-height array, not one per forward.
    """
    if not (0 <= eps < np.inf and samples_per_point >= 1):
        raise InputError(f"need a finite eps >= 0 and samples_per_point >= 1, "
                         f"got eps={eps}, samples_per_point={samples_per_point}")
    emb = mdl.embed(model_cfg, params, dataset.inputs)
    features = np.empty((len(emb), mdl.feature_width(model_cfg)))
    clean = mdl.forward_from_embedding(model_cfg, params, emb, features)
    rng = Rng(seed)
    worst = np.zeros(len(dataset))
    for _ in range(samples_per_point):
        # emb + (2u - 1) * eps, the same float ops done in the draw's buffer
        point = rng.uniform(emb.shape)
        point *= 2.0
        point -= 1.0
        point *= eps
        point += emb
        out = mdl.forward_from_embedding(model_cfg, params, point, features)
        worst = np.maximum(worst, smooth_loss_rows(model_cfg.task, out, clean))
    probe = _finite(np.mean(worst), "smoothness probe")
    return (probe, _task_metric(model_cfg, clean, dataset)) if with_metric else probe


def decision_boundary_grid(
    model_cfg: mdl.ModelConfig,
    params: mdl.ModelParams,
    bounds: tuple[float, float, float, float],
    resolution: int,
) -> np.ndarray:
    """(resolution^2, 3) table of (x0, x1, probability of class 1), row-major
    over the bounds rectangle (x0 varies slowest)."""
    if model_cfg.arch != "mlp" or model_cfg.input_dim != 2 \
            or model_cfg.task != "classification":
        raise InputError("decision boundary needs a 2-input classification model")
    if resolution < 2:
        raise InputError("resolution must be >= 2")
    x0_lo, x0_hi, x1_lo, x1_hi = bounds
    if not (np.isfinite(bounds).all() and x0_lo < x0_hi and x1_lo < x1_hi):
        raise InputError(f"bounds must be finite with each min below its max, got {bounds}")
    xs = np.linspace(x0_lo, x0_hi, resolution)
    ys = np.linspace(x1_lo, x1_hi, resolution)
    grid = np.column_stack([np.repeat(xs, resolution), np.tile(ys, resolution)])
    probs = _outputs(model_cfg, params, grid)
    return np.column_stack([grid, probs[:, 1]])
