"""Synthetic dataset generators, low-resource splitting, and dataset file IO.

Generators are pure functions of their parameters and seed; re-generation is
bit-identical. Files hold one self-contained JSON record per line with fields
"x" (reals) or "tokens" (non-negative ints), "y", and optional "p" (soft
label); a sidecar <path>.meta.json records provenance.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .tensor import Rng


@dataclass
class Dataset:
    task: str                               # "classification" | "regression"
    input_kind: str                         # "vector" | "tokens"
    inputs: np.ndarray                      # float [n, d] or int [n, L]
    labels: np.ndarray                      # int [n] or float [n]
    soft_labels: np.ndarray | None = None   # [n, k], rows on the simplex
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, idx: np.ndarray, provenance: dict) -> "Dataset":
        return Dataset(
            task=self.task,
            input_kind=self.input_kind,
            inputs=self.inputs[idx],
            labels=self.labels[idx],
            soft_labels=None if self.soft_labels is None else self.soft_labels[idx],
            provenance=provenance,
        )


def _check_scales(**scales: float) -> None:
    for name, value in scales.items():
        if not 0 <= value < np.inf:
            raise InputError(f"{name} must be finite and >= 0, got {value}")


def gen_two_moons(n: int, noise_std: float, seed: int) -> Dataset:
    """Two interleaved arcs: class 0 at (cos t, sin t), class 1 at
    (1 - cos t, 0.5 - sin t), t uniform on [0, pi], plus N(0, noise_std^2)."""
    if n < 2 or n % 2 != 0:
        raise InputError(f"n must be even and >= 2, got {n}")
    _check_scales(noise=noise_std)
    rng = Rng(seed)
    half = n // 2
    t0 = rng.uniform((half,)) * np.pi
    t1 = rng.uniform((half,)) * np.pi
    pts0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    pts1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([pts0, pts1], axis=0) + rng.gaussian((n, 2), noise_std)
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return Dataset(
        task="classification", input_kind="vector", inputs=x, labels=y,
        provenance={"generator": "two_moons", "n": n, "noise_std": noise_std, "seed": seed},
    )


def _cluster_centroids(classes: int, dim: int, separation: float, rng: Rng) -> np.ndarray:
    # axis-aligned when they fit (guaranteed pairwise distance separation*sqrt(2));
    # otherwise random directions at the same scale
    if classes <= dim:
        c = np.zeros((classes, dim))
        c[np.arange(classes), np.arange(classes)] = separation
        return c
    return rng.gaussian((classes, dim), separation)


def gen_cluster_classification(
    n: int, classes: int, dim: int, separation: float, noise: float, seed: int
) -> Dataset:
    """Labeled Gaussian clusters with exact posterior soft labels.

    Class counts differ by at most one; soft labels are the true mixture
    posteriors, so ambiguity grows as clusters overlap.
    """
    if n < classes or classes < 2 or dim < 1:
        raise InputError(f"invalid sizes n={n}, classes={classes}, dim={dim}")
    _check_scales(separation=separation, noise=noise)
    rng = Rng(seed)
    centroids = _cluster_centroids(classes, dim, separation, rng)
    counts = [n // classes + (1 if j < n % classes else 0) for j in range(classes)]
    y = np.concatenate([np.full(c, j, dtype=np.int64) for j, c in enumerate(counts)])
    x = centroids[y] + rng.gaussian((n, dim), 1.0) * noise
    soft = _mixture_posteriors(x, y, centroids, counts, noise, n)
    return Dataset(
        task="classification", input_kind="vector", inputs=x, labels=y, soft_labels=soft,
        provenance={"generator": "cluster", "n": n, "classes": classes, "dim": dim,
                    "separation": separation, "noise": noise, "seed": seed},
    )


def _mixture_posteriors(x, y, centroids, counts, noise, n) -> np.ndarray:
    if noise == 0.0:
        soft = np.zeros((n, len(counts)))
        soft[np.arange(n), y] = 1.0
        return soft
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    loglik = -d2 / (2.0 * noise * noise) + np.log(np.asarray(counts) / n)
    loglik -= loglik.max(axis=1, keepdims=True)
    p = np.exp(loglik)
    return p / p.sum(axis=1, keepdims=True)


def gen_token_sequences(n: int, vocab: int, length: int, rule: str, seed: int) -> Dataset:
    """Rule-labeled integer sequences; "majority" labels each sequence with its
    most frequent token id (ties to the lowest id)."""
    if n < 1 or not 2 <= vocab < 2**63 or length < 1:  # token ids are int64
        raise InputError(f"invalid sizes n={n}, vocab={vocab}, length={length}")
    if rule != "majority":
        raise InputError(f"unknown labeling rule {rule!r}")
    rng = Rng(seed)
    ids = np.floor(rng.uniform((n, length)) * vocab).astype(np.int64)
    ids = np.minimum(ids, vocab - 1)
    # counts over each row's own tokens, sorted by id, so ties go to the lowest id
    tallies = [np.unique(row, return_counts=True) for row in ids]
    y = np.array([values[counts.argmax()] for values, counts in tallies], dtype=np.int64)
    return Dataset(
        task="classification", input_kind="tokens", inputs=ids, labels=y,
        provenance={"generator": "tokens", "n": n, "vocab": vocab, "length": length,
                    "rule": rule, "seed": seed},
    )


def subsample_splits(dataset: Dataset, fractions: list[float], seed: int) -> list[Dataset]:
    """Nested low-resource subsets from one shuffled order.

    Smaller splits are subsets of larger ones, and class balance is preserved
    within one example per class where rounding allows. Sizes round half up.
    """
    n = len(dataset)
    for f in fractions:
        if not 0 < f <= 1:
            raise InputError(f"fraction {f} outside (0, 1]")
        if f * n < 1:
            raise InputError(f"fraction {f} selects no examples from {n}")
    rng = Rng(seed)
    if dataset.task == "classification":
        class_orders = []
        for cls in np.unique(dataset.labels):
            members = np.flatnonzero(dataset.labels == cls)
            class_orders.append(members[rng.permutation(len(members))])
    else:
        class_orders = [rng.permutation(n)]
    splits = []
    for f in fractions:
        take = [order[: int(np.floor(f * len(order) + 0.5))] for order in class_orders]  # half up
        idx = np.sort(np.concatenate(take))
        if idx.size == 0:
            largest = max(class_orders, key=len)
            idx = np.array([largest[0]])
        prov = dict(dataset.provenance)
        prov.update({"split_fraction": f, "split_seed": seed})
        splits.append(dataset.subset(idx, provenance=prov))
    return splits


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def write_dataset(path: str, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(dataset)):
            record: dict = {}
            if dataset.input_kind == "vector":
                record["x"] = dataset.inputs[i].tolist()
            else:
                record["tokens"] = [int(v) for v in dataset.inputs[i]]
            if dataset.task == "classification":
                record["y"] = int(dataset.labels[i])
            else:
                record["y"] = float(dataset.labels[i])
            if dataset.soft_labels is not None:
                record["p"] = dataset.soft_labels[i].tolist()
            fh.write(json.dumps(record) + "\n")
    meta = {"task": dataset.task, "input_kind": dataset.input_kind,
            "provenance": dataset.provenance}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
        fh.write("\n")


_DECODER = json.JSONDecoder()
_SCHEMAS = ({"x", "y"}, {"x", "y", "p"}, {"tokens", "y"}, {"tokens", "y", "p"})


def _numbered_records(path: str):
    """(line number, record) of each non-blank line, as a line-by-line reader
    sees them; the first line that is not UTF-8 or not JSON is refused with
    its number. Only a file that the column checks refuse is read this way."""
    with open(path, "rb") as fh:
        lines = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        try:  # no byte of a multi-byte UTF-8 character is a line break
            if line := line.decode("utf-8").strip():
                yield lineno, json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"{path}:{lineno}: malformed record: {exc}") from exc


def _refusal(path: str, bad) -> InputError:
    """An InputError naming the first line for whose record `bad(k, record)`
    (k counting records) returns a message."""
    lineno, message = next((lineno, message) for k, (lineno, rec)
                           in enumerate(_numbered_records(path)) if (message := bad(k, rec)))
    return InputError(f"{path}:{lineno}: {message}")


def _array(obj, dtype=np.float64) -> np.ndarray | None:
    """np.asarray(obj, dtype), or None where numpy refuses obj."""
    try:
        return np.asarray(obj, dtype=dtype)
    except (ValueError, TypeError, OverflowError):
        return None


def read_dataset(path: str) -> Dataset:
    """Load a dataset file, refusing a malformed one with an InputError that
    names its first bad line where there is one. Each check runs over a whole
    column; only a refused file is read again line by line to find the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # raw_decode accepts what json.loads accepts when it ends where the
            # (stripped) line does
            parsed = [(_DECODER.raw_decode(line), len(line)) for line in map(str.strip, fh)
                      if line]
    except (UnicodeDecodeError, json.JSONDecodeError):
        parsed = None
    if parsed is None or any(end != n for (_, end), n in parsed):
        list(_numbered_records(path))  # raises at the first line that is not JSON
    records = [rec for (rec, _), _ in parsed]
    del parsed  # before the columns are built
    if not records:
        raise InputError(f"{path}: empty dataset")
    if set(map(type, records)) != {dict}:
        raise _refusal(path, lambda k, rec: type(rec) is not dict
                       and "malformed record: not a JSON object")
    schema = frozenset(records[0])
    if set(schema) not in _SCHEMAS:
        raise InputError(f"{path}: unsupported record fields {sorted(schema)}")
    if len(set(map(frozenset, records))) > 1:
        raise _refusal(path, lambda k, rec: frozenset(rec) != schema and "mixed record schemas")
    input_kind = "vector" if "x" in schema else "tokens"
    labels = [rec["y"] for rec in records]
    task = "classification" if isinstance(labels[0], int) else "regression"
    if set(map(type, labels)) != {int if task == "classification" else float}:
        # bool is a subclass of int, so it is looked for first
        raise _refusal(path, lambda k, rec: (
            "labels must be JSON numbers, not true/false" if type(rec["y"]) is bool
            else "mixed label types" if isinstance(rec["y"], int) != (task == "classification")
            else None if type(rec["y"]) in (int, float) else "labels must be JSON numbers"))
    inputs = [rec["x" if input_kind == "vector" else "tokens"] for rec in records]
    inputs_arr = _array(inputs, np.float64 if input_kind == "vector" else None)
    if inputs_arr is None or inputs_arr.ndim != 2:
        raise InputError(f"{path}: input rows must be equal-length lists of numbers")
    # numpy folds true/false into integer arrays, so bools are looked for by type
    if input_kind == "tokens" and (
            inputs_arr.dtype.kind != "i"
            or bool in set(map(type, itertools.chain.from_iterable(inputs)))):
        raise _refusal(path, lambda k, rec: (not rec["tokens"] or any(
            type(t) is not int or not -2**63 <= t < 2**63 for t in rec["tokens"]))
            and "token ids must be JSON integers")
    soft = [rec["p"] for rec in records] if "p" in schema else ()
    soft_arr = _array(soft) if "p" in schema else None
    if "p" in schema and (soft_arr is None or soft_arr.ndim != 2):
        raise _refusal(path, lambda k, rec: ((p := _array(rec["p"])) is None or p.ndim != 1
                                             or len(p) != len(records[0]["p"]))
                       and "soft labels must be equal-length lists of numbers")
    # numpy reads text and true/false as numbers, so float columns are type-checked
    for name, column in (("x", inputs if input_kind == "vector" else ()), ("p", soft)):
        if not set(map(type, itertools.chain.from_iterable(column))) <= {int, float}:
            raise _refusal(path, lambda k, rec: any(type(v) not in (int, float) for v in rec[name])
                           and f"{name!r} values must be JSON numbers, not text or true/false")
    # the label types are checked, so only a class label beyond int64 is refused here
    labels_arr = _array(labels, np.int64 if task == "classification" else np.float64)
    if labels_arr is None:
        raise _refusal(path, lambda k, rec: not -2**63 <= rec["y"] < 2**63
                       and "class labels must fit in 64 bits")
    for name, arr in (("x", inputs_arr), ("y", labels_arr), ("p", soft_arr)):
        if arr is not None and arr.dtype == np.float64 and not np.isfinite(arr).all():
            row = np.flatnonzero(~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1))[0]
            raise _refusal(path, lambda k, rec: k == row and f"non-finite value in {name!r}")
    if soft_arr is not None and np.any(np.abs(soft_arr.sum(axis=1) - 1.0) > 1e-9):
        raise InputError(f"{path}: soft labels must sum to 1")
    provenance = {}
    meta_path = path + ".meta.json"
    if os.path.exists(meta_path):
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"{meta_path}: malformed sidecar: {exc}") from exc
        provenance = meta.get("provenance", {}) if isinstance(meta, dict) else None
        if not isinstance(provenance, dict):
            raise InputError(f"{meta_path}: malformed sidecar: its provenance is not an object")
    return Dataset(task=task, input_kind=input_kind, inputs=inputs_arr,
                   labels=labels_arr, soft_labels=soft_arr, provenance=provenance)
