"""Synthetic dataset generators, low-resource splitting, and dataset file IO.

Generators are pure functions of their parameters and seed; re-generation is
bit-identical. Files hold one self-contained JSON record per line, parsed
once, a chunk of lines at a time, with fields "x" (reals) or "tokens"
(non-negative ints), "y", and optional "p" (soft label). A dataset is its
arrays: the dtypes of its labels and inputs are its task and input kind.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .tensor import Rng


@dataclass
class Dataset:
    inputs: np.ndarray                      # float [n, d] vectors or int [n, L] token ids
    labels: np.ndarray                      # int [n] classes or float [n] targets
    soft_labels: np.ndarray | None = None   # [n, k], rows on the simplex

    @property
    def task(self) -> str:
        return "classification" if np.issubdtype(self.labels.dtype, np.integer) else "regression"

    @property
    def input_kind(self) -> str:
        return "tokens" if np.issubdtype(self.inputs.dtype, np.integer) else "vector"

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx],
                       None if self.soft_labels is None else self.soft_labels[idx])


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
    return Dataset(x, y)


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
    return Dataset(x, y, soft)


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


def gen_token_sequences(n: int, vocab: int, length: int, seed: int) -> Dataset:
    """Integer sequences, each labeled with its most frequent token id (ties
    to the lowest id)."""
    if n < 1 or not 2 <= vocab < 2**63 or length < 1:  # token ids are int64
        raise InputError(f"invalid sizes n={n}, vocab={vocab}, length={length}")
    rng = Rng(seed)
    ids = np.floor(rng.uniform((n, length)) * vocab).astype(np.int64)
    ids = np.minimum(ids, vocab - 1)
    # counts over each row's own tokens, sorted by id, so ties go to the lowest id
    tallies = [np.unique(row, return_counts=True) for row in ids]
    y = np.array([values[counts.argmax()] for values, counts in tallies], dtype=np.int64)
    return Dataset(ids, y)


def subsample_splits(dataset: Dataset, fractions: list[float], seed: int) -> list[Dataset]:
    """Nested low-resource subsets from one shuffled order.

    Smaller splits are subsets of larger ones, and class balance is preserved
    within one example per class where rounding allows. Sizes round half up.
    A split that keeps every example is the dataset itself, not a copy.
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
        splits.append(dataset if idx.size == n else dataset.subset(idx))
    return splits


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def write_atomically(path: str, pieces) -> None:
    """Write text pieces to `<path>.tmp`, removed if writing fails (an interrupt
    included), and move it over `path` once whole: no partial file is left."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:  # re-raised
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_dataset(path: str, dataset: Dataset) -> None:
    """One JSON record per example, its fields in the order x or tokens, y, p;
    a non-finite value, which `read_dataset` refuses, is refused unwritten."""
    arrays = {"x" if dataset.input_kind == "vector" else "tokens": dataset.inputs,
              "y": dataset.labels, "p": dataset.soft_labels}
    for name, arr in arrays.items():
        if arr is not None and not np.isfinite(arr).all():
            raise InputError(f"{path}: non-finite value in {name!r}, nothing written")
    columns = {name: arr.tolist() for name, arr in arrays.items() if arr is not None}
    write_atomically(path, (json.dumps(dict(zip(columns, row))) + "\n"
                            for row in zip(*columns.values())))


_DECODER = json.JSONDecoder()
_SCHEMAS = ({"x", "y"}, {"x", "y", "p"}, {"tokens", "y"}, {"tokens", "y", "p"})


def _array(obj, dtype=np.float64) -> np.ndarray | None:
    """np.asarray(obj, dtype), or None where numpy refuses obj."""
    try:
        return np.asarray(obj, dtype=dtype)
    except (ValueError, TypeError, OverflowError):
        return None


_CHUNK = 1024  # lines parsed, checked and converted at a time


def _chunks(path: str):
    """(line numbers, records) of the non-blank lines among each _CHUNK lines
    of the file, one chunk alive at a time. The first line that is not UTF-8
    or not JSON is refused, with its number and its own error, when it is read."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lineno = 0  # the number of the last line read
        while chunk := list(itertools.islice(fh, _CHUNK)):
            linenos, records = [], []
            for lineno, text in enumerate(chunk, lineno + 1):
                if not (line := text.strip()):
                    continue
                try:
                    if not text.isascii():  # the line's own bytes, for its UTF-8 error
                        text.rstrip("\n").encode("utf-8", "surrogateescape").decode("utf-8")
                    try:
                        rec, end = _DECODER.raw_decode(line)
                    except json.JSONDecodeError:
                        end = None
                    if end != len(line):  # json.loads refuses the line, in its own words
                        rec = json.loads(line)
                except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                    raise InputError(f"{path}:{lineno}: malformed record: {exc}") from exc
                linenos.append(lineno)
                records.append(rec)
            del chunk
            if records:
                yield linenos, records
            del records


def _faults(records: list, first: dict, parts: list):
    """For each check, in the order in which the kinds of fault take
    precedence, yield a false value where these records pass it, else the
    message of the fault. Run on one record, a check words that record's own
    fault. The file's first record fixes the schema, the task and the row
    widths for every chunk. Records that pass every check append their arrays
    to `parts`."""
    yield set(map(type, records)) != {dict} and "malformed record: not a JSON object"
    schema = frozenset(first)
    yield set(schema) not in _SCHEMAS and f"unsupported record fields {sorted(schema)}"
    yield set(map(frozenset, records)) != {schema} and "mixed record schemas"
    labels = [rec["y"] for rec in records]
    label_type = int if isinstance(first["y"], int) else float  # the file's task
    label_types = set(map(type, labels))  # bool is a subclass of int, so it is looked for first
    yield ("labels must be JSON numbers, not true/false" if bool in label_types
           else "labels must be JSON numbers" if not label_types <= {int, float}
           else label_types != {label_type} and "mixed label types")
    key, dtype = ("x", np.float64) if "x" in schema else ("tokens", None)
    inputs = [rec[key] for rec in records]
    inputs_arr = _array(inputs, dtype)
    yield (inputs_arr is None or inputs_arr.ndim != 2
           or inputs_arr.shape[1] != len(first[key])) and (
        "input rows must be equal-length lists of numbers")
    # numpy folds true/false into integer arrays, so bools are looked for by type
    yield key == "tokens" and (inputs_arr.dtype.kind != "i" or bool in set(map(
        type, itertools.chain.from_iterable(inputs)))) and "token ids must be JSON integers"
    soft = [rec["p"] for rec in records] if "p" in schema else ()
    soft_arr = _array(soft) if "p" in schema else None
    yield "p" in schema and (soft_arr is None or soft_arr.ndim != 2
                             or soft_arr.shape[1] != len(first["p"])) and (
        "soft labels must be equal-length lists of numbers")
    # numpy reads text and true/false as numbers, so float columns are type-checked
    for name, column in (("x", inputs if key == "x" else ()), ("p", soft)):
        yield not set(map(type, itertools.chain.from_iterable(column))) <= {int, float} and (
            f"{name!r} values must be JSON numbers, not text or true/false")
    # the label types are checked, so only a class label beyond int64 is refused here
    labels_arr = _array(labels, np.int64 if label_type is int else np.float64)
    yield labels_arr is None and "class labels must fit in 64 bits"
    for name, arr in (("x", inputs_arr), ("y", labels_arr), ("p", soft_arr)):
        yield (arr is not None and arr.dtype == np.float64 and not np.isfinite(arr).all()
               and f"non-finite value in {name!r}")
    yield (soft_arr is not None and np.any(np.abs(soft_arr.sum(axis=1) - 1.0) > 1e-9)
           and "soft labels must sum to 1")
    parts.append((inputs_arr, labels_arr, soft_arr))


def read_dataset(path: str) -> Dataset:
    """Load a dataset file, refusing a malformed one with an InputError that
    names its first bad line, or an empty one. The file is parsed once, one
    chunk at a time: each chunk is checked column by column and converted to
    arrays, which are joined once at the end. A line that is not UTF-8 or not
    JSON is refused when it is read; otherwise the kind of fault checked first
    in any chunk is, at its first line in the first chunk that has it: the
    checks run on one record word that record's fault, or pass it."""
    first, parts, refusal, rank = None, [], None, None
    for linenos, records in _chunks(path):
        first = first if parts or refusal else records[0]
        # after a fault, a chunk runs only the checks that come before its kind
        for kind, found in enumerate(itertools.islice(_faults(records, first, parts), rank)):
            if found:  # every earlier chunk passed this check
                rank = kind
                # the checks run on each record alone up to this kind: every
                # earlier one passed for all of them, a later one may crash
                refusal = next(
                    f"{path}:{lineno}: {message}" for lineno, rec in zip(linenos, records)
                    for message in itertools.islice(_faults([rec], first, []), kind, kind + 1)
                    if message)
                break
        del linenos, records  # before the next chunk is parsed
    if not (parts or refusal):
        raise InputError(f"{path}: empty dataset")
    if refusal:
        raise InputError(refusal)
    inputs, labels, soft = (column[0] if len(parts) == 1 or column[0] is None
                            else np.concatenate(column) for column in zip(*parts))
    return Dataset(inputs, labels, soft)
