import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from smoothtune.data import (
    Dataset,
    gen_cluster_classification,
    gen_token_sequences,
    gen_two_moons,
    read_dataset,
    subsample_splits,
    write_dataset,
)
from smoothtune.errors import InputError


def test_two_moons_formula_noise_free():
    ds = gen_two_moons(100, 0.0, seed=5)
    x, y = ds.inputs, ds.labels
    c0, c1 = x[y == 0], x[y == 1]
    assert len(c0) == len(c1) == 50
    # class 0 on the unit circle, upper arc
    assert np.allclose(c0[:, 0] ** 2 + c0[:, 1] ** 2, 1.0, atol=1e-12)
    assert np.all(c0[:, 1] >= -1e-12)
    # class 1 on the shifted mirrored arc: (1-cos t, 0.5-sin t)
    assert np.allclose((1.0 - c1[:, 0]) ** 2 + (0.5 - c1[:, 1]) ** 2, 1.0, atol=1e-12)
    assert np.all(c1[:, 1] <= 0.5 + 1e-12)


def test_two_moons_validation_and_determinism():
    with pytest.raises(InputError):
        gen_two_moons(3, 0.1, seed=1)
    a = gen_two_moons(40, 0.3, seed=2)
    b = gen_two_moons(40, 0.3, seed=2)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_cluster_balance_rule():
    ds = gen_cluster_classification(10, 2, 2, 2.0, 1.0, seed=3)
    assert np.sum(ds.labels == 0) == 5
    assert np.sum(ds.labels == 1) == 5


def test_cluster_nearest_centroid_oracle_at_high_separation():
    ds = gen_cluster_classification(400, 3, 3, 100.0, 1.0, seed=4)
    # independent nearest-centroid oracle from per-class sample means
    centroids = np.stack([ds.inputs[ds.labels == j].mean(axis=0) for j in range(3)])
    d2 = ((ds.inputs[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    assert np.mean(pred == ds.labels) == 1.0


def test_cluster_soft_labels_are_posteriors():
    ds = gen_cluster_classification(300, 2, 2, 2.0, 1.0, seed=5)
    assert ds.soft_labels is not None
    assert np.allclose(ds.soft_labels.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(ds.soft_labels >= 0)
    # with strong separation the posterior concentrates on the drawn label
    far = gen_cluster_classification(200, 2, 2, 20.0, 1.0, seed=6)
    assert np.mean(far.soft_labels.argmax(axis=1) == far.labels) == 1.0


def test_token_sequences_majority_rule():
    ds = gen_token_sequences(150, vocab=4, length=5, seed=7)
    for row, label in zip(ds.inputs, ds.labels):
        counts = np.bincount(row, minlength=4)
        assert counts[label] == counts.max()
        assert label == int(np.argmax(counts))  # ties toward the lowest id


def test_splits_full_fraction_is_same_set():
    ds = gen_cluster_classification(60, 2, 2, 2.0, 1.0, seed=9)
    (full,) = subsample_splits(ds, [1.0], seed=10)
    assert len(full) == 60
    joint = {tuple(x) for x in ds.inputs}
    assert {tuple(x) for x in full.inputs} == joint


@pytest.mark.parametrize("ds", [gen_cluster_classification(60, 2, 2, 2.0, 1.0, seed=9),
                                Dataset(np.arange(10.0).reshape(5, 2), np.arange(5.0))],
                         ids=["classification", "regression"])
def test_a_split_that_keeps_every_example_is_the_dataset_itself(ds):
    """A sweep holds no copy of a full split per seed; a fraction that rounds
    up to every example is one too."""
    small, full = subsample_splits(ds, [0.1 if len(ds) > 10 else 0.2, 1.0], seed=10)
    assert full is ds and len(small) < len(ds)
    assert subsample_splits(ds, [0.99], seed=10)[0] is ds


def test_splits_are_nested_and_sized():
    ds = gen_cluster_classification(1000, 2, 2, 2.0, 1.0, seed=11)
    small, large = subsample_splits(ds, [0.01, 0.5], seed=12)
    assert len(small) == 10  # round-half-up per class on a balanced set
    small_rows = {tuple(x) for x in small.inputs}
    large_rows = {tuple(x) for x in large.inputs}
    assert small_rows.issubset(large_rows)
    # class balance within one example
    assert abs(int(np.sum(small.labels == 0)) - int(np.sum(small.labels == 1))) <= 1


def test_splits_validation():
    ds = gen_cluster_classification(50, 2, 2, 2.0, 1.0, seed=13)
    with pytest.raises(InputError):
        subsample_splits(ds, [0.0], seed=1)
    with pytest.raises(InputError):
        subsample_splits(ds, [1.5], seed=1)
    with pytest.raises(InputError):
        subsample_splits(ds, [0.001], seed=1)  # selects no examples


def test_dataset_file_round_trip_bitwise(tmp_path, read_chunk):
    ds = gen_cluster_classification(40, 2, 3, 2.0, 1.0, seed=14)
    path = str(tmp_path / "c.jsonl")
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.task == "classification" and back.input_kind == "vector"
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.soft_labels, ds.soft_labels)


def test_dataset_files_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_dataset(a, gen_two_moons(30, 0.1, seed=15))
    write_dataset(b, gen_two_moons(30, 0.1, seed=15))
    assert open(a, "rb").read() == open(b, "rb").read()


def test_an_interrupted_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    write_dataset(str(path), gen_two_moons(2000, 0.1, seed=3))
    before = path.read_bytes()
    dumps, calls = json.dumps, []

    def interrupted(obj):
        calls.append(obj)
        if len(calls) == 1200:
            raise KeyboardInterrupt
        return dumps(obj)

    monkeypatch.setattr(json, "dumps", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_dataset(str(path), gen_two_moons(2000, 0.2, seed=4))
    monkeypatch.undo()
    assert len(calls) == 1200
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]
    assert path.read_bytes() == before


def test_token_file_round_trip(tmp_path, read_chunk):
    ds = gen_token_sequences(25, vocab=6, length=4, seed=16)
    path = str(tmp_path / "t.jsonl")
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.input_kind == "tokens"
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def test_reader_rejects_mixed_schemas(tmp_path):
    path = str(tmp_path / "mixed.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"x": [1.0, 2.0], "y": 0}) + "\n")
        fh.write(json.dumps({"tokens": [1, 2], "y": 1}) + "\n")
    with pytest.raises(InputError, match="mixed"):
        read_dataset(path)


def test_reader_rejects_mixed_label_types(tmp_path):
    path = str(tmp_path / "mixedy.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"x": [1.0], "y": 0}) + "\n")
        fh.write(json.dumps({"x": [2.0], "y": 0.5}) + "\n")
    with pytest.raises(InputError, match="label"):
        read_dataset(path)
    # numpy would read true as class 1, so a bool label is refused where it stands
    path = str(tmp_path / "booly.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"x": [1.0], "y": 0}) + "\n")
        fh.write(json.dumps({"x": [2.0], "y": True}) + "\n")
    with pytest.raises(InputError, match=r"booly\.jsonl:2: label"):
        read_dataset(path)


def test_reader_rejects_garbage_and_empty(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write("{not json\n")
    with pytest.raises(InputError, match="malformed"):
        read_dataset(path)
    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    with pytest.raises(InputError, match="empty"):
        read_dataset(empty)


def test_reader_rejects_unknown_fields(tmp_path):
    path = str(tmp_path / "extra.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"x": [1.0], "y": 0, "weight": 2.0}) + "\n")
    with pytest.raises(InputError, match="fields"):
        read_dataset(path)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,good,bad", [
    ("x", {"x": [0.0, 0.0], "y": 0}, {"x": [1.0, _NAN], "y": 0}),
    ("x", {"x": [0.0, 0.0], "y": 0}, {"x": [-_INF, 1.0], "y": 1}),
    ("y", {"x": [0.0, 0.0], "y": 0.5}, {"x": [1.0, 2.0], "y": _INF}),
    ("p", {"x": [0.0, 0.0], "y": 0, "p": [0.5, 0.5]}, {"x": [1.0, 2.0], "y": 0, "p": [_NAN, 1.0]}),
])
def test_reader_rejects_non_finite_values(tmp_path, field, good, bad):
    path = str(tmp_path / "nonfinite.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(good) + "\n\n")
        fh.write(json.dumps(bad) + "\n")
    with pytest.raises(InputError, match=rf"nonfinite\.jsonl:3: non-finite value in '{field}'"):
        read_dataset(path)


@pytest.mark.parametrize("tokens", [[1.7, 2], [1.0, 2], ["1", 2], [True, 2]])
def test_reader_rejects_token_ids_that_are_not_json_integers(tmp_path, tokens):
    path = str(tmp_path / "tokens.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"tokens": [1, 2], "y": 0}) + "\n")
        fh.write(json.dumps({"tokens": tokens, "y": 1}) + "\n")
    with pytest.raises(InputError, match=r"tokens\.jsonl:2: token ids must be JSON integers"):
        read_dataset(path)


@pytest.mark.parametrize("rows, line", [
    (({"x": [1.0, 2.0], "y": 0}, {"x": [1.0], "y": 1}), 2),
    (({"tokens": [1, 2], "y": 0}, {"tokens": [], "y": 1}), 2),
    (({"x": [1.0, 2.0], "y": 0}, {"x": [1.0, "a"], "y": 1}), 2),
    ([{"x": [1, 2], "y": 0}] * 3 + [{"x": [1, 2, 3], "y": 1}, {"x": [1, 2], "y": 1}], 4),
])
def test_reader_rejects_rows_that_are_not_equal_length_numbers(tmp_path, read_chunk, rows, line):
    path = str(tmp_path / "ragged.jsonl")
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(InputError, match=rf"ragged\.jsonl:{line}: .*equal-length lists of numbers"):
        read_dataset(path)


def test_more_classes_than_dimensions_place_centroids_at_random():
    a = gen_cluster_classification(7, 3, 2, 2.0, 0.5, seed=4)
    b = gen_cluster_classification(7, 3, 2, 2.0, 0.5, seed=4)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.soft_labels, b.soft_labels)
    assert np.bincount(a.labels).tolist() == [3, 2, 2]
    assert np.allclose(a.soft_labels.sum(axis=1), 1.0, atol=1e-12)


def test_noise_free_clusters_have_one_hot_soft_labels():
    ds = gen_cluster_classification(9, 3, 3, 2.0, 0.0, seed=5)
    assert np.array_equal(ds.soft_labels, np.eye(3)[ds.labels])


def test_a_split_that_rounds_every_class_to_nothing_keeps_one_example():
    ds = gen_cluster_classification(3, 3, 3, 2.0, 1.0, seed=6)  # one example per class
    (split,) = subsample_splits(ds, [0.34], seed=7)
    assert len(split) == 1 and split.labels.tolist() == [0]
    assert np.array_equal(split.inputs, ds.inputs[ds.labels == 0])


def _derived(ds):
    """(task, input_kind) as the dtypes of the labels and inputs say."""
    return ("classification" if ds.labels.dtype.kind == "i" else "regression",
            "tokens" if ds.inputs.dtype.kind == "i" else "vector")


def test_a_dataset_is_its_arrays():
    assert [f.name for f in dataclasses.fields(Dataset)] == ["inputs", "labels", "soft_labels"]
    for ds, kind in ((gen_two_moons(10, 0.1, seed=1), "vector"),
                     (gen_cluster_classification(10, 2, 2, 2.0, 1.0, seed=2), "vector"),
                     (gen_token_sequences(10, 4, 3, seed=3), "tokens")):
        assert (ds.task, ds.input_kind) == _derived(ds) == ("classification", kind)
        part = ds.subset(np.arange(2))
        assert (part.task, part.input_kind) == _derived(ds)


@pytest.mark.parametrize("record, task, kind", [
    ({"x": [0.5, 1], "y": 1}, "classification", "vector"),
    ({"x": [0.5, 1], "y": 1.5}, "regression", "vector"),
    ({"x": [0.5, 1], "y": 0, "p": [0.25, 0.75]}, "classification", "vector"),
    ({"tokens": [3, 1], "y": 1}, "classification", "tokens"),
    ({"tokens": [3, 1], "y": -0.5}, "regression", "tokens"),
    ({"tokens": [3, 1], "y": 0, "p": [1.0, 0.0]}, "classification", "tokens"),
])
def test_a_file_read_has_the_task_and_input_kind_of_its_dtypes(tmp_path, record, task, kind):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
    ds = read_dataset(str(path))
    assert (ds.task, ds.input_kind) == _derived(ds) == (task, kind)


def _read_peak_bytes(path):
    """The tracemalloc peak of one `read_dataset(path)`, its arrays included,
    and its refusal, or None where it reads the file."""
    tracemalloc.start()
    try:
        read_dataset(path)
        return tracemalloc.get_traced_memory()[1], None
    except InputError as exc:
        return tracemalloc.get_traced_memory()[1], str(exc)
    finally:
        tracemalloc.stop()


def _cluster_10000():
    """The cluster_sweep training file, 10,000 records over many chunks."""
    return gen_cluster_classification(10000, 2, 2, 1.6, 0.8, seed=1001)


def _bool_label(line):
    return json.dumps({**json.loads(line), "y": True}).encode()


@pytest.mark.parametrize("dataset, last_line, limit, refusal", [
    (_cluster_10000, None, 2 * 2**20, None),
    # a transformer test file, 1,000 records in one chunk
    (lambda: gen_token_sequences(1000, vocab=8, length=8, seed=2), None, 512 * 2**10, None),
    # a refused file is read once, one chunk at a time, too
    (_cluster_10000, lambda line: line[:10], 2 * 2**20,
     "10000: malformed record: Expecting ',' delimiter: line 1 column 11 (char 10)"),
    (_cluster_10000, _bool_label, 2 * 2**20,
     "10000: labels must be JSON numbers, not true/false"),
], ids=["cluster_10000", "tokens_1000", "cluster_10000_truncated_end",
        "cluster_10000_bool_label_at_end"])
def test_reading_holds_one_chunk_of_parsed_records(
        tmp_path, monkeypatch, dataset, last_line, limit, refusal):
    path = str(tmp_path / "big.jsonl")
    write_dataset(path, dataset())
    if last_line:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[-2] = last_line(lines[-2])
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
    opened = []
    monkeypatch.setattr("builtins.open", lambda *args, _open=open, **kwargs: (
        opened.append(args[0]) or _open(*args, **kwargs)))
    peak, refused = _read_peak_bytes(path)
    assert peak < limit, f"read_dataset peaked at {peak / 1024:.0f} KB"
    assert refused == (refusal and f"{path}:{refusal}")
    assert opened == [path]
