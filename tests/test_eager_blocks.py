"""Eager forwards over more than model._eager_block(config) examples run their
body in blocks into one full-height feature array and their output layer once
at full height. Every eager path gives the bits of one build_head over the
whole batch for these shapes, holds a bounded set of intermediates, and
stacked forwards stay one block."""

import tracemalloc

import numpy as np
import pytest

from smoothtune import model as mdl
from smoothtune.data import Dataset
from smoothtune.evaluate import accuracy, local_smoothness_probe
from smoothtune.model import ModelConfig
from smoothtune.tensor import Rng

from oracles import one_block_forward

TRANSFORMER = ModelConfig(classes=8, arch="transformer", embed_dim=16, heads=2, layers=2,
                          max_len=8, vocab_size=8, dropout=0.1, activation="relu")
MLP = ModelConfig(hidden=(64, 64), dropout=0.0)
# the two MLP presets' shapes: two-moons 2-16-16-2 and cluster_sweep 2-64-64-2
MLPS = [ModelConfig(hidden=hidden, dropout=0.0, activation=act)
        for hidden in ((16, 16), (64, 64)) for act in ("tanh", "relu")]
SIZES = (1, 2, 127, 128, 129, 257, 400, 1000, 2001)


def _ids(n, seed):
    return (Rng(100 + seed).uniform((n, TRANSFORMER.max_len)) * TRANSFORMER.vocab_size
            ).astype(np.int64)


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_forwards_equal_one_block(seed):
    params = mdl.init_params(TRANSFORMER, Rng(seed))
    for n in SIZES:
        ids = _ids(n, seed)
        want = one_block_forward(TRANSFORMER, params, ids)
        assert _same(mdl.forward(TRANSFORMER, params, ids), want), n
        emb = mdl.embed(TRANSFORMER, params, ids)
        assert _same(mdl.forward_from_embedding(TRANSFORMER, params, emb), want), n
        features = np.empty((n, mdl.feature_width(TRANSFORMER)))
        for _ in range(2):  # the second pass writes over the first one's features
            got = mdl.forward_from_embedding(TRANSFORMER, params, emb, features)
            assert _same(got, want), n
        labels = (np.arange(n) % TRANSFORMER.classes).astype(np.int64)
        ds = Dataset(ids, labels)
        assert accuracy(TRANSFORMER, params, ds) == np.mean(np.argmax(want, axis=1) == labels)


@pytest.mark.parametrize("n", [129, 400, 1000])
def test_blocked_probe_equals_one_block(monkeypatch, n):
    params = mdl.init_params(TRANSFORMER, Rng(n))
    ids = _ids(n, n)
    ds = Dataset(ids, np.zeros(n, dtype=np.int64))
    blocked = local_smoothness_probe(TRANSFORMER, params, ds, 0.1, 3, seed=5, with_metric=True)
    monkeypatch.setattr(mdl, "forward_from_embedding",
                        lambda config, params, emb, feature_buffer=None:
                        one_block_forward(config, params, emb, embedded=True))
    assert blocked == local_smoothness_probe(TRANSFORMER, params, ds, 0.1, 3, seed=5,
                                             with_metric=True)


def _traced_peak(params, ids):
    tracemalloc.start()
    try:
        mdl.forward(TRANSFORMER, params, ids)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_forward_memory_does_not_grow_with_the_batch():
    params = mdl.init_params(TRANSFORMER, Rng(0))
    small, large = _ids(mdl._eager_block(TRANSFORMER), 0), _ids(1000, 0)
    _traced_peak(params, small)  # first-call allocations are not the batch's
    assert _traced_peak(params, large) <= 1.5 * _traced_peak(params, small)


def _body_calls(monkeypatch):
    calls = []
    body = mdl._build_body

    def counted(config, pvars, emb, masks=None):
        calls.append(emb.value.shape)
        return body(config, pvars, emb, masks)

    monkeypatch.setattr(mdl, "_build_body", counted)
    return calls


def test_only_unstacked_forwards_are_blocked(monkeypatch):
    calls = _body_calls(monkeypatch)
    tf_params = mdl.init_params(TRANSFORMER, Rng(0))
    assert mdl._eager_block(TRANSFORMER) == 128  # 8 tokens x ff width 32 per sequence
    mdl.forward(TRANSFORMER, tf_params, _ids(1000, 0))
    assert [shape[0] for shape in calls] == [125] * 8  # ceil(1000 / 128) near-equal blocks
    calls.clear()
    stacked = mdl.stack_params(TRANSFORMER, [tf_params, mdl.init_params(TRANSFORMER, Rng(1))])
    mdl.forward(TRANSFORMER, stacked, np.stack([_ids(300, 0), _ids(300, 1)]))
    assert calls == [(2, 300, 8, 16)]
    calls.clear()
    mlp_params = mdl.init_params(MLP, Rng(0))
    assert mdl._eager_block(MLP) == 512  # hidden width 64
    x = Rng(3).gaussian((1000, 2), 1.0)
    mdl.forward(MLP, mlp_params, x)
    mdl.forward_from_embedding(MLP, mlp_params, x)
    assert calls == [(500, 2)] * 4  # ceil(1000 / 512) near-equal blocks, twice
    calls.clear()
    mlp_stacked = mdl.stack_params(MLP, [mlp_params, mdl.init_params(MLP, Rng(1))])
    mdl.forward(MLP, mlp_stacked, np.stack([x, x]))
    assert calls == [(2, 1000, 2)]
    calls.clear()
    mdl.forward(TRANSFORMER, tf_params, None, features=np.zeros((1000, 16)))
    mdl.forward(MLP, mlp_params, None, features=np.zeros((1000, 64)))
    assert calls == []


@pytest.mark.parametrize("config", MLPS, ids=lambda c: f"{c.hidden[0]}-{c.activation}")
def test_blocked_mlp_forwards_equal_one_block(config):
    block = mdl._eager_block(config)
    params = mdl.init_params(config, Rng(7))
    for n in (block - 1, block, block + 1, 2 * block + 1, 10_000):
        x = Rng(n).gaussian((n, config.input_dim), 1.5)
        want = one_block_forward(config, params, x)
        assert _same(mdl.forward(config, params, x), want), n
        assert _same(mdl.forward_from_embedding(config, params, x), want), n
        features = np.empty((n, mdl.feature_width(config)))
        for _ in range(2):  # the second pass writes over the first one's features
            assert _same(mdl.forward_from_embedding(config, params, x, features), want), n
        labels = (x[:, 0] > 0).astype(np.int64)
        ds = Dataset(x, labels)
        assert accuracy(config, params, ds) == np.mean(np.argmax(want, axis=1) == labels)


@pytest.mark.parametrize("config", MLPS, ids=lambda c: f"{c.hidden[0]}-{c.activation}")
def test_blocked_mlp_probe_equals_one_block(monkeypatch, config):
    n = 2 * mdl._eager_block(config) + 1
    params = mdl.init_params(config, Rng(n))
    x = Rng(n + 1).gaussian((n, config.input_dim), 1.5)
    ds = Dataset(x, np.zeros(n, dtype=np.int64))
    blocked = local_smoothness_probe(config, params, ds, 0.3, 3, seed=5, with_metric=True)
    monkeypatch.setattr(mdl, "forward_from_embedding",
                        lambda config, params, emb, feature_buffer=None:
                        one_block_forward(config, params, emb, embedded=True))
    assert blocked == local_smoothness_probe(config, params, ds, 0.3, 3, seed=5,
                                             with_metric=True)


def _probe_peak(params, ds):
    tracemalloc.start()
    try:
        local_smoothness_probe(MLP, params, ds, 0.3, 16, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_10k_point_probe_holds_one_full_height_buffer():
    n = 10_000
    params = mdl.init_params(MLP, Rng(0))
    ds = Dataset(Rng(1).gaussian((n, 2), 1.0), np.zeros(n, dtype=np.int64))
    _probe_peak(params, ds)  # first-call allocations are not the probe's
    layer_buffer = n * MLP.hidden[-1] * 8
    assert _probe_peak(params, ds) <= 0.7 * 2 * layer_buffer
