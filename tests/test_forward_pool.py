"""Blocked eager forwards that share one caller-owned feature buffer equal
fresh forwards bit for bit, never alias it, and never overwrite an output the
caller holds; the smoothness probe passes one such buffer to all its forwards."""

import numpy as np
import pytest

from smoothtune import evaluate as ev
from smoothtune import model as mdl
from smoothtune.data import Dataset
from smoothtune.errors import ContractViolation
from smoothtune.model import ModelConfig
from smoothtune.tensor import Rng

FORWARDS = 16

MLP_TANH = ModelConfig(hidden=(64, 64), dropout=0.0, activation="tanh")
MLP_RELU = ModelConfig(hidden=(64, 64), dropout=0.0, activation="relu")
REGRESSION = ModelConfig(task="regression", hidden=(64, 64), dropout=0.0)
TRANSFORMER = ModelConfig(classes=8, arch="transformer", embed_dim=16, heads=2, layers=2,
                          max_len=8, vocab_size=8, dropout=0.0, activation="relu")


def _embedded(config, n, seed):
    """An embedded batch of n examples: raw vectors, or token-table lookups."""
    params = mdl.init_params(config, Rng(1))
    if config.arch == "mlp":
        return params, Rng(seed).gaussian((n, config.input_dim), 1.0)
    ids = (Rng(seed).uniform((n, config.max_len)) * config.vocab_size).astype(np.int64)
    return params, mdl.embed(config, params, ids)


def _sample(emb, i):
    return emb + (2.0 * Rng(100 + i).uniform(emb.shape) - 1.0) * 0.1


def _feature_buffer(config, n):
    return np.empty((n, mdl.feature_width(config)))


@pytest.mark.parametrize("config, n", [
    (MLP_TANH, 10_000), (MLP_RELU, 10_000), (REGRESSION, 10_000), (TRANSFORMER, 300),
], ids=["mlp-tanh", "mlp-relu", "regression", "transformer"])
def test_recycled_forwards_equal_fresh_forwards(config, n):
    params, emb = _embedded(config, n, seed=2)
    features = _feature_buffer(config, n)
    clean = mdl.forward_from_embedding(config, params, emb, features)
    assert np.array_equal(clean, mdl.forward_from_embedding(config, params, emb))
    for i in range(FORWARDS):
        point = _sample(emb, i)
        out = mdl.forward_from_embedding(config, params, point, features)
        assert not np.shares_memory(out, features)
        assert np.array_equal(out, mdl.forward_from_embedding(config, params, point))
    assert np.array_equal(clean, mdl.forward_from_embedding(config, params, emb))


@pytest.mark.parametrize("config", [MLP_TANH, REGRESSION, TRANSFORMER],
                         ids=["mlp", "regression", "transformer"])
def test_held_outputs_are_never_overwritten(config):
    # regression outputs are reshape views, so none may be one of the buffer
    n = 2 * mdl._eager_block(config) + 1
    params, emb = _embedded(config, n, seed=3)
    features = _feature_buffer(config, n)
    held = []
    for i in range(FORWARDS):
        out = mdl.forward_from_embedding(config, params, _sample(emb, i), features)
        assert not np.shares_memory(out, features)
        held.append((out, out.copy()))
    for out, copy in held:
        assert np.array_equal(out, copy)


@pytest.mark.parametrize("shape, dtype", [((1024, 64), np.float64), ((1025, 16), np.float64),
                                          ((1025, 64), np.float32)],
                         ids=["rows", "width", "dtype"])
def test_a_feature_buffer_that_does_not_fit_is_refused(shape, dtype):
    params, emb = _embedded(MLP_TANH, 1025, seed=4)
    with pytest.raises(ContractViolation, match="feature_buffer must be a float64 array"):
        mdl.forward_from_embedding(MLP_TANH, params, emb, np.empty(shape, dtype=dtype))


def test_the_probe_passes_one_feature_buffer_to_every_forward(monkeypatch):
    n, samples = 2 * mdl._eager_block(MLP_TANH) + 1, 3
    params, x = _embedded(MLP_TANH, n, seed=5)
    ds = Dataset(x, np.zeros(n, dtype=np.int64))
    buffers = []
    forward = mdl.forward_from_embedding

    def recorded(config, params, embedded, feature_buffer=None):
        buffers.append(feature_buffer)
        return forward(config, params, embedded, feature_buffer)

    monkeypatch.setattr(mdl, "forward_from_embedding", recorded)
    ev.local_smoothness_probe(MLP_TANH, params, ds, 0.1, samples, seed=6)
    assert len(buffers) == 1 + samples
    assert buffers[0].shape == (n, 64) and all(b is buffers[0] for b in buffers)
