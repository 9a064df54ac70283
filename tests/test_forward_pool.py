"""A Tape made with recycle=True hands its dense layers pooled output
buffers: forwards through one such tape equal fresh forwards bit for bit, never
overwrite an output the caller holds, and keep the pool at the live set."""

import weakref

import numpy as np
import pytest

from smoothtune import model as mdl
from smoothtune.autodiff import Tape, affine
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


@pytest.mark.parametrize("config, n", [
    (MLP_TANH, 10_000), (MLP_RELU, 10_000), (REGRESSION, 10_000), (TRANSFORMER, 300),
], ids=["mlp-tanh", "mlp-relu", "regression", "transformer"])
def test_recycled_forwards_equal_fresh_forwards(config, n):
    params, emb = _embedded(config, n, seed=2)
    tape = Tape(recycle=True)
    clean = mdl.forward_from_embedding(config, params, emb, tape=tape)
    assert np.array_equal(clean, mdl.forward_from_embedding(config, params, emb))
    for i in range(FORWARDS):
        point = _sample(emb, i)
        out = mdl.forward_from_embedding(config, params, point, tape=tape)
        assert np.array_equal(out, mdl.forward_from_embedding(config, params, point))
    assert np.array_equal(clean, mdl.forward_from_embedding(config, params, emb))


@pytest.mark.parametrize("config", [MLP_TANH, REGRESSION, TRANSFORMER],
                         ids=["mlp", "regression", "transformer"])
def test_held_outputs_are_never_overwritten(config):
    # regression outputs are reshape views whose base is a pooled logits buffer
    params, emb = _embedded(config, 200, seed=3)
    tape = Tape(recycle=True)
    held = []
    for i in range(FORWARDS):
        out = mdl.forward_from_embedding(config, params, _sample(emb, i), tape=tape)
        held.append((out, out.copy()))
    for out, copy in held:
        assert np.array_equal(out, copy)


def test_pool_stays_at_the_live_set():
    params, emb = _embedded(MLP_TANH, 500, seed=4)
    tape = Tape(recycle=True)
    for i in range(FORWARDS):
        mdl.forward_from_embedding(MLP_TANH, params, _sample(emb, i), tape=tape)
        assert len(tape._pool) == 3  # one buffer per dense layer, none grown
    # each held regression output keeps one logits buffer; the rest recycle
    params, emb = _embedded(REGRESSION, 500, seed=4)
    tape = Tape(recycle=True)
    held = [mdl.forward_from_embedding(REGRESSION, params, _sample(emb, i), tape=tape)
            for i in range(FORWARDS)]
    assert len(tape._pool) == 2 + len(held)


@pytest.mark.parametrize("tape", [Tape()], ids=["recording"])
def test_other_tapes_hand_out_no_pooled_array(tape):
    x, w, b = (tape.const(np.ones(shape)) for shape in ((4, 2), (2, 3), (3,)))
    out = affine(x, w, b, "tanh")
    gone = weakref.ref(out.value)
    del out
    assert gone() is None
    assert tape._pool is None


def test_a_recycling_tape_hands_a_dropped_buffer_out_again():
    tape = Tape(recycle=True)
    first = tape._buffer((4, 3))
    gone = weakref.ref(first)
    del first
    assert gone() is not None
    assert tape._buffer((3, 4)) is not gone()
    held = tape._buffer((4, 3))
    assert held is gone()
    assert tape._buffer((4, 3)) is not held
