"""Contract fuzz over the config space, driven by the package's own Rng.

Each seed draws a task, an architecture and its depth (0 hidden layers or
transformer blocks included), an activation, dropout or none, the ascent
norm and 0-3 ascent steps, 1-3 inner steps, the teacher mode, whether the
smoothness and trust-region weights are zero, the method and a batch size.
On that config it checks the three parts of the core contract, bit for bit:
- a stack of two runs equals each run trained alone;
- a run paused at a drawn outer step, written to a checkpoint file and
  resumed from it equals the straight run;
- smooth training with both weights 0 equals vanilla training.

Tier-1 runs seeds 0-19. SMOOTHTUNE_CONTRACT_SEEDS=first:stop runs the seeds
in range(first, stop) instead, for a longer search.
"""

import dataclasses
import os

import numpy as np
import pytest

from smoothtune.adversarial import AdvConfig
from smoothtune.data import Dataset, gen_token_sequences, gen_two_moons
from smoothtune.model import ModelConfig, init_params
from smoothtune.optimizer import ProxConfig
from smoothtune.tensor import Rng
from smoothtune.trainer import (
    TrainConfig,
    continue_training,
    init_train_state,
    resume_from_checkpoint,
    save_train_checkpoint,
)

_FIRST, _, _STOP = os.environ.get("SMOOTHTUNE_CONTRACT_SEEDS", "0:20").partition(":")
SEEDS = range(int(_FIRST), int(_STOP))
SIZES = (10, 14)  # one dataset per run; sizes differ, so the runs reshuffle apart


def _pick(rng, options):
    return options[int(rng.uniform() * len(options))]


def _draw(rng):
    """(model config, train config, smart, one dataset per run) of one draw."""
    task, arch = _pick(rng, ("classification", "regression")), _pick(rng, ("mlp", "transformer"))
    depth, shared = _pick(rng, (0, 1, 2)), dict(
        task=task, classes=5, dropout=_pick(rng, (0.0, 0.1)),
        activation=_pick(rng, ("tanh", "relu")))
    if arch == "mlp":
        model = ModelConfig(arch=arch, input_dim=2, hidden=(6,) * depth, **shared)
        datasets = [gen_two_moons(n, 0.25, 30 + n) for n in SIZES]
    else:
        model = ModelConfig(arch=arch, embed_dim=8, heads=2, layers=depth, max_len=5,
                            vocab_size=5, **shared)
        datasets = [gen_token_sequences(n, 5, 5, 30 + n) for n in SIZES]
    if task == "regression":
        datasets = [Dataset(ds.inputs, ds.labels / 2.0) for ds in datasets]
    cfg = TrainConfig(
        reg_weight=_pick(rng, (0.0, 2.0)),
        adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=_pick(rng, (0, 1, 2, 3)),
                      norm=_pick(rng, ("inf", "two"))),
        prox=ProxConfig(prox_weight=_pick(rng, (0.0, 1.0)), mode=_pick(rng, ("mbpp", "vbpp"))),
        inner_steps=_pick(rng, (1, 2, 3)), outer_steps=_pick(rng, (2, 3)),
        batch_size=_pick(rng, (3, 4, 10)), peak_lr=0.02)
    return model, cfg, _pick(rng, (True, False)), datasets


def _train(model, cfgs, inits, smart, datasets):
    return continue_training(init_train_state(model, cfgs, inits, smart), datasets)


def _assert_same_run(a, b):
    assert a.records == b.records
    for name in b.params:
        assert np.array_equal(a.params[name], b.params[name]), name


@pytest.mark.parametrize("seed", SEEDS)
def test_a_drawn_config_keeps_the_core_contract(tmp_path, seed):
    model, cfg, smart, datasets = _draw(Rng(seed))
    cfgs = [dataclasses.replace(cfg, seed=s) for s in (seed, seed + 1)]
    inits = [init_params(model, Rng(c.seed).child(0)) for c in cfgs]

    stacked = _train(model, cfgs, inits, smart, datasets)
    solo = [_train(model, [c], [init], smart, [ds])[0]
            for c, init, ds in zip(cfgs, inits, datasets)]
    for run, alone in zip(stacked, solo):
        _assert_same_run(run, alone)

    state = init_train_state(model, cfgs[:1], inits[:1], smart)
    stop = int(Rng(seed).child(1).uniform() * (cfg.outer_steps + 1))
    [head] = continue_training(state, datasets[:1], stop_after=stop)
    save_train_checkpoint(str(tmp_path / "checkpoint.json"), state)
    resumed = resume_from_checkpoint(str(tmp_path / "checkpoint.json"))
    [tail] = continue_training(resumed, datasets[:1])
    tail.records[:0] = head.records
    _assert_same_run(tail, solo[0])
    assert np.array_equal(resumed.adam.m, solo[0].state.adam.m)
    assert resumed.counters == solo[0].state.counters

    zero = dataclasses.replace(cfgs[0], reg_weight=0.0,
                               prox=dataclasses.replace(cfg.prox, prox_weight=0.0))
    _assert_same_run(*(_train(model, [zero], inits[:1], method, datasets[:1])[0]
                       for method in (True, False)))
