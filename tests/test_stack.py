"""A stack of S runs trained as one equals the S runs trained alone, bit for bit:
final params, ADAM moments, every record, and the pass counters."""

import dataclasses

import numpy as np
import pytest

from smoothtune.adversarial import AdvConfig
from smoothtune.data import gen_token_sequences, gen_two_moons
from smoothtune.errors import ContractViolation
from smoothtune.model import ModelConfig, flat_views, init_params, unstack_params
from smoothtune.optimizer import ProxConfig
from smoothtune.tensor import Rng
from smoothtune.trainer import (
    TrainConfig,
    continue_training,
    init_train_state,
    save_train_checkpoint,
    smooth_finetune,
    vanilla_finetune,
)

MLP = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                  hidden=(8, 8), dropout=0.1)
TRANSFORMER = ModelConfig(task="classification", classes=4, arch="transformer", embed_dim=8,
                          heads=2, layers=1, max_len=6, vocab_size=4, dropout=0.1,
                          activation="relu")

_ADV = dict(eps=0.1, noise_std=0.01, step_size=0.02, steps=2)
CASES = {
    "mlp_vanilla": (MLP, False, TrainConfig(
        reg_weight=0.0, prox=ProxConfig(prox_weight=0.0), outer_steps=12, batch_size=10,
        peak_lr=0.02)),
    "mlp_smooth_mbpp_inf": (MLP, True, TrainConfig(
        reg_weight=2.0, adv=AdvConfig(norm="inf", **_ADV), prox=ProxConfig(mode="mbpp"),
        outer_steps=12, batch_size=10, peak_lr=0.02, clip_norm=0.5)),
    "transformer_smooth_vbpp_two": (TRANSFORMER, True, TrainConfig(
        reg_weight=3.0, adv=AdvConfig(norm="two", **_ADV), prox=ProxConfig(mode="vbpp"),
        outer_steps=8, batch_size=10, peak_lr=0.02)),
}
SEEDS = (3, 4, 5)


def _datasets(model):
    # sizes differ, so the runs reshuffle at different steps
    if model.arch == "mlp":
        return [gen_two_moons(n, 0.25, 7 + n) for n in (20, 34, 50)]
    return [gen_token_sequences(n, 4, 6, 7 + n) for n in (20, 34, 50)]


def _first_moments(model, state):
    """Each run's ADAM first moments, per block, out of the state's flat buffer."""
    shapes = {name: block.shape for name, block in state.params.items()}
    return unstack_params(model, flat_views(state.adam.m, shapes))


def _assert_runs_equal(stacked, solo):
    assert stacked.records == solo.records
    for name in solo.params:
        assert np.array_equal(stacked.params[name], solo.params[name]), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_stack_equals_solo_runs(case):
    model, smart, cfg = CASES[case]
    train = smooth_finetune if smart else vanilla_finetune
    cfgs = [dataclasses.replace(cfg, seed=seed) for seed in SEEDS]
    inits = [init_params(model, Rng(seed).child(0)) for seed in SEEDS]
    datasets = _datasets(model)
    stacked = train(model, cfgs, datasets, inits)
    assert len(stacked) == len(SEEDS)
    if cfg.clip_norm < 1.0:  # some updates clip one run and leave another as it is
        assert any(len({r.grad_norm > cfg.clip_norm for r in step}) == 2
                   for step in zip(*(result.records for result in stacked)))
    state = stacked[0].state
    moments = _first_moments(model, state)
    for i, (c, ds, init) in enumerate(zip(cfgs, datasets, inits)):
        [solo] = train(model, [c], [ds], [init])
        _assert_runs_equal(stacked[i], solo)
        solo_m = _first_moments(model, solo.state)[0]
        assert all(np.array_equal(moments[i][name], solo_m[name]) for name in solo_m)
        assert (state.counters.forwards, state.counters.backwards) == \
            (solo.state.counters.forwards, solo.state.counters.backwards)
        assert state.global_step == solo.state.global_step == cfg.total_updates


def test_segmented_stack_equals_straight_stack():
    model, smart, cfg = CASES["mlp_smooth_mbpp_inf"]
    cfgs = [dataclasses.replace(cfg, seed=seed) for seed in SEEDS]
    inits = [init_params(model, Rng(seed).child(0)) for seed in SEEDS]
    datasets = _datasets(model)
    straight = smooth_finetune(model, cfgs, datasets, inits)
    state = init_train_state(model, cfgs, inits, smart=True)
    head = continue_training(state, datasets, stop_after=5)
    tail = continue_training(state, datasets)
    for s, h, t in zip(straight, head, tail):
        assert h.records + t.records == s.records
        assert all(np.array_equal(t.params[name], s.params[name]) for name in s.params)
    # a result keeps its own copy: later updates of the stack leave it as it was
    assert not all(np.array_equal(head[0].params[n], tail[0].params[n]) for n in tail[0].params)


def test_stack_refuses_runs_it_cannot_train_together(tmp_path):
    model, _, cfg = CASES["mlp_vanilla"]
    inits = [init_params(model, Rng(seed).child(0)) for seed in (1, 2)]
    with pytest.raises(ContractViolation, match="only in seed"):
        init_train_state(model, [cfg, dataclasses.replace(cfg, reg_weight=1.0)], inits, False)
    state = init_train_state(model, [dataclasses.replace(cfg, seed=s) for s in (1, 2)], inits,
                             smart=False)
    with pytest.raises(ContractViolation, match="equal batch sizes"):
        continue_training(state, [gen_two_moons(20, 0.25, 1), gen_two_moons(8, 0.25, 2)])
    with pytest.raises(ContractViolation, match="datasets for a stack of 2"):
        continue_training(state, [gen_two_moons(20, 0.25, 1)])
    with pytest.raises(ContractViolation, match="one run"):
        save_train_checkpoint(str(tmp_path / "stack.json"), state)
    # a solo value where a list of one per run belongs is named, not unpacked
    one = dataclasses.replace(cfg, seed=1)
    with pytest.raises(ContractViolation, match=r"^cfgs \(a TrainConfig\) and inits \(a dict\): "
                                                "pass one entry per run, a list of one$"):
        smooth_finetune(model, one, gen_two_moons(20, 0.25, 1), inits[0])
    solo = init_train_state(model, [one], inits[:1], smart=False)
    moons = gen_two_moons(200, 0.25, 1)
    for data in (moons, moons.subset(np.arange(1))):  # 200 rows, and one
        with pytest.raises(ContractViolation, match=r"^datasets \(a Dataset\): pass one entry"):
            continue_training(solo, data)
