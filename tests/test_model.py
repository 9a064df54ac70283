import numpy as np
import pytest

from smoothtune.autodiff import Tape
from smoothtune.checkpoint import load_params
from smoothtune.errors import CheckpointError, ContractViolation, InputError
from smoothtune.model import (
    ModelConfig,
    build_embed,
    build_head,
    draw_dropout_masks,
    embed,
    forward,
    forward_from_embedding,
    init_params,
    leaf_params,
    param_shapes,
    sinusoidal_positions,
)
from smoothtune.tensor import Rng
from smoothtune.trainer import TrainConfig, init_train_state, save_train_checkpoint

from oracles import ref_sinusoidal_positions

MLP = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                  hidden=(8, 8), dropout=0.1)
TF = ModelConfig(task="classification", classes=2, arch="transformer", embed_dim=8,
                 heads=2, layers=1, max_len=6, vocab_size=10, dropout=0.1)


def _train_forward(config, params, x, masks):
    """The training forward, dropout masks included, on a tape whose leaves
    want no gradient."""
    tape = Tape()
    pvars = leaf_params(tape, params, requires_grad=False)
    return build_head(config, pvars, build_embed(tape, config, pvars, x), masks).value


def test_config_invariants():
    with pytest.raises(ContractViolation):
        ModelConfig(task="classification", classes=1)
    with pytest.raises(ContractViolation) as both:  # two rules across fields at once
        ModelConfig(classes=1, arch="transformer", heads=3)
    assert str(both.value) == ("classes: must be >= 2 for classification, got 1; "
                               "heads: must divide embed_dim 8, got 3")
    with pytest.raises(ContractViolation):
        ModelConfig(arch="transformer", embed_dim=7, heads=2)
    for heads in (0, -4):  # a one-bit flip of a checkpoint's "heads": 2 gives 0
        with pytest.raises(ContractViolation):
            ModelConfig(arch="transformer", embed_dim=8, heads=heads)
    with pytest.raises(ContractViolation):
        ModelConfig(dropout=1.0)
    for sizes in ({"input_dim": 0}, {"embed_dim": 0}, {"max_len": 0}, {"vocab_size": -1},
                  {"hidden": (-3,)}, {"hidden": (8, 0)}, {"layers": -1}):
        for arch in ("mlp", "transformer"):
            with pytest.raises(ContractViolation, match=next(iter(sizes))):
                ModelConfig(arch=arch, **sizes)
    assert ModelConfig(hidden=()).hidden == () and ModelConfig(layers=0).layers == 0


def test_init_biases_zero_and_deterministic():
    p1 = init_params(MLP, Rng(5))
    p2 = init_params(MLP, Rng(5))
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
    assert np.array_equal(p1["layer0.bias"], np.zeros(8))
    assert np.array_equal(p1["layer2.bias"], np.zeros(3))


def test_init_weight_variance_matches_fan_in():
    cfg = ModelConfig(arch="mlp", input_dim=64, hidden=(160,), dropout=0.0)
    w = init_params(cfg, Rng(11))["layer0.weight"]  # 64*160 > 1e4 entries
    assert w.shape == (64, 160)
    assert abs(w.var() - 1.0 / 64) < 0.2 / 64


def test_shapes_are_pure_function_of_config():
    assert param_shapes(MLP) == param_shapes(MLP)
    names = list(param_shapes(TF))
    assert names[0] == "embed.table"
    assert "block0.attn.wq" in names and "head.weight" in names


def test_embed_identity_for_raw_vectors():
    params = init_params(MLP, Rng(1))
    x = np.array([[0.5, -1.0], [2.0, 3.0]])
    assert np.array_equal(embed(MLP, params, x), x)


def test_embed_token_lookup_and_shape():
    params = init_params(TF, Rng(2))
    e = embed(TF, params, np.array([[0, 0]]))
    assert e.shape == (1, 2, 8)
    row0 = params["embed.table"][0]
    assert np.array_equal(e[0, 0], row0)
    assert np.array_equal(e[0, 1], row0)


def test_embed_rejects_bad_tokens():
    params = init_params(TF, Rng(2))
    with pytest.raises(InputError):
        embed(TF, params, np.array([[0, 99]]))
    with pytest.raises(InputError):
        embed(TF, params, np.array([[0, -1]]))
    with pytest.raises(InputError):
        embed(TF, params, np.array([[0, 1, 2, 3, 4, 5, 6]]))  # exceeds max_len


def test_zero_params_give_uniform_probabilities():
    params = {name: np.zeros(shape) for name, shape in param_shapes(MLP).items()}
    p = forward(MLP, params, np.array([[1.0, -2.0]]))
    assert np.allclose(p, 1.0 / 3.0, atol=1e-15)


def test_simplex_property_random_params_and_inputs():
    for seed in range(3):
        params = init_params(MLP, Rng(seed))
        x = Rng(100 + seed).gaussian((7, 2), 2.0)
        p = forward(MLP, params, x)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    tp = init_params(TF, Rng(3))
    ids = np.array([[1, 2, 3], [4, 5, 6]])
    p = forward(TF, tp, ids)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_eval_deterministic_and_dropout_zero_matches_eval():
    params = init_params(MLP, Rng(7))
    x = Rng(8).gaussian((4, 2), 1.0)
    assert np.array_equal(forward(MLP, params, x), forward(MLP, params, x))
    nodrop = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                         hidden=(8, 8), dropout=0.0)
    assert np.array_equal(
        _train_forward(nodrop, params, x, draw_dropout_masks(nodrop, 4, [Rng(1)])),
        forward(nodrop, params, x))


def test_split_equals_fused_forward_bitwise():
    params = init_params(MLP, Rng(9))
    x = Rng(10).gaussian((5, 2), 1.0)
    assert np.array_equal(forward(MLP, params, x),
                          forward_from_embedding(MLP, params, embed(MLP, params, x)))
    tp = init_params(TF, Rng(11))
    ids = np.array([[0, 1, 2, 3]])
    assert np.array_equal(forward(TF, tp, ids),
                          forward_from_embedding(TF, tp, embed(TF, tp, ids)))


def test_dropout_zero_fraction_statistics():
    cfg = ModelConfig(arch="mlp", input_dim=2, hidden=(100,), dropout=0.3)
    rng = Rng(12)
    masks = draw_dropout_masks(cfg, 100, [rng])  # 1e4 entries
    frac = float(np.mean(masks[0] == 0.0))
    assert abs(frac - 0.3) < 0.02
    keep = masks[0][masks[0] > 0]
    assert np.allclose(keep, 1.0 / 0.7, atol=1e-15)


@pytest.mark.parametrize("config", [MLP, TF], ids=["mlp", "transformer"])
def test_stacked_dropout_masks_equal_each_runs_own_draws(config):
    """One grid draw per mask site gives every run the masks, and leaves it
    the counter, that its own stream gives it alone."""
    stacked_streams = [Rng(100 + i, i) for i in range(9)]
    solo_streams = [Rng(100 + i, i) for i in range(9)]
    for _ in range(3):  # consecutive updates
        stacked = draw_dropout_masks(config, 7, stacked_streams)
        solo = [draw_dropout_masks(config, 7, [r]) for r in solo_streams]
        assert len(stacked) == len(solo[0])
        for site, mask in enumerate(stacked):
            assert np.array_equal(mask, np.concatenate([masks[site] for masks in solo]))
        assert [r.state() for r in stacked_streams] == [r.state() for r in solo_streams]


def test_shared_masks_make_train_forward_repeatable():
    params = init_params(MLP, Rng(13))
    x = Rng(14).gaussian((6, 2), 1.0)
    masks = [m[0] for m in draw_dropout_masks(MLP, 6, [Rng(15)])]  # a stack of one's slice
    a = _train_forward(MLP, params, x, masks)
    b = _train_forward(MLP, params, x, masks)
    assert np.array_equal(a, b)


def test_regression_output_is_scalar_per_example():
    cfg = ModelConfig(task="regression", arch="mlp", input_dim=3, hidden=(4,), dropout=0.0)
    params = init_params(cfg, Rng(16))
    out = forward(cfg, params, Rng(17).gaussian((5, 3), 1.0))
    assert out.shape == (5,)
    assert np.all(np.isfinite(out))


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = init_params(TF, Rng(19))
    path = str(tmp_path / "model.json")
    save_train_checkpoint(path, init_train_state(TF, [TrainConfig()], [params], smart=False))
    cfg2, params2 = load_params(path)
    assert cfg2 == TF
    for name in params:
        assert np.array_equal(params[name], params2[name])


def test_checkpoint_rejects_unknown_version_and_truncation(tmp_path):
    params = init_params(MLP, Rng(20))
    path = str(tmp_path / "model.json")
    save_train_checkpoint(path, init_train_state(MLP, [TrainConfig()], [params], smart=False))
    text = open(path).read()
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(text.replace('"version": 1', '"version": 99', 1))
    with pytest.raises(CheckpointError, match="version"):
        load_params(bad)
    trunc = str(tmp_path / "trunc.json")
    with open(trunc, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_params(trunc)
    renamed = str(tmp_path / "renamed.json")
    with open(renamed, "w") as fh:
        fh.write(text.replace('"layer2.bias"', '"layer2.bia3"', 1))
    with pytest.raises(CheckpointError, match="not the config's blocks"):
        load_params(renamed)
    with open(bad, "wb") as fh:  # a byte that is not UTF-8
        fh.write(text.encode().replace(b"layer", b"l\xe1yer", 1))
    with pytest.raises(CheckpointError, match="utf-8"):
        load_params(bad)


def test_position_table_is_built_once_read_only_and_equal_to_the_formula():
    table = sinusoidal_positions(8, 16)
    assert sinusoidal_positions(8, 16) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert np.array_equal(table, ref_sinusoidal_positions(8, 16))
    assert np.array_equal(sinusoidal_positions(6, 8), ref_sinusoidal_positions(6, 8))
