import numpy as np
import pytest

from smoothtune.data import Dataset, gen_two_moons
from smoothtune import model as mdl
from smoothtune.errors import ContractViolation, InputError
from smoothtune.evaluate import (
    accuracy,
    agreement_cross_entropy,
    decision_boundary_grid,
    local_smoothness_probe,
    task_metric,
)
from smoothtune.model import ModelConfig, init_params, param_shapes
from smoothtune.tensor import Rng

from oracles import grid_oracle_max

LN3 = 1.0986122886681098
NEG_LN_07 = 0.35667494393873245


def _vector_ds(xs, ys, soft=None):
    return Dataset(np.asarray(xs, dtype=float), np.asarray(ys), soft)


def _fixed_output_model(probs):
    """Linear-softmax params emitting the given distribution for every input."""
    k = len(probs)
    return {"layer0.weight": np.zeros((2, k)),
            "layer0.bias": np.log(np.asarray(probs))}


def test_accuracy_perfect_and_tie_break():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(), dropout=0.0)
    # weights that push class 0 for x0 < 0 and class 1 for x0 > 0
    params = {"layer0.weight": np.array([[-1.0, 1.0], [0.0, 0.0]]),
              "layer0.bias": np.zeros(2)}
    ds = _vector_ds([[-1.0, 0.0], [2.0, 1.0]], [0, 1])
    assert accuracy(cfg, params, ds) == 1.0
    # constant-uniform model ties every row; argmax resolves to class 0
    uniform = {"layer0.weight": np.zeros((2, 2)), "layer0.bias": np.zeros(2)}
    mixed = _vector_ds([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0, 0, 1])
    assert accuracy(cfg, uniform, mixed) == pytest.approx(2.0 / 3.0)


def test_agreement_one_hot_soft_label():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(), dropout=0.0)
    params = _fixed_output_model([0.7, 0.3])
    soft = np.array([[1.0, 0.0]])
    ds = _vector_ds([[0.3, -0.2]], [0], soft=soft)
    assert abs(agreement_cross_entropy(cfg, params, ds) - NEG_LN_07) < 1e-9


def test_agreement_entropy_floor_at_exact_match():
    cfg = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                      hidden=(), dropout=0.0)
    params = {"layer0.weight": np.zeros((2, 3)), "layer0.bias": np.zeros(3)}
    soft = np.full((4, 3), 1.0 / 3.0)
    ds = _vector_ds(Rng(1).gaussian((4, 2), 1.0), [0, 1, 2, 0], soft=soft)
    value = agreement_cross_entropy(cfg, params, ds)
    assert abs(value - LN3) < 1e-9


def test_agreement_floor_property_random_fixtures():
    cfg = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                      hidden=(6,), dropout=0.0)
    rng = Rng(2)
    for seed in range(5):
        params = init_params(cfg, Rng(10 + seed))
        xs = rng.gaussian((12, 2), 1.0)
        raw = rng.uniform((12, 3)) + 1e-3
        soft = raw / raw.sum(axis=1, keepdims=True)
        ds = _vector_ds(xs, np.zeros(12, dtype=int), soft=soft)
        value = agreement_cross_entropy(cfg, params, ds)
        entropy = float(-np.mean(np.sum(soft * np.log(soft), axis=1)))
        assert value >= entropy - 1e-12


def test_agreement_requires_soft_labels():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(), dropout=0.0)
    ds = _vector_ds([[0.0, 0.0]], [0])
    with pytest.raises(InputError):
        agreement_cross_entropy(cfg, _fixed_output_model([0.5, 0.5]), ds)


def test_probe_zero_radius_and_constant_model():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(8,), dropout=0.0)
    ds = gen_two_moons(20, 0.1, seed=3)
    params = init_params(cfg, Rng(4))
    assert local_smoothness_probe(cfg, params, ds, 0.0, 8, seed=5) == 0.0
    constant = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    assert local_smoothness_probe(cfg, constant, ds, 0.5, 8, seed=6) == 0.0


@pytest.mark.parametrize("eps, samples", [
    (float("nan"), 8), (float("inf"), 8), (-0.1, 8), (0.1, 0),
])
def test_probe_refuses_a_bad_radius_or_sample_count(eps, samples):
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(8,), dropout=0.0)
    ds = gen_two_moons(10, 0.1, seed=3)
    with pytest.raises(InputError, match="finite eps >= 0"):
        local_smoothness_probe(cfg, init_params(cfg, Rng(4)), ds, eps, samples, seed=5)


def test_probe_monotone_in_radius():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(8,), dropout=0.0)
    ds = gen_two_moons(30, 0.15, seed=7)
    params = init_params(cfg, Rng(8))
    for seed in range(5):
        values = [local_smoothness_probe(cfg, params, ds, eps, 32, seed=seed)
                  for eps in (0.02, 0.1, 0.3)]
        assert values[0] <= values[1] <= values[2]


def test_probe_close_to_grid_oracle_on_linear_fixture():
    cfg = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                      hidden=(), dropout=0.0)
    for draw in range(3):
        rng = Rng(20 + draw)
        W = rng.gaussian((2, 3), 1.0)
        b = rng.gaussian((3,), 0.5)
        x = rng.gaussian((2,), 1.0)
        params = {"layer0.weight": W, "layer0.bias": b}
        ds = _vector_ds(x[None, :], [0])
        probe = local_smoothness_probe(cfg, params, ds, 0.1, 10_000, seed=draw)
        oracle = grid_oracle_max(W, b, x, 0.1)
        assert abs(probe - oracle) <= 0.05 * oracle


def test_boundary_grid_lattice_and_probabilities():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(4,), dropout=0.0)
    params = init_params(cfg, Rng(9))
    grid = decision_boundary_grid(cfg, params, (0.0, 1.0, 0.0, 1.0), 3)
    assert grid.shape == (9, 3)
    lattice = [0.0, 0.5, 1.0]
    expected = [(a, b) for a in lattice for b in lattice]
    assert np.allclose(grid[:, :2], expected, atol=1e-15)
    assert np.all((grid[:, 2] >= 0) & (grid[:, 2] <= 1))
    constant = {name: np.zeros_like(v) for name, v in params.items()}
    cgrid = decision_boundary_grid(cfg, constant, (0.0, 1.0, 0.0, 1.0), 4)
    assert np.allclose(cgrid[:, 2], 0.5, atol=1e-15)


@pytest.mark.parametrize("resolution", [2, 3, 101])
def test_boundary_grid_has_the_bits_of_the_pairs_it_lists(resolution):
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(4,), dropout=0.0)
    bounds = (-1.5, 2.5, -1.0, 1.5)
    grid = decision_boundary_grid(cfg, init_params(cfg, Rng(9)), bounds, resolution)
    xs, ys = np.linspace(-1.5, 2.5, resolution), np.linspace(-1.0, 1.5, resolution)
    pairs = np.array([[a, b] for a in xs for b in ys])  # x0 slowest, row-major
    assert np.array_equal(grid[:, :2].view(np.uint64), pairs.view(np.uint64))


def test_boundary_requires_2d_classifier():
    bad = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=3,
                      hidden=(), dropout=0.0)
    params = init_params(bad, Rng(10))
    with pytest.raises(InputError):
        decision_boundary_grid(bad, params, (0, 1, 0, 1), 3)


@pytest.mark.parametrize("metric", [
    accuracy, task_metric, agreement_cross_entropy,
    lambda cfg, params, ds: decision_boundary_grid(cfg, params, (0.0, 1.0, 0.0, 1.0), 2),
], ids=["accuracy", "task_metric", "agreement_cross_entropy", "decision_boundary_grid"])
def test_each_reading_of_the_outputs_refuses_a_non_finite_one_after_one_forward(
        monkeypatch, metric):
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(), dropout=0.0)
    ds = _vector_ds([[0.0, 0.0], [1.0, 1.0]], [0, 1], soft=np.full((2, 2), 0.5))
    calls = []

    def forward(*args, **kwargs):
        calls.append(len(args[2]))
        return np.array([[0.5, 0.5], [np.nan, np.nan]])

    monkeypatch.setattr(mdl, "forward", forward)
    with pytest.raises(ContractViolation, match="^non-finite model outputs$"):
        metric(cfg, _fixed_output_model([0.5, 0.5]), ds)
    assert len(calls) == 1
