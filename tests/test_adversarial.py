import numpy as np
import pytest

from smoothtune.adversarial import (
    AdvConfig,
    PassCounters,
    _normalize_rows,
    _project_rows,
    find_adversarial,
)
from smoothtune.errors import ContractViolation
from smoothtune.losses import smooth_loss_rows
from smoothtune.model import ModelConfig, forward_from_embedding, init_params
from smoothtune.optimizer import ProxConfig
from smoothtune.tensor import Rng
from smoothtune.trainer import TrainConfig, build_iteration_objective

from oracles import grid_oracle_max

LINEAR = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                     hidden=(), dropout=0.0)


def test_config_validation_and_sigma_warning():
    with pytest.raises(ContractViolation):
        AdvConfig(eps=-0.1)
    with pytest.raises(ContractViolation):
        AdvConfig(norm="one")
    with pytest.warns(UserWarning):
        AdvConfig(eps=0.01, noise_std=0.05)
    with pytest.raises(ContractViolation) as both:
        AdvConfig(eps=-1.0, steps=-1)
    assert str(both.value) == ("eps: must be finite and >= 0, got -1.0; "
                               "steps: must be >= 0, got -1")


def _project(x_tilde, x, eps, norm):
    return _project_rows(np.array([x_tilde]), np.array([x]), eps, norm, 1)[0]


def _direction(grad, norm):
    return _normalize_rows(np.array([grad]), norm, 1)[0]


def test_project_ball_inf_clamps():
    out = _project([0.25, -0.05, 0.1], np.zeros(3), 0.1, "inf")
    assert np.array_equal(out, [0.1, -0.05, 0.1])


def test_project_ball_identity_inside():
    x = np.array([1.0, 2.0])
    inside = np.array([1.05, 1.97])
    assert np.array_equal(_project(inside, x, 0.1, "inf"), inside)
    assert np.array_equal(_project(inside, x, 0.2, "two"), inside)


def test_project_ball_l2_rescale():
    out = _project([3.0, 4.0], np.zeros(2), 1.0, "two")
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)
    assert np.sqrt(np.sum(out * out)) <= 1.0 + 1e-15


def test_normalized_direction():
    out = _direction([2.0, -4.0], "inf")
    assert np.array_equal(out, [0.5, -1.0])
    g = Rng(1).gaussian((5,), 1.0)
    base = _direction(g, "inf")
    for c in (0.5, 3.0, 1e6):
        assert np.allclose(_direction(c * g, "inf"), base, atol=1e-12)
    assert np.array_equal(_direction(np.zeros(4), "inf"), np.zeros(4))
    l2 = _direction([3.0, 4.0], "two")
    assert np.allclose(l2, [0.6, 0.8], atol=1e-15)


def _find(params, x, clean, cfg, rng):
    return find_adversarial(LINEAR, params, x, clean, cfg, [rng], None, PassCounters())


def _setup(seed=0, n=4):
    params = init_params(LINEAR, Rng(seed))
    x = Rng(100 + seed).gaussian((n, 2), 1.0)
    clean = forward_from_embedding(LINEAR, params, x)
    return params, x, clean


def test_degenerate_ball_returns_input_exactly():
    params, x, clean = _setup()
    cfg = AdvConfig(eps=0.0, noise_std=0.0, step_size=0.01, steps=3)
    out = _find(params, x, clean, cfg, Rng(5))
    assert np.array_equal(out, x)
    cfg0 = AdvConfig(eps=0.1, noise_std=0.0, step_size=0.01, steps=0)
    assert np.array_equal(_find(params, x, clean, cfg0, Rng(5)), x)


@pytest.mark.parametrize("norm", ["inf", "two"])
def test_ball_feasibility_every_example(norm):
    for seed in range(3):
        params, x, clean = _setup(seed, n=6)
        cfg = AdvConfig(eps=0.05, noise_std=0.05, step_size=0.02, steps=7, norm=norm)
        out = _find(params, x, clean, cfg, Rng(40 + seed))
        d = out - x
        if norm == "inf":
            per = np.abs(d).max(axis=1)
        else:
            per = np.sqrt((d * d).sum(axis=1))
        assert np.all(per <= 0.05 + 1e-12)


def test_one_step_improves_on_noise_only_fixture():
    # same noise draw, one ascent step versus none
    params, x, clean = _setup(2, n=5)
    base = AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=0)
    one = AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1)
    x0 = _find(params, x, clean, base, Rng(7))
    x1 = _find(params, x, clean, one, Rng(7))
    v0 = smooth_loss_rows("classification",
                          forward_from_embedding(LINEAR, params, x0), clean).mean()
    v1 = smooth_loss_rows("classification",
                          forward_from_embedding(LINEAR, params, x1), clean).mean()
    assert v1 >= v0


def test_search_beats_plain_noise_against_grid_oracle():
    # ascent should recover a large share of the exhaustive-grid optimum,
    # far beyond what the random start alone reaches
    ratios, noise_ratios = [], []
    for draw in range(10):
        rng = Rng(4000 + draw)
        W = rng.gaussian((2, 3), 1.0)
        b = rng.gaussian((3,), 0.5)
        params = {"layer0.weight": W, "layer0.bias": b}
        x = rng.gaussian((2,), 1.0)
        oracle = grid_oracle_max(W, b, x, 0.1)
        clean = forward_from_embedding(LINEAR, params, x[None, :])
        cfg = AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=10)
        found = _find(params, x[None, :], clean, cfg, Rng(77 + draw))
        att = smooth_loss_rows("classification",
                               forward_from_embedding(LINEAR, params, found), clean)[0]
        plain = _find(params, x[None, :], clean,
                      AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=0),
                      Rng(77 + draw))
        natt = smooth_loss_rows("classification",
                                forward_from_embedding(LINEAR, params, plain), clean)[0]
        ratios.append(att / oracle)
        noise_ratios.append(natt / oracle)
    assert np.median(ratios) >= 0.5
    assert np.median(ratios) > 10 * np.median(noise_ratios)


def _smoothness_objective(seed, n, adv):
    """The training objective with only its smoothness term: the penalty's
    value and the adversarial points it was taken at."""
    mcfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                       hidden=(6,), dropout=0.0)
    params = init_params(mcfg, Rng(seed))
    x = Rng(seed + 1).gaussian((n, 2), 1.0)
    cfg = TrainConfig(reg_weight=1.0, adv=adv, prox=ProxConfig(prox_weight=0.0))
    obj = build_iteration_objective(mcfg, cfg, params, None, x, np.zeros(n, dtype=np.int64),
                                    smart=True, noise_rng=[Rng(seed + 2)],
                                    counters=PassCounters())
    return float(obj.reg.value), obj.adversarial, x


def test_regularizer_nonnegative_and_returns_feasible_points():
    cfg = AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=2)
    value, pts, x = _smoothness_objective(3, 8, cfg)
    assert value >= 0.0
    assert np.all(np.abs(pts - x).max(axis=1) <= 0.1 + 1e-12)


def test_zero_radius_collapse_value_exact_zero():
    cfg = AdvConfig(eps=0.0, noise_std=0.0, step_size=0.02, steps=1)
    value, pts, x = _smoothness_objective(6, 5, cfg)
    assert value == 0.0
    assert np.array_equal(pts, x)
