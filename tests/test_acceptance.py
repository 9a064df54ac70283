"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see every line. The heavy
behavioral criteria (5 and 6) train dozens of models and dominate the runtime.
"""

import dataclasses
import os
import time

import numpy as np

from smoothtune import trainer
from smoothtune.adversarial import AdvConfig, PassCounters, find_adversarial
from smoothtune.cli import main as cli_main
from smoothtune.data import gen_cluster_classification, gen_two_moons, subsample_splits
from smoothtune.evaluate import accuracy, local_smoothness_probe
from smoothtune.losses import smooth_loss_rows
from smoothtune.model import (
    ModelConfig,
    flatten_params,
    forward,
    forward_from_embedding,
    init_params,
)
from smoothtune.optimizer import (
    ProxConfig,
    adam_step,
    beta_at,
    clip_gradients,
    global_grad_norm,
    init_adam,
    teacher_update,
)
from smoothtune.tensor import Rng
from smoothtune.trainer import (
    TrainConfig,
    build_iteration_objective,
    continue_training,
    expected_pass_counts,
    init_train_state,
    records_csv_lines,
    resume_training,
    save_train_checkpoint,
    smooth_finetune,
    vanilla_finetune,
)

from oracles import central_diff, grid_oracle_max


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num} ({name}): {status} -- {detail}")


def _params_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


# -------------------------------------------------------------------------
# 1. Gradient fidelity of the full objective
# -------------------------------------------------------------------------

def _fidelity_fixture(i):
    r = Rng(7000 + i)
    kind = i % 5
    if kind == 4:
        model = ModelConfig(task="classification", classes=2, arch="transformer",
                            embed_dim=8, heads=2, layers=1, max_len=4, vocab_size=8,
                            dropout=0.0)
        xs = np.floor(Rng(7100 + i).uniform((4, 4)) * 8).astype(np.int64)
        ys = np.array([0, 1, 0, 1])
    elif kind == 3:
        model = ModelConfig(task="regression", arch="mlp", input_dim=3,
                            hidden=(6,), dropout=0.0)
        xs = Rng(7100 + i).gaussian((4, 3), 1.0)
        ys = Rng(7200 + i).gaussian((4,), 1.0)
    else:
        hidden = [(), (8,), (6, 4)][kind]
        model = ModelConfig(task="classification", classes=3, arch="mlp",
                            input_dim=2, hidden=hidden, dropout=0.0)
        xs = Rng(7100 + i).gaussian((4, 2), 1.0)
        ys = np.array([0, 1, 2, 0])
    params = init_params(model, r)
    teacher = init_params(model, Rng(7300 + i))
    return model, params, teacher, xs, ys


def _objective(model, cfg, params, teacher, xs, ys, rng):
    return build_iteration_objective(model, cfg, params, teacher, xs, ys, smart=True,
                                     noise_rng=[rng], counters=PassCounters())


def test_criterion_1_gradient_fidelity(monkeypatch):
    start = time.time()
    cfg = TrainConfig(reg_weight=3.0,
                      adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                      prox=ProxConfig(prox_weight=1.0, mode="mbpp"),
                      outer_steps=1, batch_size=4, peak_lr=1e-3, seed=0)
    worst = 0.0
    for i in range(20):
        model, params, teacher, xs, ys = _fidelity_fixture(i)
        n_params = sum(b.size for b in params.values())
        assert n_params <= 1000, f"fixture {i} has {n_params} parameters"
        x_adv = _objective(model, cfg, params, teacher, xs, ys, Rng(7400 + i)).adversarial

        def value():
            rebuilt = _objective(model, cfg, params, teacher, xs, ys, Rng(7400 + i))
            return float(rebuilt.total.value)

        with monkeypatch.context() as patch:  # every objective below is taken at x_adv
            patch.setattr(trainer, "find_adversarial", lambda *args: x_adv)
            obj = _objective(model, cfg, params, teacher, xs, ys, Rng(7400 + i))
            grads = obj.tape.backward(obj.total)
            fd = central_diff(value, list(params.values()))
        for (name, leaf), g_fd in zip(obj.pvars.items(), fd):
            err = np.abs(grads[leaf] - g_fd)
            bound = 1e-8 + 1e-4 * np.abs(g_fd)
            assert np.all(err <= bound), (
                f"fixture {i} block {name}: worst excess {np.max(err - bound):.2e}"
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(np.abs(g_fd) > 1e-8, err / np.abs(g_fd), 0.0)
            worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - start
    ok = elapsed < 120
    _report(1, "gradient fidelity", ok,
            f"20 fixtures, worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 2 minutes"


# -------------------------------------------------------------------------
# 2. Exact reduction to the baseline
# -------------------------------------------------------------------------

def test_criterion_2_exact_reduction():
    start = time.time()
    zero = TrainConfig(reg_weight=0.0,
                       adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                       prox=ProxConfig(prox_weight=0.0, mode="mbpp"),
                       outer_steps=25, batch_size=10, peak_lr=0.01, seed=0)
    checked = 0
    for seed in (0, 1, 2):
        moons = gen_two_moons(30, 0.2, seed=seed)
        mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                          hidden=(8,), dropout=0.1)
        cfg = dataclasses.replace(zero, seed=seed)
        [a] = smooth_finetune(mlp, [cfg], [moons], [init_params(mlp, Rng(seed))])
        [b] = vanilla_finetune(mlp, [cfg], [moons], [init_params(mlp, Rng(seed))])
        assert _params_equal(a.params, b.params)
        assert a.records == b.records
        assert records_csv_lines(a.records) == records_csv_lines(b.records)
        checked += 1

        from smoothtune.data import gen_token_sequences
        toks = gen_token_sequences(24, vocab=5, length=4, seed=50 + seed)
        tf = ModelConfig(task="classification", classes=5, arch="transformer",
                         embed_dim=8, heads=2, layers=1, max_len=4, vocab_size=5,
                         dropout=0.1)
        [ta] = smooth_finetune(tf, [cfg], [toks], [init_params(tf, Rng(seed))])
        [tb] = vanilla_finetune(tf, [cfg], [toks], [init_params(tf, Rng(seed))])
        assert _params_equal(ta.params, tb.params)
        assert ta.records == tb.records
        checked += 1
    elapsed = time.time() - start
    ok = elapsed < 60
    _report(2, "exact reduction", ok,
            f"{checked} seed/architecture pairs bitwise identical, {elapsed:.1f}s")
    assert ok


# -------------------------------------------------------------------------
# 3. Constraint audit over a full run
# -------------------------------------------------------------------------

def test_criterion_3_constraint_audit(monkeypatch):
    moons = gen_two_moons(60, 0.25, seed=42)
    mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(16, 16), dropout=0.1)
    cfg = TrainConfig(reg_weight=3.0,
                      adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                      prox=ProxConfig(prox_weight=1.0, mode="mbpp"),
                      outer_steps=500, batch_size=20, peak_lr=0.01, seed=5)
    violations = []
    searches = []  # the farthest point of each search from its embedding
    search = trainer.find_adversarial

    def watched(model_cfg, params, emb, clean, adv, *rest):
        found = search(model_cfg, params, emb, clean, adv, *rest)
        searches.append(float(np.abs(found - emb).max()))
        if searches[-1] > adv.eps + 1e-12:
            violations.append((len(searches), searches[-1]))
        return found

    monkeypatch.setattr(trainer, "find_adversarial", watched)
    smooth_finetune(mlp, [cfg], [moons], [init_params(mlp, Rng(6))])
    ok = len(searches) == 500 and not violations
    _report(3, "constraint audit", ok,
            f"{len(searches)} searches, {len(violations)} violations")
    assert ok


# -------------------------------------------------------------------------
# 4. Inner-max quality against the exhaustive grid oracle
# -------------------------------------------------------------------------

def test_criterion_4_inner_max_quality():
    # Fixture: 2-input linear-softmax models, isotropic parameter draws
    # (weights N(0,1), biases N(0, 0.25)), probe input N(0,1); eps = 0.1,
    # ascent with the mandated normalized-gradient rule, 10 steps of eps/5.
    linear = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                         hidden=(), dropout=0.0)
    eps = 0.1
    cfg = AdvConfig(eps=eps, noise_std=eps / 10, step_size=eps / 5, steps=10)
    ratios = []
    for draw in range(20):
        r = Rng(draw)
        weights = r.gaussian((2, 2), 1.0)
        bias = r.gaussian((2,), 0.5)
        x = r.gaussian((2,), 1.0)
        params = {"layer0.weight": weights, "layer0.bias": bias}
        oracle = grid_oracle_max(weights, bias, x, eps)
        clean = forward_from_embedding(linear, params, x[None, :])
        found = find_adversarial(linear, params, x[None, :], clean, cfg,
                                 [Rng(100 + draw)], None, PassCounters())
        attained = float(smooth_loss_rows(
            "classification", forward_from_embedding(linear, params, found), clean)[0])
        ratios.append(attained / oracle if oracle > 0 else 1.0)
    n_ok = sum(r >= 0.9 for r in ratios)
    ok = n_ok == 20
    _report(4, "inner-max quality", ok,
            f"{n_ok}/20 draws reached 90% of the grid optimum; "
            f"ratios min={min(ratios):.3f} median={float(np.median(ratios)):.3f}")
    assert ok, (
        "Normalized-gradient ascent with step eps/5 and 10 iterations cannot "
        "reach 90% of the exhaustive-grid optimum on every isotropic draw: "
        "once the dominant coordinate hits the ball face, tangential progress "
        "per step is the step size times the gradient's coordinate ratio, "
        "which bounds the reachable level at ~90% of the optimum in the "
        "least-favorable direction band (~81% of the optimum value in the "
        "quadratic regime), and the noisy start picks one ascent side of a "
        "locally symmetric landscape, which for biased clean points is the "
        "weaker side about half the time. Both limits are properties of the "
        "mandated update rule, not of this implementation; see the decisions "
        f"ledger. Measured ratios: {[round(r, 3) for r in ratios]}"
    )


# -------------------------------------------------------------------------
# 5. Boundary-smoothness analog on two moons
# -------------------------------------------------------------------------

def test_criterion_5_smoothness_analog():
    start = time.time()
    mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(16, 16), dropout=0.0)
    seeds = range(10)
    trains = [gen_two_moons(40, 0.25, seed=1000 + seed) for seed in seeds]
    tests = [gen_two_moons(1000, 0.25, seed=2000 + seed) for seed in seeds]
    inits = [init_params(mlp, Rng(seed)) for seed in seeds]
    base = dict(outer_steps=800, batch_size=20, peak_lr=0.03)
    scfg = TrainConfig(reg_weight=3.0,
                       adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                       prox=ProxConfig(prox_weight=1.0, mode="mbpp"), **base)
    vcfg = TrainConfig(reg_weight=0.0, adv=scfg.adv,
                       prox=ProxConfig(prox_weight=0.0, mode="mbpp"), **base)
    # every run takes batches of 20, so each method trains its 10 seeds as one stack
    arms = {"s": smooth_finetune(mlp, [dataclasses.replace(scfg, seed=seed) for seed in seeds],
                                 trains, inits),
            "v": vanilla_finetune(mlp, [dataclasses.replace(vcfg, seed=seed) for seed in seeds],
                                  trains, inits)}
    probes = {arm: [local_smoothness_probe(mlp, r.params, ds, 0.1, 64, seed=9)
                    for r, ds in zip(results, trains)] for arm, results in arms.items()}
    accs = {arm: [accuracy(mlp, r.params, ds) for r, ds in zip(results, tests)]
            for arm, results in arms.items()}
    ps, pv = float(np.median(probes["s"])), float(np.median(probes["v"]))
    as_, av = float(np.median(accs["s"])), float(np.median(accs["v"]))
    elapsed = time.time() - start
    ok = ps <= 0.5 * pv and as_ >= av and elapsed < 600
    _report(5, "smoothness analog", ok,
            f"probe {ps:.4f} vs {pv:.4f} (ratio {ps / pv:.3f} <= 0.5), "
            f"test acc {as_:.3f} vs {av:.3f}, {elapsed:.0f}s")
    assert ps <= 0.5 * pv, f"probe ratio {ps / pv:.3f} > 0.5"
    assert as_ >= av, f"median accuracy {as_:.3f} < {av:.3f}"
    assert elapsed < 600


# -------------------------------------------------------------------------
# 6. Low-resource trend on cluster classification
# -------------------------------------------------------------------------

def test_criterion_6_low_resource_trend():
    start = time.time()
    mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(64, 64), dropout=0.0)
    fracs = (0.01, 0.1, 1.0)
    tests, runs = [], []  # runs: (fraction, seed, split)
    for seed in range(10):
        full = gen_cluster_classification(10_000, 2, 2, 1.6, 0.8, seed=500 + seed)
        tests.append(gen_cluster_classification(2_000, 2, 2, 1.6, 0.8, seed=7700 + seed))
        splits = subsample_splits(full, list(fracs), seed=31 + seed)
        runs += [(frac, seed, ds) for frac, ds in zip(fracs, splits)]
    base = dict(outer_steps=800, batch_size=16, peak_lr=0.05)
    scfg = TrainConfig(reg_weight=3.0,
                       adv=AdvConfig(eps=0.3, noise_std=0.01, step_size=0.06, steps=1),
                       prox=ProxConfig(prox_weight=1.0, mode="mbpp"), **base)
    vcfg = TrainConfig(reg_weight=0.0, adv=scfg.adv,
                       prox=ProxConfig(prox_weight=0.0, mode="mbpp"), **base)
    # even the 1% split holds 100 examples, so every run takes batches of 16
    # and each method trains its 30 runs as one stack
    inits = [init_params(mlp, Rng(seed)) for _, seed, _ in runs]
    splits = [ds for _, _, ds in runs]
    arms = {"s": smooth_finetune(mlp, [dataclasses.replace(scfg, seed=seed)
                                       for _, seed, _ in runs], splits, inits),
            "v": vanilla_finetune(mlp, [dataclasses.replace(vcfg, seed=seed)
                                        for _, seed, _ in runs], splits, inits)}
    acc = {f: {"s": [], "v": []} for f in fracs}
    for arm, results in arms.items():
        for (frac, seed, _), result in zip(runs, results):
            acc[frac][arm].append(accuracy(mlp, result.params, tests[seed]))
    med = {f: (float(np.median(acc[f]["s"])), float(np.median(acc[f]["v"])))
           for f in fracs}
    elapsed = time.time() - start
    ok = med[0.01][0] >= med[0.01][1] and med[0.1][0] >= med[0.1][1] and elapsed < 900
    detail = ", ".join(f"{f:g}: {m[0]:.4f} vs {m[1]:.4f}" for f, m in med.items())
    _report(6, "low-resource trend", ok, f"regularized vs baseline {detail}, {elapsed:.0f}s")
    assert med[0.01][0] >= med[0.01][1], f"1% split: {med[0.01]}"
    assert med[0.1][0] >= med[0.1][1], f"10% split: {med[0.1]}"
    assert elapsed < 900


# -------------------------------------------------------------------------
# 7. Trust-region strength orders final divergence from the start
# -------------------------------------------------------------------------

def test_criterion_7_trust_region_effect():
    mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(16, 16), dropout=0.0)
    seeds = range(10)
    trains = [gen_two_moons(200, 0.2, seed=100 + seed) for seed in seeds]
    helds = [gen_two_moons(400, 0.2, seed=900 + seed) for seed in seeds]
    inits = [init_params(mlp, Rng(seed)) for seed in seeds]
    values = {}
    for mu in (0.0, 1.0, 100.0):
        # every run takes batches of 32, so each mu trains its 10 seeds as one stack
        cfgs = [TrainConfig(reg_weight=0.0,
                            adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                            prox=ProxConfig(prox_weight=mu, mode="mbpp"),
                            outer_steps=250, batch_size=32, peak_lr=0.02, seed=seed)
                for seed in seeds]
        results = smooth_finetune(mlp, cfgs, trains, inits)
        # mean symmetrized KL between the final and the starting outputs
        values[mu] = [float(np.mean(smooth_loss_rows(
            "classification", forward(mlp, res.params, held.inputs),
            forward(mlp, init, held.inputs)))) for res, held, init in zip(results, helds, inits)]
    med = {mu: float(np.median(v)) for mu, v in values.items()}
    ok = med[0.0] > med[1.0] > med[100.0]
    _report(7, "trust-region effect", ok,
            f"median divergence from start: mu=0: {med[0.0]:.4g}, "
            f"mu=1: {med[1.0]:.4g}, mu=100: {med[100.0]:.4g}")
    assert ok


# -------------------------------------------------------------------------
# 8. Unit exactness
# -------------------------------------------------------------------------

def test_criterion_8_unit_exactness():
    # first ADAM step closed form
    params = np.array([0.0])
    state = init_adam(params)
    adam_step(state, params, np.array([0.5]), 0.01)
    adam_err = abs(params[0] - (-0.01 * 0.5 / (0.5 + 1e-8)))
    assert adam_err < 1e-12

    # teacher EMA geometric contraction, on the trainer's flat layout
    mlp = ModelConfig(arch="mlp", input_dim=2, hidden=(4,), dropout=0.0)
    current, teacher = (flatten_params(init_params(mlp, Rng(seed)))[0] for seed in (1, 2))
    gap0 = np.max(np.abs(teacher - current))
    ema_err = 0.0
    for k in range(1, 10):
        teacher_update(teacher, current, 0.99)
        gap = np.max(np.abs(teacher - current))
        ema_err = max(ema_err, abs(gap - 0.99 ** k * gap0))
    assert ema_err < 1e-10

    # clipping preserves direction with a single scalar
    grads = {"a": Rng(3).gaussian((5,), 3.0)[None], "b": Rng(4).gaussian((4,), 3.0)[None]}
    clipped = {n: g.copy() for n, g in grads.items()}
    norm = global_grad_norm(grads.values())
    clip_gradients(list(clipped.values()), 1.0, norm)
    scale = 1.0 / norm[0]
    dir_err = max(np.max(np.abs(clipped[n] - grads[n] * scale)) for n in grads)
    assert global_grad_norm(clipped.values())[0] <= 1.0 + 1e-12
    assert dir_err < 1e-15

    # symmetrized-KL fixtures against 40-digit oracle evaluations
    # ([1, 0], [0.5, 0.5]) is 6 ln 10: ln 2 plus the reverse KL with log(0) clamped
    rows = smooth_loss_rows("classification", np.array([[0.5, 0.5], [1.0, 0.0]]),
                            np.array([[0.9, 0.1], [0.5, 0.5]]))
    sym_err = abs(rows[0] - 0.8788898309344878)
    kl_err = abs(rows[1] - 13.815510557964274)
    assert sym_err < 1e-6 and kl_err < 1e-6

    # momentum schedule boundary inclusive on the early side
    prox = ProxConfig(prox_weight=1.0, mode="mbpp")
    assert beta_at(10, 100, prox) == 0.99
    assert beta_at(11, 100, prox) == 0.999

    _report(8, "unit exactness", True,
            f"adam {adam_err:.1e}, ema {ema_err:.1e}, clip {dir_err:.1e}, "
            f"sym_kl {sym_err:.1e}, boundary exact")


# -------------------------------------------------------------------------
# 9. Pass-count accounting
# -------------------------------------------------------------------------

def test_criterion_9_overhead_accounting():
    moons = gen_two_moons(30, 0.2, seed=3)
    mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(8,), dropout=0.1)
    cfg = TrainConfig(reg_weight=3.0,
                      adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                      prox=ProxConfig(prox_weight=1.0, mode="mbpp"),
                      outer_steps=30, batch_size=10, peak_lr=0.01, seed=4)
    init = init_params(mlp, Rng(5))
    [smart] = smooth_finetune(mlp, [cfg], [moons], [init])
    [plain] = vanilla_finetune(mlp, [cfg], [moons], [init])

    sf, sb = expected_pass_counts(cfg, True)
    vf, vb = expected_pass_counts(cfg, False)
    assert (sf, sb) == (4, 2) and (vf, vb) == (1, 1)
    ok = (smart.state.counters.forwards == 30 * sf
          and smart.state.counters.backwards == 30 * sb
          and plain.state.counters.forwards == 30 * vf
          and plain.state.counters.backwards == 30 * vb)
    extra_f, extra_b = sf - vf, sb - vb
    _report(9, "overhead accounting", ok,
            f"per update: regularized {sf}F/{sb}B vs baseline {vf}F/{vb}B "
            f"=> +{extra_f} forwards (matches the reported +3) and +{extra_b} "
            f"backward (reported +3: this loop differentiates the combined "
            f"objective once instead of once per term, so only the input-"
            f"gradient backward is extra)")
    assert ok
    assert extra_f == 3
    assert extra_b == 1  # documented discrepancy with the +3 claim


# -------------------------------------------------------------------------
# 10. Determinism and resume
# -------------------------------------------------------------------------

def test_criterion_10_determinism_and_resume(tmp_path):
    moons = gen_two_moons(36, 0.2, seed=8)
    mlp = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(8,), dropout=0.1)
    cfg = TrainConfig(reg_weight=2.0,
                      adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
                      prox=ProxConfig(prox_weight=1.0, mode="mbpp"),
                      outer_steps=20, batch_size=12, peak_lr=0.01, seed=9)
    init = init_params(mlp, Rng(10))
    [full] = smooth_finetune(mlp, [cfg], [moons], [init])

    state = init_train_state(mlp, [cfg], [init], smart=True)
    [head] = continue_training(state, [moons], stop_after=8)
    ckpt = str(tmp_path / "mid.json")
    save_train_checkpoint(ckpt, state)
    [tail] = resume_training(ckpt, [moons])
    resume_ok = (_params_equal(tail.params, full.params)
                 and head.records + tail.records == full.records)

    # byte-for-byte file reproducibility through the command-line surface
    train_file = str(tmp_path / "train.jsonl")
    test_file = str(tmp_path / "test.jsonl")
    for target, seed in ((train_file, 21), (test_file, 22)):
        assert cli_main(["gen-data", "--generator", "two-moons", "--n", "40",
                         "--noise", "0.25", "--seed", str(seed),
                         "--out", target]) == 0
    dup = str(tmp_path / "dup.jsonl")
    assert cli_main(["gen-data", "--generator", "two-moons", "--n", "40",
                     "--noise", "0.25", "--seed", "21", "--out", dup]) == 0
    gen_ok = open(train_file, "rb").read() == open(dup, "rb").read()

    ini = tmp_path / "run.ini"
    ini.write_text(f"""
[model]
task = classification
classes = 2
arch = mlp
input_dim = 2
hidden = 8
dropout = 0.1

[smart]
method = smooth
reg_weight = 2.0
eps = 0.1
noise_std = 0.01
step_size = 0.02
outer_steps = 15
batch_size = 10
peak_lr = 0.01

[data]
train = {train_file}
test = {test_file}

[run]
seed = 3
out = unused
""")
    outs = [str(tmp_path / "runA"), str(tmp_path / "runB")]
    for out in outs:
        assert cli_main(["train", "--config", str(ini), "--out", out]) == 0
    files_ok = True
    for name in ("records.csv", "metrics.json", "checkpoint_final.json"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        files_ok = files_ok and a == b
    ok = resume_ok and gen_ok and files_ok
    _report(10, "determinism and resume", ok,
            f"resume bitwise: {resume_ok}, dataset bytes: {gen_ok}, "
            f"run output bytes: {files_ok}")
    assert ok
