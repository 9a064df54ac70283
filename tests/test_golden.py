"""Golden fingerprints: sha256 of the byte-reproducible outputs of three short
CLI runs and one sweep; each run resumed from a mid-run checkpoint must give
the same final checkpoint and metrics. `records.csv` and
`checkpoint_final.json` pin training;
`metrics.json` pins the forward-only passes (accuracy and the smoothness probe);
`sweep.csv` pins stacked sweep training. A change to any digest means the
numbers changed; such a change must be explained in CHANGES.md together with
the new digests. The digests hold for numpy's and OpenBLAS's code paths on the
CPU they were made on, so a mismatch prints the numerical environment."""

import hashlib

import numpy as np
import pytest

from smoothtune.cli import main

from numeric_env import OVERRIDES, numerical_environment

_MLP_MODEL = """
[model]
task = classification
classes = 2
arch = mlp
input_dim = 2
hidden = 8,8
dropout = 0.1
activation = tanh
"""

_TRANSFORMER_MODEL = """
[model]
task = classification
classes = 4
arch = transformer
embed_dim = 8
heads = 2
layers = 1
max_len = 6
vocab_size = 4
dropout = 0.1
activation = relu
"""

_SMART = """
[smart]
method = {method}
reg_weight = {reg}
eps = 0.1
noise_std = 0.01
step_size = 0.02
adv_steps = {steps}
norm = {norm}
prox_mode = {prox_mode}
prox_weight = {prox}
outer_steps = 16
batch_size = 10
peak_lr = 0.02
"""

_RUNS = {
    "mlp_smooth_mbpp": (_MLP_MODEL, dict(method="smooth", reg=2.0, steps=2, norm="inf",
                                         prox_mode="mbpp", prox=1.0), "moons"),
    "mlp_vanilla": (_MLP_MODEL, dict(method="vanilla", reg=0.0, steps=1, norm="inf",
                                     prox_mode="mbpp", prox=0.0), "moons"),
    "transformer_smooth_vbpp": (_TRANSFORMER_MODEL, dict(method="smooth", reg=3.0, steps=2,
                                                         norm="two", prox_mode="vbpp",
                                                         prox=1.0), "tokens"),
}

GOLDEN = {
    "mlp_smooth_mbpp": {
        "records.csv":
            "4fe96c933d8dcc28f06a7165e82d45d5486c9d3a5a42dca7a526b83bfe17e33d",
        "checkpoint_final.json":
            "392f0929ecc7b5b56858049164f9c5a6963c5d6387712396b2074bd10980656b",
        "metrics.json":
            "99c99acbd777e4726e877cea894748a8f2052d8d2713bf51d03b49b4dcc89198",
    },
    "mlp_vanilla": {
        "records.csv":
            "a7c44fd04208b2f7d5178d43156c7bdf4f09f966c3739ce7468b5b68654004e4",
        "checkpoint_final.json":
            "c7a5dc0c6f8568144febfe7b60c1fee126d7d252abb3cd21620b924b697633de",
        "metrics.json":
            "d2c1d8e23b7208432960c13473cd330de1060fc31b8a7ed79aa4eb7dab14ab92",
    },
    "transformer_smooth_vbpp": {
        "records.csv":
            "af6a18d4af2c34dc6d2695ed8be1fc9070436236293bc80fbbd759aef2c19419",
        "checkpoint_final.json":
            "c53e6d41098623fe95d1691d965f21c8e2665dc8aefefbdf295ce2ae415960c5",
        "metrics.json":
            "64af08fa5b2c5991c98df06b82df98d623f5d0892f6528f2f772b23ac39aae06",
    },
}


def _gen(path, *args):
    assert main(["gen-data", *args, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_data")
    return {
        "moons": (_gen(d / "moons_train.jsonl", "--generator", "two-moons", "--n", "40",
                       "--noise", "0.25", "--seed", "7"),
                  _gen(d / "moons_test.jsonl", "--generator", "two-moons", "--n", "20",
                       "--noise", "0.25", "--seed", "8")),
        "tokens": (_gen(d / "tokens_train.jsonl", "--generator", "tokens", "--n", "40",
                        "--vocab", "4", "--length", "6", "--seed", "7"),
                   _gen(d / "tokens_test.jsonl", "--generator", "tokens", "--n", "20",
                        "--vocab", "4", "--length", "6", "--seed", "8")),
    }


def _digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


_CASES = [(run, resumed) for resumed in (False, True) for run in sorted(_RUNS)]


@pytest.mark.parametrize("run, resumed", _CASES,
                         ids=[run + "-resumed" * resumed for run, resumed in _CASES])
def test_golden_fingerprints(run, resumed, datasets, tmp_path):
    """A resumed case trains with a checkpoint after step 9 of 16 (mid-epoch:
    4 batches of 10 per epoch) and resumes from it; its final checkpoint and
    metrics are the straight run's (its records.csv logs only the steps after
    the checkpoint)."""
    model, smart, data = _RUNS[run]
    train, test = datasets[data]
    cfg = tmp_path / "run.ini"
    cfg.write_text(model + _SMART.format(**smart)
                   + f"\n[data]\ntrain = {train}\ntest = {test}\n"
                   + f"\n[run]\nseed = 3\nout = {tmp_path / 'out'}\nprobe_samples = 4\n")
    resume = []
    if resumed:
        part = tmp_path / "part"
        assert main(["train", "--config", str(cfg), "--out", str(part),
                     "--set", "run.checkpoint_every=9"]) == 0
        resume = ["--resume", str(part / "checkpoint.json")]
    assert main(["train", "--config", str(cfg), *resume]) == 0
    golden = {name: digest for name, digest in GOLDEN[run].items()
              if not (resumed and name == "records.csv")}
    assert _digests(tmp_path / "out", golden) == golden, numerical_environment()


_SWEEP = """
[sweep]
methods = vanilla,smooth
reg_weights = 2
prox_weights = 1
fractions = 0.5,1.0
seeds = 0,1
"""

GOLDEN_SWEEP = "dbf641b89159c4f193ebb22e4cbeb189b24bf44d2c689feb3ce23ee70fada162"


def test_golden_sweep_fingerprint(datasets, tmp_path):
    train, test = datasets["moons"]
    smart = dict(method="smooth", reg=2.0, steps=2, norm="inf", prox_mode="mbpp", prox=1.0)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(_MLP_MODEL + _SMART.format(**smart) + _SWEEP
                   + f"\n[data]\ntrain = {train}\ntest = {test}\n"
                   + f"\n[run]\nseed = 3\nout = {tmp_path / 'out'}\nprobe_samples = 4\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SWEEP, numerical_environment()


def test_the_numerical_environment_names_its_code_paths_and_overrides(monkeypatch):
    for name in OVERRIDES:
        monkeypatch.delenv(name, raising=False)
    quiet = numerical_environment()
    assert quiet.startswith(f"numerical environment: numpy {np.__version__}, SIMD baseline ")
    assert "OpenBLAS core " in quiet and quiet.endswith(f"none of {', '.join(OVERRIDES)} set")
    # set after numpy loaded, these change no code path, only the report
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    monkeypatch.setenv("NPY_ENABLE_CPU_FEATURES", "X86_V2")
    assert numerical_environment().endswith(
        "; NPY_ENABLE_CPU_FEATURES=X86_V2, OPENBLAS_CORETYPE=Prescott")
