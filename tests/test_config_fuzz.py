"""Config-parser fuzz: mutants of the preset config files (flipped bytes, a
truncation, a duplicated or dropped line, random overrides) either parse to a
RunConfig or are refused with a one-line ConfigError, and a sample of the
refused ones, run through `train`, exit 2 with one stderr line and leave no
output directory. The presets are only read."""

import os
import warnings

from smoothtune.cli import main
from smoothtune.errors import ConfigError
from smoothtune.runconfig import CONFIG_KEYS, RunConfig, parse_config
from smoothtune.tensor import Rng

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PRESETS = ["configs/cluster_sweep.ini", "configs/two_moons_smooth.ini",
            "configs/two_moons_vanilla.ini", "bench/tokens_transformer.ini"]
_KEYS = [f"{section}.{key}" for section, key, _, _ in CONFIG_KEYS] + [
    f"sweep.{key}" for key in ("methods", "reg_weights", "prox_weights", "fractions", "seeds")
] + ["smart.bogus", "nosuch.key", "run", "=1"]
_VALUES = ["-1", "0", "1", "0.5", "2", "1e999", "nan", "-inf", "", "x", "a%b", "%(x)s",
           "1,2", "0,-1", "smooth", "vanilla,bogus", "mbpp", "two", "true", "3.5e-3", " 7 "]
_MUTANTS_PER_PRESET = 150
_RUN_EVERY = 12  # run every 12th refused mutant through `main`


def _pick(rng: Rng, n: int) -> int:
    return int(float(rng.uniform()) * n)


def _mutant(rng: Rng, text: bytes) -> tuple[bytes, list[str]]:
    """One file mutation, and with it up to two random overrides."""
    lines = text.splitlines(keepends=True)
    kind = _pick(rng, 4)
    if kind == 0:  # flip one to three bytes
        data = bytearray(text)
        for _ in range(1 + _pick(rng, 3)):
            data[_pick(rng, len(data))] ^= 1 + _pick(rng, 255)
        text = bytes(data)
    elif kind == 1:
        text = text[:_pick(rng, len(text))]
    elif kind == 2:
        lines.insert(_pick(rng, len(lines) + 1), lines[_pick(rng, len(lines))])
        text = b"".join(lines)
    else:
        del lines[_pick(rng, len(lines))]
        text = b"".join(lines)
    overrides = [f"{_KEYS[_pick(rng, len(_KEYS))]}={_VALUES[_pick(rng, len(_VALUES))]}"
                 for _ in range(_pick(rng, 3))]
    return text, overrides


def test_every_mutant_parses_or_is_refused_in_one_line(tmp_path, capsys):
    rng = Rng(20)
    parsed = refused = ran = 0
    for preset in _PRESETS:
        with open(os.path.join(_ROOT, preset), "rb") as fh:
            original = fh.read()
        for i in range(_MUTANTS_PER_PRESET):
            text, overrides = _mutant(rng, original)
            path = tmp_path / f"mutant{i}.ini"
            path.write_bytes(text)
            out = tmp_path / f"out{i}"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # noise_std above eps
                    cfg = parse_config(str(path), [*overrides, f"run.out={out}"])
            except ConfigError as exc:
                assert "\n" not in str(exc), (preset, text, overrides)
                refused += 1
                if refused % _RUN_EVERY:
                    continue
                capsys.readouterr()
                argv = ["train", "--config", str(path), "--out", str(out)]
                assert main(argv + [a for o in overrides for a in ("--set", o)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("smoothtune: error: config:") and err.count("\n") == 1, err
                assert not out.exists()
                ran += 1
            else:
                assert isinstance(cfg, RunConfig)
                parsed += 1
    # both outcomes are exercised
    assert parsed > 50 and refused > 200 and ran >= 15, (parsed, refused, ran)
