"""Seeded fuzz tests of checkpoint reading, driven by the package's own Rng.

A real mid-epoch checkpoint is truncated, has one bit flipped or has its
config nested past the recursion limit, then goes through `train --resume`
and `eval --checkpoint` in-process. Each command either succeeds (a flip can
keep the JSON valid: a digit for a digit) or exits nonzero with exactly one
error line; a refused resume leaves only FAILED and its archived config. A
sampler state that does not fit the data, counters that disagree, tensors
that are not the config's blocks, non-finite tensor values, tensor shapes and
values that are not JSON integers and numbers, a teacher, a method flag or
stream seeds other than the config derives, a sampler perm kept or missing
against the step count, integers that are not JSON integers (or stream
counters outside 64 bits) and config fields of another JSON type than their
annotation's are refused before the first update; `eval`,
`probe` and `boundary` refuse non-finite parameters, and any that are not
JSON numbers, before they write anything.
"""

import json
import os

import pytest

from smoothtune.cli import main
from smoothtune.tensor import Rng

PRESET = os.path.join(os.path.dirname(__file__), "..", "configs", "two_moons_smooth.ini")
CASES = 30  # corrupted checkpoints per kind


def _checkpointed(tmp, preset):
    """(work dir, train args, mid-epoch checkpoint bytes) of a preset: 40
    points in batches of 20, checkpointed after step 7 of 12, so its cursor is
    20 of 40."""
    for name, n, seed in (("train", 40, 7), ("test", 30, 8)):
        assert main(["gen-data", "--generator", "two-moons", "--n", str(n), "--noise", "0.25",
                     "--seed", str(seed), "--out", str(tmp / f"{name}.jsonl")]) == 0
    args = ["train", "--config", preset, "--set", f"data.train={tmp / 'train.jsonl'}",
            "--set", f"data.test={tmp / 'test.jsonl'}",
            "--set", "smart.outer_steps=12", "--set", "run.probe_samples=4"]
    assert main([*args, "--out", str(tmp / "full"), "--set", "run.checkpoint_every=7"]) == 0
    data = (tmp / "full" / "checkpoint.json").read_bytes()
    sampler = json.loads(data)["train_state"]["sampler"]
    assert sampler["cursor"] == 20 and len(sampler["perm"]) == 40
    return tmp, args, data


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return _checkpointed(tmp_path_factory.mktemp("ckpt"), PRESET)


@pytest.fixture(scope="module")
def vanilla_run(tmp_path_factory):
    return _checkpointed(tmp_path_factory.mktemp("vanilla_ckpt"),
                         PRESET.replace("smooth", "vanilla"))


def _pick(rng, n):
    return int(rng.uniform() * n)


def _truncated(rng, data):
    return data[:_pick(rng, len(data) - 1)]  # never just the final line break


def _flipped(rng, data):
    pos, bit = _pick(rng, len(data)), 1 << _pick(rng, 8)
    return data[:pos] + bytes([data[pos] ^ bit]) + data[pos + 1:]


def _nested_config(rng, data):
    """The checkpoint with its config replaced by an array nested far past the
    interpreter's recursion limit."""
    depth = 100000 + _pick(rng, 1000)
    return data.replace(b'"config": ', b'"config": ' + b"[" * depth + b"]" * depth
                        + b', "unread": ', 1)


def _refused_once(capsys, code):
    """Whether a command refused its input: False for exit 0, True for a
    nonzero exit, which must have printed exactly one error line."""
    err = capsys.readouterr().err
    if code == 0:
        return False
    assert err.startswith("smoothtune: error:") and err.count("\n") == 1, err
    return True


@pytest.mark.parametrize("corrupt", [_truncated, _flipped, _nested_config],
                         ids=["truncated", "flipped", "nested_config"])
def test_corrupt_checkpoints_fail_with_one_line(run, capsys, corrupt):
    tmp, args, data = run
    rng = Rng(1200 + (corrupt is _flipped))
    outcomes = set()
    for case in range(CASES):
        path = tmp / f"{corrupt.__name__}{case}.json"
        path.write_bytes(corrupt(rng, data))
        out = tmp / f"out_{corrupt.__name__}{case}"
        capsys.readouterr()
        refused = _refused_once(capsys, main([*args, "--out", str(out), "--resume", str(path)]))
        if refused:
            assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]
        outcomes.add(("resume", refused))
        code = main(["eval", "--checkpoint", str(path), "--data", str(tmp / "test.jsonl"),
                     "--out", str(tmp / "eval.json")])
        outcomes.add(("eval", _refused_once(capsys, code)))
    expected = {("resume", True), ("eval", True)}
    assert outcomes >= expected if corrupt is _flipped else outcomes == expected


def _perm(edit):
    def apply(sampler):
        edit(sampler["perm"])
    return apply


SAMPLER_EDITS = {
    "perm_entry_out_of_range": _perm(lambda perm: perm.__setitem__(3, 99999)),
    "perm_entry_duplicated": _perm(lambda perm: perm.__setitem__(3, perm[4])),
    "perm_cut": _perm(lambda perm: perm.__delitem__(slice(10, None))),
    "cursor_negative": lambda sampler: sampler.__setitem__("cursor", -5),
    "cursor_past_the_perm": lambda sampler: sampler.__setitem__("cursor", 10**6),
}


def _refused_resume(run, capsys, name, edit) -> str:
    """The one error line of a resume from the checkpoint with `edit` applied
    to its document; the refusal leaves only FAILED and the config."""
    tmp, args, data = run
    document = json.loads(data)
    edit(document)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(document))
    out = tmp / f"out_{name}"
    capsys.readouterr()
    assert main([*args, "--out", str(out), "--resume", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("smoothtune: error: input: ") and err.count("\n") == 1, err
    assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]
    return err


@pytest.mark.parametrize("edit", sorted(SAMPLER_EDITS))
def test_resume_refuses_a_sampler_state_that_does_not_fit_the_data(run, capsys, edit):
    err = _refused_resume(run, capsys, edit,
                          lambda doc: SAMPLER_EDITS[edit](doc["train_state"]["sampler"]))
    assert err.startswith("smoothtune: error: input: run 0 (seed 0): its sampler state")
    assert "n=40" in err


def _scaled(ts, k):
    """Every counter of a checkpoint taken k / global_step times as far in."""
    step = ts["global_step"]
    ts["global_step"], ts["outer_t"], ts["adam"]["t"] = k, k, k
    ts["counters"] = [c * k // step for c in ts["counters"]]


# the checkpoint is taken after 7 of 12 outer steps of one update each
COUNTER_EDITS = {
    "global_step": lambda ts: ts.__setitem__("global_step", 5),
    "outer_t": lambda ts: ts.__setitem__("outer_t", 6),
    "adam_t": lambda ts: ts["adam"].__setitem__("t", 8),
    "forward_passes": lambda ts: ts["counters"].__setitem__(0, ts["counters"][0] + 1),
    "backward_passes": lambda ts: ts["counters"].__setitem__(1, ts["counters"][1] - 1),
    "negative_step": lambda ts: _scaled(ts, -7),
    "past_the_last_step": lambda ts: _scaled(ts, 14),
}


@pytest.mark.parametrize("edit", sorted(COUNTER_EDITS))
def test_resume_refuses_counters_that_disagree(run, capsys, edit):
    err = _refused_resume(run, capsys, edit, lambda doc: COUNTER_EDITS[edit](doc["train_state"]))
    assert err.startswith("smoothtune: error: input: cannot load ")
    assert "counters disagree" in err


def _in_train_state(edit):
    return lambda doc: edit(doc["train_state"])


def _set_stream(name, index, value):
    return _in_train_state(lambda ts: ts["streams"][name].__setitem__(index, value))


def _teacher_added(doc):
    doc["train_state"]["teacher"] = doc["tensors"]


# A resume derives what the config fixes and reads only the progress from the
# file, so each edit below, which would resume another run than the saved one
# (or crash on a stream counter outside 64 bits), disagrees with the config or
# the step count or is not a JSON integer or boolean. name: (fixture, edit,
# what the line says)
DERIVED_EDITS = {
    "teacher_dropped": ("run", _in_train_state(lambda ts: ts.__setitem__("teacher", None)),
                        "a run with smart True and prox_weight 1.0 keeps a teacher"),
    "teacher_added": ("vanilla_run", _teacher_added,
                      "a run with smart False and prox_weight 0.0 keeps no teacher"),
    "smart_as_text": ("run", _in_train_state(lambda ts: ts.__setitem__("smart", "no")),
                      "smart is 'no', not true or false"),
    "noise_stream_not_integers": ("run", _in_train_state(
        lambda ts: ts["streams"].__setitem__("noise", [1.5, 3])),
        "the seed of rng stream 'noise' is 1.5, not an integer"),
    "noise_seed_of_another_stream": ("run", _in_train_state(
        lambda ts: ts["streams"]["noise"].__setitem__(0, ts["streams"]["batch"][0])),
        "rng stream 'noise' has seed "),
    "stream_counter_negative": ("run", _set_stream("noise", 1, -1),
                                "the counter of rng stream 'noise' is -1, not an integer in "
                                f"[0, {2**64})"),
    "stream_counter_past_64_bits": ("run", _set_stream("batch", 1, 2**70),
                                    f"the counter of rng stream 'batch' is {2**70}, "
                                    f"not an integer in [0, {2**64})"),
    # 20.0 equals the config's 20, so only its JSON type can refuse it
    "batch_size_not_an_integer": ("run", _in_train_state(
        lambda ts: ts["train_config"].__setitem__("batch_size", 20.0)),
        "malformed TrainConfig: batch_size is 20.0, not an integer"),
    # an Rng keeps a seed's low 64 bits, so this one would resume the same streams
    "seed_past_64_bits": ("run", _in_train_state(
        lambda ts: ts["train_config"].__setitem__("seed", ts["train_config"]["seed"] + 2**64)),
        "malformed TrainConfig: seed: must be in [0, 18446744073709551616)"),
    "cursor_not_an_integer": ("run", _in_train_state(
        lambda ts: ts["sampler"].__setitem__("cursor", 19.5)),
        "the sampler cursor is 19.5, not an integer"),
    "stream_missing": ("run", _in_train_state(lambda ts: ts["streams"].__delitem__("dropout")),
                       "unexpected rng streams"),
    # the first update draws the sampler's perm, so a perm is kept exactly after step 0
    "perm_dropped_mid_run": ("run", _in_train_state(
        lambda ts: ts["sampler"].__setitem__("perm", None)),
        "a run at global_step 7 keeps a sampler perm"),
    "perm_kept_at_step_0": ("run", _in_train_state(lambda ts: _scaled(ts, 0)),
                            "a run at global_step 0 keeps no sampler perm"),
}


@pytest.mark.parametrize("edit", sorted(DERIVED_EDITS))
def test_resume_refuses_a_file_that_disagrees_with_what_its_config_derives(
        request, capsys, edit):
    fixture, apply, says = DERIVED_EDITS[edit]
    err = _refused_resume(request.getfixturevalue(fixture), capsys, edit, apply)
    assert err.startswith("smoothtune: error: input: cannot load ")
    assert says in err, err


def _set_shape(shape, *keys):
    """An edit that sets the shape of the tensor entry at document[keys...]."""
    def apply(doc):
        for key in keys:
            doc = doc[key]
        doc["shape"] = shape
    return apply


# each keeps the data length, so only the block check can refuse it
TENSOR_EDITS = {
    "params_reshaped": _set_shape([16, 2], "tensors", "layer0.weight"),
    "params_extra_tensor": lambda doc: doc["tensors"].__setitem__(
        "extra", {"shape": [1], "data": [0.0]}),
    "moment_reshaped": _set_shape([16, 2], "train_state", "adam", "m", "layer0.weight"),
    "teacher_reshaped": _set_shape([4, 4], "train_state", "teacher", "layer1.bias"),
    "params_negative_shape": _set_shape([-2, -16], "tensors", "layer0.weight"),
}


@pytest.mark.parametrize("edit", sorted(TENSOR_EDITS))
def test_resume_refuses_tensors_that_are_not_the_config_blocks(run, capsys, edit):
    err = _refused_resume(run, capsys, edit, TENSOR_EDITS[edit])
    assert err.startswith("smoothtune: error: input: cannot load ")
    assert "its tensors are not the config's blocks" in err


def _set_first_value(value, *keys):
    """An edit that sets the first value of the tensor entry at document[keys...]."""
    def apply(doc):
        for key in keys:
            doc = doc[key]
        doc["data"][0] = value
    return apply


# json writes these as the NaN and Infinity tokens, which json also reads
NON_FINITE_EDITS = {
    "output_weight_nan": ("layer2.weight", _set_first_value(
        float("nan"), "tensors", "layer2.weight")),
    "bias_infinity": ("layer0.bias", _set_first_value(float("inf"), "tensors", "layer0.bias")),
    "moment_minus_infinity": ("layer1.weight", _set_first_value(
        float("-inf"), "train_state", "adam", "v", "layer1.weight")),
    "teacher_nan": ("layer1.bias", _set_first_value(
        float("nan"), "train_state", "teacher", "layer1.bias")),
}


@pytest.mark.parametrize("edit", sorted(NON_FINITE_EDITS))
def test_resume_refuses_non_finite_tensors(run, capsys, edit):
    name, apply = NON_FINITE_EDITS[edit]
    err = _refused_resume(run, capsys, edit, apply)
    assert err.startswith("smoothtune: error: input: cannot load ")
    assert f"tensor {name!r} holds a non-finite value" in err


# numpy reads the shapes and values below as numbers, except the integer
# beyond float64, on which it raises; name: (the tensor refused, edit, what
# its refusal says after the tensor's name)
ENTRY_EDITS = {
    "weight_shape_fractional": ("layer0.weight", _set_shape([2.9, 16], "tensors", "layer0.weight"),
                                ": shape entries must be JSON integers"),
    "weight_shape_text": ("layer0.weight", _set_shape(["2", "16"], "tensors", "layer0.weight"),
                          ": shape entries must be JSON integers"),
    "bias_shape_float": ("layer0.bias", _set_shape([16.0], "tensors", "layer0.bias"),
                         ": shape entries must be JSON integers"),
    "bias_value_text": ("layer0.bias", _set_first_value("0.5", "tensors", "layer0.bias"),
                        ": data must be a list of JSON numbers, not text or true/false"),
    "bias_value_true": ("layer0.bias", _set_first_value(True, "tensors", "layer0.bias"),
                        ": data must be a list of JSON numbers, not text or true/false"),
    "moment_value_text": ("layer1.weight", _set_first_value(
        "1", "train_state", "adam", "m", "layer1.weight"),
        ": data must be a list of JSON numbers, not text or true/false"),
    "bias_value_past_float64": ("layer0.bias", _set_first_value(
        10**400, "tensors", "layer0.bias"), ": int too large to convert to float"),
}


@pytest.mark.parametrize("edit", sorted(ENTRY_EDITS))
def test_resume_refuses_malformed_tensor_entries(run, capsys, edit):
    name, apply, says = ENTRY_EDITS[edit]
    err = _refused_resume(run, capsys, edit, apply)
    assert err.startswith("smoothtune: error: input: cannot load ")
    assert f"{name!r}{says}" in err, err


@pytest.mark.parametrize("command", ["eval", "probe", "boundary"])
@pytest.mark.parametrize("edit", ["output_weight_nan", "bias_infinity", "weight_shape_fractional",
                                  "weight_shape_text", "bias_shape_float", "bias_value_text",
                                  "bias_value_true"])
def test_reading_commands_refuse_non_finite_parameters(run, capsys, command, edit):
    """With a NaN output weight, eval used to report accuracy 0.5, probe to
    write a NaN token that is not JSON and boundary to write nan rows; with a
    shape or value that is not a JSON integer or number, each ran."""
    tmp, _, data = run
    name, apply, says = ENTRY_EDITS.get(edit) or (
        *NON_FINITE_EDITS[edit], " holds a non-finite value")
    document = json.loads(data)
    apply(document)
    path = tmp / f"{command}_{edit}.json"
    path.write_text(json.dumps(document))
    out = tmp / f"{command}_{edit}.out"
    argv = {"eval": ["--data", str(tmp / "test.jsonl")],
            "probe": ["--data", str(tmp / "test.jsonl"), "--eps", "0.1", "--samples", "2"],
            "boundary": ["--bounds=-2,3,-1.5,2", "--resolution", "5"]}[command]
    capsys.readouterr()
    assert main([command, "--checkpoint", str(path), *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"smoothtune: error: input: cannot load {path}: ")
    assert err.count("\n") == 1, err
    assert f"tensor {name!r}{says}" in err
    assert not out.exists()
