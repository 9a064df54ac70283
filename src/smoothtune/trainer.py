"""Training loops: smoothness-regularized proximal fine-tuning and the plain baseline.

Each update builds one objective tape: task loss, plus (when active) the
smoothness penalty at the points the inner ascent finds and the trust-region
divergence from the teacher. Terms with zero coefficient contribute no tape
nodes at all, so the regularized loop with both weights at zero is bit-for-bit
the baseline loop: same batches, same dropout masks, same updates, same records.

A TrainState is a stack of S runs that differ only in seed and data, with
parameters, moments and teacher stacked on a leading axis (`model.stack_params`).
It has one constructor, `_new_state`, which derives from the configs what they
fix, and a resume is a fresh state with the checkpoint's progress loaded in.
Each run keeps its own rng streams and batch order, losses are per-run means,
and norms and clipping are per run, so one stacked update gives every run the
bits it would get alone. A solo run is a stack of one, through the same loop:
the entry points take one config, one set of initial params and one dataset
per run, in sequences, and return one result per run; the per-update functions
take one rng per run and the stack's pass counters.

Parameters, gradients, ADAM moments and teacher each live in one flat array
per stack laid out by `model.flatten_params`. The tape reads the params through
their block views, the backward's gradients are gathered once into the flat
array and normed and clipped per run in place through its block views, and ADAM
and the EMA run once over the flat arrays, with the bits a per-block update
would give.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .adversarial import (
    AdvConfig,
    PassCounters,
    build_smoothness_term,
    find_adversarial,
    rows_norm,
)
from .autodiff import Tape, Var
from .checkpoint import (
    CHECKPOINT_VERSION,
    config_from_obj,
    read_json,
    tensors_from_obj,
    tensors_to_obj,
    write_json,
)
from .data import Dataset
from .errors import CheckpointError, ContractViolation, check_fields, checked
from .losses import check_labels, smooth_loss_mean_node, task_loss_mean_node
from .optimizer import (
    AdamState,
    ProxConfig,
    adam_step,
    beta_at,
    clip_gradients,
    global_grad_norm,
    init_adam,
    lr_at,
    teacher_update,
)
from .tensor import Rng

# rng stream tags; fixed so checkpoints replay
_STREAM_TAGS = {"batch": 1, "dropout": 2, "noise": 3}
_BALL_SLACK = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Everything one run needs besides the model config and the data."""

    reg_weight: float = checked(">= 0", 1.0)  # weight on the smoothness penalty
    adv: AdvConfig = AdvConfig()
    prox: ProxConfig = ProxConfig()
    inner_steps: int = checked(">= 1", 1)      # updates per outer iteration
    outer_steps: int = checked(">= 1", 100)    # outer iterations
    batch_size: int = checked(">= 1", 32)
    peak_lr: float = checked("> 0", 1e-3)
    warmup_frac: float = checked("(0, 1)", 0.1)
    clip_norm: float = checked("> 0", 1.0)
    seed: int = checked("[0, 18446744073709551616)", 0)  # an Rng keeps 64 bits
    reg_detach_clean: bool = False   # ablation: freeze the clean branch of the penalty

    __post_init__ = check_fields

    @property
    def total_updates(self) -> int:
        return self.outer_steps * self.inner_steps


@dataclass(frozen=True)
class TrainRecord:
    step: int
    lr: float
    beta: float
    task_loss: float
    reg_loss: float | None
    breg_loss: float | None
    total: float
    grad_norm: float


@dataclass
class RunState:
    """What each run of a stack keeps for itself."""

    cfg: TrainConfig                  # differs between the runs of a stack only in seed
    streams: dict[str, Rng]
    sampler_perm: np.ndarray | None = None
    sampler_cursor: int = 0


@dataclass
class TrainState:
    model_cfg: mdl.ModelConfig
    runs: list[RunState]
    smart: bool                       # regularized method vs baseline
    flat: np.ndarray                  # every run's params in one array (model.flatten_params)
    params: mdl.ModelParams           # stacked block views of flat, one slice per run
    grads: np.ndarray                 # the gradients, laid out as flat; clipped in place
    grad_blocks: tuple[np.ndarray, ...]  # stacked block views of grads
    adam: AdamState                   # the moments, laid out as flat
    teacher: np.ndarray | None        # laid out as flat
    teacher_params: mdl.ModelParams | None  # stacked block views of teacher
    outer_t: int = 0                  # completed outer iterations
    global_step: int = 0              # completed updates
    counters: PassCounters = dataclasses.field(default_factory=PassCounters)  # stacked passes

    @property
    def cfg(self) -> TrainConfig:
        """The settings every run shares (and the first run's seed)."""
        return self.runs[0].cfg


@dataclass
class TrainResult:
    params: mdl.ModelParams           # this run's own (unstacked) copy
    records: list[TrainRecord]
    state: TrainState                 # the whole stack


@dataclass
class Objective:
    tape: Tape
    total: Var
    task: Var
    reg: Var | None
    breg: Var | None
    pvars: dict[str, Var]
    embedding: np.ndarray
    adversarial: np.ndarray | None


def _new_state(model_cfg, cfgs, params, smart) -> TrainState:
    """A fresh state over a copy of stacked `params`: rng streams from each seed, zero
    ADAM moments, and a teacher equal to the params exactly when the trust region is on."""
    if any(dataclasses.replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs):
        raise ContractViolation("the runs of one stack may differ only in seed")
    runs = [RunState(cfg=c, streams={name: Rng(c.seed).child(tag)
                                     for name, tag in _STREAM_TAGS.items()}) for c in cfgs]
    flat, params = mdl.flatten_params(params)
    teacher, teacher_params = (mdl.flatten_params(params) if smart and cfgs[0].prox.prox_weight > 0
                               else (None, None))
    grads, grad_views = mdl.flatten_params(params)  # each update overwrites all of grads
    return TrainState(model_cfg=model_cfg, runs=runs, smart=smart, flat=flat, params=params,
                      grads=grads, grad_blocks=tuple(grad_views.values()), adam=init_adam(flat),
                      teacher=teacher, teacher_params=teacher_params)


def _check_lists(**values) -> None:
    """Refuse a solo value where an entry point takes one entry per run."""
    solo = [f"{k} (a {type(v).__name__})" for k, v in values.items() if not isinstance(v, Sequence)]
    if solo:
        raise ContractViolation(" and ".join(solo) + ": pass one entry per run, a list of one")


def init_train_state(
    model_cfg: mdl.ModelConfig,
    cfgs: Sequence[TrainConfig],
    inits: Sequence[mdl.ModelParams],
    smart: bool,
) -> TrainState:
    """A fresh state for a stack of runs, given one config and one set of initial params each."""
    _check_lists(cfgs=cfgs, inits=inits)
    if len(cfgs) != len(inits) or not cfgs:
        raise ContractViolation(f"{len(cfgs)} configs for {len(inits)} initial params")
    return _new_state(model_cfg, cfgs, mdl.stack_params(model_cfg, inits), smart)


def build_iteration_objective(
    model_cfg: mdl.ModelConfig,
    cfg: TrainConfig,
    params: mdl.ModelParams,
    teacher_params: mdl.ModelParams | None,
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    smart: bool,
    masks: list[np.ndarray] | None = None,
    noise_rng: Sequence[Rng],
    counters: PassCounters,
) -> Objective:
    """One update's objective on a single tape.

    The clean forward is computed once and shared by the task loss, the inner
    ascent target, and the smoothness term. Adversarial points enter as
    constants; teacher outputs come from a deterministic forward and likewise
    stay constant under differentiation. A teacher passed as `params` itself
    is the current iterate (a vbpp teacher after an update): its forward takes
    the clean forward's output-layer input when no earlier dropout site shaped
    it. `noise_rng` holds one rng per run; with stacked params and batches
    the loss terms hold one value per run.
    """
    reg_on = smart and cfg.reg_weight > 0
    breg_on = smart and cfg.prox.prox_weight > 0 and teacher_params is not None
    tape = Tape()
    pvars = mdl.leaf_params(tape, params, requires_grad=True)
    emb = mdl.build_embed(tape, model_cfg, pvars, xs)
    features: list[Var] = []
    outputs = mdl.build_head(model_cfg, pvars, emb, masks, features)
    counters.forwards += 1
    task = task_loss_mean_node(model_cfg.task, outputs, ys)
    total = task
    reg = breg = x_adv = None
    if reg_on:
        x_adv = find_adversarial(model_cfg, params, emb.value, outputs.value, cfg.adv,
                                 noise_rng, masks, counters)
        clean_branch = ad.stop_gradient(outputs) if cfg.reg_detach_clean else outputs
        reg = build_smoothness_term(tape, model_cfg, pvars, clean_branch, x_adv,
                                    masks, counters)
        total = ad.add(total, ad.mul_const(reg, cfg.reg_weight))
    if breg_on:
        current = teacher_params is params and (masks is None or len(masks) <= 1)
        teacher_out = mdl.forward(model_cfg, teacher_params, xs,
                                  features[0].value if current else None)
        counters.forwards += 1
        breg = smooth_loss_mean_node(model_cfg.task, outputs, tape.const(teacher_out))
        total = ad.add(total, ad.mul_const(breg, cfg.prox.prox_weight))
    return Objective(tape=tape, total=total, task=task, reg=reg, breg=breg,
                     pvars=pvars, embedding=emb.value, adversarial=x_adv)


def _teacher_params(state: TrainState) -> mdl.ModelParams | None:
    """The teacher's blocks, or `state.params` itself when the bits are the
    same; the first entries differ for almost any other teacher."""
    if state.teacher is None:
        return None
    same = (state.teacher[0] == state.flat[0]
            and np.array_equal(state.teacher.view(np.uint64), state.flat.view(np.uint64)))
    return state.params if same else state.teacher_params


def _next_batch(run: RunState, n: int) -> np.ndarray:
    """Consecutive slices of a per-epoch shuffle; reshuffles when a full batch
    no longer fits (partial tail batches are dropped)."""
    bs = min(run.cfg.batch_size, n)
    if run.sampler_perm is None or run.sampler_cursor + bs > len(run.sampler_perm):
        run.sampler_perm = run.streams["batch"].permutation(n)
        run.sampler_cursor = 0
    idx = run.sampler_perm[run.sampler_cursor:run.sampler_cursor + bs]
    run.sampler_cursor += bs
    return idx


def _audit_perturbation(obj: Objective, cfg: TrainConfig, t: int, s: int) -> None:
    """Check every point of every run against the ball."""
    per_ex = rows_norm(obj.adversarial - obj.embedding, cfg.adv.norm, 2)
    worst = float(per_ex.max()) if per_ex.size else 0.0
    if worst > cfg.adv.eps + _BALL_SLACK:
        raise ContractViolation(
            f"perturbation left the ball at iteration {t}.{s}: "
            f"{worst} > {cfg.adv.eps} + {_BALL_SLACK}"
        )


def check_dataset(model_cfg: mdl.ModelConfig, dataset: Dataset) -> None:
    """Refuse a dataset the model cannot take, looking at every row."""
    if len(dataset) == 0:
        raise ContractViolation("dataset is empty")
    if dataset.task != model_cfg.task:
        raise ContractViolation(
            f"dataset task {dataset.task!r} does not match model task {model_cfg.task!r}"
        )
    expected_kind = "tokens" if model_cfg.arch == "transformer" else "vector"
    if dataset.input_kind != expected_kind:
        raise ContractViolation(
            f"model arch {model_cfg.arch!r} needs {expected_kind!r} inputs, "
            f"dataset has {dataset.input_kind!r}"
        )
    mdl.check_inputs(model_cfg, dataset.inputs)
    if model_cfg.task == "classification":
        check_labels(dataset.labels, model_cfg.classes)


def stack_batch_size(cfg: TrainConfig, dataset: Dataset) -> int:
    """Examples per update of a run on this dataset; runs that share a stack
    must agree on it."""
    return min(cfg.batch_size, len(dataset))


def continue_training(
    state: TrainState,
    datasets: Sequence[Dataset],
    *,
    stop_after: int | None = None,
) -> list[TrainResult]:
    """Advance a state, optionally pausing after a given outer step; segmented
    runs traverse exactly the trajectory of an unpaused one. Takes one dataset
    per run and gives one result per run."""
    model_cfg, cfg, runs = state.model_cfg, state.cfg, state.runs
    _check_lists(datasets=datasets)
    if len(datasets) != len(runs):
        raise ContractViolation(f"{len(datasets)} datasets for a stack of {len(runs)} runs")
    for i, (run, ds) in enumerate(zip(runs, datasets)):
        check_dataset(model_cfg, ds)
        perm, n = run.sampler_perm, len(ds)
        if perm is not None and not (0 <= run.sampler_cursor <= len(perm)
                                     and np.array_equal(np.sort(perm), np.arange(n))):
            raise CheckpointError(f"run {i} (seed {run.cfg.seed}): its sampler state, cursor "
                                  f"{run.sampler_cursor} in a perm of {len(perm)}, does not "
                                  f"fit a dataset of n={n}")
    if len({stack_batch_size(cfg, ds) for ds in datasets}) > 1:
        raise ContractViolation("the runs of one stack need equal batch sizes")
    records: list[list[TrainRecord]] = [[] for _ in runs]
    noise = [run.streams["noise"] for run in runs]
    last = cfg.outer_steps if stop_after is None else min(stop_after, cfg.outer_steps)
    for t in range(state.outer_t + 1, last + 1):
        beta = beta_at(t, cfg.outer_steps, cfg.prox)
        for s in range(1, cfg.inner_steps + 1):
            idx = [_next_batch(run, len(ds)) for run, ds in zip(runs, datasets)]
            xs = np.stack([ds.inputs[i] for ds, i in zip(datasets, idx)])
            ys = np.stack([ds.labels[i] for ds, i in zip(datasets, idx)])
            masks = mdl.draw_dropout_masks(model_cfg, len(idx[0]),
                                           [run.streams["dropout"] for run in runs])
            # a diverging update is refused by the finite check below, not by
            # numpy warnings on the way there
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                obj = build_iteration_objective(
                    model_cfg, cfg, state.params, _teacher_params(state),
                    xs, ys, smart=state.smart, masks=masks,
                    noise_rng=noise, counters=state.counters,
                )
                if obj.adversarial is not None:
                    _audit_perturbation(obj, cfg, t, s)
                grad_map = obj.tape.backward(obj.total)
                state.counters.backwards += 1
                np.concatenate([grad_map[v].ravel() for v in obj.pvars.values()], out=state.grads)
                task, reg, breg, total = (None if term is None else term.value.tolist()
                                          for term in (obj.task, obj.reg, obj.breg, obj.total))
                del obj, grad_map  # free the tape before the optimizer's temporaries exist
                norms = global_grad_norm(state.grad_blocks)
            grad_norms = norms.tolist()
            for i, (loss, norm) in enumerate(zip(total, grad_norms)):
                if not (math.isfinite(loss) and math.isfinite(norm)):
                    what = "gradient" if math.isfinite(loss) else "loss"
                    raise ContractViolation(f"non-finite {what} at step {state.global_step + 1} "
                                            f"in run {i} (seed {runs[i].cfg.seed})")
            clip_gradients(state.grad_blocks, cfg.clip_norm, norms)
            state.global_step += 1
            lr = lr_at(state.global_step, cfg.total_updates, cfg.peak_lr, cfg.warmup_frac)
            adam_step(state.adam, state.flat, state.grads, lr)
            for i, run_records in enumerate(records):
                run_records.append(TrainRecord(
                    step=state.global_step, lr=lr, beta=beta, task_loss=task[i],
                    reg_loss=None if reg is None else reg[i],
                    breg_loss=None if breg is None else breg[i],
                    total=total[i], grad_norm=grad_norms[i],
                ))
        if state.teacher is not None:
            teacher_update(state.teacher, state.flat, beta)
        state.outer_t = t
    finals = mdl.unstack_params(model_cfg, state.params)
    return [TrainResult(params=p, records=r, state=state) for p, r in zip(finals, records)]


def smooth_finetune(
    model_cfg: mdl.ModelConfig,
    cfgs: Sequence[TrainConfig],
    datasets: Sequence[Dataset],
    inits: Sequence[mdl.ModelParams],
) -> list[TrainResult]:
    """Run the full regularized proximal loop over a stack of runs, one config,
    dataset and set of initial params each; deterministic in (config, seed, data)."""
    return continue_training(init_train_state(model_cfg, cfgs, inits, smart=True), datasets)


def vanilla_finetune(
    model_cfg: mdl.ModelConfig,
    cfgs: Sequence[TrainConfig],
    datasets: Sequence[Dataset],
    inits: Sequence[mdl.ModelParams],
) -> list[TrainResult]:
    """Same loop with the penalty terms structurally absent: the control arm."""
    return continue_training(init_train_state(model_cfg, cfgs, inits, smart=False), datasets)


def expected_pass_counts(cfg: TrainConfig, smart: bool) -> tuple[int, int]:
    """Analytic whole-batch forward/backward counts for ONE update, from the
    computation graph: one clean forward and one objective backward always;
    an active smoothness term adds one forward+backward per ascent step plus
    the forward at the final points; an active trust region adds the teacher
    forward."""
    forwards, backwards = 1, 1
    if smart and cfg.reg_weight > 0:
        forwards += cfg.adv.steps + 1
        backwards += cfg.adv.steps
    if smart and cfg.prox.prox_weight > 0:
        forwards += 1
    return forwards, backwards


# ---------------------------------------------------------------------------
# Records CSV
# ---------------------------------------------------------------------------

def csv_row(values) -> str:
    """One CSV line: the repr of each value, or an empty field for None."""
    return ",".join("" if v is None else repr(v) for v in values)


def records_csv_lines(records: list[TrainRecord]) -> list[str]:
    """CSV rows; the penalty columns appear only when the run produced them."""
    columns = [f.name for f in dataclasses.fields(TrainRecord)]
    if all(r.reg_loss is None and r.breg_loss is None for r in records):
        columns = [c for c in columns if c not in ("reg_loss", "breg_loss")]
    return [",".join(columns)] + [csv_row(getattr(r, c) for c in columns) for r in records]


# ---------------------------------------------------------------------------
# Train-state checkpointing
# ---------------------------------------------------------------------------

def save_train_checkpoint(path: str, state: TrainState) -> None:
    """Write a one-run state; a checkpoint holds a single run."""
    if len(state.runs) != 1:
        raise ContractViolation(f"a checkpoint holds one run, not a stack of {len(state.runs)}")
    (run,) = state.runs
    shapes = mdl.param_shapes(state.model_cfg)

    def tensors(flat):  # a stack of one lays out its run's blocks one after another
        return tensors_to_obj(mdl.flat_views(flat, shapes))

    write_json(path, {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(state.model_cfg),
        "tensors": tensors(state.flat),
        "train_state": {
            "smart": state.smart,
            "train_config": dataclasses.asdict(run.cfg),
            "adam": {"m": tensors(state.adam.m), "v": tensors(state.adam.v), "t": state.adam.t},
            "teacher": None if state.teacher is None else tensors(state.teacher),
            "streams": {name: list(rng.state()) for name, rng in run.streams.items()},
            "outer_t": state.outer_t,
            "global_step": state.global_step,
            "counters": [state.counters.forwards, state.counters.backwards],
            "sampler": {
                "perm": run.sampler_perm,
                "cursor": run.sampler_cursor,
            },
        },
    })


def _json_int(value, what: str, low: int = -2**63, high: int = 2**63) -> int:
    """A checkpoint's JSON integer in [low, high), an int64 by default (true and false are not)."""
    if type(value) is not int or not low <= value < high:
        raise CheckpointError(f"{what} is {value!r}, not an integer in [{low}, {high})")
    return value


def resume_from_checkpoint(path: str) -> TrainState:
    """The fresh state of the checkpoint's config, params and method, with the
    saved progress loaded into it. The file's copy of what the config fixes,
    whether a teacher is kept and each stream's seed, must agree with it."""
    document = read_json(path, ("config", "tensors", "train_state"))
    ts = document["train_state"]
    try:
        model_cfg = config_from_obj(mdl.ModelConfig, document["config"])
        cfg = config_from_obj(TrainConfig, ts["train_config"])
        if type(ts["smart"]) is not bool:
            raise CheckpointError(f"smart is {ts['smart']!r}, not true or false")

        def blocks(obj):
            return mdl.stack_params(model_cfg, [tensors_from_obj(obj, model_cfg)])

        state = _new_state(model_cfg, [cfg], blocks(document["tensors"]), ts["smart"])
        (run,), kept = state.runs, state.teacher is not None
        if (ts["teacher"] is not None) != kept:
            raise CheckpointError(f"a run with smart {state.smart} and prox_weight "
                                  f"{cfg.prox.prox_weight} keeps {'a' if kept else 'no'} teacher")
        if kept:
            state.teacher[:] = mdl.flatten_params(blocks(ts["teacher"]))[0]
        m, v = (mdl.flatten_params(blocks(ts["adam"][k]))[0] for k in "mv")
        state.adam = AdamState(m, v, _json_int(ts["adam"]["t"], "adam.t"))
        if set(ts["streams"]) != set(run.streams):
            raise CheckpointError("unexpected rng streams")
        for name, rng in list(run.streams.items()):
            seed, counter = ts["streams"][name]
            if _json_int(seed, f"the seed of rng stream {name!r}", 0, 2**64) != rng.seed:
                raise CheckpointError(f"rng stream {name!r} has seed {seed}, not {rng.seed}")
            counter = _json_int(counter, f"the counter of rng stream {name!r}", 0, 2**64)
            run.streams[name] = Rng(seed, counter)
        if ts["sampler"]["perm"] is not None:
            run.sampler_perm = np.array([_json_int(i, "a sampler perm entry")
                                         for i in ts["sampler"]["perm"]], dtype=np.int64)
        run.sampler_cursor = _json_int(ts["sampler"]["cursor"], "the sampler cursor")
        state.outer_t, state.global_step = (_json_int(ts[k], k) for k in ("outer_t", "global_step"))
        forwards, backwards = (_json_int(c, "a pass count") for c in ts["counters"])
        state.counters = PassCounters(forwards, backwards)
        step, (f, b) = state.global_step, expected_pass_counts(cfg, state.smart)
        if not (step == state.outer_t * cfg.inner_steps == state.adam.t
                and 0 <= state.outer_t <= cfg.outer_steps
                and state.counters == PassCounters(step * f, step * b)):
            raise CheckpointError(f"counters disagree: global_step {step}, outer_t "
                                  f"{state.outer_t} of {cfg.outer_steps} with inner_steps "
                                  f"{cfg.inner_steps}, adam.t {state.adam.t}, passes "
                                  f"{forwards}/{backwards} against {f}/{b} per update")
        # the first update draws the permutation, so a run keeps one once it has stepped
        if (run.sampler_perm is None) != (step == 0):
            raise CheckpointError(f"a run at global_step {step} keeps "
                                  f"{'a' if step else 'no'} sampler perm")
        return state
    except (KeyError, TypeError, ValueError) as exc:  # CheckpointError is a ValueError
        raise CheckpointError(f"cannot load {path}: {exc}") from exc


def resume_training(path: str, datasets: Sequence[Dataset]) -> list[TrainResult]:
    """Continue a checkpointed run on a list of one dataset; the completed
    trajectory matches an uninterrupted one bit for bit."""
    return continue_training(resume_from_checkpoint(path), datasets)
