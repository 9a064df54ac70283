"""Model f(x; params): embedding layer plus an MLP or tiny transformer-encoder head.

The forward pass is split at the embedding boundary because input perturbations
are applied to embeddings, not raw tokens. For raw-vector inputs the embedding
is the identity, so perturbations land on the input itself. Classification
outputs are probability rows; regression outputs are one scalar per example.

The builders are rank-generic. Parameters from `stack_params` carry a leading
axis of S same-shape runs, and batches then carry the same leading axis, so one
pass computes all S runs; each slice is bit-identical to its run computed alone.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .errors import ContractViolation, InputError, check_fields, checked
from .tensor import Rng, as_tensor, uniform_stack

ModelParams = dict[str, np.ndarray]

_FF_MULT = 2  # feedforward width = _FF_MULT * embed_dim


@dataclass(frozen=True)
class ModelConfig:
    task: str = checked(("classification", "regression"), "classification")
    classes: int = field(default=2, metadata={"across": lambda c: (  # classification only
        c.task == "classification" and c.classes < 2
        and f"must be >= 2 for classification, got {c.classes}")})
    arch: str = checked(("mlp", "transformer"), "mlp")
    input_dim: int = checked(">= 1", 2)  # mlp: raw input width
    hidden: tuple[int, ...] = checked([">= 1"], (16, 16))  # mlp hidden sizes; () = linear model
    embed_dim: int = checked(">= 1", 8)  # transformer fields
    heads: int = field(default=2, metadata={"across": lambda c: (
        c.arch == "transformer" and not (c.heads > 0 and c.embed_dim % c.heads == 0)
        and f"must divide embed_dim {c.embed_dim}, got {c.heads}")})
    layers: int = checked(">= 0", 1)
    max_len: int = checked(">= 1", 8)
    vocab_size: int = checked(">= 1", 16)
    dropout: float = checked("[0, 1)", 0.1)
    activation: str = checked(("tanh", "relu"), "tanh")  # hidden nonlinearity

    __post_init__ = check_fields

    @property
    def out_dim(self) -> int:
        return self.classes if self.task == "classification" else 1


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Block names and shapes; a pure function of the config."""
    shapes: dict[str, tuple[int, ...]] = {}
    if config.arch == "mlp":
        dims = [config.input_dim, *config.hidden, config.out_dim]
        for i in range(len(dims) - 1):
            shapes[f"layer{i}.weight"] = (dims[i], dims[i + 1])
            shapes[f"layer{i}.bias"] = (dims[i + 1],)
    else:
        d = config.embed_dim
        shapes["embed.table"] = (config.vocab_size, d)
        for i in range(config.layers):
            p = f"block{i}"
            shapes[f"{p}.ln1.gain"] = (d,)
            shapes[f"{p}.ln1.bias"] = (d,)
            for name in ("wq", "wk", "wv", "wo"):
                shapes[f"{p}.attn.{name}"] = (d, d)
            for name in ("bq", "bk", "bv", "bo"):
                shapes[f"{p}.attn.{name}"] = (d,)
            shapes[f"{p}.ln2.gain"] = (d,)
            shapes[f"{p}.ln2.bias"] = (d,)
            shapes[f"{p}.ff.w1"] = (d, _FF_MULT * d)
            shapes[f"{p}.ff.b1"] = (_FF_MULT * d,)
            shapes[f"{p}.ff.w2"] = (_FF_MULT * d, d)
            shapes[f"{p}.ff.b2"] = (d,)
        shapes["out_ln.gain"] = (d,)
        shapes["out_ln.bias"] = (d,)
        shapes["head.weight"] = (d, config.out_dim)
        shapes["head.bias"] = (config.out_dim,)
    return shapes


def init_params(config: ModelConfig, rng: Rng) -> ModelParams:
    """Gaussian weights at scale 1/sqrt(fan_in), zero biases, unit norm gains.

    Blocks are drawn in param_shapes order from a single stream, so equal seeds
    give identical parameters.
    """
    params: ModelParams = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            params[name] = np.ones(shape)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        elif name == "embed.table":
            params[name] = rng.gaussian(shape, 1.0 / np.sqrt(shape[1]))
        else:
            params[name] = rng.gaussian(shape, 1.0 / np.sqrt(shape[0]))
    return params


def _activation_rank(config: ModelConfig, name: str) -> int:
    """Rank of the unstacked activation a block acts on: [n, seq, d] inside
    the transformer's blocks and output norm, [n, width] everywhere else."""
    inner = config.arch == "transformer" and name.startswith(("block", "out_ln"))
    return 3 if inner else 2


def stack_params(config: ModelConfig, runs: list[ModelParams]) -> ModelParams:
    """Blocks of S runs stacked on a leading axis, each shaped to broadcast
    against the stacked activation it meets: a transformer bias (d,) becomes
    (S, 1, 1, d), an MLP weight (d, h) stays (S, d, h)."""
    stacked: ModelParams = {}
    for name, shape in param_shapes(config).items():
        pad = (1,) * (_activation_rank(config, name) - len(shape))
        stacked[name] = np.stack([run[name] for run in runs]).reshape((len(runs),) + pad + shape)
    return stacked


def unstack_params(config: ModelConfig, stacked: ModelParams) -> list[ModelParams]:
    """Copies of the S runs held by stacked parameters."""
    shapes = param_shapes(config)
    size = len(next(iter(stacked.values())))
    return [{name: block[i].reshape(shapes[name]).copy() for name, block in stacked.items()}
            for i in range(size)]


def flatten_params(params: ModelParams) -> tuple[np.ndarray, ModelParams]:
    """A copy of the blocks in one buffer, one after another (all runs of a
    stacked block together, so every block stays contiguous), and per-block
    views of it: an elementwise update of the buffer updates every block."""
    flat = np.concatenate([block.ravel() for block in params.values()])
    return flat, flat_views(flat, {name: block.shape for name, block in params.items()})


def flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> ModelParams:
    """Per-block views of a buffer laid out by flatten_params."""
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    return {name: part.reshape(shape)
            for (name, shape), part in zip(shapes.items(), np.split(flat, ends[:-1]))}


def stack_axes(config: ModelConfig, params) -> int:
    """1 when params (arrays or tape Vars) are stacked runs, else 0."""
    first = params["layer0.weight" if config.arch == "mlp" else "embed.table"]
    return np.ndim(getattr(first, "value", first)) - 2


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, rows = positions; built once per
    (max_len, dim) and read-only, since every forward shares it."""
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Dropout plumbing
# ---------------------------------------------------------------------------

def dropout_site_shapes(config: ModelConfig, n: int) -> list[tuple[int, ...]]:
    """Activation shapes that receive dropout, in application order."""
    if config.arch == "mlp":
        return [(n, h) for h in config.hidden]
    return [(n, config.embed_dim)]  # pooled representation before the head


def draw_dropout_masks(config: ModelConfig, n: int,
                       rngs: Sequence[Rng]) -> list[np.ndarray] | None:
    """Pre-scaled inverted-dropout masks (entries 0 or 1/keep) for a stack of
    runs, or None when rate is 0.

    Sharing one mask set between two forwards on equal-sized batches makes the
    two passes differ only through their inputs. Each mask has a leading stack
    axis with one slice per rng, each drawn from its own stream as if alone.
    """
    rate = config.dropout
    if rate == 0.0:
        return None
    keep = 1.0 - rate
    return [np.where(uniform_stack(rngs, shape) < rate, 0.0, 1.0 / keep)
            for shape in dropout_site_shapes(config, n)]


# ---------------------------------------------------------------------------
# Tape-level forward builders
# ---------------------------------------------------------------------------

def check_inputs(config: ModelConfig, inputs, lead: int = 0) -> np.ndarray:
    """Raw vectors [batch, input_dim] as float64, or token ids [batch, seq]
    within the vocabulary and max_len, behind `lead` stack axes; an InputError
    otherwise."""
    if config.arch == "mlp":
        x = as_tensor(inputs)
        if x.ndim != 2 + lead or x.shape[-1] != config.input_dim:
            raise InputError(
                f"raw inputs must be [batch, {config.input_dim}], got {x.shape}"
            )
        return x
    ids = np.asarray(inputs)
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError("token inputs must be integers")
    if ids.ndim != 2 + lead:
        raise InputError(f"token inputs must be [batch, seq], got shape {ids.shape}")
    if ids.shape[-1] > config.max_len:
        raise InputError(f"sequence length {ids.shape[-1]} exceeds max_len {config.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise InputError(
            f"token id out of range [0, {config.vocab_size}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return ids


def build_embed(tape: Tape, config: ModelConfig, pvars: dict[str, Var], inputs) -> Var:
    """Clean-branch embedding on the tape: the tensor perturbations are applied to.

    For raw vectors this is the identity; for tokens it is the table lookup.
    Position encodings are added inside the head, so perturbing the lookup is
    the same as perturbing the encoder input up to a constant shift.
    """
    inputs = check_inputs(config, inputs, stack_axes(config, pvars))
    if config.arch == "mlp":
        return tape.const(inputs)
    return ad.gather_rows(pvars["embed.table"], inputs)


def build_head(config: ModelConfig, pvars: dict[str, Var], emb: Var,
               masks: list[np.ndarray] | None = None, features: list[Var] | None = None) -> Var:
    """Forward from an embedded batch to probabilities [n, k] or predictions [n],
    with a leading stack axis on everything when the params are stacked.
    `features`, a list, receives the output layer's input before its dropout."""
    h = _build_body(config, pvars, emb, masks)
    if features is not None:
        features.append(h)
    if masks:  # the last dropout site, right before the output layer
        h = ad.mul_const(h, masks[-1])
    return _output_layer(config, pvars, h)


def _build_body(config: ModelConfig, pvars: dict[str, Var], emb: Var,
                masks: list[np.ndarray] | None = None) -> Var:
    """Everything before the output layer: its input, before the last dropout."""
    act = config.activation
    if config.arch == "mlp":
        h = emb
        n_hidden = len(config.hidden)
        for i in range(n_hidden):
            h = ad.affine(h, pvars[f"layer{i}.weight"], pvars[f"layer{i}.bias"], act)
            if masks is not None and i < n_hidden - 1:
                h = ad.mul_const(h, masks[i])
        return h
    pos = sinusoidal_positions(config.max_len, config.embed_dim)[:emb.value.shape[-2]]
    h = ad.add(emb, emb.tape.const(pos))
    for i in range(config.layers):
        p = f"block{i}"
        # pre-LN self-attention with residual
        x = ad.layer_norm(h, pvars[f"{p}.ln1.gain"], pvars[f"{p}.ln1.bias"])
        ctx = ad.attention(*(ad.affine(x, pvars[f"{p}.attn.w{n}"], pvars[f"{p}.attn.b{n}"])
                             for n in "qkv"), config.heads)
        attn = ad.affine(ctx, pvars[f"{p}.attn.wo"], pvars[f"{p}.attn.bo"])
        h = ad.add(h, attn)
        # pre-LN feedforward with residual
        x = ad.layer_norm(h, pvars[f"{p}.ln2.gain"], pvars[f"{p}.ln2.bias"])
        x = ad.affine(x, pvars[f"{p}.ff.w1"], pvars[f"{p}.ff.b1"], act)
        x = ad.affine(x, pvars[f"{p}.ff.w2"], pvars[f"{p}.ff.b2"])
        h = ad.add(h, x)
    return ad.mean_axis(ad.layer_norm(h, pvars["out_ln.gain"], pvars["out_ln.bias"]), -2)


def _output_layer(config: ModelConfig, pvars: dict[str, Var], h: Var) -> Var:
    last = f"layer{len(config.hidden)}" if config.arch == "mlp" else "head"
    logits = ad.affine(h, pvars[f"{last}.weight"], pvars[f"{last}.bias"])
    if config.task == "classification":
        return ad.softmax(logits)
    return ad.reshape(logits, logits.value.shape[:-1])


def leaf_params(tape: Tape, params: ModelParams, requires_grad: bool = True) -> dict[str, Var]:
    """Enter every parameter block as a tape leaf."""
    return {name: tape.leaf(block, requires_grad=requires_grad)
            for name, block in params.items()}


# ---------------------------------------------------------------------------
# Eager (numpy-level) forwards run the tape builders, without dropout, on a Tape
# whose leaves want no gradient. An unstacked batch of more than _eager_block
# examples runs the layers before the output layer in near-equal blocks into one
# full-height feature array, from the caller or fresh, and the output layer,
# whose bits depend on its height, at once over all rows. The block depends only
# on the config, so every eager path gives the same bits (see README).
# ---------------------------------------------------------------------------


def _eager_block(config: ModelConfig) -> int:
    """Examples per eager block: 2**15 values of the body's widest per-example
    activation (an MLP hidden layer; a transformer's ff or attention scores)."""
    widest = (max(config.hidden, default=config.input_dim) if config.arch == "mlp" else
              config.max_len * max(_FF_MULT * config.embed_dim, config.heads * config.max_len))
    return max(1, 2**15 // widest)


def feature_width(config: ModelConfig) -> int:
    """Width of the output layer's input: the last hidden layer of an MLP (its
    input for a linear model), the embedding of a transformer."""
    return (config.input_dim, *config.hidden)[-1] if config.arch == "mlp" else config.embed_dim


def embed(config: ModelConfig, params: ModelParams, inputs) -> np.ndarray:
    """Embedding of a batch: identity for raw vectors, table lookup for tokens.

    Position encodings are not included; build_head adds them.
    """
    tape = Tape()
    pvars = leaf_params(tape, params, requires_grad=False)
    return build_embed(tape, config, pvars, inputs).value


def _eager_head(tape: Tape, config: ModelConfig, pvars: dict[str, Var], n: int, rows,
                feature_buffer: np.ndarray | None) -> np.ndarray:
    """build_head without dropout on `tape` for a batch of n whose embedded
    rows lo:hi are `rows(lo, hi)`, the body blocked as described above into
    `feature_buffer`, a float64 (n, feature_width) array, or a fresh one."""
    shape = (n, feature_width(config))
    if feature_buffer is not None and (feature_buffer.shape, feature_buffer.dtype) != (
            shape, np.float64):
        raise ContractViolation(f"feature_buffer must be a float64 array of shape {shape}, "
                                f"got {feature_buffer.dtype} {feature_buffer.shape}")
    block = _eager_block(config)
    if stack_axes(config, pvars) or n <= block:
        return build_head(config, pvars, rows(0, n)).value
    blocks = -(-n // block)
    edges = [n * i // blocks for i in range(blocks + 1)]
    features = np.empty(shape) if feature_buffer is None else feature_buffer
    for lo, hi in zip(edges, edges[1:]):
        features[lo:hi] = _build_body(config, pvars, rows(lo, hi)).value
    return _output_layer(config, pvars, tape.const(features)).value


def forward_from_embedding(
    config: ModelConfig,
    params: ModelParams,
    embedded: np.ndarray,
    feature_buffer: np.ndarray | None = None,
) -> np.ndarray:
    """Head forward from an embedded batch. A blocked forward writes its body
    into `feature_buffer` when given one, so many calls on batches of one size
    can share it; no output aliases it."""
    tape = Tape()
    pvars = leaf_params(tape, params, requires_grad=False)
    return _eager_head(tape, config, pvars, len(embedded),
                       lambda lo, hi: tape.const(embedded[lo:hi]), feature_buffer)


def forward(config: ModelConfig, params: ModelParams, inputs,
            features: np.ndarray | None = None) -> np.ndarray:
    """Fused embed + head; identical to calling the two stages separately.
    Given `features`, what these params feed the output layer for these inputs
    (see build_head), only the output layer runs. Blocks are embedded one at a
    time."""
    tape = Tape()
    pvars = leaf_params(tape, params, requires_grad=False)
    if features is not None:
        return _output_layer(config, pvars, tape.const(features)).value
    x = check_inputs(config, inputs, stack_axes(config, pvars))
    return _eager_head(tape, config, pvars, len(x),
                       lambda lo, hi: build_embed(tape, config, pvars, x[lo:hi]), None)
