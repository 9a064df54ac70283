"""Smoothness-regularized fine-tuning with trust-region proximal updates,
plus the synthetic-experiment harness that exercises it."""

from .adversarial import AdvConfig, PassCounters, find_adversarial
from .autodiff import Tape, Var
from .checkpoint import load_params
from .data import (
    Dataset,
    gen_cluster_classification,
    gen_token_sequences,
    gen_two_moons,
    read_dataset,
    subsample_splits,
    write_dataset,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractViolation,
    InputError,
)
from .evaluate import (
    accuracy,
    agreement_cross_entropy,
    decision_boundary_grid,
    local_smoothness_probe,
    task_metric,
)
from .model import (
    ModelConfig,
    ModelParams,
    embed,
    forward,
    forward_from_embedding,
    init_params,
)
from .optimizer import (
    AdamState,
    ProxConfig,
    adam_step,
    beta_at,
    clip_gradients,
    init_adam,
    lr_at,
    teacher_update,
)
from .tensor import Rng, softmax_row
from .trainer import (
    TrainConfig,
    TrainRecord,
    TrainResult,
    TrainState,
    build_iteration_objective,
    continue_training,
    expected_pass_counts,
    init_train_state,
    resume_from_checkpoint,
    resume_training,
    save_train_checkpoint,
    smooth_finetune,
    vanilla_finetune,
)

__version__ = "0.1.0"
