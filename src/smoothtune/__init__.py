"""Smoothness-regularized fine-tuning with trust-region proximal updates,
plus the synthetic-experiment harness that exercises it. The top level holds
the library API that README's Library section names; everything else is
imported from its module."""

from .adversarial import AdvConfig
from .data import gen_two_moons
from .errors import CheckpointError, ConfigError, ContractViolation, InputError
from .evaluate import accuracy
from .model import ModelConfig, init_params
from .optimizer import ProxConfig
from .tensor import Rng
from .trainer import (
    TrainConfig,
    TrainResult,
    continue_training,
    init_train_state,
    resume_from_checkpoint,
    resume_training,
    save_train_checkpoint,
    smooth_finetune,
    vanilla_finetune,
)

__version__ = "0.1.0"
