"""Two-stage alignment testbed for synthetic multichannel EEG-like signals.

Stage I fine-tunes a small classifier jointly with self-supervised pretext heads;
stage II adapts it at test time, either per sample via the pretext losses or per
batch via entropy minimization restricted to batch-norm parameters.
"""

__version__ = "0.1.0"

from .adapt import TentConfig, TttConfig, run_adaptation
from .errors import ConfigError, ContractError, ShapeError
from .harness import (
    ExperimentConfig,
    RunReport,
    config_hash,
    emit_report,
    preset_experiment,
    run_ablation,
    run_experiment,
)
from .nn import Model, ModelConfig, save_checkpoint
from .pretext import TaskSpec, task_spec_for
from .signals import ShiftSpec, generate_dataset
from .training import FinetuneConfig, PretrainConfig, finetune_stage1, masked_pretrain

__all__ = [
    "ConfigError",
    "ContractError",
    "ShapeError",
    "ExperimentConfig",
    "FinetuneConfig",
    "Model",
    "ModelConfig",
    "PretrainConfig",
    "RunReport",
    "ShiftSpec",
    "TaskSpec",
    "TentConfig",
    "TttConfig",
    "__version__",
    "config_hash",
    "emit_report",
    "finetune_stage1",
    "generate_dataset",
    "masked_pretrain",
    "preset_experiment",
    "run_ablation",
    "run_adaptation",
    "run_experiment",
    "save_checkpoint",
    "task_spec_for",
]
