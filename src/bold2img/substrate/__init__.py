"""Dense-tensor numeric layer: autodiff engine, layers, optimizer, RNG, checkpoints."""

from . import ops
from .checkpoint import load_checkpoint, read_tensor, save_checkpoint, write_tensor
from .optim import LrSchedule, OptimizerState, adamw_step, lr_at
from .params import ParamStore
from .rng import RngKey
from .tensor import Tensor, no_grad

__all__ = [
    "ops",
    "Tensor",
    "no_grad",
    "ParamStore",
    "RngKey",
    "OptimizerState",
    "LrSchedule",
    "adamw_step",
    "lr_at",
    "save_checkpoint",
    "load_checkpoint",
    "write_tensor",
    "read_tensor",
]
