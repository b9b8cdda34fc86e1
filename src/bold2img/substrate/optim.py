"""AdamW with decoupled weight decay, plus the warmup/cosine LR schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore

ADAM_EPS = 1e-8  # added to sqrt(vhat) in every update


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


@dataclass
class LrSchedule:
    max_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.max_lr <= 0:
            raise ValueError("max_lr must be positive")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")


def lr_at(step: int, schedule: LrSchedule) -> float:
    """Learning rate at `step`: linear ramp to max_lr, then cosine to 0, and 0
    past the schedule end."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step > schedule.total_steps:
        return 0.0
    if step < schedule.warmup_steps:
        return schedule.max_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    frac = (step - schedule.warmup_steps) / span
    return schedule.max_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def adamw_step(
    params: ParamStore,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    wd: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    lr_scale: dict[str, float] | None = None,
) -> OptimizerState:
    """One AdamW update in place; only trainable parameters move.

    Weight decay is decoupled (applied directly to the parameter, not through
    the moments), so wd=0 reduces bitwise to plain Adam. `lr_scale` optionally
    multiplies the learning rate per parameter name (e.g. for finetuning a
    trunk at a reduced rate).
    """
    trainable = set(params.trainable_names())
    if set(grads) != trainable:
        missing = trainable - set(grads)
        extra = set(grads) - trainable
        raise ValueError(f"grads must cover exactly the trainable set; missing={sorted(missing)}, extra={sorted(extra)}")
    if lr < 0:
        raise ValueError("lr must be >= 0")

    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in sorted(grads):
        g = grads[name]
        p = params[name].data
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        step_lr = lr if lr_scale is None else lr * lr_scale.get(name, 1.0)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if wd != 0.0:
            p -= step_lr * wd * p
        mhat = m / bc1
        vhat = v / bc2
        p -= step_lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return state
