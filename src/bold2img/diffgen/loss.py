"""The denoising training objective."""

from __future__ import annotations

import numpy as np

from ..substrate import ops
from ..substrate.params import ParamStore
from ..substrate.rng import RngKey
from ..substrate.tensor import Tensor
from .schedule import (
    NoiseSchedule,
    offset_noise,
    q_sample,
    sample_timestep_bicubic,
    sample_timestep_uniform,
    v_target,
)
from .unet import UNetConfig, unet_forward


def diffusion_loss(
    x0: np.ndarray,
    tokens: Tensor,
    store: ParamStore,
    schedule: NoiseSchedule,
    config: UNetConfig,
    key: RngKey,
    timestep_sampling: str = "bicubic",
    offset_lambda: float = 0.1,
    predictor=None,
    rows: tuple[int, int] | None = None,
) -> Tensor:
    """Mean-squared error between the network output and the velocity target.

    Per batch item: a timestep from the configured sampler, offset noise, the
    forward-noised image, one prediction. The target is the velocity, not the
    injected noise: at a small step budget an eps target makes high-noise
    structure statistically invisible. `predictor` overrides the network
    (test stubs); it receives (x_t, t, tokens) and returns an ndarray.
    `rows` = (lo, hi) computes the part of the loss that rows lo:hi of the
    batch add: the draws are made for the whole batch and `tokens` holds
    those rows' tokens only, and their squared error is divided by the whole
    batch's element count, so the parts of a batch sum to its loss.
    """
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    b, count = x0.shape[0], x0.size
    if timestep_sampling == "bicubic":
        t = sample_timestep_bicubic(key.child("t"), schedule.t_max, b)
    elif timestep_sampling == "uniform":
        t = sample_timestep_uniform(key.child("t"), schedule.t_max, b)
    else:
        raise ValueError(f"unknown timestep sampling {timestep_sampling!r}")
    eps = offset_noise(key.child("eps"), x0.shape, offset_lambda)
    if rows is not None:
        x0, t, eps = x0[rows[0] : rows[1]], t[rows[0] : rows[1]], eps[rows[0] : rows[1]]
    x_t = q_sample(x0, t, eps, schedule)
    if predictor is not None:
        out = predictor(x_t, t, tokens)
        out = out if isinstance(out, Tensor) else Tensor(out)
    else:
        out = unet_forward(x_t, t, tokens, store, config)
    return ops.mse_loss(out, v_target(x0, t, eps, schedule), count)
