"""Noise schedule, forward noising, offset noise, and timestep sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..substrate.rng import RngKey

# linear beta schedule from BETA_START at t = 0 to BETA_END at t = t_max - 1
BETA_START = 1e-4
BETA_END = 0.02


@dataclass
class NoiseSchedule:
    t_max: int
    alpha_bars: np.ndarray  # (T,) strictly decreasing cumulative products

    def validate(self):
        ab = self.alpha_bars
        if not np.all(np.diff(ab) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if not ab[0] > 0.99:
            raise ValueError(f"alpha_bar[0] = {ab[0]:.4f} must exceed 0.99")
        if not ab[-1] < 0.01:
            raise ValueError(f"alpha_bar[-1] = {ab[-1]:.2e} must be below 0.01")


def make_schedule(t_max: int = 1000) -> NoiseSchedule:
    betas = np.linspace(BETA_START, BETA_END, t_max, dtype=np.float64)
    sched = NoiseSchedule(t_max, np.cumprod(1.0 - betas))
    sched.validate()
    return sched


def _abar(t, schedule: NoiseSchedule, ndim: int):
    t = np.asarray(t)
    if np.any(t < 0) or np.any(t >= schedule.t_max):
        raise ValueError("timestep out of range")
    ab = schedule.alpha_bars[t]
    if t.ndim:
        ab = ab.reshape((-1,) + (1,) * (ndim - 1))
    return ab


def q_sample(x0: np.ndarray, t, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Forward noising x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps.

    `t` is a scalar index or a (B,) array matching the leading axis of x0.
    """
    ab = _abar(t, schedule, x0.ndim)
    return (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).astype(x0.dtype)


def v_target(x0: np.ndarray, t, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Velocity target v = sqrt(abar) eps - sqrt(1-abar) x0.

    At high noise the target is dominated by -x0, so global image structure
    stays statistically visible to the loss at every timestep (an
    eps-parameterized loss hides it behind a sqrt(abar) factor).
    """
    ab = _abar(t, schedule, x0.ndim)
    return (np.sqrt(ab) * eps - np.sqrt(1.0 - ab) * x0).astype(x0.dtype)


def eps_from_v(x_t: np.ndarray, v: np.ndarray, t, schedule: NoiseSchedule) -> np.ndarray:
    """Convert a velocity prediction to a noise prediction (affine in v)."""
    ab = _abar(t, schedule, x_t.ndim)
    return (np.sqrt(1.0 - ab) * x_t + np.sqrt(ab) * v).astype(x_t.dtype)


# Diffusion runs in a symmetric [-1, 1] value range; images live in [0, 1].


def image_to_diffusion(img: np.ndarray) -> np.ndarray:
    return (2.0 * img - 1.0).astype(np.float32)


def diffusion_to_image(x: np.ndarray) -> np.ndarray:
    return np.clip((x + 1.0) / 2.0, 0.0, 1.0).astype(np.float32)


def offset_noise(key: RngKey, shape: tuple, lam: float = 0.1) -> np.ndarray:
    """Pixel noise plus lam * a per-channel offset shared over space.

    shape is (..., H, W, C); the offset broadcasts over H and W, so per-pixel
    variance is 1 + lam^2.
    """
    if lam < 0:
        raise ValueError("offset strength must be >= 0")
    if len(shape) < 3:
        raise ValueError("shape must be at least (H, W, C)")
    g = key.generator()
    eps = g.standard_normal(shape)
    if lam > 0:
        off_shape = shape[:-3] + (1, 1, shape[-1])
        eps += lam * g.standard_normal(off_shape)
    return eps.astype(np.float32)


def bicubic_transform(u, t_max: int):
    """t = min(T-1, floor((1 - u^3) * T)): heavy on high-noise steps."""
    u = np.asarray(u, dtype=np.float64)
    return np.minimum(t_max - 1, np.floor((1.0 - u**3) * t_max)).astype(np.int64)


def sample_timestep_bicubic(key: RngKey, t_max: int, size: int) -> np.ndarray:
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    return bicubic_transform(key.generator().random(size), t_max)


def bicubic_cdf(x: np.ndarray, t_max: int) -> np.ndarray:
    """P(t <= x) under the bicubic sampler (for distribution checks)."""
    x = np.asarray(x, dtype=np.float64)
    inner = np.clip(1.0 - (np.floor(x) + 1.0) / t_max, 0.0, 1.0)
    out = 1.0 - np.cbrt(inner)
    return np.where(x >= t_max - 1, 1.0, out)


def sample_timestep_uniform(key: RngKey, t_max: int, size: int) -> np.ndarray:
    return key.generator().integers(0, t_max, size).astype(np.int64)
