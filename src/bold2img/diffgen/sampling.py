"""Classifier-free guidance and deterministic DDIM sampling."""

from __future__ import annotations

import numpy as np

from ..substrate import no_grad
from .schedule import NoiseSchedule


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, scale: float) -> np.ndarray:
    """eps_uncond + scale * (eps_cond - eps_uncond); exact at scale 0 and 1."""
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError("conditional/unconditional shapes differ")
    if scale == 1.0:
        return eps_cond
    if scale == 0.0:
        return eps_uncond
    return eps_uncond + scale * (eps_cond - eps_uncond)


def ddim_indices(t_max: int, steps: int) -> np.ndarray:
    """Evenly strided sub-schedule from t_max-1 down to 0 inclusive."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        return np.array([t_max - 1])
    return np.unique(np.round(np.linspace(t_max - 1, 0, steps)).astype(np.int64))[::-1]


def ddim_sample(predict, schedule: NoiseSchedule, x: np.ndarray, steps: int) -> np.ndarray:
    """Deterministic (eta=0) DDIM from the start noise `x`.

    `predict(x, t_batch)` returns the noise estimate for a (B, ...) batch at
    one schedule index. The sample is returned in the diffusion space,
    unclipped.
    """
    idx = ddim_indices(schedule.t_max, steps)
    x = x.astype(np.float32)
    with no_grad():
        for i, t in enumerate(idx):
            eps = predict(x, np.full(x.shape[0], t, dtype=np.int64))
            ab_t = schedule.alpha_bars[t]
            x0_hat = (x - np.sqrt(1.0 - ab_t, dtype=np.float64).astype(np.float32) * eps) / np.float32(np.sqrt(ab_t))
            if i + 1 < len(idx):
                ab_next = schedule.alpha_bars[idx[i + 1]]
                x = np.float32(np.sqrt(ab_next)) * x0_hat + np.float32(np.sqrt(1.0 - ab_next)) * eps
            else:
                x = x0_hat
    return x


def cfg_predictor(unet_call, tokens, null_tokens, guidance: float):
    """Wrap a conditional noise model into a predictor guided at `guidance`.

    `unet_call(x, t, tokens_batch)` runs the network; a token batch k times
    the image batch gives k row blocks of output, one per token block. The
    guided pass sends `x` and `t` once with the conditional and null tokens
    stacked, so the network's token-free prefix runs once for both; at
    guidance 1 the null half is skipped.
    """

    def predict(x, t_batch):
        if guidance == 1.0:
            return unet_call(x, t_batch, tokens)
        b = x.shape[0]
        both = np.concatenate([tokens, np.broadcast_to(null_tokens, tokens.shape)], axis=0)
        eps = unet_call(x, t_batch, both)
        return cfg_combine(eps[:b], eps[b:], guidance)

    return predict
