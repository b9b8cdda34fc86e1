"""Canonical double-gamma hemodynamic response function.

SPM-style parameters: response gamma(a1=6, b1=1), undershoot gamma(a2=16,
b2=1) weighted 1/6. Peak near 5 s, negative undershoot around 10-25 s,
h(0) = 0. The function is the ground truth the run simulator convolves with
and the reference regressor for signal-recovery checks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

A1, B1 = 6.0, 1.0
A2, B2 = 16.0, 1.0
UNDERSHOOT_RATIO = 1.0 / 6.0

_LOG_NORM1 = math.lgamma(A1) + A1 * math.log(B1)
_LOG_NORM2 = math.lgamma(A2) + A2 * math.log(B2)

HRF_SUPPORT_S = 40.0  # negligible beyond this lag


def hrf(tau) -> np.ndarray:
    """Amplitude at lag tau seconds (scalar or array); zero for tau <= 0."""
    t = np.asarray(tau, dtype=np.float64)
    pos = t > 0
    tp = np.where(pos, t, 1.0)  # lags <= 0 get a harmless 1 and a 0 at the end
    log_t = np.log(tp)
    g1 = np.exp((A1 - 1.0) * log_t - tp / B1 - _LOG_NORM1)
    g2 = np.exp((A2 - 1.0) * log_t - tp / B2 - _LOG_NORM2)
    out = np.where(pos, g1 - UNDERSHOOT_RATIO * g2, 0.0)
    if np.isscalar(tau):
        return float(out)
    return out


@functools.cache
def hrf_peak() -> float:
    """Maximum of the response over a dense grid (cached)."""
    return float(hrf(np.arange(0.0, 30.0, 0.01)).max())
