"""Per-subject voxel encoding models.

Each synthetic voxel has a Gaussian spatial receptive field over the unit
square, a color-selectivity profile over the foreground palette, a gain, a
noise level, and a small hemodynamic delay jitter. The response to a scene is
linear over shapes: gain * sum_shapes exp(-||center - rf||^2 / (2 w^2)) *
colorsel[color].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..substrate.rng import RngKey
from .hrf import hrf_peak
from .scenes import N_COLORS, StimulusScene


@dataclass
class SubjectSpec:
    subject_id: str
    n_voxels: int
    rf_center: np.ndarray  # (C, 2) in [0, 1]^2
    rf_width: np.ndarray  # (C,)
    colorsel: np.ndarray  # (C, N_COLORS) in (0, 1]
    gain: np.ndarray  # (C,) > 0
    noise_sigma: np.ndarray  # (C,) >= 0
    delay_jitter: np.ndarray  # (C,) seconds

    def validate(self):
        c = self.n_voxels
        shapes = {
            "rf_center": (c, 2),
            "rf_width": (c,),
            "colorsel": (c, N_COLORS),
            "gain": (c,),
            "noise_sigma": (c,),
            "delay_jitter": (c,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{self.subject_id}.{name}: shape {got} != {want}")
        # Sampled subjects have strictly positive gains; zero is permitted so
        # silent-cortex control subjects can be constructed in tests.
        if not np.all(self.gain >= 0):
            raise ValueError("gains must be non-negative")
        if not np.all(self.noise_sigma >= 0):
            raise ValueError("noise sigma must be non-negative")


# Sampling ranges of the voxel tuning parameters.
RF_WIDTH_RANGE = (0.10, 0.30)
GAIN_RANGE = (0.8, 1.2)
NOISE_REL_RANGE = (0.2, 0.5)  # sigma as a fraction of peak signal
JITTER_RANGE = (-0.5, 0.5)  # hemodynamic delay, seconds
COLORSEL_SHARPNESS = 2.0


def make_subject(subject_id: str, key: RngKey, voxel_lo: int, voxel_hi: int) -> SubjectSpec:
    """A subject with a voxel count drawn from [voxel_lo, voxel_hi]."""
    g = key.generator()
    c = int(g.integers(voxel_lo, voxel_hi + 1))
    rf_center = g.uniform(0.05, 0.95, (c, 2))
    rf_width = g.uniform(*RF_WIDTH_RANGE, c)
    # Peaked color profiles: each voxel prefers one or two colors.
    logits = g.standard_normal((c, N_COLORS)) * COLORSEL_SHARPNESS
    colorsel = np.exp(logits - logits.max(axis=1, keepdims=True))
    gain = g.uniform(*GAIN_RANGE, c)
    peak = gain * colorsel.max(axis=1) * hrf_peak()
    noise_sigma = g.uniform(*NOISE_REL_RANGE, c) * peak
    delay_jitter = g.uniform(*JITTER_RANGE, c)
    spec = SubjectSpec(subject_id, c, rf_center, rf_width, colorsel, gain, noise_sigma, delay_jitter)
    spec.validate()
    return spec


def scene_response(subject: SubjectSpec, scene: StimulusScene) -> np.ndarray:
    """Response amplitude of every voxel to a scene, shape (C,)."""
    total = np.zeros(subject.n_voxels)
    for shape in scene.shapes:
        d2 = (subject.rf_center[:, 0] - shape.cx) ** 2 + (subject.rf_center[:, 1] - shape.cy) ** 2
        total += np.exp(-d2 / (2.0 * subject.rf_width**2)) * subject.colorsel[:, shape.color]
    return subject.gain * total


def voxel_response(subject: SubjectSpec, voxel: int, scene: StimulusScene) -> float:
    """Response amplitude of one voxel to a scene."""
    if not 0 <= voxel < subject.n_voxels:
        raise IndexError(f"voxel {voxel} out of range for {subject.subject_id} with C={subject.n_voxels}")
    return float(scene_response(subject, scene)[voxel])
