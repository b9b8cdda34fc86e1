"""BOLD run synthesis: event responses convolved with the HRF, plus drift and noise."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..substrate.rng import RngKey
from .hrf import HRF_SUPPORT_S, hrf
from .scenes import StimulusScene
from .subjects import SubjectSpec, scene_response

TR_DEFAULT = 1.3
STIM_DURATION_S = 3.0
TRIAL_SPACING_S = 4.0  # 3 s stimulus + 1 s blank
LEAD_IN_S = 16.0
TAIL_S = 16.0


@dataclass
class Event:
    onset: float
    stimulus_id: str
    duration: float = STIM_DURATION_S

    def to_json(self) -> dict:
        return {"onset": self.onset, "stimulus_id": self.stimulus_id, "duration": self.duration}


@dataclass
class RunTimeline:
    tr: float
    n_volumes: int
    events: list[Event]

    @property
    def duration_s(self) -> float:
        return self.n_volumes * self.tr

    def validate(self):
        onsets = [e.onset for e in self.events]
        if onsets != sorted(onsets):
            raise ValueError("events must be sorted by onset")
        for a, b in zip(onsets, onsets[1:]):
            if abs((b - a) - TRIAL_SPACING_S) > 1e-9:
                raise ValueError(f"onsets must be spaced {TRIAL_SPACING_S} s apart, got {b - a}")
        if onsets and onsets[0] < LEAD_IN_S:
            raise ValueError(f"first onset {onsets[0]} < lead-in {LEAD_IN_S} s")
        if onsets and onsets[-1] + TAIL_S > self.duration_s + 1e-9:
            raise ValueError(f"last onset {onsets[-1]} + {TAIL_S} s tail exceeds run end {self.duration_s}")


def make_timeline(stimulus_ids: list[str], tr: float = TR_DEFAULT) -> RunTimeline:
    """Standard run pacing: 16 s lead-in, one trial every 4 s, 16 s tail."""
    n = len(stimulus_ids)
    total_s = LEAD_IN_S + n * TRIAL_SPACING_S + TAIL_S
    n_volumes = math.ceil(total_s / tr)
    events = [Event(LEAD_IN_S + i * TRIAL_SPACING_S, sid) for i, sid in enumerate(stimulus_ids)]
    tl = RunTimeline(tr, n_volumes, events)
    tl.validate()
    return tl


# Slow drift: cosines at these periods, with amplitudes up to DRIFT_AMP_REL
# times each voxel's noise sigma, plus a linear term up to LINEAR_AMP_REL sigma.
DRIFT_PERIODS_S = (64.0, 128.0, 256.0)
DRIFT_AMP_REL = 2.0
LINEAR_AMP_REL = 1.0


@dataclass
class FmriRun:
    data: np.ndarray  # (C, n_volumes) float32
    timeline: RunTimeline
    subject_id: str
    run_id: str

    def validate(self):
        if self.data.shape[1] != self.timeline.n_volumes:
            raise ValueError("data columns != timeline volumes")
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"run {self.run_id}: non-finite values")


def event_kernels(subject: SubjectSpec, timeline: RunTimeline) -> list[tuple[int, int, np.ndarray]]:
    """Each event's (lo, hi, h): its response window, volumes lo:hi, and h, the
    HRF of every voxel over it (C, hi - lo), lagged by the voxel's delay.

    They depend on the subject and on the timeline's tr, volume count and
    onsets only, so all runs of a subject paced alike share them.
    """
    t = np.arange(timeline.n_volumes) * timeline.tr
    kernels = []
    for ev in timeline.events:
        lo = int(np.searchsorted(t, ev.onset))
        hi = int(np.searchsorted(t, ev.onset + HRF_SUPPORT_S, side="right"))
        kernels.append((lo, hi, hrf(t[None, lo:hi] - ev.onset - subject.delay_jitter[:, None])))
    return kernels


def simulate_run(
    subject: SubjectSpec,
    timeline: RunTimeline,
    catalog: dict[str, StimulusScene],
    key: RngKey,
    noise_scale: float = 1.0,
    drift_scale: float = 1.0,
    run_id: str = "run000",
    *,
    kernels: list[tuple[int, int, np.ndarray]] | None = None,
) -> FmriRun:
    """Synthesize one run: sum of event HRFs + cosine/linear drift + white noise.

    `noise_scale` multiplies each voxel's noise sigma and `drift_scale` the drift.
    `kernels` are `event_kernels(subject, timeline)`, built here when not given.
    The drift is one (C, 7) by (7, n) product.
    """
    timeline.validate()
    c, n = subject.n_voxels, timeline.n_volumes
    t = np.arange(n) * timeline.tr
    data = np.zeros((c, n))
    if kernels is None:
        kernels = event_kernels(subject, timeline)

    for ev, (lo, hi, h) in zip(timeline.events, kernels, strict=True):
        if ev.stimulus_id not in catalog:
            raise KeyError(f"event stimulus {ev.stimulus_id!r} not in catalog")
        if ev.onset < 0 or ev.onset + ev.duration > timeline.duration_s:
            raise ValueError(f"event at {ev.onset}s outside run bounds [0, {timeline.duration_s}]")
        amp = scene_response(subject, catalog[ev.stimulus_id])
        data[:, lo:hi] += amp[:, None] * h

    sigma = subject.noise_sigma
    if drift_scale > 0:
        # cos(wt + phi) = cos(phi) cos(wt) - sin(phi) sin(wt): per-voxel loads
        # times per-volume waves, two rows per period and one for the slope
        g = key.child("drift").generator()
        loads, waves = [], []
        for period in DRIFT_PERIODS_S:
            amps = g.uniform(0.0, DRIFT_AMP_REL, c) * sigma
            phases = g.uniform(0.0, 2.0 * np.pi, c)
            loads += [amps * np.cos(phases), -amps * np.sin(phases)]
            waves += [np.cos(2.0 * np.pi * t / period), np.sin(2.0 * np.pi * t / period)]
        loads.append(g.uniform(-1.0, 1.0, c) * LINEAR_AMP_REL * sigma)
        mid = t[-1] / 2.0 if n > 1 else 0.0
        waves.append((t - mid) / (mid if mid > 0 else 1.0))
        data += (drift_scale * np.stack(loads, axis=1)) @ np.stack(waves)
    if noise_scale > 0:
        eps = key.child("noise").generator().standard_normal((c, n))
        eps *= noise_scale * sigma[:, None]
        data += eps
        del eps  # before the float32 output exists

    run = FmriRun(data.astype(np.float32), timeline, subject.subject_id, run_id)
    run.validate()
    return run
