"""Synthetic cortex: stimuli, voxel encoding models, and BOLD run simulation."""

from .dataset import DatasetConfig, DatasetManifest, build_dataset, load_manifest, plan_dataset
from .hrf import hrf, hrf_peak
from .scenes import (
    DEFAULT_PALETTE,
    KINDS,
    N_COLORS,
    Shape,
    StimulusScene,
    render_mask,
    render_scene,
    sample_scene,
    validate_palette,
)
from .simulate import Event, FmriRun, RunTimeline, event_kernels, make_timeline, simulate_run
from .subjects import SubjectSpec, make_subject, scene_response, voxel_response

__all__ = [
    "DatasetConfig",
    "DatasetManifest",
    "build_dataset",
    "load_manifest",
    "plan_dataset",
    "hrf",
    "hrf_peak",
    "DEFAULT_PALETTE",
    "KINDS",
    "N_COLORS",
    "Shape",
    "StimulusScene",
    "render_mask",
    "render_scene",
    "sample_scene",
    "validate_palette",
    "Event",
    "FmriRun",
    "RunTimeline",
    "event_kernels",
    "make_timeline",
    "simulate_run",
    "SubjectSpec",
    "make_subject",
    "scene_response",
    "voxel_response",
]
