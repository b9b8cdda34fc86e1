"""Metric suite, evaluation protocol, sweeps, and report emission."""

from .evaluate import (
    METRICS,
    EvalConfig,
    MetricsReport,
    SweepResult,
    chosen_test_refs,
    duration_sweep,
    evaluate_split,
    held_subject_split,
    match_specialized,
    score_trials,
    summarize,
    time_sweep,
)
from .metrics import (
    PROBE_SEED,
    miou,
    pixcorr,
    probe_features,
    probe_weights_digest,
    resize_nearest,
    segment_by_palette,
    ssim,
    two_way_id,
)
from .report import emit_report, emit_sweep

__all__ = [
    "METRICS",
    "EvalConfig",
    "MetricsReport",
    "SweepResult",
    "chosen_test_refs",
    "duration_sweep",
    "evaluate_split",
    "held_subject_split",
    "match_specialized",
    "score_trials",
    "summarize",
    "time_sweep",
    "PROBE_SEED",
    "miou",
    "pixcorr",
    "probe_features",
    "probe_weights_digest",
    "resize_nearest",
    "segment_by_palette",
    "ssim",
    "two_way_id",
    "emit_report",
    "emit_sweep",
]
