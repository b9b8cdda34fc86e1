"""Heavy derived checks beyond the acceptance criteria (BOLD2IMG_E2E=1).

These exercise the spec-level behaviors that need real trained models: the
pretrained generator's sample distribution, the window-duration trend, and
per-subject symmetry under identical synthetic subjects.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import acceptance_world as world
from bold2img.evalkit import EvalConfig, evaluate_split, segment_by_palette
from bold2img.prep import build_split_standard
from bold2img.substrate import RngKey
from bold2img.synthcortex import DEFAULT_PALETTE, DatasetConfig, build_dataset, load_manifest
from bold2img.trainer import (
    load_train_state,
    pretrain_generator,
    sample_unconditional,
    train_single_stage,
)

pytestmark = pytest.mark.skipif(not world.e2e_enabled(), reason="heavy end-to-end run; set BOLD2IMG_E2E=1")

TR = world.TR


def test_pretrained_generator_matches_palette_distribution():
    """Unconditional samples should reproduce the training palette histogram
    (per class, within 20% relative)."""
    manifest = world.ensure_dataset()
    pre = world.ensure_pretrain(manifest)
    n = 256
    imgs = sample_unconditional(pre, n, RngKey(1234, ("hist",)))
    counts = np.zeros(DEFAULT_PALETTE.shape[0], dtype=np.int64)
    for img in imgs:
        counts += np.bincount(segment_by_palette(img, DEFAULT_PALETTE).ravel(), minlength=len(counts))
    gen_freq = counts / counts.sum()

    train_counts = np.zeros_like(counts)
    for stim in manifest.train_stimuli():
        train_counts += np.bincount(manifest.load_mask(stim).ravel(), minlength=len(counts))
    train_freq = train_counts / train_counts.sum()

    print("\n  class train-freq gen-freq")
    for c in range(len(counts)):
        print(f"  {c}: {train_freq[c]:.4f} {gen_freq[c]:.4f}")
    for c in range(len(counts)):
        assert abs(gen_freq[c] - train_freq[c]) <= 0.20 * train_freq[c] + 1e-4, (
            f"class {c}: generated {gen_freq[c]:.4f} vs train {train_freq[c]:.4f}"
        )


def test_duration_trend_low_level_identification():
    """A 6-TR window should identify at least as well as a 1-TR window."""
    manifest = world.ensure_dataset()
    pre = world.ensure_pretrain(manifest)
    split = build_split_standard(manifest)
    root = world.cache_root() / "duration"
    scores = {}
    for k in (1, 6):
        out = root / f"d{k}tr"
        if not (out / "manifest.json").exists():
            cfg = world.desk_train_config(steps=2500, window_d=k * TR)
            train_single_stage(manifest, split, pre, cfg, out, subjects=["sub01", "sub02"])
        report = evaluate_split(out, manifest, _two_subject_split(split), RngKey(71, ("dur", k)), EvalConfig())
        scores[k] = report.mean["two_way_low"]
        # a 1-TR model consumes (C, 1) windows by construction
        ckpt_cfg = load_train_state(out)[2]
        assert round(ckpt_cfg.window_d / TR) == k
    print(f"\n  two_way_low: 1TR={scores[1]:.1f} 6TR={scores[6]:.1f}")
    assert scores[6] >= scores[1]


def _two_subject_split(split):
    from bold2img.prep import SplitSpec

    keep = ["sub01", "sub02"]
    return SplitSpec(
        split.kind,
        {s: split.train_refs[s] for s in keep},
        {s: split.test_refs[s] for s in keep},
        split.test_stimuli,
    )


def test_identical_subjects_score_symmetrically():
    """Two subjects with the same tuning and the same recordings should land
    within a few identification points of each other."""
    root = world.cache_root() / "twins"
    ds = root / "ds"
    if not (ds / "manifest.json").exists():
        cfg = DatasetConfig(
            n_subjects=1,
            n_train_unique=80,
            n_test_unique=20,
            trials_per_run=50,
            voxel_lo=400,
            voxel_hi=500,
        )
        build_dataset(cfg, RngKey(808), ds)
        _clone_subject(ds, "sub01", "sub02")
    manifest = load_manifest(ds)
    split = build_split_standard(manifest)

    cfg = world.desk_train_config(steps=2000, pretrain_steps=1500)
    pre = root / "pre"
    if not (pre / "manifest.json").exists():
        pretrain_generator(manifest, cfg, pre)
    out = root / "multi"
    if not (out / "manifest.json").exists():
        train_single_stage(manifest, split, pre, cfg, out, subjects=["sub01", "sub02"])

    report = evaluate_split(out, manifest, split, RngKey(809, ("twins",)), EvalConfig())
    a = report.per_subject["sub01"]["two_way_low"]
    b = report.per_subject["sub02"]["two_way_low"]
    print(f"\n  identical subjects: sub01={a:.1f} sub02={b:.1f}")
    assert abs(a - b) <= 5.0


def _clone_subject(ds: Path, src: str, dst: str):
    """Duplicate a subject on disk: same tuning, same run data, new id."""
    doc = json.loads((ds / "manifest.json").read_text())
    shutil.copytree(ds / "subjects" / src, ds / "subjects" / dst)
    src_runs = doc["runs"][src]
    dst_runs = []
    for entry in src_runs:
        rel = entry["file"].replace(f"{src}_", f"{dst}_")
        shutil.copyfile(ds / entry["file"], ds / rel)
        dst_runs.append({**entry, "file": rel})
    doc["runs"][dst] = dst_runs
    doc["repetition_map"][dst] = doc["repetition_map"][src]
    doc["subjects"].append({**[s for s in doc["subjects"] if s["id"] == src][0], "id": dst, "dir": f"subjects/{dst}"})
    (ds / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1))


def test_time_sweep_delta_zero_matches_evaluate_split():
    """The sweep's unshifted point is the plain evaluation on the same trials."""
    from bold2img.evalkit import time_sweep

    manifest = world.ensure_dataset()
    general = world.ensure_tr_general(manifest)
    split = world.tr_split(manifest)
    key = RngKey(515, ("eqcheck",))
    sweep = time_sweep(general, [], manifest, split, key, [0.0], EvalConfig())
    report = evaluate_split(general, manifest, split, key, EvalConfig())
    for metric in ("two_way_low", "miou", "pixcorr"):
        a = sweep.points[0]["general"]["mean"][metric]
        b = report.mean[metric]
        assert abs(a - b) < 1e-6, (metric, a, b)
