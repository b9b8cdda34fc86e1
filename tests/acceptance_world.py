"""Shared builders for the heavy acceptance artifacts.

Everything lands in a cache directory (default .cache/acceptance at the repo
root, override with BOLD2IMG_ACCEPT_CACHE); each builder is idempotent, so a
warm cache makes acceptance reruns cheap while a cold cache rebuilds the
exact same artifacts from fixed seeds.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

from bold2img.prep import SplitSpec, build_split_standard, build_split_time_resolved
from bold2img.substrate import RngKey
from bold2img.synthcortex import DatasetConfig, DatasetManifest, build_dataset, load_manifest
from bold2img.trainer import (
    TrainConfig,
    adapt_new_subject,
    pretrain_generator,
    train_single_stage,
)

TR = 1.3
DATASET_SEED = 2026
TRAIN_SEED = 314
SPLIT_SEED = 77

JOINT_STEPS = 10_000
PRETRAIN_STEPS = 5_000
SHUFFLE_STEPS = 6_000
TR_GENERAL_STEPS = 6_000
SPECIALIZED_STEPS = 4_000
MULTI_STEPS = 4_000
ADAPT_STEPS = 2_500

SPECIALIZED_DELTAS = (-3 * TR, 2 * TR, 3 * TR)
HELD_OUT_SUBJECT = "sub04"
ADAPT_RUNS = 9  # 25% of the 36 runs per subject


def cache_root() -> Path:
    root = os.environ.get("BOLD2IMG_ACCEPT_CACHE", str(Path(__file__).resolve().parent.parent / ".cache" / "acceptance"))
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def e2e_enabled() -> bool:
    return os.environ.get("BOLD2IMG_E2E", "") == "1"


def desk_train_config(**overrides) -> TrainConfig:
    base = dict(seed=TRAIN_SEED)
    base.update(overrides)
    return TrainConfig(**base)


def _ckpt_complete(path: Path, steps: int) -> bool:
    if not (path / "manifest.json").exists():
        return False
    doc = json.loads((path / "manifest.json").read_text())
    return doc.get("extra", {}).get("step", -1) >= steps


def ensure_dataset() -> DatasetManifest:
    out = cache_root() / "dataset"
    if (out / "manifest.json").exists():
        return load_manifest(out)
    print("[world] building desk-scale dataset (4 subjects, 500/100 uniques)", flush=True)
    return build_dataset(DatasetConfig(), RngKey(DATASET_SEED), out)


def standard_split(manifest) -> SplitSpec:
    return build_split_standard(manifest)


def tr_split(manifest) -> SplitSpec:
    return build_split_time_resolved(manifest, RngKey(SPLIT_SEED))


def ensure_pretrain(manifest) -> Path:
    out = cache_root() / "pretrain"
    if _ckpt_complete(out, PRETRAIN_STEPS):
        return out
    print(f"[world] pretraining generator ({PRETRAIN_STEPS} steps)", flush=True)
    cfg = desk_train_config(pretrain_steps=PRETRAIN_STEPS)
    return pretrain_generator(manifest, cfg, out, resume_from=out if (out / "manifest.json").exists() else None)


def ensure_joint(manifest) -> tuple[Path, Path]:
    """The standard-split joint model; returns (final 10k dir, 6k snapshot dir)."""
    out = cache_root() / "joint_standard"
    snap = cache_root() / "joint_6k"
    cfg = desk_train_config(steps=JOINT_STEPS)
    pre = ensure_pretrain(manifest)
    split = standard_split(manifest)
    if not _ckpt_complete(snap, 6000):
        print("[world] joint training to 6k", flush=True)
        if not (out / "manifest.json").exists() or not _ckpt_complete(out, 6000):
            train_single_stage(
                manifest, split, pre, cfg, out,
                resume_from=out if (out / "manifest.json").exists() else None,
                stop_after=6000,
            )
        if not _ckpt_complete(out, JOINT_STEPS):
            shutil.copytree(out, snap, dirs_exist_ok=True)
    if not _ckpt_complete(out, JOINT_STEPS):
        print("[world] joint training 6k -> 10k", flush=True)
        train_single_stage(manifest, split, pre, cfg, out, resume_from=out)
    return out, snap


def ensure_shuffle(manifest) -> Path:
    out = cache_root() / "shuffle"
    if _ckpt_complete(out, SHUFFLE_STEPS):
        return out
    print(f"[world] label-shuffle control ({SHUFFLE_STEPS} steps)", flush=True)
    cfg = desk_train_config(steps=SHUFFLE_STEPS, shuffle_conditioning=True)
    return train_single_stage(
        manifest, standard_split(manifest), ensure_pretrain(manifest), cfg, out,
        resume_from=out if (out / "manifest.json").exists() else None,
    )


def ensure_tr_general(manifest) -> Path:
    out = cache_root() / "tr_general"
    if _ckpt_complete(out, TR_GENERAL_STEPS):
        return out
    print(f"[world] time-resolved general model ({TR_GENERAL_STEPS} steps)", flush=True)
    cfg = desk_train_config(steps=TR_GENERAL_STEPS)
    return train_single_stage(
        manifest, tr_split(manifest), ensure_pretrain(manifest), cfg, out,
        resume_from=out if (out / "manifest.json").exists() else None,
    )


def ensure_specialized(manifest, delta: float) -> Path:
    k = round(delta / TR)
    out = cache_root() / f"tr_spec_{'m' if k < 0 else 'p'}{abs(k)}"
    if _ckpt_complete(out, SPECIALIZED_STEPS):
        return out
    print(f"[world] specialized model at delta={k}*TR ({SPECIALIZED_STEPS} steps)", flush=True)
    cfg = desk_train_config(steps=SPECIALIZED_STEPS, delta=delta)
    return train_single_stage(
        manifest, tr_split(manifest), ensure_pretrain(manifest), cfg, out,
        resume_from=out if (out / "manifest.json").exists() else None,
    )


def ensure_multi(manifest) -> Path:
    out = cache_root() / "multi"
    if _ckpt_complete(out, MULTI_STEPS):
        return out
    subjects = [s for s in manifest.subject_ids if s != HELD_OUT_SUBJECT]
    print(f"[world] multi-subject model on {subjects} ({MULTI_STEPS} steps)", flush=True)
    cfg = desk_train_config(steps=MULTI_STEPS)
    return train_single_stage(
        manifest, standard_split(manifest), ensure_pretrain(manifest), cfg, out, subjects=subjects
    )


def ensure_adapted(manifest) -> Path:
    out = cache_root() / "adapted"
    if _ckpt_complete(out, ADAPT_STEPS):
        return out
    print(f"[world] adapting to {HELD_OUT_SUBJECT} on {ADAPT_RUNS} runs ({ADAPT_STEPS} steps)", flush=True)
    cfg = desk_train_config(steps=ADAPT_STEPS)
    return adapt_new_subject(
        ensure_multi(manifest), manifest, standard_split(manifest), HELD_OUT_SUBJECT, ADAPT_RUNS, cfg, out
    )


def ensure_scratch(manifest) -> Path:
    out = cache_root() / "scratch"
    if _ckpt_complete(out, ADAPT_STEPS):
        return out
    print(f"[world] from-scratch {HELD_OUT_SUBJECT} on {ADAPT_RUNS} runs ({ADAPT_STEPS} steps)", flush=True)
    cfg = desk_train_config(steps=ADAPT_STEPS)
    split = standard_split(manifest)
    refs = [(r, e) for r, e in split.train_refs[HELD_OUT_SUBJECT] if r < ADAPT_RUNS]
    split = replace(split, train_refs={HELD_OUT_SUBJECT: refs})
    return train_single_stage(manifest, split, ensure_pretrain(manifest), cfg, out, subjects=[HELD_OUT_SUBJECT])


def warm_everything():
    """Build every heavy artifact in dependency order (hours on a desktop)."""
    manifest = ensure_dataset()
    ensure_pretrain(manifest)
    ensure_joint(manifest)
    ensure_shuffle(manifest)
    ensure_tr_general(manifest)
    for delta in SPECIALIZED_DELTAS:
        ensure_specialized(manifest, delta)
    ensure_multi(manifest)
    ensure_adapted(manifest)
    ensure_scratch(manifest)
    print("[world] all acceptance artifacts ready", flush=True)


if __name__ == "__main__":
    warm_everything()
