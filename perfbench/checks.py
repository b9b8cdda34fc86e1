"""Output checks for each workload; each raises CheckFailed naming what is wrong.

The program's own loaders (``load_train_state``, ``load_manifest``,
``read_tensor``) are passed in, so the checks read artifacts through the same
public functions a user would.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

REPORT_METRICS = ("pixcorr", "ssim", "two_way_low", "two_way_high", "miou")


class CheckFailed(Exception):
    pass


def check_training(out_dir, steps: int, load_train_state) -> str:
    """loss.csv is finite and covers steps 0..steps-1; the checkpoint reloads
    at step `steps`. Returns the loss rows for cross-call comparison."""
    out_dir = Path(out_dir)
    path = out_dir / "loss.csv"
    if not path.is_file():
        raise CheckFailed(f"{path}: missing")
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",")[:2] != ["step", "loss"]:
        raise CheckFailed(f"{path}: bad header")
    rows = lines[1:]
    if len(rows) != steps:
        raise CheckFailed(f"{path}: {len(rows)} rows for {steps} steps")
    for i, row in enumerate(rows):
        fields = row.split(",")
        try:
            step, loss = int(fields[0]), float(fields[1])
        except (IndexError, ValueError):
            raise CheckFailed(f"{path}: unreadable row {i}: {row!r}") from None
        if step != i:
            raise CheckFailed(f"{path}: row {i} is step {step}")
        if not math.isfinite(loss):
            raise CheckFailed(f"{path}: non-finite loss at step {step}")
    try:
        _, opt, _, _ = load_train_state(out_dir)
    except (OSError, ValueError, KeyError, struct.error) as e:
        raise CheckFailed(f"{out_dir}: checkpoint does not reload: {e}") from None
    if opt.step != steps:
        raise CheckFailed(f"{out_dir}: checkpoint at step {opt.step}, expected {steps}")
    return "\n".join(rows)


def loss_final(rows: str, window: int) -> float:
    """Mean loss over the last `window` rows of a checked loss.csv body."""
    losses = [float(r.split(",")[1]) for r in rows.splitlines()]
    tail = losses[-window:]
    return sum(tail) / len(tail)


def check_report(eval_dir, subjects: list[str], n_trials: int):
    """report.json scores every subject on all five metrics, finite, over
    the planned number of trials."""
    path = Path(eval_dir) / "report.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise CheckFailed(f"{path}: unreadable: {e}") from None
    per_subject = report.get("per_subject", {})
    if sorted(per_subject) != sorted(subjects):
        raise CheckFailed(f"{path}: subjects {sorted(per_subject)} != {sorted(subjects)}")
    for sid, row in sorted(per_subject.items()):
        for metric in REPORT_METRICS:
            value = row.get(metric)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise CheckFailed(f"{path}: {sid}/{metric} = {value!r}")
        if row.get("n_trials") != n_trials:
            raise CheckFailed(f"{path}: {sid} scored {row.get('n_trials')} trials, planned {n_trials}")
    for metric in REPORT_METRICS:
        value = report.get("mean", {}).get(metric)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"{path}: mean {metric} = {value!r}")


def check_dataset(root, plan: dict, load_manifest, read_tensor):
    """The manifest loads back and matches the plan; every raw and
    preprocessed run has its planned shape and finite values, and every
    preprocessed voxel is z-scored (or zeroed when flat)."""
    root = Path(root)
    try:
        m = load_manifest(root)
    except (OSError, ValueError, KeyError) as e:
        raise CheckFailed(f"{root}: manifest does not load: {e}") from None
    if len(m.subject_ids) != plan["n_subjects"]:
        raise CheckFailed(f"{root}: {len(m.subject_ids)} subjects, planned {plan['n_subjects']}")
    if len(m.stimulus_ids) != plan["n_stimuli"]:
        raise CheckFailed(f"{root}: {len(m.stimulus_ids)} stimuli, planned {plan['n_stimuli']}")
    indexes = sorted(root.glob("preproc_c*/index.json"))
    if len(indexes) != 1:
        raise CheckFailed(f"{root}: expected one preprocessing cache, found {len(indexes)}")
    pre_dir = indexes[0].parent
    pre_index = json.loads(indexes[0].read_text())["runs"]
    window_s = plan["window_t"] + plan["window_d"]
    n_volumes = None
    for sid in m.subject_ids:
        c = m.subject_voxels[sid]
        if not plan["voxel_lo"] <= c <= plan["voxel_hi"]:
            raise CheckFailed(f"{root}: {sid} has {c} voxels outside [{plan['voxel_lo']}, {plan['voxel_hi']}]")
        if len(m.runs[sid]) != plan["runs_per_subject"]:
            raise CheckFailed(f"{root}: {sid} has {len(m.runs[sid])} runs, planned {plan['runs_per_subject']}")
        for r, entry in enumerate(m.runs[sid]):
            if len(entry["events"]) != plan["trials_per_run"]:
                raise CheckFailed(f"{root}: {sid} run {r} has {len(entry['events'])} events")
            raw = _read(read_tensor, root / entry["file"])
            n_volumes = raw.shape[1] if n_volumes is None else n_volumes
            last_onset = max(e["onset"] for e in entry["events"])
            if raw.shape != (c, n_volumes) or n_volumes * m.tr < last_onset + window_s:
                raise CheckFailed(f"{root / entry['file']}: shape {raw.shape}, planned ({c}, {n_volumes})")
            name = pre_index.get(f"{sid}/{r}")
            if name is None:
                raise CheckFailed(f"{pre_dir}: run {sid}/{r} not indexed")
            pre = _read(read_tensor, pre_dir / name)
            if pre.shape != raw.shape:
                raise CheckFailed(f"{pre_dir / name}: shape {pre.shape} != raw {raw.shape}")
            mu = pre.mean(axis=1, dtype=np.float64)
            sd = pre.std(axis=1, dtype=np.float64)
            flat = sd < 1e-6
            if np.abs(mu).max() > 1e-3 or np.abs(sd[~flat] - 1.0).max(initial=0.0) > 1e-3:
                raise CheckFailed(f"{pre_dir / name}: not z-scored per voxel")


def _read(read_tensor, path):
    try:
        arr = read_tensor(path)
    except (OSError, ValueError, struct.error) as e:
        raise CheckFailed(f"{path}: unreadable: {e}") from None
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path}: non-finite values")
    return arr
