"""Trial-wise evaluation protocol, time sweeps, and duration sweeps.

One `EvalConfig` states the protocol (the CLI's `eval` section) and is passed
whole to every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..prep import DEFAULT_TEST_RUN_FRACTION, PreprocCache, SplitSpec, extract_epochs, pick_test_repetitions, window_length
from ..substrate.params import ParamStore
from ..substrate.rng import RngKey
from ..synthcortex.dataset import DatasetManifest
from ..trainer import TrainConfig, infer, load_train_state, train_single_stage
from .metrics import miou, pixcorr, probe_features, resize_nearest, segment_by_palette, ssim, two_way_id

SCHEMA_VERSION = 1
METRICS = ("pixcorr", "ssim", "two_way_low", "two_way_high", "miou")
RESERVED_ABSENT = ("effnet", "swav", "dreamsim")


@dataclass
class EvalConfig:
    steps: int = 20  # DDIM steps
    guidance: float = 3.0  # classifier-free guidance scale
    eval_resolution: int = 32  # metrics resolution; 0 -> the dataset's
    test_run_fraction: float = DEFAULT_TEST_RUN_FRACTION  # time-resolved split
    deltas_tr: tuple = tuple(range(-6, 10))  # the 16 shifted windows, in TRs
    max_trials_per_subject: int = 0  # time-sweep trials per subject; 0 -> all

    def resolution(self, manifest: DatasetManifest) -> int:
        return self.eval_resolution or manifest.resolution


@dataclass
class MetricsReport:
    per_subject: dict[str, dict[str, float]]
    mean: dict[str, float]
    sem: dict[str, float]
    protocol: dict
    reserved_absent: tuple = RESERVED_ABSENT
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "per_subject": self.per_subject,
            "mean": self.mean,
            "sem": self.sem,
            "protocol": self.protocol,
            "reserved_absent": list(self.reserved_absent),
        }


@dataclass
class SweepResult:
    kind: str  # time | duration
    points: list[dict]
    protocol: dict
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "points": self.points,
            "protocol": self.protocol,
        }


def aggregate_subjects(per_subject: dict[str, dict[str, float]]) -> tuple[dict, dict]:
    """Cross-subject mean and SEM (sample std / sqrt(n))."""
    mean, sem = {}, {}
    subjects = sorted(per_subject)
    for metric in next(iter(per_subject.values())):
        vals = np.array([per_subject[s][metric] for s in subjects], dtype=np.float64)
        mean[metric] = float(vals.mean())
        sem[metric] = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, sem


def _gt_features(manifest: DatasetManifest, cache: dict, stim: str, eval_res: int) -> tuple[np.ndarray, np.ndarray]:
    if stim not in cache:
        img = resize_nearest(manifest.load_image(stim), eval_res)
        cache[stim] = (probe_features(img, "low"), probe_features(img, "high"))
    return cache[stim]


def score_trials(
    manifest: DatasetManifest,
    recon_images: np.ndarray,
    epochs: list,
    eval_res: int,
    gt_feature_cache: dict | None = None,
) -> dict[str, dict[str, float]]:
    """Per-subject means of all metrics for aligned (reconstruction, epoch) pairs."""
    gt_feature_cache = gt_feature_cache if gt_feature_cache is not None else {}
    by_subject: dict[str, dict] = {}
    n_classes = manifest.palette.shape[0]
    for img, ep in zip(recon_images, epochs):
        d = by_subject.setdefault(
            ep.subject_id,
            {"pix": [], "ssim": [], "miou": [], "rl": [], "rh": [], "gl": [], "gh": [], "labels": [], "flags": 0},
        )
        recon = resize_nearest(img, eval_res)
        gt_img = resize_nearest(manifest.load_image(ep.stimulus_id), eval_res)
        r, flagged = pixcorr(recon, gt_img)
        d["pix"].append(r)
        d["flags"] += int(flagged)
        d["ssim"].append(ssim(recon, gt_img))
        gt_mask = segment_by_palette(gt_img, manifest.palette)
        d["miou"].append(miou(segment_by_palette(recon, manifest.palette), gt_mask, n_classes))
        gl, gh = _gt_features(manifest, gt_feature_cache, ep.stimulus_id, eval_res)
        d["rl"].append(probe_features(recon, "low"))
        d["rh"].append(probe_features(recon, "high"))
        d["gl"].append(gl)
        d["gh"].append(gh)
        d["labels"].append(ep.stimulus_id)

    out: dict[str, dict[str, float]] = {}
    for sid, d in sorted(by_subject.items()):
        low_id, low_excl = two_way_id(np.stack(d["rl"]), np.stack(d["gl"]), d["labels"])
        high_id, high_excl = two_way_id(np.stack(d["rh"]), np.stack(d["gh"]), d["labels"])
        out[sid] = {
            "pixcorr": float(np.mean(d["pix"])),
            "ssim": float(np.mean(d["ssim"])),
            "two_way_low": low_id,
            "two_way_high": high_id,
            "miou": float(np.mean(d["miou"])),
            "n_trials": len(d["labels"]),
            "flagged_constant": d["flags"],
            "excluded_features": low_excl + high_excl,
        }
    return out


def chosen_test_refs(manifest: DatasetManifest, split: SplitSpec, rep_map: dict[str, int]) -> dict[str, list]:
    """One (run, event) ref per test stimulus per subject, by repetition index."""
    refs: dict[str, list] = {}
    for sid in manifest.subject_ids:
        if sid not in split.test_refs:
            continue
        refs[sid] = []
        for stim in split.test_stimuli:
            locs = manifest.repetition_map[sid][stim]
            r, e = locs[rep_map[stim]]
            refs[sid].append((int(r), int(e)))
    return refs


def held_subject_split(split: SplitSpec, store: ParamStore, ckpt) -> SplitSpec:
    """`split` with its test side cut to the subjects whose layer `store` holds.

    The store, not the checkpoint's recorded subjects, decides: `train
    --subjects` holds fewer subjects than the dataset, and an adapted model
    holds every subject of the one it came from. A checkpoint that holds
    none of the split's subjects raises a ValueError naming it and the
    subjects it holds.
    """
    held = {s: refs for s, refs in split.test_refs.items() if f"brain/subject/{s}/w" in store}
    if not held:
        own = sorted(n.split("/")[2] for n in store.names() if n.startswith("brain/subject/") and n.endswith("/w"))
        raise ValueError(
            f"checkpoint {ckpt} holds subjects {own}, none of the split's test subjects {sorted(split.test_refs)}"
        )
    return replace(split, test_refs=held)


def evaluate_split(
    ckpt_dir,
    manifest: DatasetManifest,
    split: SplitSpec,
    key: RngKey,
    ev: EvalConfig,
    decoder=None,
) -> MetricsReport:
    """Trial-wise metrics, per-subject means, SEM across subjects.

    On the standard split, one seeded repetition of three per test stimulus;
    on the time-resolved split every test-run trial is scored (repetition
    locations there may fall on training runs, so the one-of-three protocol
    does not apply). The checkpoint is loaded once and decodes the trials of
    the subjects it holds (`held_subject_split`), in windows at the shift it
    was trained at; a window that leaves its run raises, as in training. A
    `decoder(epochs) -> images` may stand in for the checkpoint, and then
    windows come from the `TrainConfig` defaults.
    """
    if not split.test_stimuli:
        raise ValueError("split has an empty test side")
    if decoder is None:
        store, _, tc, _ = load_train_state(ckpt_dir)
        split = held_subject_split(split, store, ckpt_dir)
        # keyed like the sweep's evaluation at this shift, so an unshifted
        # sweep point reproduces an unshifted checkpoint's report exactly
        gen_key = key.child("gen", float(tc.delta))

        def decoder(epochs):
            return infer(store, tc, epochs, gen_key, ev.steps, ev.guidance)
    else:
        tc = TrainConfig()
    delta = float(tc.delta)
    eval_res = ev.resolution(manifest)

    if split.kind == "time_resolved":
        rep_map = {}
        refs = split.test_refs
    else:
        rep_map = pick_test_repetitions(split, key.child("reps"))
        refs = chosen_test_refs(manifest, split, rep_map)
    cache = PreprocCache(manifest).build()
    epochs, _ = extract_epochs(cache, refs, tc.window_t, tc.window_d, delta)
    images = decoder(epochs)

    per_subject = score_trials(manifest, images, epochs, eval_res)
    mean, sem = aggregate_subjects(per_subject)
    protocol = {
        "split": split.kind,
        "subjects": sorted(split.test_refs),
        "window_t": tc.window_t,
        "window_d": tc.window_d,
        "delta": delta,
        "steps": ev.steps,
        "guidance": ev.guidance,
        "eval_resolution": eval_res,
        "repetition_map": rep_map,
        "seed_path": repr(key),
    }
    return MetricsReport(per_subject, mean, sem, protocol)


# ---------------------------------------------------------------------------
# shifted-window sweep


def _sweep_point_eval(
    store: ParamStore,
    tc: TrainConfig,
    manifest: DatasetManifest,
    epochs: list,
    key: RngKey,
    ev: EvalConfig,
    gt_cache: dict,
) -> tuple[dict, dict]:
    eval_res = ev.resolution(manifest)
    images = infer(store, tc, epochs, key, ev.steps, ev.guidance)
    per_subject = score_trials(manifest, images, epochs, eval_res, gt_cache)
    # identification of the previous / next stimulus from the same reconstructions
    neighbor: dict[str, dict[str, float]] = {}
    for which in ("prev", "next"):
        feats_by_sid: dict[str, dict] = {}
        for img, ep in zip(images, epochs):
            other = ep.prev_stimulus_id if which == "prev" else ep.next_stimulus_id
            if other is None:
                continue
            d = feats_by_sid.setdefault(ep.subject_id, {"r": [], "g": [], "labels": []})
            d["r"].append(probe_features(resize_nearest(img, eval_res), "low"))
            d["g"].append(_gt_features(manifest, gt_cache, other, eval_res)[0])
            d["labels"].append(other)
        vals = {}
        for sid, d in sorted(feats_by_sid.items()):
            if len(d["labels"]) >= 2:
                vals[sid], _ = two_way_id(np.stack(d["r"]), np.stack(d["g"]), d["labels"])
        if vals:
            neighbor[which] = vals
    return per_subject, neighbor


def match_specialized(specialized_ckpts: dict[float, object], deltas: list[float], tr: float) -> dict[float, object]:
    """Key each specialized checkpoint by the sweep shift it belongs to.

    Shifts match by TR multiple, so a shift typed in decimal (-3.9 s at TR
    1.3) finds the computed -3 * 1.3 = -3.9000000000000004; a shift that is
    no TR multiple or no sweep point raises ValueError naming it.
    """
    by_k = {round(d / tr): d for d in deltas}
    matched = {}
    for delta, ckpt in specialized_ckpts.items():
        k = round(delta / tr)
        if abs(delta / tr - k) > 1e-6 or k not in by_k:
            raise ValueError(f"specialized delta {delta} matches no sweep point (shifts {sorted(deltas)})")
        matched[by_k[k]] = ckpt
    return matched


def time_sweep(
    general_ckpt,
    specialized_ckpts: dict[float, object],
    manifest: DatasetManifest,
    split: SplitSpec,
    key: RngKey,
    deltas: list[float],
    ev: EvalConfig,
) -> SweepResult:
    """Evaluate the general model on test windows shifted by each of `deltas`
    (seconds), and per-shift specialized models on the same epochs. Requires
    the time-resolved split so neighboring trials stay on the test side.
    `specialized_ckpts` is keyed by shift in seconds, matched by TR multiple.
    Each checkpoint is loaded once. The trials are those of the subjects the
    general checkpoint holds."""
    if split.kind != "time_resolved":
        raise ValueError("time sweeps need the time-resolved split")
    store, _, tc, _ = load_train_state(general_ckpt)
    split = held_subject_split(split, store, general_ckpt)
    t, d = tc.window_t, tc.window_d
    t_len = window_length(d, manifest.tr)
    cap = ev.max_trials_per_subject
    cache = PreprocCache(manifest).build()
    gt_cache: dict = {}

    specialized_ckpts = match_specialized(specialized_ckpts, deltas, manifest.tr)
    refs = split.test_refs
    if cap:
        refs = {}
        for sid, lst in split.test_refs.items():
            if len(lst) <= cap:
                refs[sid] = lst
            else:
                pick = key.child("cap", sid).generator().choice(len(lst), cap, replace=False)
                refs[sid] = [lst[i] for i in sorted(pick)]

    points = []
    for delta in sorted(deltas):
        epochs, skipped = extract_epochs(cache, refs, t, d, delta, skip_out_of_bounds=True)
        general_subj, neighbor = _sweep_point_eval(store, tc, manifest, epochs, key.child("gen", delta), ev, gt_cache)
        g_mean, g_sem = aggregate_subjects(general_subj)
        point = {
            "delta": delta,
            "window_end": t + delta + t_len * manifest.tr,
            "n_trials": len(epochs),
            "n_skipped": skipped,
            "general": {"per_subject": general_subj, "mean": g_mean, "sem": g_sem},
            "specialized": None,
        }
        for which, vals in neighbor.items():
            mean, sem = aggregate_subjects({s: {"two_way_low": v} for s, v in vals.items()})
            point[f"{which}_stimulus_id_general"] = {
                "per_subject": vals,
                "mean": mean["two_way_low"],
                "sem": sem["two_way_low"],
            }
        if delta in specialized_ckpts:
            spec_store, _, spec_tc, _ = load_train_state(specialized_ckpts[delta])
            spec_subj, _ = _sweep_point_eval(
                spec_store, spec_tc, manifest, epochs, key.child("spec", delta), ev, gt_cache
            )
            s_mean, s_sem = aggregate_subjects(spec_subj)
            point["specialized"] = {"per_subject": spec_subj, "mean": s_mean, "sem": s_sem}
        points.append(point)

    ends = [p["window_end"] for p in points]
    if ends != sorted(ends):
        raise RuntimeError("window-end times must increase with delta")
    protocol = {
        "subjects": sorted(split.test_refs),
        "window_t": t,
        "window_d": d,
        "deltas": sorted(deltas),
        "steps": ev.steps,
        "guidance": ev.guidance,
        "eval_resolution": ev.resolution(manifest),
        "max_trials_per_subject": cap or None,
        "specialized_available": sorted(specialized_ckpts),
    }
    return SweepResult("time", points, protocol)


def duration_sweep(
    manifest: DatasetManifest,
    split: SplitSpec,
    pretrained_ckpt,
    base_config: TrainConfig,
    durations: list[float],
    out_root,
    key: RngKey,
    ev: EvalConfig,
) -> SweepResult:
    """Train one model per window duration and evaluate each on the split."""
    out_root = Path(out_root)
    points = []
    for dur in durations:
        t_len = window_length(dur, manifest.tr)
        cfg = replace(base_config, window_d=dur)
        ckpt = train_single_stage(manifest, split, pretrained_ckpt, cfg, out_root / f"dur_{t_len}tr")
        report = evaluate_split(ckpt, manifest, split, key.child("eval", t_len), ev)
        points.append(
            {
                "duration_s": dur,
                "window_samples": t_len,
                "mean": report.mean,
                "sem": report.sem,
                "per_subject": report.per_subject,
            }
        )
    protocol = {
        "window_t": base_config.window_t,
        "durations": list(durations),
        "steps": ev.steps,
        "guidance": ev.guidance,
        "eval_resolution": ev.resolution(manifest),
    }
    return SweepResult("duration", points, protocol)
