"""Trial-wise evaluation protocol, time sweeps, and duration sweeps.

One `EvalConfig` states the protocol (the CLI's `eval` section) and is passed
whole to every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..prep import DEFAULT_TEST_RUN_FRACTION, PreprocCache, SplitSpec, extract_epochs, pick_test_repetitions, window_length
from ..substrate.params import ParamStore
from ..substrate.rng import RngKey
from ..synthcortex.dataset import DatasetManifest
from ..trainer import TrainConfig, infer, load_train_state, recorded_train_config
from .metrics import SSIM_WINDOW, miou, pixcorr, probe_features, resize_nearest, segment_by_palette, ssim, two_way_id

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

    def validate(self):
        """Reject the settings that fail only after decoding, or not at all."""
        if self.steps < 1:
            raise ValueError(f"eval.steps must be >= 1, got {self.steps}")
        if self.eval_resolution and self.eval_resolution < SSIM_WINDOW:
            raise ValueError(
                f"eval.eval_resolution must be 0 (the dataset's) or at least the {SSIM_WINDOW}-pixel SSIM window, "
                f"got {self.eval_resolution}"
            )
        if not 0.0 < self.test_run_fraction < 1.0:
            raise ValueError(f"eval.test_run_fraction must lie in (0, 1), got {self.test_run_fraction}")
        if not self.deltas_tr:
            raise ValueError("eval.deltas_tr must hold at least one shift")
        if self.max_trials_per_subject < 0 or self.max_trials_per_subject == 1:
            raise ValueError(
                "eval.max_trials_per_subject must be 0 (all) or >= 2, the fewest trials two-way "
                f"identification compares, got {self.max_trials_per_subject}"
            )

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


@dataclass
class SweepResult:
    kind: str  # time | duration
    points: list[dict]
    protocol: dict
    schema_version: int = SCHEMA_VERSION


def summarize(per_subject: dict[str, dict[str, float]]) -> dict:
    """`per_subject` with each metric's cross-subject mean and SEM (sample std / sqrt(n))."""
    mean, sem = {}, {}
    subjects = sorted(per_subject)
    for metric in next(iter(per_subject.values())):
        vals = np.array([per_subject[s][metric] for s in subjects], dtype=np.float64)
        mean[metric] = float(vals.mean())
        sem[metric] = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return {"per_subject": per_subject, "mean": mean, "sem": sem}


def _ground_truth(manifest: DatasetManifest, cache: dict, stim: str, eval_res: int) -> tuple:
    """A stimulus's image at the eval resolution, its palette mask and its low
    and high probe features, computed on its first request to `cache`."""
    if stim not in cache:
        img = resize_nearest(manifest.load_image(stim), eval_res)
        mask = segment_by_palette(img, manifest.palette)
        cache[stim] = (img, mask, probe_features(img, "low"), probe_features(img, "high"))
    return cache[stim]


def score_trials(
    manifest: DatasetManifest,
    recon_images: np.ndarray,
    epochs: list,
    eval_res: int,
    truth: dict,
) -> tuple[dict[str, dict[str, float]], list[np.ndarray]]:
    """Per-subject means of all metrics for aligned (reconstruction, epoch)
    pairs, and each reconstruction's low-level probe features in epoch order.
    `truth` caches the ground truth per stimulus (`_ground_truth`)."""
    recon = [resize_nearest(img, eval_res) for img in recon_images]
    recon_low = [probe_features(r, "low") for r in recon]
    gt_img, gt_mask, gt_low, gt_high = zip(*(_ground_truth(manifest, truth, ep.stimulus_id, eval_res) for ep in epochs))
    n_classes = manifest.palette.shape[0]
    out: dict[str, dict[str, float]] = {}
    for sid in sorted({ep.subject_id for ep in epochs}):
        idx = [i for i, ep in enumerate(epochs) if ep.subject_id == sid]
        labels = [epochs[i].stimulus_id for i in idx]
        pix = [pixcorr(recon[i], gt_img[i]) for i in idx]
        low_id, low_excl = two_way_id(np.stack([recon_low[i] for i in idx]), np.stack([gt_low[i] for i in idx]), labels)
        recon_high = np.stack([probe_features(recon[i], "high") for i in idx])
        high_id, high_excl = two_way_id(recon_high, np.stack([gt_high[i] for i in idx]), labels)
        ious = [miou(segment_by_palette(recon[i], manifest.palette), gt_mask[i], n_classes) for i in idx]
        out[sid] = {
            "pixcorr": float(np.mean([r for r, _ in pix])),
            "ssim": float(np.mean([ssim(recon[i], gt_img[i]) for i in idx])),
            "two_way_low": low_id,
            "two_way_high": high_id,
            "miou": float(np.mean(ious)),
            "n_trials": len(idx),
            "flagged_constant": sum(flagged for _, flagged in pix),
            "excluded_features": low_excl + high_excl,
        }
    return out, recon_low


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
    workers: int = 1,
) -> MetricsReport:
    """Trial-wise metrics, per-subject means, SEM across subjects.

    On the standard split, one seeded repetition of three per test stimulus;
    on the time-resolved split every test-run trial is scored (repetition
    locations there may fall on training runs, so the one-of-three protocol
    does not apply). The checkpoint is loaded once and decodes the trials of
    the subjects it holds (`held_subject_split`), in windows at the shift it
    was trained at; a window that leaves its run raises, as in training. A
    `decoder(epochs) -> images` may stand in for the checkpoint, and then
    windows come from the `TrainConfig` defaults. The checkpoint decodes on
    `workers` lanes (`infer`).
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
            return infer(store, tc, epochs, gen_key, ev.steps, ev.guidance, workers)
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
    cache = PreprocCache(manifest, workers=workers).build()
    epochs, _ = extract_epochs(cache, refs, tc.window_t, tc.window_d, delta)
    images = decoder(epochs)

    per_subject, _ = score_trials(manifest, images, epochs, eval_res, {})
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
    return MetricsReport(**summarize(per_subject), protocol=protocol)


# ---------------------------------------------------------------------------
# shifted-window sweep


def _neighbor_entries(manifest: DatasetManifest, epochs: list, recon_low: list, truth: dict, eval_res: int) -> dict:
    """Two-way low-level identification of the previous / next stimulus from
    the reconstructions whose features are `recon_low`, for each subject with
    at least two such trials."""
    entries = {}
    for which in ("prev", "next"):
        by_sid: dict[str, list] = {}
        for feats, ep in zip(recon_low, epochs):
            other = ep.prev_stimulus_id if which == "prev" else ep.next_stimulus_id
            if other is not None:
                _, _, gt_low, _ = _ground_truth(manifest, truth, other, eval_res)
                by_sid.setdefault(ep.subject_id, []).append((feats, gt_low, other))
        vals = {}
        for sid, rows in sorted(by_sid.items()):
            if len(rows) >= 2:
                r, g, labels = zip(*rows)
                vals[sid], _ = two_way_id(np.stack(r), np.stack(g), list(labels))
        if vals:
            summary = summarize({sid: {"two_way_low": v} for sid, v in vals.items()})
            entries[f"{which}_stimulus_id_general"] = {
                "per_subject": vals,
                "mean": summary["mean"]["two_way_low"],
                "sem": summary["sem"]["two_way_low"],
            }
    return entries


def keyed_checkpoints(ckpts: list, key_of, what: str) -> dict:
    """{key_of(config): (checkpoint, config)} sorted by key, for the config each
    manifest records (no blob is read). A ValueError from `key_of`, and two
    checkpoints at one key, raise ValueError naming the checkpoint."""
    keyed = {}
    for ckpt in ckpts:
        tc = recorded_train_config(ckpt)
        try:
            key = key_of(tc)
        except ValueError as e:
            raise ValueError(f"checkpoint {ckpt}: {e}") from None
        if key in keyed:
            raise ValueError(f"checkpoints {keyed[key][0]} and {ckpt} are both at {what} {key!r}")
        keyed[key] = (ckpt, tc)
    return dict(sorted(keyed.items()))


def match_specialized(general: TrainConfig, ckpts: list, deltas: list[float], tr: float) -> dict[float, object]:
    """Key each specialized checkpoint by the sweep shift its `train.delta`
    matches by TR multiple; -3.9 s at TR 1.3 finds the computed -3 * 1.3 =
    -3.9000000000000004. A delta on no sweep point, two models at one shift,
    and a window not the `general` model's raise ValueError naming the checkpoint."""
    by_k = {round(d / tr): d for d in deltas}

    def shift(tc: TrainConfig) -> float:
        k = round(tc.delta / tr)
        if abs(tc.delta / tr - k) > 1e-6 or k not in by_k:
            raise ValueError(f"specialized delta {tc.delta} matches no sweep point (shifts {sorted(deltas)})")
        if (tc.window_t, tc.window_d) != (general.window_t, general.window_d):
            raise ValueError(f"its window (window_t {tc.window_t}, window_d {tc.window_d}) is not the general model's")
        return by_k[k]

    return {delta: ckpt for delta, (ckpt, _) in keyed_checkpoints(ckpts, shift, "shift").items()}


def time_sweep(
    general_ckpt,
    specialized_ckpts: list,
    manifest: DatasetManifest,
    split: SplitSpec,
    key: RngKey,
    deltas: list[float],
    ev: EvalConfig,
    workers: int = 1,
) -> SweepResult:
    """Evaluate the general model on test windows shifted by each of `deltas`
    (seconds), and specialized models on the same epochs, each at the shift
    its checkpoint was trained at (`match_specialized`, checked before any
    decoding). Requires the time-resolved split so neighboring trials stay
    on the test side. Each checkpoint is loaded once and decodes on `workers`
    lanes. The trials are those of the subjects the general checkpoint holds."""
    if split.kind != "time_resolved":
        raise ValueError("time sweeps need the time-resolved split")
    store, _, tc, _ = load_train_state(general_ckpt)
    split = held_subject_split(split, store, general_ckpt)
    specialized_ckpts = match_specialized(tc, specialized_ckpts, deltas, manifest.tr)
    t, d = tc.window_t, tc.window_d
    t_len = window_length(d, manifest.tr)
    cap, eval_res = ev.max_trials_per_subject, ev.resolution(manifest)
    cache = PreprocCache(manifest, workers=workers).build()
    truth: dict = {}

    def scored(store: ParamStore, tc: TrainConfig, epochs: list, key: RngKey) -> tuple[dict, list[np.ndarray]]:
        """One model's summary over `epochs` and its reconstructions' low-level features."""
        images = infer(store, tc, epochs, key, ev.steps, ev.guidance, workers)
        per_subject, recon_low = score_trials(manifest, images, epochs, eval_res, truth)
        return summarize(per_subject), recon_low

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
        general, recon_low = scored(store, tc, epochs, key.child("gen", delta))
        point = {
            "delta": delta,
            "window_end": t + delta + t_len * manifest.tr,
            "n_trials": len(epochs),
            "n_skipped": skipped,
            "general": general,
            "specialized": None,
            **_neighbor_entries(manifest, epochs, recon_low, truth, eval_res),
        }
        if delta in specialized_ckpts:
            spec_store, _, spec_tc, _ = load_train_state(specialized_ckpts[delta])
            point["specialized"], _ = scored(spec_store, spec_tc, epochs, key.child("spec", delta))
        points.append(point)

    protocol = {
        "subjects": sorted(split.test_refs),
        "window_t": t,
        "window_d": d,
        "deltas": sorted(deltas),
        "steps": ev.steps,
        "guidance": ev.guidance,
        "eval_resolution": eval_res,
        "max_trials_per_subject": cap or None,
        "specialized_available": sorted(specialized_ckpts),
    }
    return SweepResult("time", points, protocol)


def duration_checkpoints(ckpts: list, tr: float) -> dict[int, tuple]:
    """`keyed_checkpoints` by window length in samples, so sorted by duration;
    windows at different `window_t` raise ValueError naming each checkpoint's."""
    keyed = keyed_checkpoints(ckpts, lambda tc: window_length(tc.window_d, tr), "window length")
    starts = {ckpt: tc.window_t for ckpt, tc in keyed.values()}
    if len(set(starts.values())) > 1:
        raise ValueError(f"checkpoints at different window_t: {starts}")
    return keyed


def duration_sweep(
    ckpts: list, manifest: DatasetManifest, split: SplitSpec, key: RngKey, ev: EvalConfig, workers: int = 1
) -> SweepResult:
    """Evaluate trained checkpoints, one per window duration, on the split,
    each decoding on `workers` lanes. A point's duration is its checkpoint's
    `train.window_d`, and the points are sorted by it (`duration_checkpoints`)."""
    keyed = duration_checkpoints(ckpts, manifest.tr)
    points = []
    for t_len, (ckpt, tc) in keyed.items():
        report = evaluate_split(ckpt, manifest, split, key.child("eval", t_len), ev, workers=workers)
        points.append(
            {
                "duration_s": tc.window_d,
                "window_samples": t_len,
                "mean": report.mean,
                "sem": report.sem,
                "per_subject": report.per_subject,
            }
        )
    protocol = {
        "window_t": tc.window_t,  # the same for every point (duration_checkpoints)
        "durations": [p["duration_s"] for p in points],
        "steps": ev.steps,
        "guidance": ev.guidance,
        "eval_resolution": ev.resolution(manifest),
    }
    return SweepResult("duration", points, protocol)
