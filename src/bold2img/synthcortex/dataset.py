"""Dataset assembly: stimulus catalog, per-subject runs, on-disk layout.

Layout under the dataset root:
    manifest.json
    stimuli/images/<stim>.bin   (32, 32, 3) float32 RGB
    stimuli/masks/<stim>.bin    (32, 32) int32 class ids
    subjects/<sub>/<field>.bin  voxel tuning arrays
    runs/<sub>_<run>.bin        (C, n_volumes) float32

Generation is a pure function of (config, seed): a rebuild is byte-identical.
A rebuild into an existing root deletes its manifest first, so an
interrupted build leaves a root that fails to load instead of a mix of two.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..lanes import on_lanes
from ..substrate.checkpoint import read_json_object, read_tensor, write_tensor
from ..substrate.rng import RngKey
from .scenes import DEFAULT_PALETTE, StimulusScene, render_mask, render_scene, sample_scene, validate_palette
from .simulate import TR_DEFAULT, FmriRun, RunTimeline, Event, event_kernels, make_timeline, simulate_run
from .subjects import SubjectSpec, make_subject

SCHEMA_VERSION = 1

_SUBJECT_FIELDS = ("rf_center", "rf_width", "colorsel", "gain", "noise_sigma", "delay_jitter")


@dataclass
class DatasetConfig:
    n_subjects: int = 4
    n_train_unique: int = 500
    n_test_unique: int = 100
    repetitions: int = 3
    trials_per_run: int = 50
    tr: float = TR_DEFAULT
    resolution: int = 32
    voxel_lo: int = 400  # each subject's voxel count is drawn from [voxel_lo, voxel_hi]
    voxel_hi: int = 600
    noise_scale: float = 1.0  # multiplies each voxel's noise sigma
    drift_scale: float = 1.0  # multiplies the slow drift

    def validate(self):
        for key in ("noise_scale", "drift_scale"):
            if getattr(self, key) < 0:
                raise ValueError(f"dataset.{key} must be >= 0, got {getattr(self, key)}")
        if self.voxel_lo < 1:
            raise ValueError(f"dataset.voxel_lo must be >= 1, got {self.voxel_lo}")
        if self.voxel_lo > self.voxel_hi:
            raise ValueError(f"dataset.voxel_lo ({self.voxel_lo}) must not exceed dataset.voxel_hi ({self.voxel_hi})")
        n_counts = self.voxel_hi - self.voxel_lo + 1
        if n_counts < self.n_subjects:
            raise ValueError(
                f"dataset.voxel_lo..dataset.voxel_hi holds {n_counts} distinct voxel counts, "
                f"fewer than dataset.n_subjects ({self.n_subjects})"
            )

    @property
    def n_unique(self) -> int:
        return self.n_train_unique + self.n_test_unique

    @property
    def trials_per_subject(self) -> int:
        return self.n_unique * self.repetitions

    @property
    def runs_per_subject(self) -> int:
        return self.trials_per_subject // self.trials_per_run


def plan_dataset(config: DatasetConfig) -> dict:
    """Trial/run bookkeeping without touching disk (scale dry-checks)."""
    config.validate()
    if config.trials_per_subject % config.trials_per_run:
        raise ValueError(
            f"{config.trials_per_subject} trials per subject do not fill runs of {config.trials_per_run}"
        )
    return {
        "train_trials_per_subject": config.n_train_unique * config.repetitions,
        "test_trials_per_subject": config.n_test_unique * config.repetitions,
        "trials_per_subject": config.trials_per_subject,
        "runs_per_subject": config.runs_per_subject,
    }


@dataclass
class DatasetManifest:
    root: Path
    palette: np.ndarray
    tr: float
    resolution: int
    subject_ids: list[str]
    subject_voxels: dict[str, int]
    stimulus_ids: list[str]
    scenes: dict[str, StimulusScene]
    split_tag: dict[str, str]  # stimulus -> train | test
    runs: dict[str, list[dict]]  # subject -> [{run_id, file, events}]
    repetition_map: dict[str, dict[str, list]]  # subject -> stim -> [(run_idx, event_idx)] * reps
    config: dict

    def train_stimuli(self) -> list[str]:
        return [s for s in self.stimulus_ids if self.split_tag[s] == "train"]

    def test_stimuli(self) -> list[str]:
        return [s for s in self.stimulus_ids if self.split_tag[s] == "test"]

    def load_image(self, stim: str) -> np.ndarray:
        return read_tensor(self.root / "stimuli" / "images" / f"{stim}.bin")

    def load_mask(self, stim: str) -> np.ndarray:
        return read_tensor(self.root / "stimuli" / "masks" / f"{stim}.bin")

    def subject_spec(self, subject: str) -> SubjectSpec:
        d = self.root / "subjects" / subject
        fields = {f: read_tensor(d / f"{f}.bin") for f in _SUBJECT_FIELDS}
        fields = {k: v.astype(np.float64) for k, v in fields.items()}
        spec = SubjectSpec(subject, self.subject_voxels[subject], **fields)
        spec.validate()
        return spec

    def load_run(self, subject: str, run_idx: int, path=None) -> FmriRun:
        """The run with its timeline; `path` reads the data from another file
        of the same shape (a preprocessed copy) instead of the raw run."""
        entry = self.runs[subject][run_idx]
        data = read_tensor(path if path is not None else self.root / entry["file"])
        events = [Event(e["onset"], e["stimulus_id"], e["duration"]) for e in entry["events"]]
        tl = RunTimeline(self.tr, data.shape[1], events)
        return FmriRun(data, tl, subject, entry["run_id"])


def build_dataset(config: DatasetConfig, key: RngKey, out_dir, workers: int = 1) -> DatasetManifest:
    """Generate and write the full dataset; returns its manifest.

    Here the scenes are sampled, the subjects made and written, and each
    run's trials laid out. The stimuli are then rendered, and the runs
    synthesized, item i on lane i mod L, L = min(`workers`, items)
    (`lanes.on_lanes`), each lane writing its own items' files. The runs
    come in subject order, so a lane builds the event kernels of each
    subject it meets once and holds one subject's at a time. Every item
    draws from its own derived stream, so the bytes do not depend on
    `workers`. The manifest is written here, last. A failed item raises an
    error that names it (`sub01/run003`, or its stimulus).
    """
    plan = plan_dataset(config)
    validate_palette(DEFAULT_PALETTE)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    # files are overwritten in place and the manifest is written last, so a
    # build that dies partway must leave no manifest behind to load
    (root / "manifest.json").unlink(missing_ok=True)

    # --- stimulus catalog (shared across subjects) ---
    stim_ids = [f"stim{i:05d}" for i in range(config.n_unique)]
    scenes = {sid: sample_scene(key.child("scene", sid)) for sid in stim_ids}
    split_tag = {sid: "train" if i < config.n_train_unique else "test" for i, sid in enumerate(stim_ids)}

    # --- subjects with distinct voxel counts ---
    subject_ids = [f"sub{i + 1:02d}" for i in range(config.n_subjects)]
    subjects: dict[str, SubjectSpec] = {}
    used_c: set[int] = set()
    for sid in subject_ids:
        for attempt in range(64):
            spec = make_subject(sid, key.child("subject", sid, attempt), config.voxel_lo, config.voxel_hi)
            if spec.n_voxels not in used_c:
                break
        else:
            raise RuntimeError("could not draw distinct voxel counts")
        used_c.add(spec.n_voxels)
        subjects[sid] = spec
        for f in _SUBJECT_FIELDS:
            write_tensor(root / "subjects" / sid / f"{f}.bin", getattr(spec, f).astype(np.float64))

    # --- per-subject trial sequences and runs ---
    runs: dict[str, list[dict]] = {}
    rep_map: dict[str, dict[str, list]] = {}
    jobs = []  # (subject, run id, timeline, file)
    for sid in subject_ids:
        sequence = np.repeat(np.arange(config.n_unique), config.repetitions)
        order = key.child("order", sid).permutation(len(sequence))
        sequence = sequence[order]
        runs[sid] = []
        rep_map[sid] = {s: [] for s in stim_ids}
        for r in range(config.runs_per_subject):
            chunk = sequence[r * config.trials_per_run : (r + 1) * config.trials_per_run]
            trial_stims = [stim_ids[i] for i in chunk]
            timeline = make_timeline(trial_stims, config.tr)
            run_id = f"run{r:03d}"
            rel = f"runs/{sid}_{run_id}.bin"
            jobs.append((sid, run_id, timeline, rel))
            runs[sid].append({"run_id": run_id, "file": rel, "events": [e.to_json() for e in timeline.events]})
            for ei, stim in enumerate(trial_stims):
                rep_map[sid][stim].append([r, ei])

    def render(sid):
        write_tensor(root / "stimuli" / "images" / f"{sid}.bin", render_scene(scenes[sid], config.resolution))
        write_tensor(root / "stimuli" / "masks" / f"{sid}.bin", render_mask(scenes[sid], config.resolution))

    held = {}  # this lane's current event kernels, by (subject, volumes, onsets)

    def synthesize(job):
        sid, run_id, timeline, rel = job
        pacing = (sid, timeline.n_volumes, tuple(e.onset for e in timeline.events))
        if pacing not in held:
            held.clear()  # the last subject's kernels go before the next subject's exist
            held[pacing] = event_kernels(subjects[sid], timeline)
        run_key = key.child("run", sid, run_id)
        run = simulate_run(
            subjects[sid], timeline, scenes, run_key, config.noise_scale, config.drift_scale, run_id,
            kernels=held[pacing],
        )
        write_tensor(root / rel, run.data)

    on_lanes(stim_ids, render, workers, str)
    on_lanes(jobs, synthesize, workers, lambda job: f"{job[0]}/{job[1]}")
    held.clear()

    for sid in subject_ids:
        for stim in stim_ids:
            if len(rep_map[sid][stim]) != config.repetitions:
                raise RuntimeError(f"{sid}/{stim}: {len(rep_map[sid][stim])} repetitions != {config.repetitions}")

    manifest = DatasetManifest(
        root=root,
        palette=DEFAULT_PALETTE.copy(),
        tr=config.tr,
        resolution=config.resolution,
        subject_ids=subject_ids,
        subject_voxels={s: subjects[s].n_voxels for s in subject_ids},
        stimulus_ids=stim_ids,
        scenes=scenes,
        split_tag=split_tag,
        runs=runs,
        repetition_map=rep_map,
        config={"plan": plan, "dataset_config": json.loads(json.dumps(asdict(config)))},
    )
    _write_manifest(manifest)
    return manifest


def _write_manifest(m: DatasetManifest):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "palette": m.palette.tolist(),
        "tr": m.tr,
        "resolution": m.resolution,
        "subjects": [{"id": s, "n_voxels": m.subject_voxels[s], "dir": f"subjects/{s}"} for s in m.subject_ids],
        "stimuli": [
            {
                "id": s,
                "split": m.split_tag[s],
                "scene": m.scenes[s].to_json(),
                "image": f"stimuli/images/{s}.bin",
                "mask": f"stimuli/masks/{s}.bin",
            }
            for s in m.stimulus_ids
        ],
        "runs": m.runs,
        "repetition_map": m.repetition_map,
        "config": m.config,
    }
    # no indent: with one, json runs its pure-Python encoder, 4x slower on a desk manifest
    (m.root / "manifest.json").write_text(json.dumps(doc, sort_keys=True))


def load_manifest(root) -> DatasetManifest:
    root = Path(root)
    doc = read_json_object(root / "manifest.json")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{root}: unsupported dataset schema")
    try:
        return DatasetManifest(
            root=root,
            palette=np.asarray(doc["palette"], dtype=np.float32),
            tr=doc["tr"],
            resolution=doc["resolution"],
            subject_ids=[s["id"] for s in doc["subjects"]],
            subject_voxels={s["id"]: s["n_voxels"] for s in doc["subjects"]},
            stimulus_ids=[s["id"] for s in doc["stimuli"]],
            scenes={s["id"]: StimulusScene.from_json(s["scene"]) for s in doc["stimuli"]},
            split_tag={s["id"]: s["split"] for s in doc["stimuli"]},
            runs=doc["runs"],
            repetition_map=doc["repetition_map"],
            config=doc["config"],
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"{root / 'manifest.json'}: malformed ({type(e).__name__}: {e})") from None
