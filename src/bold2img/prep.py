"""BOLD preprocessing and epoch extraction.

Per run: a discrete-cosine drift model (constant plus all cosines of period
>= cutoff) is fit per voxel by least squares and subtracted, then each voxel
is z-scored over the run. Windows are indexed with a ceiling rule: the first
sample is the earliest volume acquired at or after onset + t + delta, and
rows never mix (everything is per voxel).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lanes import on_lanes
from .substrate.checkpoint import read_json_object, write_tensor
from .substrate.rng import RngKey
from .synthcortex.dataset import DatasetManifest
from .synthcortex.simulate import Event, FmriRun

DEFAULT_CUTOFF_S = 128.0
DEFAULT_WINDOW_T = 3.0
DEFAULT_WINDOW_D = 8.0
DEFAULT_TEST_RUN_FRACTION = 45.0 / 480.0  # share of runs on the test side of the time-resolved split
DEGENERATE_STD = 1e-8


class WindowError(ValueError):
    """A requested window does not fit inside its run."""


def dct_basis(n_volumes: int, tr: float, cutoff_s: float) -> np.ndarray:
    """Constant + DCT-II cosines with period 2*N*TR/k >= cutoff_s, as columns."""
    n = n_volumes
    k_max = int(math.floor(2.0 * n * tr / cutoff_s))
    cols = [np.ones(n)]
    grid = (np.arange(n) + 0.5) / n
    for k in range(1, k_max + 1):
        cols.append(np.cos(np.pi * k * grid))
    basis = np.stack(cols, axis=1)
    if basis.shape[1] >= n or np.linalg.matrix_rank(basis) < basis.shape[1]:
        raise ValueError(f"rank-deficient drift basis: {basis.shape[1]} columns over {n} volumes")
    return basis


def detrend(run: FmriRun, cutoff_s: float = DEFAULT_CUTOFF_S) -> FmriRun:
    """Subtract the per-voxel least-squares cosine-drift fit."""
    basis = dct_basis(run.timeline.n_volumes, run.timeline.tr, cutoff_s)
    y = run.data.astype(np.float64)
    beta = np.linalg.solve(basis.T @ basis, basis.T @ y.T)
    resid = (y.T - basis @ beta).T
    return FmriRun(resid.astype(np.float32), run.timeline, run.subject_id, run.run_id)


def zscore(run: FmriRun) -> FmriRun:
    """Per-voxel zero mean / unit population std; flat voxels zeroed."""
    if run.timeline.n_volumes < 2:
        raise ValueError("z-scoring needs at least 2 volumes")
    y = run.data.astype(np.float64)
    mu = y.mean(axis=1, keepdims=True)
    sd = y.std(axis=1, keepdims=True)
    degenerate = sd[:, 0] < DEGENERATE_STD
    sd[degenerate] = 1.0
    z = (y - mu) / sd
    z[degenerate] = 0.0
    return FmriRun(z.astype(np.float32), run.timeline, run.subject_id, run.run_id)


def preprocess_run(run: FmriRun, cutoff_s: float = DEFAULT_CUTOFF_S) -> FmriRun:
    return zscore(detrend(run, cutoff_s))


# ---------------------------------------------------------------------------
# windows


def first_window_index(onset: float, t: float, delta: float, tr: float) -> int:
    """Smallest volume index n with n*tr >= onset + t + delta.

    Matches a brute-force scan bit for bit, including float rounding at
    multiples of tr.
    """
    x = onset + t + delta
    if x < 0:
        raise WindowError(f"window start {x:.3f}s precedes run start")
    n = int(math.ceil(x / tr))
    while n > 0 and (n - 1) * tr >= x:
        n -= 1
    while n * tr < x:
        n += 1
    return n


def window_length(d: float, tr: float) -> int:
    return int(round(d / tr))


@dataclass
class Epoch:
    X: np.ndarray  # (C, T) float32
    stimulus_id: str
    subject_id: str
    repetition: int
    delta: float
    run_id: str = ""
    event_index: int = -1
    prev_stimulus_id: str | None = None
    next_stimulus_id: str | None = None

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]


def extract_window(
    run: FmriRun,
    event: Event,
    t: float = DEFAULT_WINDOW_T,
    d: float = DEFAULT_WINDOW_D,
    delta: float = 0.0,
    repetition: int = -1,
    event_index: int = -1,
) -> Epoch:
    """The (C, T) window for one event, a view of the run; hard error if it leaves the run."""
    tr = run.timeline.tr
    t_len = window_length(d, tr)
    try:
        n0 = first_window_index(event.onset, t, delta, tr)
    except WindowError as e:
        raise WindowError(f"event {event.stimulus_id!r} at {event.onset}s: {e}") from None
    if n0 + t_len > run.timeline.n_volumes:
        raise WindowError(
            f"event {event.stimulus_id!r} at {event.onset}s: window [{n0}, {n0 + t_len}) "
            f"exceeds run of {run.timeline.n_volumes} volumes"
        )
    events = run.timeline.events
    prev_id = events[event_index - 1].stimulus_id if event_index > 0 else None
    next_id = (
        events[event_index + 1].stimulus_id
        if 0 <= event_index < len(events) - 1
        else None
    )
    return Epoch(
        X=run.data[:, n0 : n0 + t_len],
        stimulus_id=event.stimulus_id,
        subject_id=run.subject_id,
        repetition=repetition,
        delta=delta,
        run_id=run.run_id,
        event_index=event_index,
        prev_stimulus_id=prev_id,
        next_stimulus_id=next_id,
    )


# ---------------------------------------------------------------------------
# splits


@dataclass
class SplitSpec:
    kind: str  # standard | time_resolved
    train_refs: dict[str, list[tuple[int, int]]]  # subject -> [(run_idx, event_idx)]
    test_refs: dict[str, list[tuple[int, int]]]
    test_stimuli: list[str]


def build_split_standard(manifest: DatasetManifest) -> SplitSpec:
    """Stimulus-level split: every trial of a train/test stimulus is train/test."""
    train_refs: dict[str, list] = {s: [] for s in manifest.subject_ids}
    test_refs: dict[str, list] = {s: [] for s in manifest.subject_ids}
    for subj in manifest.subject_ids:
        for stim in manifest.stimulus_ids:
            reps = manifest.repetition_map[subj][stim]
            if len(reps) != 3:
                raise ValueError(f"{subj}/{stim}: expected 3 repetitions, found {len(reps)}")
            side = train_refs if manifest.split_tag[stim] == "train" else test_refs
            side[subj].extend((int(r), int(e)) for r, e in reps)
    return SplitSpec("standard", train_refs, test_refs, manifest.test_stimuli())


def build_split_time_resolved(
    manifest: DatasetManifest,
    key: RngKey,
    test_run_fraction: float = DEFAULT_TEST_RUN_FRACTION,
) -> SplitSpec:
    """Whole-run split: a seeded subset of runs is test, so successive trials
    always share a side."""
    train_refs: dict[str, list] = {}
    test_refs: dict[str, list] = {}
    test_stimuli: set[str] = set()
    for subj in manifest.subject_ids:
        n_runs = len(manifest.runs[subj])
        if n_runs < 2:
            raise ValueError(f"{subj}: time-resolved split needs >= 2 runs")
        n_test = int(round(n_runs * test_run_fraction))
        if n_test < 1:
            raise ValueError(f"{subj}: test fraction {test_run_fraction} yields 0 test runs")
        if n_test >= n_runs:
            raise ValueError(f"{subj}: test fraction {test_run_fraction} puts all {n_runs} runs on the test side")
        perm = key.child("tr-split", subj).permutation(n_runs)
        test_set = set(int(r) for r in perm[:n_test])
        train_refs[subj] = []
        test_refs[subj] = []
        for r, entry in enumerate(manifest.runs[subj]):
            side = test_refs if r in test_set else train_refs
            for e, ev in enumerate(entry["events"]):
                side[subj].append((r, e))
                if r in test_set:
                    test_stimuli.add(ev["stimulus_id"])
    return SplitSpec("time_resolved", train_refs, test_refs, sorted(test_stimuli))


def pick_test_repetitions(split: SplitSpec, key: RngKey) -> dict[str, int]:
    """One repetition index in {0,1,2} per test stimulus, uniform and seeded."""
    g = key.generator()
    return {stim: int(g.integers(0, 3)) for stim in split.test_stimuli}


# ---------------------------------------------------------------------------
# preprocessed-run cache and epoch assembly


class PreprocCache:
    """Preprocessed runs on disk next to the dataset. `index.json` records the
    cutoff and the sha256 of the dataset's manifest they were made from; a
    cache made from other settings is rebuilt by `build` and refused by `get`.
    Cached runs are read-only, so the windows cut from them stay views.
    `build` rewrites runs on `workers` lanes."""

    def __init__(self, manifest: DatasetManifest, cutoff_s: float = DEFAULT_CUTOFF_S, cache_dir=None, workers: int = 1):
        self.manifest = manifest
        self.cutoff_s = cutoff_s
        self.dir = Path(cache_dir) if cache_dir else manifest.root / f"preproc_c{int(cutoff_s)}"
        self.workers = workers
        self._mem: dict[tuple[str, int], FmriRun] = {}
        self._current = False

    def _path(self, subject: str, run_idx: int) -> Path:
        return self.dir / f"{subject}_run{run_idx:03d}.bin"

    def _stamp(self) -> dict:
        digest = hashlib.sha256((self.manifest.root / "manifest.json").read_bytes()).hexdigest()
        return {"cutoff_s": self.cutoff_s, "manifest_sha256": digest}

    def _stale(self, stamp: dict) -> str | None:
        """Why `index.json` does not describe runs made with `stamp`, or None."""
        index = self.dir / "index.json"
        try:
            recorded = read_json_object(index)
        except (OSError, ValueError) as e:  # missing or unreadable
            return str(e)
        for k, v in stamp.items():
            if recorded.get(k) != v:
                return f"{index} records {k} {recorded.get(k)!r}, the dataset has {v!r}"
        return None

    def build(self) -> "PreprocCache":
        """Rewrite every run of a stale cache, and any run file missing from a
        current one: run i of those on lane i mod L, L = min(`workers`, runs)
        (`lanes.on_lanes`), each lane writing its own runs' files; a failed
        run raises an error that names it (`sub01/run003`). `index.json` is
        written here, last. A current cache with every run in place forks
        nothing and writes nothing."""
        self.dir.mkdir(parents=True, exist_ok=True)
        stamp = self._stamp()
        stale = self._stale(stamp) is not None
        if stale:  # no index until every run is rewritten
            (self.dir / "index.json").unlink(missing_ok=True)
        refs = [(subj, r) for subj in self.manifest.subject_ids for r in range(len(self.manifest.runs[subj]))]
        todo = [(subj, r) for subj, r in refs if stale or not self._path(subj, r).exists()]

        def rewrite(ref):
            run = preprocess_run(self.manifest.load_run(*ref), self.cutoff_s)
            write_tensor(self._path(*ref), run.data)

        on_lanes(todo, rewrite, self.workers, lambda ref: "%s/run%03d" % ref)
        if todo or stale:  # a current index stays in place: another process may be reading it
            index = {f"{subj}/{r}": self._path(subj, r).name for subj, r in refs}
            (self.dir / "index.json").write_text(json.dumps({**stamp, "runs": index}, sort_keys=True, indent=1))
        self._current = True
        return self

    def get(self, subject: str, run_idx: int) -> FmriRun:
        """A read-only preprocessed run from the cache, which `build` must have
        filled from this dataset."""
        if not self._current:
            stale = self._stale(self._stamp())
            if stale:
                raise ValueError(f"stale preprocessing cache: {stale}; run `preprocess` again")
            self._current = True
        key = (subject, run_idx)
        if key not in self._mem:
            self._mem[key] = self.manifest.load_run(subject, run_idx, self._path(subject, run_idx))
            self._mem[key].data.flags.writeable = False
        return self._mem[key]


def extract_epochs(
    cache: PreprocCache,
    refs: dict[str, list[tuple[int, int]]],
    t: float = DEFAULT_WINDOW_T,
    d: float = DEFAULT_WINDOW_D,
    delta: float = 0.0,
    skip_out_of_bounds: bool = False,
) -> tuple[list[Epoch], int]:
    """Epochs for every (subject, run, event) ref; returns (epochs, n_skipped)."""
    manifest = cache.manifest
    rep_lookup: dict[tuple[str, int, int], int] = {}
    for subj in manifest.subject_ids:
        for stim, locs in manifest.repetition_map[subj].items():
            for rep, (r, e) in enumerate(locs):
                rep_lookup[(subj, int(r), int(e))] = rep
    epochs: list[Epoch] = []
    skipped = 0
    for subj in sorted(refs):
        for run_idx, event_idx in refs[subj]:
            run = cache.get(subj, run_idx)
            event = run.timeline.events[event_idx]
            rep = rep_lookup.get((subj, run_idx, event_idx), -1)
            try:
                epochs.append(
                    extract_window(run, event, t, d, delta, repetition=rep, event_index=event_idx)
                )
            except WindowError:
                if not skip_out_of_bounds:
                    raise
                skipped += 1
    return epochs, skipped
