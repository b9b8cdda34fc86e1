import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bold2img.prep import (
    DEFAULT_CUTOFF_S,
    PreprocCache,
    SplitSpec,
    WindowError,
    build_split_standard,
    build_split_time_resolved,
    dct_basis,
    detrend,
    extract_epochs,
    extract_window,
    first_window_index,
    pick_test_repetitions,
    preprocess_run,
    window_length,
    zscore,
)
from bold2img.substrate import RngKey
from bold2img.synthcortex import (
    DatasetConfig,
    Event,
    FmriRun,
    RunTimeline,
    build_dataset,
)

TR = 1.3


def _run_from(data: np.ndarray, events=None, tr=TR) -> FmriRun:
    tl = RunTimeline(tr, data.shape[1], events or [])
    return FmriRun(data.astype(np.float32), tl, "subT", "run000")


# ---------------------------------------------------------------------------
# detrend


def test_detrend_removes_in_basis_cosine():
    n = 179
    basis = dct_basis(n, TR, DEFAULT_CUTOFF_S)
    sig = 2.0 * basis[:, 1] - 0.5 * basis[:, -1] + 3.0
    run = _run_from(np.tile(sig, (3, 1)))
    out = detrend(run)
    assert np.abs(out.data).max() < 1e-6


def test_detrend_keeps_fast_cosine():
    n = 179
    t = np.arange(n) * TR
    sig = np.cos(2 * np.pi * t / 10.0)  # 10 s period, far above the cutoff band
    run = _run_from(sig[None, :])
    out = detrend(run)
    r = np.corrcoef(out.data[0].astype(np.float64), sig)[0, 1]
    assert r > 0.99
    # independent least-squares oracle: projection of the signal on the basis is tiny
    basis = dct_basis(n, TR, DEFAULT_CUTOFF_S)
    coef, *_ = np.linalg.lstsq(basis, sig, rcond=None)
    assert np.linalg.norm(basis @ coef) < 0.1 * np.linalg.norm(sig)


def test_detrend_constant_voxel_to_zero():
    run = _run_from(np.full((2, 100), 5.0))
    out = detrend(run)
    assert np.abs(out.data).max() < 1e-6


def test_detrend_rank_deficient_basis_errors():
    with pytest.raises(ValueError, match="rank-deficient"):
        dct_basis(4, TR, 0.5)  # more cosine columns than samples


# ---------------------------------------------------------------------------
# zscore


def test_zscore_two_values():
    run = _run_from(np.array([[1.0, 3.0]]))
    out = zscore(run)
    np.testing.assert_allclose(out.data[0], [-1.0, 1.0], atol=1e-6)


def test_zscore_constant_voxel_zeroed():
    run = _run_from(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
    out = zscore(run)
    np.testing.assert_array_equal(out.data[0], 0.0)


def test_zscore_moments():
    g = RngKey(3, ("zs",)).generator()
    run = _run_from(g.normal(2.0, 3.0, (20, 150)))
    out = zscore(run)
    mu = out.data.astype(np.float64).mean(axis=1)
    sd = out.data.astype(np.float64).std(axis=1)
    assert np.abs(mu).max() < 1e-5
    assert np.abs(sd - 1.0).max() < 1e-5


def test_zscore_idempotent():
    g = RngKey(4, ("zs2",)).generator()
    run = _run_from(g.normal(0.0, 2.0, (5, 100)))
    once = zscore(run)
    twice = zscore(once)
    assert np.abs(twice.data - once.data).max() < 1e-5


def test_preprocessing_never_mixes_voxels():
    g = RngKey(5, ("mix",)).generator()
    base = g.normal(0.0, 1.0, (6, 120)).astype(np.float32)
    perturbed = base.copy()
    perturbed[2] += 0.5
    a = preprocess_run(_run_from(base))
    b = preprocess_run(_run_from(perturbed))
    diff_rows = np.nonzero(np.any(a.data != b.data, axis=1))[0]
    np.testing.assert_array_equal(diff_rows, [2])


# ---------------------------------------------------------------------------
# windows


def test_first_window_index_matches_scan():
    g = RngKey(6, ("scan",)).generator()
    for _ in range(2000):
        onset = float(g.uniform(0, 200))
        t = float(g.uniform(0, 6))
        delta = float(g.uniform(-8, 10))
        x = onset + t + delta
        if x < 0:
            continue
        fast = first_window_index(onset, t, delta, TR)
        n = 0
        while n * TR < x:
            n += 1
        assert fast == n, (onset, t, delta)


@given(
    onset=st.floats(min_value=0.0, max_value=220.0),
    t=st.floats(min_value=0.0, max_value=6.0),
    delta=st.floats(min_value=-8.0, max_value=10.0),
)
@settings(max_examples=300, deadline=None)
def test_first_window_index_property(onset, t, delta):
    x = onset + t + delta
    if x < 0:
        with pytest.raises(WindowError):
            first_window_index(onset, t, delta, TR)
        return
    n = first_window_index(onset, t, delta, TR)
    assert n * TR >= x
    assert n == 0 or (n - 1) * TR < x


@given(d=st.floats(min_value=0.5, max_value=12.0))
@settings(max_examples=200, deadline=None)
def test_window_length_property(d):
    assert window_length(d, TR) == int(round(d / TR))


def test_extract_window_example_indices():
    data = np.arange(30, dtype=np.float32)[None, :] * np.ones((2, 1), dtype=np.float32)
    ev = Event(10.0, "s0")
    run = _run_from(data, [ev])
    ep = extract_window(run, ev, t=3.0, d=8.0, delta=0.0, event_index=0)
    assert ep.n_samples == 6
    np.testing.assert_array_equal(ep.X[0], np.arange(10, 16, dtype=np.float32))


def test_window_length_paper_values():
    assert window_length(8.0, TR) == 6
    for k in range(1, 7):
        assert window_length(k * TR, TR) == k


def test_shifted_window_equals_previous_event_window():
    # at onset 20, the -3*TR shifted window lands on the previous event's
    # unshifted window (4 s spacing vs 3.9 s shift, same ceiling index)
    events = [Event(16.0 + 4.0 * i, f"s{i}") for i in range(3)]
    data = np.arange(40, dtype=np.float32)[None, :]
    run = _run_from(data, events)
    shifted = extract_window(run, events[1], t=3.0, d=8.0, delta=-3 * TR, event_index=1)
    base_prev = extract_window(run, events[0], t=3.0, d=8.0, delta=0.0, event_index=0)
    np.testing.assert_array_equal(shifted.X, base_prev.X)


def test_window_shift_invariance_across_trial_period():
    events = [Event(16.0 + 4.0 * i, f"s{i}") for i in range(5)]
    run = _run_from(np.arange(80, dtype=np.float32)[None, :], events)
    for k in range(-2, 3):
        delta = k * TR
        for i in range(len(events) - 1):
            a = extract_window(run, events[i], 3.0, 8.0, delta, event_index=i)
            b = extract_window(run, events[i + 1], 3.0, 8.0, delta - 4.0, event_index=i + 1)
            np.testing.assert_array_equal(a.X, b.X, err_msg=f"delta={delta} event={i}")


def test_extract_window_out_of_bounds_names_event():
    ev = Event(10.0, "sX")
    run = _run_from(np.zeros((1, 12), dtype=np.float32), [ev])
    with pytest.raises(WindowError, match="sX"):
        extract_window(run, ev, t=3.0, d=8.0, delta=0.0)


# ---------------------------------------------------------------------------
# splits


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    cfg = DatasetConfig(
        n_subjects=2,
        n_train_unique=20,
        n_test_unique=5,
        trials_per_run=15,
        noise_scale=0.5,
    )
    return cfg, build_dataset(cfg, RngKey(11), tmp_path_factory.mktemp("ds"))


def test_standard_split_counts(small_dataset):
    cfg, m = small_dataset
    split = build_split_standard(m)
    for subj in m.subject_ids:
        assert len(split.train_refs[subj]) == 3 * cfg.n_train_unique
        assert len(split.test_refs[subj]) == 3 * cfg.n_test_unique
    assert not set(m.train_stimuli()) & set(split.test_stimuli)


def test_time_resolved_split_whole_runs(small_dataset):
    _, m = small_dataset
    split = build_split_time_resolved(m, RngKey(1), test_run_fraction=0.4)
    for subj in m.subject_ids:
        test_runs = {r for r, _ in split.test_refs[subj]}
        train_runs = {r for r, _ in split.train_refs[subj]}
        assert not test_runs & train_runs
        # every trial of a test run is on the test side
        for r in test_runs:
            n_events = len(m.runs[subj][r]["events"])
            assert sum(1 for rr, _ in split.test_refs[subj] if rr == r) == n_events


def test_time_resolved_rounding():
    # 36 runs at the NSD-like 45/480 fraction -> 3 test runs; 480 -> 45
    assert int(round(36 * 45 / 480.0)) == 3
    assert int(round(480 * 45 / 480.0)) == 45


def test_time_resolved_zero_test_runs_errors(small_dataset):
    _, m = small_dataset
    with pytest.raises(ValueError, match="0 test runs"):
        build_split_time_resolved(m, RngKey(0), test_run_fraction=0.01)


def test_time_resolved_all_test_runs_errors(small_dataset):
    # 5 runs per subject at 0.95 round to 5 test runs and leave none to train on
    _, m = small_dataset
    with pytest.raises(ValueError, match=f"{m.subject_ids[0]}: test fraction 0.95 puts all 5 runs on the test side"):
        build_split_time_resolved(m, RngKey(0), test_run_fraction=0.95)


def test_pick_test_repetitions_deterministic_and_uniform():
    split = SplitSpec("standard", {}, {}, [f"s{i}" for i in range(10_000)])
    m1 = pick_test_repetitions(split, RngKey(9, ("reps",)))
    m2 = pick_test_repetitions(split, RngKey(9, ("reps",)))
    assert m1 == m2
    counts = np.bincount(list(m1.values()), minlength=3)
    p = 1.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * 10_000)
    assert np.all(np.abs(counts - p * 10_000) < 3 * sigma)


def test_pick_test_repetitions_single():
    split = SplitSpec("standard", {}, {}, ["only"])
    m = pick_test_repetitions(split, RngKey(0))
    assert set(m) == {"only"} and m["only"] in {0, 1, 2}


# ---------------------------------------------------------------------------
# cache + epoch assembly


def test_preproc_cache_and_epochs(small_dataset, tmp_path):
    cfg, m = small_dataset
    cache = PreprocCache(m, cache_dir=tmp_path / "pp").build()
    split = build_split_standard(m)
    epochs, skipped = extract_epochs(cache, split.test_refs)
    assert skipped == 0
    assert len(epochs) == sum(len(v) for v in split.test_refs.values())
    by_subj = {e.subject_id for e in epochs}
    assert by_subj == set(m.subject_ids)
    for e in epochs[:10]:
        assert e.X.shape == (m.subject_voxels[e.subject_id], 6)
        assert e.repetition in {0, 1, 2}
    # repetition bookkeeping matches the manifest map
    e0 = epochs[0]
    run_idx, event_idx = None, None
    for r, ei in m.repetition_map[e0.subject_id][e0.stimulus_id]:
        if ei == e0.event_index:
            run_idx, event_idx = r, ei
    assert event_idx == e0.event_index


def test_cache_get_reads_only_the_cache(small_dataset, tmp_path):
    _, m = small_dataset
    cache = PreprocCache(m, cache_dir=tmp_path / "pp3").build()
    sid = m.subject_ids[0]
    run, ref = cache.get(sid, 0), preprocess_run(m.load_run(sid, 0))
    assert run.timeline == ref.timeline and run.run_id == ref.run_id
    np.testing.assert_array_equal(run.data, ref.data)
    missing = cache.dir / f"{sid}_run001.bin"
    missing.unlink()
    with pytest.raises(FileNotFoundError, match=missing.name):
        cache.get(sid, 1)


def test_cache_follows_a_regenerated_dataset(tmp_path):
    def generate(noise_scale):
        cfg = DatasetConfig(n_subjects=1, n_train_unique=8, n_test_unique=2, trials_per_run=15,
                            noise_scale=noise_scale)
        return build_dataset(cfg, RngKey(4), tmp_path / "ds")

    old = PreprocCache(generate(0.5)).build().get("sub01", 0).data.copy()
    m = generate(2.0)  # the same root: the old cache is still on disk
    with pytest.raises(ValueError, match="index.json"):
        PreprocCache(m).get("sub01", 0)
    with pytest.raises(ValueError, match="cutoff_s"):
        PreprocCache(m, cutoff_s=DEFAULT_CUTOFF_S + 0.5).get("sub01", 0)
    run = PreprocCache(m).build().get("sub01", 0)
    np.testing.assert_array_equal(run.data, preprocess_run(m.load_run("sub01", 0)).data)
    assert not np.array_equal(run.data, old)
    PreprocCache(m).get("sub01", 0)  # current again
    index = m.root / f"preproc_c{int(DEFAULT_CUTOFF_S)}" / "index.json"
    written = index.stat().st_mtime_ns
    PreprocCache(m).build()
    assert index.stat().st_mtime_ns == written  # a current index is not rewritten
    for damage in (index.unlink, lambda: index.write_text('{"cutoff_s": 12')):
        damage()
        with pytest.raises(ValueError, match="index.json"):
            PreprocCache(m).get("sub01", 0)
        PreprocCache(m).build().get("sub01", 0)


def test_epochs_shifted_out_of_bounds_counted(small_dataset, tmp_path):
    _, m = small_dataset
    cache = PreprocCache(m, cache_dir=tmp_path / "pp2").build()
    split = build_split_standard(m)
    # a huge positive shift pushes late-trial windows past the run end
    epochs, skipped = extract_epochs(cache, split.test_refs, delta=12 * TR, skip_out_of_bounds=True)
    assert skipped > 0
    assert len(epochs) + skipped == sum(len(v) for v in split.test_refs.values())

