import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrupt_json import corrupt_manifests

from bold2img.prep import PreprocCache
from bold2img.substrate import RngKey
from bold2img.synthcortex import simulate as simulate_mod
from bold2img.synthcortex.hrf import HRF_SUPPORT_S
from bold2img.synthcortex.scenes import SHAPE_COUNT_PROBS
from bold2img.synthcortex import (
    DEFAULT_PALETTE,
    DatasetConfig,
    N_COLORS,
    Shape,
    StimulusScene,
    SubjectSpec,
    build_dataset,
    event_kernels,
    hrf,
    hrf_peak,
    load_manifest,
    make_subject,
    make_timeline,
    plan_dataset,
    render_mask,
    render_scene,
    sample_scene,
    scene_response,
    simulate_run,
    validate_palette,
    voxel_response,
)


def _silent_subject(c=3, jitter=0.0):
    return SubjectSpec(
        "subX",
        c,
        rf_center=np.full((c, 2), 0.5),
        rf_width=np.full(c, 0.2),
        colorsel=np.ones((c, N_COLORS)),
        gain=np.zeros(c),
        noise_sigma=np.zeros(c),
        delay_jitter=np.full(c, jitter),
    )


# ---------------------------------------------------------------------------
# scenes


def test_sample_scene_deterministic():
    a = sample_scene(RngKey(7, ("scene",)))
    b = sample_scene(RngKey(7, ("scene",)))
    assert a.to_json() == b.to_json()


def test_sample_scene_shape_count_frequencies():
    n = 10_000
    counts = np.bincount([len(sample_scene(RngKey(0, ("count", i))).shapes) for i in range(n)], minlength=4)
    assert counts[0] == 0 and len(counts) == 4
    for k, p in enumerate(SHAPE_COUNT_PROBS, start=1):
        sigma = np.sqrt(p * (1 - p) * n)
        assert abs(counts[k] - p * n) < 4 * sigma, (k, counts[k], n)


def test_sample_scene_kind_frequencies():
    counts = {k: 0 for k in ("circle", "square", "triangle")}
    total = 0
    for i in range(10_000):
        for s in sample_scene(RngKey(0, ("freq", i))).shapes:
            counts[s.kind] += 1
            total += 1
    p = 1.0 / 3.0
    sigma = np.sqrt(p * (1 - p) * total)
    for k, c in counts.items():
        assert abs(c - p * total) < 3 * sigma, (k, c, total)


def test_render_empty_scene_is_background():
    img = render_scene(StimulusScene([]))
    assert img.shape == (32, 32, 3)
    np.testing.assert_array_equal(img, np.broadcast_to(DEFAULT_PALETTE[0], (32, 32, 3)))


def test_render_square_matches_pixel_center_count():
    scene = StimulusScene([Shape("square", 0, 0.5, 0.5, 0.4)])
    mask = render_mask(scene, 32)
    # analytic: pixel centers (j+0.5)/32 inside [0.3, 0.7] in both axes
    centers = (np.arange(32) + 0.5) / 32
    inside_1d = int(np.sum((centers >= 0.3) & (centers <= 0.7)))
    assert int((mask != 0).sum()) == inside_1d**2


def test_render_image_equals_palette_of_mask():
    for i in range(5):
        scene = sample_scene(RngKey(3, ("identity", i)))
        img = render_scene(scene)
        mask = render_mask(scene)
        np.testing.assert_array_equal(img, DEFAULT_PALETTE[mask])


def test_mask_empty_scene_all_zero():
    np.testing.assert_array_equal(render_mask(StimulusScene([])), 0)


def test_mask_single_circle_classes():
    color = 2
    mask = render_mask(StimulusScene([Shape("circle", color, 0.5, 0.5, 0.3)]))
    assert set(np.unique(mask)) == {0, color + 1}


def test_mask_occlusion_later_shape_wins():
    square = Shape("square", 0, 0.5, 0.5, 0.4)
    triangle = Shape("triangle", 4, 0.5, 0.5, 0.4)
    mask = render_mask(StimulusScene([square, triangle]))
    tri_only = render_mask(StimulusScene([triangle]))
    overlap = (render_mask(StimulusScene([square])) != 0) & (tri_only != 0)
    assert overlap.any()
    np.testing.assert_array_equal(mask[overlap], triangle.color + 1)


def test_mask_class_pixel_counts_sum_to_total():
    for i in range(10):
        mask = render_mask(sample_scene(RngKey(1, ("count", i))))
        counts = np.bincount(mask.ravel(), minlength=N_COLORS + 1)
        assert counts.sum() == mask.size


def test_palette_pairwise_distance():
    validate_palette(DEFAULT_PALETTE)
    with pytest.raises(ValueError, match="too close"):
        bad = DEFAULT_PALETTE.copy()
        bad[2] = bad[1]
        validate_palette(bad)


# ---------------------------------------------------------------------------
# hrf


def test_hrf_zero_at_origin():
    assert hrf(0.0) == 0.0


def test_hrf_peaks_near_five_seconds():
    grid = np.arange(0.0, 30.0, 0.01)
    vals = hrf(grid)
    assert abs(grid[int(np.argmax(vals))] - 5.0) < 0.05
    assert hrf_peak() == pytest.approx(vals.max())


def test_hrf_undershoot_negative():
    assert hrf(15.0) < 0.0


def test_hrf_of_an_array_is_the_hrf_of_each_entry_bit_for_bit():
    """The vectorised lags a run simulator passes give, entry by entry, the
    scalar call's value: 0 and negative lags give exactly 0.0, and every
    positive lag up to the support's end gives the same bits."""
    lags = np.concatenate([[0.0, -0.0, -1e-300, -3.5, -40.0, HRF_SUPPORT_S, 1e-300, 5e-324], np.linspace(-5.0, 41.0, 501)])
    lags = np.stack([lags, lags[::-1]])  # a 2-D block, as the simulator's (events, lags)
    got = hrf(lags)
    assert got.shape == lags.shape and got.dtype == np.float64
    want = np.array([[hrf(float(v)) for v in row] for row in lags])
    assert got.tobytes() == want.tobytes()
    assert all(hrf(float(v)) == 0.0 for v in lags.ravel() if v <= 0)
    assert hrf(HRF_SUPPORT_S) != 0.0 and isinstance(hrf(HRF_SUPPORT_S), float)


# ---------------------------------------------------------------------------
# voxel responses


def test_voxel_response_zero_gain():
    subj = _silent_subject()
    scene = sample_scene(RngKey(0, ("vr",)))
    assert voxel_response(subj, 0, scene) == 0.0


def test_voxel_response_shape_at_rf_center():
    subj = _silent_subject(c=1)
    subj.gain = np.array([2.0])
    scene = StimulusScene([Shape("circle", 3, 0.5, 0.5, 0.2)])
    assert voxel_response(subj, 0, scene) == pytest.approx(2.0)


def test_voxel_response_linear_in_shapes():
    subj = make_subject("s01", RngKey(5, ("lin",)), 50, 50)
    shape = Shape("square", 1, 0.4, 0.6, 0.2)
    one = scene_response(subj, StimulusScene([shape]))
    two = scene_response(subj, StimulusScene([shape, shape]))
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)


def test_voxel_response_index_bounds():
    subj = _silent_subject(c=2)
    with pytest.raises(IndexError):
        voxel_response(subj, 2, StimulusScene([]))


# ---------------------------------------------------------------------------
# run simulation


def test_timeline_pacing():
    tl = make_timeline([f"s{i}" for i in range(50)])
    assert tl.n_volumes == 179
    assert tl.events[0].onset == 16.0
    assert tl.events[-1].onset == 212.0
    tl.validate()


def test_simulate_single_event_matches_hrf():
    subj = _silent_subject(c=1)
    subj.gain = np.array([1.5])
    subj.rf_center = np.array([[0.3, 0.3]])
    scene = StimulusScene([Shape("circle", 0, 0.3, 0.3, 0.2)])
    tl = make_timeline(["s0"])
    run = simulate_run(subj, tl, {"s0": scene}, RngKey(0, ("sim",)), noise_scale=0.0, drift_scale=0.0)
    amp = scene_response(subj, scene)[0]
    t = np.arange(tl.n_volumes) * tl.tr
    expected = amp * hrf(t - 16.0)
    np.testing.assert_allclose(run.data[0], expected.astype(np.float32), atol=1e-6)


def test_simulate_zero_gain_run_is_zero():
    subj = _silent_subject(c=4)
    tl = make_timeline(["s0"] * 10)
    run = simulate_run(subj, tl, {"s0": StimulusScene([])}, RngKey(0), noise_scale=0.0, drift_scale=0.0)
    np.testing.assert_array_equal(run.data, 0.0)


def test_simulate_doubling_gains_doubles_data():
    subj = make_subject("s01", RngKey(2, ("dg",)), 30, 30)
    subj.delay_jitter = np.zeros(30)
    stims = [f"s{i}" for i in range(10)]
    catalog = {s: sample_scene(RngKey(4, ("dgscene", s))) for s in stims}
    tl = make_timeline(stims)
    quiet = {"noise_scale": 0.0, "drift_scale": 0.0}
    base = simulate_run(subj, tl, catalog, RngKey(0), **quiet)
    subj.gain = subj.gain * 2.0
    subj.noise_sigma = subj.noise_sigma * 2.0
    doubled = simulate_run(subj, tl, catalog, RngKey(0), **quiet)
    np.testing.assert_array_equal(doubled.data, 2.0 * base.data)


def test_simulate_unknown_stimulus_errors():
    subj = _silent_subject()
    tl = make_timeline(["missing"])
    with pytest.raises(KeyError):
        simulate_run(subj, tl, {}, RngKey(0))


def test_amplitude_recovery_from_clean_runs():
    # With zero noise/drift, run-level least squares against the known HRF
    # design recovers every trial amplitude (the signal is decodable).
    subj = make_subject("s01", RngKey(8, ("rec",)), 40, 40)
    subj.delay_jitter = np.zeros(40)
    stims = [f"s{i}" for i in range(20)]
    catalog = {s: sample_scene(RngKey(9, ("recscene", s))) for s in stims}
    tl = make_timeline(stims)
    run = simulate_run(subj, tl, catalog, RngKey(0), noise_scale=0.0, drift_scale=0.0)
    t = np.arange(tl.n_volumes) * tl.tr
    design = np.stack([hrf(t - ev.onset) for ev in tl.events])  # (E, N)
    true_amp = np.stack([scene_response(subj, catalog[ev.stimulus_id]) for ev in tl.events])  # (E, C)
    est, *_ = np.linalg.lstsq(design.T, run.data.astype(np.float64).T, rcond=None)
    resid = est - true_amp
    r2 = 1.0 - (resid**2).sum() / ((true_amp - true_amp.mean()) ** 2).sum()
    assert r2 > 0.99


def _desk_run_inputs():
    """A subject of desk scale (400-600 voxels) and one run of 50 trials."""
    subj = make_subject("sub01", RngKey(5, ("desk",)), 400, 600)
    stims = [f"s{i}" for i in range(50)]
    catalog = {s: sample_scene(RngKey(6, ("deskscene", s))) for s in stims}
    return subj, make_timeline(stims), catalog


def _per_event_run(subject, timeline, catalog, key, noise_scale, drift_scale):
    """A run synthesized event by event, each HRF built where it is added, the
    drift and noise out of place: the data that `simulate_run` must match."""
    c, n = subject.n_voxels, timeline.n_volumes
    t = np.arange(n) * timeline.tr
    data = np.zeros((c, n))
    for ev in timeline.events:
        amp = scene_response(subject, catalog[ev.stimulus_id])
        lo = int(np.searchsorted(t, ev.onset))
        hi = int(np.searchsorted(t, ev.onset + HRF_SUPPORT_S, side="right"))
        lags = t[None, lo:hi] - ev.onset - subject.delay_jitter[:, None]
        data[:, lo:hi] += amp[:, None] * hrf(lags)
    sigma = subject.noise_sigma
    g = key.child("drift").generator()
    drift = np.zeros((c, n))
    for period in simulate_mod.DRIFT_PERIODS_S:
        amps = g.uniform(0.0, simulate_mod.DRIFT_AMP_REL, c) * sigma
        phases = g.uniform(0.0, 2.0 * np.pi, c)
        drift += amps[:, None] * np.cos(2.0 * np.pi * t[None, :] / period + phases[:, None])
    slope = g.uniform(-1.0, 1.0, c) * simulate_mod.LINEAR_AMP_REL * sigma
    mid = t[-1] / 2.0
    drift += slope[:, None] * (t[None, :] - mid) / mid
    data += drift_scale * drift
    eps = key.child("noise").generator().standard_normal((c, n))
    data += noise_scale * sigma[:, None] * eps
    return data.astype(np.float32)


def test_simulate_from_event_kernels_matches_the_per_event_run_bit_for_bit():
    subj, tl, catalog = _desk_run_inputs()
    key = RngKey(3, ("run", "sub01", "run000"))
    kernels = event_kernels(subj, tl)
    assert [(lo, hi, h.shape) for lo, hi, h in kernels][:1] == [(13, 44, (subj.n_voxels, 31))]
    expected = _per_event_run(subj, tl, catalog, key, 1.3, 0.7)
    for given in (kernels, None):
        run = simulate_run(subj, tl, catalog, key, 1.3, 0.7, kernels=given)
        assert run.data.tobytes() == expected.tobytes()


def test_simulate_refuses_kernels_of_another_timeline():
    subj, tl, catalog = _desk_run_inputs()
    with pytest.raises(ValueError, match="shorter"):
        simulate_run(subj, tl, catalog, RngKey(0), kernels=event_kernels(subj, tl)[1:])


def test_simulate_holds_the_data_one_more_grid_and_the_output():
    subj, tl, catalog = _desk_run_inputs()
    kernels = event_kernels(subj, tl)
    tracemalloc.start()
    try:
        simulate_run(subj, tl, catalog, RngKey(0), kernels=kernels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid = subj.n_voxels * tl.n_volumes
    assert peak < 2 * 8 * grid + 4 * grid  # data and the drift product or the noise in float64, the float32 output


def test_build_dataset_builds_each_subjects_hrfs_once(tmp_path, monkeypatch):
    cfg = DatasetConfig(n_subjects=2, n_train_unique=8, n_test_unique=2, trials_per_run=10)
    calls = []

    def counted(tau):
        calls.append(1)
        return hrf(tau)

    monkeypatch.setattr(simulate_mod, "hrf", counted)
    m = build_dataset(cfg, RngKey(0), tmp_path / "ds", workers=1)
    assert [len(m.runs[s]) for s in m.subject_ids] == [3, 3]
    assert len(calls) == cfg.n_subjects * cfg.trials_per_run


# ---------------------------------------------------------------------------
# dataset


def test_plan_desk_scale():
    plan = plan_dataset(DatasetConfig())
    assert plan["trials_per_subject"] == 1800
    assert plan["runs_per_subject"] == 36


def test_plan_nsd_scale_dry():
    cfg = DatasetConfig(n_subjects=4, n_train_unique=9000, n_test_unique=1000, trials_per_run=50)
    plan = plan_dataset(cfg)
    assert plan["train_trials_per_subject"] == 27_000
    assert plan["test_trials_per_subject"] == 3_000


def test_plan_capacity_error():
    with pytest.raises(ValueError, match="fill runs"):
        plan_dataset(DatasetConfig(n_train_unique=501, trials_per_run=50))


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"noise_scale": -1.0}, "dataset.noise_scale"),
        ({"drift_scale": -0.5}, "dataset.drift_scale"),
        ({"voxel_lo": 0, "voxel_hi": 0}, "dataset.voxel_lo"),
        ({"voxel_lo": 50, "voxel_hi": 40}, "dataset.voxel_lo"),
        ({"voxel_lo": 30, "voxel_hi": 30}, "dataset.n_subjects"),
    ],
    ids=["negative_noise", "negative_drift", "no_voxels", "lo_above_hi", "fewer_counts_than_subjects"],
)
def test_dataset_config_rejected_before_anything_is_written(tmp_path, overrides, key):
    cfg = DatasetConfig(n_subjects=2, n_train_unique=4, n_test_unique=1, trials_per_run=15, **overrides)
    with pytest.raises(ValueError, match=re.escape(key)):
        build_dataset(cfg, RngKey(0), tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    cfg = DatasetConfig(n_subjects=2, n_train_unique=20, n_test_unique=5, trials_per_run=25)
    root = tmp_path_factory.mktemp("ds")
    manifest = build_dataset(cfg, RngKey(123), root)
    return cfg, manifest


def test_dataset_shapes_and_splits(tiny_dataset):
    cfg, m = tiny_dataset
    assert len(m.subject_ids) == 2
    assert len(m.train_stimuli()) == 20 and len(m.test_stimuli()) == 5
    assert not set(m.train_stimuli()) & set(m.test_stimuli())
    for sid in m.subject_ids:
        assert len(m.runs[sid]) == cfg.runs_per_subject
        for stim in m.stimulus_ids:
            assert len(m.repetition_map[sid][stim]) == 3
    # distinct voxel counts across subjects
    assert len(set(m.subject_voxels.values())) == len(m.subject_ids)


def test_dataset_test_stimuli_shared(tiny_dataset):
    _, m = tiny_dataset
    for sid in m.subject_ids:
        for stim in m.test_stimuli():
            assert stim in m.repetition_map[sid]


def test_dataset_roundtrip_and_files(tiny_dataset):
    _, m = tiny_dataset
    loaded = load_manifest(m.root)
    assert loaded.stimulus_ids == m.stimulus_ids
    img = loaded.load_image(m.stimulus_ids[0])
    assert img.shape == (32, 32, 3) and img.dtype == np.float32
    mask = loaded.load_mask(m.stimulus_ids[0])
    assert mask.shape == (32, 32) and mask.dtype == np.int32
    run = loaded.load_run(m.subject_ids[0], 0)
    assert run.data.shape[0] == m.subject_voxels[m.subject_ids[0]]
    assert run.data.shape[1] == run.timeline.n_volumes
    spec = loaded.subject_spec(m.subject_ids[0])
    assert spec.n_voxels == m.subject_voxels[m.subject_ids[0]]


_DATASET_KEYS = [
    (None, k)
    for k in ("schema_version", "palette", "tr", "resolution", "subjects", "stimuli", "runs", "repetition_map", "config")
] + [("subjects", k) for k in ("id", "n_voxels")] + [("stimuli", k) for k in ("id", "split", "scene")]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_dataset_manifest_corrupt_names_the_file(tiny_dataset, tmp_path_factory, data):
    _, m = tiny_dataset
    text = data.draw(corrupt_manifests((m.root / "manifest.json").read_text(), _DATASET_KEYS))
    root = tmp_path_factory.mktemp("dsjson")
    (root / "manifest.json").write_text(text)
    with pytest.raises(ValueError) as err:
        load_manifest(root)
    assert str(root) in str(err.value)


def test_dataset_byte_identical_rebuild(tmp_path):
    # the stimuli, the runs and the preprocessed runs are dealt over `workers`
    # lanes: their number must not reach the bytes of the dataset or its cache
    cfg = DatasetConfig(n_subjects=2, n_train_unique=8, n_test_unique=2, trials_per_run=15)
    trees = []
    for workers in (1, 2, 3):
        m = build_dataset(cfg, RngKey(77), tmp_path / f"w{workers}", workers=workers)
        cache = PreprocCache(m, workers=workers).build()
        trees.append({str(p.relative_to(m.root)): p.read_bytes() for p in sorted(m.root.rglob("*")) if p.is_file()})
    # every one of three lanes gets stimuli, runs and preprocessed runs
    assert len(m.stimulus_ids) >= 3 and sum(map(len, m.runs.values())) >= 3
    assert str((cache.dir / "index.json").relative_to(m.root)) in trees[0]
    for tree in trees[1:]:
        assert list(tree) == list(trees[0])
        for rel, data in tree.items():
            assert data == trees[0][rel], rel


def test_interrupted_rebuild_leaves_no_loadable_manifest(tmp_path, monkeypatch):
    cfg = DatasetConfig(n_subjects=1, n_train_unique=8, n_test_unique=2, trials_per_run=15)
    root = tmp_path / "ds"
    build_dataset(cfg, RngKey(0), root)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("bold2img.synthcortex.dataset.simulate_run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_dataset(cfg, RngKey(1), root)
    # the stimuli are already seed 1's; the seed-0 manifest must not vouch for them
    with pytest.raises(FileNotFoundError, match=re.escape(str(root / "manifest.json"))):
        load_manifest(root)


def test_dataset_different_seed_differs(tmp_path):
    cfg = DatasetConfig(n_subjects=1, n_train_unique=8, n_test_unique=2, trials_per_run=15)
    m1 = build_dataset(cfg, RngKey(1), tmp_path / "a")
    m2 = build_dataset(cfg, RngKey(2), tmp_path / "b")
    assert json.dumps(m1.scenes[m1.stimulus_ids[0]].to_json()) != json.dumps(
        m2.scenes[m2.stimulus_ids[0]].to_json()
    )
