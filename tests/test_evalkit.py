import json
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from bold2img import trainer
from bold2img.brainmod import BrainModuleConfig
from bold2img.cli import EXIT_OK, dispatch
from bold2img.diffgen import UNetConfig
from bold2img.evalkit import (
    EvalConfig,
    evaluate,
    emit_report,
    emit_sweep,
    evaluate_split,
    match_specialized,
    miou,
    pixcorr,
    probe_features,
    probe_weights_digest,
    segment_by_palette,
    ssim,
    time_sweep,
    two_way_id,
)
from bold2img.prep import build_split_standard, build_split_time_resolved
from bold2img.substrate import RngKey
from bold2img.synthcortex import (
    DEFAULT_PALETTE,
    DatasetConfig,
    Shape,
    StimulusScene,
    build_dataset,
    render_mask,
    render_scene,
    sample_scene,
)
from bold2img.trainer import TrainConfig, pretrain_generator, recorded_train_config, train_single_stage

# ---------------------------------------------------------------------------
# pixcorr


def test_pixcorr_identity():
    img = RngKey(0, ("pc",)).uniform((32, 32, 3))
    r, flag = pixcorr(img, img)
    assert r == pytest.approx(1.0) and not flag


def test_pixcorr_inverted():
    img = RngKey(1, ("pc",)).uniform((32, 32, 3))
    r, _ = pixcorr(img, 1.0 - img)
    assert r == pytest.approx(-1.0)


def test_pixcorr_independent_noise_near_zero():
    rs = []
    for i in range(100):
        a = RngKey(2, ("pса", i)).uniform((32, 32, 3))
        b = RngKey(2, ("pcb", i)).uniform((32, 32, 3))
        rs.append(pixcorr(a, b)[0])
    assert abs(np.mean(rs)) < 0.05


def test_pixcorr_constant_flagged():
    r, flag = pixcorr(np.zeros((32, 32, 3)), np.ones((32, 32, 3)))
    assert r == 0.0 and flag


# ---------------------------------------------------------------------------
# ssim


def test_ssim_identity():
    img = RngKey(3, ("ss",)).uniform((32, 32, 3))
    assert ssim(img, img) == pytest.approx(1.0)


def test_ssim_constant_images_closed_form():
    a = np.zeros((32, 32, 3))
    b = np.ones((32, 32, 3))
    c1 = 0.01**2
    expected = c1 / (1.0 + c1)  # mu=0 vs 1, all variances zero
    assert ssim(a, b) == pytest.approx(expected, rel=1e-6)


def test_ssim_symmetric():
    a = RngKey(4, ("sa",)).uniform((32, 32, 3))
    b = RngKey(4, ("sb",)).uniform((32, 32, 3))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError, match="window"):
        ssim(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))


# ---------------------------------------------------------------------------
# probes


def test_probe_deterministic_and_shapes():
    img = RngKey(5, ("pf",)).uniform((32, 32, 3))
    lo = probe_features(img, "low")
    hi = probe_features(img, "high")
    assert lo.shape == (512,) and hi.shape == (128,)
    np.testing.assert_array_equal(lo, probe_features(img, "low"))


def test_probe_weights_digest_stable():
    # frozen for the life of the repo; a change here invalidates recorded scores
    assert probe_weights_digest("low") == (
        "d951829b99fb05054e154ca3076f43f24a7c6be26d6c3ee5e6bf5ac89f6b6db0"
    )
    assert probe_weights_digest("high") == (
        "1670fc0298bee4aa11fdd528e6ab7be9d843b4835b309a68b75246e9e4d84550"
    )


def test_probe_translation_sensitivity():
    # pooled high-level features move less than spatial low-level ones
    ratios_low, ratios_high = [], []
    for i in range(100):
        scene = sample_scene(RngKey(6, ("tr", i)))
        shifted = StimulusScene(
            [Shape(s.kind, s.color, min(0.95, s.cx + 2.0 / 32), s.cy, s.size) for s in scene.shapes]
        )
        a, b = render_scene(scene), render_scene(shifted)
        for probe, acc in (("low", ratios_low), ("high", ratios_high)):
            fa, fb = probe_features(a, probe), probe_features(b, probe)
            acc.append(np.linalg.norm(fa - fb) / (np.linalg.norm(fa) + 1e-9))
    assert np.mean(ratios_low) > np.mean(ratios_high)


# ---------------------------------------------------------------------------
# two-way identification


def test_two_way_perfect():
    feats = RngKey(7, ("tw",)).normal((10, 64))
    score, excluded = two_way_id(feats, feats)
    assert score == 100.0 and excluded == 0


def test_two_way_chance_for_independent():
    scores = []
    for i in range(30):
        r = RngKey(8, ("twr", i)).normal((40, 64))
        g = RngKey(8, ("twg", i)).normal((40, 64))
        scores.append(two_way_id(r, g)[0])
    # chance level 50 with SEM ~ a few points
    assert abs(np.mean(scores) - 50.0) < 5.0


def test_two_way_n2_enumerated():
    g1 = np.array([1.0, 0.0, 0.0, 1.0])
    g2 = np.array([0.0, 1.0, 1.0, 0.0])
    r1 = g1 + 0.01 * np.array([1, -1, 1, -1])  # closer to g1
    r2 = g1 + 0.02 * np.array([1, 1, -1, -1])  # also closer to g1 (wrong)
    score, _ = two_way_id(np.stack([r1, r2]), np.stack([g1, g2]))
    assert score == 50.0


def test_two_way_excludes_constant():
    g = RngKey(9, ("twc",)).normal((4, 16))
    r = g.copy()
    r[2] = 3.14  # constant reconstruction features
    score, excluded = two_way_id(r, g)
    assert excluded == 1
    assert score == 100.0  # remaining three identify perfectly


def test_two_way_skips_same_label_distractors():
    f = RngKey(10, ("twl",)).normal((4, 16))
    labels = ["a", "a", "b", "c"]
    score, _ = two_way_id(f, f, labels)
    assert score == 100.0


# ---------------------------------------------------------------------------
# segmentation + mIoU


def test_segment_matches_render_mask():
    for i in range(10):
        scene = sample_scene(RngKey(11, ("seg", i)))
        img = render_scene(scene)
        np.testing.assert_array_equal(segment_by_palette(img, DEFAULT_PALETTE), render_mask(scene))


def test_segment_background_only():
    img = np.broadcast_to(DEFAULT_PALETTE[0], (32, 32, 3)).copy()
    np.testing.assert_array_equal(segment_by_palette(img, DEFAULT_PALETTE), 0)


def test_segment_tie_goes_to_lower_class():
    palette = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0]], dtype=np.float32)
    midpoint = np.full((12, 12, 3), 0.0, dtype=np.float32)
    midpoint[:, :, 0] = 0.15
    midpoint[:, :, 1] = 0.15  # equidistant to rows 1 and 2, farther from 0
    seg = segment_by_palette(midpoint, palette)
    np.testing.assert_array_equal(seg, 1)


def test_miou_identity_and_disjoint():
    a = np.ones((8, 8), dtype=np.int32)
    assert miou(a, a.copy(), 7) == 1.0
    assert miou(a, 2 * a, 7) == 0.0


def test_miou_half_overlap_hand_counted():
    a = np.zeros((8, 8), dtype=np.int32)
    b = np.zeros((8, 8), dtype=np.int32)
    a[:, 0:4] = 1
    b[:, 2:6] = 1
    # class 1: inter cols 2-3, union cols 0-5 -> 1/3; class 0: inter cols 6-7,
    # union cols 0-1 and 4-7 -> 1/3
    assert miou(a, b, 7) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# evaluation protocol with decoder stubs


@pytest.fixture(scope="module")
def eval_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("evalworld")
    cfg = DatasetConfig(
        n_subjects=2,
        n_train_unique=12,
        n_test_unique=6,
        trials_per_run=18,
        voxel_lo=25,
        voxel_hi=40,
        noise_scale=0.3,
    )
    manifest = build_dataset(cfg, RngKey(21), root / "ds")
    return manifest, build_split_standard(manifest), root


def _perfect_decoder(manifest):
    return lambda epochs: np.stack([manifest.load_image(e.stimulus_id) for e in epochs])


def test_evaluate_perfect_decoder_hits_optima(eval_world):
    manifest, split, _ = eval_world
    report = evaluate_split(None, manifest, split, RngKey(1, ("ev",)), EvalConfig(), decoder=_perfect_decoder(manifest))
    assert report.mean["pixcorr"] == pytest.approx(1.0)
    assert report.mean["ssim"] == pytest.approx(1.0)
    assert report.mean["miou"] == pytest.approx(1.0)
    assert report.mean["two_way_low"] == 100.0
    assert report.mean["two_way_high"] == 100.0
    assert set(report.per_subject) == set(manifest.subject_ids)
    for sid in report.per_subject:
        assert report.per_subject[sid]["n_trials"] == 6


def test_evaluate_constant_decoder(eval_world):
    # a zero-variance (uniform gray) decoder: pixcorr flagged to 0 everywhere
    manifest, split, _ = eval_world
    gray = np.full((32, 32, 3), 0.5, dtype=np.float32)
    decoder = lambda epochs: np.stack([gray] * len(epochs))
    report = evaluate_split(None, manifest, split, RngKey(1, ("ev",)), EvalConfig(), decoder=decoder)
    assert report.mean["pixcorr"] == 0.0
    for sid in report.per_subject:
        assert report.per_subject[sid]["flagged_constant"] == 6
        # identical reconstructions: every pairwise comparison has a mirror,
        # so identification sits at exactly chance
        assert report.per_subject[sid]["two_way_low"] == pytest.approx(50.0)


def test_evaluate_background_decoder_miou_baseline(eval_world):
    # constant-background decoder: masks share only the background class
    manifest, split, _ = eval_world
    bg = np.broadcast_to(DEFAULT_PALETTE[0], (32, 32, 3)).astype(np.float32)
    decoder = lambda epochs: np.stack([bg] * len(epochs))
    report = evaluate_split(None, manifest, split, RngKey(1, ("ev",)), EvalConfig(), decoder=decoder)
    assert 0.0 < report.mean["miou"] < 1.0
    assert abs(report.mean["pixcorr"]) < 0.3


def test_evaluate_deterministic_protocol(eval_world):
    manifest, split, _ = eval_world
    dec = _perfect_decoder(manifest)
    r1 = evaluate_split(None, manifest, split, RngKey(9, ("det",)), EvalConfig(), decoder=dec)
    r2 = evaluate_split(None, manifest, split, RngKey(9, ("det",)), EvalConfig(), decoder=dec)
    assert json.dumps(asdict(r1), sort_keys=True) == json.dumps(asdict(r2), sort_keys=True)
    assert r1.protocol["repetition_map"] == r2.protocol["repetition_map"]


def test_evaluate_empty_test_side_errors(eval_world):
    manifest, split, _ = eval_world
    from bold2img.prep import SplitSpec

    empty = SplitSpec("standard", split.train_refs, {s: [] for s in manifest.subject_ids}, [])
    with pytest.raises(ValueError, match="empty test side"):
        evaluate_split(None, manifest, empty, RngKey(0), EvalConfig(), decoder=_perfect_decoder(manifest))


def test_report_emission_roundtrip(eval_world, tmp_path):
    manifest, split, _ = eval_world
    report = evaluate_split(None, manifest, split, RngKey(2, ("emit",)), EvalConfig(), decoder=_perfect_decoder(manifest))
    files = emit_report(report, tmp_path)
    assert json.loads(files[0].read_text()) == json.loads(json.dumps(asdict(report)))
    csv = files[1].read_text().strip().splitlines()
    assert csv[0] == "subject,metric,value"
    assert any(line.startswith("mean,miou,") for line in csv)


# ---------------------------------------------------------------------------
# time sweep structure (tiny trained models)


@pytest.fixture(scope="module")
def sweep_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweepworld")
    cfg = DatasetConfig(
        n_subjects=2,
        n_train_unique=10,
        n_test_unique=5,
        trials_per_run=15,
        voxel_lo=25,
        voxel_hi=40,
        noise_scale=0.3,
    )
    manifest = build_dataset(cfg, RngKey(30), root / "ds")
    split = build_split_time_resolved(manifest, RngKey(31), test_run_fraction=0.34)
    tiny_unet = UNetConfig(resolution=32, channels=(8, 8, 16), tokens=4, token_dim=8)
    tiny_brain = BrainModuleConfig(hidden=16, tokens=4, token_dim=8)
    tc = TrainConfig(steps=4, pretrain_steps=3, batch_size=8, warmup_steps=1, seed=7, brain=tiny_brain, unet=tiny_unet)
    pre = pretrain_generator(manifest, tc, root / "pre")
    general = train_single_stage(manifest, split, pre, tc, root / "gen")
    spec = train_single_stage(manifest, split, pre, TrainConfig(
        steps=4, pretrain_steps=3, batch_size=8, warmup_steps=1, seed=8, delta=-3 * 1.3,
        brain=tiny_brain, unet=tiny_unet,
    ), root / "spec")
    return manifest, split, general, spec


def test_time_sweep_structure(sweep_world, tmp_path):
    manifest, split, general, spec = sweep_world
    deltas = [-3 * 1.3, 0.0, 2 * 1.3]
    sweep = time_sweep(
        general, [spec], manifest, split, RngKey(40, ("sweep",)),
        deltas, EvalConfig(steps=3, max_trials_per_subject=8),
    )
    ends = [p["window_end"] for p in sweep.points]
    assert ends == sorted(ends) and len(ends) == 3
    assert sweep.points[1]["window_end"] == pytest.approx(3.0 + 0.0 + 6 * 1.3)
    assert sweep.points[0]["specialized"] is not None
    assert sweep.points[1]["specialized"] is None
    assert "prev_stimulus_id_general" in sweep.points[0]
    files = emit_sweep(sweep, tmp_path, "tsweep")
    csv = files[1].read_text().strip().splitlines()
    gen_rows = [l for l in csv if ",general,miou," in l]
    spec_rows = [l for l in csv if ",specialized,miou," in l]
    assert len(gen_rows) == 3 and len(spec_rows) == 1
    svg = ET.parse(files[2]).getroot()
    polylines = [el for el in svg.iter() if el.tag.endswith("polyline")]
    # 5 metric panels x (general everywhere + specialized where present)
    assert len(polylines) == 10


def test_match_specialized_keys_each_model_by_its_own_shift(sweep_world):
    # the general model, trained at delta 0, is a specialized model at 0, not at the shift it is listed with
    manifest, _, general, spec = sweep_world
    deltas = [-3 * 1.3, 0.0, 2 * 1.3]
    matched = match_specialized(recorded_train_config(general), [spec, general], deltas, manifest.tr)
    assert matched == {-3 * 1.3: spec, 0.0: general}
    with pytest.raises(ValueError, match=f"checkpoint {spec}: specialized delta -3.9000000000000004 matches"):
        match_specialized(recorded_train_config(general), [spec], [0.0], manifest.tr)


def _count_checkpoint_reads(monkeypatch) -> list[Path]:
    reads = []
    load = trainer.load_checkpoint

    def counted(cdir):
        reads.append(Path(cdir))
        return load(cdir)

    monkeypatch.setattr(trainer, "load_checkpoint", counted)
    return reads


def test_evaluate_split_reads_its_checkpoint_once(sweep_world, monkeypatch):
    manifest, split, general, _ = sweep_world
    reads = _count_checkpoint_reads(monkeypatch)
    evaluate_split(general, manifest, split, RngKey(41), EvalConfig(steps=1))
    assert reads == [Path(general)]


def test_time_sweep_reads_each_checkpoint_once(sweep_world, monkeypatch):
    manifest, split, general, spec = sweep_world
    reads = _count_checkpoint_reads(monkeypatch)
    time_sweep(
        general, [spec], manifest, split, RngKey(42), [-3 * 1.3, 0.0, 2 * 1.3],
        EvalConfig(steps=1, max_trials_per_subject=2),
    )
    assert sorted(reads) == sorted([Path(general), Path(spec)])


def test_time_sweep_reads_and_probes_each_image_once(sweep_world, monkeypatch):
    # every reconstruction and every ground-truth stimulus (the trials' own
    # and their neighbours) is probed once, and each stimulus is read once
    manifest, split, general, spec = sweep_world
    calls = {"low": 0, "load": 0, "recon": 0}
    stimuli: set[str] = set()
    real_extract, real_infer = evaluate.extract_epochs, evaluate.infer
    real_probe, real_load = evaluate.probe_features, manifest.load_image

    def extract(*args, **kwargs):
        epochs, skipped = real_extract(*args, **kwargs)
        stimuli.update(s for e in epochs for s in (e.stimulus_id, e.prev_stimulus_id, e.next_stimulus_id) if s)
        return epochs, skipped

    def infer(store, tc, epochs, *args):
        calls["recon"] += len(epochs)
        return real_infer(store, tc, epochs, *args)

    def probe(img, kind):
        calls["low"] += kind == "low"
        return real_probe(img, kind)

    def load(stim):
        calls["load"] += 1
        return real_load(stim)

    monkeypatch.setattr(evaluate, "extract_epochs", extract)
    monkeypatch.setattr(evaluate, "infer", infer)
    monkeypatch.setattr(evaluate, "probe_features", probe)
    monkeypatch.setattr(manifest, "load_image", load)
    time_sweep(
        general, [spec], manifest, split, RngKey(44), [-3 * 1.3, 0.0, 2 * 1.3],
        EvalConfig(steps=1, max_trials_per_subject=4),
    )
    assert calls["recon"] > 0 and stimuli
    assert calls["low"] == calls["recon"] + len(stimuli)
    assert calls["load"] == len(stimuli)


def test_eval_and_infer_decode_at_the_checkpoints_shift(sweep_world, tmp_path):
    manifest, split, _, spec = sweep_world  # spec is trained at -3 TR
    report = evaluate_split(spec, manifest, split, RngKey(43), EvalConfig(steps=1))
    assert report.protocol["delta"] == -3 * 1.3

    def infer_deltas(*flags):
        out = tmp_path / f"infer{len(flags)}"
        argv = ["--set", f"paths.data={manifest.root}", "--set", "eval.steps=1",
                "infer", "--ckpt", str(spec), "--limit", "1", "--out", str(out), *flags]
        assert dispatch(argv) == EXIT_OK
        return {r["delta"] for r in json.loads((out / "records.json").read_text())}

    assert infer_deltas() == {-3 * 1.3}
    assert infer_deltas("--delta", "0") == {0.0}


def test_time_sweep_requires_time_resolved_split(sweep_world):
    manifest, _, general, _ = sweep_world
    std = build_split_standard(manifest)
    with pytest.raises(ValueError, match="time-resolved"):
        time_sweep(general, [], manifest, std, RngKey(0), [0.0], EvalConfig())
