"""Acceptance criteria, one test per criterion.

Criteria 1-5 and 10 are self-contained and always run. Criteria 6-9 train
desk-scale models for hours; enable them with BOLD2IMG_E2E=1 (artifacts are
cached under .cache/acceptance, so reruns only re-evaluate). Each criterion
prints one ACCEPTANCE PASS/FAIL line.
"""

import contextlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import acceptance_world as world
from gradcheck import SMALL_CONFIG
from bold2img.brainmod import BrainModuleConfig, brain_forward_batch, init_brain_module
from bold2img.cli import EXIT_OK, dispatch
from bold2img.diffgen import (
    UNetConfig,
    bicubic_cdf,
    cfg_combine,
    create_lora_adapters,
    ddim_sample,
    init_null_tokens,
    init_unet,
    make_schedule,
    offset_noise,
    q_sample,
    sample_timestep_bicubic,
    unet_forward,
)
from bold2img.evalkit import EvalConfig, evaluate_split, emit_report, emit_sweep, time_sweep
from bold2img.prep import SplitSpec, dct_basis, detrend, first_window_index, window_length, zscore
from bold2img.substrate import OptimizerState, ParamStore, RngKey, Tensor, adamw_step
from bold2img.synthcortex import DEFAULT_PALETTE, DatasetConfig, FmriRun, RunTimeline, build_dataset
from bold2img.trainer import REGIMES, TrainConfig, load_train_state, pretrain_generator, regime_trainable_names, train_single_stage

e2e = pytest.mark.skipif(not world.e2e_enabled(), reason="heavy end-to-end run; set BOLD2IMG_E2E=1")


@contextlib.contextmanager
def criterion(n: int, desc: str):
    t0 = time.time()
    try:
        yield
    except Exception as e:
        print(f"\nACCEPTANCE {n} FAIL ({time.time() - t0:.0f}s) - {desc}: {e}")
        raise
    print(f"\nACCEPTANCE {n} PASS ({time.time() - t0:.0f}s) - {desc}")


# ---------------------------------------------------------------------------
# criterion 1: substrate gradients + optimizer arithmetic


def test_criterion_1_substrate():
    # the layer gradchecks, at 1e-3 over 3 seeds, run once: test_substrate's test_full_inventory_gradchecks
    with criterion(1, "AdamW hand example to 1e-9"):
        params = ParamStore()
        params.add("w", np.array([1.0], dtype=np.float64))
        adamw_step(params, {"w": np.array([1.0])}, OptimizerState(), lr=0.1, wd=0.0)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(params["w"].data[0] - expected) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 2: preprocessing oracle


def test_criterion_2_preprocessing():
    with criterion(2, "drift removal < 1% power; z-score moments 1e-5; window index brute force x 10^4"):
        n, tr = 179, 1.3
        cutoff = 64.0
        basis = dct_basis(n, tr, cutoff)
        # in-band drift: basis cosines with periods inside [64, 256] s
        periods = [2 * n * tr / k for k in range(1, basis.shape[1])]
        cols = [k for k, p in enumerate(periods, start=1) if 64.0 <= p <= 256.0]
        assert len(cols) >= 3
        g = RngKey(0, ("acc2",)).generator()
        drift = sum(float(g.uniform(0.5, 2.0)) * basis[:, k] for k in cols)
        run = FmriRun(np.tile(drift, (5, 1)).astype(np.float32), RunTimeline(tr, n, []), "s", "r")
        resid = detrend(run, cutoff_s=cutoff).data.astype(np.float64)
        power_in = float((drift**2).sum())
        power_out = float((resid[0] ** 2).sum())
        assert power_out < 0.01 * power_in, f"residual power {power_out / power_in:.2%}"

        zrun = zscore(FmriRun(g.normal(2.0, 3.0, (30, n)).astype(np.float32), RunTimeline(tr, n, []), "s", "r"))
        z = zrun.data.astype(np.float64)
        assert np.abs(z.mean(axis=1)).max() < 1e-5
        assert np.abs(z.std(axis=1) - 1.0).max() < 1e-5

        for i in range(10_000):
            gg = RngKey(i, ("acc2w",)).generator()
            onset = float(gg.uniform(0, 220))
            t = float(gg.uniform(0, 6))
            d = float(gg.uniform(1, 10))
            delta = float(gg.uniform(-8, 10))
            x = onset + t + delta
            if x < 0:
                continue
            nn = 0
            while nn * tr < x:
                nn += 1
            assert first_window_index(onset, t, delta, tr) == nn
            assert window_length(d, tr) == int(round(d / tr))


# ---------------------------------------------------------------------------
# criterion 3: diffusion invariants


def test_criterion_3_diffusion():
    with criterion(3, "schedule, DDIM oracle, LoRA-zero, CFG identity, bicubic CDF, offset variance"):
        sched = make_schedule()
        assert np.all(np.diff(sched.alpha_bars) < 0)

        key = RngKey(1, ("acc3",))
        x0 = key.child("x0").uniform((1, 8, 8, 3))
        eps = key.child("eps").normal((1, 8, 8, 3))
        start = q_sample(x0, sched.t_max - 1, eps, sched)
        out = ddim_sample(lambda x, t: eps, sched, start, steps=sched.t_max)
        assert np.abs(out - x0).max() < 1e-3

        store = init_unet(SMALL_CONFIG, key.child("unet"))
        init_null_tokens(SMALL_CONFIG, key.child("null"), store)
        # the output conv starts at zero; give it weights so the outputs carry signal
        store["unet/out/conv/w"].data[:] = key.child("outw").normal(store["unet/out/conv/w"].shape, 0.1)
        x = key.child("ux").normal((2, 8, 8, 3))
        tokens = Tensor(key.child("tk").normal((2, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
        t = np.array([5, 800])
        plain = unet_forward(x, t, tokens, store, SMALL_CONFIG).data
        create_lora_adapters(SMALL_CONFIG, key.child("lora"), store)
        adapted = unet_forward(x, t, tokens, store, SMALL_CONFIG).data
        assert np.abs(plain).max() > 0
        assert plain.tobytes() == adapted.tobytes(), "fresh adapters changed the forward pass"

        c = key.child("c").normal((64,))
        u = key.child("u").normal((64,))
        assert cfg_combine(c, u, 1.0) is c

        draws = sample_timestep_bicubic(key.child("bic"), 1000, 1_000_000)
        emp = np.cumsum(np.bincount(draws, minlength=1000)) / draws.size
        sup = np.abs(emp - bicubic_cdf(np.arange(1000), 1000)).max()
        assert sup < 0.01, f"bicubic CDF sup-norm {sup:.4f}"

        noise = offset_noise(key.child("off"), (124, 52, 52, 3), lam=0.1)
        assert noise.size > 1_000_000
        assert abs(noise.var() - 1.01) <= 0.01 * 1.01, f"offset variance {noise.var():.4f}"


# ---------------------------------------------------------------------------
# criterion 4: brain module design variants


def test_criterion_4_brain_module():
    # the design variants' gradchecks run once: test_substrate's test_full_inventory_gradchecks
    with criterion(4, "PxD output for differing C + shared-matrix identity"):
        key = RngKey(2, ("acc4",))
        for variant, kw in [
            ("full", {}),
            ("shared", {"timestep_layer_enabled": False}),
            ("agg_in", {"aggregation_position": "IN"}),
        ]:
            cfg = BrainModuleConfig(hidden=32, tokens=8, token_dim=16, **kw)
            store = init_brain_module(cfg, {"a": 400, "b": 600}, 6, key.child(variant))
            for sid, c in (("a", 400), ("b", 600)):
                out = brain_forward_batch(key.child("x", variant, sid).normal((2, c, 6)), store, cfg, sid)
                assert out.shape == (2, 8, 16), (variant, sid)

        cfg_full = BrainModuleConfig(hidden=32, tokens=8, token_dim=16)
        cfg_shared = BrainModuleConfig(hidden=32, tokens=8, token_dim=16, timestep_layer_enabled=False)
        full = init_brain_module(cfg_full, {"a": 100}, 6, key.child("eq"))
        shared = init_brain_module(cfg_shared, {"a": 100}, 6, key.child("eq"))
        m = key.child("mat").normal((32, 32))
        full["brain/tstep/a/w"].data[:] = m[None]
        shared["brain/tstep/a/w"].data[:] = m[None]
        for name in ("brain/subject/a/w", "brain/out/w"):
            shared[name].data[:] = full[name].data
        x = key.child("xeq").normal((3, 100, 6))
        a = brain_forward_batch(x, full, cfg_full, "a").data
        b = brain_forward_batch(x, shared, cfg_shared, "a").data
        assert np.abs(a - b).max() <= 1e-6


# ---------------------------------------------------------------------------
# criterion 5: regime freezing after 100 steps


def test_criterion_5_regime_freezing(tmp_path):
    with criterion(5, "per-regime parameter hashes move only on the declared trainable set (100 steps)"):
        cfg = DatasetConfig(
            n_subjects=2, n_train_unique=20, n_test_unique=5, trials_per_run=25,
            voxel_lo=380, voxel_hi=620,
        )
        manifest = build_dataset(cfg, RngKey(55), tmp_path / "ds")
        # toy-scale networks, so the five regimes train in seconds
        tc = TrainConfig(
            steps=100, pretrain_steps=50, warmup_steps=20, batch_size=8, seed=55,
            brain=BrainModuleConfig(hidden=16, tokens=4, token_dim=8),
            unet=UNetConfig(resolution=32, channels=(8, 8, 16), tokens=4, token_dim=8),
        )
        pretrain_generator(manifest, tc, tmp_path / "pre")
        from bold2img.prep import build_split_standard

        split = build_split_standard(manifest)
        pre_store, _, _, _ = load_train_state(tmp_path / "pre")
        for regime in REGIMES:
            out = tmp_path / f"train_{regime}"
            train_single_stage(manifest, split, tmp_path / "pre", replace(tc, regime=regime), out, subjects=["sub01"])
            store, _, _, _ = load_train_state(out)
            declared = regime_trainable_names(store, regime)
            for name in pre_store.names():
                unchanged = store[name].data.tobytes() == pre_store[name].data.tobytes()
                if name in declared:
                    assert not unchanged, f"{regime}: {name} should have moved"
                else:
                    assert unchanged, f"{regime}: {name} moved but is outside the trainable set"


# ---------------------------------------------------------------------------
# criterion 6: end-to-end decoding at desk scale


@e2e
def test_criterion_6_end_to_end():
    with criterion(6, "desk-scale decoding: two-way(low) >= 75 and mIoU >= 2x background baseline"):
        manifest = world.ensure_dataset()
        joint, _ = world.ensure_joint(manifest)
        split = world.standard_split(manifest)
        key = RngKey(999, ("acc6",))
        report = evaluate_split(joint, manifest, split, key, EvalConfig())
        emit_report(report, world.cache_root() / "report_criterion6")

        bg = np.broadcast_to(DEFAULT_PALETTE[0], (32, 32, 3)).astype(np.float32)
        baseline = evaluate_split(
            None, manifest, split, key, EvalConfig(), decoder=lambda eps: np.stack([bg] * len(eps))
        )
        print(f"\n  two_way_low = {report.mean['two_way_low']:.1f} +- {report.sem['two_way_low']:.1f}")
        print(f"  miou = {report.mean['miou']:.3f} +- {report.sem['miou']:.3f} "
              f"(baseline {baseline.mean['miou']:.3f})")
        for sid in sorted(report.per_subject):
            print(f"  {sid}: two_way_low={report.per_subject[sid]['two_way_low']:.1f} "
                  f"miou={report.per_subject[sid]['miou']:.3f}")
        assert report.mean["two_way_low"] >= 75.0
        assert report.mean["miou"] >= 2.0 * baseline.mean["miou"]
        assert all(np.isfinite(v) for v in report.sem.values())

        # conditioning dropout over the 10k joint steps: binomial 10% +- 3 sigma
        rows = (joint / "loss.csv").read_text().strip().splitlines()[1:]
        dropped = sum(int(r.split(",")[3]) for r in rows)
        n_draws = len(rows) * 32
        sigma = np.sqrt(0.1 * 0.9 * n_draws)
        assert abs(dropped - 0.1 * n_draws) < 3 * sigma, f"dropout count {dropped} of {n_draws}"


# ---------------------------------------------------------------------------
# criterion 7: time-resolved behavior


@e2e
def test_criterion_7_time_resolved():
    with criterion(7, "chance before signal; peak in 4-11 s; previous-image decoding at -3TR; specialized >= general - 2"):
        manifest = world.ensure_dataset()
        general = world.ensure_tr_general(manifest)
        specialized = [world.ensure_specialized(manifest, d) for d in world.SPECIALIZED_DELTAS]
        split = world.tr_split(manifest)
        deltas = [k * world.TR for k in (-6, -3, -2, 0, 2, 3)]
        sweep = time_sweep(
            general, specialized, manifest, split, RngKey(998, ("acc7",)),
            deltas, EvalConfig(max_trials_per_subject=120),
        )
        emit_sweep(sweep, world.cache_root() / "report_criterion7", "sweep_time")

        by_delta = {round(p["delta"] / world.TR): p for p in sweep.points}
        for k in sorted(by_delta):
            p = by_delta[k]
            spec = p["specialized"]["mean"]["two_way_low"] if p["specialized"] else None
            prev_id = p.get("prev_stimulus_id_general", {}).get("mean")
            print(f"\n  delta={k:+d}TR end={p['window_end']:.1f}s "
                  f"general={p['general']['mean']['two_way_low']:.1f}"
                  + (f" specialized={spec:.1f}" if spec is not None else "")
                  + (f" prev_id={prev_id:.1f}" if prev_id is not None else ""))

        early = by_delta[-6]["general"]["mean"]["two_way_low"]
        assert abs(early - 50.0) <= 7.0, f"window ending at 3s decodes at {early:.1f}"

        best_k = max(by_delta, key=lambda k: by_delta[k]["general"]["mean"]["two_way_low"])
        best_end = by_delta[best_k]["window_end"]
        assert 4.0 <= best_end <= 11.0, f"peak at window end {best_end:.1f}s"

        p3 = by_delta[-3]
        assert p3["prev_stimulus_id_general"]["mean"] > p3["general"]["mean"]["two_way_low"], (
            "previous stimulus should decode better than the current one at -3TR"
        )

        for k in (-3, 2, 3):
            g = by_delta[k]["general"]["mean"]["two_way_low"]
            s = by_delta[k]["specialized"]["mean"]["two_way_low"]
            assert s >= g - 2.0, f"specialized at {k}TR: {s:.1f} < general {g:.1f} - 2"


# ---------------------------------------------------------------------------
# criterion 8: label-shuffle control


@e2e
def test_criterion_8_shuffle_control():
    with criterion(8, "shuffled conditioning decodes at chance (50 +- 7)"):
        manifest = world.ensure_dataset()
        shuffled = world.ensure_shuffle(manifest)
        split = world.standard_split(manifest)
        report = evaluate_split(shuffled, manifest, split, RngKey(997, ("acc8",)), EvalConfig())
        print(f"\n  shuffled two_way_low = {report.mean['two_way_low']:.1f}")
        assert abs(report.mean["two_way_low"] - 50.0) <= 7.0


# ---------------------------------------------------------------------------
# criterion 9: multi-subject training and new-subject adaptation


def _single_subject_split(split: SplitSpec, sid: str) -> SplitSpec:
    return SplitSpec(split.kind, {sid: split.train_refs[sid]}, {sid: split.test_refs[sid]}, split.test_stimuli)


@e2e
def test_criterion_9_multi_subject():
    with criterion(9, "shared-trunk multi-subject training; adaptation >= from-scratch - 2 on 25% of runs"):
        manifest = world.ensure_dataset()
        multi = world.ensure_multi(manifest)
        adapted = world.ensure_adapted(manifest)
        scratch = world.ensure_scratch(manifest)

        store, _, _, _ = load_train_state(multi)
        train_subjects = [s for s in manifest.subject_ids if s != world.HELD_OUT_SUBJECT]
        for sid in train_subjects:
            assert f"brain/subject/{sid}/w" in store
            assert f"brain/tstep/{sid}/w" in store
        assert "brain/out/w" in store and "brain/ln/g" in store  # one shared trunk

        split = _single_subject_split(world.standard_split(manifest), world.HELD_OUT_SUBJECT)
        key = RngKey(996, ("acc9",))
        rep_adapted = evaluate_split(adapted, manifest, split, key, EvalConfig())
        rep_scratch = evaluate_split(scratch, manifest, split, key, EvalConfig())
        a = rep_adapted.mean["two_way_low"]
        s = rep_scratch.mean["two_way_low"]
        print(f"\n  adapted={a:.1f} from-scratch={s:.1f} (25% of runs)")
        assert a >= s - 2.0


# ---------------------------------------------------------------------------
# criterion 10: rerun determinism


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical emitted bytes for reruns of the same resolved config"):
        overrides = [
            "--set", "dataset.n_subjects=2",
            "--set", "dataset.n_train_unique=8",
            "--set", "dataset.n_test_unique=4",
            "--set", "dataset.trials_per_run=12",
            "--set", "dataset.voxel_lo=25",
            "--set", "dataset.voxel_hi=40",
            "--set", "train.steps=3",
            "--set", "train.pretrain_steps=2",
            "--set", "train.batch_size=4",
            "--set", "train.warmup_steps=1",
            "--set", "train.brain.hidden=16",
            "--set", "train.brain.tokens=4",
            "--set", "train.brain.token_dim=8",
            "--set", "train.unet.channels=[8,8,16]",
            "--set", "eval.steps=3",
        ]

        def run_all(root: Path):
            base = ["--set", f"paths.out_root={root}", *overrides]
            assert dispatch([*base, "gen-data"]) == EXIT_OK
            assert dispatch([*base, "pretrain-gen"]) == EXIT_OK
            assert dispatch([*base, "train", "--out", str(root / "train")]) == EXIT_OK
            assert dispatch([*base, "eval", "--ckpt", str(root / "train"), "--out", str(root / "eval")]) == EXIT_OK

        run_all(tmp_path / "a")
        run_all(tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            ba = (tmp_path / "a" / rel).read_bytes()
            bb = (tmp_path / "b" / rel).read_bytes()
            if rel.name == "resolved_config.json":
                continue  # embeds the differing output root by design
            assert ba == bb, f"{rel} differs between reruns"
