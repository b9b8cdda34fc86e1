import ast
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from bold2img import trainer
from bold2img.brainmod import BrainModuleConfig
from bold2img.cli import EXIT_FAIL, dispatch
from bold2img.diffgen import NonFiniteActivation, UNetConfig
from bold2img.lanes import blas_threads
from bold2img.prep import PreprocCache, build_split_standard, extract_epochs
from bold2img.substrate import RngKey
from bold2img.synthcortex import DatasetConfig, build_dataset
from bold2img.trainer import (
    INFER_BATCH,
    REGIMES,
    TRAIN_SHARD_ROWS,
    TrainConfig,
    TrainingDiverged,
    adapt_new_subject,
    assemble_training_set,
    config_from_json,
    config_to_json,
    infer,
    load_train_state,
    pretrain_generator,
    recorded_train_config,
    regime_trainable_names,
    save_train_state,
    train_single_stage,
)

needs_blas_threads = pytest.mark.skipif(not blas_threads(), reason="numpy's BLAS thread count cannot be set")

TINY_UNET = UNetConfig(resolution=32, channels=(8, 8, 16), tokens=4, token_dim=8)
TINY_BRAIN = BrainModuleConfig(hidden=16, tokens=4, token_dim=8)


def tiny_config(**kw):
    base = dict(
        steps=6,
        pretrain_steps=4,
        batch_size=8,
        warmup_steps=2,
        seed=11,
        brain=TINY_BRAIN,
        unet=TINY_UNET,
    )
    base.update(kw)
    return TrainConfig(**base)


def _infer(ckpt, epochs, key, steps):
    store, _, config, _ = load_train_state(ckpt)
    return infer(store, config, epochs, key, steps, guidance=3.0)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    cfg = DatasetConfig(
        n_subjects=3,
        n_train_unique=12,
        n_test_unique=4,
        trials_per_run=12,
        voxel_lo=25,
        voxel_hi=40,
        noise_scale=0.3,
    )
    manifest = build_dataset(cfg, RngKey(5), root / "ds")
    split = build_split_standard(manifest)
    pre = pretrain_generator(manifest, tiny_config(), root / "pre")
    return manifest, split, pre, root


def test_train_config_json_round_trip():
    cfg = tiny_config(beta1=0.8, beta2=0.99)
    doc = config_to_json(cfg)
    assert (doc["beta1"], doc["beta2"]) == (0.8, 0.99) and doc["unet"]["channels"] == [8, 8, 16]
    assert config_from_json(TrainConfig, doc) == cfg


def test_train_config_from_json_reads_the_removed_conditioning_key():
    doc = config_to_json(tiny_config())
    with pytest.raises(ValueError, match=r"^cfg\.nope: not a field of TrainConfig$"):
        config_from_json(TrainConfig, {**doc, "nope": 1}, "cfg")


def test_checkpoint_config_records_no_window_length(world):
    _, _, pre, _ = world
    doc = json.loads((pre / "manifest.json").read_text())
    assert "window_samples" not in doc["extra"]["train_config"]["brain"]
    assert not (pre / "train_config.json").exists()


@pytest.mark.parametrize(
    "dotted, owner", [("finetune_regime", "TrainConfig"), ("brain.window_samples", "BrainModuleConfig")]
)
def test_checkpoint_recording_a_key_that_is_not_a_field_is_rejected(world, tmp_path, capsys, dotted, owner):
    _, _, pre, root = world
    doc = json.loads((pre / "manifest.json").read_text())
    *parents, leaf = dotted.split(".")
    node = doc["extra"]["train_config"]
    for k in parents:
        node = node[k]
    node[leaf] = 6
    old = tmp_path / "old"
    shutil.copytree(pre, old)
    (old / "manifest.json").write_text(json.dumps(doc))
    message = f"{old / 'manifest.json'}: train_config.{dotted}: not a field of {owner}"
    for read in (load_train_state, recorded_train_config):
        with pytest.raises(ValueError) as err:
            read(old)
        assert str(err.value) == message
    capsys.readouterr()
    out = tmp_path / "eval"
    code = dispatch(["--set", f"paths.data={root / 'ds'}", "eval", "--ckpt", str(old), "--out", str(out)])
    assert code == EXIT_FAIL and message in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_zero_steps_is_identity(world, tmp_path):
    manifest, _, _, _ = world
    cfg = tiny_config(pretrain_steps=0)
    out = pretrain_generator(manifest, cfg, tmp_path / "p0")
    store, opt, _, _ = load_train_state(out)
    assert opt.step == 0
    from bold2img.diffgen import init_null_tokens, init_unet

    ref = init_unet(cfg.unet, RngKey(cfg.seed, ("pretrain",)).child("init", "unet"))
    init_null_tokens(cfg.unet, RngKey(cfg.seed, ("pretrain",)).child("init", "null"), ref)
    assert store.hash_of(ref.names()) == ref.hash_of()


def test_pretrain_deterministic(world, tmp_path):
    manifest, _, pre, _ = world
    again = pretrain_generator(manifest, tiny_config(), tmp_path / "pre2")
    s1, _, _, _ = load_train_state(pre)
    s2, _, _, _ = load_train_state(again)
    assert s1.hash_of() == s2.hash_of()


def test_pretrain_resume_is_bitwise(world, tmp_path):
    manifest, _, full, _ = world
    part = pretrain_generator(manifest, tiny_config(), tmp_path / "part", stop_after=2)
    resumed = pretrain_generator(manifest, tiny_config(), tmp_path / "resumed", resume_from=part)
    s_full, o_full, _, _ = load_train_state(full)
    s_res, o_res, _, _ = load_train_state(resumed)
    assert o_res.step == o_full.step == 4
    assert s_res.hash_of() == s_full.hash_of()
    full_rows = (full / "loss.csv").read_text().splitlines()[1:]
    part_rows = (part / "loss.csv").read_text().splitlines()[1:]
    resumed_rows = (resumed / "loss.csv").read_text().splitlines()[1:]
    assert len(part_rows) == 2
    assert part_rows + resumed_rows == full_rows


def test_pretrain_loss_csv(world):
    _, _, pre, _ = world
    lines = (pre / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss,lr,cond_dropped"
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_freezing(world, tmp_path, regime):
    manifest, split, pre, _ = world
    cfg = tiny_config(regime=regime, steps=3, warmup_steps=1)
    out = train_single_stage(manifest, split, pre, cfg, tmp_path / f"r_{regime}", subjects=["sub01"])
    store, _, _, _ = load_train_state(out)
    pre_store, _, _, _ = load_train_state(pre)
    declared = regime_trainable_names(store, regime)
    for name in pre_store.names():
        same = np.array_equal(store[name].data, pre_store[name].data)
        if name in declared:
            assert not same, f"{name} should have trained under {regime}"
        else:
            assert same, f"{name} must stay frozen under {regime}"


def test_only_the_step_loop_sets_trainable_flags():
    """Each phase states what trains in the map it hands `_train_loop`, the
    one place that sets the flags."""
    src = Path(__file__).resolve().parents[1] / "src" / "bold2img"

    def calls(node):
        return sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "set_trainable_by"
            for n in ast.walk(node)
        )

    total, in_loop = 0, 0
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        total += calls(tree)
        if path.name == "trainer.py":
            in_loop += sum(calls(f) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_train_loop")
    assert total == in_loop == 1


def test_regime_none_freezes_generator(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(regime="none", steps=3, warmup_steps=1)
    out = train_single_stage(manifest, split, pre, cfg, tmp_path / "none", subjects=["sub01"])
    store, _, _, _ = load_train_state(out)
    pre_store, _, _, _ = load_train_state(pre)
    unet_names = [n for n in pre_store.names() if n.startswith("unet/")]
    assert store.hash_of(unet_names) == pre_store.hash_of(unet_names)


def test_lora_regime_trainable_count_much_smaller(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(regime="lora", steps=2, warmup_steps=1)
    out = train_single_stage(manifest, split, pre, cfg, tmp_path / "lc", subjects=["sub01"])
    store, _, _, _ = load_train_state(out)
    lora_n = sum(store[n].data.size for n in store.names() if n.startswith("lora/"))
    unet_n = sum(store[n].data.size for n in store.names() if n.startswith("unet/"))
    assert lora_n < unet_n / 5


def test_lora_regime_without_adapters_errors(world):
    _, _, pre, _ = world
    store, _, _, _ = load_train_state(pre)
    with pytest.raises(ValueError, match="adapters"):
        regime_trainable_names(store, "lora")


@pytest.mark.parametrize("phase", ["pretrain", "joint"])
def test_cond_dropout_rate(world, tmp_path, phase):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=40, pretrain_steps=40, warmup_steps=2, cond_dropout=0.25, batch_size=8)
    if phase == "pretrain":
        out = pretrain_generator(manifest, cfg, tmp_path / "cd")
    else:
        out = train_single_stage(manifest, split, pre, cfg, tmp_path / "cd", subjects=["sub01"])
    rows = (out / "loss.csv").read_text().strip().splitlines()[1:]
    dropped = sum(int(r.split(",")[3]) for r in rows)
    n = 40 * 8
    sigma = np.sqrt(0.25 * 0.75 * n)
    assert abs(dropped - 0.25 * n) < 3 * sigma


def test_resume_is_bitwise(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=8, warmup_steps=2)
    full = train_single_stage(manifest, split, pre, cfg, tmp_path / "full", subjects=["sub01"])
    part = train_single_stage(
        manifest, split, pre, cfg, tmp_path / "part", subjects=["sub01"], stop_after=4
    )
    resumed = train_single_stage(manifest, split, pre, cfg, tmp_path / "resumed", resume_from=part, subjects=["sub01"])
    s_full, _, _, _ = load_train_state(full)
    s_res, _, _, _ = load_train_state(resumed)
    assert s_full.hash_of() == s_res.hash_of()


def test_multi_subject_shared_trunk_and_param_count(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=3, warmup_steps=1)
    out = train_single_stage(manifest, split, pre, cfg, tmp_path / "ms", subjects=["sub01", "sub02", "sub03"])
    store, _, _, _ = load_train_state(out)
    h, t = TINY_BRAIN.hidden, 6  # the default 8 s window at TR 1.3
    for sid in ["sub01", "sub02", "sub03"]:
        c = manifest.subject_voxels[sid]
        per_subject = sum(
            store[n].data.size
            for n in store.names()
            if n.startswith((f"brain/subject/{sid}/", f"brain/tstep/{sid}/"))
        )
        assert per_subject == (c * h + h) + t * (h * h + h)
    # trunk entries exist once, not per subject
    assert sum(1 for n in store.names() if n.startswith("brain/ln/")) == 2


def test_adapt_new_subject(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=4, warmup_steps=1)
    multi = train_single_stage(manifest, split, pre, cfg, tmp_path / "base", subjects=["sub01", "sub02"])
    with pytest.raises(ValueError, match="sessions_used"):
        adapt_new_subject(multi, manifest, split, "sub03", 0, cfg, tmp_path / "bad")
    adapted = adapt_new_subject(multi, manifest, split, "sub03", 2, cfg, tmp_path / "adapted")
    s_multi, _, _, _ = load_train_state(multi)
    s_adapt, _, _, _ = load_train_state(adapted)
    for sid in ["sub01", "sub02"]:
        names = [n for n in s_multi.names() if n.startswith(f"brain/subject/{sid}/")]
        assert s_adapt.hash_of(names) == s_multi.hash_of(names)
    assert "brain/subject/sub03/w" in s_adapt
    # trunk moved (finetuned at reduced rate)
    assert not np.array_equal(s_adapt["brain/out/w"].data, s_multi["brain/out/w"].data)


def test_adapt_trains_the_trunk_at_a_tenth_of_the_rate(world, tmp_path):
    manifest, split, pre, _ = world
    multi = train_single_stage(manifest, split, pre, tiny_config(steps=3, warmup_steps=1), tmp_path / "base",
                               subjects=["sub01", "sub02"])
    cfg = tiny_config(steps=1, warmup_steps=0)
    adapted = adapt_new_subject(multi, manifest, split, "sub03", 1, cfg, tmp_path / "adapted")
    before, _, _, _ = load_train_state(multi)
    after, _, _, _ = load_train_state(adapted)
    # one AdamW step from fresh moments at rate lr moves an entry by at most
    # lr * (1 + wd * |p|); float32 rounding adds a few units in the last place
    lr, wd = cfg.max_lr, cfg.weight_decay
    trunk_moves = []
    for name in before.names():
        p = before[name].data
        moved = np.abs(after[name].data.astype(np.float64) - p)
        bound = 0.1 * lr * (1 + wd * np.abs(p.astype(np.float64))) * (1 + 1e-5) + np.spacing(np.abs(p))
        assert np.all(moved <= bound), name
        trunk_moves.append(moved.max())
    assert max(trunk_moves) > 0.05 * lr
    # the fresh layer's bias starts at zero and trains at the full rate
    assert np.abs(after["brain/subject/sub03/b"].data).max() > 0.5 * lr


def test_adapt_runs_checkpoint_adapters_under_any_regime(world, tmp_path):
    manifest, split, pre, _ = world
    multi = train_single_stage(manifest, split, pre, tiny_config(steps=3, warmup_steps=1), tmp_path / "base",
                               subjects=["sub01", "sub02"])
    # 'none' is the one regime adaptation accepts besides 'lora'
    cfg = tiny_config(steps=3, warmup_steps=1, regime="none")
    adapted = adapt_new_subject(multi, manifest, split, "sub03", 1, cfg, tmp_path / "adapted")
    bare = tmp_path / "bare"  # the same checkpoint with its adapters deleted
    shutil.copytree(adapted, bare)
    doc = json.loads((bare / "manifest.json").read_text())
    doc["tensors"] = [e for e in doc["tensors"] if "lora/" not in e["name"]]
    (bare / "manifest.json").write_text(json.dumps(doc))
    cache = PreprocCache(manifest).build()
    epochs, _ = extract_epochs(cache, {"sub03": split.test_refs["sub03"][:2]})
    with_lora = _infer(adapted, epochs, RngKey(3, ("gen",)), steps=2)
    without = _infer(bare, epochs, RngKey(3, ("gen",)), steps=2)
    assert not np.array_equal(with_lora, without)


def test_adapt_rejects_known_subject(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=3, warmup_steps=1)
    multi = train_single_stage(manifest, split, pre, cfg, tmp_path / "base2", subjects=["sub01", "sub02"])
    with pytest.raises(ValueError, match="already present"):
        adapt_new_subject(multi, manifest, split, "sub01", 1, cfg, tmp_path / "dup")


def test_infer_deterministic_and_ordered(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=3, warmup_steps=1)
    ckpt = train_single_stage(manifest, split, pre, cfg, tmp_path / "inf", subjects=["sub01"])
    cache = PreprocCache(manifest).build()
    epochs, _ = extract_epochs(cache, {"sub01": split.test_refs["sub01"][:5]})
    store, _, config, _ = load_train_state(ckpt)
    imgs1 = infer(store, config, epochs, RngKey(3, ("gen",)), steps=4, guidance=3.0)
    imgs2 = infer(store, config, epochs, RngKey(3, ("gen",)), steps=4, guidance=3.0)
    assert imgs1.shape == (5, 32, 32, 3)
    assert imgs1.tobytes() == imgs2.tobytes()
    # per-epoch keyed start noise: decoding another slice of the epochs, here
    # one trial alone, stays close. The batches are fixed at INFER_BATCH, so
    # the bits do not depend on `workers`, but a batch of another shape may
    # round differently in the last bits, since BLAS picks kernels by matrix
    # size.
    solo = infer(store, config, epochs[2:3], RngKey(3, ("gen",)), steps=4, guidance=3.0)
    assert np.abs(solo[0].astype(np.float64) - imgs1[2]).mean() < 0.05


@pytest.fixture(scope="module")
def three_batches(world, tmp_path_factory):
    """A two-subject model and 2 * INFER_BATCH + 3 test epochs: two full batches and a short one."""
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=3, warmup_steps=1)
    ckpt = train_single_stage(manifest, split, pre, cfg, tmp_path_factory.mktemp("lanes"), subjects=["sub01", "sub02"])
    cache = PreprocCache(manifest).build()
    epochs, _ = extract_epochs(cache, {s: split.test_refs[s] for s in ("sub01", "sub02")})
    assert len(epochs) >= 2 * INFER_BATCH + 3
    store, _, config, _ = load_train_state(ckpt)
    return store, config, epochs[: 2 * INFER_BATCH + 3]


def _no_lane_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_infer_bits_do_not_depend_on_workers(three_batches):
    store, config, epochs = three_batches
    threads = blas_threads()
    images = [infer(store, config, epochs, RngKey(3, ("gen",)), 2, 3.0, workers) for workers in (1, 2, 3)]
    _no_lane_left()
    assert blas_threads() == threads
    assert images[0].shape == (len(epochs), 32, 32, 3)
    assert [im.tobytes() == images[0].tobytes() for im in images[1:]] == [True, True]


@pytest.mark.parametrize(
    "bad, error, match",
    [
        (INFER_BATCH + 1, RuntimeError, "lane 1 failed at rows 8:16: ValueError: no decode for trial 9"),
        (2 * INFER_BATCH + 1, ValueError, "no decode for trial 17"),  # the caller's own lane
    ],
)
def test_infer_lane_failure_names_its_batch_and_leaves_no_lane(three_batches, monkeypatch, bad, error, match):
    store, config, epochs = three_batches
    real = trainer.brain_forward_batch

    def failing(x, *args, **kwargs):  # forked lanes inherit the patch
        if np.array_equal(x[0], epochs[bad].X):
            raise ValueError(f"no decode for trial {bad}")
        return real(x, *args, **kwargs)

    monkeypatch.setattr(trainer, "brain_forward_batch", failing)
    threads = blas_threads()
    with pytest.raises(error, match=match):
        infer(store, config, epochs, RngKey(3, ("gen",)), 2, 3.0, workers=2)
    _no_lane_left()
    assert blas_threads() == threads


def test_infer_window_mismatch_errors(world, tmp_path):
    manifest, split, pre, _ = world
    cfg = tiny_config(steps=3, warmup_steps=1)
    ckpt = train_single_stage(manifest, split, pre, cfg, tmp_path / "wm", subjects=["sub01"])
    cache = PreprocCache(manifest).build()
    epochs, _ = extract_epochs(cache, {"sub01": split.test_refs["sub01"][:1]}, d=4 * 1.3)
    with pytest.raises(ValueError, match="samples"):
        _infer(ckpt, epochs, RngKey(0), steps=2)


def test_shuffle_conditioning_permutes_images(world):
    manifest, split, _, _ = world
    cache = PreprocCache(manifest).build()
    cfg = tiny_config(shuffle_conditioning=True)
    refs = {"sub01": split.train_refs["sub01"]}
    plain = assemble_training_set(manifest, cache, refs, tiny_config(), shuffle_key=RngKey(1))
    shuf = assemble_training_set(manifest, cache, refs, cfg, shuffle_key=RngKey(1))
    assert plain.images.tobytes() == shuf.images.tobytes()  # so rows name the same stimuli
    assert not np.array_equal(plain.image_row["sub01"], shuf.image_row["sub01"])
    assert sorted(plain.image_row["sub01"]) == sorted(shuf.image_row["sub01"])


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shuffle", [False, True])
def test_training_set_gathers_views_and_one_image_per_stimulus(world, shuffle):
    manifest, split, _, _ = world
    cache = PreprocCache(manifest).build()
    refs = {sid: split.train_refs[sid] for sid in ("sub01", "sub02")}
    epochs, _ = extract_epochs(cache, refs)
    cfg = tiny_config(shuffle_conditioning=shuffle)
    data = assemble_training_set(manifest, cache, refs, cfg, shuffle_key=RngKey(1))
    assert data.images.shape == (len({e.stimulus_id for e in epochs}), 32, 32, 3)
    for sid in refs:
        eps = [e for e in epochs if e.subject_id == sid]
        stims = [e.stimulus_id for e in eps]
        if shuffle:
            stims = [stims[i] for i in RngKey(1).child("shuffle", sid).permutation(len(stims))]
        rows = [5, 0, 5, len(eps) - 1, 3]
        x, images = data.gather(sid, rows)
        assert _same_bytes(x, np.stack([eps[i].X for i in rows]))
        assert _same_bytes(images, np.stack([manifest.load_image(stims[i]) for i in rows]))
        for window, (run_idx, _) in zip(data.windows[sid], refs[sid]):
            assert np.shares_memory(window, cache.get(sid, run_idx).data)
            assert not window.flags.writeable


def test_nonfinite_activation_names_the_step_and_block(world, tmp_path):
    manifest, split, pre, _ = world
    store, opt, cfg, extra = load_train_state(pre)
    store["unet/enc2/conv/w"].data.flat[0] = np.nan
    save_train_state(tmp_path / "nan_pre", store, opt, cfg, extra)
    with pytest.raises(NonFiniteActivation, match=r"step 0: .*block 'enc2'"):
        train_single_stage(manifest, split, tmp_path / "nan_pre", tiny_config(steps=3, warmup_steps=1),
                           tmp_path / "out", subjects=["sub01"])


# ---------------------------------------------------------------------------
# training steps split into shards, on forked lanes


@pytest.mark.parametrize("phase", ["pretrain", "joint"])
def test_shards_change_only_the_summation_order(world, tmp_path, monkeypatch, phase):
    """One float64 step as one shard and as two: each shard takes its rows of
    the whole batch's draws (rows, dropped conditioning, timesteps, noise,
    brain dropout) and divides its squared error by the whole batch's size,
    so the two shards' loss and gradients sum to the batch's."""
    manifest, split, pre, _ = world
    cfg = tiny_config(batch_size=8, cond_dropout=0.5, seed=2)  # a seed whose step 0 covers every case below
    subjects = ["sub01", "sub02", "sub03"]
    skey = RngKey(cfg.seed, (phase,)).child("step", 0)
    dropped = skey.child("cdrop").generator().random(8) < cfg.cond_dropout
    assert dropped[:4].any() and dropped[4:].any() and not dropped.all()
    if phase == "pretrain":
        init = pretrain_generator(manifest, cfg, tmp_path / "init", stop_after=0)
    else:
        init = train_single_stage(manifest, split, pre, cfg, tmp_path / "init", subjects=subjects, stop_after=0)
        refs = {sid: split.train_refs[sid] for sid in subjects}
        data = assemble_training_set(manifest, PreprocCache(manifest).build(), refs, cfg,
                                     RngKey(cfg.seed, ("joint",)).child("labels"))
        rows = sorted(data.flat_index[i][0] for i in skey.child("batch").generator().integers(0, data.n_total, 8))
        assert rows[3] == rows[4] and len(set(rows)) > 1  # one subject's rows straddle the shard boundary
    store, opt, config, extra = load_train_state(init)
    save_train_state(tmp_path / "init64", store.astype(np.float64), opt, config, extra)

    grads, losses = [], []
    real = trainer.adamw_step

    def recording(store, step_grads, *args, **kwargs):
        grads.append({n: g.copy() for n, g in step_grads.items()})
        return real(store, step_grads, *args, **kwargs)

    monkeypatch.setattr(trainer, "adamw_step", recording)
    monkeypatch.setattr(trainer._DivergenceGuard, "check", lambda guard, step, loss: losses.append(loss))
    for shard_rows in (8, 4):
        monkeypatch.setattr(trainer, "TRAIN_SHARD_ROWS", shard_rows)
        out, init64 = tmp_path / f"rows{shard_rows}", tmp_path / "init64"
        if phase == "pretrain":
            pretrain_generator(manifest, cfg, out, resume_from=init64, stop_after=1)
        else:
            train_single_stage(manifest, split, pre, cfg, out, subjects=subjects, resume_from=init64, stop_after=1)
    whole, halves = grads
    assert sorted(whole) == sorted(halves) and {g.dtype for g in whole.values()} == {np.dtype(np.float64)}
    assert abs(losses[1] - losses[0]) <= 1e-10 * losses[0]
    for name, g in whole.items():
        assert np.abs(halves[name] - g).max() <= 1e-10 * np.abs(g).max(), name


def _two_shard_config():
    return tiny_config(batch_size=2 * TRAIN_SHARD_ROWS, steps=4, warmup_steps=1)


def _train_on_two_lanes(world, out, **kw):
    manifest, split, pre, _ = world
    return train_single_stage(manifest, split, pre, _two_shard_config(), out, subjects=["sub01", "sub02"],
                              workers=2, **kw)


def _failing_loss(monkeypatch, fail):
    """Patch the step loop's loss so that `fail(step, in_lane)` runs first (forked lanes inherit the patch)."""
    caller, real = os.getpid(), trainer.diffusion_loss

    def loss(*args, **kwargs):
        fail(int(args[5].path[-2]), os.getpid() != caller)  # the loss key: (..., "step", step, "loss")
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "diffusion_loss", loss)


@needs_blas_threads
def test_a_failed_training_lane_names_the_step_and_its_rows(world, tmp_path, monkeypatch):
    def fail(step, in_lane):
        if in_lane and step == 2:
            raise ValueError("no loss for step 2")

    _failing_loss(monkeypatch, fail)
    threads = blas_threads()
    with pytest.raises(RuntimeError, match=r"^lane 1 failed at step 2, rows 16:32: ValueError: no loss for step 2$"):
        _train_on_two_lanes(world, tmp_path / "out")
    _no_lane_left()
    assert blas_threads() == threads


@needs_blas_threads
def test_nonfinite_activation_in_a_lane_names_the_step_and_block(world, tmp_path, monkeypatch):
    def fail(step, in_lane):
        if in_lane and step == 1:
            raise NonFiniteActivation("non-finite activation leaving block 'enc2'")

    _failing_loss(monkeypatch, fail)
    threads = blas_threads()
    with pytest.raises(NonFiniteActivation, match=r"step 1, rows 16:32: .*step 1: .*block 'enc2'"):
        _train_on_two_lanes(world, tmp_path / "out")
    _no_lane_left()
    assert blas_threads() == threads


@needs_blas_threads
@pytest.mark.parametrize("error", [NonFiniteActivation, TrainingDiverged])
def test_a_failure_in_the_caller_kills_and_reaps_the_training_lane(world, tmp_path, monkeypatch, error):
    def fail(step, in_lane):
        if step == 1 and in_lane:
            time.sleep(30)  # a lane still working when the caller fails
        if step == 1 and not in_lane and error is NonFiniteActivation:
            raise NonFiniteActivation("non-finite activation leaving block 'enc2'")

    def diverge(guard, step, loss):
        if step == 0:
            raise TrainingDiverged(f"non-finite loss nan at step {step}")

    _failing_loss(monkeypatch, fail)
    if error is TrainingDiverged:
        monkeypatch.setattr(trainer._DivergenceGuard, "check", diverge)
    threads = blas_threads()
    t0 = time.monotonic()
    with pytest.raises(error, match="step 1: .*block 'enc2'" if error is NonFiniteActivation else "at step 0"):
        _train_on_two_lanes(world, tmp_path / "out")
    assert time.monotonic() - t0 < 20
    _no_lane_left()
    assert blas_threads() == threads


@needs_blas_threads
def test_resume_on_two_lanes_is_bitwise(world, tmp_path):
    full = _train_on_two_lanes(world, tmp_path / "full")
    part = _train_on_two_lanes(world, tmp_path / "part", stop_after=2)
    resumed = _train_on_two_lanes(world, tmp_path / "resumed", resume_from=part)
    _no_lane_left()
    s_full, o_full, _, _ = load_train_state(full)
    s_res, o_res, _, _ = load_train_state(resumed)
    assert o_res.step == o_full.step == 4
    assert s_res.hash_of() == s_full.hash_of()
    assert all(np.array_equal(o_res.m[n], o_full.m[n]) and np.array_equal(o_res.v[n], o_full.v[n]) for n in o_full.m)
    rows = [(p / "loss.csv").read_text().splitlines()[1:] for p in (full, part, resumed)]
    assert rows[1] + rows[2] == rows[0]
