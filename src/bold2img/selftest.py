"""Built-in invariant suite behind the `selftest` subcommand.

Fast, dependency-free checks of the core numeric contracts: gradient
correctness, optimizer arithmetic, schedule shape, sampler distributions,
preprocessing oracles, rasterizer/segmenter identity, and container
round-trips. Exits nonzero on the first broken invariant class.
"""

from __future__ import annotations

import numpy as np

from .diffgen import (
    add_lora_params,
    bicubic_cdf,
    cfg_combine,
    ddim_sample,
    lora_linear,
    make_schedule,
    q_sample,
    sample_timestep_bicubic,
)
from .evalkit import segment_by_palette
from .prep import dct_basis, detrend, first_window_index, zscore
from .substrate import OptimizerState, ParamStore, RngKey, Tensor, adamw_step, gradcheck, registered_ops
from .substrate.checkpoint import load_checkpoint, save_checkpoint
from .substrate.gradcheck import make_case
from .synthcortex import DEFAULT_PALETTE, FmriRun, RunTimeline, render_mask, render_scene, sample_scene


def _check_gradients() -> str | None:
    for op_id in registered_ops():
        if op_id.startswith(("brainmod_", "unet_")):
            continue  # covered by the pytest suite; too slow for selftest
        params, inputs = make_case(op_id, seed=0)
        report = gradcheck(op_id, params, inputs, eps=1e-5, tol=1e-3)
        if not report.passed:
            return f"{op_id}: {report.failures}"
    return None


def _check_adamw() -> str | None:
    params = ParamStore()
    params.add("w", np.array([1.0], dtype=np.float64))
    adamw_step(params, {"w": np.array([1.0])}, OptimizerState(), lr=0.1, wd=0.0)
    expected = 1.0 - 0.1 / (1.0 + 1e-8)
    if abs(params["w"].data[0] - expected) > 1e-9:
        return f"single-step update {params['w'].data[0]!r} != {expected!r}"
    return None


def _check_schedule() -> str | None:
    sched = make_schedule()
    if not (sched.alpha_bars[0] > 0.99 and sched.alpha_bars[-1] < 0.01):
        return "alpha_bar endpoints out of spec"
    t = sample_timestep_bicubic(RngKey(0, ("selftest", "bicubic")), 1000, 100_000)
    emp = np.cumsum(np.bincount(t, minlength=1000)) / t.size
    sup = np.abs(emp - bicubic_cdf(np.arange(1000), 1000)).max()
    if sup > 0.02:
        return f"bicubic CDF sup-norm {sup:.4f}"
    return None


def _check_lora_cfg_ddim() -> str | None:
    key = RngKey(1, ("selftest", "lora"))
    store = ParamStore()
    store.add("w", key.child("w").normal((5, 6), 1.0, np.float64))
    store.add("b", key.child("b").normal((6,), 1.0, np.float64))
    x = Tensor(key.child("x").normal((2, 5), 1.0, np.float64))
    plain = lora_linear(x, store, "w", "b", "site", "q").data
    add_lora_params(store, key, "site", "q", 5, 6)
    if not np.array_equal(lora_linear(x, store, "w", "b", "site", "q").data, plain):
        return "zero-B adapter changed the projection"
    c = key.child("c").normal((8,))
    u = key.child("u").normal((8,))
    if cfg_combine(c, u, 1.0) is not c or cfg_combine(c, u, 0.0) is not u:
        return "guidance identities broken"
    sched = make_schedule()
    x0 = key.child("x0").uniform((1, 8, 8, 3))
    eps = key.child("eps").normal((1, 8, 8, 3))
    start = q_sample(x0, sched.t_max - 1, eps, sched)
    out = ddim_sample(lambda xx, t: eps, sched, start, steps=50)
    if np.abs(out - x0).max() > 1e-3:
        return f"oracle DDIM reconstruction error {np.abs(out - x0).max():.2e}"
    return None


def _check_preprocessing() -> str | None:
    n, tr = 179, 1.3
    basis = dct_basis(n, tr, 128.0)
    sig = 1.5 * basis[:, 1] - 0.7 * basis[:, -1]
    run = FmriRun(np.tile(sig, (3, 1)).astype(np.float32), RunTimeline(tr, n, []), "s", "r")
    if np.abs(detrend(run).data).max() > 1e-5:
        return "in-basis drift survived detrending"
    g = RngKey(2, ("selftest", "z")).generator()
    zrun = zscore(FmriRun(g.normal(3.0, 2.0, (8, 100)).astype(np.float32), RunTimeline(tr, 100, []), "s", "r"))
    mu = zrun.data.astype(np.float64).mean(axis=1)
    sd = zrun.data.astype(np.float64).std(axis=1)
    if np.abs(mu).max() > 1e-5 or np.abs(sd - 1).max() > 1e-5:
        return "z-score moments off"
    g2 = RngKey(3, ("selftest", "w")).generator()
    for _ in range(1000):
        onset = float(g2.uniform(0, 200))
        t = float(g2.uniform(0, 6))
        delta = float(g2.uniform(-6, 8))
        x = onset + t + delta
        if x < 0:
            continue
        nn = 0
        while nn * tr < x:
            nn += 1
        if first_window_index(onset, t, delta, tr) != nn:
            return f"window index mismatch at onset={onset}, t={t}, delta={delta}"
    return None


def _check_rasterizer() -> str | None:
    for i in range(10):
        scene = sample_scene(RngKey(4, ("selftest", "scene", i)))
        img = render_scene(scene)
        if not np.array_equal(segment_by_palette(img, DEFAULT_PALETTE), render_mask(scene)):
            return f"palette segmenter disagrees with rasterizer on scene {i}"
    return None


def _check_checkpoint(tmp=None) -> str | None:
    import tempfile

    params = ParamStore()
    params.add("a/b", RngKey(5, ("selftest", "ck")).normal((7, 3)))
    params.add("c", np.arange(4, dtype=np.float32))
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(d, params, {"step": 3})
        loaded, extra = load_checkpoint(d)
    if extra != {"step": 3} or loaded.hash_of() != params.hash_of():
        return "checkpoint round-trip differs"
    return None


def _check_rng() -> str | None:
    a = RngKey(6).child("x", 1).normal((5,))
    b = RngKey(6).child("x", 1).normal((5,))
    c = RngKey(6).child("x", 2).normal((5,))
    if not np.array_equal(a, b) or np.array_equal(a, c):
        return "named streams not stable/distinct"
    return None


CHECKS = [
    ("layer-gradients", _check_gradients),
    ("adamw-update", _check_adamw),
    ("noise-schedule", _check_schedule),
    ("lora-cfg-ddim", _check_lora_cfg_ddim),
    ("preprocessing", _check_preprocessing),
    ("rasterizer-segmenter", _check_rasterizer),
    ("checkpoint-roundtrip", _check_checkpoint),
    ("rng-streams", _check_rng),
]


def run_selftest(verbose: bool = True) -> bool:
    ok = True
    for name, fn in CHECKS:
        detail = fn()
        if detail is None:
            if verbose:
                print(f"PASS {name}")
        else:
            ok = False
            if verbose:
                print(f"FAIL {name}: {detail}")
    return ok
