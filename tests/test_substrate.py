import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrupt_json import corrupt_manifests
from gradcheck import CASES, gradcheck

from bold2img.substrate import (
    LrSchedule,
    OptimizerState,
    ParamStore,
    RngKey,
    Tensor,
    adamw_step,
    load_checkpoint,
    lr_at,
    no_grad,
    ops,
    read_tensor,
    save_checkpoint,
    write_tensor,
)


# ---------------------------------------------------------------------------
# gradcheck: the finite-difference checker is itself the oracle


def test_gradcheck_linear_passes():
    report = gradcheck(*CASES["linear"](RngKey(0, ("gradcheck", "linear"))))
    assert report.passed, report.failures


def test_gradcheck_gelu_at_zero():
    # GELU is smooth at 0; an all-zero input must still pass.
    params = ParamStore()
    params.add("x", np.zeros((4, 5), dtype=np.float64))
    report = gradcheck(params, lambda p: ops.gelu(p["x"]))
    assert report.passed, report.failures


def test_gelu_is_the_exact_erf_form_in_float32():
    x = np.concatenate([np.linspace(-10, 10, 2001), RngKey(3).normal((999,), 2.0, np.float64)]).astype(np.float32)
    erf = np.array([math.erf(v) for v in (x * np.float32(1 / math.sqrt(2))).tolist()], np.float32)
    want = x * (np.float32(0.5) * (np.float32(1) + erf))
    got = ops.gelu(x).data
    assert got.dtype == np.float32
    assert np.array_equal(got, want)


def test_vectorised_erf_matches_math_erf_bit_for_bit_in_float32():
    # 8 M values, 2 M at each scale; math.erf is rounded to float32 in chunks
    # so that its Python floats stay small
    mismatches = 0
    for i, scale in enumerate((0.01, 0.1, 1.0, 10.0)):
        x = RngKey(11, ("erf", i)).normal((2_000_000,), scale, np.float32)
        got = ops._erf(x)
        assert got.dtype == np.float32
        for lo in range(0, x.size, 500_000):
            chunk = x[lo : lo + 500_000]
            want = np.fromiter(map(math.erf, chunk.tolist()), np.float64, chunk.size).astype(np.float32)
            mismatches += int(np.count_nonzero(got[lo : lo + 500_000] != want))
    assert mismatches == 0


def test_vectorised_erf_special_values():
    for dtype in (np.float32, np.float64):
        got = ops._erf(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype))
        assert got.dtype == dtype and np.isnan(got[0])
        assert got[1:].tolist() == [1.0, -1.0, 0.0, -0.0]
        assert list(np.signbit(got[1:])) == [False, True, False, True]
    # each branch edge, from both sides, and the float32 extremes
    edges = np.array([0.46875, 4.0, 26.543], np.float32)
    x = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 30), [1e-30, -1e-45, 3e38, -5.0]])
    x = np.concatenate([x, -x]).astype(np.float32)
    want = np.array([math.erf(v) for v in x.tolist()]).astype(np.float32)
    assert np.array_equal(ops._erf(x), want)


def test_gradcheck_detects_corrupted_gradient():
    params, build = CASES["linear"](RngKey(1, ("gradcheck", "linear")))
    report = gradcheck(params, build, grad_transform=lambda name, g: g * 1.1)
    assert not report.passed
    # relative error of a 10% scaling is ~0.1 wherever |grad| >~ 1
    assert report.worst() == pytest.approx(0.1, rel=0.35)


def test_gradcheck_rejects_float32():
    params, build = CASES["linear"](RngKey(0, ("gradcheck", "linear")))
    with pytest.raises(ValueError, match="float64"):
        gradcheck(params.astype(np.float32), build)


@pytest.mark.parametrize("case_id", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_inventory_gradchecks(case_id, seed):
    report = gradcheck(*CASES[case_id](RngKey(seed, ("gradcheck", case_id))))
    assert report.passed, (case_id, report.failures)


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_zero_grad_no_decay_is_identity():
    params = ParamStore()
    params.add("w", np.array([1.0, -2.0, 3.0], dtype=np.float32))
    before = params["w"].data.copy()
    adamw_step(params, {"w": np.zeros(3, dtype=np.float32)}, OptimizerState(), lr=0.5, wd=0.0)
    np.testing.assert_array_equal(params["w"].data, before)


def test_adamw_single_step_hand_computed():
    # theta=1, g=1, step 1, lr=0.1, wd=0: m_hat=1, v_hat=1
    # theta' = 1 - 0.1 * 1/(sqrt(1)+1e-8) = 0.9 (up to the eps in the denom)
    params = ParamStore()
    params.add("w", np.array([1.0], dtype=np.float64))
    adamw_step(params, {"w": np.array([1.0])}, OptimizerState(), lr=0.1, wd=0.0)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert params["w"].data[0] == pytest.approx(expected, abs=1e-9)
    assert params["w"].data[0] == pytest.approx(0.9, abs=1e-8)


def test_adamw_pure_decay_path():
    params = ParamStore()
    params.add("w", np.array([1.0], dtype=np.float64))
    adamw_step(params, {"w": np.array([0.0])}, OptimizerState(), lr=0.1, wd=0.01)
    assert params["w"].data[0] == pytest.approx(0.999, abs=1e-12)


def test_adamw_wd_zero_is_bitwise_adam():
    # Manual Adam with the same inputs must agree bit for bit.
    rng = np.random.default_rng(3)
    theta0 = rng.normal(size=7).astype(np.float32)
    g = rng.normal(size=7).astype(np.float32)
    params = ParamStore()
    params.add("w", theta0.copy())
    state = OptimizerState()
    for _ in range(3):
        adamw_step(params, {"w": g}, state, lr=0.01, wd=0.0)

    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, 4):
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        theta -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_array_equal(params["w"].data, theta)


def test_adamw_frozen_untouched_and_counter():
    params = ParamStore()
    params.add("w", np.ones(4, dtype=np.float32))
    params.add("frozen", np.full(4, 7.0, dtype=np.float32)).requires_grad = False
    frozen_bytes = params["frozen"].data.tobytes()
    state = OptimizerState()
    for i in range(5):
        adamw_step(params, {"w": np.ones(4, dtype=np.float32)}, state, lr=0.1)
        assert state.step == i + 1
    assert params["frozen"].data.tobytes() == frozen_bytes


def test_adamw_shape_mismatch_errors():
    params = ParamStore()
    params.add("w", np.ones(4, dtype=np.float32))
    with pytest.raises(ValueError, match="shape"):
        adamw_step(params, {"w": np.ones(3, dtype=np.float32)}, OptimizerState(), lr=0.1)


def test_adamw_grads_must_cover_trainable_set():
    params = ParamStore()
    params.add("a", np.ones(2, dtype=np.float32))
    params.add("b", np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError, match="exactly the trainable set"):
        adamw_step(params, {"a": np.ones(2, dtype=np.float32)}, OptimizerState(), lr=0.1)


# ---------------------------------------------------------------------------
# LR schedule


def test_lr_schedule_endpoints():
    sched = LrSchedule(max_lr=1e-3, warmup_steps=1000, total_steps=10000)
    assert lr_at(0, sched) == 0.0
    assert lr_at(1000, sched) == pytest.approx(1e-3)
    assert lr_at(10000, sched) == pytest.approx(0.0, abs=1e-18)
    assert lr_at(10001, sched) == 0.0  # past the end


@given(st.integers(min_value=0, max_value=10000))
@settings(max_examples=200, deadline=None)
def test_lr_always_in_range(step):
    sched = LrSchedule(max_lr=1e-3, warmup_steps=1000, total_steps=10000)
    assert 0.0 <= lr_at(step, sched) <= 1e-3 + 1e-12


def test_lr_schedule_validation():
    with pytest.raises(ValueError):
        LrSchedule(max_lr=-1.0, warmup_steps=0, total_steps=10)
    with pytest.raises(ValueError):
        LrSchedule(max_lr=1.0, warmup_steps=10, total_steps=10)


# ---------------------------------------------------------------------------
# engine invariants


def test_forward_deterministic():
    key = RngKey(11, ("det",))
    x = Tensor(key.child("x").normal((4, 6)))
    w = Tensor(key.child("w").normal((6, 3)), requires_grad=True)
    y1 = ops.linear(x, w).data
    y2 = ops.linear(x, w).data
    np.testing.assert_array_equal(y1, y2)


def test_attention_rows_sum_to_one():
    key = RngKey(5, ("attn",))
    q = Tensor(key.child("q").normal((3, 10, 16)))
    k = Tensor(key.child("k").normal((3, 4, 16)))
    scores = ops.scale(ops.matmul(q, ops.transpose(k, (0, 2, 1))), 1.0 / 4.0)
    weights = ops.softmax(scores).data
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-5)


def test_dropout_preserves_expectation():
    key = RngKey(7, ("dropexp",))
    x = Tensor(np.ones((100, 100), dtype=np.float32))
    acc = np.zeros_like(x.data)
    n = 100  # 10^6 bernoulli draws total
    for i in range(n):
        acc += ops.dropout(x, 0.4, key.child(i)).data
    assert abs(acc.mean() / n - 1.0) < 0.02


def test_dropout_at_zero_rate_is_the_identity():
    x = Tensor(np.ones((5, 5), dtype=np.float32), requires_grad=True)
    assert ops.dropout(x, 0.0, RngKey(0)) is x


def test_no_grad_suppresses_graph():
    w = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    with no_grad():
        y = ops.matmul(Tensor(np.ones((2, 3), dtype=np.float32)), w)
    assert not y.requires_grad


def test_backward_clears_interior_grads_and_keeps_leaf_grads():
    key = RngKey(3, ("release",))
    x = Tensor(key.child("x").normal((4, 6)), requires_grad=True)
    w = Tensor(key.child("w").normal((6, 3)), requires_grad=True)
    hidden = ops.linear(x, w)
    loss = ops.mse_loss(ops.silu(hidden), np.zeros((4, 3), dtype=np.float32))
    loss.backward()
    assert hidden.grad is None
    assert x.grad is not None and x.grad.shape == x.shape
    assert w.grad is not None and w.grad.shape == w.shape
    assert loss.grad == 1.0


def test_backward_frees_each_activation_and_gradient_after_use():
    x = Tensor(np.full(1 << 18, 0.5, dtype=np.float32), requires_grad=True)  # 1 MB
    nbytes = x.data.nbytes
    tracemalloc.start()
    try:
        y = x
        for _ in range(10):  # 20 nodes, about 30 MB of activations and saved arrays
            y = ops.silu(ops.scale(y, 0.9))
        loss = ops.mse_loss(y, np.zeros_like(x.data))
        del y
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # kept to the end, the activation gradients would raise the peak by about 10 MB
    assert peak - start < 4 * nbytes
    assert x.grad is not None


def test_layer_norm_zero_variance_returns_shift():
    g = Tensor(np.full(8, 2.0, dtype=np.float32))
    b = Tensor(np.full(8, 0.5, dtype=np.float32))
    y = ops.layer_norm(Tensor(np.full((3, 8), 4.0, dtype=np.float32)), g, b)
    np.testing.assert_allclose(y.data, 0.5, atol=1e-6)


def _weighted_sum(y, w):
    """sum(y * w) as a 0-d node, built from ops the models run."""
    n = y.data.size
    return ops.reshape(ops.linear(ops.reshape(y, (1, n)), Tensor(w.reshape(n, 1))), ())


def _fold_results(build, arrays, up, grad, frozen=()):
    """Output, and with `grad` the gradient of every parent but the `frozen`
    ones (by index), of `build(*parents)`."""
    parents = [Tensor(a.copy(), requires_grad=i not in frozen) for i, a in enumerate(arrays)]
    if not grad:
        with no_grad():
            return [build(*parents).data]
    y = build(*parents)
    _weighted_sum(y, up).backward()
    return [y.data] + [p.grad for p in parents if p.requires_grad]


def _assert_bitwise(fused, plain):
    assert len(fused) == len(plain)
    for f, p in zip(fused, plain):
        assert f.dtype == p.dtype == np.float32
        assert f.shape == p.shape and f.tobytes() == p.tobytes()


@pytest.mark.parametrize("skip", ["own", "input"])
@pytest.mark.parametrize("mode", ["trainable", "frozen", "no_grad"])
def test_conv_norm_prologue_is_bitwise_the_two_ops(mode, skip):
    """conv2d's norm prologue gives the bits of silu(group_norm(x)) fed to a
    conv with the same epilogue, and every parent the same gradient: with the
    weight and bias trainable, frozen as under LoRA, and without a graph. The
    residual is its own tensor, or x itself, as in a U-Net resblock."""
    key = RngKey(31, ("conv_norm", skip))
    bsz, c = 3, 16
    arrays = [
        key.child("x").normal((bsz, 8, 8, c)),
        key.child("w").normal((3, 3, c, c), 0.3),
        key.child("b").normal((c,), 0.3),
        1.0 + key.child("g").normal((c,), 0.2),
        key.child("bta").normal((c,), 0.2),
        key.child("s").normal((bsz, c)),
    ] + ([key.child("h").normal((bsz, 8, 8, c))] if skip == "own" else [])
    up = key.child("up").normal((bsz, 8, 8, c))

    def fused(x, w, b, g, bta, s, h=None):
        return ops.conv2d(x, w, b, norm=(g, bta), shift=s, residual=x if h is None else h)

    def plain(x, w, b, g, bta, s, h=None):
        return ops.conv2d(ops.silu(ops.group_norm(x, g, bta)), w, b, shift=s, residual=x if h is None else h)

    grad, frozen = mode != "no_grad", (1, 2) if mode == "frozen" else ()
    _assert_bitwise(_fold_results(fused, arrays, up, grad, frozen), _fold_results(plain, arrays, up, grad, frozen))


@pytest.mark.parametrize("grad", [True, False])
def test_upsample_residual_is_bitwise_the_add(grad):
    key = RngKey(37, ("upsample_residual",))
    arrays = [key.child("x").normal((3, 4, 4, 8)), key.child("h").normal((3, 8, 8, 8))]
    up = key.child("up").normal((3, 8, 8, 8))
    zeros = Tensor(np.zeros((3, 8, 8, 8), np.float32))  # y + 0 is y for every y but -0, which normals never draw

    def fused(x, h):
        return ops.upsample_nearest2x(x, h)

    def plain(x, h):
        return ops.add(ops.upsample_nearest2x(x, zeros), h)

    _assert_bitwise(_fold_results(fused, arrays, up, grad), _fold_results(plain, arrays, up, grad))


@pytest.mark.parametrize("grad", [True, False])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_epilogue_is_bitwise_the_adds(stride, grad):
    """conv2d's in-place shift and residual give the bits, and every parent
    the gradient, of the three nodes they replace."""
    key = RngKey(33, ("conv_epilogue", str(stride)))
    bsz, cout = 3, 16
    oh = 8 // stride
    arrays = [
        key.child("x").normal((bsz, 8, 8, 8)),
        key.child("w").normal((3, 3, 8, cout), 0.3),
        key.child("b").normal((cout,), 0.3),
        key.child("s").normal((bsz, cout)),
        key.child("h").normal((bsz, oh, oh, cout)),
    ]
    up = key.child("up").normal((bsz, oh, oh, cout))

    def fused(x, w, b, s, h):
        return ops.conv2d(x, w, b, stride, shift=s, residual=h)

    def plain(x, w, b, s, h):
        return ops.add(h, ops.add(ops.conv2d(x, w, b, stride), ops.reshape(s, (bsz, 1, 1, cout))))

    _assert_bitwise(_fold_results(fused, arrays, up, grad), _fold_results(plain, arrays, up, grad))


@pytest.mark.parametrize("grad", [True, False])
def test_linear_residual_is_bitwise_the_add(grad):
    key = RngKey(35, ("linear_residual",))
    arrays = [
        key.child("x").normal((2, 5, 6)),
        key.child("w").normal((6, 7), 0.5),
        key.child("b").normal((7,), 0.5),
        key.child("h").normal((2, 5, 7)),
    ]
    up = key.child("up").normal((2, 5, 7))

    def fused(x, w, b, h):
        return ops.linear(x, w, b, residual=h)

    def plain(x, w, b, h):
        return ops.add(h, ops.linear(x, w, b))

    _assert_bitwise(_fold_results(fused, arrays, up, grad), _fold_results(plain, arrays, up, grad))


# ---------------------------------------------------------------------------
# convolution lowerings: the stride-1 tap-row GEMMs against the im2col reference

_CONV_TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _rel_err(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


def _columns(x, stride):
    """im2col columns (B, OH, OW, 3, 3C) of x, padded by np.pad."""
    oh, ow = (x.shape[1] - 1) // stride + 1, (x.shape[2] - 1) // stride + 1
    return ops._im2col_flat(np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))), stride, oh, ow)


def _anchor_rows(shape):
    """Anchor rows the tap-row GEMMs compute for a (B, H, W, C) input."""
    b, h, w, _ = shape
    return b * (h + 2) * w - 2 * w


def _block_rows(n, block):
    """Block size giving `block`: one block larger than n, exactly n, or
    several blocks whose last one is partial."""
    if block == "default":
        return ops._TAP_BLOCK_ROWS
    if block == "below":
        return n + 1
    if block == "equal":
        return n
    return next(r for r in (64, 63, 7, 5) if r < n and n % r)


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float64,) * 2, (np.float32,) * 2, (np.float32, np.float64)])
@pytest.mark.parametrize(
    "shape, cout, block",
    [
        ((2, 17, 23, 16), 3, "below"),
        ((2, 17, 23, 16), 3, "equal"),
        ((2, 17, 23, 16), 3, "remainder"),
        ((1, 9, 5, 7), 4, "remainder"),
        ((2, 33, 31, 16), 8, "default"),
        ((3, 1, 7, 5), 3, "remainder"),  # H = 1
        ((2, 6, 1, 4), 3, "remainder"),  # W = 1
    ],
)
def test_conv_shifted_matches_im2col(shape, cout, block, x_dtype, w_dtype, monkeypatch):
    """Forward, input gradient and weight gradient of the tap-row lowering
    (three GEMMs over row windows shifted by 0, W and 2W) equal im2col's."""
    n = _anchor_rows(shape)
    rows = _block_rows(n, block)
    assert n % rows or block == "equal"
    monkeypatch.setattr(ops, "_TAP_BLOCK_ROWS", rows)
    key = RngKey(21, ("conv_shifted", str(shape)))
    x = key.child("x").normal(shape, 1.0, x_dtype)
    w = key.child("w").normal((3, 3, shape[3], cout), 0.3, w_dtype)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    y = ops.conv2d(xt, wt)
    ref, col = ops._conv_gemm(x, w, 1), _columns(x, 1)
    dtype = np.result_type(x, w)
    assert y.dtype == ref.dtype == dtype
    assert y.shape == ref.shape == shape[:3] + (cout,)
    g = key.child("g").normal(ref.shape, 1.0, dtype)
    _weighted_sum(y, g).backward()
    w_rot = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    dx_ref = ops._conv_gemm(g, w_rot, 1)
    dw_ref = (col.reshape(-1, 9 * shape[3]).T @ g.reshape(-1, cout)).reshape(w.shape)
    for got, want in ((y.data, ref), (xt.grad, dx_ref), (wt.grad, dw_ref)):
        assert got.shape == want.shape
        assert _rel_err(got, want) <= _CONV_TOL[dtype.type]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "shape, cout, stride, w_grad",
    # Each id ends in the number of shifted-kernel calls the case made under
    # the earlier two-lowering rule, so a case keeps its name across releases.
    [
        pytest.param((1, 16, 16, 16), 16, 1, False, id="shape0-16-1-False-2"),  # frozen weight: forward and input grad
        pytest.param((2, 17, 23, 16), 24, 1, False, id="shape1-24-1-False-2"),
        pytest.param((1, 16, 16, 16), 16, 1, True, id="shape2-16-1-True-1"),  # trainable weight: dW from the kept tap rows
        pytest.param((1, 16, 16, 5), 16, 1, False, id="shape3-16-1-False-1"),  # thin input, as conv_in
        pytest.param((1, 16, 16, 16), 3, 1, False, id="shape4-3-1-False-1"),  # g has 3 channels, as out/conv
        pytest.param((1, 8, 8, 16), 16, 1, False, id="shape5-16-1-False-0"),  # 8x8 maps
        pytest.param((1, 32, 32, 16), 16, 2, False, id="shape6-16-2-False-0"),  # stride 2: im2col
        pytest.param((1, 32, 32, 16), 16, 2, True, id="shape7-16-2-True-0"),
    ],
)
def test_conv2d_lowering_rule_and_input_grad(shape, cout, stride, w_grad, dtype, monkeypatch):
    """Stride 1 never builds an im2col matrix, whether or not the weight
    trains; stride 2 builds one per forward, and a trainable weight's
    backward builds it again for dW."""
    calls = []
    im2col = ops._im2col_flat
    monkeypatch.setattr(ops, "_im2col_flat", lambda xp, *a: calls.append(xp.shape) or im2col(xp, *a))
    key = RngKey(23, ("conv_rule", str(shape)))
    xd = key.child("x").normal(shape, 1.0, dtype)
    wd = key.child("w").normal((3, 3, shape[3], cout), 0.3, dtype)
    x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=w_grad)
    y = ops.conv2d(x, w, stride=stride)
    g = key.child("g").normal(y.shape, 1.0, dtype)
    _weighted_sum(y, g).backward()
    assert len(calls) == (stride == 2) * (1 + w_grad)
    ref, col = ops._conv_gemm(xd, wd, stride), _columns(xd, stride)
    assert y.data.dtype == ref.dtype and _rel_err(y.data, ref) <= _CONV_TOL[dtype]
    if w_grad:
        dw_ref = (col.reshape(-1, 9 * shape[3]).T @ g.reshape(-1, cout)).reshape(wd.shape)
        assert w.grad.dtype == dtype and _rel_err(w.grad, dw_ref) <= _CONV_TOL[dtype]
    if stride == 1:
        w_rot = np.ascontiguousarray(wd[::-1, ::-1].transpose(0, 1, 3, 2))
        dx_ref = ops._conv_gemm(g, w_rot, 1)
        assert x.grad.dtype == dx_ref.dtype and _rel_err(x.grad, dx_ref) <= _CONV_TOL[dtype]


@pytest.mark.parametrize("stride", [1, 2])
def test_trainable_conv_keeps_no_lowered_input(stride):
    """A trainable conv's backward holds no array with more than Cin values
    per input pixel: neither tap rows (3*Cin) nor im2col columns (9*Cin / 4
    at stride 2), only x, which the graph keeps as the conv's parent."""
    shape = (2, 8, 8, 4)
    key = RngKey(27, ("conv_keeps", stride))
    x = Tensor(key.child("x").normal(shape), requires_grad=True)
    w = Tensor(key.child("w").normal((3, 3, 4, 6), 0.3), requires_grad=True)
    y = ops.conv2d(x, w, Tensor(np.zeros(6), requires_grad=True), stride)
    held = [c.cell_contents for c in y._backward_fn.__closure__]
    wide = [a.shape for a in held if isinstance(a, np.ndarray) and a.size > x.size]
    assert not wide, f"backward keeps {wide} for a {shape} input"


def _allocator_fills(monkeypatch, value):
    """Make np.empty return arrays filled with `value`, as reused memory may be."""
    empty = np.empty

    def filled(shape, dtype=float, order="C"):
        a = empty(shape, dtype, order)
        a.fill(value)
        return a

    monkeypatch.setattr(np, "empty", filled)


def _np_pad_tap_rows(a):
    """Tap-row matrix (B, H+2, W, 3C) of a, built from np.pad."""
    ap = np.pad(a, ((0, 0), (1, 1), (1, 1), (0, 0)))
    return np.concatenate([ap[:, :, kj : kj + a.shape[2]] for kj in range(3)], axis=3)


@pytest.mark.parametrize("lowering", ["gemm-s1", "gemm-s2", "shifted"])
def test_conv_pads_with_zeros_whatever_the_allocator_returns(lowering, monkeypatch):
    """The "shifted" case is the tap-row lowering in blocks of 10 anchor rows,
    so one scratch serves 14 blocks across both images and block edges fall
    inside pixel rows: the full tap rows, the forward streamed through the
    scratch (though x is thin enough for whole-batch tap rows), the forward
    read from kept tap rows, and dW. Its reference runs the same GEMMs on tap
    rows built by np.pad."""
    shape = (2, 9, 7, 5)
    key = RngKey(25, ("conv_pad", lowering))
    x = key.child("x").normal(shape)
    w = key.child("w").normal((3, 3, 5, 4), 0.3)
    if lowering == "shifted":
        g = key.child("g").normal(shape[:3] + (4,))
        monkeypatch.setattr(ops, "_TAP_BLOCK_ROWS", 10)
        monkeypatch.setattr(ops, "_THIN_TAP_FLOATS", 0)

        def conv(x, w):
            rows, grows = ops._tap_rows(x), ops._tap_rows(g)
            parts = [rows, ops._conv_taps(x, w), ops._conv_taps(x, w, rows), ops._conv_taps_wgrad(x, grows)]
            return np.concatenate([a.ravel() for a in parts])

        rows_ref, fwd_ref = _np_pad_tap_rows(x), ops._conv_taps(x, w, _np_pad_tap_rows(x))
        parts = [rows_ref, fwd_ref, fwd_ref, ops._conv_taps_wgrad(x, _np_pad_tap_rows(g))]
        ref = np.concatenate([a.ravel() for a in parts])
        assert np.isfinite(ref).all()
    else:
        stride = int(lowering[-1])

        def conv(x, w):
            return ops._conv_gemm(x, w, stride)

        col = _columns(x, stride)
        ref = (col.reshape(-1, 45) @ w.reshape(45, 4)).reshape(col.shape[:3] + (4,))
    _allocator_fills(monkeypatch, np.nan)
    y = conv(x, w)
    assert y.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(2, 9, 7, 5), (3, 1, 7, 5), (2, 6, 1, 4), (2, 32, 32, 5)])
def test_thin_conv_builds_the_streamed_bits_from_whole_batch_tap_rows(shape, monkeypatch):
    """A stride-1 conv of an input with tap rows at most `_THIN_TAP_FLOATS`
    wide, as conv_in's, builds them once for the whole batch, and its output
    and input gradient (g is thin too) equal the block-streamed lowering's
    bit for bit, at blocks of 10 anchor rows and at the default size."""
    key = RngKey(27, ("conv_thin", str(shape)))
    x = key.child("x").normal(shape, 1.0, np.float32)
    w = key.child("w").normal((3, 3, shape[3], 5), 0.3, np.float32)
    g = key.child("g").normal(shape[:3] + (5,), 1.0, np.float32)
    assert 3 * max(shape[3], 5) <= ops._THIN_TAP_FLOATS
    tap_rows_into, built = ops._tap_rows_into, []

    def counted(dst, x, q0, q1):
        built.append((q0, q1, x.shape[0] * (x.shape[1] + 2)))
        tap_rows_into(dst, x, q0, q1)

    def conv():
        xt = Tensor(x, requires_grad=True)
        _weighted_sum(ops.conv2d(xt, Tensor(w)), g).backward()
        return ops._conv_taps(x, w).tobytes(), xt.grad.tobytes()

    monkeypatch.setattr(ops, "_tap_rows_into", counted)
    for block in (10, ops._TAP_BLOCK_ROWS):
        monkeypatch.setattr(ops, "_TAP_BLOCK_ROWS", block)
        built.clear()
        thin = conv()
        assert len(built) == 3 and all(q0 == 0 and q1 == whole for q0, q1, whole in built)
        with monkeypatch.context() as streamed:
            streamed.setattr(ops, "_THIN_TAP_FLOATS", 0)
            assert conv() == thin


@pytest.mark.parametrize("w_grad", [False, True])
def test_stride1_conv_output_and_input_grad_own_contiguous_arrays(w_grad):
    """A stride-1 conv writes its valid anchors, epilogue included, into a
    new C-contiguous (B, H, W, Cout) array, and so does its input gradient:
    no view into a buffer with junk anchor rows between the images."""
    shape, cout = (3, 8, 8, 4), 6
    key = RngKey(29, ("conv_contiguous", w_grad))
    x = Tensor(key.child("x").normal(shape, 1.0, np.float32), requires_grad=True)
    w = Tensor(key.child("w").normal((3, 3, 4, cout), 0.3, np.float32), requires_grad=w_grad)
    shift = Tensor(key.child("s").normal((3, cout), 1.0, np.float32))
    h = Tensor(key.child("h").normal(shape[:3] + (cout,), 1.0, np.float32))
    y = ops.conv2d(x, w, Tensor(np.ones(cout, np.float32)), shift=shift, residual=h)
    assert y.data.flags.c_contiguous and y.data.base is None
    _weighted_sum(y, key.child("g").normal(y.shape, 1.0, np.float32)).backward()
    assert x.grad.shape == shape and x.grad.flags.c_contiguous and x.grad.base is None


@pytest.mark.parametrize("block", [pytest.param(256, id="256-row-blocks"), pytest.param(None, id="default-block")])
def test_stride1_conv_holds_one_block_of_tap_rows(monkeypatch, block):
    """A no-grad stride-1 conv allocates one block's scratch (tap rows with
    their 2W-row tail, accumulator and product) and its output, not a padded
    copy of x and the tap rows of the whole batch. Blocks of 256 anchor rows
    make five of them here. At the default size the conv is one block, as
    every 8x8 U-Net conv at B=16 is: its scratch is then the whole batch's
    tap rows, accumulator and product, as at the parent, and it frees the tap
    rows and product before its output exists, so the peak is no higher."""
    shape, cout = (4, 16, 16, 32), 32
    key = RngKey(31, ("conv_streams",))
    x = Tensor(key.child("x").normal(shape, 1.0, np.float32))
    w = Tensor(key.child("w").normal((3, 3, 32, cout), 0.1, np.float32))
    b = Tensor(np.zeros(cout, np.float32))
    if block is not None:
        monkeypatch.setattr(ops, "_TAP_BLOCK_ROWS", block)
    bb, h, wd, c = shape
    n = bb * (h + 2) * wd - 2 * wd  # anchor rows
    m = min(ops._TAP_BLOCK_ROWS, n)
    scratch = 4 * (min(-(-m // wd) + 3, bb * (h + 2)) * wd * 3 * c + 2 * m * cout)
    tracemalloc.start()
    try:
        y = ops.conv2d(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if m < n:
        # whole-batch tap rows alone are 4*18*16*96*4 = 442 KB, x and y 128 KB
        # each, the scratch 178 KB; the parent peaked at 610 KB
        assert peak < scratch + x.data.nbytes + y.data.nbytes
    else:
        # the scratch is 712 KB and the parent peaked at 718 KB; holding the
        # output beside the scratch peaked at 875 KB
        assert peak < scratch + 8 * 1024
    assert y.data.tobytes() == ops._conv_taps(x.data, w.data, _np_pad_tap_rows(x.data), b.data).tobytes()


# ---------------------------------------------------------------------------
# RNG


def test_rng_named_streams_are_stable_and_distinct():
    a = RngKey(42).child("noise", 3).normal((4,))
    b = RngKey(42).child("noise", 3).normal((4,))
    c = RngKey(42).child("noise", 4).normal((4,))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_independent_of_sibling_consumption():
    root = RngKey(9)
    _ = root.child("a").normal((1000,))
    direct = root.child("b").normal((8,))
    np.testing.assert_array_equal(direct, RngKey(9).child("b").normal((8,)))


# ---------------------------------------------------------------------------
# checkpoint container


def test_tensor_container_roundtrip(tmp_path):
    for arr in [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(8, dtype=np.float64).reshape(2, 2, 2),
        np.arange(5, dtype=np.int32),
    ]:
        p = tmp_path / "t.bin"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    key = RngKey(3, ("ckpt",))
    params = ParamStore()
    params.add("brain/subject/s01/w", key.child(0).normal((10, 4)))
    params.add("unet/conv_in/w", key.child(1).normal((3, 3, 3, 8)))
    params.add("frozen/x", key.child(2).normal((5,)))
    extra = {"step": 123, "seed": 42}
    save_checkpoint(tmp_path / "ck", params, extra)
    loaded, extra2 = load_checkpoint(tmp_path / "ck")
    assert extra2 == extra
    assert loaded.names() == params.names()
    for n in params.names():
        np.testing.assert_array_equal(loaded[n].data, params[n].data)


def test_corrupt_container_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a tensor container"):
        read_tensor(p)


def _valid_blob(tmp_path):
    p = tmp_path / "valid.bin"
    write_tensor(p, np.arange(6, dtype=np.float32).reshape(2, 3))
    return p.read_bytes()


_HEADER_BYTES = 4 + 8 + 4 + 4 * 2  # magic, version and dtype code, rank, two dims


@settings(max_examples=80, deadline=None)
@given(at=st.integers(0, _HEADER_BYTES - 1), flip=st.integers(1, 255))
@example(at=12, flip=10)  # rank 2 -> 8: the payload is read as dims, one of them 0
def test_container_with_a_flipped_header_byte_reads_or_names_the_file(tmp_path_factory, at, flip):
    tmp_path = tmp_path_factory.mktemp("blob")
    blob = bytearray(_valid_blob(tmp_path))
    blob[at] ^= flip
    p = tmp_path / "flipped.bin"
    p.write_bytes(bytes(blob))
    try:
        arr = read_tensor(p)
    except ValueError as e:
        assert str(p) in str(e)
    else:
        # only a flip that leaves the header consistent (float32 -> int32) reads
        assert arr.nbytes == len(blob) - _HEADER_BYTES


def test_container_truncated_at_every_offset_names_the_file(tmp_path):
    blob = _valid_blob(tmp_path)
    p = tmp_path / "cut.bin"
    for cut in range(len(blob)):
        p.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=re.escape(str(p))):
            read_tensor(p)


def _checkpoint_manifest(tmp_path) -> str:
    params = ParamStore()
    params.add("unet/w", np.arange(6, dtype=np.float32).reshape(2, 3))
    save_checkpoint(tmp_path / "ck", params, {"step": 1})
    return (tmp_path / "ck" / "manifest.json").read_text()


_CHECKPOINT_KEYS = [(None, k) for k in ("schema_version", "tensors", "extra")] + [
    ("tensors", k) for k in ("name", "file", "shape")
]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_checkpoint_manifest_corrupt_names_the_file(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("ckjson")
    text = data.draw(corrupt_manifests(_checkpoint_manifest(tmp_path), _CHECKPOINT_KEYS))
    (tmp_path / "ck" / "manifest.json").write_text(text)
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path / "ck")
    assert str(tmp_path / "ck") in str(err.value)


def test_checkpoint_manifest_records_no_trainable_flag_and_older_flags_load(tmp_path):
    doc = json.loads(_checkpoint_manifest(tmp_path))
    assert all("trainable" not in e for e in doc["tensors"])
    # manifests written before each training phase decided what trains
    # recorded a flag per tensor; loading ignores it
    for flag in (True, False):
        doc["tensors"][0]["trainable"] = flag
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(doc))
        loaded, extra = load_checkpoint(tmp_path / "ck")
        assert extra == {"step": 1} and loaded.names() == ["unet/w"]
        np.testing.assert_array_equal(loaded["unet/w"].data, np.arange(6, dtype=np.float32).reshape(2, 3))


def test_checkpoint_blob_of_another_shape_names_the_file(tmp_path):
    doc = json.loads(_checkpoint_manifest(tmp_path))
    doc["tensors"][0]["shape"] = [3, 2]
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / "ck" / "unet__w.bin"))):
        load_checkpoint(tmp_path / "ck")


def test_container_unknown_dtype_code_names_the_file(tmp_path):
    blob = bytearray(_valid_blob(tmp_path))
    blob[8] = 7
    p = tmp_path / "code.bin"
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unknown dtype code 7"):
        read_tensor(p)
