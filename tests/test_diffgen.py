import tracemalloc

import numpy as np
import pytest
from gradcheck import SMALL_CONFIG

from bold2img.diffgen import (
    LORA_RANK,
    UNetConfig,
    add_lora_params,
    bicubic_cdf,
    bicubic_transform,
    cfg_combine,
    cfg_predictor,
    create_lora_adapters,
    ddim_indices,
    ddim_sample,
    diffusion_loss,
    init_null_tokens,
    init_unet,
    lora_linear,
    make_schedule,
    offset_noise,
    q_sample,
    sample_timestep_bicubic,
    unet_forward,
    v_target,
)
from bold2img.diffgen.unet import NonFiniteActivation
from bold2img.substrate import ParamStore, RngKey, Tensor, no_grad
from bold2img.trainer import make_noise_predictor

SCHED = make_schedule()


# ---------------------------------------------------------------------------
# schedule


def test_schedule_first_alpha_bar():
    assert SCHED.alpha_bars[0] == pytest.approx(1.0 - 1e-4)


def test_schedule_strictly_decreasing():
    assert np.all(np.diff(SCHED.alpha_bars) < 0)


def test_schedule_final_alpha_bar_small():
    # independent oracle: direct cumulative product
    direct = np.prod(1.0 - np.linspace(1e-4, 0.02, 1000))
    assert SCHED.alpha_bars[-1] == pytest.approx(direct, rel=1e-10)
    assert SCHED.alpha_bars[-1] < 0.01


def test_schedule_validation():
    # too few steps for the fixed betas to reach pure noise (train.unet.t_max is settable)
    with pytest.raises(ValueError, match="below 0.01"):
        make_schedule(50)


def test_q_sample_near_identity_at_zero():
    key = RngKey(0, ("qs",))
    x0 = key.child("x").normal((2, 8, 8, 3))
    eps = key.child("e").normal((2, 8, 8, 3))
    xt = q_sample(x0, 0, eps, SCHED)
    np.testing.assert_allclose(xt, x0, atol=0.05)


def test_q_sample_near_noise_at_end():
    key = RngKey(1, ("qe",))
    x0 = key.child("x").normal((4, 8, 8, 3))
    eps = key.child("e").normal((4, 8, 8, 3))
    xt = q_sample(x0, SCHED.t_max - 1, eps, SCHED)
    assert np.abs(xt - eps).max() / np.abs(eps).max() < 0.1


def test_q_sample_zero_image_exact():
    key = RngKey(2, ("qz",))
    eps = key.child("e").normal((1, 8, 8, 3))
    for t in [10, 500, 999]:
        xt = q_sample(np.zeros_like(eps), t, eps, SCHED)
        np.testing.assert_array_equal(xt, (np.sqrt(1.0 - SCHED.alpha_bars[t]) * eps).astype(np.float32))


# ---------------------------------------------------------------------------
# offset noise


def test_offset_noise_lambda_zero_unit_variance():
    eps = offset_noise(RngKey(3, ("on0",)), (100, 8, 8, 3), lam=0.0)
    assert abs(eps.var() - 1.0) < 0.02


def test_offset_noise_variance_inflated():
    # 10^6 pixel draws: per-pixel variance is 1 + lambda^2 within 1%
    eps = offset_noise(RngKey(4, ("on1",)), (124, 52, 52, 3), lam=0.1)
    assert eps.size > 1_000_000
    assert abs(eps.var() - 1.01) < 0.01 * 1.01


def test_offset_noise_spatial_mean_variance():
    # spatial mean per (draw, channel) has variance lambda^2 + 1/(H*W)
    lam, h = 0.3, 16
    means = []
    for i in range(4000):
        eps = offset_noise(RngKey(5, ("on2", i)), (1, h, h, 2), lam=lam)
        means.append(eps.mean(axis=(1, 2)))
    v = np.asarray(means).var()
    expected = lam**2 + 1.0 / (h * h)
    assert abs(v - expected) / expected < 0.1


# ---------------------------------------------------------------------------
# bicubic timestep sampling


def test_bicubic_transform_boundaries():
    assert bicubic_transform(1.0, 1000) == 0
    assert bicubic_transform(0.0, 1000) == 999
    assert bicubic_transform(1e-9, 1000) == 999


def test_bicubic_cdf_matches_empirical():
    t = sample_timestep_bicubic(RngKey(6, ("bc",)), 1000, 1_000_000)
    xs = np.arange(1000)
    counts = np.bincount(t, minlength=1000)
    empirical = np.cumsum(counts) / t.size
    sup = np.abs(empirical - bicubic_cdf(xs, 1000)).max()
    assert sup < 0.01


def test_bicubic_concentrates_on_high_noise():
    t = sample_timestep_bicubic(RngKey(7, ("bh",)), 1000, 10_000)
    assert (t > 500).mean() > 0.7


# ---------------------------------------------------------------------------
# LoRA


def test_lora_zero_b_is_identity_on_weight():
    key = RngKey(8, ("lz",))
    store = ParamStore()
    store.add("w", key.child("w").normal((4, 5), 1.0, np.float64))
    store.add("b", key.child("b").normal((5,), 1.0, np.float64))
    x = Tensor(key.child("x").normal((3, 4), 1.0, np.float64))
    plain = lora_linear(x, store, "w", "b", "site", "q")
    add_lora_params(store, key, "site", "q", 4, 5)
    adapted = lora_linear(x, store, "w", "b", "site", "q")
    np.testing.assert_array_equal(adapted.data, plain.data)


def test_lora_scale_is_one_at_rank4_alpha4():
    # alpha = r, so with W = 0 and zero bias the output is exactly the unscaled
    # low-rank path, applied as the merged weight 0 + A B
    assert LORA_RANK == 4
    key = RngKey(8, ("ls",))
    store = ParamStore()
    store.add("w", np.zeros((3, 2)))
    store.add("b", np.zeros(2))
    a = store.add("lora/site/q/a", key.child("a").normal((3, LORA_RANK), 1.0, np.float64)).data
    b = store.add("lora/site/q/b", key.child("b").normal((LORA_RANK, 2), 1.0, np.float64)).data
    x = key.child("x").normal((4, 3), 1.0, np.float64)
    out = lora_linear(Tensor(x), store, "w", "b", "site", "q")
    np.testing.assert_array_equal(out.data, x @ (a @ b))


def test_lora_graph_holds_no_array_with_a_row_per_input_row():
    # the merged weight W + A B is (d_in, d_out): besides the input and the
    # output, nothing the graph keeps for the backward grows with the rows
    n, d_in, d_out = 96, 8, 6
    key = RngKey(8, ("lm",))
    store = ParamStore()
    store.add("w", key.child("w").normal((d_in, d_out)))
    store.add("b", key.child("b").normal((d_out,)))
    add_lora_params(store, key, "site", "q", d_in, d_out)
    x = Tensor(key.child("x").normal((n, d_in)), requires_grad=True)
    out = lora_linear(x, store, "w", "b", "site", "q")
    seen, stack, tall = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node is not x and node is not out and node.ndim and node.shape[0] == n:
                tall.append(node.shape)
            stack.extend(node._parents)
    assert out.requires_grad and len(seen) > 2
    assert tall == []


def test_lora_hand_example():
    # y = x (W + A B) with W = I, A = e1, B = e1^T at rank 1
    store = ParamStore()
    store.add("w", np.eye(2))
    store.add("b", np.zeros(2))
    store.add("lora/site/q/a", np.array([[1.0], [0.0]]))
    store.add("lora/site/q/b", np.array([[1.0, 0.0]]))
    out = lora_linear(Tensor(np.array([[1.0, 1.0]])), store, "w", "b", "site", "q")
    np.testing.assert_array_equal(out.data, [[2.0, 1.0]])


# ---------------------------------------------------------------------------
# U-Net


@pytest.fixture(scope="module")
def small_unet():
    key = RngKey(9, ("unet",))
    store = init_unet(SMALL_CONFIG, key.child("init"))
    init_null_tokens(SMALL_CONFIG, key.child("null"), store)
    return store


def test_unet_output_shape(small_unet):
    x = RngKey(10).normal((2, 8, 8, 3))
    tokens = Tensor(RngKey(11).normal((2, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
    out = unet_forward(x, np.array([3, 40]), tokens, small_unet, SMALL_CONFIG)
    assert out.shape == x.shape


# the shard below leaves 39.09 MB with the norm and SiLU folded into each
# normed conv and the skips into the upsampling; 51.60 MB when the seven SiLU
# outputs and the two upsampled copies stayed in the graph
DESK_SHARD_GRAPH_MB = 40.0


def test_desk_shard_graph_keeps_no_silu_output():
    """A 16-row shard forward of the desk U-Net, every entry trained, leaves
    at most DESK_SHARD_GRAPH_MB live under tracemalloc: each normed conv keeps
    its input and sigmoid, not the SiLU output it rebuilds in its backward."""
    config = UNetConfig()
    key = RngKey(14, ("graph",))
    store = init_unet(config, key.child("init"))
    x = key.child("x").normal((16, config.resolution, config.resolution, 3))
    tokens = Tensor(key.child("tk").normal((16, config.tokens, config.token_dim)))
    t = np.arange(16) * 61 % config.t_max
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = unet_forward(x, t, tokens, store, config)
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert out.requires_grad and store.trainable_names() == store.names()
    assert live / 1e6 <= DESK_SHARD_GRAPH_MB


def _signal_copy(store, key):
    """A copy of `store` (the shared fixture keeps no adapters) whose
    zero-initialized output conv is given weights, so outputs carry signal."""
    out = store.astype(np.float32)
    out["unet/out/conv/w"].data[:] = key.child("outw").normal(out["unet/out/conv/w"].shape, 0.1)
    return out


def test_unet_fresh_adapters_equal_adapter_free(small_unet):
    key = RngKey(12, ("fa",))
    store = _signal_copy(small_unet, key)
    x = key.child("x").normal((2, 8, 8, 3))
    tokens = Tensor(key.child("tk").normal((2, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
    t = np.array([5, 17])
    plain = unet_forward(x, t, tokens, store, SMALL_CONFIG)
    create_lora_adapters(SMALL_CONFIG, key, store)
    adapted = unet_forward(x, t, tokens, store, SMALL_CONFIG)
    assert np.abs(plain.data).max() > 0
    assert np.array_equal(plain.data, adapted.data)


def test_unet_runs_adapters_exactly_when_stored(small_unet):
    key = RngKey(13, ("ra",))
    store = _signal_copy(small_unet, key)
    x = key.child("x").normal((2, 8, 8, 3))
    tokens = Tensor(key.child("tk").normal((2, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
    t = np.array([5, 17])
    plain = unet_forward(x, t, tokens, store, SMALL_CONFIG).data
    create_lora_adapters(SMALL_CONFIG, key, store)
    for name in store.names():
        if name.startswith("lora/") and name.endswith("/b"):
            store[name].data[:] = key.child(name).normal(store[name].shape, 0.1)
    adapted = unet_forward(x, t, tokens, store, SMALL_CONFIG).data
    assert not np.array_equal(adapted, plain)


def test_unet_rejects_bad_timestep(small_unet):
    x = np.zeros((1, 8, 8, 3), dtype=np.float32)
    tokens = Tensor(np.zeros((1, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim), dtype=np.float32))
    with pytest.raises(ValueError, match="timestep"):
        unet_forward(x, np.array([SMALL_CONFIG.t_max]), tokens, small_unet, SMALL_CONFIG)


@pytest.mark.parametrize("n_tokens", [0, 3, 5])
def test_unet_rejects_token_batch_not_a_multiple(small_unet, n_tokens):
    x = np.zeros((2, 8, 8, 3), dtype=np.float32)
    tokens = Tensor(np.zeros((n_tokens, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim), dtype=np.float32))
    with pytest.raises(ValueError, match="tokens shape"):
        unet_forward(x, np.array([3, 4]), tokens, small_unet, SMALL_CONFIG)


@pytest.mark.parametrize("b", [1, 3])
def test_shared_prefix_cfg_call_is_bitwise_the_doubled_batch(b):
    key = RngKey(19, ("prefix", b))
    store = init_unet(SMALL_CONFIG, key.child("init"))
    create_lora_adapters(SMALL_CONFIG, key.child("lora"), store)
    for name in store.names():
        if name.startswith("lora/") and name.endswith("/b"):
            store[name].data[:] = key.child("loraB", name).normal(store[name].shape, 0.1)
    store["unet/out/conv/w"].data[:] = key.child("outw").normal(store["unet/out/conv/w"].shape, 0.1)
    unet_call = make_noise_predictor(store, SMALL_CONFIG, SCHED)
    x = key.child("x").normal((b, 8, 8, 3))
    t = np.arange(1, b + 1) * 97
    both = key.child("tk").normal((2 * b, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim))
    with no_grad():
        shared = unet_call(x, t, both)
        doubled = unet_call(np.concatenate([x, x]), np.concatenate([t, t]), both)
    assert shared.shape == (2 * b, 8, 8, 3)
    assert shared.tobytes() == doubled.tobytes()


def test_unet_nonfinite_names_block(small_unet):
    x = np.full((1, 8, 8, 3), np.nan, dtype=np.float32)
    tokens = Tensor(np.zeros((1, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim), dtype=np.float32))
    with pytest.raises(NonFiniteActivation, match="block"):
        unet_forward(x, np.array([3]), tokens, small_unet, SMALL_CONFIG)


# ---------------------------------------------------------------------------
# CFG + DDIM


def test_cfg_identities():
    key = RngKey(13, ("cfg",))
    c = key.child("c").normal((2, 4, 4, 3))
    u = key.child("u").normal((2, 4, 4, 3))
    assert cfg_combine(c, u, 1.0) is c
    assert cfg_combine(c, u, 0.0) is u
    np.testing.assert_allclose(cfg_combine(np.ones(3), np.zeros(3), 3.0), 3.0)


def test_cfg_formula_affine_identity():
    key = RngKey(14, ("cfa",))
    c = key.child("c").normal((8,)).astype(np.float64)
    u = key.child("u").normal((8,)).astype(np.float64)
    s, s2 = 1.7, 2.3
    once = cfg_combine(cfg_combine(c, u, s), u, s2)
    direct = cfg_combine(c, u, s * s2)
    np.testing.assert_allclose(once, direct, rtol=1e-12)


def test_ddim_indices_cover_ends():
    idx = ddim_indices(1000, 20)
    assert idx[0] == 999 and idx[-1] == 0
    assert np.all(np.diff(idx) < 0)


def test_ddim_first_step_inverts_q_sample():
    key = RngKey(15, ("inv",))
    x0 = key.child("x").uniform((1, 8, 8, 3))
    eps = key.child("e").normal((1, 8, 8, 3))
    x_t = q_sample(x0, SCHED.t_max - 1, eps, SCHED)
    seen = {}

    def oracle(x, t):
        seen["x0_hat"] = (x - np.sqrt(1 - SCHED.alpha_bars[t[0]]) * eps) / np.sqrt(SCHED.alpha_bars[t[0]])
        return eps

    ddim_sample(oracle, SCHED, x_t, steps=5)
    np.testing.assert_allclose(seen["x0_hat"], x0, atol=1e-4)


def test_ddim_full_schedule_oracle_reconstructs():
    key = RngKey(16, ("full",))
    x0 = key.child("x").uniform((1, 8, 8, 3))
    eps = key.child("e").normal((1, 8, 8, 3))
    x_t = q_sample(x0, SCHED.t_max - 1, eps, SCHED)
    out = ddim_sample(lambda x, t: eps, SCHED, x_t, steps=SCHED.t_max)
    assert np.abs(out - x0).max() < 1e-3


def test_ddim_guidance_one_equals_conditional_only(small_unet):
    key = RngKey(17, ("g1",))
    tokens = key.child("tk").normal((2, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim))
    null = small_unet["cond/null_tokens"].data

    def unet_call(x, t, tk):
        return unet_forward(x, t, Tensor(tk), small_unet, SMALL_CONFIG).data

    start = key.child("s").normal((2, 8, 8, 3))
    a = ddim_sample(cfg_predictor(unet_call, tokens, null, guidance=1.0), SCHED, start, steps=5)
    b = ddim_sample(lambda x, t: unet_call(x, t, tokens), SCHED, start, steps=5)
    assert np.array_equal(a, b)


def test_ddim_deterministic(small_unet):
    key = RngKey(18, ("det",))
    tokens = key.child("tk").normal((1, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim))
    null = small_unet["cond/null_tokens"].data

    def unet_call(x, t, tk):
        return unet_forward(x, t, Tensor(tk), small_unet, SMALL_CONFIG).data

    predict = cfg_predictor(unet_call, tokens, null, guidance=3.0)
    start = key.child("s").normal((1, 8, 8, 3))
    a = ddim_sample(predict, SCHED, start, steps=20)
    b = ddim_sample(predict, SCHED, start, steps=20)
    assert a.tobytes() == b.tobytes()
    assert np.all(np.isfinite(a))


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_for_exact_predictor(small_unet):
    key = RngKey(19, ("l0",))
    x0 = key.child("x").uniform((4, 8, 8, 3))
    tokens = Tensor(key.child("tk").normal((4, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
    eps = offset_noise(key.child("loss", "eps"), x0.shape, 0.1)
    loss = diffusion_loss(
        x0, tokens, small_unet, SCHED, SMALL_CONFIG, key.child("loss"),
        predictor=lambda xt, t, tk: v_target(x0, t, eps, SCHED),
    )
    assert loss.item() == 0.0


def test_loss_v_parameterization_target():
    # the target is the velocity, not the injected noise: a predictor that
    # returns eps is scored against v, and its loss is exactly mse(eps, v)
    key = RngKey(22, ("lv",))
    x0 = key.child("x").uniform((4, 8, 8, 3))
    eps = offset_noise(key.child("loss", "eps"), x0.shape, 0.1)
    seen = {}

    def stub(xt, t, tk):
        seen["t"] = t
        return eps

    loss = diffusion_loss(
        x0, Tensor(np.zeros((4, 2, 4), dtype=np.float32)), None, SCHED, SMALL_CONFIG,
        key.child("loss"), predictor=stub,
    )
    v = v_target(x0, seen["t"], eps, SCHED)
    assert loss.item() == pytest.approx(float(np.mean((eps - v) ** 2)), rel=1e-5)
    assert loss.item() > 0.0


def test_loss_for_zero_predictor_matches_noise_power():
    # predictor 0 at x0 = 0: the loss is mean(v^2) = mean(abar_t * eps^2), and
    # offset noise has variance 1 + lambda^2, so its expectation is
    # E_t[abar_t] * (1 + lambda^2) with t from the bicubic sampler
    p_t = np.diff(bicubic_cdf(np.arange(SCHED.t_max), SCHED.t_max), prepend=0.0)
    mean_ab = p_t @ SCHED.alpha_bars
    sd_ab = np.sqrt(p_t @ SCHED.alpha_bars**2 - mean_ab**2)
    key = RngKey(20, ("lz",))
    b, calls = 512, 10
    x0 = np.zeros((b, 8, 8, 3), dtype=np.float32)
    tokens = Tensor(np.zeros((b, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim), dtype=np.float32))
    losses = [
        diffusion_loss(
            x0, tokens, None, SCHED, SMALL_CONFIG, key.child("loss", i),
            predictor=lambda xt, t, tk: np.zeros_like(xt),
        ).item()
        for i in range(calls)
    ]
    # the spread of abar over the sampled timesteps dominates the error
    assert np.mean(losses) == pytest.approx(mean_ab * 1.01, abs=4 * 1.01 * sd_ab / np.sqrt(b * calls))


def test_eps_from_v_roundtrip():
    from bold2img.diffgen import eps_from_v

    key = RngKey(23, ("vr",))
    x0 = key.child("x").uniform((2, 8, 8, 3))
    eps = key.child("e").normal((2, 8, 8, 3))
    for t in [np.array([3, 700]), np.array([999, 50])]:
        xt = q_sample(x0, t, eps, SCHED)
        v = v_target(x0, t, eps, SCHED)
        np.testing.assert_allclose(eps_from_v(xt, v, t, SCHED), eps, atol=1e-5)


def test_image_scaling_roundtrip():
    from bold2img.diffgen import diffusion_to_image, image_to_diffusion

    img = RngKey(24, ("sc",)).uniform((5, 8, 8, 3))
    np.testing.assert_allclose(diffusion_to_image(image_to_diffusion(img)), img, atol=1e-6)
    assert diffusion_to_image(np.full((1, 8, 8, 3), 9.0, dtype=np.float32)).max() == 1.0


def test_loss_nonnegative(small_unet):
    key = RngKey(21, ("ln",))
    x0 = key.child("x").uniform((2, 8, 8, 3))
    tokens = Tensor(key.child("tk").normal((2, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
    loss = diffusion_loss(x0, tokens, small_unet, SCHED, SMALL_CONFIG, key.child("loss"))
    assert loss.item() >= 0.0
