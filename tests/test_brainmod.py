import numpy as np
import pytest

from bold2img.brainmod import (
    AGG_IN,
    BrainModuleConfig,
    brain_forward_batch,
    init_brain_module,
)
from bold2img.substrate import RngKey


CFG = BrainModuleConfig(hidden=16, tokens=4, token_dim=8)


def test_init_shapes_per_subject():
    store = init_brain_module(CFG, {"a": 400, "b": 600}, 6, RngKey(0, ("init",)))
    assert store["brain/subject/a/w"].shape == (400, 16)
    assert store["brain/subject/b/w"].shape == (600, 16)
    assert store["brain/tstep/a/w"].shape == (6, 16, 16)
    assert store["brain/agg/w"].shape == (6,)
    np.testing.assert_allclose(store["brain/agg/w"].data, 1.0 / 6.0)


def test_init_deterministic():
    a = init_brain_module(CFG, {"s": 100}, 6, RngKey(5, ("d",)))
    b = init_brain_module(CFG, {"s": 100}, 6, RngKey(5, ("d",)))
    assert a.hash_of() == b.hash_of()


def test_init_fan_in_scaling():
    c = 500
    store = init_brain_module(BrainModuleConfig(hidden=20), {"s": c}, 6, RngKey(1, ("f",)))
    w = store["brain/subject/s/w"].data  # 10^4 draws
    assert w.size == 10_000
    assert abs(w.std() * np.sqrt(c) - 1.0) < 0.05


def test_zero_input_zero_biases_gives_zero_tokens():
    store = init_brain_module(CFG, {"s01": 30}, 6, RngKey(2, ("z",)))
    x = np.zeros((30, 6), dtype=np.float32)
    tokens = brain_forward_batch(x[None], store, CFG, "s01")
    np.testing.assert_allclose(tokens.data, 0.0, atol=1e-7)


def test_eval_mode_deterministic():
    store = init_brain_module(CFG, {"s01": 30}, 6, RngKey(3, ("e",)))
    x = RngKey(4, ("x",)).normal((30, 6))
    a = brain_forward_batch(x[None], store, CFG, "s01", training=False)
    b = brain_forward_batch(x[None], store, CFG, "s01", training=False)
    np.testing.assert_array_equal(a.data, b.data)
    assert a.shape == (1, 4, 8)


def test_equal_timestep_matrices_match_shared_variant():
    key = RngKey(6, ("eq",))
    enabled = init_brain_module(CFG, {"s01": 30}, 6, key)
    shared_cfg = BrainModuleConfig(hidden=16, tokens=4, token_dim=8, timestep_layer_enabled=False)
    shared = init_brain_module(shared_cfg, {"s01": 30}, 6, key)
    m = key.child("mat").normal((16, 16))
    enabled["brain/tstep/s01/w"].data[:] = m[None]
    shared["brain/tstep/s01/w"].data[:] = m[None]
    for name in ("brain/subject/s01/w", "brain/out/w"):
        shared[name].data[:] = enabled[name].data
    x = key.child("x").normal((3, 30, 6))
    a = brain_forward_batch(x, enabled, CFG, "s01")
    b = brain_forward_batch(x, shared, shared_cfg, "s01")
    np.testing.assert_allclose(a.data, b.data, atol=1e-6)


def test_output_shape_absorbs_subject_dims():
    for c, t in [(17, 6), (41, 6)]:
        cfg = BrainModuleConfig(hidden=16, tokens=4, token_dim=8)
        store = init_brain_module(cfg, {"s": c}, t, RngKey(8, ("s", c)))
        out = brain_forward_batch(RngKey(9, ("x", c)).normal((2, c, t)), store, cfg, "s")
        assert out.shape == (2, 4, 8)


def test_window_length_mismatch_errors():
    store = init_brain_module(CFG, {"s01": 10}, 6, RngKey(0))
    with pytest.raises(ValueError, match="samples"):
        brain_forward_batch(np.zeros((1, 10, 4), dtype=np.float32), store, CFG, "s01")


def test_window_length_is_read_from_the_weights():
    store = init_brain_module(CFG, {"s01": 10}, 2, RngKey(0))
    assert store["brain/agg/w"].shape == (2,) and store["brain/tstep/s01/w"].shape == (2, 16, 16)
    assert brain_forward_batch(np.zeros((3, 10, 2), dtype=np.float32), store, CFG, "s01").shape == (3, 4, 8)
    with pytest.raises(ValueError, match="samples"):
        brain_forward_batch(np.zeros((1, 10, 6), dtype=np.float32), store, CFG, "s01")
    with pytest.raises(ValueError, match="samples"):
        init_brain_module(CFG, {"s01": 10}, 0, RngKey(0))


def test_unknown_subject_errors():
    store = init_brain_module(CFG, {"s01": 10}, 6, RngKey(0))
    with pytest.raises(KeyError, match="s99"):
        brain_forward_batch(np.zeros((1, 10, 6), dtype=np.float32), store, CFG, "s99")


def test_subject_isolation():
    store = init_brain_module(CFG, {"a": 20, "b": 25}, 6, RngKey(10, ("iso",)))
    x_b = RngKey(11, ("xb",)).normal((2, 25, 6))
    before = brain_forward_batch(x_b, store, CFG, "b").data.copy()
    store["brain/subject/a/w"].data += 100.0
    store["brain/tstep/a/w"].data += 100.0
    after = brain_forward_batch(x_b, store, CFG, "b").data
    np.testing.assert_array_equal(before, after)
    assert {n for n in store.names() if n.startswith(("brain/subject/a/", "brain/tstep/a/"))} == {
        "brain/subject/a/w",
        "brain/subject/a/b",
        "brain/tstep/a/w",
        "brain/tstep/a/b",
    }


def test_dropout_mean_matches_eval_output():
    cfg = BrainModuleConfig(hidden=32, tokens=4, token_dim=8, dropout=0.5)
    store = init_brain_module(cfg, {"s01": 40}, 6, RngKey(12, ("mc",)))
    x = RngKey(13, ("mcx",)).normal((1, 40, 6), scale=2.0)
    ref = brain_forward_batch(x, store, cfg, "s01", training=False).data
    acc = np.zeros_like(ref, dtype=np.float64)
    n = 1000
    for i in range(n):
        acc += brain_forward_batch(x, store, cfg, "s01", training=True, key=RngKey(14, ("mcd", i))).data
    mc = acc / n
    assert np.linalg.norm(mc - ref) / np.linalg.norm(ref) < 0.05


def test_agg_in_variant_runs():
    cfg = BrainModuleConfig(hidden=16, tokens=4, token_dim=8, aggregation_position=AGG_IN)
    store = init_brain_module(cfg, {"s01": 30}, 6, RngKey(15, ("in",)))
    assert store["brain/tstep/s01/w"].shape == (1, 16, 16)
    out = brain_forward_batch(RngKey(16).normal((2, 30, 6)), store, cfg, "s01")
    assert out.shape == (2, 4, 8)
