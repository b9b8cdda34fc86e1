"""Finite-difference oracle for analytic gradients, and the cases it checks.

`gradcheck(params, build)` evaluates `build(params)` as a scalar through a
fixed smooth reduction, backpropagates, and compares every trainable entry
(or a seeded subsample of at least 64) against central differences. It is the
independent check of the whole layer inventory and must be run in float64.

`CASES` maps each case id to `case(key) -> (params, build)`, where `build`
closes over the case's fixed inputs; the tests draw case `c` at seed `s` from
`RngKey(s, ("gradcheck", c))`. Parameter-free layers take their input as the
parameter "x".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bold2img.brainmod import AGG_IN, BrainModuleConfig, brain_forward_batch, init_brain_module
from bold2img.diffgen import UNetConfig, create_lora_adapters, init_unet, unet_forward
from bold2img.substrate import ParamStore, RngKey, Tensor, no_grad, ops

EPS = 1e-5  # central-difference step
TOL = 1e-3  # largest relative error that passes
MIN_SAMPLED_ENTRIES = 64
SUBSAMPLE_KEY = RngKey(0, ("gradcheck", "subsample"))  # picks the entries checked of a larger tensor

# a reduced U-Net small enough for finite differences over the whole parameter set
SMALL_CONFIG = UNetConfig(resolution=8, channels=(8, 8, 16), tokens=2, token_dim=4)


@dataclass
class GradReport:
    max_rel_err: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)


def _reduce(y: Tensor) -> Tensor:
    """Smooth deterministic scalar reduction: sum of y * cos(index), as one
    (1, n) x (n, 1) product reshaped to a 0-d scalar."""
    n = y.data.size
    w = np.cos(np.arange(n, dtype=np.float64)).reshape(n, 1)
    return ops.reshape(ops.linear(ops.reshape(y, (1, n)), Tensor(w)), ())


def gradcheck(params: ParamStore, build, grad_transform=None) -> GradReport:
    """Compare the analytic gradients of `build(params)` against central differences.

    `grad_transform(name, grad) -> grad` is a fault-injection hook used to
    validate that the checker actually catches corrupted gradients.
    """
    for name in params.trainable_names():
        if params[name].dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 parameters; {name} is {params[name].dtype}")
    report = GradReport()

    params.zero_grads()
    _reduce(build(params)).backward()

    for name in params.trainable_names():
        p = params[name]
        if p.grad is None:
            report.failures.append(f"{name}: no gradient produced")
            continue
        analytic = p.grad.copy()
        if grad_transform is not None:
            analytic = grad_transform(name, analytic)
        if not np.all(np.isfinite(analytic)):
            report.failures.append(f"{name}: non-finite gradient")
            continue

        flat = p.data.reshape(-1)
        n = flat.size
        if n <= MIN_SAMPLED_ENTRIES:
            idx = np.arange(n)
        else:
            k = max(MIN_SAMPLED_ENTRIES, n // 8)
            idx = SUBSAMPLE_KEY.child(name).generator().choice(n, size=min(k, n), replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            with no_grad():  # the differences need only the forward values
                flat[i] = orig + EPS
                f_plus = _reduce(build(params)).item()
                flat[i] = orig - EPS
                f_minus = _reduce(build(params)).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * EPS)
            rel = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
        report.max_rel_err[name] = worst
        if worst > TOL:
            report.failures.append(f"{name}: max rel err {worst:.3e} > tol {TOL:.1e}")
    return report


# --- the cases ----------------------------------------------------------------


def _linear(residual: bool):
    # a residual is a parameter too, so its gradient is checked
    def case(key: RngKey):
        p = ParamStore()
        p.add("w", key.child("w").normal((4, 3), 0.5, np.float64))
        p.add("b", key.child("b").normal((3,), 0.5, np.float64))
        if residual:
            p.add("h", key.child("h").normal((5, 3), 1.0, np.float64))
        x = key.child("x").normal((5, 4), 1.0, np.float64)
        return p, lambda p: ops.linear(Tensor(x), p["w"], p["b"], residual=p["h"] if residual else None)

    return case


def _conv(stride: int, epilogue: bool = False):
    # every input gets a gradient; at stride 2 the input gradient is the
    # strided scatter; the epilogue's per-sample shift and residual are
    # parameters too
    def case(key: RngKey):
        p = ParamStore()
        p.add("x", key.child("x").normal((2, 8, 8, 4), 1.0, np.float64))
        p.add("w", key.child("w").normal((3, 3, 4, 6), 0.3, np.float64))
        p.add("b", key.child("b").normal((6,), 0.3, np.float64))
        if not epilogue:
            return p, lambda p: ops.conv2d(p["x"], p["w"], p["b"], stride=stride)
        p.add("shift", key.child("shift").normal((2, 6), 0.3, np.float64))
        p.add("h", key.child("h").normal((2, 8 // stride, 8 // stride, 6), 1.0, np.float64))
        return p, lambda p: ops.conv2d(p["x"], p["w"], p["b"], stride=stride, shift=p["shift"], residual=p["h"])

    return case


def _conv_frozen(key: RngKey):
    # a frozen weight: the forward keeps no tap rows and only the input
    # gradient is checked; w and b are fixed inputs
    p = ParamStore()
    p.add("x", key.child("x").normal((1, 16, 16, 16), 1.0, np.float64))
    w = key.child("w").normal((3, 3, 16, 16), 0.3, np.float64)
    b = key.child("b").normal((16,), 0.3, np.float64)
    return p, lambda p: ops.conv2d(p["x"], Tensor(w), Tensor(b), stride=1)


def _norm_params(key: RngKey) -> ParamStore:
    p = ParamStore()
    p.add("g", 1.0 + key.child("g").normal((16,), 0.2, np.float64))
    p.add("b", key.child("b").normal((16,), 0.2, np.float64))
    return p


def _norm(op, shape: tuple):
    def case(key: RngKey):
        x = key.child("x").normal(shape, 1.0, np.float64)
        return _norm_params(key), lambda p: op(Tensor(x), p["g"], p["b"])

    return case


def _conv_norm(frozen: bool):
    # the stride-1 conv of silu(group_norm(x)), with the epilogue: x, the
    # norm's g and b, the shift and the residual are parameters, and w and
    # "bias" too unless frozen, as under LoRA, where only the path through
    # the rebuilt SiLU output is left
    def case(key: RngKey):
        p = _norm_params(key)
        p.add("x", key.child("x").normal((2, 6, 6, 16), 1.0, np.float64))
        w = key.child("w").normal((3, 3, 16, 6), 0.3, np.float64)
        bias = key.child("bias").normal((6,), 0.3, np.float64)
        if not frozen:
            p.add("w", w)
            p.add("bias", bias)
        p.add("shift", key.child("shift").normal((2, 6), 0.3, np.float64))
        p.add("h", key.child("h").normal((2, 6, 6, 6), 1.0, np.float64))

        def build(p):
            wt, bt = (Tensor(w), Tensor(bias)) if frozen else (p["w"], p["bias"])
            return ops.conv2d(p["x"], wt, bt, norm=(p["g"], p["b"]), shift=p["shift"], residual=p["h"])

        return p, build

    return case


def _unary(op, shape: tuple):
    def case(key: RngKey):
        p = ParamStore()
        p.add("x", key.child("x").normal(shape, 1.0, np.float64))
        return p, lambda p: op(p["x"])

    return case


def _upsample(key: RngKey):
    p = ParamStore()
    p.add("x", key.child("x").normal((2, 4, 4, 3), 1.0, np.float64))
    p.add("h", key.child("h").normal((2, 8, 8, 3), 1.0, np.float64))
    return p, lambda p: ops.upsample_nearest2x(p["x"], p["h"])


def _attention(key: RngKey):
    p = ParamStore()
    p.add("q", key.child("q").normal((2, 5, 8), 1.0, np.float64))
    p.add("k", key.child("k").normal((2, 3, 8), 1.0, np.float64))
    p.add("v", key.child("v").normal((2, 3, 8), 1.0, np.float64))
    return p, lambda p: ops.attention(p["q"], p["k"], p["v"])


def _brainmod(**variant):
    # one of the three design variants, in training mode with a fixed dropout mask
    config = BrainModuleConfig(hidden=8, tokens=2, token_dim=3, dropout=0.5, **variant)

    def case(key: RngKey):
        store = init_brain_module(config, {"s01": 5}, 4, key.child("init"))
        x = key.child("x").normal((2, 5, 4), 1.0, np.float32).astype(np.float64)
        drop = RngKey(7, ("gradcheck", "braindrop"))
        return store.astype(np.float64), lambda p: brain_forward_batch(x, p, config, "s01", training=True, key=drop)

    return case


def _unet_small(key: RngKey):
    store = init_unet(SMALL_CONFIG, key.child("unet"))
    create_lora_adapters(SMALL_CONFIG, key.child("lora"), store)
    # non-zero adapter B so the low-rank path is exercised by the check
    for name in store.names():
        if name.startswith("lora/") and name.endswith("/b"):
            store[name].data[:] = key.child("loraB", name).normal(store[name].shape, 0.1)
    store.add("tokens", key.child("tokens").normal((1, SMALL_CONFIG.tokens, SMALL_CONFIG.token_dim)))
    x = key.child("x").normal((1, 8, 8, 3), 1.0, np.float64)
    # the final conv is zero-initialized; give it signal so its input grads matter
    store["unet/out/conv/w"].data[:] = key.child("outw").normal(store["unet/out/conv/w"].shape, 0.1)
    return store.astype(np.float64), lambda p: unet_forward(Tensor(x), np.array([7]), p["tokens"], p, SMALL_CONFIG)


CASES = {
    "linear": _linear(residual=False),
    "linear_residual": _linear(residual=True),
    "conv2d_s1": _conv(1),
    "conv2d_s1_epilogue": _conv(1, epilogue=True),
    "conv2d_s2": _conv(2),
    "conv2d_s1_frozen": _conv_frozen,
    "conv2d_s1_norm": _conv_norm(frozen=False),
    "conv2d_s1_norm_frozen": _conv_norm(frozen=True),
    "group_norm": _norm(ops.group_norm, (2, 4, 4, 16)),
    "layer_norm": _norm(ops.layer_norm, (2, 5, 16)),
    "gelu": _unary(ops.gelu, (3, 7)),
    "silu": _unary(ops.silu, (3, 7)),
    "softmax": _unary(ops.softmax, (4, 6)),
    "attention": _attention,
    "dropout": _unary(lambda x: ops.dropout(x, 0.3, RngKey(1234, ("gradcheck", "dropmask"))), (4, 9)),
    "upsample2x": _upsample,
    "brainmod_full": _brainmod(),
    "brainmod_shared": _brainmod(timestep_layer_enabled=False),
    "brainmod_agg_in": _brainmod(aggregation_position=AGG_IN),
    "unet_small": _unet_small,
}
