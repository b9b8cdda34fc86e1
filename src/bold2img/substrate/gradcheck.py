"""Finite-difference validation of analytic gradients.

The checker evaluates a registered operation as a scalar (through a fixed
smooth reduction), backpropagates, and compares every trainable entry (or a
seeded subsample of at least 64) against central differences. It is the
independent oracle for the whole layer inventory and must be run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .params import ParamStore
from .rng import RngKey
from .tensor import Tensor, no_grad

MIN_SAMPLED_ENTRIES = 64
SUBSAMPLE_KEY = RngKey(0, ("gradcheck", "subsample"))  # picks the entries checked of a larger tensor


@dataclass
class GradReport:
    op_id: str
    max_rel_err: dict[str, float] = field(default_factory=dict)
    passed: bool = True
    failures: list[str] = field(default_factory=list)

    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)


def _reduce(y: Tensor) -> Tensor:
    """Smooth deterministic scalar reduction: sum of y * cos(index), as one
    (1, n) x (n, 1) product reshaped to a 0-d scalar."""
    n = y.data.size
    w = np.cos(np.arange(n, dtype=np.float64)).reshape(n, 1)
    return ops.reshape(ops.linear(ops.reshape(y, (1, n)), Tensor(w)), ())


# --- registry of checkable layers -----------------------------------------
# Each entry: build(params, inputs) -> output Tensor, and a factory producing
# (params, inputs) for the standard inventory check. Parameter-free layers
# register their input as the parameter under the name "x".

_REGISTRY: dict[str, tuple] = {}


def register(op_id: str, build, factory):
    _REGISTRY[op_id] = (build, factory)


def registered_ops() -> list[str]:
    return sorted(_REGISTRY)


def _factory_linear(key: RngKey):
    p = ParamStore()
    p.add("w", key.child("w").normal((4, 3), 0.5, np.float64))
    p.add("b", key.child("b").normal((3,), 0.5, np.float64))
    return p, [key.child("x").normal((5, 4), 1.0, np.float64)]


def _factory_conv(key: RngKey):
    # every input gets a gradient; at stride 2 the input gradient is the
    # strided scatter
    p = ParamStore()
    p.add("x", key.child("x").normal((2, 8, 8, 4), 1.0, np.float64))
    p.add("w", key.child("w").normal((3, 3, 4, 6), 0.3, np.float64))
    p.add("b", key.child("b").normal((6,), 0.3, np.float64))
    return p, []


def _factory_conv_frozen(key: RngKey):
    # a frozen weight: the forward keeps no tap rows and only the input
    # gradient is checked; w and b are fixed inputs
    p = ParamStore()
    p.add("x", key.child("x").normal((1, 16, 16, 16), 1.0, np.float64))
    w = key.child("w").normal((3, 3, 16, 16), 0.3, np.float64)
    b = key.child("b").normal((16,), 0.3, np.float64)
    return p, [w, b]


def _factory_norm(kind):
    def f(key: RngKey):
        p = ParamStore()
        c = 16
        p.add("g", 1.0 + key.child("g").normal((c,), 0.2, np.float64))
        p.add("b", key.child("b").normal((c,), 0.2, np.float64))
        shape = (2, 4, 4, c) if kind == "group" else (2, 5, c)
        return p, [key.child("x").normal(shape, 1.0, np.float64)]

    return f


def _factory_group_norm_x(key: RngKey):
    # the group_norm case with its input as a parameter, so dx is checked too
    p, (x,) = _factory_norm("group")(key)
    p.add("x", x)
    return p, []


def _factory_unary(shape):
    def f(key: RngKey):
        p = ParamStore()
        p.add("x", key.child("x").normal(shape, 1.0, np.float64))
        return p, []

    return f


def _factory_attention(key: RngKey):
    p = ParamStore()
    p.add("q", key.child("q").normal((2, 5, 8), 1.0, np.float64))
    p.add("k", key.child("k").normal((2, 3, 8), 1.0, np.float64))
    p.add("v", key.child("v").normal((2, 3, 8), 1.0, np.float64))
    return p, []


register("linear", lambda p, ins: ops.linear(Tensor(ins[0]), p["w"], p["b"]), _factory_linear)
register("conv2d_s1", lambda p, ins: ops.conv2d(p["x"], p["w"], p["b"], stride=1), _factory_conv)
register("conv2d_s2", lambda p, ins: ops.conv2d(p["x"], p["w"], p["b"], stride=2), _factory_conv)
register(
    "conv2d_s1_frozen", lambda p, ins: ops.conv2d(p["x"], Tensor(ins[0]), Tensor(ins[1]), stride=1), _factory_conv_frozen
)
register("group_norm", lambda p, ins: ops.group_norm(Tensor(ins[0]), p["g"], p["b"]), _factory_norm("group"))
register(
    "group_norm_silu", lambda p, ins: ops.group_norm_silu(p["x"], p["g"], p["b"]), _factory_group_norm_x
)
register("layer_norm", lambda p, ins: ops.layer_norm(Tensor(ins[0]), p["g"], p["b"]), _factory_norm("layer"))
register("gelu", lambda p, ins: ops.gelu(p["x"]), _factory_unary((3, 7)))
register("silu", lambda p, ins: ops.silu(p["x"]), _factory_unary((3, 7)))
register("softmax", lambda p, ins: ops.softmax(p["x"]), _factory_unary((4, 6)))
register("attention", lambda p, ins: ops.attention(p["q"], p["k"], p["v"]), _factory_attention)
register(
    "dropout",
    lambda p, ins: ops.dropout(p["x"], 0.3, RngKey(1234, ("gradcheck", "dropmask"))),
    _factory_unary((4, 9)),
)
register("upsample2x", lambda p, ins: ops.upsample_nearest2x(p["x"]), _factory_unary((2, 4, 4, 3)))


def make_case(op_id: str, seed: int = 0) -> tuple[ParamStore, list[np.ndarray]]:
    _, factory = _REGISTRY[op_id]
    return factory(RngKey(seed, ("gradcheck", op_id)))


def gradcheck(
    op_id: str,
    params: ParamStore,
    inputs: list[np.ndarray],
    eps: float = 1e-5,
    tol: float = 1e-3,
    grad_transform=None,
) -> GradReport:
    """Compare analytic gradients of a registered op against central differences.

    `grad_transform(name, grad) -> grad` is a fault-injection hook used to
    validate that the checker actually catches corrupted gradients.
    """
    if op_id not in _REGISTRY:
        raise KeyError(f"unknown op_id {op_id!r}; known: {registered_ops()}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    for name in params.trainable_names():
        if params[name].dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 parameters; {name} is {params[name].dtype}")
    build, _ = _REGISTRY[op_id]
    report = GradReport(op_id=op_id)

    params.zero_grads()
    loss = _reduce(build(params, inputs))
    loss.backward()

    for name in params.trainable_names():
        p = params[name]
        if p.grad is None:
            report.passed = False
            report.failures.append(f"{name}: no gradient produced")
            continue
        analytic = p.grad.copy()
        if grad_transform is not None:
            analytic = grad_transform(name, analytic)
        if not np.all(np.isfinite(analytic)):
            report.passed = False
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
                flat[i] = orig + eps
                f_plus = _reduce(build(params, inputs)).item()
                flat[i] = orig - eps
                f_minus = _reduce(build(params, inputs)).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
        report.max_rel_err[name] = worst
        if worst > tol:
            report.passed = False
            report.failures.append(f"{name}: max rel err {worst:.3e} > tol {tol:.1e}")
    return report
