"""Low-rank adapters on frozen projection weights.

An adapted projection computes y = x W + (alpha/r) (x A) B where W stays
frozen and only A, B train. B starts at zero, so a freshly adapted network is
exactly the frozen one. Internally weights use the (d_in, d_out) layout; the
math matches the usual W + (alpha/r) B A with row-vector inputs.
"""

from __future__ import annotations

import numpy as np

from ..substrate import ops
from ..substrate.params import ParamStore
from ..substrate.rng import RngKey
from ..substrate.tensor import Tensor

LORA_RANK = 4
LORA_ALPHA = 4.0


def add_lora_params(store: ParamStore, key: RngKey, site: str, proj: str, d_in: int, d_out: int,
                    rank: int = LORA_RANK):
    """A is fan-in scaled normal, B is zero (fresh adapters are a no-op)."""
    store.add(f"lora/{site}/{proj}/a", key.child(site, proj, "a").normal((d_in, rank), 1.0 / np.sqrt(d_in)))
    store.add(f"lora/{site}/{proj}/b", np.zeros((rank, d_out), dtype=np.float32))


def lora_linear(
    x: Tensor,
    store: ParamStore,
    weight_name: str,
    bias_name: str,
    site: str,
    proj: str,
    use_lora: bool,
    alpha: float = LORA_ALPHA,
    rank: int = LORA_RANK,
) -> Tensor:
    """Projection with an optional low-rank additive path."""
    y = ops.linear(x, store[weight_name], store[bias_name])
    if use_lora:
        a = store[f"lora/{site}/{proj}/a"]
        b = store[f"lora/{site}/{proj}/b"]
        y = ops.add(y, ops.scale(ops.linear(ops.linear(x, a), b), alpha / rank))
    return y
