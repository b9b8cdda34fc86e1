"""Low-rank adapters on frozen projection weights.

An adapted projection computes y = x (W + A B) where W stays frozen and only
A, B train. This is the usual W + (alpha/r) B A with row-vector inputs and
alpha = r, so the update carries no extra scale. The weights are merged on
every call, a (d_in, d_out) sum, so no array with one row per input row is
built besides the output; the adapters' gradients come from the merged
weight's, dA = dW B^T and dB = A^T dW. B starts at zero, so a freshly adapted
network is exactly the frozen one. The store decides the wiring: a projection
is adapted exactly when its adapter entries are in the store.
"""

from __future__ import annotations

import numpy as np

from ..substrate import ops
from ..substrate.params import ParamStore
from ..substrate.rng import RngKey
from ..substrate.tensor import Tensor

LORA_RANK = 4


def add_lora_params(store: ParamStore, key: RngKey, site: str, proj: str, d_in: int, d_out: int):
    """A is fan-in scaled normal, B is zero (fresh adapters are a no-op)."""
    store.add(f"lora/{site}/{proj}/a", key.child(site, proj, "a").normal((d_in, LORA_RANK), 1.0 / np.sqrt(d_in)))
    store.add(f"lora/{site}/{proj}/b", np.zeros((LORA_RANK, d_out), dtype=np.float32))


def lora_linear(
    x: Tensor, store: ParamStore, weight_name: str, bias_name: str, site: str, proj: str, *, residual=None
) -> Tensor:
    """Projection against W + A B when the store holds the adapters, else W;
    `residual` is added in place (`ops.linear`)."""
    w = store[weight_name]
    lora = f"lora/{site}/{proj}"
    if f"{lora}/a" in store:
        w = ops.add(w, ops.matmul(store[f"{lora}/a"], store[f"{lora}/b"]))
    return ops.linear(x, w, store[bias_name], residual=residual)
