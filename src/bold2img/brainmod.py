"""Brain module: projects a voxel-by-time window to conditioning tokens.

Pipeline (aggregation at the output end, the default): a subject-specific
linear layer maps each time sample's C voxels to H channels, a per-timestep
linear layer applies distinct weights to each sample, then layer norm, GELU
and dropout, a learned weighted sum merges the time axis, and a final linear
layer emits P x D tokens. Subject and per-timestep layers are per subject;
everything else is shared, which is what makes multi-subject training and
new-subject adaptation cheap.

Variants (the design ablation): the per-timestep layer can be replaced by a
single shared matrix, and the temporal aggregation can be moved to the input
end (right after the subject layer, with one matrix after it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .substrate import ops
from .substrate.params import ParamStore
from .substrate.rng import RngKey
from .substrate.tensor import Tensor

AGG_IN = "IN"
AGG_OUT = "OUT"


@dataclass
class BrainModuleConfig:
    hidden: int = 128  # paper-scale value: 1552
    tokens: int = 8  # paper-scale: 257
    token_dim: int = 64  # paper-scale: 768
    dropout: float = 0.5
    timestep_layer_enabled: bool = True
    aggregation_position: str = AGG_OUT

    def validate(self):
        for key in ("hidden", "tokens", "token_dim"):
            if getattr(self, key) <= 0:
                raise ValueError(f"train.brain.{key} must be positive, got {getattr(self, key)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"train.brain.dropout must be in [0, 1), got {self.dropout}")
        if self.aggregation_position not in (AGG_IN, AGG_OUT):
            raise ValueError(f"train.brain.aggregation_position must be IN or OUT, got {self.aggregation_position!r}")

    def variant(self) -> str:
        """The design variant this config builds; under IN one matrix follows
        the aggregation whether or not the timestep layer is enabled."""
        if self.aggregation_position == AGG_IN:
            return "timestep_agg_in"
        return "timestep_agg_out" if self.timestep_layer_enabled else "no_timestep_agg_out"


def init_brain_module(
    config: BrainModuleConfig,
    subject_voxels: dict[str, int],
    n_samples: int,
    key: RngKey,
    store: ParamStore | None = None,
) -> ParamStore:
    """Fresh parameters for windows of `n_samples` time samples: scaled-normal
    weights (std 1/sqrt(fan_in)), zero biases, uniform-average aggregation
    weights. The aggregation weights hold one entry per sample, so the stored
    module itself records its window length."""
    config.validate()
    if n_samples <= 0:
        raise ValueError(f"a window needs a positive number of samples, got {n_samples}")
    if not subject_voxels:
        raise ValueError("need at least one subject")
    store = store if store is not None else ParamStore()
    h, p, d, t = config.hidden, config.tokens, config.token_dim, n_samples
    store.add("brain/ln/g", np.ones(h, dtype=np.float32))
    store.add("brain/ln/b", np.zeros(h, dtype=np.float32))
    store.add("brain/agg/w", np.full(t, 1.0 / t, dtype=np.float32))
    store.add("brain/agg/b", np.zeros(1, dtype=np.float32))
    store.add("brain/out/w", key.child("out").normal((h, p * d), 1.0 / np.sqrt(h)))
    store.add("brain/out/b", np.zeros(p * d, dtype=np.float32))
    for sid in sorted(subject_voxels):
        add_subject_layers(store, config, sid, subject_voxels[sid], key)
    return store


def add_subject_layers(store: ParamStore, config: BrainModuleConfig, sid: str, n_voxels: int, key: RngKey):
    """Per-subject entries: the voxel projection and the timestep stack, one
    matrix per window sample (or a single one when aggregation comes first or
    the timestep layer is shared)."""
    h = config.hidden
    per_sample = config.aggregation_position == AGG_OUT and config.timestep_layer_enabled
    m = store["brain/agg/w"].shape[0] if per_sample else 1
    store.add(f"brain/subject/{sid}/w", key.child("subj", sid).normal((n_voxels, h), 1.0 / np.sqrt(n_voxels)))
    store.add(f"brain/subject/{sid}/b", np.zeros(h, dtype=np.float32))
    store.add(f"brain/tstep/{sid}/w", key.child("tstep", sid).normal((m, h, h), 1.0 / np.sqrt(h)))
    store.add(f"brain/tstep/{sid}/b", np.zeros((m, 1, h), dtype=np.float32))


def brain_forward_batch(
    x: np.ndarray,
    store: ParamStore,
    config: BrainModuleConfig,
    subject_id: str,
    training: bool = False,
    key: RngKey | None = None,
    rows: tuple[int, int] | None = None,
) -> Tensor:
    """Tokens for a batch of same-subject windows: (B, C, T) -> (B, P, D).

    `rows` = (lo, hi) computes the tokens of rows lo:hi of the batch only;
    their dropout masks are those rows of the masks drawn for the whole
    batch, so a batch computed in parts drops what it drops computed whole.
    """
    if f"brain/subject/{subject_id}/w" not in store:
        raise KeyError(f"no subject layer for {subject_id!r}")
    n_rows = x.shape[0]
    lo, hi = (0, n_rows) if rows is None else rows
    x = x[lo:hi]
    b, c, t = x.shape
    n_samples = store["brain/agg/w"].shape[0]
    if t != n_samples:
        raise ValueError(f"window has {t} samples, the brain module expects {n_samples}")
    if training and key is None:
        raise ValueError("training mode needs an rng key for dropout")

    xt = Tensor(np.ascontiguousarray(np.transpose(x, (0, 2, 1))))  # (B, T, C)
    z = ops.linear(xt, store[f"brain/subject/{subject_id}/w"], store[f"brain/subject/{subject_id}/b"])

    # the stored stack sets the wiring: T matrices, one per sample, or one shared
    w_ts = store[f"brain/tstep/{subject_id}/w"]  # (T or 1, H, H)
    b_ts = store[f"brain/tstep/{subject_id}/b"]  # (T or 1, 1, H)

    if config.aggregation_position == AGG_IN:
        u = ops.time_aggregate(z, store["brain/agg/w"], store["brain/agg/b"])  # (B, H)
        u = ops.linear(u, ops.reshape(w_ts, (config.hidden, config.hidden)), ops.reshape(b_ts, (config.hidden,)))
        u = ops.layer_norm(u, store["brain/ln/g"], store["brain/ln/b"])
        u = ops.gelu(u)
        if training:
            u = ops.dropout(u, config.dropout, key.child("drop"), (lo, n_rows))
    else:
        zt = ops.add(ops.matmul(ops.transpose(z, (1, 0, 2)), w_ts), b_ts)  # (T, B, H)
        z = ops.transpose(zt, (1, 0, 2))
        z = ops.layer_norm(z, store["brain/ln/g"], store["brain/ln/b"])
        z = ops.gelu(z)
        if training:
            z = ops.dropout(z, config.dropout, key.child("drop"), (lo, n_rows))
        u = ops.time_aggregate(z, store["brain/agg/w"], store["brain/agg/b"])  # (B, H)

    tokens = ops.linear(u, store["brain/out/w"], store["brain/out/b"])
    return ops.reshape(tokens, (b, config.tokens, config.token_dim))

