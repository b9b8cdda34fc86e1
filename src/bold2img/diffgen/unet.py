"""Toy pixel-space denoising U-Net with cross-attention conditioning.

Resolutions 32 -> 16 -> 8 with channels 32 -> 64 -> 128. Each level is a
single residual conv block (group norm, SiLU, 3x3 conv, timestep shift),
one `ops.conv2d` node with its norm prologue, shift and skip, as is the
output head; each decoder skip is added by the upsampling that meets it.
Cross-attention on the P x D conditioning tokens sits at the 16^2 and 8^2
feature maps on both the encoder and decoder paths; all four of its
projections carry optional low-rank adapters. Two fixed coordinate channels
are appended to the input so absolute position is available to the stack.

The timestep embedding, `conv_in`, `enc1`, `down1` and `enc2` read no
tokens. A call whose token batch is k times the image batch, as guided
sampling makes with its conditional and null halves, runs that prefix once
on the images and tiles its outputs k times before the first
cross-attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..substrate import ops
from ..substrate.params import ParamStore
from ..substrate.rng import RngKey
from ..substrate.tensor import Tensor
from .lora import add_lora_params, lora_linear

TEMB_DIM = 128
IN_CHANNELS = 3  # RGB images


class NonFiniteActivation(RuntimeError):
    pass


@dataclass
class UNetConfig:
    resolution: int = 32
    channels: tuple = (32, 64, 128)
    tokens: int = 8
    token_dim: int = 64
    t_max: int = 1000

    @property
    def site_channels(self) -> dict[str, int]:
        return {"xa_e16": self.channels[1], "xa_e8": self.channels[2], "xa_d8": self.channels[2], "xa_d16": self.channels[1]}


def _coord_grid(resolution: int) -> np.ndarray:
    lin = np.linspace(-1.0, 1.0, resolution, dtype=np.float32)
    gy, gx = np.meshgrid(lin, lin, indexing="ij")
    return np.stack([gy, gx], axis=-1)[None]  # (1, R, R, 2)


def init_unet(config: UNetConfig, key: RngKey) -> ParamStore:
    store = ParamStore()
    c0, c1, c2 = config.channels

    def conv(name, cin, cout, zero=False):
        if zero:
            w = np.zeros((3, 3, cin, cout), dtype=np.float32)
        else:
            w = key.child(name, "w").normal((3, 3, cin, cout), 1.0 / np.sqrt(9.0 * cin))
        store.add(f"unet/{name}/w", w)
        store.add(f"unet/{name}/b", np.zeros(cout, dtype=np.float32))

    def dense(name, din, dout):
        store.add(f"unet/{name}/w", key.child(name, "w").normal((din, dout), 1.0 / np.sqrt(din)))
        store.add(f"unet/{name}/b", np.zeros(dout, dtype=np.float32))

    def gn(name, ch):
        store.add(f"unet/{name}/g", np.ones(ch, dtype=np.float32))
        store.add(f"unet/{name}/bta", np.zeros(ch, dtype=np.float32))

    def resblock(name, ch):
        gn(f"{name}/gn", ch)
        conv(f"{name}/conv", ch, ch)
        dense(f"{name}/temb", TEMB_DIM, ch)

    def xattn(name, ch):
        gn(f"{name}/gn", ch)
        dense(f"{name}/q", ch, ch)
        dense(f"{name}/k", config.token_dim, ch)
        dense(f"{name}/v", config.token_dim, ch)
        dense(f"{name}/o", ch, ch)

    dense("temb/l1", TEMB_DIM, TEMB_DIM)
    dense("temb/l2", TEMB_DIM, TEMB_DIM)
    conv("conv_in", IN_CHANNELS + 2, c0)
    resblock("enc1", c0)
    conv("down1", c0, c1)
    resblock("enc2", c1)
    xattn("xa_e16", c1)
    conv("down2", c1, c2)
    resblock("enc3", c2)
    xattn("xa_e8", c2)
    resblock("mid", c2)
    xattn("xa_d8", c2)
    conv("up1", c2, c1)
    resblock("dec1", c1)
    xattn("xa_d16", c1)
    conv("up2", c1, c0)
    resblock("dec2", c0)
    gn("out/gn", c0)
    conv("out/conv", c0, IN_CHANNELS, zero=True)
    return store


def init_null_tokens(config: UNetConfig, key: RngKey, store: ParamStore) -> ParamStore:
    store.add(
        "cond/null_tokens",
        key.child("null_tokens").normal((config.tokens, config.token_dim), 1.0 / np.sqrt(config.token_dim)),
    )
    return store


IMG_ENC_POOL = 4  # image tokens come from a (R/POOL)^2 x 3 downsample


def init_image_encoder(config: UNetConfig, key: RngKey, store: ParamStore) -> ParamStore:
    """Frozen random projection of the image to conditioning tokens.

    Stands in for the pretrained image-embedding encoder whose tokens the
    generator learns to read during pretraining; the brain module later
    produces tokens in the same slot. No phase trains it.
    """
    side = config.resolution // IMG_ENC_POOL
    d_in = side * side * IN_CHANNELS
    w = key.child("img_enc").normal((d_in, config.tokens * config.token_dim), 1.0 / np.sqrt(d_in))
    store.add("cond/img_enc/w", w)
    return store


def image_tokens(images: np.ndarray, config: UNetConfig, store: ParamStore) -> np.ndarray:
    """Tokens (B, P, D) for a batch of [0, 1] images via the frozen encoder."""
    b, r, _, c = images.shape
    side = r // IMG_ENC_POOL
    pooled = images.reshape(b, side, IMG_ENC_POOL, side, IMG_ENC_POOL, c).mean(axis=(2, 4))
    flat = (pooled - 0.5).reshape(b, -1).astype(np.float32)
    out = flat @ store["cond/img_enc/w"].data
    return out.reshape(b, config.tokens, config.token_dim)


def create_lora_adapters(config: UNetConfig, key: RngKey, store: ParamStore) -> ParamStore:
    for site, ch in config.site_channels.items():
        for proj, din in (("q", ch), ("k", config.token_dim), ("v", config.token_dim), ("o", ch)):
            add_lora_params(store, key, site, proj, din, ch)
    return store


def unet_linear_param_names(store: ParamStore) -> list[str]:
    """The dense (non-conv) layers: attention projections and timestep MLPs."""
    keys = ("/q/", "/k/", "/v/", "/o/", "/temb")
    return [n for n in store.names() if n.startswith("unet/") and any(k in n for k in keys)]


def unet_cross_attn_param_names(store: ParamStore) -> list[str]:
    return [n for n in store.names() if n.startswith("unet/xa_") and any(f"/{p}/" in n for p in "qkvo")]


def _check(h: Tensor, block: str):
    if not np.all(np.isfinite(h.data)):
        raise NonFiniteActivation(f"non-finite activation leaving block {block!r}")


def unet_forward(x, t, tokens: Tensor, store: ParamStore, config: UNetConfig) -> Tensor:
    """Predict the velocity for a batch: (B, R, R, 3) -> (k*B, R, R, 3).

    `t` is a (B,) integer array of schedule indices; `tokens` is (k*B, P, D)
    for an integer k >= 1. The token-free prefix runs once on the B rows and
    is tiled k times; output row block j pairs with token block j. The
    cross-attention projections run their LoRA adapters if `store` holds them.
    """
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
    t = np.atleast_1d(np.asarray(t))
    if np.any(t < 0) or np.any(t >= config.t_max):
        raise ValueError("timestep index out of schedule range")
    b = x.shape[0]
    n_tok = tokens.shape[0]
    if tokens.shape[1:] != (config.tokens, config.token_dim) or n_tok == 0 or n_tok % b:
        raise ValueError(
            f"tokens shape {tokens.shape} is not (k*{b}, {config.tokens}, {config.token_dim}) for an integer k >= 1"
        )
    k = n_tok // b
    if b == 1 and k > 1:
        # a one-row matmul runs as BLAS gemv, which rounds differently from
        # the gemm of k rows; a single image is tiled first to keep its bits
        x, t, b, k = ops.concat([x] * k, axis=0), np.tile(t, k), k, 1

    def tile(h):
        return h if k == 1 else ops.concat([h] * k, axis=0)

    temb = Tensor(ops.sinusoidal_embedding(t, TEMB_DIM))
    temb = ops.linear(temb, store["unet/temb/l1/w"], store["unet/temb/l1/b"])
    temb = ops.silu(temb)
    temb = ops.linear(temb, store["unet/temb/l2/w"], store["unet/temb/l2/b"])

    def norm(name):
        return store[f"unet/{name}/gn/g"], store[f"unet/{name}/gn/bta"]

    def resblock(h, name):
        shift = ops.linear(temb, store[f"unet/{name}/temb/w"], store[f"unet/{name}/temb/b"])
        w, b = store[f"unet/{name}/conv/w"], store[f"unet/{name}/conv/b"]
        out = ops.conv2d(h, w, b, norm=norm(name), shift=shift, residual=h)
        _check(out, name)
        return out

    def xattn(h, name, ch):
        bh, hw = h.shape[0], h.shape[1] * h.shape[2]
        y = ops.group_norm(h, store[f"unet/{name}/gn/g"], store[f"unet/{name}/gn/bta"])
        y = ops.reshape(y, (bh, hw, ch))
        q = lora_linear(y, store, f"unet/{name}/q/w", f"unet/{name}/q/b", name, "q")
        k = lora_linear(tokens, store, f"unet/{name}/k/w", f"unet/{name}/k/b", name, "k")
        v = lora_linear(tokens, store, f"unet/{name}/v/w", f"unet/{name}/v/b", name, "v")
        a = ops.reshape(ops.attention(q, k, v), h.shape)
        out = lora_linear(a, store, f"unet/{name}/o/w", f"unet/{name}/o/b", name, "o", residual=h)
        _check(out, name)
        return out

    c0, c1, c2 = config.channels
    coords = Tensor(np.broadcast_to(_coord_grid(config.resolution), (b, config.resolution, config.resolution, 2)).copy())
    h = ops.conv2d(ops.concat([x, coords], axis=3), store["unet/conv_in/w"], store["unet/conv_in/b"])
    h32 = resblock(h, "enc1")
    h = ops.conv2d(h32, store["unet/down1/w"], store["unet/down1/b"], stride=2)
    h = resblock(h, "enc2")
    # everything above reads no tokens; from here on each row block has its own
    h32, h, temb = tile(h32), tile(h), tile(temb)
    h16 = xattn(h, "xa_e16", c1)
    h = ops.conv2d(h16, store["unet/down2/w"], store["unet/down2/b"], stride=2)
    h = resblock(h, "enc3")
    h = xattn(h, "xa_e8", c2)
    h = resblock(h, "mid")
    h = xattn(h, "xa_d8", c2)
    # channel reduction happens at the low resolution, then nearest upsampling
    h = ops.upsample_nearest2x(ops.conv2d(h, store["unet/up1/w"], store["unet/up1/b"]), h16)
    h = resblock(h, "dec1")
    h = xattn(h, "xa_d16", c1)
    h = ops.upsample_nearest2x(ops.conv2d(h, store["unet/up2/w"], store["unet/up2/b"]), h32)
    h = resblock(h, "dec2")
    out = ops.conv2d(h, store["unet/out/conv/w"], store["unet/out/conv/b"], norm=norm("out"))
    _check(out, "out")
    return out

