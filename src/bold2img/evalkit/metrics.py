"""Trial-wise reconstruction metrics.

PixCorr and SSIM score low-level fidelity; two-way identification runs on
features from small fixed-seed random conv probes (a low-level spatial probe
and a pooled higher-level probe); mIoU compares palette segmentations. The
probes are frozen for the life of the repo so scores are comparable across
runs and machines.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..substrate import no_grad, ops
from ..substrate.rng import RngKey
from ..substrate.tensor import Tensor

PROBE_SEED = 604051  # frozen; changing it invalidates all recorded scores
LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)
SSIM_WINDOW, SSIM_SIGMA = 11, 1.5  # side (pixels) and width of SSIM's Gaussian window


# ---------------------------------------------------------------------------
# pixel correlation


def pixcorr(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """Pearson correlation over flattened pixels; constant input -> (0, flagged)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    x = a.reshape(-1).astype(np.float64)
    y = b.reshape(-1).astype(np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    nx = np.linalg.norm(xc)
    ny = np.linalg.norm(yc)
    if nx < 1e-12 or ny < 1e-12:
        return 0.0, True
    return float(np.dot(xc, yc) / (nx * ny)), False


# ---------------------------------------------------------------------------
# SSIM


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    return k / k.sum()


def _filter2_valid(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Separable 2-D correlation, valid region only."""
    n = len(k)
    out_h = img.shape[0] - n + 1
    tmp = np.empty((out_h, img.shape[1]))
    for i in range(out_h):
        tmp[i] = k @ img[i : i + n]
    out = np.empty((out_h, img.shape[1] - n + 1))
    for j in range(out.shape[1]):
        out[:, j] = tmp[:, j : j + n] @ k
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM on luminance, Gaussian window, dynamic range 1."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ValueError(f"image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    x = a.astype(np.float64) @ LUMA if a.ndim == 3 else a.astype(np.float64)
    y = b.astype(np.float64) @ LUMA if b.ndim == 3 else b.astype(np.float64)
    c1 = 0.01**2
    c2 = 0.03**2
    k = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    mx = _filter2_valid(x, k)
    my = _filter2_valid(y, k)
    mx2, my2, mxy = mx * mx, my * my, mx * my
    vx = _filter2_valid(x * x, k) - mx2
    vy = _filter2_valid(y * y, k) - my2
    cxy = _filter2_valid(x * y, k) - mxy
    s = ((2 * mxy + c1) * (2 * cxy + c2)) / ((mx2 + my2 + c1) * (vx + vy + c2))
    return float(s.mean())


# ---------------------------------------------------------------------------
# random feature probes


_PROBE_CACHE: dict[str, list[np.ndarray]] = {}


def _probe_weights(probe: str) -> list[np.ndarray]:
    if probe not in _PROBE_CACHE:
        root = RngKey(PROBE_SEED, ("probe", probe))
        if probe == "low":
            plan = [(3, 8), (8, 8)]
        elif probe == "high":
            plan = [(3, 16), (16, 32), (32, 64), (64, 128)]
        else:
            raise ValueError(f"unknown probe {probe!r}")
        _PROBE_CACHE[probe] = [
            root.child("conv", i).normal((3, 3, cin, cout), np.sqrt(2.0 / (9 * cin)))
            for i, (cin, cout) in enumerate(plan)
        ]
    return _PROBE_CACHE[probe]


def probe_weights_digest(probe: str) -> str:
    h = hashlib.sha256()
    for w in _probe_weights(probe):
        h.update(w.tobytes())
    return h.hexdigest()


def probe_features(image: np.ndarray, probe: str) -> np.ndarray:
    """Deterministic frozen-random conv features; batched input allowed.

    low: two stride-2 conv+relu blocks, flattened (8*8*8 = 512 dims at 32px).
    high: four stride-2 conv+relu blocks then global average pooling (128 dims).
    """
    x = image[None] if image.ndim == 3 else image
    weights = _probe_weights(probe)
    with no_grad():
        h = Tensor(np.ascontiguousarray(x, dtype=np.float32))
        for w in weights:
            h = ops.conv2d(h, Tensor(w), stride=2)
            h = Tensor(np.maximum(h.data, 0.0))
        feats = h.data.mean(axis=(1, 2)) if probe == "high" else h.data.reshape(h.data.shape[0], -1)
    return feats[0] if image.ndim == 3 else feats


# ---------------------------------------------------------------------------
# two-way identification


def two_way_id(
    recon_feats: np.ndarray,
    gt_feats: np.ndarray,
    labels: list | None = None,
) -> tuple[float, int]:
    """Percentage of pairwise comparisons won by the matching ground truth.

    For each reconstruction i: the fraction of distractors j with
    corr(r_i, g_i) > corr(r_i, g_j); ties count one half. Distractors sharing
    i's label (repeated stimuli) are skipped. Constant feature vectors are
    excluded; the count of exclusions is returned alongside the score.
    """
    r = np.asarray(recon_feats, dtype=np.float64)
    g = np.asarray(gt_feats, dtype=np.float64)
    if r.shape != g.shape or r.ndim != 2:
        raise ValueError("feature matrices must be (N, F) and aligned")
    n = r.shape[0]
    if n < 2:
        raise ValueError("need at least 2 items for identification")
    rc = r - r.mean(axis=1, keepdims=True)
    gc = g - g.mean(axis=1, keepdims=True)
    rn = np.linalg.norm(rc, axis=1)
    gn = np.linalg.norm(gc, axis=1)
    valid = (rn > 1e-12) & (gn > 1e-12)
    excluded = int(n - valid.sum())
    rc[valid] /= rn[valid, None]
    gc[valid] /= gn[valid, None]
    corr = rc @ gc.T  # corr[i, j] = corr(r_i, g_j)
    own = np.diag(corr)[:, None]
    rival = valid[:, None] & valid[None, :] & ~np.eye(n, dtype=bool)
    if labels is not None:
        lab = np.asarray(labels)
        rival &= lab[:, None] != lab[None, :]
    wins = (((own > corr) + 0.5 * (own == corr)) * rival).sum(axis=1)
    total = rival.sum(axis=1)
    rows = total > 0  # rival is all False on an excluded row
    if not rows.any():
        return 50.0, excluded
    scores = wins[rows] / total[rows]
    return 100.0 * float(np.mean(scores)), excluded


# ---------------------------------------------------------------------------
# palette segmentation + mIoU


def segment_by_palette(image: np.ndarray, palette: np.ndarray) -> np.ndarray:
    """Nearest palette row per pixel; ties go to the lower class index."""
    flat = image.reshape(-1, 3).astype(np.float64)
    d2 = ((flat[:, None, :] - palette[None].astype(np.float64)) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1).astype(np.int32).reshape(image.shape[:2])


def miou(mask_a: np.ndarray, mask_b: np.ndarray, n_classes: int) -> float:
    """Mean IoU over classes present in either mask."""
    if mask_a.shape != mask_b.shape:
        raise ValueError("mask shapes differ")
    ious = []
    for c in range(n_classes):
        in_a = mask_a == c
        in_b = mask_b == c
        union = np.logical_or(in_a, in_b).sum()
        if union == 0:
            continue
        ious.append(np.logical_and(in_a, in_b).sum() / union)
    return float(np.mean(ious)) if ious else 1.0


def resize_nearest(image: np.ndarray, resolution: int) -> np.ndarray:
    """Nearest-neighbor resize (the desk default evaluates at native size)."""
    h = image.shape[0]
    if h == resolution:
        return image
    idx = (np.arange(resolution) * h) // resolution
    return image[idx][:, idx]
