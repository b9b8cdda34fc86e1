"""Differentiable operations: the fixed layer inventory plus graph glue.

Layout convention is channels-last: images are (B, H, W, C), token matrices
are (B, P, D). Convolutions are 3x3 with zero padding at stride 1 or 2 and
are lowered to GEMM (see `conv2d`). At stride 1 a tap row holds one kernel
row's three taps (3C values): the forward and the input gradient are three
K=3C GEMMs over tap rows built block by block into one small scratch, and dW
is three GEMMs of the input against the output gradient's full tap rows.
Stride 2 builds the im2col column matrix (B*OH*OW, 9C) and does one GEMM,
and a trainable weight's backward builds it again for dW. So a conv keeps no
lowered matrix, only the input the graph keeps anyway. A conv with a `norm`
prologue reads silu(group_norm(x)) and keeps x, the (B, C) norm factors and
the sigmoid; its backward rebuilds the SiLU output from them, bit for bit,
so no SiLU output stays in the graph. Backward
closures hand fresh arrays to `accumulate_grad(..., fresh=True)`, so no
defensive copies happen on the hot path. Scratch and output arrays are
plain `np.empty`; the CLI makes the allocator keep freed memory
(`cli._retain_freed_memory`), so allocating them anew each call does not
fault in fresh pages.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngKey
from .tensor import Tensor, as_tensor, builds_node, make_node

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
GN_GROUPS = 8  # channel groups of every group norm
NORM_EPS = 1e-5  # variance floor of group and layer norm
TIMESTEP_MAX_PERIOD = 10000.0  # longest wavelength of the timestep features


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] > 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a.accumulate_grad(ga, fresh=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            b.accumulate_grad(gb, fresh=gb is not g)

    return make_node(out, (a, b), backward)


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    out = a.data * s

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s, fresh=True)

    return make_node(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    out = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            # g is dead after this node's backward; its single parent may own it
            a.accumulate_grad(g.reshape(old), fresh=True)

    return make_node(out, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inv), fresh=True)

    return make_node(out, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                # disjoint slices of a dead gradient; parents may own them
                t.accumulate_grad(g[tuple(idx)], fresh=True)

    return make_node(out, tuple(tensors), backward)


def where(mask: np.ndarray, a, b) -> Tensor:
    """Select a where mask else b; mask is a constant boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(mask, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(np.where(mask, g, 0.0), a.data.shape), fresh=True)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(np.where(mask, 0.0, g), b.data.shape), fresh=True)

    return make_node(out, (a, b), backward)


def mean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    out = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g / n), fresh=True)

    return make_node(out, (a,), backward)


def mse_loss(a, target, count: int | None = None) -> Tensor:
    """Summed squared error over `count` elements (default: all of a's), the
    mean; a part of a batch passes the batch's count, so that its parts'
    losses and gradients sum to the batch's."""
    a = as_tensor(a)
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    diff = a.data - t
    n = diff.size if count is None else count
    out = np.asarray((diff * diff).sum() / n, dtype=a.data.dtype)  # bit for bit the mean when n is the size

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad((2.0 / n) * g * diff, fresh=True)

    return make_node(out, (a,), backward)


# ---------------------------------------------------------------------------
# matmul / linear


def matmul(a, b) -> Tensor:
    """2-D or batched 3-D matrix product. Batch dims match, b is 2-D, or a batch
    of one on either side broadcasts (and its gradient is summed over the batch)."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.data.shape), fresh=True)
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.data.shape), fresh=True)

    return make_node(out, (a, b), backward)


def linear(x, w, b=None, *, residual=None) -> Tensor:
    """y = x @ w + b over the last axis; x may have any leading shape.

    `residual`, of y's shape, is added in place after the bias, so a skip
    connection builds no node and no array of its own.
    """
    x, w = as_tensor(x), as_tensor(w)
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = x2 @ w.data
    if b is not None:
        b = as_tensor(b)
        y += b.data
    out = y.reshape(lead + (w.data.shape[1],))
    if residual is not None:
        residual = as_tensor(residual)
        out += residual.data
    parents = tuple(p for p in (x, w, b, residual) if p is not None)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x.accumulate_grad((g2 @ w.data.T).reshape(x.data.shape), fresh=True)
        if w.requires_grad:
            w.accumulate_grad(x2.T @ g2, fresh=True)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0), fresh=True)
        if residual is not None and residual.requires_grad:
            residual.accumulate_grad(g)

    return make_node(out, parents, backward)


# ---------------------------------------------------------------------------
# convolution


def _padded(x: np.ndarray) -> np.ndarray:
    """x zero-padded by one pixel on each side, in a new buffer."""
    bb, h, w, c = x.shape
    xp = np.empty((bb, h + 2, w + 2, c), x.dtype)
    # reused heap memory holds whatever its last user wrote there
    xp[:, [0, -1]] = 0
    xp[:, :, [0, -1]] = 0
    xp[:, 1:-1, 1:-1] = x
    return xp


def _im2col_flat(xp: np.ndarray, stride: int, oh: int, ow: int) -> np.ndarray:
    """Column matrix (B*OH*OW, 9*C) of the padded input.

    Per kernel row the (kj, c) window is one contiguous 3C-run of the padded
    input, so the gather is three strided copies per batch chunk.
    """
    b, _, _, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    col = np.empty((b, oh, ow, 3, 3 * c), xp.dtype)
    for ki in range(3):
        view = np.lib.stride_tricks.as_strided(
            xp[:, ki:],
            shape=(b, oh, ow, 3 * c),
            strides=(s0, s1 * stride, s2 * stride, s3),
        )
        np.copyto(col[:, :, :, ki, :], view)
    return col


def _conv_gemm(x: np.ndarray, w4: np.ndarray, stride: int) -> np.ndarray:
    """im2col conv, one GEMM; returns the 4-D output.

    Also the reference that tests hold the tap-row lowering to.
    """
    kh, kw, cin, cout = w4.shape
    bb, h, ww_, _ = x.shape
    oh = (h + 2 - kh) // stride + 1
    ow = (ww_ + 2 - kw) // stride + 1
    col = _im2col_flat(_padded(x), stride, oh, ow)
    y = col.reshape(bb * oh * ow, 9 * cin) @ w4.reshape(kh * kw * cin, cout)
    return y.reshape(bb, oh, ow, cout)


_TAP_BLOCK_ROWS = 2048  # rows per block: tap rows, product and accumulator stay in L2
# tap rows at most this many floats wide are built for the whole batch at once:
# block by block they would cost many small copies (`conv_in`'s 15 floats)
_THIN_TAP_FLOATS = 16


def _spans(u0: int, u1: int, per: int):
    """Units u0..u1 of a run of images of `per` units each, as at most three
    (unit, image, images, start, stop) spans: a head, whole images, a tail."""
    while u0 < u1:
        b, k = divmod(u0, per)
        nb = max(1, (u1 - u0) // per) if k == 0 else 1
        k1 = min(per, k + u1 - u0)
        yield u0, b, nb, k, k1
        u0 += nb * (k1 - k)


def _tap_rows_into(dst: np.ndarray, x: np.ndarray, q0: int, q1: int):
    """Tap rows of padded rows q0..q1 of x (q = b*(H+2) + i) into dst[: q1 - q0]
    (nq, W, 3C). Tap row (b, i, j) holds padded pixels (i, j..j+2), one
    kernel row's taps in the (kj, c) order of a (3, 3, C, Cout) weight; off
    the edge columns that is one 3C-run of x. The padding is written as
    zeros every time, over whatever the last block left."""
    _, h, w, c = x.shape
    for q, b, nb, i0, i1 in _spans(q0, q1, h + 2):
        d = dst[q - q0 : q - q0 + nb * (i1 - i0)].reshape(nb, i1 - i0, w, 3, c)
        a, z = max(i0, 1) - i0, min(i1, h + 1) - i0  # rows of d inside the image
        d[:, :a], d[:, z:] = 0, 0
        s, d = x[b : b + nb, a + i0 - 1 : z + i0 - 1], d[:, a:z]
        d[:, :, 0, 0], d[:, :, -1, 2] = 0, 0  # the edges' outer taps
        d[:, :, 0, 1 : 1 + min(w, 2)] = s[:, :, :2]
        if w > 1:
            d[:, :, -1, :2] = s[:, :, -2:]
        s0, s1, s2, s3 = s.strides
        d[:, :, 1:-1] = np.lib.stride_tricks.as_strided(s, (nb, z - a, max(w - 2, 0), 3, c), (s0, s1, s2, s2, s3))


def _tap_rows(x: np.ndarray) -> np.ndarray:
    """Tap-row matrix (B, H+2, W, 3C) of x zero-padded by one pixel."""
    bb, h, w, c = x.shape
    rows = np.empty((bb * (h + 2), w, 3 * c), x.dtype)
    _tap_rows_into(rows, x, 0, bb * (h + 2))
    return rows.reshape(bb, h + 2, w, 3 * c)


def _epilogue(dst: np.ndarray, conv: np.ndarray, b, shift, residual):
    """dst = ((conv + b) + shift) + residual, skipping the terms that are None."""
    np.copyto(dst, conv) if b is None else np.add(conv, b, out=dst)
    for t in (shift, residual):
        if t is not None:
            dst += t


def _conv_taps(x: np.ndarray, w4: np.ndarray, rows=None, b=None, shift=None, residual=None) -> np.ndarray:
    """Stride-1 3x3 conv of x as a new (B, H, W, Cout) array, plus b, a
    per-sample shift (B, Cout) and a residual, added in that order.

    Output pixel (b, i, j) is anchored at flat tap row r = (b*(H+2) + i)*W + j
    and reads kernel row ki from tap row r + ki*W: three K=3C GEMMs over row
    windows shifted by 0, W and 2W. Per L2-sized block, one reused scratch
    takes the tap rows and their 2W-row tail (unless the caller passes x's
    `rows`, or they are `_THIN_TAP_FLOATS` wide or less and built here for
    the whole batch), the GEMMs fill an accumulator, and the anchors at
    i < H land in the output; those at i = H, H+1 are junk."""
    bb, h, w, c = x.shape
    cout, hw = w4.shape[3], h * w
    wk = w4.reshape(3, 3 * c, cout).astype(x.dtype, copy=False)
    n = bb * (h + 2) * w - 2 * w  # one past the last valid anchor
    m = min(_TAP_BLOCK_ROWS, n)
    acc, prod = np.empty((m, cout), x.dtype), np.empty((m, cout), x.dtype)
    if rows is None and 3 * c <= _THIN_TAP_FLOATS:
        rows = _tap_rows(x)
    streamed = rows is None
    taps = np.empty((min(-(-m // w) + 3, bb * (h + 2)), w, 3 * c), x.dtype) if streamed else rows
    flat, rows = taps.reshape(-1, 3 * c), None  # `taps` alone holds them, so the last block frees them
    out, res3 = None, None if residual is None else residual.reshape(bb, hw, cout)
    for r0 in range(0, n, _TAP_BLOCK_ROWS):
        r1 = min(n, r0 + _TAP_BLOCK_ROWS)
        if streamed:
            _tap_rows_into(taps, x, r0 // w, -(-(r1 + 2 * w) // w))
        t0 = r0 % w if streamed else r0  # row r0 in flat
        a, p = acc[: r1 - r0], prod[: r1 - r0]
        np.matmul(flat[t0 : t0 + r1 - r0], wk[0], out=a)
        for ki in (1, 2):
            np.matmul(flat[t0 + ki * w : t0 + ki * w + r1 - r0], wk[ki], out=p)
            a += p
        if r1 == n:  # so a single block frees its tap rows and product before the output exists
            taps = flat = p = prod = None
        out = np.empty((bb, h, w, cout), x.dtype) if out is None else out
        for r, i, nb, k0, k1 in _spans(r0, r1, (h + 2) * w):
            kv, im = max(k0, min(k1, hw)), slice(i, i + nb)
            conv = a[r - r0 : r - r0 + nb * (k1 - k0)].reshape(nb, k1 - k0, cout)[:, : kv - k0]
            sh, res = shift if shift is None else shift[im, None], res3 if res3 is None else res3[im, k0:kv]
            _epilogue(out.reshape(bb, hw, cout)[im, k0:kv], conv, b, sh, res)
    return out


def _conv_taps_wgrad(x: np.ndarray, grows: np.ndarray) -> np.ndarray:
    """dW (3, 3, C, Cout) of the stride-1 conv of x, from the tap rows
    `grows` (B, H+2, W, 3*Cout) of its output gradient g. x is (B, H, W, C),
    or a (B, H+2, W, C) buffer whose first H rows per image hold it, which
    saves a copy.

    Weight (ki, kj) meets x at (p, q) and g at (p+1-ki, q+1-kj): tap
    kq = 2-kj of g's tap row (p+kp, q), kp = 2-ki. So with x in a buffer of
    H+2 rows per image, the last two zero, kernel row ki is one flat GEMM
    x[:n].T @ grows[kp*W : kp*W + n], its taps in reversed kj order.
    """
    bb, h, w, c = grows.shape[0], grows.shape[1] - 2, grows.shape[2], x.shape[3]
    if x.shape[1] == h + 2:
        xb = x
    else:
        xb = np.empty((bb, h + 2, w, c), np.result_type(x, grows))
        xb[:, :h] = x
    xb[:, h:] = 0
    n = bb * (h + 2) * w - 2 * w
    xf, gf = xb.reshape(-1, c)[:n], grows.reshape(-1, grows.shape[3])
    dw = np.empty((3, 3, c, grows.shape[3] // 3), np.result_type(xb, grows))
    for kp in range(3):
        dw[2 - kp] = (xf.T @ gf[kp * w : kp * w + n]).reshape(c, 3, -1)[:, ::-1].transpose(1, 0, 2)
    return dw


def conv2d(x, w, b=None, stride: int = 1, *, norm=None, shift=None, residual=None) -> Tensor:
    """3x3 zero-padded convolution, stride 1 or 2.

    x: (B, H, W, Cin), w: (3, 3, Cin, Cout), b: (Cout,). The epilogue adds,
    in place and in this order, the bias, `shift` (B, Cout), a per-sample
    bias such as a timestep shift, and `residual` (B, OH, OW, Cout), a skip
    connection; neither builds a node or an array of its own.

    `norm` = (gamma, beta), at stride 1 only, is a prologue: the conv reads
    silu(group_norm(x, gamma, beta)), bit for bit the two ops. The node keeps
    x, the (B, C) norm factors and, when a parent needs a gradient, the
    sigmoid, but no SiLU output: its backward rebuilds that output from them
    with the forward's own three elementwise ops, for dW and for the SiLU
    gradient, then runs the group-norm backward in the input gradient's
    buffer. Without a graph the sigmoid is dropped before the output exists.

    Stride 1 is `_conv_taps`, which writes a contiguous output from a
    block-sized scratch of tap rows. The input gradient is the same conv of
    g with the rotated, transposed kernel; a trainable weight's backward
    builds the full tap rows of g once, for dW and for that conv. Stride 2
    runs on im2col: one K=9*Cin GEMM, whose column matrix the backward
    builds again from x for dW. So the node keeps no lowered copy of x. In
    the backward `residual` gets g before x gets its gradient.
    """
    x, w = as_tensor(x), as_tensor(w)
    kh, kw, cin, cout = w.data.shape
    bb, h, ww_, c = x.data.shape
    if c != cin:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {cin}")
    if norm is not None and stride != 1:
        raise ValueError("conv2d's norm prologue runs at stride 1 only")
    gamma, beta = (None, None) if norm is None else (as_tensor(t) for t in norm)
    b, shift, residual = (None if t is None else as_tensor(t) for t in (b, shift, residual))
    bd, sd, rd = (None if t is None else t.data for t in (b, shift, residual))
    parents = tuple(p for p in (x, w, b, gamma, beta, shift, residual) if p is not None)
    xin, sig, x3, mu, inv, a_bc, s_bc = x.data, None, None, None, None, None, None
    if norm is not None:
        y3, x3, mu, inv, a_bc, s_bc = _group_norm_affine(x.data, gamma.data, beta.data)
        sig = _sigmoid(y3).reshape(x.data.shape)
        y3 *= sig.reshape(y3.shape)
        xin = y3.reshape(x.data.shape)
        if not builds_node(parents):
            sig = None  # before the output exists

    def silu_in(rows=h):
        """The conv's input, rebuilt bit for bit by the forward's own ops, in
        the first H of `rows` rows per image of a new buffer."""
        buf = np.empty((bb, rows, ww_, c), sig.dtype)
        a = np.multiply(x.data, a_bc[:, None, None, :], out=buf[:, :h])
        a += s_bc[:, None, None, :]
        a *= sig
        return buf

    if stride == 1:
        out4 = _conv_taps(xin.astype(np.result_type(xin, w.data), copy=False), w.data, None, bd, sd, rd)
    else:
        out4 = _conv_gemm(xin, w.data, stride)
        _epilogue(out4, out4, bd, None if sd is None else sd[:, None, None, :], rd)
    oh, ow = out4.shape[1], out4.shape[2]
    in_grad = x.requires_grad or (norm is not None and (gamma.requires_grad or beta.requires_grad))

    def backward(g):
        g2 = g.reshape(-1, cout)
        grows = _tap_rows(g) if stride == 1 and w.requires_grad else None
        if w.requires_grad:
            if stride == 1:  # a rebuilt input goes straight into dW's padded buffer
                dw = _conv_taps_wgrad(x.data if norm is None else silu_in(h + 2), grows)
            else:  # the columns, rebuilt from x, are a temporary freed before dcol
                dw = (_im2col_flat(_padded(x.data), stride, oh, ow).reshape(-1, 9 * cin).T @ g2).reshape(w.data.shape)
            w.accumulate_grad(dw, fresh=True)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0), fresh=True)
        if shift is not None and shift.requires_grad:
            shift.accumulate_grad(g.sum(axis=(1, 2)), fresh=True)
        if in_grad:
            if stride == 1:
                # input gradient is a convolution of g with the rotated,
                # transposed kernel
                w_rot = np.ascontiguousarray(w.data[::-1, ::-1].transpose(0, 1, 3, 2))
                dx = _conv_taps(g, w_rot, grows)
            else:
                dcol = (g2 @ w.data.reshape(kh * kw * cin, cout).T).reshape(bb, oh, ow, kh, kw, cin)
                dxp = np.zeros((bb, h + 2, ww_ + 2, cin), dtype=g.dtype)
                for ki in range(kh):
                    for kj in range(kw):
                        dxp[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride, :] += dcol[
                            :, :, :, ki, kj, :
                        ]
                dx = dxp[:, 1 : 1 + h, 1 : 1 + ww_, :]
        grows = None  # freed before the SiLU and norm backward
        if residual is not None and residual.requires_grad:
            residual.accumulate_grad(g)
        if not in_grad:
            return
        if norm is None:
            x.accumulate_grad(dx, fresh=True)
            return
        # the SiLU gradient ((1 - sig) * a + sig) * dx, built in dx
        a = silu_in()
        for ai, si in zip(a, sig):  # one image's temporary at a time
            ai *= 1.0 - si
        a += sig
        dx *= a
        a = None
        _group_norm_backward(dx, x, gamma, beta, x3, mu, inv, g_is_scratch=True)

    return make_node(out4, parents, backward)


# ---------------------------------------------------------------------------
# normalization


def _group_norm_affine(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Group-norm forward on (B, H, W, C): (y3, x3, mu, inv, a_bc, s_bc).

    y3 is the (B, H*W, C) output in a fresh buffer, x3 the input viewed the
    same way, mu and inv the (B, G) mean and inverse standard deviation, and
    y3 = x3 * a_bc + s_bc with the (B, C) factors a_bc and s_bc.
    """
    bb, h, w, c = x.shape
    if c % GN_GROUPS:
        raise ValueError(f"channels {c} not divisible by groups {GN_GROUPS}")
    cg = c // GN_GROUPS
    n = h * w * cg
    x3 = x.reshape(bb, h * w, c)
    # per-(batch, group) moments via per-(batch, channel) sums
    sum_bc = x3.sum(axis=1)  # (B, C)
    q_bc = np.einsum("bsc,bsc->bc", x3, x3)  # (B, C)
    mu = sum_bc.reshape(bb, GN_GROUPS, cg).sum(axis=2) / n  # (B, G)
    ex2 = q_bc.reshape(bb, GN_GROUPS, cg).sum(axis=2) / n
    inv = 1.0 / np.sqrt(ex2 - mu * mu + NORM_EPS)  # (B, G)
    # y = x * a + s with per-(batch, channel) affine factors, in one buffer
    a_bc = np.repeat(inv, cg, axis=1) * gamma  # (B, C)
    s_bc = beta - np.repeat(mu, cg, axis=1) * a_bc
    y3 = x3 * a_bc[:, None, :]
    y3 += s_bc[:, None, :]
    return y3, x3, mu, inv, a_bc, s_bc


def _group_norm_backward(g: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor, x3, mu, inv, g_is_scratch=False):
    """Accumulate the group-norm gradients for output gradient g, building dx in g if `g_is_scratch`."""
    bb, h, w, c = x.data.shape
    cg = c // GN_GROUPS
    n = h * w * cg
    g3 = g.reshape(bb, h * w, c)
    if beta.requires_grad:
        beta.accumulate_grad(g3.sum(axis=(0, 1)), fresh=True)
    need_gamma = gamma.requires_grad
    need_x = x.requires_grad
    if not (need_gamma or need_x):
        return
    gs_bc = g3.sum(axis=1)  # (B, C)
    gx_bc = np.einsum("bsc,bsc->bc", g3, x3)  # (B, C)
    inv_bc = np.repeat(inv, cg, axis=1)
    mu_bc = np.repeat(mu, cg, axis=1)
    gxhat_bc = (gx_bc - mu_bc * gs_bc) * inv_bc  # sum over space of g * xhat
    if need_gamma:
        gamma.accumulate_grad(gxhat_bc.sum(axis=0), fresh=True)
    if need_x:
        # dx = inv * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat))
        m1 = ((gs_bc * gamma.data).reshape(bb, GN_GROUPS, cg).sum(axis=2) / n)
        m2 = ((gxhat_bc * gamma.data).reshape(bb, GN_GROUPS, cg).sum(axis=2) / n)
        m1_bc = np.repeat(m1, cg, axis=1)
        m2_bc = np.repeat(m2, cg, axis=1)
        coef_a = inv_bc * gamma.data  # (B, C) multiplies g
        coef_b = inv_bc * inv_bc * m2_bc  # multiplies (x - mu)
        coef_c = inv_bc * m1_bc + coef_b * (-mu_bc)  # constant term
        dx = np.multiply(g3, coef_a[:, None, :], out=g3 if g_is_scratch else None)
        for i in range(bb):  # per image: the x3 term needs no full-size temporary
            dx[i] -= x3[i] * coef_b[i]
        dx -= coef_c[:, None, :]
        x.accumulate_grad(dx.reshape(bb, h, w, c), fresh=True)


def group_norm(x, gamma, beta) -> Tensor:
    """Normalize (B, H, W, C) over spatial dims and channels within each of
    GN_GROUPS groups."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    y3, x3, mu, inv, _, _ = _group_norm_affine(x.data, gamma.data, beta.data)

    def backward(g):
        _group_norm_backward(g, x, gamma, beta, x3, mu, inv)

    return make_node(y3.reshape(x.data.shape), (x, gamma, beta), backward)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis; a zero-variance vector maps to beta."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def backward(g):
        if beta.requires_grad:
            beta.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0), fresh=True)
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).reshape(-1, g.shape[-1]).sum(axis=0), fresh=True)
        if x.requires_grad:
            dxh = g * gamma.data
            s1 = dxh.mean(axis=-1, keepdims=True)
            s2 = (dxh * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (dxh - s1 - xhat * s2), fresh=True)

    return make_node(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# activations

# W. J. Cody's rational approximations of erf and erfc (netlib specfun,
# CALERF; Math. Comp. 23 (1969) 631-637), on |x| <= 0.46875, <= 4 and > 4
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)
_ERF_THRESH, _ERF_XSMALL, _ERF_XBIG = 0.46875, 1.11e-16, 26.543  # erfc(x) rounds to 0 from XBIG on
_INV_SQRTPI = 5.6418958354775628695e-1


def _erfc_scaled_tail(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """erfc(y) from r = exp(y^2) erfc(y), with exp(-y^2) split as CALERF does
    so that it loses no digits."""
    ysq = np.trunc(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq)) * r


def _erf(z: np.ndarray) -> np.ndarray:
    """erf of every entry, in float64 by Cody's approximations, rounded to z's
    dtype. NaN stays NaN, erf(+-inf) = +-1 and erf(+-0) = +-0."""
    x = z.astype(np.float64)
    y = np.abs(x)
    out = x.copy()  # NaN entries, which no branch below selects, stay NaN

    small = y <= _ERF_THRESH
    ys = y[small]
    ysq = np.where(ys > _ERF_XSMALL, ys * ys, 0.0)
    num, den = _ERF_A[4] * ysq, ysq
    for a, b in zip(_ERF_A[:3], _ERF_B[:3]):
        num, den = (num + a) * ysq, (den + b) * ysq
    out[small] = x[small] * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (y > _ERF_THRESH) & (y <= 4.0)
    ys = y[mid]
    num, den = _ERF_C[8] * ys, ys
    for c, d in zip(_ERF_C[:7], _ERF_D[:7]):
        num, den = (num + c) * ys, (den + d) * ys
    erfc_mid = _erfc_scaled_tail(ys, (num + _ERF_C[7]) / (den + _ERF_D[7]))

    big = (y > 4.0) & (y < _ERF_XBIG)
    ys = y[big]
    ysq = 1.0 / (ys * ys)
    num, den = _ERF_P[5] * ysq, ysq
    for p, q in zip(_ERF_P[:4], _ERF_Q[:4]):
        num, den = (num + p) * ysq, (den + q) * ysq
    erfc_big = _erfc_scaled_tail(ys, (_INV_SQRTPI - ysq * (num + _ERF_P[4]) / (den + _ERF_Q[4])) / ys)

    out[mid] = np.copysign((0.5 - erfc_mid) + 0.5, x[mid])
    out[big] = np.copysign((0.5 - erfc_big) + 0.5, x[big])
    huge = y >= _ERF_XBIG  # inf included
    out[huge] = np.copysign(1.0, x[huge])
    return out.astype(z.dtype)


def gelu(x) -> Tensor:
    """x * Phi(x), the exact normal CDF: erf in double (`_erf`), rounded to x's dtype."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def backward(g):
        if x.requires_grad:
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
            x.accumulate_grad(g * (cdf + x.data * pdf), fresh=True)

    return make_node(out, (x,), backward)


def _sigmoid(y: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-y)) in one fresh buffer."""
    sig = np.negative(y)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return sig


def _silu_grad(g: np.ndarray, sig: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d/dy (y * sig) = sig + out * (1 - sig), times g, built in place."""
    d = 1.0 - sig
    d *= out
    d += sig
    d *= g
    return d


def silu(x) -> Tensor:
    x = as_tensor(x)
    sig = _sigmoid(x.data)
    out = x.data * sig

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(_silu_grad(g, sig, out), fresh=True)

    return make_node(out, (x,), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * out).sum(axis=-1, keepdims=True)
            x.accumulate_grad(out * (g - dot), fresh=True)

    return make_node(out, (x,), backward)


def attention(q, k, v) -> Tensor:
    """Scaled dot-product attention: softmax(q k^T / sqrt(d)) v.

    q: (B, N, D), k: (B, M, D), v: (B, M, Dv).
    """
    d = q.shape[-1]
    scores = scale(matmul(q, transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d))
    return matmul(softmax(scores), v)


def dropout(x, p: float, key: RngKey, part: tuple[int, int] | None = None) -> Tensor:
    """Inverted dropout: active units scaled by 1/(1-p) so E[y] = x; the
    identity at p <= 0. Callers apply it only while training. `part` = (lo, n)
    says that x holds rows lo:lo+len(x) of an n-row batch: the mask is drawn
    for the whole batch and cut to those rows, so a batch computed in parts
    drops the units it drops when computed whole."""
    x = as_tensor(x)
    if p <= 0.0:
        return x
    if part is None:
        keep = key.generator().random(x.data.shape) >= p
    else:
        lo, n = part
        keep = (key.generator().random((n, *x.data.shape[1:])) >= p)[lo : lo + x.data.shape[0]]
    m = keep.astype(x.data.dtype) / (1.0 - p)
    out = x.data * m

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * m, fresh=True)

    return make_node(out, (x,), backward)


# ---------------------------------------------------------------------------
# resampling


def upsample_nearest2x(x, residual) -> Tensor:
    """Nearest 2x upsampling of (B, H, W, C), plus `residual` (B, 2H, 2W, C),
    a skip connection added in place, so the graph keeps no upsampled copy."""
    x, residual = as_tensor(x), as_tensor(residual)
    out = x.data.repeat(2, axis=1).repeat(2, axis=2)
    out += residual.data

    def backward(g):
        if residual.requires_grad:
            residual.accumulate_grad(g)
        if x.requires_grad:
            bb, h2, w2, c = g.shape
            # two single-axis reductions beat one dual-axis reduction here
            t = g.reshape(bb * h2 * (w2 // 2), 2, c).sum(axis=1)
            t = t.reshape(bb, h2 // 2, 2, (w2 // 2) * c).sum(axis=2)
            x.accumulate_grad(t.reshape(bb, h2 // 2, w2 // 2, c), fresh=True)

    return make_node(out, (x, residual), backward)


# ---------------------------------------------------------------------------
# time-series helpers (brain module)


def time_aggregate(x, w, b) -> Tensor:
    """Weighted sum over the time axis: (B, T, H) x (T,) -> (B, H), plus scalar bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = np.tensordot(x.data, w.data, axes=([1], [0])) + b.data

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g[:, None, :] * w.data[None, :, None], fresh=True)
        if w.requires_grad:
            w.accumulate_grad(np.tensordot(g, x.data, axes=([0, 1], [0, 2])), fresh=True)
        if b.requires_grad:
            b.accumulate_grad(np.asarray([g.sum()], dtype=b.data.dtype), fresh=True)

    return make_node(out, (x, w, b), backward)


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic sin/cos timestep features; constant w.r.t. parameters."""
    half = dim // 2
    freqs = np.exp(-math.log(TIMESTEP_MAX_PERIOD) * np.arange(half) / half)
    ang = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)
