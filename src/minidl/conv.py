"""Two-dimensional convolution and pooling over channels-last input.

Input layout is [batch, height, width, channels] and kernels are
[kh, kw, in_channels, out_channels]. The convolution is the
cross-correlation form (no kernel flip). Spatial output extent per axis
follows

    out = floor((in + pad_lo + pad_hi - k - (k - 1) * (dilation - 1)) / stride) + 1

with "valid" padding meaning zero and "same" meaning output size
ceil(in / stride), any odd padding overhang going to the bottom/right
edge.

Both directions run through one routine, ``_correlate``. The padded
batch [b, hp, wp, c] is read as b*hp*wp rows of c values, so a kernel
tap (ki, kj) is a shift of ki*dh*wp + kj*dw rows. The rows are lowered
along the kernel width only: row r of the lowered matrix holds input
rows r, r + dw, ..., r + (kw - 1)*dw side by side, kw times the input
rather than the kh*kw times of a full patch matrix (im2col). Each
kernel row then adds one GEMM over a shifted contiguous slice of it.
Output rows whose window straddles the right or bottom edge of an
image (the last (kw - 1)*dw columns and (kh - 1)*dh rows of the padded
grid) are dropped; a stride above one is computed at stride one and
subsampled.

Forward caches the kw-lowered padded input, and backward consumes that
cache, so each forward serves one backward. Backward takes the weight
gradient of kernel row ki as one GEMM of that cached matrix, shifted
by ki*dh*wp rows, against the upstream gradient laid out on the same
stride-one row grid (zeros at dropped and skipped positions). The input
gradient is a full correlation: the same routine applied to that grid,
preceded by (kh - 1)*dh*wp + (kw - 1)*dw zero rows, with the flipped,
transposed kernel W[::-1, ::-1].transpose(0, 1, 3, 2). Shifts that run
off the start of an image row or image read dropped positions, which
hold zeros.
"""

from __future__ import annotations

import numpy as np

from . import activations
from .layers import Layer, get_initializer, positive_int


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError("expected a pair, got %r" % (v,))
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _positive_pair(name, v):
    pair = _pair(v)
    if min(pair) < 1:
        raise ValueError("%s must be at least 1, got %r" % (name, v))
    return pair


def conv_output_size(n, k, stride, pad_lo, pad_hi, dilation=1):
    eff = k + (k - 1) * (dilation - 1)
    span = n + pad_lo + pad_hi - eff
    if span < 0:
        raise ValueError(
            "kernel extent %d (dilation %d) exceeds padded input %d"
            % (eff, dilation, n + pad_lo + pad_hi)
        )
    return span // stride + 1


def _resolve_padding(padding, n, k, stride, dilation):
    """Per-axis (lo, hi) padding. Strings: valid or same."""
    eff = k + (k - 1) * (dilation - 1)
    if padding == "valid":
        return 0, 0
    if padding == "same":
        out = -(-n // stride)  # ceil
        total = max((out - 1) * stride + eff - n, 0)
        lo = total // 2
        return lo, total - lo
    p = int(padding)
    return p, p


def _lower_rows(rows, kw, dw):
    """[n, c] contiguous rows to [n - (kw - 1)*dw, kw*c]: row r is rows
    r, r + dw, ..., r + (kw - 1)*dw laid side by side."""
    n, c = rows.shape
    m = max(n - (kw - 1) * dw, 0)
    step = rows.strides[0]
    taps = np.lib.stride_tricks.as_strided(
        rows, (m, kw, c), (step, dw * step, rows.strides[1]), writeable=False
    )
    # a copy: with dw == 1 the reshape alone would be an overlapping view,
    # which matmul cannot hand to BLAS
    return np.ascontiguousarray(taps).reshape(m, kw * c)


def _correlate(rows, width, kernel, dilation):
    """Correlate row-flattened images of row length ``width`` with
    ``kernel`` [kh, kw, c, f]:

        out[r] = sum over ki, kj of rows[r + ki*dh*width + kj*dw] @ kernel[ki, kj]

    ``out`` has one row per input row; the last (kh - 1)*dh*width +
    (kw - 1)*dw rows, whose taps would run past the end, are zero.
    Returns ``out`` and the width-lowered rows."""
    kh, kw, c, f = kernel.shape
    dh, dw = dilation
    lowered = _lower_rows(rows, kw, dw)
    n = rows.shape[0]
    n_out = max(n - (kh - 1) * dh * width - (kw - 1) * dw, 0)
    out = np.empty((n, f))
    out[n_out:] = 0.0
    part = np.empty((n_out, f))
    for ki in range(kh):
        lo = ki * dh * width
        wk = kernel[ki].reshape(kw * c, f)
        if ki == 0:
            np.matmul(lowered[:n_out], wk, out=out[:n_out])
        else:
            np.matmul(lowered[lo : lo + n_out], wk, out=part)
            out[:n_out] += part
    return out, lowered


class Conv2D(Layer):
    kind = "conv2d"

    def __init__(
        self,
        filters,
        kernel_size,
        stride=1,
        padding="valid",
        dilation=1,
        activation="linear",
        init="glorot",
    ):
        super().__init__()
        self.filters = positive_int("filters", filters)
        self.kernel_size = _positive_pair("kernel_size", kernel_size)
        self.stride = _positive_pair("stride", stride)
        self.padding = padding
        self.dilation = _positive_pair("dilation", dilation)
        self.activation = activations.get(activation)
        self._init_spec = init

    def build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ValueError(
                "conv2d expects [height, width, channels] input, got %s"
                % (input_shape,)
            )
        kh, kw = self.kernel_size
        cin = input_shape[2]
        fan_in = kh * kw * cin
        fan_out = kh * kw * self.filters
        init = get_initializer(self._init_spec)
        self.params = {
            "W": init((kh, kw, cin, self.filters), rng, fan_in, fan_out),
            "b": np.zeros(self.filters),
        }
        super().build(input_shape, rng)

    def _geometry(self, h, w):
        kh, kw = self.kernel_size
        sh, sw = self.stride
        dh, dw = self.dilation
        pt, pb = _resolve_padding(self.padding, h, kh, sh, dh)
        pl, pr = _resolve_padding(self.padding, w, kw, sw, dw)
        oh = conv_output_size(h, kh, sh, pt, pb, dh)
        ow = conv_output_size(w, kw, sw, pl, pr, dw)
        return (pt, pb, pl, pr, oh, ow)

    def out_shape(self, input_shape):
        h, w, _ = input_shape
        *_, oh, ow = self._geometry(h, w)
        return (oh, ow, self.filters)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, h, w, cin = x.shape
        # drop the last call's cache before lowering this input, so the
        # two lowered copies are never alive at once
        self._cache = None
        sh, sw = self.stride
        geom = self._geometry(h, w)
        pt, pb, pl, pr, oh, ow = geom
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        _, hp, wp, _ = xp.shape
        out, lowered = _correlate(
            xp.reshape(b * hp * wp, cin), wp, self.params["W"], self.dilation
        )
        out = out.reshape(b, hp, wp, self.filters)
        self._cache = (lowered, xp.shape, geom)
        self._pre = out[:, : oh * sh : sh, : ow * sw : sw] + self.params["b"]
        self._out = self.activation.fn(self._pre)
        return self._out

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        lowered, (b, hp, wp, cin), (pt, pb, pl, pr, oh, ow) = self._take_cache()
        if preact:
            delta = upstream
        else:
            delta = upstream * self.activation.deriv(self._pre, self._out)
        kh, kw = self.kernel_size
        sh, sw = self.stride
        dh, dw = self.dilation
        n = b * hp * wp
        lead = (kh - 1) * dh * wp + (kw - 1) * dw
        # upstream gradient on the stride-one row grid, after lead zero rows
        grid = np.zeros((lead + n, self.filters))
        placed = grid[lead:]
        placed.reshape(b, hp, wp, self.filters)[:, : oh * sh : sh, : ow * sw : sw] = delta
        if param_grads:
            valid = placed[: n - lead]
            dW = self.grads["W"].reshape(kh, kw * cin, self.filters)
            for ki in range(kh):
                lo = ki * dh * wp
                np.matmul(lowered[lo : lo + n - lead].T, valid, out=dW[ki])
            np.sum(delta.reshape(-1, self.filters), axis=0, out=self.grads["b"])
        # free the forward's lowered input before the input gradient
        # lowers its own
        del lowered
        if not input_grad:
            return None
        W = self.params["W"]
        flipped = np.ascontiguousarray(W[::-1, ::-1].transpose(0, 1, 3, 2))
        dxp, _ = _correlate(grid, wp, flipped, self.dilation)
        h = hp - pt - pb
        w = wp - pl - pr
        return dxp[:n].reshape(b, hp, wp, cin)[:, pt : pt + h, pl : pl + w, :]

    def hyper(self):
        return {
            "filters": self.filters,
            "kernel_size": list(self.kernel_size),
            "stride": list(self.stride),
            "padding": self.padding,
            "dilation": list(self.dilation),
            "activation": self.activation.name,
        }

    @property
    def preactivation(self):
        return self._pre


class Pool2D(Layer):
    """Max or average pooling. Stride defaults to the pool size. Max
    routes each upstream value to the first maximum of its window in
    row-major scan order; average spreads it uniformly."""

    kind = "pool2d"

    def __init__(self, pool_size, stride=None, mode="max"):
        super().__init__()
        if mode not in ("max", "avg"):
            raise ValueError("pool mode must be max or avg, got %r" % (mode,))
        self.pool_size = _pair(pool_size)
        self.stride = _pair(stride) if stride is not None else self.pool_size
        self.mode = mode

    def build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ValueError(
                "pool2d expects [height, width, channels] input, got %s"
                % (input_shape,)
            )
        super().build(input_shape, rng)

    def out_shape(self, input_shape):
        h, w, c = input_shape
        ph, pw = self.pool_size
        sh, sw = self.stride
        return (
            conv_output_size(h, ph, sh, 0, 0),
            conv_output_size(w, pw, sw, 0, 0),
            c,
        )

    def _windows(self, x, oh, ow):
        b, h, w, c = x.shape
        ph, pw = self.pool_size
        sh, sw = self.stride
        win = np.empty((b, oh, ow, ph * pw, c))
        for pi in range(ph):
            for pj in range(pw):
                win[:, :, :, pi * pw + pj, :] = x[
                    :, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :
                ]
        return win

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        oh, ow, _ = self.out_shape(x.shape[1:])
        win = self._windows(x, oh, ow)
        self._x_shape = x.shape
        self._geom = (oh, ow)
        if self.mode == "max":
            self._arg = np.argmax(win, axis=3)  # first max wins ties
            return np.max(win, axis=3)
        return np.mean(win, axis=3)

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        if not input_grad:
            return None
        oh, ow = self._geom
        ph, pw = self.pool_size
        sh, sw = self.stride
        dx = np.zeros(self._x_shape)
        if self.mode == "max":
            for cell in range(ph * pw):
                mask = (self._arg == cell).astype(np.float64)
                pi, pj = divmod(cell, pw)
                dx[:, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :] += (
                    upstream * mask
                )
        else:
            share = upstream / (ph * pw)
            for cell in range(ph * pw):
                pi, pj = divmod(cell, pw)
                dx[:, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :] += share
        return dx

    def hyper(self):
        return {
            "pool_size": list(self.pool_size),
            "stride": list(self.stride),
            "mode": self.mode,
        }
