"""Two-dimensional convolution and pooling over channels-last input.

Input layout is [batch, height, width, channels] and kernels are
[kh, kw, in_channels, out_channels]. The convolution is the
cross-correlation form (no kernel flip). Spatial output extent per axis
follows

    out = floor((in + pad_lo + pad_hi - k - (k - 1) * (dilation - 1)) / stride) + 1

with "valid" padding meaning zero and "same" meaning output size
ceil(in / stride), any odd padding overhang going to the bottom/right
edge. Conv2D takes input in either memory order; its outputs and input
gradients are [b, h, w, c] arrays over channel-major [c, b, h, w]
memory (``np.ascontiguousarray`` gives C order).

Both directions run through one routine, ``_correlate``. The padded
batch [c, b, hp, wp] is read as c rows of b*hp*wp values, so a kernel
tap (ki, kj) is a shift of ki*dh*wp + kj*dw columns. The routine works
on blocks of whole images, as many as keep one block's lowered rows and
partial sums within ``_BLOCK_BYTES`` (at least one image): the
lowered-matrix tiling of Chetlur et al. 2014 (arXiv:1410.0759), with
images as the tiles, so no lowered matrix of the whole batch is ever
made. Block kj of a block's width-lowered matrix holds its rows shifted
by kj*dw columns: kw times the input rather than the kh*kw times of a
full patch matrix (im2col). Each kernel row then adds one
[f, kw*c] @ [kw*c, n] GEMM over a column-shifted slice of it, read in
place, with the long axis as the GEMM's contiguous output dimension,
written straight into the block's columns of the whole batch's output.
Output columns whose window straddles the right or bottom edge of an
image (the last (kw - 1)*dw columns and (kh - 1)*dh rows of the padded
grid) are dropped; a stride above one is computed at stride one and
subsampled.

Forward caches the padded channel-major input for the one backward that
consumes it. Backward writes the upstream gradient, times the
activation derivative, one image at a time into a stride-one grid
(zeros at dropped and skipped positions). It lowers the cached input
again, one block at a time, and takes the weight gradient of kernel row
ki as the sum over blocks of one GEMM of the block's lowered matrix,
shifted by ki*dh*wp columns, against the block's columns of the grid.
The input gradient is a full correlation: the same routine applied to
that grid, after (kh - 1)*dh*wp + (kw - 1)*dw zero columns, with the
flipped, transposed kernel W[::-1, ::-1].transpose(0, 1, 3, 2). Each
block reads its columns of the grid together with those lead columns
before it, which hold zeros: the grid's leading zeros, or the dropped
positions at the end of the image before. Shifts that run off the start
of an image row or image read dropped positions too.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, _activation, _Arg, _checker, _count, _initializer, _padding, _pair

# bytes of one block's width-lowered rows and partial sums in _correlate
_BLOCK_BYTES = 4 * 2**20


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
    return padding, padding


def _to_channel_major(dst, x):
    """Copy ``x`` [b, h, w, c] into ``dst`` [c, b, h, w] a sample at a time:
    for C-ordered [32, 28, 28, 32] three times faster than in one copy."""
    for i in range(len(x)):
        dst[:, i] = x[i].transpose(2, 0, 1)


def _lowered_blocks(src, n, size, width, kernel_shape, dilation):
    """Blocks of whole images of ``src`` [c, >= n] (``size`` columns
    each), width-lowered for a kernel of ``kernel_shape`` [kh, kw, c, f]:
    yields (lo, hi, lowered) for the output columns lo..hi of the first
    n whose taps stay inside ``src``, where lowered [kw*c, ...] holds in
    block kj the columns from lo + kj*dw on. A block holds as many
    images as keep lowered and the [f, hi - lo] partial sums within
    ``_BLOCK_BYTES``, and at least one."""
    kh, kw, c, f = kernel_shape
    dh, dw = dilation
    reach = (kh - 1) * dh * width
    end = min(n, src.shape[1] - reach - (kw - 1) * dw)
    per = size * max(_BLOCK_BYTES // (8 * (kw * c + f) * size), 1)
    buf = np.empty((kw, c, min(per, max(end, 0)) + reach))
    for lo in range(0, end, per):
        hi = min(lo + per, end)
        m = hi - lo + reach
        for kj in range(kw):
            buf[kj, :, :m] = src[:, lo + kj * dw : lo + kj * dw + m]
        yield lo, hi, buf.reshape(kw * c, -1)[:, :m]


def _correlate(src, size, width, kernel, dilation, out):
    """Correlate ``src`` [c, n'], each channel's images flattened at row
    length ``width``, ``size`` columns per image, with ``kernel``
    [kh, kw, c, f], into ``out`` [f, n]:

        out[:, r] = sum over ki, kj of kernel[ki, kj].T @ src[:, r + ki*dh*width + kj*dw]

    a block of images at a time (``_lowered_blocks``). Columns of
    ``out`` whose taps would run past the end of ``src`` are zero."""
    kh, kw, c, f = kernel.shape
    end = 0
    blocks = _lowered_blocks(src, out.shape[1], size, width, kernel.shape, dilation)
    for lo, hi, lowered in blocks:
        if not lo:  # the first block is the widest
            part = np.empty((f, hi))
        end = hi
        for ki in range(kh):
            shift = ki * dilation[0] * width
            wk = kernel[ki].reshape(kw * c, f).T
            rows = lowered[:, shift : shift + hi - lo]
            if ki == 0:
                np.matmul(wk, rows, out=out[:, lo:hi])
            else:
                np.matmul(wk, rows, out=part[:, : hi - lo])
                out[:, lo:hi] += part[:, : hi - lo]
    out[:, end:] = 0.0
    return out


def _weight_gradient(src, grad, size, width, dilation, dW):
    """Write into ``dW`` [kh, kw, c, f] the kernel gradient of the
    correlation of ``src`` [c, n] (``_correlate``) whose output gradient
    is ``grad`` [f, n]:

        dW[ki, kj] = sum over r of src[:, r + ki*dh*width + kj*dw] @ grad[:, r].T

    over the columns r whose taps stay inside ``src``: kernel row ki as a
    sum of one GEMM per block of images (``_lowered_blocks``)."""
    kh, kw, c, f = dW.shape
    dW = dW.reshape(kh, kw * c, f)
    if not src.shape[1]:
        dW[...] = 0.0
    part = np.empty(dW.shape[1:])
    blocks = _lowered_blocks(src, src.shape[1], size, width, (kh, kw, c, f), dilation)
    for lo, hi, lowered in blocks:
        for ki in range(kh):
            shift = ki * dilation[0] * width
            rows = lowered[:, shift : shift + hi - lo]
            np.matmul(rows, grad[:, lo:hi].T, out=part if lo else dW[ki])
            if lo:
                dW[ki] += part


class Conv2D(Layer):
    kind = "conv2d"
    _rank, _form = 3, "[height, width, channels]"
    _args = (
        _Arg("filters", _count),
        _Arg("kernel_size", _pair),
        _Arg("stride", _pair, 1),
        _Arg("padding", _padding, "valid"),
        _Arg("dilation", _pair, 1),
        _Arg("activation", _activation, "linear"),
        _Arg("init", _initializer, "glorot", saved=False),
    )

    _drawn = ("W",)

    def _shapes(self, input_shape):
        return {"W": self.kernel_size + (input_shape[2], self.filters), "b": (self.filters,)}, {}

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
        sh, sw = self.stride
        geom = self._geometry(h, w)
        pt, pb, pl, pr, oh, ow = geom
        hp, wp = h + pt + pb, w + pl + pr
        xp = np.zeros((cin, b, hp, wp))
        _to_channel_major(xp[:, :, pt : pt + h, pl : pl + w], x)
        out = np.empty((self.filters, b * hp * wp))
        _correlate(xp.reshape(cin, -1), hp * wp, wp, self.params["W"], self.dilation, out)
        out = out.reshape(self.filters, b, hp, wp)[:, :, : oh * sh : sh, : ow * sw : sw]
        # a [b, oh, ow, f] view; the sum keeps its channel-major order
        pre = out.transpose(1, 2, 3, 0) + self.params["b"]
        return self._activate(pre, xp, geom)

    def _place(self, grid, upstream, preact, pre, out):
        """Write the gradient at the preactivation into ``grid``
        [f, b, oh, ow]: ``upstream``, times the activation derivative
        unless ``preact``, one image at a time."""
        if preact:
            _to_channel_major(grid, upstream)
            return
        deriv = self.activation.deriv
        for i in range(len(upstream)):
            np.multiply(
                upstream[i].transpose(2, 0, 1),
                deriv(pre[i], out[i]).transpose(2, 0, 1),
                out=grid[:, i],
            )

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        pre, out, xp, (pt, pb, pl, pr, oh, ow) = self._take_cache()
        cin, b, hp, wp = xp.shape
        kh, kw = self.kernel_size
        sh, sw = self.stride
        dh, dw = self.dilation
        f = self.filters
        n = b * hp * wp
        lead = (kh - 1) * dh * wp + (kw - 1) * dw
        # the gradient on the stride-one grid, after lead zero columns
        grid = np.zeros((f, lead + n))
        placed = grid[:, lead:]
        self._place(
            placed.reshape(f, b, hp, wp)[:, :, : oh * sh : sh, : ow * sw : sw],
            upstream, preact, pre, out,
        )
        if param_grads:
            _weight_gradient(
                xp.reshape(cin, n), placed, hp * wp, wp, self.dilation, self.grads["W"]
            )
            np.sum(placed, axis=1, out=self.grads["b"])
        # free the forward's cache before the input gradient allocates
        del pre, out, xp
        self._spent = None
        if not input_grad:
            return None
        W = self.params["W"]
        flipped = np.ascontiguousarray(W[::-1, ::-1].transpose(0, 1, 3, 2))
        dxp = _correlate(grid, hp * wp, wp, flipped, self.dilation, np.empty((cin, n)))
        dxp = dxp.reshape(cin, b, hp, wp)[:, :, pt : hp - pb, pl : wp - pr]
        return dxp.transpose(1, 2, 3, 0)


class Pool2D(Layer):
    """Max or average pooling; ``pool_size`` and ``stride`` (default: the
    pool size) are ints or pairs, at least 1. Max pools a window holding
    a NaN to NaN, and its backward routes each upstream value to the
    window's first maximum in row-major scan order, or to its first NaN;
    average spreads it uniformly. No window is copied out: each mode
    runs over the ph*pw strided views of the input, one per cell."""

    kind = "pool2d"
    _rank, _form = 3, "[height, width, channels]"
    _args = (
        _Arg("pool_size", _pair),
        _Arg("stride", _pair, None),
        _Arg("mode", _checker("max or avg", lambda v: v in ("max", "avg")), "max"),
    )

    def __init__(self, pool_size, stride=None, mode="max"):
        super().__init__(pool_size, pool_size if stride is None else stride, mode)

    def out_shape(self, input_shape):
        h, w, c = input_shape
        (ph, pw), (sh, sw) = self.pool_size, self.stride
        return conv_output_size(h, ph, sh, 0, 0), conv_output_size(w, pw, sw, 0, 0), c

    def _views(self, x, oh, ow):
        """View k holds cell (k // pw, k % pw) of every [oh, ow] window."""
        (ph, pw), (sh, sw) = self.pool_size, self.stride
        for pi in range(ph):
            for pj in range(pw):
                yield x[:, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :]

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        oh, ow, _ = self.out_shape(x.shape[1:])
        views = self._views(x, oh, ow)
        if self.mode == "max":
            out = next(views).copy()
            for view in views:
                np.maximum(out, view, out=out)
        else:
            # from +0.0, as np.add.reduce sums: a window of -0.0 pools to +0.0
            out = np.zeros((x.shape[0], oh, ow, x.shape[3]))
            for view in views:
                out += view
            out /= self.pool_size[0] * self.pool_size[1]
        self._cache = (x, out)
        return out

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        x, out = self._take_cache()
        if not input_grad:
            return None
        oh, ow = out.shape[1:3]
        dx = np.zeros(x.shape)
        if self.mode == "avg":
            share = upstream / (self.pool_size[0] * self.pool_size[1])
            for dview in self._views(dx, oh, ow):
                dview += share
            return dx
        # a NaN max equals no cell: route to the first NaN in this same
        # pass, so each dx cell sums its terms in scan order
        nan = np.isnan(out).any()
        hit = np.empty(out.shape, dtype=bool)
        taken = np.zeros(out.shape, dtype=bool)
        for view, dview in zip(self._views(x, oh, ow), self._views(dx, oh, ow)):
            np.equal(view, out, out=hit)
            if nan:
                hit |= np.isnan(view)
            hit &= ~taken
            taken |= hit
            dview += upstream * hit
        return dx
