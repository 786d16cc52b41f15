import itertools
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import fd_grads
from minidl import cli, conv
from minidl.model import SequentialModel
from minidl.tensor import Rng


def direct_conv(x, w, b, stride, padding, dilation):
    """Six-loop reference convolution (cross-correlation), channels
    last. Deliberately naive: written without any shared code with the
    layer under test."""
    bs, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    sh, sw = stride
    dh, dw = dilation
    pt, pb = conv._resolve_padding(padding, h, kh, sh, dh)
    pl, pr = conv._resolve_padding(padding, wd, kw, sw, dw)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    oh = conv.conv_output_size(h, kh, sh, pt, pb, dh)
    ow = conv.conv_output_size(wd, kw, sw, pl, pr, dw)
    out = np.zeros((bs, oh, ow, cout))
    for n in range(bs):
        for i in range(oh):
            for j in range(ow):
                for f in range(cout):
                    acc = 0.0
                    for ki in range(kh):
                        for kj in range(kw):
                            for c in range(cin):
                                acc += (
                                    xp[n, i * sh + ki * dh, j * sw + kj * dw, c]
                                    * w[ki, kj, c, f]
                                )
                    out[n, i, j, f] = acc + b[f]
    return out


def direct_conv_backward(x, w, up, stride, padding, dilation):
    """Loop reference for the gradients of L = sum(conv(x) * up) with
    respect to the input, the kernel and the bias, where ``up`` is the
    gradient at the preactivation. Each output cell hands its upstream
    value back to every input cell and weight it read; written, like
    ``direct_conv``, without any shared code with the layer under test."""
    bs, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    sh, sw = stride
    dh, dw = dilation
    pt, pb = conv._resolve_padding(padding, h, kh, sh, dh)
    pl, pr = conv._resolve_padding(padding, wd, kw, sw, dw)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    _, oh, ow, _ = up.shape
    dxp = np.zeros(xp.shape)
    dw_ = np.zeros(w.shape)
    db = np.zeros(cout)
    for n in range(bs):
        for i in range(oh):
            for j in range(ow):
                for f in range(cout):
                    g = up[n, i, j, f]
                    db[f] += g
                    for ki in range(kh):
                        for kj in range(kw):
                            r = i * sh + ki * dh
                            q = j * sw + kj * dw
                            for c in range(cin):
                                dw_[ki, kj, c, f] += xp[n, r, q, c] * g
                                dxp[n, r, q, c] += w[ki, kj, c, f] * g
    return dxp[:, pt : pt + h, pl : pl + wd, :], dw_, db


def assert_rel_close(got, want, rel=1e-12):
    """Largest absolute difference within ``rel`` of the largest
    reference magnitude (equal arrays for an all-zero reference)."""
    assert got.shape == want.shape
    if want.size:
        err = np.max(np.abs(got - want))
        assert err <= rel * np.max(np.abs(want)), err


class TestOutputSize:
    def test_formula(self):
        # Manually calculated: (7 + 0 + 0 - 3) // 1 + 1
        assert conv.conv_output_size(7, 3, 1, 0, 0) == 5
        assert conv.conv_output_size(7, 3, 2, 0, 0) == 3
        assert conv.conv_output_size(7, 3, 2, 1, 1) == 4
        # dilation 2 makes a 3-kernel span 5 cells
        assert conv.conv_output_size(7, 3, 1, 0, 0, dilation=2) == 3
        assert conv.conv_output_size(28, 5, 1, 2, 2) == 28

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            conv.conv_output_size(4, 7, 1, 0, 0)
        with pytest.raises(ValueError, match="exceeds"):
            conv.conv_output_size(4, 3, 1, 0, 0, dilation=2)

    @pytest.mark.parametrize("n,k,s", list(itertools.product([5, 6, 28], [1, 2, 3], [1, 2, 3])))
    def test_same_padding_gives_ceil(self, n, k, s):
        pt, pb = conv._resolve_padding("same", n, k, s, 1)
        out = conv.conv_output_size(n, k, s, pt, pb)
        assert out == -(-n // s)
        assert pb >= pt  # overhang goes to the far edge

    def test_valid_padding_is_zero(self):
        assert conv._resolve_padding("valid", 9, 3, 1, 1) == (0, 0)

    def test_integer_padding_is_symmetric(self):
        assert conv._resolve_padding(2, 9, 3, 1, 1) == (2, 2)

    @pytest.mark.parametrize(
        "padding", [-1, 1.5, float("nan"), float("inf"), True, "full", "1", None, (1, 1)]
    )
    def test_padding_other_than_valid_same_or_a_whole_number_rejected(self, padding):
        with pytest.raises(ValueError, match="padding must be"):
            conv.Conv2D(2, 3, padding=padding)

    @pytest.mark.parametrize("padding, kept", [("valid", "valid"), ("same", "same"), (0, 0),
                                               (2, 2), (2.0, 2), (np.int64(1), 1)])
    def test_padding_kept_as_given_or_as_an_int(self, padding, kept):
        layer = conv.Conv2D(2, 3, padding=padding)
        assert layer.hyper()["padding"] == kept
        assert type(layer.hyper()["padding"]) is type(kept)


class TestConv2DForward:
    def test_manual_sum_kernel(self):
        layer = conv.Conv2D(1, 2)
        layer.build((3, 3, 1), Rng(0))
        layer.params["W"][:] = 1.0
        layer.params["b"][:] = 0.0
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        out = layer.forward(x)
        # Manually calculated 2x2 window sums of [[0..2],[3..5],[6..8]]
        npt.assert_allclose(out[0, :, :, 0], [[8.0, 12.0], [20.0, 24.0]])

    def test_manual_edge_kernel(self):
        layer = conv.Conv2D(1, (1, 2))
        layer.build((1, 4, 1), Rng(0))
        layer.params["W"][:, :, 0, 0] = [[-1.0, 1.0]]
        x = np.array([0.0, 0.0, 5.0, 5.0]).reshape(1, 1, 4, 1)
        out = layer.forward(x)
        npt.assert_allclose(out[0, 0, :, 0], [0.0, 5.0, 0.0])

    def test_bias_per_filter(self):
        layer = conv.Conv2D(2, 1)
        layer.build((2, 2, 1), Rng(0))
        layer.params["W"][:] = 0.0
        layer.params["b"][:] = [1.5, -2.0]
        out = layer.forward(np.zeros((1, 2, 2, 1)))
        npt.assert_allclose(out[..., 0], 1.5)
        npt.assert_allclose(out[..., 1], -2.0)

    @pytest.mark.parametrize(
        "k,s,p,d",
        [
            (k, s, p, d)
            for k, s, p, d in itertools.product(
                [1, 2, 3], [1, 2], ["valid", "same", 1], [1, 2]
            )
            if not (k == 3 and d == 2 and p == "valid")  # span 5 fits everywhere else
        ],
    )
    def test_matches_direct_convolution(self, k, s, p, d):
        rng = Rng(k * 100 + s * 10 + d)
        layer = conv.Conv2D(3, k, stride=s, padding=p, dilation=d)
        layer.build((5, 6, 2), rng)
        x = rng.normal((2, 5, 6, 2))
        got = layer.forward(x)
        want = direct_conv(
            x, layer.params["W"], layer.params["b"], (s, s), p, (d, d)
        )
        npt.assert_allclose(got, want, atol=1e-10)
        assert got.shape[1:] == layer.out_shape((5, 6, 2))

    def test_dilated_matches_direct(self):
        rng = Rng(5)
        layer = conv.Conv2D(2, 3, padding="same", dilation=2)
        layer.build((7, 7, 1), rng)
        x = rng.normal((1, 7, 7, 1))
        want = direct_conv(x, layer.params["W"], layer.params["b"], (1, 1), "same", (2, 2))
        npt.assert_allclose(layer.forward(x), want, atol=1e-10)

    def test_rectangular_kernel_and_stride(self):
        rng = Rng(6)
        layer = conv.Conv2D(2, (2, 3), stride=(1, 2))
        layer.build((5, 8, 2), rng)
        x = rng.normal((2, 5, 8, 2))
        want = direct_conv(x, layer.params["W"], layer.params["b"], (1, 2), "valid", (1, 1))
        got = layer.forward(x)
        assert got.shape == (2, 4, 3, 2)
        npt.assert_allclose(got, want, atol=1e-10)

    def test_activation_applied(self):
        layer = conv.Conv2D(1, 1, activation="relu")
        layer.build((2, 2, 1), Rng(0))
        layer.params["W"][:] = 1.0
        x = np.array([[-1.0, 2.0], [3.0, -4.0]]).reshape(1, 2, 2, 1)
        out = layer.forward(x)
        npt.assert_allclose(out[0, :, :, 0], [[0.0, 2.0], [3.0, 0.0]])
        npt.assert_allclose(layer.preactivation[0, :, :, 0], [[-1.0, 2.0], [3.0, -4.0]])

    def test_param_count(self):
        layer = conv.Conv2D(32, 3)
        layer.build((32, 32, 3), Rng(0))
        assert layer.param_count() == 3 * 3 * 3 * 32 + 32


class TestConv2DBackward:
    @pytest.mark.parametrize(
        "k,s,p,d,act",
        [
            (2, 1, "valid", 1, "linear"),
            (3, 1, "same", 1, "relu"),
            (2, 2, "same", 1, "linear"),
            (3, 2, 1, 1, "tanh"),
            (2, 1, "valid", 2, "linear"),
            (3, 1, "same", 2, "sigmoid"),
        ],
    )
    def test_matches_finite_differences(self, k, s, p, d, act):
        rng = Rng(41)
        layer = conv.Conv2D(3, k, stride=s, padding=p, dilation=d, activation=act)
        layer.build((5, 6, 2), rng)
        x = rng.normal((2, 5, 6, 2)) + 0.05
        up = rng.normal((2,) + layer.out_shape((5, 6, 2)))
        want = fd_grads(lambda: np.sum(layer.forward(x) * up), 1e-6, x=x, **layer.params)
        layer.forward(x)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-5)
        npt.assert_allclose(layer.grads["W"], want["W"], atol=1e-5)
        npt.assert_allclose(layer.grads["b"], want["b"], atol=1e-5)

    @pytest.mark.parametrize(
        "k,s,p,d,in_shape",
        [
            (k, s, p, d, (5, 6, 2))
            for k, s, p, d in itertools.product(
                [1, 2, 3], [1, 2], ["valid", "same", 1], [1, 2]
            )
            if not (k == 3 and d == 2 and p == "valid")
        ]
        + [
            ((2, 3), (1, 2), "valid", 1, (5, 8, 2)),
            ((3, 2), (2, 1), "same", (1, 2), (6, 7, 2)),
            (3, 1, "same", 1, (6, 7, 1)),
            (3, 2, 1, 1, (6, 7, 1)),
            (3, 1, "same", 2, (7, 6, 3)),
            ((2, 3), 2, "valid", 1, (6, 7, 3)),
        ],
    )
    def test_matches_direct_backward(self, k, s, p, d, in_shape):
        # summation order differs from the loops; 1e-12 relative bounds
        # it where the finite-difference tests above (atol 1e-5) cannot
        rng = Rng(43)
        layer = conv.Conv2D(3, k, stride=s, padding=p, dilation=d, activation="tanh")
        layer.build(in_shape, rng)
        x = rng.normal((2,) + in_shape)
        up = rng.normal((2,) + layer.out_shape(in_shape))
        layer.forward(x)
        dx = layer.backward(up, preact=True)
        want_dx, want_dw, want_db = direct_conv_backward(
            x, layer.params["W"], up, layer.stride, p, layer.dilation
        )
        assert_rel_close(dx, want_dx)
        assert_rel_close(layer.grads["W"], want_dw)
        assert_rel_close(layer.grads["b"], want_db)

    def test_backward_consumes_forward_cache(self):
        layer = conv.Conv2D(2, 3, padding="same")
        layer.build((4, 4, 1), Rng(0))
        x = Rng(1).normal((2, 4, 4, 1))
        up = Rng(2).normal((2, 4, 4, 2))
        with pytest.raises(ValueError, match="conv2d backward needs a forward"):
            layer.backward(up)
        layer.forward(x)
        first = layer.backward(up).copy()
        with pytest.raises(ValueError, match="conv2d backward needs a forward"):
            layer.backward(up)
        layer.forward(x)
        npt.assert_array_equal(layer.backward(up), first)

    def test_preact_flag(self):
        rng = Rng(42)
        lin = conv.Conv2D(2, 2, activation="linear")
        sig = conv.Conv2D(2, 2, activation="sigmoid")
        lin.build((3, 3, 1), rng)
        sig.build((3, 3, 1), Rng(42))
        sig.params["W"][:] = lin.params["W"]
        x = Rng(1).normal((2, 3, 3, 1))
        up = Rng(2).normal((2, 2, 2, 2))
        lin.forward(x)
        sig.forward(x)
        npt.assert_allclose(sig.backward(up, preact=True), lin.backward(up))

    def test_hyper_round_trip(self):
        layer = conv.Conv2D(4, (2, 3), stride=2, padding="same", dilation=(1, 2), activation="relu")
        rebuilt = conv.Conv2D(**layer.hyper())
        rebuilt.build((8, 9, 2), Rng(7))
        layer.build((8, 9, 2), Rng(7))
        x = Rng(3).normal((1, 8, 9, 2))
        npt.assert_array_equal(layer.forward(x), rebuilt.forward(x))


def lower_rows_rowmajor(rows, kw, dw):
    """[n, c] contiguous rows to [n - (kw - 1)*dw, kw*c]: row r is rows
    r, r + dw, ..., r + (kw - 1)*dw laid side by side."""
    n, c = rows.shape
    m = max(n - (kw - 1) * dw, 0)
    step = rows.strides[0]
    taps = np.lib.stride_tricks.as_strided(
        rows, (m, kw, c), (step, dw * step, rows.strides[1]), writeable=False
    )
    return np.ascontiguousarray(taps).reshape(m, kw * c)


def correlate_rowmajor(rows, width, kernel, dilation):
    """Row-major correlation: ``rows`` [n, c] are the padded batch
    [b, hp, wp, c] read as rows of c values, and out [n, f] has one row
    per input row, zero where the taps would run past the end."""
    kh, kw, c, f = kernel.shape
    dh, dw = dilation
    lowered = lower_rows_rowmajor(rows, kw, dw)
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


class RowMajorConv2D(conv.Conv2D):
    """The layer as it was before it went channel-major: the padded batch
    as [b*hp*wp, c] rows and every GEMM as [rows, K] @ [K, f]. Kept as the
    reference that the channel-major layer must match within 1e-12."""

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, h, w, cin = x.shape
        sh, sw = self.stride
        geom = self._geometry(h, w)
        pt, pb, pl, pr, oh, ow = geom
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        _, hp, wp, _ = xp.shape
        out, lowered = correlate_rowmajor(
            xp.reshape(b * hp * wp, cin), wp, self.params["W"], self.dilation
        )
        out = out.reshape(b, hp, wp, self.filters)
        pre = out[:, : oh * sh : sh, : ow * sw : sw] + self.params["b"]
        return self._activate(pre, lowered, xp.shape, geom)

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        pre, out, lowered, (b, hp, wp, cin), (pt, pb, pl, pr, oh, ow) = self._take_cache()
        if preact:
            delta = upstream
        else:
            delta = upstream * self.activation.deriv(pre, out)
        kh, kw = self.kernel_size
        sh, sw = self.stride
        dh, dw = self.dilation
        n = b * hp * wp
        lead = (kh - 1) * dh * wp + (kw - 1) * dw
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
        if not input_grad:
            return None
        W = self.params["W"]
        flipped = np.ascontiguousarray(W[::-1, ::-1].transpose(0, 1, 3, 2))
        dxp, _ = correlate_rowmajor(grid, wp, flipped, self.dilation)
        h = hp - pt - pb
        w = wp - pl - pr
        return dxp[:n].reshape(b, hp, wp, cin)[:, pt : pt + h, pl : pl + w, :]


def channel_major(x):
    """``x`` [b, h, w, c] with the same values over [c, b, h, w] memory."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)


def conv_outcome(layer, x, up, preact, input_grad, param_grads):
    """Output, input gradient and parameter gradients of one forward and
    one backward, each copied."""
    out = layer.forward(x).copy()
    dx = layer.backward(up, preact=preact, input_grad=input_grad, param_grads=param_grads)
    return [out, None if dx is None else dx.copy()] + [
        layer.grads[k].copy() for k in ("W", "b")
    ]


def block_budget(layer, in_shape, images):
    """Columns per padded image, and the ``_BLOCK_BYTES`` that puts
    ``images`` images in each block of the layer's forward and weight
    gradient."""
    pt, pb, pl, pr, _, _ = layer._geometry(*in_shape[:2])
    size = (in_shape[0] + pt + pb) * (in_shape[1] + pl + pr)
    return size, images * 8 * (layer.kernel_size[1] * in_shape[2] + layer.filters) * size


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    dilation = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    padding = draw(st.sampled_from(["valid", "same", 0, 1, 2]))
    cin = draw(st.sampled_from([1, 3, 32]))
    filters = draw(st.sampled_from([1, 2, 5, 16]))
    # from the smallest input each kernel extent fits at "valid"
    h, w = (
        k + (k - 1) * (d - 1) + draw(st.integers(0, 4)) for k, d in zip(kernel, dilation)
    )
    batch = draw(st.integers(0, 4))
    return kernel, stride, dilation, padding, (h, w, cin), filters, batch


class TestConv2DMatchesRowMajorReference:
    """The channel-major layer against the row-major one it replaced:
    every GEMM runs in the other orientation, over blocks of images, so
    BLAS may sum in another order, and 1e-12 relative bounds the
    difference."""

    @given(
        case=conv_cases(),
        activation=st.sampled_from(["linear", "relu", "tanh"]),
        preact=st.booleans(),
        input_grad=st.booleans(),
        param_grads=st.booleans(),
        seed=st.integers(0, 2**16),
        images=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_cases(self, case, activation, preact, input_grad, param_grads, seed,
                          images):
        kernel, stride, dilation, padding, in_shape, filters, batch = case
        rng = Rng(seed)
        layers = [
            cls(filters, kernel, stride=stride, padding=padding, dilation=dilation,
                activation=activation)
            for cls in (conv.Conv2D, conv.Conv2D, RowMajorConv2D)
        ]
        for layer in layers:
            layer.build(in_shape, Rng(seed))
        x = rng.normal((batch,) + in_shape)
        up = rng.normal((batch,) + layers[0].out_shape(in_shape))
        flags = preact, input_grad, param_grads
        # the input gradient's blocks differ when the channel and filter
        # counts do
        _, budget = block_budget(layers[0], in_shape, images)
        with mock.patch.object(conv, "_BLOCK_BYTES", budget):
            got = conv_outcome(layers[0], x, up, *flags)
            fed_channel_major = conv_outcome(layers[1], channel_major(x), up, *flags)
        want = conv_outcome(layers[2], x, up, *flags)
        for g, c, r in zip(got, fed_channel_major, want):
            if r is None:
                assert g is None and c is None
                continue
            assert g.tobytes() == c.tobytes()
            assert_rel_close(g, r)

    def test_bound_catches_a_small_error(self):
        layer = conv.Conv2D(4, 3, padding="same")
        layer.build((6, 5, 3), Rng(0))
        want = RowMajorConv2D(4, 3, padding="same")
        want.build((6, 5, 3), Rng(0))
        x = Rng(1).normal((2, 6, 5, 3))
        got = layer.forward(x).copy()
        ref = want.forward(x)
        assert_rel_close(got, ref)
        got[1, 2, 3, 0] += 1e-11 * np.max(np.abs(ref))
        with pytest.raises(AssertionError):
            assert_rel_close(got, ref)

    def test_output_and_input_gradient_are_channel_major(self):
        layer = conv.Conv2D(4, 3, padding="same", activation="relu")
        layer.build((6, 5, 3), Rng(0))
        x = Rng(1).normal((2, 6, 5, 3))
        for fed in (x, channel_major(x)):
            out = layer.forward(fed)
            dx = layer.backward(np.ones(out.shape))
            assert out.transpose(3, 0, 1, 2).flags.c_contiguous
            # a cropped view of the padded gradient, in the same axis order
            assert dx.strides[3] > dx.strides[0] > dx.strides[1] > dx.strides[2]


BLOCK_CASES = {
    "same": dict(kernel_size=3, padding="same"),
    "valid-stride2": dict(kernel_size=3, stride=2, padding="valid"),
    "explicit-dilation2": dict(kernel_size=(3, 2), padding=2, dilation=2),
    "same-stride2-dilation2": dict(
        kernel_size=(2, 3), stride=(2, 1), padding="same", dilation=(1, 2)
    ),
}


class TestConv2DImageBlocks:
    """``_correlate`` and the weight gradient over blocks of one image and
    of three, at batch sizes around the block size, against the row-major
    reference (one GEMM per kernel row over the whole batch)."""

    @pytest.mark.parametrize("images", [1, 3])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_match_the_row_major_reference(self, monkeypatch, case, images):
        in_shape = (7, 6, 3)
        layer, ref = (
            cls(3, activation="relu", **BLOCK_CASES[case]) for cls in (conv.Conv2D, RowMajorConv2D)
        )
        layer.build(in_shape, Rng(5))
        ref.build(in_shape, Rng(5))
        # with as many filters as channels, every block of the forward,
        # the weight gradient and the input gradient holds `images` images
        size, budget = block_budget(layer, in_shape, images)
        monkeypatch.setattr(conv, "_BLOCK_BYTES", budget)
        widths = []

        def recorded(*args):
            for lo, hi, lowered in lowered_blocks(*args):
                widths.append(hi - lo)
                yield lo, hi, lowered

        lowered_blocks = conv._lowered_blocks
        monkeypatch.setattr(conv, "_lowered_blocks", recorded)
        for batch in sorted({0, 1, images - 1, images, images + 1, 3 * images}):
            x = Rng(batch).normal((batch,) + in_shape)
            up = Rng(batch + 50).normal((batch,) + layer.out_shape(in_shape))
            for flags in itertools.product([False, True], repeat=3):
                del widths[:]
                got = conv_outcome(layer, x, up, *flags)
                want = conv_outcome(ref, x, up, *flags)
                for g, r in zip(got, want):
                    if r is None:
                        assert g is None
                    else:
                        assert_rel_close(g, r)
                assert max(widths, default=0) <= images * size
                calls = 1 + flags[1] + flags[2]
                assert len(widths) == calls * -(-batch // images)

    @pytest.mark.parametrize(
        "activation, preact",
        [("relu", False), ("linear", False), ("sigmoid", False), ("relu", True)],
    )
    def test_gradient_grid_has_the_whole_batch_delta_bits(self, activation, preact):
        # the per-image product against the whole batch's, placed in one
        # copy as the layer did before
        class WholeBatchDelta(conv.Conv2D):
            def _place(self, grid, upstream, preact, pre, out):
                delta = upstream if preact else upstream * self.activation.deriv(pre, out)
                conv._to_channel_major(grid, delta)

        in_shape = (9, 8, 3)
        layers = [
            cls(4, (3, 2), stride=(2, 1), padding="same", activation=activation)
            for cls in (conv.Conv2D, WholeBatchDelta)
        ]
        for layer in layers:
            layer.build(in_shape, Rng(8))
        x = Rng(9).normal((5,) + in_shape)
        up = Rng(10).normal((5,) + layers[0].out_shape(in_shape))
        for fed in (x, channel_major(x)):
            got, want = (conv_outcome(layer, fed, up, preact, True, True) for layer in layers)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_backward_memory_is_bounded_by_the_block_budget(self):
        # at batch 128 the lowered input of the whole batch would be 8 MB
        # and each [f, n] partial sum 2.7 MB: beyond this bound
        layer = conv.Conv2D(8, 3, padding="same", activation="relu")
        in_shape = (16, 16, 8)
        layer.build(in_shape, Rng(0))
        x = Rng(1).normal((128,) + in_shape)
        up = Rng(2).normal((128,) + in_shape[:2] + (8,))
        n = 128 * 18 * 18
        grid_and_dx = 8 * (8 * (n + 2 * 18 + 2) + 8 * n)
        layer.forward(x)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            layer.backward(up)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert transient <= grid_and_dx + conv._BLOCK_BYTES + 2**18, transient


def image_classifier(seed):
    model = SequentialModel(cli.image_classifier_layers(10), seed=seed)
    model.compile((12, 12, 3), "categorical_crossentropy", "adam")
    return model


def test_image_classifier_gives_the_same_bits_in_both_memory_layouts():
    # no layer after a Conv2D may depend on the C order of its input
    rng = Rng(3)
    x = rng.normal((5, 12, 12, 3))
    y = np.eye(10)[rng.integers(10, 5)]
    results = []
    for fed in (x, channel_major(x)):
        model = image_classifier(seed=11)
        value, out = model.train_on_batch(fed, y)
        results.append(
            [model.predict(fed), np.array(value), out, model.flat_params.copy()]
        )
    for c_ordered, chan_major in zip(*results):
        assert c_ordered.tobytes() == chan_major.tobytes()


class TestPool2D:
    def test_max_manual(self):
        layer = conv.Pool2D(2)
        layer.build((4, 4, 1), Rng(0))
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        npt.assert_allclose(out[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_avg_manual(self):
        layer = conv.Pool2D(2, mode="avg")
        layer.build((2, 2, 1), Rng(0))
        x = np.array([[1.0, 2.0], [3.0, 6.0]]).reshape(1, 2, 2, 1)
        npt.assert_allclose(layer.forward(x)[0, 0, 0, 0], 3.0)

    def test_stride_defaults_to_pool_size(self):
        layer = conv.Pool2D(3)
        assert layer.stride == (3, 3)
        layer = conv.Pool2D(2, stride=1)
        assert layer.stride == (1, 1)

    def test_out_shape(self):
        layer = conv.Pool2D(2)
        layer.build((28, 28, 3), Rng(0))
        assert layer.out_shape((28, 28, 3)) == (14, 14, 3)
        odd = conv.Pool2D(2)
        odd.build((5, 5, 1), Rng(0))
        assert odd.out_shape((5, 5, 1)) == (2, 2, 1)  # trailing row/col dropped

    def test_max_backward_routes_to_first_tie(self):
        layer = conv.Pool2D(2)
        layer.build((2, 2, 1), Rng(0))
        x = np.full((1, 2, 2, 1), 7.0)
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        # all four tie; the first window cell in scan order takes it
        npt.assert_allclose(dx[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_max_backward_manual(self):
        layer = conv.Pool2D(2)
        layer.build((2, 4, 1), Rng(0))
        x = np.array([[1.0, 9.0, 2.0, 3.0], [4.0, 5.0, 8.0, 6.0]]).reshape(1, 2, 4, 1)
        layer.forward(x)
        dx = layer.backward(np.array([2.0, 3.0]).reshape(1, 1, 2, 1))
        npt.assert_allclose(
            dx[0, :, :, 0], [[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]]
        )

    def test_avg_backward_spreads(self):
        layer = conv.Pool2D(2, mode="avg")
        layer.build((2, 2, 1), Rng(0))
        layer.forward(np.ones((1, 2, 2, 1)))
        dx = layer.backward(np.full((1, 1, 1, 1), 8.0))
        npt.assert_allclose(dx, np.full((1, 2, 2, 1), 2.0))

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_overlapping_windows_match_finite_differences(self, mode):
        rng = Rng(17)
        layer = conv.Pool2D(2, stride=1, mode=mode)
        layer.build((4, 5, 2), rng)
        # distinct values keep max pooling differentiable at the sample
        x = rng.permutation(40).astype(np.float64).reshape(1, 4, 5, 2)
        up = rng.normal((1,) + layer.out_shape((4, 5, 2)))
        want = fd_grads(lambda: np.sum(layer.forward(x) * up), 1e-3, x=x)
        layer.forward(x)
        npt.assert_allclose(layer.backward(up), want["x"], atol=1e-9)

    def test_channels_pool_independently(self):
        layer = conv.Pool2D(2)
        layer.build((2, 2, 2), Rng(0))
        x = np.zeros((1, 2, 2, 2))
        x[0, :, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
        x[0, :, :, 1] = [[8.0, 7.0], [6.0, 5.0]]
        out = layer.forward(x)
        npt.assert_allclose(out[0, 0, 0], [4.0, 8.0])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            conv.Pool2D(2, mode="median")

    def test_no_params(self):
        layer = conv.Pool2D(2)
        layer.build((4, 4, 1), Rng(0))
        assert layer.param_count() == 0

    @pytest.mark.parametrize(
        "args,kwargs,name",
        [
            ((0,), {}, "pool_size"),
            ((-1,), {}, "pool_size"),
            (((2, 0),), {}, "pool_size"),
            ((2,), {"stride": 0}, "stride"),
            ((2,), {"stride": (1, -2)}, "stride"),
            ((0.0,), {}, "pool_size"),
            (((3, -1.0),), {}, "pool_size"),
            ((2,), {"stride": (0, 1)}, "stride"),
        ],
    )
    def test_sizes_below_one_rejected(self, args, kwargs, name):
        with pytest.raises(ValueError, match="%s must be at least 1" % name):
            conv.Pool2D(*args, **kwargs)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_backward_consumes_forward_cache(self, mode):
        layer = conv.Pool2D(2, mode=mode)
        layer.build((4, 4, 1), Rng(0))
        x = Rng(1).normal((2, 4, 4, 1))
        up = Rng(2).normal((2, 2, 2, 1))
        with pytest.raises(ValueError, match="pool2d backward needs a forward"):
            layer.backward(up)
        layer.forward(x)
        first = layer.backward(up).copy()
        with pytest.raises(ValueError, match="pool2d backward needs a forward"):
            layer.backward(up)
        layer.forward(x)
        assert layer.backward(up, input_grad=False) is None
        with pytest.raises(ValueError, match="pool2d backward needs a forward"):
            layer.backward(up)
        layer.forward(x)
        npt.assert_array_equal(layer.backward(up), first)


def windows_pool(x, pool_size, stride, mode, up):
    """Reference pooling through a window buffer: every window is copied
    into [b, oh, ow, ph*pw, c], then reduced with max/argmax or mean over
    the cell axis; the argmax routes each upstream value back. Returns
    the pooled output and the input gradient for ``up``."""
    b, h, w, c = x.shape
    ph, pw = pool_size
    sh, sw = stride
    oh = (h - ph) // sh + 1
    ow = (w - pw) // sw + 1
    win = np.empty((b, oh, ow, ph * pw, c))
    for cell in range(ph * pw):
        pi, pj = divmod(cell, pw)
        win[:, :, :, cell, :] = x[:, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :]
    dx = np.zeros(x.shape)
    if mode == "max":
        out = np.max(win, axis=3)
        arg = np.argmax(win, axis=3)
        for cell in range(ph * pw):
            pi, pj = divmod(cell, pw)
            mask = (arg == cell).astype(np.float64)
            dx[:, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :] += up * mask
    else:
        out = np.mean(win, axis=3)
        share = up / (ph * pw)
        for cell in range(ph * pw):
            pi, pj = divmod(cell, pw)
            dx[:, pi : pi + sh * oh : sh, pj : pj + sw * ow : sw, :] += share
    return out, dx


def pool_both_ways(x, pool_size, stride, mode, up):
    """(layer output, layer dx) and the reference's (output, dx)."""
    layer = conv.Pool2D(pool_size, stride=stride, mode=mode)
    layer.build(x.shape[1:], Rng(0))
    out = layer.forward(x)
    dx = layer.backward(up)
    return (out, dx), windows_pool(x, layer.pool_size, layer.stride, mode, up)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# few distinct values, so that windows tie, hold both zeros, or hold NaN
# and infinities
POOL_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]


@st.composite
def pool_cases(draw):
    ph, pw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (
        draw(st.integers(0, 3)),
        draw(st.integers(ph, ph + 5)),  # trailing rows and columns that
        draw(st.integers(pw, pw + 5)),  # no window reaches, at some strides
        draw(st.integers(1, 3)),
    )
    values = st.one_of(st.sampled_from(POOL_VALUES), st.floats(-1e3, 1e3))
    x = draw(hnp.arrays(np.float64, shape, elements=values))
    oh = (shape[1] - ph) // stride[0] + 1
    ow = (shape[2] - pw) // stride[1] + 1
    up = draw(hnp.arrays(np.float64, (shape[0], oh, ow, shape[3]), elements=values))
    return x, (ph, pw), stride, up


class TestPool2DMatchesWindowReference:
    """The output and the input gradient of both modes equal the window
    buffer reference bit for bit."""

    @given(case=pool_cases(), mode=st.sampled_from(["max", "avg"]))
    @settings(max_examples=300, deadline=None)
    def test_random_cases(self, case, mode):
        x, pool_size, stride, up = case
        (out, dx), (want_out, want_dx) = pool_both_ways(x, pool_size, stride, mode, up)
        assert_same_bits(dx, want_dx)
        if x.shape[3] > 1 or pool_size[0] * pool_size[1] < 8:
            assert_same_bits(out, want_out)
        elif mode == "max":
            # numpy reduces a contiguous cell axis of 8 or more values in
            # vector lanes, which may pick the other zero of a 0.0/-0.0 tie
            npt.assert_array_equal(out, want_out)
        else:
            # ... and sums it pairwise, where the layer sums in scan order
            scale = windows_pool(np.abs(x), pool_size, stride, mode, up)[0]
            finite = np.isfinite(want_out)
            assert_same_bits(out[~finite], want_out[~finite])
            assert np.all(np.abs(out - want_out)[finite] <= 1e-12 * scale[finite])

    def test_planted_ties_route_to_first_cell(self):
        x = np.zeros((1, 4, 4, 3))
        x[0, :2, :2, 0] = [[3.0, 3.0], [1.0, 3.0]]  # tie in cells 0, 1, 3
        x[0, :2, 2:, 1] = [[1.0, 5.0], [5.0, 5.0]]  # tie in cells 1, 2, 3
        x[0, 2:, :2, 2] = [[-4.0, -4.0], [-4.0, -4.0]]  # all four tie
        up = Rng(3).normal((1, 2, 2, 3))
        (out, dx), (want_out, want_dx) = pool_both_ways(x, 2, None, "max", up)
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)
        assert dx[0, 0, 0, 0] == up[0, 0, 0, 0] and dx[0, 0, 1, 0] == 0.0
        assert dx[0, 0, 3, 1] == up[0, 0, 1, 1] and dx[0, 1, 2, 1] == 0.0
        assert dx[0, 2, 0, 2] == up[0, 1, 0, 2]

    def test_signed_zero_windows(self):
        # all 16 sign patterns of a 2x2 window of zeros, each over 40
        # channels with upstream values of both signs and both zeros
        signs = np.array(list(itertools.product([0.0, -0.0], repeat=4)))
        x = np.repeat(signs.reshape(16, 2, 2, 1), 40, axis=3)
        up = Rng(4).normal((16, 1, 1, 40))
        up[:, :, :, :4] = [0.0, -0.0, 0.0, -0.0]
        for mode in ("max", "avg"):
            (out, dx), (want_out, want_dx) = pool_both_ways(x, 2, None, mode, up)
            assert_same_bits(out, want_out)
            assert_same_bits(dx, want_dx)

    @pytest.mark.parametrize(
        "window,routed",
        [
            ([1.0, np.nan, np.nan, 2.0], 1),
            ([np.nan, 7.0, np.nan, np.nan], 0),
            ([3.0, 4.0, 5.0, np.nan], 3),
            ([-np.inf, np.nan, np.inf, 1.0], 1),
        ],
    )
    def test_nan_window_routes_to_first_nan(self, window, routed):
        x = np.array(window).reshape(1, 2, 2, 1)
        up = np.full((1, 1, 1, 1), 1.5)
        (out, dx), (want_out, want_dx) = pool_both_ways(x, 2, None, "max", up)
        assert np.isnan(out).all()
        want = np.zeros(4)
        want[routed] = 1.5
        npt.assert_array_equal(dx.reshape(4), want)
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)

    @pytest.mark.parametrize(
        "window,routed",
        [
            ([-np.inf] * 4, 0),
            ([1.0, np.inf, -np.inf, np.inf], 1),
            ([-np.inf, -np.inf, -3.0, -np.inf], 2),
        ],
    )
    def test_infinite_windows(self, window, routed):
        x = np.array(window).reshape(1, 2, 2, 1)
        up = np.full((1, 1, 1, 1), -2.0)
        (out, dx), (want_out, want_dx) = pool_both_ways(x, 2, None, "max", up)
        assert out.item() == window[routed]
        assert dx.reshape(4)[routed] == -2.0
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)

    @pytest.mark.parametrize(
        "pool_size,stride", [(3, None), (3, 1), (3, 2), ((2, 3), (1, 2)), (2, 1)]
    )
    def test_several_channels_and_overlaps(self, pool_size, stride):
        rng = Rng(5)
        x = rng.normal((2, 7, 8, 4)) * 10.0 ** rng.integers(12, 2 * 7 * 8 * 4).reshape(
            2, 7, 8, 4
        )
        layer = conv.Pool2D(pool_size, stride=stride)
        up = rng.normal((2,) + layer.out_shape((7, 8, 4)))
        for mode in ("max", "avg"):
            (out, dx), (want_out, want_dx) = pool_both_ways(x, pool_size, stride, mode, up)
            assert_same_bits(out, want_out)
            assert_same_bits(dx, want_dx)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_empty_batch(self, mode):
        x = np.zeros((0, 5, 4, 2))
        up = np.zeros((0, 2, 2, 2))
        (out, dx), (want_out, want_dx) = pool_both_ways(x, 2, None, mode, up)
        assert out.shape == (0, 2, 2, 2) and dx.shape == (0, 5, 4, 2)
        assert_same_bits(out, want_out)
        assert_same_bits(dx, want_dx)
