import itertools

import numpy as np
import numpy.testing as npt
import pytest

from minidl import conv
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
    reference magnitude."""
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= rel * np.max(np.abs(want)), err


def fd_grads(layer, x, up, eps=1e-6):
    """Central-difference gradients of L = sum(forward(x) * up) for the
    input and every parameter."""
    def loss():
        return np.sum(layer.forward(x) * up)

    out = {}
    flat = x.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss()
        flat[i] = orig - eps
        lo = loss()
        flat[i] = orig
        num[i] = (hi - lo) / (2 * eps)
    out["x"] = num.reshape(x.shape)
    for name, p in layer.params.items():
        pflat = p.reshape(-1)
        pnum = np.zeros_like(pflat)
        for i in range(pflat.size):
            orig = pflat[i]
            pflat[i] = orig + eps
            hi = loss()
            pflat[i] = orig - eps
            lo = loss()
            pflat[i] = orig
            pnum[i] = (hi - lo) / (2 * eps)
        out[name] = pnum.reshape(p.shape)
    return out


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
        want = fd_grads(layer, x, up)
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

    def test_empty_batch(self):
        layer = conv.Conv2D(3, 3, padding="same")
        layer.build((5, 6, 2), Rng(0))
        out = layer.forward(np.zeros((0, 5, 6, 2)))
        assert out.shape == (0, 5, 6, 3)
        assert layer.backward(out).shape == (0, 5, 6, 2)
        npt.assert_array_equal(layer.grads["W"], 0.0)

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
        want = fd_grads(layer, x, up, eps=1e-3)
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
