import numpy as np
import numpy.testing as npt
import pytest

from minidl import activations as act


def test_sigmoid_known_values():
    npt.assert_allclose(act.sigmoid(np.array([0.0])), [0.5])
    npt.assert_allclose(act.sigmoid(np.array([2.0])), [0.8807970779778823], atol=1e-15)
    npt.assert_allclose(
        act.sigmoid(np.array([-2.0])), [0.11920292202211755], atol=1e-15
    )


def test_sigmoid_extreme_inputs_stay_finite():
    v = act.sigmoid(np.array([-1000.0, -50.0, 50.0, 1000.0]))
    assert np.all(np.isfinite(v))
    assert v[0] == 0.0 and v[-1] == 1.0
    assert 0.0 < v[1] < 1e-20


def test_sigmoid_symmetry():
    x = np.linspace(-30, 30, 101)
    npt.assert_allclose(act.sigmoid(x) + act.sigmoid(-x), np.ones_like(x), atol=1e-12)


def split_sigmoid(x):
    """The sigmoid as minidl first computed it: boolean masks split the
    input on sign and each half takes the branch whose exp is <= 1."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_split_formula():
    tiny = np.finfo(np.float64).tiny
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 709.0, -709.0,
         1e308, -1e308, 5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3]
    )
    rng = np.random.default_rng(0)
    x = np.concatenate([special, rng.normal(size=200_000) * 30.0,
                        rng.uniform(-1.0, 1.0, size=50_000)])
    with np.errstate(over="raise", invalid="raise"):
        got = act.sigmoid(x)
        want = split_sigmoid(x)
    nan = np.isnan(x)
    npt.assert_array_equal(np.isnan(got), nan)
    # a NaN input may come back with either sign bit; every other
    # output must carry exactly the old bits
    npt.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_dsigmoid_peak_and_formula():
    x = np.array([-3.0, 0.0, 1.5])
    s = act.sigmoid(x)
    npt.assert_allclose(act.dsigmoid(x), s * (1 - s), atol=1e-15)
    assert act.dsigmoid(np.array([0.0]))[0] == 0.25


def test_tanh_is_scaled_shifted_sigmoid():
    x = np.linspace(-5, 5, 41)
    npt.assert_allclose(act.tanh(x), 2.0 * act.sigmoid(2.0 * x) - 1.0, atol=1e-12)


def test_dtanh():
    x = np.array([-1.0, 0.0, 2.0])
    npt.assert_allclose(act.dtanh(x), 1.0 - np.tanh(x) ** 2, atol=1e-15)


def test_relu_and_subgradient_at_zero():
    x = np.array([-2.0, 0.0, 3.0])
    npt.assert_array_equal(act.relu(x), [0.0, 0.0, 3.0])
    # derivative at the kink is 0, not 1
    npt.assert_array_equal(act.drelu(x), [0.0, 0.0, 1.0])


def test_leaky_relu_slope():
    x = np.array([-4.0, 0.0, 2.0])
    npt.assert_allclose(act.leaky_relu(x, 0.2), [-0.8, 0.0, 2.0])
    npt.assert_allclose(act.dleaky_relu(x, 0.2), [0.2, 0.2, 1.0])


@pytest.mark.parametrize("slope", [0.01, 0.2, 1.0])
def test_leaky_relu_bitwise_equals_where_formula(slope):
    tiny = np.finfo(np.float64).tiny
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324,
         tiny, -tiny, tiny / 3, -tiny / 3]
    )
    rng = np.random.default_rng(1)
    x = np.concatenate([special, rng.normal(size=200_000) * 30.0,
                        rng.uniform(-1.0, 1.0, size=50_000)])
    got = act.leaky_relu(x, slope)
    want = np.where(x > 0.0, x, slope * x)
    nan = np.isnan(x)
    npt.assert_array_equal(np.isnan(got), nan)
    npt.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.inf, np.nan])
def test_leaky_slope_outside_unit_interval_rejected(slope):
    from minidl.layers import Dense

    with pytest.raises(ValueError, match="slope must be in"):
        act.leaky_relu(np.array([-1.0, 1.0]), slope)
    with pytest.raises(ValueError, match="slope must be in"):
        act.get("leaky_relu", slope=slope)
    with pytest.raises(ValueError, match="slope must be in"):
        Dense(3, activation="leaky_relu", leaky_slope=slope)


def test_linear_identity():
    x = np.array([-1.0, 2.0])
    npt.assert_array_equal(act.linear(x), x)
    npt.assert_array_equal(act.dlinear(x), [1.0, 1.0])


def test_softmax_rows_sum_to_one():
    x = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    s = act.softmax(x)
    npt.assert_allclose(np.sum(s, axis=1), [1.0, 1.0], atol=1e-12)
    assert np.all(s > 0)


def test_softmax_known_row():
    s = act.softmax(np.array([[0.0, 0.0]]))
    npt.assert_allclose(s, [[0.5, 0.5]])
    s = act.softmax(np.array([[1.0, 2.0, 3.0]]))
    e = np.exp([1.0, 2.0, 3.0])
    npt.assert_allclose(s[0], e / e.sum(), atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([[3.0, -1.0, 0.5]])
    npt.assert_allclose(act.softmax(x), act.softmax(x + 1234.5), atol=1e-12)


def test_softmax_huge_logits_no_overflow():
    s = act.softmax(np.array([[1000.0, 1000.0, 0.0]]))
    assert np.all(np.isfinite(s))
    npt.assert_allclose(s[0, :2], [0.5, 0.5], atol=1e-12)


def test_softmax_last_axis_on_3d():
    x = np.zeros((2, 4, 3))
    s = act.softmax(x)
    npt.assert_allclose(s, np.full((2, 4, 3), 1.0 / 3.0), atol=1e-15)


def test_softmax_standalone_backward_refuses():
    with pytest.raises(NotImplementedError, match="fused"):
        act.dsoftmax(np.ones((2, 3)))


def test_registry_lookup():
    assert act.get("relu").fn is act.relu
    leaky = act.get("leaky_relu", slope=0.1)
    npt.assert_allclose(leaky.fn(np.array([-1.0])), [-0.1])
    with pytest.raises(ValueError, match="unknown activation"):
        act.get("swish")


def test_registry_passthrough():
    a = act.get("tanh")
    assert act.get(a) is a
