import inspect
import math

import numpy as np
import numpy.testing as npt
import pytest

from minidl import optim


def quad(x):
    return x * x - 2.0 * x - 3.0


def dquad(x):
    return 2.0 * x - 2.0


class TestGdScalar:
    def test_converges_small_step(self):
        tr = optim.gd_scalar(quad, dquad, x0=6.0, alpha=0.1)
        assert tr.converged and not tr.diverged
        assert abs(tr.xs[-1] - 1.0) < 1e-3
        assert abs(tr.ys[-1] - (-4.0)) < 1e-3

    def test_converges_large_but_stable_step(self):
        # alpha = 0.9 overshoots back and forth yet still contracts
        tr = optim.gd_scalar(quad, dquad, x0=6.0, alpha=0.9)
        assert tr.converged
        assert abs(tr.xs[-1] - 1.0) < 1e-3

    def test_tiny_step_exhausts_budget(self):
        tr = optim.gd_scalar(quad, dquad, x0=6.0, alpha=1e-4, max_iter=1000)
        assert not tr.converged and not tr.diverged
        assert tr.iterations == 1000

    def test_unstable_step_grows(self):
        tr = optim.gd_scalar(quad, dquad, x0=6.0, alpha=1.01, max_iter=50)
        assert not tr.converged
        gaps = [abs(x - 1.0) for x in tr.xs]
        assert all(b > a for a, b in zip(gaps[-9:], gaps[-8:]))

    def test_divergence_truncates_to_finite_trace(self):
        tr = optim.gd_scalar(quad, dquad, x0=1.5, alpha=1e200)
        assert tr.diverged and not tr.converged
        assert all(np.isfinite(v) for v in tr.xs + tr.ys)

    def test_already_at_tolerance(self):
        tr = optim.gd_scalar(quad, dquad, x0=1.0, alpha=0.1)
        assert tr.converged and tr.iterations == 0
        assert tr.xs == [1.0]

    def test_trace_starts_at_x0(self):
        tr = optim.gd_scalar(quad, dquad, x0=6.0, alpha=0.1)
        assert tr.xs[0] == 6.0 and tr.ys[0] == quad(6.0)
        assert len(tr.xs) == tr.iterations + 1


def step_once(opt, p, g):
    params = {"w": p}
    opt.step(params, {"w": g})
    return params["w"]


class TestSGD:
    def test_update(self):
        p = np.array([1.0, 2.0])
        step_once(optim.SGD(lr=0.1), p, np.array([1.0, -2.0]))
        npt.assert_allclose(p, [0.9, 2.2])

    def test_in_place(self):
        p = np.ones(3)
        ref = p
        step_once(optim.SGD(lr=0.5), p, np.ones(3))
        assert ref is p and ref[0] == 0.5


class TestMomentum:
    def test_two_steps_manual(self):
        # v1 = 0.9*0 + 0.1*1 = 0.1 ; p = 1 - 0.1 = 0.9
        # v2 = 0.9*0.1 + 0.1*1 = 0.19 ; p = 0.9 - 0.19 = 0.71
        opt = optim.Momentum(lr=0.1, gamma=0.9)
        p = np.array([1.0])
        g = np.array([1.0])
        step_once(opt, p, g)
        npt.assert_allclose(p, [0.9])
        step_once(opt, p, g)
        npt.assert_allclose(p, [0.71])

    def test_gamma_zero_is_sgd_bitwise(self):
        rng = np.random.default_rng(0)
        p1 = rng.normal(size=(4, 3))
        p2 = p1.copy()
        mom = optim.Momentum(lr=0.05, gamma=0.0)
        sgd = optim.SGD(lr=0.05)
        for _ in range(10):
            g = rng.normal(size=(4, 3))
            mom.step({"w": p1}, {"w": g.copy()})
            sgd.step({"w": p2}, {"w": g.copy()})
        assert np.array_equal(p1, p2)


class TestNesterov:
    def test_gamma_zero_is_sgd_bitwise(self):
        rng = np.random.default_rng(1)
        p1 = rng.normal(size=(5,))
        p2 = p1.copy()
        nest = optim.Nesterov(lr=0.03, gamma=0.0)
        sgd = optim.SGD(lr=0.03)
        for _ in range(10):
            g = rng.normal(size=(5,))
            nest.step({"w": p1}, {"w": g.copy()})
            sgd.step({"w": p2}, {"w": g.copy()})
        assert np.array_equal(p1, p2)

    def test_recurrence_manual(self):
        # v' = 0.9 v - 0.1 g ; p' = p + 0.9 v' - 0.1 g
        opt = optim.Nesterov(lr=0.1, gamma=0.9)
        p = np.array([2.0])
        v = 0.0
        expect = 2.0
        for g in (1.0, -0.5, 2.0):
            step_once(opt, p, np.array([g]))
            v = 0.9 * v - 0.1 * g
            expect = expect + 0.9 * v - 0.1 * g
            npt.assert_allclose(p, [expect], atol=1e-15)

    def test_descends_a_quadratic(self):
        p = np.array([4.0])
        opt = optim.Nesterov(lr=0.05, gamma=0.9)
        for _ in range(200):
            step_once(opt, p, 2.0 * p)
        assert abs(p[0]) < 1e-3


class TestAdagrad:
    def test_inverse_sqrt_t_magnitudes(self):
        # with lr=1, eps=0 and unit gradients the t-th update is 1/sqrt(t)
        opt = optim.Adagrad(lr=1.0, eps=0.0)
        p = np.array([0.0])
        prev = 0.0
        for t in range(1, 8):
            step_once(opt, p, np.array([1.0]))
            delta = p[0] - prev
            prev = p[0]
            npt.assert_allclose(delta, -1.0 / math.sqrt(t), atol=1e-12)

    def test_eps_inside_sqrt(self):
        opt = optim.Adagrad(lr=1.0, eps=1e-6)
        p = np.array([0.0])
        step_once(opt, p, np.array([1.0]))
        npt.assert_allclose(p, [-1.0 / math.sqrt(1.0 + 1e-6)], atol=1e-15)


class TestAdadelta:
    def test_api_exposes_no_learning_rate(self):
        sig = inspect.signature(optim.Adadelta.__init__)
        assert "lr" not in sig.parameters
        opt = optim.Adadelta()
        assert not hasattr(opt, "lr")

    def test_first_step_magnitude(self):
        rho, eps = 0.95, 1e-6
        opt = optim.Adadelta(rho=rho, eps=eps)
        p = np.array([1.0])
        step_once(opt, p, np.array([2.0]))
        want = -2.0 * math.sqrt(eps) / math.sqrt((1 - rho) * 4.0 + eps)
        npt.assert_allclose(p, [1.0 + want], atol=1e-15)

    def test_moves_against_gradient(self):
        opt = optim.Adadelta()
        p = np.array([1.0])
        for _ in range(100):
            step_once(opt, p, np.array([1.0]))
        assert p[0] < 1.0


class TestRMSprop:
    def test_manual_recurrence(self):
        lr, rho, eps = 0.001, 0.9, 1e-8
        opt = optim.RMSprop()
        assert (opt.lr, opt.rho, opt.eps) == (lr, rho, eps)
        p = np.array([0.5])
        e = 0.0
        x = 0.5
        for g in (1.0, -2.0, 0.3):
            step_once(opt, p, np.array([g]))
            e = rho * e + (1 - rho) * g * g
            x = x - lr * g / math.sqrt(e + eps)
            npt.assert_allclose(p, [x], atol=1e-15)


class TestAdam:
    def test_defaults(self):
        opt = optim.Adam()
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == (0.001, 0.9, 0.999, 1e-8)

    def test_first_step_is_signed_lr(self):
        # bias correction cancels the moment decay on step one, so the
        # move is lr in the direction opposing the gradient regardless
        # of its magnitude (for gradients well above eps)
        opt = optim.Adam(lr=0.001)
        p = np.array([1.0, -1.0])
        step_once(opt, p, np.array([3.7, -0.5]))
        npt.assert_allclose(p, [1.0 - 0.001, -1.0 + 0.001], atol=1e-6)

    def test_manual_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = optim.Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        p = np.array([0.0])
        m = v = 0.0
        x = 0.0
        for t, g in enumerate((1.0, 0.5, -1.2, 2.0), start=1):
            step_once(opt, p, np.array([g]))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            x = x - lr * mh / math.sqrt(vh + eps)
            npt.assert_allclose(p, [x], atol=1e-15)

    def test_per_parameter_state(self):
        opt = optim.Adam(lr=0.1)
        a = np.array([0.0])
        b = np.array([0.0])
        opt.step({"a": a, "b": b}, {"a": np.array([1.0]), "b": np.array([1.0])})
        opt.step({"a": a}, {"a": np.array([1.0])})
        # b missed the second call, so its timestep lags a's
        opt.step({"b": b}, {"b": np.array([1.0])})
        assert opt._t["a"] == 2 and opt._t["b"] == 2
        opt.step({"a": a}, {"a": np.array([1.0])})
        assert opt._t["a"] == 3 and opt._t["b"] == 2


# The seven update rules as whole-array expressions, the form they had
# before the library's rules ran block by block through two scratch
# buffers. Same operations in the same order, so the blocked rules must
# match them bit for bit. ``s`` holds the slots, created like the library's.
def ref_sgd(o, s, p, g, t):
    p -= o.lr * g


def ref_momentum(o, s, p, g, t):
    v = s.setdefault("v", np.zeros_like(p))
    v *= o.gamma
    v += o.lr * g
    p -= v


def ref_nesterov(o, s, p, g, t):
    v = s.setdefault("v", np.zeros_like(p))
    v *= o.gamma
    v -= o.lr * g
    p += o.gamma * v - o.lr * g


def ref_adagrad(o, s, p, g, t):
    acc = s.setdefault("G", np.zeros_like(p))
    acc += g * g
    p -= o.lr * g / np.sqrt(acc + o.eps)


def ref_adadelta(o, s, p, g, t):
    eg = s.setdefault("Eg", np.zeros_like(p))
    ed = s.setdefault("Ed", np.zeros_like(p))
    eg *= o.rho
    eg += (1.0 - o.rho) * g * g
    delta = -g * np.sqrt(ed + o.eps) / np.sqrt(eg + o.eps)
    ed *= o.rho
    ed += (1.0 - o.rho) * delta * delta
    p += delta


def ref_rmsprop(o, s, p, g, t):
    eg = s.setdefault("Eg", np.zeros_like(p))
    eg *= o.rho
    eg += (1.0 - o.rho) * g * g
    p -= o.lr * g / np.sqrt(eg + o.eps)


def ref_adam(o, s, p, g, t):
    m = s.setdefault("m", np.zeros_like(p))
    v = s.setdefault("v", np.zeros_like(p))
    m *= o.beta1
    m += (1.0 - o.beta1) * g
    v *= o.beta2
    v += (1.0 - o.beta2) * g * g
    m_hat = m / (1.0 - o.beta1 ** t)
    v_hat = v / (1.0 - o.beta2 ** t)
    p -= o.lr * m_hat / np.sqrt(v_hat + o.eps)


REFERENCE = {
    "sgd": ref_sgd,
    "momentum": ref_momentum,
    "nesterov": ref_nesterov,
    "adagrad": ref_adagrad,
    "adadelta": ref_adadelta,
    "rmsprop": ref_rmsprop,
    "adam": ref_adam,
}

C = optim.CHUNK
BLOCK_SHAPES = [(1,), (C - 1,), (C,), (C + 1,), (3 * C + 17,), (4, 3, C // 12 + 5), (2, 0)]


def test_reference_covers_every_rule():
    assert sorted(REFERENCE) == sorted(optim._REGISTRY)


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_blocked_rule_is_bit_identical_to_reference(name, shape):
    rng = np.random.default_rng(sum(shape) + len(name))
    opt = optim.get(name)
    p = rng.normal(size=shape)
    want = p.copy()
    slots = {}
    for t in range(1, 6):
        # gradients spread over several magnitudes, zeros included
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
        g[rng.random(shape) < 0.05] = 0.0
        opt.step({"w": p}, {"w": g})
        REFERENCE[name](opt, slots, want, g, t)
        npt.assert_array_equal(p, want)
    assert sorted(opt._state) == sorted("w/" + k for k in slots)
    for k, slot in slots.items():
        npt.assert_array_equal(opt._state["w/" + k].reshape(shape), slot)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_non_contiguous_parameter_updated_in_place(name):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(C // 100, 150))
    p = base.T  # a view whose reshape(-1) is a copy
    want = p.copy()
    opt = optim.get(name)
    slots = {}
    for t in range(1, 4):
        g = rng.normal(size=p.shape)
        opt.step({"w": p}, {"w": g})
        REFERENCE[name](opt, slots, want, g, t)
    npt.assert_array_equal(base.T, want)


def test_shape_mismatch_names_parameter():
    with pytest.raises(ValueError, match="'w'"):
        optim.SGD().step({"w": np.ones((2, 2))}, {"w": np.ones(3)})


def test_registry():
    assert isinstance(optim.get("adam"), optim.Adam)
    assert isinstance(optim.get("sgd", lr=0.5), optim.SGD)
    with pytest.raises(ValueError, match="unknown optimizer"):
        optim.get("lion")


def test_valley_momentum_beats_sgd():
    # f = x^2 + 100 y^2 from (1, 1): an elongated valley where plain
    # gradient descent zigzags and momentum accumulates along x
    def run(opt, steps=120):
        p = np.array([1.0, 1.0])
        for _ in range(steps):
            g = np.array([2.0 * p[0], 200.0 * p[1]])
            opt.step({"p": p}, {"p": g})
        return p[0] ** 2 + 100.0 * p[1] ** 2

    f_sgd = run(optim.SGD(lr=0.004))
    f_mom = run(optim.Momentum(lr=0.004, gamma=0.9))
    assert f_mom < f_sgd
