"""Gradient descent variants.

Optimizers hold per-parameter state keyed by parameter name, created
lazily as zeros on first sight of each name. ``step`` mutates the
parameter arrays in place so every layer holding a reference sees the
update. Epsilon terms sit inside the square roots.

Also here: ``gd_scalar``, plain one-dimensional gradient descent with a
recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Optimizer:
    name = "optimizer"

    def __init__(self):
        self._state = {}

    def _slot(self, key, like):
        if key not in self._state:
            self._state[key] = np.zeros_like(like)
        return self._state[key]

    def step(self, params, grads):
        """Apply one update. ``params`` and ``grads`` are dicts sharing
        keys; arrays in ``params`` are modified in place."""
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(
                    "gradient shape %s does not match parameter %r of shape %s"
                    % (g.shape, name, p.shape)
                )
            self._update(name, p, g)

    def _update(self, name, p, g):
        raise NotImplementedError

    def config(self):
        """Hyperparameters worth recording in run manifests."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


class SGD(Optimizer):
    name = "sgd"

    def __init__(self, lr=0.01):
        super().__init__()
        self.lr = float(lr)

    def _update(self, name, p, g):
        p -= self.lr * g


class Momentum(Optimizer):
    """Heavy-ball momentum: v = gamma*v + lr*g, p = p - v."""

    name = "momentum"

    def __init__(self, lr=0.01, gamma=0.9):
        super().__init__()
        self.lr = float(lr)
        self.gamma = float(gamma)

    def _update(self, name, p, g):
        v = self._slot(name + "/v", p)
        v *= self.gamma
        v += self.lr * g
        p -= v


class Nesterov(Optimizer):
    """Nesterov momentum in the lookahead-free form:
    v = gamma*v - lr*g, p = p + gamma*v - lr*g.
    With gamma = 0 this is exactly plain SGD."""

    name = "nesterov"

    def __init__(self, lr=0.01, gamma=0.9):
        super().__init__()
        self.lr = float(lr)
        self.gamma = float(gamma)

    def _update(self, name, p, g):
        v = self._slot(name + "/v", p)
        v *= self.gamma
        v -= self.lr * g
        p += self.gamma * v - self.lr * g


class Adagrad(Optimizer):
    """Accumulated squared gradients: p -= lr * g / sqrt(G + eps)."""

    name = "adagrad"

    def __init__(self, lr=0.01, eps=1e-6):
        super().__init__()
        self.lr = float(lr)
        self.eps = float(eps)

    def _update(self, name, p, g):
        acc = self._slot(name + "/G", p)
        acc += g * g
        p -= self.lr * g / np.sqrt(acc + self.eps)


class Adadelta(Optimizer):
    """Learning-rate-free variant. Two running averages with decay rho:
    Eg of squared gradients and Ed of squared updates; each update is
    -g * sqrt(Ed + eps) / sqrt(Eg + eps). No lr parameter exists by
    construction."""

    name = "adadelta"

    def __init__(self, rho=0.95, eps=1e-6):
        super().__init__()
        self.rho = float(rho)
        self.eps = float(eps)

    def _update(self, name, p, g):
        eg = self._slot(name + "/Eg", p)
        ed = self._slot(name + "/Ed", p)
        eg *= self.rho
        eg += (1.0 - self.rho) * g * g
        delta = -g * np.sqrt(ed + self.eps) / np.sqrt(eg + self.eps)
        ed *= self.rho
        ed += (1.0 - self.rho) * delta * delta
        p += delta


class RMSprop(Optimizer):
    name = "rmsprop"

    def __init__(self, lr=0.001, rho=0.9, eps=1e-8):
        super().__init__()
        self.lr = float(lr)
        self.rho = float(rho)
        self.eps = float(eps)

    def _update(self, name, p, g):
        eg = self._slot(name + "/Eg", p)
        eg *= self.rho
        eg += (1.0 - self.rho) * g * g
        p -= self.lr * g / np.sqrt(eg + self.eps)


class Adam(Optimizer):
    """Bias-corrected first and second moment estimates:
    p -= lr * m_hat / sqrt(v_hat + eps)."""

    name = "adam"

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__()
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._t = {}

    def _update(self, name, p, g):
        m = self._slot(name + "/m", p)
        v = self._slot(name + "/v", p)
        t = self._t.get(name, 0) + 1
        self._t[name] = t
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        p -= self.lr * m_hat / np.sqrt(v_hat + self.eps)


_REGISTRY = {
    "sgd": SGD,
    "momentum": Momentum,
    "nesterov": Nesterov,
    "adagrad": Adagrad,
    "adadelta": Adadelta,
    "rmsprop": RMSprop,
    "adam": Adam,
}


def get(name, **kwargs):
    if isinstance(name, Optimizer):
        return name
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown optimizer %r (choices: %s)" % (name, ", ".join(sorted(_REGISTRY)))
        ) from None
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# scalar gradient descent with trace
# ---------------------------------------------------------------------------

@dataclass
class GDTrace:
    """Path of a one-dimensional descent run. ``xs`` starts at x0 and
    records every iterate; ``ys`` holds f at those points."""

    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0


def gd_scalar(f, fprime, x0, alpha, tol=1e-5, max_iter=1000):
    """Minimize a scalar function by fixed-step gradient descent.

    Runs x += alpha * p with p = -fprime(x) until |p| <= tol or the
    iteration budget runs out. If an iterate or its function value goes
    non-finite the run stops early with ``diverged`` set and the trace
    truncated to the last finite point.
    """
    x = float(x0)
    trace = GDTrace(xs=[x], ys=[float(f(x))])
    p = -float(fprime(x))
    while abs(p) > tol and trace.iterations < max_iter:
        x = x + alpha * p
        y = float(f(x))
        if not (np.isfinite(x) and np.isfinite(y)):
            trace.diverged = True
            return trace
        trace.iterations += 1
        trace.xs.append(x)
        trace.ys.append(y)
        p = -float(fprime(x))
    trace.converged = abs(p) <= tol
    return trace
