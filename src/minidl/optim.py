"""Gradient descent variants.

Optimizers hold per-parameter state keyed by parameter name, created
lazily as zeros on first sight of each name. ``step`` mutates the
parameter arrays in place so every layer holding a reference sees the
update. Epsilon terms sit inside the square roots.

A compiled model steps all its trainable parameters as one entry: its
flat parameter vector, with the flat gradient vector beside it. Each
rule walks the flattened arrays in blocks of ``CHUNK`` values and
writes every intermediate into one of two reused scratch buffers with
``out=``, so a step allocates no parameter-sized temporary and each
block's operands stay in cache while the rule runs over them. Within a
block a rule applies the operations of its whole-array formula in the
order Python would evaluate them (``lr * g / sqrt(G + eps)`` is
``(lr * g) / ...``), so the results are the same bit for bit at any
block size.

Also here: ``gd_scalar``, plain one-dimensional gradient descent with a
recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


#: values per block of a blocked update: 256 KB per array, so a block of
#: Adam's six arrays (parameter, gradient, two slots, two scratch
#: buffers) takes 1.5 MB and stays in a 2 MB per-core L2 cache. 16k to
#: 64k measured alike on a 2-core Xeon.
CHUNK = 32768


class Optimizer:
    name = "optimizer"

    def __init__(self):
        self._state = {}
        self._scratch = np.empty((2, CHUNK))

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
            # a view for a C-contiguous parameter, as every model's is
            flat = p.reshape(-1)
            self._update(name, flat, g.reshape(-1))
            if not p.flags.c_contiguous:
                p[...] = flat.reshape(p.shape)

    def _chunks(self, *arrays):
        """Yield matching ``CHUNK``-long slices of the flat ``arrays``,
        then two scratch buffers of the same length."""
        for lo in range(0, arrays[0].size, CHUNK):
            parts = [x[lo : lo + CHUNK] for x in arrays]
            n = parts[0].size
            yield (*parts, self._scratch[0, :n], self._scratch[1, :n])

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
        for p, g, a, _ in self._chunks(p, g):
            np.multiply(self.lr, g, out=a)
            p -= a


class Momentum(Optimizer):
    """Heavy-ball momentum: v = gamma*v + lr*g, p = p - v."""

    name = "momentum"

    def __init__(self, lr=0.01, gamma=0.9):
        super().__init__()
        self.lr = float(lr)
        self.gamma = float(gamma)

    def _update(self, name, p, g):
        v = self._slot(name + "/v", p)
        for p, g, v, a, _ in self._chunks(p, g, v):
            v *= self.gamma
            v += np.multiply(self.lr, g, out=a)
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
        for p, g, v, a, b in self._chunks(p, g, v):
            v *= self.gamma
            lr_g = np.multiply(self.lr, g, out=a)
            v -= lr_g
            step = np.multiply(self.gamma, v, out=b)
            step -= lr_g
            p += step


class Adagrad(Optimizer):
    """Accumulated squared gradients: p -= lr * g / sqrt(G + eps)."""

    name = "adagrad"

    def __init__(self, lr=0.01, eps=1e-6):
        super().__init__()
        self.lr = float(lr)
        self.eps = float(eps)

    def _update(self, name, p, g):
        acc = self._slot(name + "/G", p)
        for p, g, acc, a, b in self._chunks(p, g, acc):
            acc += np.multiply(g, g, out=a)
            root = np.sqrt(np.add(acc, self.eps, out=b), out=b)
            step = np.multiply(self.lr, g, out=a)
            step /= root
            p -= step


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
        for p, g, eg, ed, a, b in self._chunks(p, g, eg, ed):
            eg *= self.rho
            sq = np.multiply(1.0 - self.rho, g, out=a)
            sq *= g
            eg += sq
            delta = np.negative(g, out=b)
            delta *= np.sqrt(np.add(ed, self.eps, out=a), out=a)
            delta /= np.sqrt(np.add(eg, self.eps, out=a), out=a)
            ed *= self.rho
            sq = np.multiply(1.0 - self.rho, delta, out=a)
            sq *= delta
            ed += sq
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
        for p, g, eg, a, b in self._chunks(p, g, eg):
            eg *= self.rho
            sq = np.multiply(1.0 - self.rho, g, out=a)
            sq *= g
            eg += sq
            root = np.sqrt(np.add(eg, self.eps, out=b), out=b)
            step = np.multiply(self.lr, g, out=a)
            step /= root
            p -= step


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
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for p, g, m, v, a, b in self._chunks(p, g, m, v):
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            sq = np.multiply(1.0 - self.beta2, g, out=a)
            sq *= g
            v += sq
            step = np.divide(m, c1, out=a)  # m_hat
            step *= self.lr
            root = np.divide(v, c2, out=b)  # v_hat
            root += self.eps
            np.sqrt(root, out=root)
            step /= root
            p -= step


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
