"""Time-varying regularizers: value, Fenchel conjugate, mirror map, and norms.

Every family exposes the triple used by the regret analysis: f_t itself,
its conjugate, and the gradient of the conjugate (the mirror map), plus
the norm with respect to which f_t is strongly convex and that norm's
dual. The contract tying them together is checked numerically by the
oracle test suite:

  * mirror_map(theta) == argmax_v (<v,theta> - f(v))
  * f(mirror_map(u)) + f*(u) == <mirror_map(u), u>
  * f(v) >= f(u) + <grad f(u), v-u> + (beta/2) ||u-v||^2
  * dual_norm(z) == sup {<u,z> : norm(u) <= 1}

State-advancing hooks are split by protocol position: advance_step is a
schedule tick, observe_input must run before the round's prediction
(feature maxima, support sizes, the growing quadratic in feature-driven
mode), observe_gradient runs after the prediction so f_t only ever depends
on subgradients from earlier rounds.

`value` and `norm` accept batched inputs of shape (N, d) for the grid
comparators; `conjugate`, `mirror_map`, `gradient`, `dual_norm` take a
single vector.
"""

import copy
import math

import numpy as np

from .linalg import DiagInverse, RankOneInverse, as_dense

_E = math.e


class Regularizer:
    """Interface shared by all regularizer families."""

    dim = 0
    time_varying = False

    def value(self, w):
        raise NotImplementedError

    def conjugate(self, theta):
        raise NotImplementedError

    def mirror_map(self, theta):
        raise NotImplementedError

    def gradient(self, w):
        raise NotImplementedError

    def strong_convexity(self):
        raise NotImplementedError

    def norm(self, v):
        raise NotImplementedError

    def dual_norm(self, z):
        raise NotImplementedError

    def advance_step(self):
        pass

    def observe_input(self, x):
        pass

    def observe_gradient(self, g):
        pass

    def snapshot(self):
        return copy.deepcopy(self)


def _batch(w):
    return np.asarray(w, dtype=np.float64)


class FixedQuadratic(Regularizer):
    """f(w) = scale/2 * ||w||^2. Self-conjugate up to scale; Euclidean norms."""

    def __init__(self, dim, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.dim = int(dim)
        self.scale = float(scale)

    def value(self, w):
        w = _batch(w)
        return 0.5 * self.scale * np.sum(w * w, axis=-1)

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        return float(theta @ theta) / (2.0 * self.scale)

    def mirror_map(self, theta):
        return as_dense(theta, self.dim) / self.scale

    def gradient(self, w):
        return self.scale * as_dense(w, self.dim)

    def strong_convexity(self):
        return self.scale

    def norm(self, v):
        return np.linalg.norm(_batch(v), axis=-1)

    def dual_norm(self, z):
        return float(np.linalg.norm(as_dense(z, self.dim)))


class PNorm(Regularizer):
    """f(w) = 1/2 ||w||_p^2 with p in (1, 2]; (p-1)-strongly convex w.r.t. ||.||_p."""

    def __init__(self, dim, p):
        if not 1.0 < p <= 2.0:
            raise ValueError("p must be in (1, 2]")
        self.dim = int(dim)
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)

    def value(self, w):
        w = _batch(w)
        return 0.5 * np.sum(np.abs(w) ** self.p, axis=-1) ** (2.0 / self.p)

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        return float(0.5 * np.sum(np.abs(theta) ** self.q) ** (2.0 / self.q))

    def mirror_map(self, theta):
        theta = as_dense(theta, self.dim)
        a = np.abs(theta)
        if not a.any():
            return np.zeros(self.dim)
        nq = np.sum(a ** self.q) ** (1.0 / self.q)
        return np.sign(theta) * (a / nq) ** (self.q - 1.0) * nq

    def gradient(self, w):
        w = as_dense(w, self.dim)
        a = np.abs(w)
        if not a.any():
            return np.zeros(self.dim)
        npv = np.sum(a ** self.p) ** (1.0 / self.p)
        return np.sign(w) * (a / npv) ** (self.p - 1.0) * npv

    def strong_convexity(self):
        return self.p - 1.0

    def norm(self, v):
        v = _batch(v)
        return np.sum(np.abs(v) ** self.p, axis=-1) ** (1.0 / self.p)

    def dual_norm(self, z):
        z = as_dense(z, self.dim)
        return float(np.sum(np.abs(z) ** self.q) ** (1.0 / self.q))


class WeightedQNorm(Regularizer):
    """f(w) = (sum_i |w_i|^q a_i)^{2/q} / (2(q-1)) with q in (1, 2], a_i > 0.

    Conjugate is the same expression in the dual exponent p = q/(q-1) with
    weights a_i^{1-p}; the function is 1-strongly convex with respect to
    the weighted q-norm, whose dual is the weighted p-norm below.
    """

    def __init__(self, dim, q, weights):
        if not 1.0 < q <= 2.0:
            raise ValueError("q must be in (1, 2]")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != dim:
            raise ValueError("weights length must equal dim")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.dim = int(dim)
        self.q = float(q)
        self.p = self.q / (self.q - 1.0)
        self.a = weights
        self._ad = weights ** (1.0 - self.p)

    def value(self, w):
        w = _batch(w)
        inner = np.sum(np.abs(w) ** self.q * self.a, axis=-1)
        return inner ** (2.0 / self.q) / (2.0 * (self.q - 1.0))

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        inner = float(np.sum(np.abs(theta) ** self.p * self._ad))
        return inner ** (2.0 / self.p) / (2.0 * (self.p - 1.0))

    def mirror_map(self, theta):
        theta = as_dense(theta, self.dim)
        a = np.abs(theta)
        if not a.any():
            return np.zeros(self.dim)
        inner = np.sum(a ** self.p * self._ad)
        return (
            np.sign(theta)
            * inner ** (2.0 / self.p - 1.0)
            * a ** (self.p - 1.0)
            * self._ad
            / (self.p - 1.0)
        )

    def gradient(self, w):
        w = as_dense(w, self.dim)
        a = np.abs(w)
        if not a.any():
            return np.zeros(self.dim)
        inner = np.sum(a ** self.q * self.a)
        return (
            np.sign(w)
            * inner ** (2.0 / self.q - 1.0)
            * a ** (self.q - 1.0)
            * self.a
            / (self.q - 1.0)
        )

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        v = _batch(v)
        return np.sum(np.abs(v) ** self.q * self.a, axis=-1) ** (1.0 / self.q)

    def dual_norm(self, z):
        z = as_dense(z, self.dim)
        return float(np.sum(np.abs(z) ** self.p * self._ad) ** (1.0 / self.p))


class GrowingQuadratic(Regularizer):
    """f_t(w) = 1/2 w^T A_t w with A_t <- A_{t-1} + (1/r) x x^T (or its diagonal).

    The inverse is maintained incrementally by the linalg trackers; the
    matrix itself is kept alongside for value/norm evaluation. Dimensions
    are fixed at construction.
    """

    time_varying = True

    def __init__(self, dim, r=1.0, scale=1.0, diagonal=False):
        self.dim = int(dim)
        self.r = float(r)
        self.diagonal = bool(diagonal)
        if diagonal:
            self.tracker = DiagInverse(dim, r=r, scale=scale)
            self.mat = None
        else:
            self.tracker = RankOneInverse(dim, r=r, scale=scale)
            self.mat = scale * np.eye(self.dim)

    def update(self, x):
        xd = as_dense(x, self.dim)
        self.tracker.update(xd)
        if not self.diagonal:
            self.mat += np.outer(xd, xd) / self.r

    def value(self, w):
        w = _batch(w)
        if self.diagonal:
            return 0.5 * np.sum(w * w * self.tracker.diag, axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", w, self.mat, w)

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        return 0.5 * float(theta @ self.tracker.apply(theta))

    def mirror_map(self, theta):
        return self.tracker.apply(as_dense(theta, self.dim))

    def gradient(self, w):
        w = as_dense(w, self.dim)
        if self.diagonal:
            return self.tracker.diag * w
        return self.mat @ w

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        return np.sqrt(np.maximum(2.0 * self.value(v), 0.0))

    def dual_norm(self, z):
        return math.sqrt(max(self.tracker.quad_form(as_dense(z, self.dim)), 0.0))


class CompositeQuadL1(Regularizer):
    """Composite schedule f_t = s(t) * quad/2 ||w||^2 + eta*t*(lam ||w||_1 + ridge/2 ||w||^2).

    The nondifferentiable part is folded into the regularizer, never
    subdifferentiated: the mirror map is coordinate-wise soft
    thresholding. Schedules for the plain quadratic part: constant,
    sqrt (s = sqrt(t)), linear (s = 0, i.e. f_t = eta*t*F).
    """

    time_varying = True
    SCHEDULES = ("constant", "sqrt", "linear")

    def __init__(self, dim, eta, lam=0.0, ridge=0.0, quad=1.0, schedule="sqrt"):
        if schedule not in self.SCHEDULES:
            raise ValueError(f"schedule must be one of {self.SCHEDULES}")
        if eta <= 0:
            raise ValueError("eta must be positive")
        if lam < 0 or ridge < 0:
            raise ValueError("lam and ridge must be nonnegative")
        if schedule == "linear":
            if ridge <= 0:
                raise ValueError("linear schedule needs a strongly convex F (ridge > 0)")
        elif quad <= 0:
            raise ValueError("quad must be positive")
        self.dim = int(dim)
        self.eta = float(eta)
        self.lam = float(lam)
        self.ridge = float(ridge)
        self.quad = float(quad)
        self.schedule = schedule
        self.t = 0

    def advance_step(self):
        self.t += 1

    def _coeffs(self):
        if self.t < 1:
            raise RuntimeError("regularizer queried before the first advance")
        s = {"constant": 1.0, "sqrt": math.sqrt(self.t), "linear": 0.0}[self.schedule]
        curvature = s * self.quad + self.eta * self.t * self.ridge
        threshold = self.eta * self.t * self.lam
        return curvature, threshold

    def value(self, w):
        w = _batch(w)
        c, thr = self._coeffs()
        return 0.5 * c * np.sum(w * w, axis=-1) + thr * np.sum(np.abs(w), axis=-1)

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        c, thr = self._coeffs()
        shr = np.maximum(np.abs(theta) - thr, 0.0)
        return float(np.sum(shr * shr)) / (2.0 * c)

    def mirror_map(self, theta):
        theta = as_dense(theta, self.dim)
        c, thr = self._coeffs()
        return np.sign(theta) * np.maximum(np.abs(theta) - thr, 0.0) / c

    def gradient(self, w):
        w = as_dense(w, self.dim)
        c, thr = self._coeffs()
        return c * w + thr * np.sign(w)

    def strong_convexity(self):
        c, _ = self._coeffs()
        return c

    def norm(self, v):
        return np.linalg.norm(_batch(v), axis=-1)

    def dual_norm(self, z):
        return float(np.linalg.norm(as_dense(z, self.dim)))

    # composite-objective pieces used by the bound evaluators
    def penalty_value(self, w):
        """F(w) = lam ||w||_1 + ridge/2 ||w||^2."""
        w = _batch(w)
        return self.lam * np.sum(np.abs(w), axis=-1) + 0.5 * self.ridge * np.sum(w * w, axis=-1)

    def base_quad_value(self, w):
        """g(w) = quad/2 ||w||^2, the schedule-free quadratic part."""
        w = _batch(w)
        return 0.5 * self.quad * np.sum(w * w, axis=-1)

    def scheduled_quad_value(self, w):
        """g_t(w) at the current step."""
        s = {"constant": 1.0, "sqrt": math.sqrt(max(self.t, 1)), "linear": 0.0}[self.schedule]
        return s * self.base_quad_value(w)


class _Scheduled(Regularizer):
    """f_t = factor(t) * base for a time-invariant base regularizer."""

    time_varying = True

    def __init__(self, base):
        if base.time_varying:
            raise ValueError("schedule wrappers need a time-invariant base")
        self.base = base
        self.dim = base.dim
        self.t = 0

    def _factor(self):
        raise NotImplementedError

    def advance_step(self):
        self.t += 1

    def value(self, w):
        return self._factor() * self.base.value(w)

    def conjugate(self, theta):
        f = self._factor()
        return f * self.base.conjugate(as_dense(theta, self.dim) / f)

    def mirror_map(self, theta):
        return self.base.mirror_map(as_dense(theta, self.dim) / self._factor())

    def gradient(self, w):
        return self._factor() * self.base.gradient(w)

    def strong_convexity(self):
        return self._factor() * self.base.strong_convexity()

    def norm(self, v):
        return self.base.norm(v)

    def dual_norm(self, z):
        return self.base.dual_norm(z)

    def scheduled_quad_value(self, w):
        return self.value(w)

    def base_quad_value(self, w):
        return self.base.value(w)

    def penalty_value(self, w):
        w = _batch(w)
        return np.zeros(w.shape[:-1]) if w.ndim > 1 else 0.0


class SqrtScheduled(_Scheduled):
    def _factor(self):
        if self.t < 1:
            raise RuntimeError("regularizer queried before the first advance")
        return math.sqrt(self.t)


class LinearScheduled(_Scheduled):
    def _factor(self):
        if self.t < 1:
            raise RuntimeError("regularizer queried before the first advance")
        return float(self.t)


class MaxScaled(_Scheduled):
    """f_t = X_t^2 * base with X_t the running max of base-dual norms of the inputs.

    Used by the adaptive filter: the schedule adapts to the largest input
    norm seen so far instead of requiring it up front. Before the first
    nonzero input f_t is 0, whose conjugate is the indicator of {0}.
    """

    def __init__(self, base):
        super().__init__(base)
        self.x_max = 0.0

    def observe_input(self, x):
        self.x_max = max(self.x_max, float(self.base.dual_norm(as_dense(x, self.dim))))

    def _factor(self):
        return self.x_max * self.x_max

    def conjugate(self, theta):
        if self._factor() == 0.0:
            return math.inf if np.any(as_dense(theta, self.dim) != 0.0) else 0.0
        return super().conjugate(theta)

    def mirror_map(self, theta):
        if self._factor() == 0.0:
            return np.zeros(self.dim)
        return super().mirror_map(theta)


class ScaleInvPNorm(Regularizer):
    """Weighted q_t-norm regularizer with per-feature maxima b_{t,i} as weights.

    f_t(w) = beta_t/2 * (sum_i (|w_i| b_{t,i})^{q_t})^{2/q_t}

    The exponent follows the largest observed support size m_t through
    p_t = max(2 ln m_t, 2) (clamped so q_t stays in (1, 2]), and beta_t
    grows with the accumulated normalized gradient statistics from rounds
    before t, so f_t never decreases pointwise. Everything only ever sees
    the ratios |theta_i| / b_{t,i}, which is what makes the induced
    predictions invariant to per-feature rescaling.

    Unseen coordinates (b_i = 0) are frozen: they contribute nothing to
    the value and the mirror map returns 0 there, the unique continuous
    extension since all past subgradients vanish on them.
    """

    time_varying = True

    def __init__(self, dim, lipschitz):
        if lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        self.dim = int(dim)
        self.lipschitz = float(lipschitz)
        self.b = np.zeros(self.dim)
        self.m = 0
        self.grad_stats = 0.0
        self.t = 0

    def observe_input(self, x):
        xd = as_dense(x, self.dim)
        self.t += 1
        np.maximum(self.b, np.abs(xd), out=self.b)
        self.m = max(self.m, int(np.count_nonzero(xd)))

    @property
    def p(self):
        if self.m >= 1:
            return max(2.0 * math.log(self.m), 2.0)
        return 2.0

    @property
    def q(self):
        p = self.p
        return p / (p - 1.0)

    def strong_convexity(self):
        p = self.p
        return math.sqrt(_E * self.lipschitz ** 2 * (p - 1.0) + self.grad_stats)

    def observe_gradient(self, g):
        p = self.p
        s = self._dual_core(as_dense(g, self.dim), p)
        self.grad_stats += (p - 1.0) * s * s

    def _dual_core(self, z, p):
        """(sum_{b_i>0} (|z_i|/b_i)^p)^{1/p}; inf if z lives on an unseen coordinate."""
        live = self.b > 0.0
        if np.any(z[~live] != 0.0):
            return math.inf
        u = np.abs(z[live]) / self.b[live]
        top = u.max(initial=0.0)
        if top == 0.0:
            return 0.0
        return top * np.sum((u / top) ** p) ** (1.0 / p)

    def value(self, w):
        w = _batch(w)
        q = self.q
        beta = self.strong_convexity()
        inner = np.sum((np.abs(w) * self.b) ** q, axis=-1)
        return 0.5 * beta * inner ** (2.0 / q)

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        s = self._dual_core(theta, self.p)
        if s == 0.0:
            return 0.0
        return s * s / (2.0 * self.strong_convexity())

    def mirror_map(self, theta):
        theta = as_dense(theta, self.dim)
        p = self.p
        beta = self.strong_convexity()
        live = self.b > 0.0
        out = np.zeros(self.dim)
        if np.any(theta[~live] != 0.0):
            raise ValueError("dual point has mass on a coordinate never observed")
        u = np.abs(theta[live]) / self.b[live]
        top = u.max(initial=0.0)
        if top == 0.0:
            return out
        core = np.sum((u / top) ** p)
        out[live] = (
            np.sign(theta[live])
            * top
            * core ** ((2.0 - p) / p)
            * (u / top) ** (p - 1.0)
            / (beta * self.b[live])
        )
        return out

    def gradient(self, w):
        w = as_dense(w, self.dim)
        q = self.q
        beta = self.strong_convexity()
        v = np.abs(w) * self.b
        top = v.max(initial=0.0)
        if top == 0.0:
            return np.zeros(self.dim)
        core = np.sum((v / top) ** q)
        return np.sign(w) * beta * top * core ** ((2.0 - q) / q) * (v / top) ** (q - 1.0) * self.b

    def norm(self, v):
        v = _batch(v)
        q = self.q
        inner = np.sum((np.abs(v) * self.b) ** q, axis=-1)
        return math.sqrt(q - 1.0) * inner ** (1.0 / q)

    def dual_norm(self, z):
        p = self.p
        return math.sqrt(p - 1.0) * self._dual_core(as_dense(z, self.dim), p)


class ScaleInvDiag(Regularizer):
    """Per-coordinate quadratic with weights sqrt(d) * b_i^2 * sqrt(L^2 + G_i).

    G_i accumulates (g_i / b_i)^2 over past rounds, giving a separate,
    scale-free learning rate per coordinate. Unseen coordinates are frozen
    exactly as in ScaleInvPNorm.
    """

    time_varying = True

    def __init__(self, dim, lipschitz):
        if lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        self.dim = int(dim)
        self.lipschitz = float(lipschitz)
        self.b = np.zeros(self.dim)
        self.gs = np.zeros(self.dim)
        self.t = 0

    def observe_input(self, x):
        xd = as_dense(x, self.dim)
        self.t += 1
        np.maximum(self.b, np.abs(xd), out=self.b)

    def observe_gradient(self, g):
        gd = as_dense(g, self.dim)
        live = self.b > 0.0
        if np.any(gd[~live] != 0.0):
            raise ValueError("gradient has mass on a coordinate never observed")
        self.gs[live] += (gd[live] / self.b[live]) ** 2

    def weight_diag(self):
        h = np.sqrt(self.lipschitz ** 2 + self.gs)
        return math.sqrt(self.dim) * self.b * self.b * h

    def value(self, w):
        w = _batch(w)
        return 0.5 * np.sum(w * w * self.weight_diag(), axis=-1)

    def conjugate(self, theta):
        theta = as_dense(theta, self.dim)
        hd = self.weight_diag()
        live = hd > 0.0
        if np.any(theta[~live] != 0.0):
            return math.inf
        return 0.5 * float(np.sum(theta[live] ** 2 / hd[live]))

    def mirror_map(self, theta):
        theta = as_dense(theta, self.dim)
        hd = self.weight_diag()
        out = np.zeros(self.dim)
        live = hd > 0.0
        if np.any(theta[~live] != 0.0):
            raise ValueError("dual point has mass on a coordinate never observed")
        out[live] = theta[live] / hd[live]
        return out

    def gradient(self, w):
        return self.weight_diag() * as_dense(w, self.dim)

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        v = _batch(v)
        return np.sqrt(np.sum(v * v * self.weight_diag(), axis=-1))

    def dual_norm(self, z):
        z = as_dense(z, self.dim)
        hd = self.weight_diag()
        live = hd > 0.0
        if np.any(z[~live] != 0.0):
            return math.inf
        return math.sqrt(float(np.sum(z[live] ** 2 / hd[live])))
