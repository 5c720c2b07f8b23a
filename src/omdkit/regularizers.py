"""Time-varying regularizers: value, Fenchel conjugate, mirror map, and norms.

Every family exposes the triple used by the regret analysis: f_t itself,
its conjugate, and the gradient of the conjugate (the mirror map), plus
the norm with respect to which f_t is strongly convex and that norm's
dual. A family computes the conjugate and its gradient together, in one
`dual(theta)` method that shares their intermediates; `conjugate` and
`mirror_map` are defined once, on `Regularizer`, and each converts its
input and returns one side of `dual`. The contract tying them together is
checked numerically by the oracle test suite:

  * mirror_map(theta) == argmax_v (<v,theta> - f(v))
  * f(mirror_map(u)) + f*(u) == <mirror_map(u), u>
  * f(v) >= f(u) + <grad f(u), v-u> + (beta/2) ||u-v||^2
  * dual_norm(z) == sup {<u,z> : norm(u) <= 1}

State-advancing hooks are split by protocol position: advance_step is a
schedule tick, observe_input must run before the round's prediction
(feature maxima, support sizes, the growing quadratic in feature-driven
mode), observe_gradient runs after the prediction so f_t only ever depends
on subgradients from earlier rounds. Every hook binds new state arrays and
never writes into the old ones, so `snapshot` is a shallow copy that keeps
f_t while the hooks move the regularizer on to f_{t+1}. The hooks also
re-derive f_t's constants into plain attributes that the methods only read.
f_0, the state before any hook, is defined: where a schedule factor or
curvature is 0, f_t is the zero function, with conjugate the indicator of
{0} and mirror map 0.

`value` and `norm` accept batched inputs of shape (N, d) for the grid
comparators; `conjugate`, `mirror_map`, `gradient`, `dual_norm` take a
single vector, and `dual` a dense float64 one.
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

    def dual(self, theta):
        """(f*(theta), grad f*(theta)) at a dense float64 theta of length dim.

        The gradient is None where f*(theta) is +inf and has none: in the
        scale-invariant families, when theta has mass on a coordinate never
        observed.
        """
        raise NotImplementedError

    def conjugate(self, theta):
        return self.dual(as_dense(theta, self.dim))[0]

    def mirror_map(self, theta):
        grad = self.dual(as_dense(theta, self.dim))[1]
        if grad is None:
            raise ValueError("dual point has mass on a coordinate never observed")
        return grad

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
        """f_t as it stands: shares the state arrays, which the hooks only rebind."""
        return copy.copy(self)


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

    def dual(self, theta):
        return float(theta @ theta) / (2.0 * self.scale), theta / self.scale

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

    def dual(self, theta):
        a = np.abs(theta)
        total = np.sum(a ** self.q)
        conj = float(0.5 * total ** (2.0 / self.q))
        if not a.any():
            return conj, np.zeros(self.dim)
        nq = total ** (1.0 / self.q)
        return conj, np.sign(theta) * (a / nq) ** (self.q - 1.0) * nq

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

    def dual(self, theta):
        a = np.abs(theta)
        inner = np.sum(a ** self.p * self._ad)
        conj = float(inner) ** (2.0 / self.p) / (2.0 * (self.p - 1.0))
        if not a.any():
            return conj, np.zeros(self.dim)
        return conj, (
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
            self._outer = np.empty((self.dim, self.dim))  # scratch for the rank-one term

    def update(self, x):
        xd = as_dense(x, self.dim)
        self.tracker.update(xd)
        if not self.diagonal:
            outer = np.outer(xd, xd, out=self._outer)
            outer /= self.r
            self.mat = self.mat + outer

    def snapshot(self):
        snap = super().snapshot()
        snap.tracker = copy.copy(self.tracker)
        return snap

    def value(self, w):
        w = _batch(w)
        if self.diagonal:
            return 0.5 * np.sum(w * w * self.tracker.diag, axis=-1)
        return 0.5 * np.einsum("...i,ij,...j->...", w, self.mat, w)

    def dual(self, theta):
        v = self.tracker.apply(theta)
        return 0.5 * float(theta @ v), v

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
        self._derive()

    def advance_step(self):
        self.t += 1
        self._derive()

    def _derive(self):
        self.factor = {"constant": 1.0, "sqrt": math.sqrt(self.t), "linear": 0.0}[self.schedule]
        self.curvature = self.factor * self.quad + self.eta * self.t * self.ridge
        self.threshold = self.eta * self.t * self.lam

    def value(self, w):
        w = _batch(w)
        return (0.5 * self.curvature * np.sum(w * w, axis=-1)
                + self.threshold * np.sum(np.abs(w), axis=-1))

    def dual(self, theta):
        if self.curvature == 0.0:
            return (math.inf if np.any(theta != 0.0) else 0.0), np.zeros(self.dim)
        shr = np.maximum(np.abs(theta) - self.threshold, 0.0)
        return (float(np.sum(shr * shr)) / (2.0 * self.curvature),
                np.sign(theta) * shr / self.curvature)

    def gradient(self, w):
        w = as_dense(w, self.dim)
        return self.curvature * w + self.threshold * np.sign(w)

    def strong_convexity(self):
        return self.curvature

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
        """g_t(w) at the current step; g_0 = 0 under the sqrt schedule."""
        return self.factor * self.base_quad_value(w)


class _Scheduled(Regularizer):
    """f_t = factor * base for a time-invariant base regularizer; f_0 has factor 0."""

    time_varying = True

    def __init__(self, base):
        if base.time_varying:
            raise ValueError("schedule wrappers need a time-invariant base")
        self.base = base
        self.dim = base.dim
        self.t = 0
        self.factor = 0.0

    def value(self, w):
        return self.factor * self.base.value(w)

    def dual(self, theta):
        if self.factor == 0.0:
            return (math.inf if np.any(theta != 0.0) else 0.0), np.zeros(self.dim)
        conj, grad = self.base.dual(theta / self.factor)
        return self.factor * conj, grad

    def gradient(self, w):
        return self.factor * self.base.gradient(w)

    def strong_convexity(self):
        return self.factor * self.base.strong_convexity()

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
    schedule = "sqrt"

    def advance_step(self):
        self.t += 1
        self.factor = math.sqrt(self.t)


class LinearScheduled(_Scheduled):
    schedule = "linear"

    def advance_step(self):
        self.t += 1
        self.factor = float(self.t)


class MaxScaled(_Scheduled):
    """f_t = X_t^2 * base with X_t the running max of base-dual norms of the inputs.

    Used by the adaptive filter: the schedule adapts to the largest input
    norm seen so far instead of requiring it up front. Before the first
    nonzero input f_t is 0.
    """

    def __init__(self, base):
        super().__init__(base)
        self.x_max = 0.0

    def observe_input(self, x):
        self.x_max = max(self.x_max, float(self.base.dual_norm(as_dense(x, self.dim))))
        self.factor = self.x_max * self.x_max


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
        self._derive()

    def observe_input(self, x):
        xd = as_dense(x, self.dim)
        self.b = np.maximum(self.b, np.abs(xd))
        self.m = max(self.m, int(np.count_nonzero(xd)))
        self._derive()

    def observe_gradient(self, g):
        s = self._dual_core(as_dense(g, self.dim))
        self.grad_stats += (self.p - 1.0) * s * s
        self._derive()

    def _derive(self):
        """p, q and beta from m and grad_stats; the observed coordinates and their b."""
        self.p = max(2.0 * math.log(self.m), 2.0) if self.m >= 1 else 2.0
        self.q = self.p / (self.p - 1.0)
        self.beta = math.sqrt(_E * self.lipschitz ** 2 * (self.p - 1.0) + self.grad_stats)
        self.live = self.b > 0.0
        self.b_live = self.b[self.live]

    def strong_convexity(self):
        return self.beta

    def _ratios(self, z):
        """|z_i|/b_i on the observed coordinates and their max; None if z lives on an unseen one."""
        if np.any(z[~self.live] != 0.0):
            return None
        u = np.abs(z[self.live]) / self.b_live
        return u, u.max(initial=0.0)

    def _dual_core(self, z):
        """(sum_{b_i>0} (|z_i|/b_i)^p)^{1/p}; inf if z lives on an unseen coordinate."""
        ratios = self._ratios(z)
        if ratios is None:
            return math.inf
        u, top = ratios
        if top == 0.0:
            return 0.0
        return top * np.sum((u / top) ** self.p) ** (1.0 / self.p)

    def value(self, w):
        w = _batch(w)
        inner = np.sum((np.abs(w) * self.b) ** self.q, axis=-1)
        return 0.5 * self.beta * inner ** (2.0 / self.q)

    def dual(self, theta):
        ratios = self._ratios(theta)
        if ratios is None:
            return math.inf, None
        u, top = ratios
        out = np.zeros(self.dim)
        if top == 0.0:
            return 0.0, out
        p = self.p
        core = np.sum((u / top) ** p)
        s = top * core ** (1.0 / p)
        out[self.live] = (
            np.sign(theta[self.live])
            * top
            * core ** ((2.0 - p) / p)
            * (u / top) ** (p - 1.0)
            / (self.beta * self.b_live)
        )
        return s * s / (2.0 * self.beta), out

    def gradient(self, w):
        w = as_dense(w, self.dim)
        q, beta = self.q, self.beta
        v = np.abs(w) * self.b
        top = v.max(initial=0.0)
        if top == 0.0:
            return np.zeros(self.dim)
        core = np.sum((v / top) ** q)
        return np.sign(w) * beta * top * core ** ((2.0 - q) / q) * (v / top) ** (q - 1.0) * self.b

    def norm(self, v):
        v = _batch(v)
        inner = np.sum((np.abs(v) * self.b) ** self.q, axis=-1)
        return math.sqrt(self.q - 1.0) * inner ** (1.0 / self.q)

    def dual_norm(self, z):
        return math.sqrt(self.p - 1.0) * self._dual_core(as_dense(z, self.dim))


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
        self._derive()

    def observe_input(self, x):
        xd = as_dense(x, self.dim)
        self.b = np.maximum(self.b, np.abs(xd))
        self._derive()

    def observe_gradient(self, g):
        gd = as_dense(g, self.dim)
        # b_i > 0 can still give a zero weight when b_i^2 underflows
        seen = self.b > 0.0
        if np.any(gd[~seen] != 0.0):
            raise ValueError("gradient has mass on a coordinate never observed")
        gs = self.gs.copy()
        gs[seen] += (gd[seen] / self.b[seen]) ** 2
        self.gs = gs
        self._derive()

    def _derive(self):
        """The weight diagonal of the current b and gs, and where it is positive."""
        h = np.sqrt(self.lipschitz ** 2 + self.gs)
        self.weights = math.sqrt(self.dim) * self.b * self.b * h
        self.live = self.weights > 0.0

    def value(self, w):
        w = _batch(w)
        return 0.5 * np.sum(w * w * self.weights, axis=-1)

    def dual(self, theta):
        live = self.live
        if np.any(theta[~live] != 0.0):
            return math.inf, None
        th, weights = theta[live], self.weights[live]
        out = np.zeros(self.dim)
        out[live] = th / weights
        return 0.5 * float(np.sum(th ** 2 / weights)), out

    def gradient(self, w):
        return self.weights * as_dense(w, self.dim)

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        v = _batch(v)
        return np.sqrt(np.sum(v * v * self.weights, axis=-1))

    def dual_norm(self, z):
        z = as_dense(z, self.dim)
        if np.any(z[~self.live] != 0.0):
            return math.inf
        return math.sqrt(float(np.sum(z[self.live] ** 2 / self.weights[self.live])))
