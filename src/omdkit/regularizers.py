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
  * f(v) >= f(w) + <theta, v-w> + (beta/2) ||v-w||^2 at w = mirror_map(theta)
  * dual_norm(z) == sup {<u,z> : norm(u) <= 1}

theta is a subgradient of f at mirror_map(theta), so the third line is
strong convexity at the points the engine visits, the inequality the
regret analysis applies, and a family needs no primal gradient.

The engine moves a family through two hooks, one per protocol position.
observe_input(x) runs before the round's prediction and takes f_{t-1} to
f_t: by default it is the schedule tick advance_step, the feature-driven
families override it (feature maxima and support sizes, MaxScaled's input
norm), and the growing quadratic runs its rank-one update(x).
observe_gradient(g) runs after the prediction, so f_t only ever depends
on subgradients from earlier rounds. Every hook binds new state arrays
and never writes into the old ones, so `snapshot` is a shallow copy that
keeps f_t while the hooks move the regularizer on to f_{t+1}. The hooks also
re-derive f_t's constants into plain attributes that the methods only read.
The scale-invariant families derive their observed coordinates this way:
`live`, the mask of coordinates with a positive scale (b_i, or the weight
in ScaleInvDiag), and `all_live`, whether that is every coordinate. While
some coordinate is unseen, their methods gather a vector's live part and
scatter results back; once all are live, which on dense rows is every
round after the first, they read whole vectors with no mask, with the
same bits.
f_0, the state before any hook, is defined: where a schedule factor or
curvature is 0, f_t is the zero function, with conjugate the indicator of
{0} and mirror map 0.

Given a snapshot prev of an earlier state, f_t reports the engine's two
differences: value_drop(prev, w) = f_prev(w) - f_t(w) and
residue(prev, theta, conj) = f*_t(theta) - f*_prev(theta), where conj is
f*_t(theta). By default they evaluate prev; the full growing quadratic
has both in closed form, ScaleInvPNorm and CompositeQuadL1 take f*_prev
without the gradient that `dual` builds, and CompositeQuadL1 reads the
two sums of w that both of its values need once.

For a gradient learner, `lipschitz` is the largest Lipschitz constant of
a loss the family takes (L in the scale-invariant families, else inf), and
`round_extras(w_t)` the family's fields of the round's record: `penalty_w`
in CompositeQuadL1, `m_t` and `p_t` in ScaleInvPNorm, and none in the
others; the scale-invariant families' `kind` names their regret display.

`value` and `norm` accept batched inputs of shape (N, d) for the grid
comparators; `conjugate` and `mirror_map` convert one vector, and every
other method takes a dense float64 vector of length dim, unchecked (the
Euclidean dual norms take a list too). Sums call np.add.reduce, the
pairwise reduction that np.sum runs, so they keep its bits without its
Python-level dispatch, which costs more than the arithmetic on a d=10
vector.
"""

import math

import numpy as np

from .linalg import DiagInverse, RankOneInverse, as_dense

_E = math.e


class Regularizer:
    """Interface shared by all regularizer families."""

    dim = 0
    time_varying = False
    lipschitz = math.inf

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

    def value_drop(self, prev, w):
        """f_prev(w) - f(w), where prev is an earlier state of this regularizer."""
        return prev.value(w) - self.value(w)

    def residue(self, prev, theta, conj):
        """f*(theta) - f*_prev(theta), given conj = f*(theta); prev is an earlier state."""
        return conj - prev.dual(theta)[0]

    def strong_convexity(self):
        raise NotImplementedError

    def norm(self, v):
        raise NotImplementedError

    def dual_norm(self, z):
        raise NotImplementedError

    def advance_step(self):
        pass

    def observe_input(self, x):
        """Move f_{t-1} to f_t before the round's prediction; by default a schedule tick."""
        self.advance_step()

    def observe_gradient(self, g):
        pass

    def snapshot(self):
        """f_t as it stands: shares the state arrays, which the hooks only rebind."""
        return _shallow(self)

    def round_extras(self, w):
        """The family's own fields of a gradient learner's round record, at w_t."""
        return {}


def _shallow(obj):
    """A copy of obj sharing its attributes' values; unlike copy.copy, it bypasses the
    reduce protocol, and with it a __getstate__."""
    new = object.__new__(type(obj))
    vars(new).update(vars(obj))
    return new


def _batch(w):
    return np.asarray(w, dtype=np.float64)


def _euclidean(z):
    """||z||_2 of a vector or a list, with the bits of np.linalg.norm: sqrt of the dot product."""
    z = _batch(z)
    return math.sqrt(z @ z)


def _moments(w):
    """(||w||^2, ||w||_1) along the last axis."""
    w = _batch(w)
    return np.add.reduce(w * w, -1), np.add.reduce(np.abs(w), -1)


def _lipschitz(value):
    """A scale-invariant family's Lipschitz constant as a float: positive, with a finite
    square, which beta and the diagonal weights are built from."""
    if value <= 0:
        raise ValueError("lipschitz must be positive")
    value = float(value)
    if not math.isfinite(value * value):
        raise ValueError(f"lipschitz={value!r} is too large: its square is not finite")
    return value


def _gather(reg, z):
    """z on a scale-invariant family's live coordinates, or None where z has mass on another.

    Where every coordinate is live, as from the first round of a dense stream
    on, z itself: no test and no copy.
    """
    if reg.all_live:
        return z
    if z[~reg.live].any():
        return None
    return z[reg.live]


def _scatter(reg, vals):
    """vals, given on reg's live coordinates, as a length-dim vector that is 0 elsewhere."""
    if reg.all_live:
        return vals
    out = np.zeros(reg.dim)
    out[reg.live] = vals
    return out


def _count(rows):
    """The number of rows in a GrowingQuadratic row history."""
    return 0 if rows is None else rows[0]


class FixedQuadratic(Regularizer):
    """f(w) = scale/2 * ||w||^2. Self-conjugate up to scale; Euclidean norms."""

    def __init__(self, dim, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.dim = int(dim)
        self.scale = float(scale)

    def value(self, w):
        w = _batch(w)
        return 0.5 * self.scale * np.add.reduce(w * w, -1)

    def dual(self, theta):
        return float(theta @ theta) / (2.0 * self.scale), theta / self.scale

    def strong_convexity(self):
        return self.scale

    def norm(self, v):
        return np.linalg.norm(_batch(v), axis=-1)

    def dual_norm(self, z):
        return _euclidean(z)


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
        return 0.5 * np.add.reduce(np.abs(w) ** self.p, -1) ** (2.0 / self.p)

    def dual(self, theta):
        a = np.abs(theta)
        total = np.add.reduce(a ** self.q)
        conj = float(0.5 * total ** (2.0 / self.q))
        if not a.any():
            return conj, np.zeros(self.dim)
        nq = total ** (1.0 / self.q)
        return conj, np.sign(theta) * (a / nq) ** (self.q - 1.0) * nq

    def strong_convexity(self):
        return self.p - 1.0

    def norm(self, v):
        v = _batch(v)
        return np.add.reduce(np.abs(v) ** self.p, -1) ** (1.0 / self.p)

    def dual_norm(self, z):
        return float(np.add.reduce(np.abs(z) ** self.q) ** (1.0 / self.q))


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
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        self.dim = int(dim)
        self.q = float(q)
        self.p = self.q / (self.q - 1.0)
        self.a = weights
        self._ad = weights ** (1.0 - self.p)

    def value(self, w):
        w = _batch(w)
        inner = np.add.reduce(np.abs(w) ** self.q * self.a, -1)
        return inner ** (2.0 / self.q) / (2.0 * (self.q - 1.0))

    def dual(self, theta):
        a = np.abs(theta)
        inner = np.add.reduce(a ** self.p * self._ad)
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

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        v = _batch(v)
        return np.add.reduce(np.abs(v) ** self.q * self.a, -1) ** (1.0 / self.q)

    def dual_norm(self, z):
        return float(np.add.reduce(np.abs(z) ** self.p * self._ad) ** (1.0 / self.p))


class GrowingQuadratic(Regularizer):
    """f_t(w) = 1/2 w^T A_t w with A_t <- A_{t-1} + (1/r) x x^T (or its diagonal), A_0 = scale*I.

    The linalg trackers maintain A_t^{-1} incrementally for the conjugate
    side; the full variant's RankOneInverse keeps the last update's
    A_{t-1}^{-1} x_t, which gives the conjugate residue f*_t - f*_{t-1} in
    closed form. The full variant never forms A_t: it keeps `scale` and an
    append-only history of the update rows, `rows`, which is None or the
    persistent triple (n, x_n, rows before x_n). It evaluates
    f_t(u) = 1/2 (scale ||u||^2 + sum_s (x_s . u)^2 / r) one row at a time,
    and its value drop f_{t-1}(w) - f_t(w) = -(x_t . w)^2 / (2r) in closed
    form. An update prepends one triple in O(1) and leaves the older ones
    as they were, so a snapshot never sees rows added after it. The history
    keeps a reference to each row, not a copy: the learners pass rows of
    the read-only Dataset.X, and a caller that writes into a row it passed
    changes f_t. The diagonal variant reads diag(A_t) from its tracker and
    keeps no rows. Dimensions are fixed at construction.
    """

    time_varying = True

    def __init__(self, dim, r=1.0, scale=1.0, diagonal=False):
        self.dim = int(dim)
        self.r = float(r)
        self.scale = float(scale)
        self.diagonal = bool(diagonal)
        self.rows = None
        tracker = DiagInverse if diagonal else RankOneInverse
        self.tracker = tracker(dim, r=r, scale=scale)

    def update(self, x, u=None):
        """A <- A + (1/r) x x^T; u is A^{-1} x before it, where the caller has it, for the
        full variant's tracker, which computes it otherwise."""
        if self.diagonal:
            self.tracker.update(x)
        else:
            self.tracker.update(x, u)
            self.rows = (_count(self.rows) + 1, x, self.rows)

    def observe_input(self, x, u=None):
        self.update(x, u)

    def snapshot(self):
        snap = _shallow(self)
        snap.tracker = _shallow(self.tracker)
        return snap

    def __getstate__(self):
        """The history as a flat list, oldest row first, so that deepcopy and pickle
        do not recurse once per row."""
        return {**vars(self), "rows": list(self._rows())[::-1]}

    def __setstate__(self, state):
        vars(self).update(state, rows=None)
        for x in state["rows"]:
            self.rows = (_count(self.rows) + 1, x, self.rows)

    def _rows(self, keep=0):
        """The history's rows after its first `keep`, newest first."""
        node = self.rows
        while _count(node) > keep:
            _, x, node = node
            yield x

    def _squares(self, w, keep=0):
        """sum_s (x_s . w)^2 over the rows after the first `keep`, one row at a time.

        It walks the history itself rather than through _rows: it runs once a
        round in the engine and on every oracle probe, where a generator's
        overhead shows.
        """
        total, node = 0.0, self.rows
        while _count(node) > keep:
            _, x, node = node
            v = w @ x
            total = total + v * v
        return total

    def value(self, w):
        w = _batch(w)
        if self.diagonal:
            return 0.5 * np.add.reduce(w * w * self.tracker.diag, -1)
        return 0.5 * (self.scale * np.vecdot(w, w) + self._squares(w) / self.r)

    def value_drop(self, prev, w):
        """-sum (x_s . w)^2 / (2r) over the rows added since prev; exact up to the dot products.

        Written as 0.0 minus the sum, so that w = 0 gives +0.0, and computed in
        numpy float64, so that an overflow gives -inf rather than raising.
        """
        if self.diagonal:
            return super().value_drop(prev, w)
        return 0.0 - self._squares(w, _count(prev.rows)) / (2.0 * self.r)

    def residue(self, prev, theta, conj):
        """-1/2 (u . theta)^2 / (r + chi) where prev is one row back, in closed form.

        With u = A_{t-1}^{-1} x_t and chi = x_t^T u from the tracker's last
        update, this is f*(theta) - f*_prev(theta) by Sherman-Morrison, without
        evaluating f*_prev; written as 0.0 minus it, as in value_drop. Further
        back, or in the diagonal variant, it is the difference of the conjugates.
        """
        if self.diagonal or _count(self.rows) - _count(prev.rows) != 1:
            return super().residue(prev, theta, conj)
        return 0.0 - 0.5 * self.tracker.quad_drop(theta)

    def dual(self, theta):
        v = self.tracker.apply(theta)
        return 0.5 * float(theta @ v), v

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        return np.sqrt(np.maximum(2.0 * self.value(v), 0.0))

    def dual_norm(self, z):
        return math.sqrt(max(self.tracker.quad_form(z), 0.0))


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
        return self._value(*_moments(w))

    def _value(self, sq, l1):
        """f(w) from the sums sq = ||w||^2 and l1 = ||w||_1."""
        return 0.5 * self.curvature * sq + self.threshold * l1

    def value_drop(self, prev, w):
        """f_prev(w) - f(w), the two values from one reading of w's two sums."""
        moments = _moments(w)
        return prev._value(*moments) - self._value(*moments)

    def dual(self, theta):
        conj, shr = self._conjugate(theta)
        if shr is None:
            return conj, np.zeros(self.dim)
        return conj, np.sign(theta) * shr / self.curvature

    def _conjugate(self, theta):
        """(f*(theta), max(|theta| - threshold, 0)), the latter None where f is 0."""
        if self.curvature == 0.0:
            return (math.inf if theta.any() else 0.0), None
        shr = np.maximum(np.abs(theta) - self.threshold, 0.0)
        return float(np.add.reduce(shr * shr)) / (2.0 * self.curvature), shr

    def residue(self, prev, theta, conj):
        """f*(theta) - f*_prev(theta), f*_prev without the gradient that `dual` builds."""
        return conj - prev._conjugate(theta)[0]

    def strong_convexity(self):
        return self.curvature

    def norm(self, v):
        return np.linalg.norm(_batch(v), axis=-1)

    def dual_norm(self, z):
        return _euclidean(z)

    def round_extras(self, w):
        return {"penalty_w": float(self.penalty_value(w))}

    # composite-objective pieces used by the bound evaluators
    def penalty_value(self, w):
        """F(w) = lam ||w||_1 + ridge/2 ||w||^2."""
        sq, l1 = _moments(w)
        return self.lam * l1 + 0.5 * self.ridge * sq

    def base_quad_value(self, w):
        """g(w) = quad/2 ||w||^2, the schedule-free quadratic part."""
        w = _batch(w)
        return 0.5 * self.quad * np.add.reduce(w * w, -1)

    def scheduled_quad_value(self, w):
        """g_t(w) at the current step; g_0 = 0 under the sqrt schedule."""
        return self.factor * self.base_quad_value(w)


class _Scheduled(Regularizer):
    """f_t = factor * base for a time-invariant base regularizer; f_0 has factor 0.

    A wrapper has no composite penalty F, so the composite displays, which
    take CompositeQuadL1 runs alone, do not apply; a run over SqrtScheduled
    or LinearScheduled is audited by the engine bound.
    """

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
            return (math.inf if theta.any() else 0.0), np.zeros(self.dim)
        conj, grad = self.base.dual(theta / self.factor)
        return self.factor * conj, grad

    def strong_convexity(self):
        return self.factor * self.base.strong_convexity()

    def norm(self, v):
        return self.base.norm(v)

    def dual_norm(self, z):
        return self.base.dual_norm(z)


class SqrtScheduled(_Scheduled):
    def advance_step(self):
        self.t += 1
        self.factor = math.sqrt(self.t)


class LinearScheduled(_Scheduled):
    def advance_step(self):
        self.t += 1
        self.factor = float(self.t)


class MaxScaled(_Scheduled):
    """f_t = X_t^2 * base with X_t the running max of base-dual norms of the inputs.

    The adaptive filter is the square-loss gradient learner over it: the
    schedule adapts to the largest input norm seen so far instead of
    requiring it up front. Before the first nonzero input f_t is 0.
    """

    def __init__(self, base):
        super().__init__(base)
        self.x_max = 0.0

    def observe_input(self, x):
        self.x_max = max(self.x_max, float(self.base.dual_norm(x)))
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
    kind = "pnorm"  # the scale-invariant regret display that audits it

    def __init__(self, dim, lipschitz):
        self.dim = int(dim)
        self.lipschitz = _lipschitz(lipschitz)
        self.b = np.zeros(self.dim)
        self.m = 0
        self.grad_stats = 0.0
        self._derive()

    def observe_input(self, x):
        self.b = np.maximum(self.b, np.abs(x))
        self.m = max(self.m, int(np.count_nonzero(x)))
        self._derive()

    def observe_gradient(self, g):
        s = self._dual_core(g)
        self.grad_stats += (self.p - 1.0) * s * s
        self._derive_beta()

    def _derive(self):
        """p and q from m; the observed coordinates, whether all are, and their b; then beta."""
        self.p = max(2.0 * math.log(self.m), 2.0) if self.m >= 1 else 2.0
        self.q = self.p / (self.p - 1.0)
        self.live = self.b > 0.0
        self.all_live = bool(self.live.all())
        self.b_live = self.b if self.all_live else self.b[self.live]
        self._derive_beta()

    def _derive_beta(self):
        """beta from p and grad_stats, the one constant that a gradient moves."""
        self.beta = math.sqrt(_E * self.lipschitz ** 2 * (self.p - 1.0) + self.grad_stats)

    def strong_convexity(self):
        return self.beta

    def round_extras(self, w):
        return {"m_t": self.m, "p_t": self.p}

    def _ratios(self, z):
        """|z_i|/b_i on the observed coordinates and their max; None if z lives on an unseen one."""
        z = _gather(self, z)
        if z is None:
            return None
        u = np.abs(z) / self.b_live
        return u, u.max(initial=0.0)

    def _dual_core(self, z):
        """(sum_{b_i>0} (|z_i|/b_i)^p)^{1/p}; inf if z lives on an unseen coordinate."""
        ratios = self._ratios(z)
        if ratios is None:
            return math.inf
        u, top = ratios
        if top == 0.0:
            return 0.0
        return top * np.add.reduce((u / top) ** self.p) ** (1.0 / self.p)

    def value(self, w):
        w = _batch(w)
        inner = np.add.reduce((np.abs(w) * self.b) ** self.q, -1)
        return 0.5 * self.beta * inner ** (2.0 / self.q)

    def dual(self, theta):
        ratios = self._ratios(theta)
        if ratios is None:
            return math.inf, None
        u, top = ratios
        if top == 0.0:
            return 0.0, np.zeros(self.dim)
        p = self.p
        r = u / top
        core = np.add.reduce(r ** p)
        s = top * core ** (1.0 / p)
        grad = (
            np.sign(_gather(self, theta))
            * top
            * core ** ((2.0 - p) / p)
            * r ** (p - 1.0)
            / (self.beta * self.b_live)
        )
        return s * s / (2.0 * self.beta), _scatter(self, grad)

    def residue(self, prev, theta, conj):
        """f*(theta) - f*_prev(theta), f*_prev = s^2/(2 beta) from prev's dual norm core alone."""
        s = prev._dual_core(theta)
        return conj - s * s / (2.0 * prev.beta)

    def norm(self, v):
        v = _batch(v)
        inner = np.add.reduce((np.abs(v) * self.b) ** self.q, -1)
        return math.sqrt(self.q - 1.0) * inner ** (1.0 / self.q)

    def dual_norm(self, z):
        return math.sqrt(self.p - 1.0) * self._dual_core(z)


class ScaleInvDiag(Regularizer):
    """Per-coordinate quadratic with weights sqrt(d) * b_i^2 * sqrt(L^2 + G_i).

    G_i accumulates (g_i / b_i)^2 over past rounds, giving a separate,
    scale-free learning rate per coordinate. Unseen coordinates are frozen
    exactly as in ScaleInvPNorm; here a coordinate is live where its weight
    is positive.
    """

    time_varying = True
    kind = "diag"

    def __init__(self, dim, lipschitz):
        self.dim = int(dim)
        self.lipschitz = _lipschitz(lipschitz)
        self.b = np.zeros(self.dim)
        self.gs = np.zeros(self.dim)
        self._derive()

    def observe_input(self, x):
        self.b = np.maximum(self.b, np.abs(x))
        self._derive()

    def observe_gradient(self, g):
        if self.all_live:  # every weight is positive, so every b_i is
            self.gs = self.gs + (g / self.b) ** 2
        else:
            # b_i > 0 can still give a zero weight when b_i^2 underflows
            seen = self.b > 0.0
            if g[~seen].any():
                raise ValueError("gradient has mass on a coordinate never observed")
            gs = self.gs.copy()
            gs[seen] += (g[seen] / self.b[seen]) ** 2
            self.gs = gs
        self._derive()

    def _derive(self):
        """The weights of the current b and gs; where, and whether everywhere, they are positive;
        and the positive ones."""
        h = np.sqrt(self.lipschitz ** 2 + self.gs)
        self.weights = math.sqrt(self.dim) * self.b * self.b * h
        self.live = self.weights > 0.0
        self.all_live = bool(self.live.all())
        self.weights_live = self.weights if self.all_live else self.weights[self.live]

    def value(self, w):
        w = _batch(w)
        return 0.5 * np.add.reduce(w * w * self.weights, -1)

    def dual(self, theta):
        th = _gather(self, theta)
        if th is None:
            return math.inf, None
        conj = 0.5 * float(np.add.reduce(th ** 2 / self.weights_live))
        return conj, _scatter(self, th / self.weights_live)

    def strong_convexity(self):
        return 1.0

    def norm(self, v):
        v = _batch(v)
        return np.sqrt(np.add.reduce(v * v * self.weights, -1))

    def dual_norm(self, z):
        z = _gather(self, z)
        if z is None:
            return math.inf
        return math.sqrt(float(np.add.reduce(z ** 2 / self.weights_live)))
