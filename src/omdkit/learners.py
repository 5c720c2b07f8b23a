"""Online learners built on the mirror-descent engine with time-varying regularizers.

Every learner follows the same skeleton: theta starts at zero, w_t is the
mirror map of theta at the round's regularizer state, the observed update
z_t is added to theta. w is derived on its first read after theta or f
moved, so no mirror map is spent on a w that nothing reads. Two
OnlineLearner helpers hold that skeleton:

  _advance  snapshots f_{t-1}, runs the learner's state hook (a schedule
            tick, an input observation or a rank-one update), takes
            f*_t(theta) and w_t from one `dual` call on f_t and returns the
            conjugate residue and the value drop at w_t;
  _emit     records <z_t, w_t>, folds an optional loss subgradient into
            f, applies theta += z_t and returns the round's StepRecord.

What differs per learner is the protocol: which hook advances the state
before the prediction, how z_t is formed, and whether a subgradient is
folded back in. The StepRecord carries the audit quantities (dual norm of
z_t, strong convexity, conjugate residue) consumed by the bound
evaluators. A learner's attributes (eta, loss_name, a, kind, lipschitz,
variant, r) are the run's parameters as the evaluators read them.
"""

from dataclasses import dataclass, field

import numpy as np

from . import losses
from .linalg import as_dense
from .regularizers import (
    FixedQuadratic,
    GrowingQuadratic,
    MaxScaled,
    ScaleInvDiag,
    ScaleInvPNorm,
)


@dataclass
class StepRecord:
    """One audited round: prediction, loss, the applied update, and bound terms."""

    t: int
    prediction: float
    label: float
    loss: float
    eta: float
    z: np.ndarray
    mistake: bool = False
    margin_error: bool = False
    dual_norm_sq: float = 0.0
    beta: float = 1.0
    residue: float = 0.0
    reg_drop: float = 0.0
    zw: float = 0.0
    extras: dict = field(default_factory=dict)


def _check_binary(y):
    y = float(y)
    if y not in (-1.0, 1.0):
        raise ValueError(f"labels must be -1 or +1, got {y}")
    return y


class OnlineLearner:
    """Dual-averaging state: theta accumulates updates, w rides the mirror map."""

    binary_labels = False  # whether the harness must see labels in {-1, +1}

    def __init__(self, reg):
        self.reg = reg
        self.dim = reg.dim
        self.theta = np.zeros(self.dim)
        self._w = np.zeros(self.dim)  # None once theta or f has moved past it
        self.t = 0

    @property
    def w(self):
        """mirror_map(theta) at the current f, derived on the first read after a move."""
        if self._w is None:
            self._w = self.reg.mirror_map(self.theta)
        return self._w

    @w.setter
    def w(self, value):
        self._w = value

    def apply_update(self, z):
        """Engine step: theta += z; w is re-derived on its next read."""
        self.theta = self.theta + as_dense(z, self.dim)
        self._w = None

    def _advance(self, hook, *args):
        """Move f_{t-1} to f_t through hook(*args).

        Returns (residue, reg_drop): f*_t(theta) - f*_{t-1}(theta) and
        f_{t-1}(w_t) - f_t(w_t); both are zero for a fixed regularizer,
        whose hook leaves f, and with it w, as it was. In round 1 f_{t-1}
        is f_0, which every time-varying family defines. One `dual` call
        on f_t gives f*_t(theta) and w_t; where it gives no gradient, the
        read of w raises through mirror_map.
        """
        if not self.reg.time_varying:
            hook(*args)
            return 0.0, 0.0
        prev = self.reg.snapshot()
        hook(*args)
        conj, self._w = self.reg.dual(self.theta)
        w = self.w
        residue = conj - prev.dual(self.theta)[0]
        return float(residue), float(prev.value(w) - self.reg.value(w))

    def _emit(self, z, grad=None, **fields):
        """Record <z, w_t>, fold the loss subgradient grad into f, apply theta += z.

        A zero z with no grad leaves theta and f as they are, so the step is
        skipped and w keeps its bits.
        """
        zw = float(z @ self.w)
        if grad is not None:
            self.reg.observe_gradient(grad)
        if grad is not None or z.any():
            self.apply_update(z)
        return StepRecord(t=self.t, z=z, zw=zw, **fields)


class GradientDescentLearner(OnlineLearner):
    """OMD driven by z_t = -eta * l'_t; covers OGD and the composite schedules."""

    def __init__(self, reg, loss="hinge", eta=1.0):
        super().__init__(reg)
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.eta = float(eta)
        self.loss_name = loss
        self.loss_fn = losses.by_name(loss)
        self.binary_labels = loss == "hinge"

    def round(self, x, y):
        self.t += 1
        xd = as_dense(x, self.dim)
        residue, drop = self._advance(self.reg.advance_step)
        pred = float(self.w @ xd)
        ev = self.loss_fn(pred, y)
        z = -self.eta * (ev.subgrad_scalar * xd)
        extras = {}
        if hasattr(self.reg, "penalty_value"):
            extras["penalty_w"] = float(self.reg.penalty_value(self.w))
        return self._emit(
            z, prediction=pred, label=float(y), loss=ev.value, eta=self.eta,
            dual_norm_sq=float(self.reg.dual_norm(z)) ** 2,
            beta=float(self.reg.strong_convexity()), residue=residue, reg_drop=drop,
            extras=extras,
        )


class FirstOrderClassifier(OnlineLearner):
    """Margin-driven classifier: z_t = eta_t * y_t * x_t whenever the hinge loss is positive.

    eta modes: 'conservative' updates only on mistakes; 'pa_optimal' uses
    the clipped closed-form rate on margin errors; 'fixed' uses a constant
    rate there. Mistake rounds always get eta_t = 1. The regularizer must
    be time-invariant and satisfy f(c*u) <= c^2 f(u).
    """

    binary_labels = True
    ETA_MODES = ("conservative", "pa_optimal", "fixed")

    def __init__(self, reg, eta_mode="conservative", fixed_eta=1.0):
        if reg.time_varying:
            raise ValueError("first-order classifier needs a time-invariant regularizer")
        if eta_mode not in self.ETA_MODES:
            raise ValueError(f"eta_mode must be one of {self.ETA_MODES}")
        if not 0.0 <= fixed_eta <= 1.0:
            raise ValueError("fixed_eta must lie in [0, 1]")
        super().__init__(reg)
        self.eta_mode = eta_mode
        self.fixed_eta = float(fixed_eta)
        self.x_max = 0.0

    def round(self, x, y):
        y = _check_binary(y)
        self.t += 1
        xd = as_dense(x, self.dim)
        x_dual = float(self.reg.dual_norm(xd))
        self.x_max = max(self.x_max, x_dual)
        margin = float(self.w @ xd)
        ev = losses.hinge(y * margin)
        mistake = y * margin <= 0.0
        margin_error = ev.active and not mistake
        beta = float(self.reg.strong_convexity())
        if not ev.active:
            eta = 0.0
        elif mistake:
            eta = 1.0
        elif self.eta_mode == "conservative":
            eta = 0.0
        elif self.eta_mode == "fixed":
            eta = self.fixed_eta
        else:
            eta = (self.x_max ** 2 - beta * y * margin) / (x_dual * x_dual)
            eta = min(max(eta, 0.0), 1.0)
        z = eta * y * xd if ev.active and eta > 0.0 else np.zeros(self.dim)
        return self._emit(
            z, prediction=margin, label=y, loss=ev.value, eta=eta, mistake=mistake,
            margin_error=margin_error, dual_norm_sq=(eta * x_dual) ** 2 if ev.active else 0.0,
            beta=beta,
            extras={"x_dual_sq": x_dual * x_dual, "x_max": self.x_max,
                    "ymargin": y * margin},
        )


class SecondOrderClassifier(OnlineLearner):
    """Classifier preconditioned by the inverse feature correlation matrix.

    variant 'full' keeps the whole inverse through rank-one updates,
    'diagonal' keeps only the diagonal. Update triggers:

      omd      update when the post-update hinge loss is positive
               (y * m * r/(r+chi) < 1 in the full variant),
      arow     update when the pre-update margin satisfies y * m <= 1,
      mistake  conservative: update only when y * m <= 0.

    The matrix advances only on update rounds; the emitted prediction is
    the pre-update margin m_t, whose sign agrees with the post-update one.
    """

    binary_labels = True
    TRIGGERS = ("omd", "arow", "mistake")
    VARIANTS = ("full", "diagonal")

    def __init__(self, dim, r=1.0, variant="full", trigger="omd"):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}")
        if trigger not in self.TRIGGERS:
            raise ValueError(f"trigger must be one of {self.TRIGGERS}")
        if r <= 0:
            raise ValueError("r must be positive")
        super().__init__(GrowingQuadratic(dim, r=r, scale=1.0, diagonal=(variant == "diagonal")))
        self.r = float(r)
        self.variant = variant
        self.trigger = trigger

    def _tentative_margin(self, xd, m, chi):
        if self.variant == "full":
            return m * self.r / (self.r + chi)
        d_new = self.reg.tracker.diag + xd * xd / self.r
        return float(np.sum(self.theta * xd / d_new))

    def round(self, x, y):
        y = _check_binary(y)
        self.t += 1
        xd = as_dense(x, self.dim)
        tracker = self.reg.tracker
        inv_x = tracker.apply(xd)
        m = float(self.theta @ inv_x)
        chi = float(xd @ inv_x)
        tentative = self._tentative_margin(xd, m, chi)
        if self.trigger == "omd":
            update = y * tentative < 1.0
        elif self.trigger == "arow":
            update = y * m <= 1.0
        else:
            update = y * m <= 0.0
        mistake = y * m <= 0.0
        extras = {"m": m, "chi": chi, "updated": update}
        if not update:
            ev = losses.hinge(y * m)
            extras.update({"margin_w": m, "logdet": tracker.logdet})
            return StepRecord(
                t=self.t, prediction=m, label=y, loss=ev.value, eta=0.0,
                z=np.zeros(self.dim), mistake=mistake,
                margin_error=ev.active and not mistake, extras=extras,
            )
        residue, drop = self._advance(self.reg.update, xd)
        margin_w = float(self.w @ xd)
        ev = losses.hinge(y * margin_w)
        post_quad = tracker.quad_form(xd)
        extras.update({"margin_w": margin_w, "post_quad": post_quad,
                       "logdet": tracker.logdet})
        return self._emit(
            y * xd, prediction=m, label=y, loss=ev.value, eta=1.0, mistake=mistake,
            margin_error=ev.active and not mistake, dual_norm_sq=post_quad,
            residue=residue, reg_drop=drop, extras=extras,
        )


class VAWRegressor(OnlineLearner):
    """Ridge-style online regression where x_t enters the regularizer before the label.

    Two-phase protocol: observe(x) advances A by x x^T and returns the
    prediction; label(y) then applies z_t = y * x_t. z_t is a proxy, not
    the negative gradient of the square loss.
    """

    def __init__(self, dim, a=1.0):
        if a <= 0:
            raise ValueError("a must be positive")
        super().__init__(GrowingQuadratic(dim, r=1.0, scale=a))
        self.a = float(a)
        self._pending = None

    def observe(self, x):
        if self._pending is not None:
            raise RuntimeError("label() must be called before the next observe()")
        self.t += 1
        xd = as_dense(x, self.dim)
        residue, drop = self._advance(self.reg.update, xd)
        pred = float(self.w @ xd)
        self._pending = (xd, pred, residue, drop)
        return pred

    def label(self, y):
        if self._pending is None:
            raise RuntimeError("observe() must be called first")
        xd, pred, residue, drop = self._pending
        self._pending = None
        y = float(y)
        post_quad = self.reg.tracker.quad_form(xd)
        return self._emit(
            y * xd, prediction=pred, label=y, loss=losses.square(pred, y).value,
            eta=1.0, dual_norm_sq=y * y * post_quad, residue=residue, reg_drop=drop,
            extras={"post_quad": post_quad},
        )

    def round(self, x, y):
        self.observe(x)
        return self.label(y)


class AdaptiveFilter(OnlineLearner):
    """LMS-style filter under a regularizer rescaled by the running max input norm.

    z_t = (y_t - w_t^T x_t) x_t, the plain descent direction for the
    residual; the increasing scale X_t^2 removes the need to know the
    largest input norm in advance.
    """

    def __init__(self, dim):
        super().__init__(MaxScaled(FixedQuadratic(dim)))

    def round(self, x, y):
        self.t += 1
        xd = as_dense(x, self.dim)
        y = float(y)
        residue, drop = self._advance(self.reg.observe_input, xd)
        pred = float(self.w @ xd)
        resid = y - pred
        z = resid * xd
        return self._emit(
            z, prediction=pred, label=y, loss=0.5 * resid * resid, eta=1.0,
            dual_norm_sq=float(z @ z), beta=float(self.reg.strong_convexity()),
            residue=residue, reg_drop=drop,
            extras={"x_max": self.reg.x_max, "residual": resid},
        )


class ScaleInvariantRegressor(OnlineLearner):
    """Regression with feature-rescaling-invariant predictions.

    kind 'pnorm' uses the weighted q_t-norm regularizer (logarithmic
    dependence on the support size), kind 'diag' the per-coordinate
    quadratic (sqrt(d) dependence, one rate per feature). Protocol per
    round: feature maxima advance first, then predict, and only after the
    prediction fold the round's subgradient into the statistics, so the
    regularizer at round t depends on subgradients from rounds < t.
    """

    KINDS = ("pnorm", "diag")

    def __init__(self, dim, kind="pnorm", lipschitz=1.0, eta=1.0, loss="absolute"):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        if eta <= 0:
            raise ValueError("eta must be positive")
        if losses.LIPSCHITZ.get(loss) is None:
            raise ValueError(f"loss {loss!r} is not Lipschitz in the prediction")
        reg = ScaleInvPNorm(dim, lipschitz) if kind == "pnorm" else ScaleInvDiag(dim, lipschitz)
        super().__init__(reg)
        self.kind = kind
        self.lipschitz = float(lipschitz)
        self.eta = float(eta)
        self.loss_name = loss
        self.loss_fn = losses.by_name(loss)

    def round(self, x, y):
        self.t += 1
        xd = as_dense(x, self.dim)
        residue, drop = self._advance(self.reg.observe_input, xd)
        pred = float(self.w @ xd)
        ev = self.loss_fn(pred, y)
        if abs(ev.subgrad_scalar) > self.lipschitz + 1e-12:
            raise ValueError("loss subgradient exceeds the declared Lipschitz constant")
        lvec = ev.subgrad_scalar * xd
        z = -self.eta * lvec
        extras = {"m_t": getattr(self.reg, "m", None)}
        if self.kind == "pnorm":
            extras["p_t"] = self.reg.p
        return self._emit(
            z, grad=lvec, prediction=pred, label=float(y), loss=ev.value, eta=self.eta,
            dual_norm_sq=float(self.reg.dual_norm(z)) ** 2,
            beta=float(self.reg.strong_convexity()), residue=residue, reg_drop=drop,
            extras=extras,
        )
