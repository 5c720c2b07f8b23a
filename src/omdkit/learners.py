"""Online learners built on the mirror-descent engine with time-varying regularizers.

Every learner follows the same skeleton: theta starts at zero, w_t is the
mirror map of theta at the round's regularizer state, the observed update
z_t is added to theta by apply_update. w is a read-only property, derived
on its first read after theta or f moved, so no mirror map is spent on a
w that nothing reads. Three OnlineLearner helpers hold that skeleton:

  _advance  snapshots f_{t-1}, runs the regularizer's observe_input(x_t),
            takes f*_t(theta) and w_t from one `dual` call on f_t and
            returns the conjugate residue and the value drop at w_t from
            the regularizer's residue and value_drop hooks;
  _observe  counts the round, takes x_t dense, advances, predicts <w_t, x_t>;
  _emit     records <z_t, w_t> and f_t's beta, folds an optional loss
            subgradient into f, applies theta += z_t and returns the
            round's StepRecord.

What differs per learner is how z_t is formed and whether a subgradient
is folded back in; the second-order classifier alone keeps its own round
prefix, as it advances only on update rounds. Four classes cover every
CLI learner: GradientDescentLearner runs ogd, composite, adaptive_filter
and scaleinv_*, which differ only in their regularizer family, and
FirstOrderClassifier, SecondOrderClassifier and VAWRegressor form z_t
their own way. Each learner has one entry, round(x_t, y_t). The
StepRecord carries the audit quantities (dual norm of z_t, strong
convexity, conjugate residue) consumed by the bound evaluators. A
learner's attributes (eta, loss_name, a, variant, r) and its
regularizer's (lipschitz, kind, x_max) are the run's parameters as the
evaluators read them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .linalg import as_dense
from .regularizers import GrowingQuadratic


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

    def apply_update(self, z):
        """Engine step: theta += z; w is re-derived on its next read."""
        self.theta = self.theta + as_dense(z, self.dim)
        self._w = None

    def _advance(self, x, u=None):
        """Move f_{t-1} to f_t through the regularizer's observe_input(x).

        Returns (residue, reg_drop): f*_t(theta) - f*_{t-1}(theta) and
        f_{t-1}(w_t) - f_t(w_t); both are zero for a fixed regularizer,
        which has no state to advance, so f, and with it w, stays as it
        was. In round 1 f_{t-1} is f_0, which every time-varying family
        defines. One `dual` call on f_t gives f*_t(theta) and w_t; where it
        gives no gradient, the read of w raises through mirror_map. The
        family's residue and value_drop hooks give the two differences; by
        default they evaluate f_{t-1}, a growing quadratic has closed forms.
        The second-order classifier has A_{t-1}^{-1} x_t already and passes it
        as u, which its growing quadratic takes as observe_input(x, u).
        """
        if not self.reg.time_varying:
            return 0.0, 0.0
        prev = self.reg.snapshot()
        if u is None:
            self.reg.observe_input(x)
        else:
            self.reg.observe_input(x, u)
        conj, self._w = self.reg.dual(self.theta)
        w = self.w
        residue = self.reg.residue(prev, self.theta, conj)
        return float(residue), float(self.reg.value_drop(prev, w))

    def _observe(self, x):
        """Start round t; returns (x_t dense, <w_t, x_t>, residue, reg_drop)."""
        self.t += 1
        xd = as_dense(x, self.dim)
        residue, drop = self._advance(xd)
        return xd, float(self.w @ xd), residue, drop

    def _emit(self, z, grad=None, **fields):
        """Record <z, w_t> and f_t's beta, fold the loss subgradient grad into f, apply theta += z.

        beta is read before grad is folded in, which moves ScaleInvPNorm's.
        A round steps only where grad (z if there is none) is nonzero; a skip
        keeps every bit, as a zero gradient leaves f as it was and theta,
        never -0.0, plus 0 is theta.
        """
        zw = float(z @ self.w)
        beta = float(self.reg.strong_convexity())
        if (z if grad is None else grad).any():
            if grad is not None:
                self.reg.observe_gradient(grad)
            self.apply_update(z)
        return StepRecord(t=self.t, z=z, zw=zw, beta=beta, **fields)


class GradientDescentLearner(OnlineLearner):
    """OMD driven by z_t = -eta * l'_t x_t, with l'_t x_t folded into f after the prediction.

    Covers OGD, the composite schedules, the adaptive filter (square loss,
    eta = 1, over MaxScaled: LMS with f_t scaled by the running max input
    norm) and, over a family with a finite Lipschitz constant L, the
    scale-invariant regressors; the loss must then be L-Lipschitz in the
    prediction, and each round's l'_t at most L.
    """

    def __init__(self, reg, loss="hinge", eta=1.0):
        super().__init__(reg)
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.eta = float(eta)
        self.loss_name = loss
        self.loss_fn = losses.by_name(loss)
        if math.isfinite(reg.lipschitz):
            loss_l = losses.LIPSCHITZ[loss]
            if loss_l is None:
                raise ValueError(f"loss {loss!r} is not Lipschitz in the prediction")
            if loss_l > reg.lipschitz + losses.LIPSCHITZ_TOL:
                raise ValueError(f"loss {loss!r} is {loss_l}-Lipschitz in the prediction, "
                                 f"above the regularizer's Lipschitz constant {reg.lipschitz}")

    def round(self, x, y):
        xd, pred, residue, drop = self._observe(x)
        ev = self.loss_fn(pred, y)
        if abs(ev.subgrad_scalar) > self.reg.lipschitz + losses.LIPSCHITZ_TOL:
            raise ValueError(f"round {self.t}: loss subgradient {ev.subgrad_scalar} exceeds "
                             f"the declared Lipschitz constant {self.reg.lipschitz}")
        grad = ev.subgrad_scalar * xd
        z = -self.eta * grad
        # squared as a product, which overflows to inf where ** raises OverflowError
        dual_norm = float(self.reg.dual_norm(z))
        return self._emit(
            z, grad=grad, prediction=pred, label=float(y), loss=ev.value, eta=self.eta,
            dual_norm_sq=dual_norm * dual_norm, residue=residue, reg_drop=drop,
            extras=self.reg.round_extras(self.w),
        )


class FirstOrderClassifier(OnlineLearner):
    """Margin-driven classifier: z_t = eta_t * y_t * x_t whenever the hinge loss is positive.

    eta modes: 'conservative' updates only on mistakes; 'pa_optimal' uses
    the clipped closed-form rate on margin errors; 'fixed' uses a constant
    rate there. Mistake rounds always get eta_t = 1. The regularizer must
    be time-invariant and satisfy f(c*u) <= c^2 f(u).
    """

    loss_name = "hinge"
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
        xd, margin, _, _ = self._observe(x)
        x_dual = float(self.reg.dual_norm(xd))
        self.x_max = max(self.x_max, x_dual)
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
            extras={"x_dual_sq": x_dual * x_dual, "x_max": self.x_max},
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
    An update round has eta 1 and records the post-update margin margin_w.
    """

    loss_name = "hinge"
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
        return float(np.add.reduce(self.theta * xd / d_new))

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
        extras = {"chi": chi}
        if not update:
            ev = losses.hinge(y * m)
            extras["logdet"] = tracker.logdet
            return StepRecord(
                t=self.t, prediction=m, label=y, loss=ev.value, eta=0.0,
                z=np.zeros(self.dim), mistake=mistake,
                margin_error=ev.active and not mistake, extras=extras,
            )
        residue, drop = self._advance(xd, inv_x)
        margin_w = float(self.w @ xd)
        ev = losses.hinge(y * margin_w)
        if self.variant == "full":
            post_quad = tracker.last_quad_form()
        else:
            post_quad = tracker.quad_form(xd)
        extras.update({"margin_w": margin_w, "logdet": tracker.logdet})
        return self._emit(
            y * xd, prediction=m, label=y, loss=ev.value, eta=1.0, mistake=mistake,
            margin_error=ev.active and not mistake, dual_norm_sq=post_quad,
            residue=residue, reg_drop=drop, extras=extras,
        )


class VAWRegressor(OnlineLearner):
    """Ridge-style online regression where x_t enters the regularizer before the label.

    A round first advances A_t = A_{t-1} + x_t x_t^T, so the prediction
    <w_t, x_t> already sees x_t, then applies z_t = y_t * x_t. z_t is a
    proxy, not the negative gradient of the square loss.
    """

    loss_name = "square"

    def __init__(self, dim, a=1.0):
        if a <= 0:
            raise ValueError("a must be positive")
        super().__init__(GrowingQuadratic(dim, r=1.0, scale=a))
        self.a = float(a)

    def round(self, x, y):
        xd, pred, residue, drop = self._observe(x)
        y = float(y)
        post_quad = self.reg.tracker.last_quad_form()
        return self._emit(
            y * xd, prediction=pred, label=y, loss=losses.square(pred, y).value,
            eta=1.0, dual_norm_sq=y * y * post_quad, residue=residue, reg_drop=drop,
            extras={"post_quad": post_quad},
        )
