"""Bound evaluators over finished run traces, plus closed-form implicit-inequality solvers.

Evaluators consume immutable RunTrace objects, read the run's parameters
off its final learner and never change learner state. Each accepts a
single comparator (d,) or a batch (N, d); the returned BoundReport
carries the numbers at the comparator with the smallest slack, so
"slack >= -tol" on the report certifies the bound for every comparator
supplied.
"""

import math
from dataclasses import dataclass, field

import numpy as np


_E = math.e
BATCH_STEPS = 400  # batch_comparator's steps and the radius of its ball
BATCH_RADIUS = 4.0


@dataclass
class BoundReport:
    name: str
    measured: float
    bound: float
    terms: dict = field(default_factory=dict)

    @property
    def slack(self):
        return self.bound - self.measured

    def to_dict(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "slack": self.slack,
            "terms": dict(self.terms),
        }


@dataclass
class RunTrace:
    """Finished run: its dataset, per-round records and final learner.

    The learner's (theta, f_T) and attributes (eta, loss_name, a, kind,
    lipschitz, variant, r) describe the run; design() gives the dataset's X and y.
    """

    dataset: object
    records: list
    learner: object

    @property
    def dim(self):
        return self.learner.dim

    def design(self):
        return self.dataset.X, self.dataset.y


def _as_batch(u, dim):
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = u[None, :]
    if u.shape[1] != dim:
        raise ValueError(f"comparator dim {u.shape[1]} != trace dim {dim}")
    return u


def _cumulative_losses(U, X, y, kind):
    """sum_t loss(<u, x_t>, y_t) for each comparator row."""
    P = U @ X.T
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - y[None, :] * P).sum(axis=1)
    if kind == "square":
        return 0.5 * ((P - y[None, :]) ** 2).sum(axis=1)
    if kind == "absolute":
        return np.abs(P - y[None, :]).sum(axis=1)
    raise ValueError(f"unknown loss kind {kind!r}")


def _max(values):
    """Largest value, 0.0 for none; NaN if any is NaN, where Python's max keeps its first item."""
    return float(np.max(values)) if len(values) else 0.0


def _finish(name, measured, bound, terms, U):
    measured = np.broadcast_to(np.asarray(measured, float), bound.shape)
    slack = bound - measured
    i = int(np.argmin(slack))
    terms = dict(terms)
    terms.update(
        {
            "min_slack": float(slack[i]),
            "n_comparators": int(U.shape[0]),
            "comparator": [float(v) for v in U[i]],
        }
    )
    return BoundReport(name, float(measured[i]), float(bound[i]), terms)


def grid_comparators(dim, radius=2.0, points=41):
    """Uniform grid over [-radius, radius]^dim; dim must be at most 3."""
    if dim > 3:
        raise ValueError("grid comparators are limited to dim <= 3")
    axes = np.meshgrid(*([np.linspace(-radius, radius, points)] * dim), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def batch_comparator(X, y, kind="hinge"):
    """Deterministic normalized subgradient descent on the cumulative loss.

    Step s of BATCH_STEPS = 400 uses rate R/sqrt(s) and projects back onto the
    Euclidean ball of radius R = BATCH_RADIUS = 4; the averaged iterate is returned.
    """
    T, d = X.shape
    u = np.zeros(d)
    acc = np.zeros(d)
    for s in range(1, BATCH_STEPS + 1):
        P = X @ u
        if kind == "hinge":
            active = (1.0 - y * P) > 0
            g = -(y[active, None] * X[active]).sum(axis=0)
        elif kind == "square":
            g = ((P - y)[:, None] * X).sum(axis=0)
        else:
            g = (np.sign(P - y)[:, None] * X).sum(axis=0)
        gn = float(np.linalg.norm(g))
        if gn > 1e-12:
            u = u - (BATCH_RADIUS / math.sqrt(s)) * g / gn
        un = float(np.linalg.norm(u))
        if un > BATCH_RADIUS:
            u = u * (BATCH_RADIUS / un)
        acc += u
    return acc / BATCH_STEPS


def engine_audit(trace, u):
    """Core inequality: sum <z_t, u - w_t> against f_T(u) plus quadratic and residue terms.

    Also reports the largest per-step violation of the residue inequality
    f*_t(theta_t) - f*_{t-1}(theta_t) <= f_{t-1}(w_t) - f_t(w_t).
    """
    recs = trace.records
    U = _as_batch(u, trace.dim)
    Z = trace.learner.theta  # sum_t z_t, accumulated in round order
    zw_sum = float(sum(r.zw for r in recs))
    # a zero dual norm may come with beta = 0; != keeps a NaN one in the sum, > would drop it
    quad_sum = float(sum(r.dual_norm_sq / (2.0 * r.beta) for r in recs if r.dual_norm_sq != 0))
    residue_sum = float(sum(r.residue for r in recs))
    residue_gap = _max([r.residue - r.reg_drop for r in recs])
    f_T = trace.learner.reg.value(U)
    terms = {"quad_sum": quad_sum, "residue_sum": residue_sum, "max_residue_gap": residue_gap}
    return _finish("engine", U @ Z - zw_sum, f_T + quad_sum + residue_sum, terms, U)


def composite_bound(trace, u, schedule):
    """Composite regret against the schedule-matched display.

    general  g_T(u)/eta + sum_t ||l'_t||_{*,t}^2 / (2 eta beta_t)
    sqrt     sqrt(T) * (g(u)/eta + (eta/beta) max_t ||l'_t||_*^2)
    linear   max_t ||l'_t||_*^2 (1 + ln T) / (2 beta), requires eta == 1
    """
    if schedule not in ("general", "sqrt", "linear"):
        raise ValueError("schedule must be general, sqrt, or linear")
    reg = trace.learner.reg
    run_sched = getattr(reg, "schedule", "constant")
    if schedule != "general" and run_sched != schedule:
        raise ValueError(f"schedule mismatch: run used {run_sched!r}")
    eta = trace.learner.eta
    recs = trace.records
    T = len(recs)
    X, y = trace.design()
    U = _as_batch(u, trace.dim)
    loss_kind = trace.learner.loss_name
    penalty_u = reg.penalty_value(U)
    loss_u = _cumulative_losses(U, X, y, loss_kind)
    measured_run = float(sum(r.loss + r.extras.get("penalty_w", 0.0) for r in recs))
    measured = measured_run - (loss_u + T * penalty_u)
    terms = {"eta": eta, "T": T, "run_loss_plus_penalty": measured_run}
    if schedule == "general":
        g_T = reg.scheduled_quad_value(U)
        quad = float(sum(r.dual_norm_sq / (2.0 * eta * r.beta) for r in recs
                         if r.dual_norm_sq != 0))
        bound = g_T / eta + quad
        terms["quad_sum"] = quad
    elif schedule == "sqrt":
        beta = float(reg.quad) if hasattr(reg, "quad") else float(reg.base.strong_convexity())
        g_u = reg.base_quad_value(U)
        # ||l'_t||_* in the schedule's own (time-invariant) dual norm,
        # recovered from ||z_t||_*^2 = eta^2 ||l'_t||_*^2
        max_g2 = _max([r.dual_norm_sq for r in recs]) / (eta * eta)
        bound = math.sqrt(T) * (g_u / eta + (eta / beta) * max_g2) if T else g_u * 0.0
        terms.update({"beta": beta, "max_lgrad_dual_sq": max_g2})
    else:
        if abs(eta - 1.0) > 1e-12:
            raise ValueError("schedule mismatch: the linear-schedule display requires eta == 1")
        beta = float(getattr(reg, "ridge", 0.0)) or float(reg.base.strong_convexity())
        max_g2 = _max([r.dual_norm_sq for r in recs]) / (eta * eta)
        val = max_g2 * (1.0 + math.log(T)) / (2.0 * beta) if T else 0.0
        bound = np.full(U.shape[0], val)
        terms.update({"beta": beta, "max_lgrad_dual_sq": max_g2})
    return _finish(f"composite_{schedule}", measured, bound, terms, U)


def vaw_bound(trace, u):
    """Square-loss regret against (a/2)||u||^2 + (Y^2/2) sum_t x_t^T A_t^{-1} x_t, Y = max|y_t|."""
    X, y = trace.design()
    U = _as_batch(u, trace.dim)
    a = trace.learner.a
    Y = float(np.max(np.abs(y))) if y.size else 0.0
    run_loss = float(sum(r.loss for r in trace.records))
    measured = run_loss - _cumulative_losses(U, X, y, "square")
    quad_sum = float(sum(r.extras["post_quad"] for r in trace.records))
    bound = 0.5 * a * np.sum(U * U, axis=1) + 0.5 * Y * Y * quad_sum
    return _finish("vaw", measured, bound,
                   {"a": a, "y_max": Y, "quad_sum": quad_sum, "run_loss": run_loss}, U)


def adaptive_filter_bound(trace, u):
    """Filtering regret sum (w_t.x_t - u.x_t)^2 against 2 X_T^2 f(u) + sum (y_t - u.x_t)^2."""
    X, y = trace.design()
    U = _as_batch(u, trace.dim)
    preds = np.array([r.prediction for r in trace.records])
    P = U @ X.T
    measured = ((preds[None, :] - P) ** 2).sum(axis=1)
    x_max = float(trace.learner.reg.x_max)
    f_u = trace.learner.reg.base.value(U)
    noise = ((y[None, :] - P) ** 2).sum(axis=1)
    bound = 2.0 * x_max * x_max * f_u + noise
    return _finish("adaptive_filter", measured, bound, {"x_max": x_max}, U)


def scale_invariant_bound(trace, u):
    """Scale-invariant regret displays.

    pnorm  L sqrt(e (T+1) (p_T - 1)) ((sum_i |u_i| b_{T,i})^2 / (2 eta) + eta)
    diag   L sqrt(d (T+1)) ((sum_i (u_i b_{T,i})^2) / (2 eta) + eta)

    p_T is the clamped exponent max(2 ln m_T, 2), which keeps the display
    meaningful for tiny supports and matches the regularizer actually run.
    """
    kind = trace.learner.kind
    reg = trace.learner.reg
    X, y = trace.design()
    U = _as_batch(u, trace.dim)
    eta = trace.learner.eta
    L = trace.learner.lipschitz
    T = len(trace.records)
    loss_kind = trace.learner.loss_name
    run_loss = float(sum(r.loss for r in trace.records))
    measured = run_loss - _cumulative_losses(U, X, y, loss_kind)
    b = reg.b
    if kind == "pnorm":
        p_T = reg.p
        factor = L * math.sqrt(_E * (T + 1) * (p_T - 1.0))
        comp = (np.abs(U) @ b) ** 2
        terms = {"p_T": p_T, "m_T": reg.m}
    else:
        factor = L * math.sqrt(trace.dim * (T + 1))
        comp = (U * U) @ (b * b)
        terms = {}
    bound = factor * (comp / (2.0 * eta) + eta)
    terms.update({"factor": factor, "eta": eta, "T": T})
    return _finish(f"scale_invariant_{kind}", measured, bound, terms, U)


def first_order_mistake_bound(trace, u):
    """First-order mistake bound with the aggressive correction, plus the baseline bound.

    bound      L(u) + D_eff + (2/beta) f(u) X_T^2 + X_T sqrt((2/beta) f(u) L(u))
    baseline   L(u) + (||u|| X_T)^2 + ||u|| X_T sqrt(L(u))

    with D = sum_{margin errors} eta_t ((eta_t ||x_t||_*^2
    + 2 beta y_t <w_t,x_t>) / X_t^2 - 2), which is negative exactly when
    the aggressive rates helped, and D_eff = max(D, -sum eta_t). The
    clamp is what the derivation actually supports: its last step scales
    the positive part of D + sum eta_t by a factor below one, so an
    unclamped D over-subtracts whenever that part is negative (reachable
    when X_t far exceeds the margin-error input norms; terms carry the
    unclamped display value for reference). Whenever D >= -sum eta_t the
    two forms agree.
    """
    reg = trace.learner.reg
    beta = float(reg.strong_convexity())
    recs = trace.records
    X, y = trace.design()
    U = _as_batch(u, trace.dim)
    M = sum(1 for r in recs if r.mistake)
    D = 0.0
    eta_u = 0.0
    for r in recs:
        if r.margin_error and r.eta > 0.0:
            eta_u += r.eta
            D += r.eta * (
                (r.eta * r.extras["x_dual_sq"] + 2.0 * beta * r.extras["ymargin"])
                / (r.extras["x_max"] ** 2)
                - 2.0
            )
    d_eff = max(D, -eta_u)
    x_T = _max([r.extras["x_max"] for r in recs])
    L_u = _cumulative_losses(U, X, y, "hinge")
    f_u = reg.value(U)
    core = (2.0 / beta) * f_u * x_T ** 2 + x_T * np.sqrt((2.0 / beta) * f_u * L_u)
    bound = L_u + d_eff + core
    u_norms = np.linalg.norm(U, axis=1)
    baseline = L_u + (u_norms * x_T) ** 2 + u_norms * x_T * np.sqrt(L_u)
    i = int(np.argmin(bound - M))
    terms = {
        "D": D,
        "D_effective": d_eff,
        "D_negative": D < 0.0,
        "eta_margin_sum": eta_u,
        "display_bound": float(L_u[i] + D + core[i]),
        "beta": beta,
        "X_T": x_T,
        "M": M,
        "U": sum(1 for r in recs if r.margin_error),
        "perceptron_bound": float(baseline[i]),
        "min_bound": float(np.min(bound)),
    }
    return _finish("first_order_mistake", float(M), bound, terms, U)


def _update_rounds(trace, X):
    """(upd, U_used, X[upd], column sums of X[upd]**2) over the update rounds upd.

    U_used counts the update rounds whose margin was positive.
    """
    recs = trace.records
    upd = [i for i, rec in enumerate(recs) if rec.extras.get("updated")]
    u_used = sum(1 for i in upd if recs[i].extras["margin_w"] * recs[i].label > 0.0)
    Xu = X[upd]
    csum = (Xu ** 2).sum(axis=0) if upd else np.zeros(trace.dim)
    return upd, u_used, Xu, csum


def second_order_bound(trace, u):
    """Second-order mistake bounds over the update rounds.

    full      L(u) + sqrt(r||u||^2 + sum (u.x_t)^2) * sqrt(ln|A_T| + sum m_t(2 r y_t - m_t)/(r(r+chi_t)))
    diagonal  L(u) + sqrt(u^T D_T u) * sqrt(r sum_i ln((1/r) sum_t x_{t,i}^2 + 1) + 2U)

    The full report also carries the looser variant with U in place of the
    m_t sum and whether the claimed ordering (sum <= U) held. measured is
    the number of update rounds, which is M + U for the aggressive
    triggers and M for the conservative one.
    """
    variant = trace.learner.variant
    r = trace.learner.r
    recs = trace.records
    X, y = trace.design()
    U = _as_batch(u, trace.dim)
    upd, u_used, Xu, csum = _update_rounds(trace, X)
    measured = float(len(upd))
    L_u = _cumulative_losses(U, X, y, "hinge")
    terms = {
        "n_updates": len(upd),
        "M": sum(1 for rec in recs if rec.mistake),
        "U": sum(1 for rec in recs if rec.margin_error),
        "U_used": u_used,
        "r": r,
    }
    if variant == "full":
        logdet = float(trace.learner.reg.tracker.logdet)
        s_term = 0.0
        mistake_chain_ok = True
        for i in upd:
            rec = recs[i]
            m, chi = rec.extras["m"], rec.extras["chi"]
            contrib = m * (2.0 * r * rec.label - m) / (r * (r + chi))
            s_term += contrib
            if rec.mistake and m * (2.0 * r * rec.label - m) > 1e-12:
                mistake_chain_ok = False
        S1 = r * np.sum(U * U, axis=1) + ((U @ Xu.T) ** 2).sum(axis=1) if upd else r * np.sum(U * U, axis=1)
        S2 = max(logdet + s_term, 0.0)
        bound = L_u + np.sqrt(S1 * S2)
        loose = L_u + np.sqrt(S1 * max(logdet + u_used, 0.0))
        i = int(np.argmin(bound - measured))
        terms.update(
            {
                "logdet": logdet,
                "margin_sum": s_term,
                "ordering_ok": s_term <= u_used + 1e-12,
                "mistake_chain_ok": mistake_chain_ok,
                "loose_bound": float(loose[i]),
            }
        )
    else:
        diag_T = 1.0 + csum / r
        S1 = (U * U) @ diag_T
        S2 = r * float(np.sum(np.log(csum / r + 1.0))) + 2.0 * u_used
        bound = L_u + np.sqrt(S1 * S2)
        terms.update({"log_sum": S2, "col_sq_total": float(csum.sum())})
    return _finish(f"second_order_{variant}", measured, bound, terms, U)


def diag_rare_feature_refinement(trace, u, s):
    """Conditional refinement of the diagonal bound under the rare-feature hypothesis.

    Checks sum_i u_i^2 sum_t x_{t,i}^2 <= s ||u||^2 over the update rounds
    for the single comparator u; if it holds (and the run was conservative,
    U_used == 0) the closed-form solver turns the implicit inequality in M
    into the explicit bound below. Returns (report, hypothesis_ok).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("refinement takes a single comparator")
    r = trace.learner.r
    X, y = trace.design()
    upd, u_used, _, csum = _update_rounds(trace, X)
    lhs = float(np.sum(u * u * csum))
    unorm2 = float(u @ u)
    hypothesis_ok = lhs <= s * unorm2 + 1e-12 and u_used == 0
    M = float(len(upd))
    x_T = float(np.max(np.linalg.norm(X, axis=1))) if len(X) else 0.0
    L_u = float(_cumulative_losses(u[None, :], X, y, "hinge")[0])
    d = trace.dim
    terms = {"s": s, "hypothesis_lhs": lhs, "u_norm_sq": unorm2, "U_used": u_used,
             "X_T": x_T, "L_u": L_u}
    if not hypothesis_ok or x_T == 0.0 or unorm2 == 0.0:
        return BoundReport("diag_refinement", M, math.inf, terms), hypothesis_ok
    a = unorm2 * (r + s) * d
    b = x_T ** 2 / (d * r)
    bound = implicit_log_solve("sqrt_log", {"a": a, "b": b, "c": 0.0, "d": L_u})
    terms.update({"a": a, "b": b})
    return BoundReport("diag_refinement", M, bound, terms), hypothesis_ok


def diag_log_bound(x_squares, r):
    """RHS r * sum_i ln((1/r) sum_t x_{t,i}^2 + 1) bounding sum_t x_t^T D_t^{-1} x_t."""
    xs = np.asarray(x_squares, dtype=np.float64)
    if np.any(xs < 0):
        raise ValueError("inputs must be squares (nonnegative)")
    if r <= 0:
        raise ValueError("r must be positive")
    return float(r * np.sum(np.log(xs.sum(axis=0) / r + 1.0)))


def diag_quad_sum(x_squares, r):
    """LHS of the diagonal log bound, computed through the D_t recurrence."""
    xs = np.asarray(x_squares, dtype=np.float64)
    diag = np.ones(xs.shape[1])
    total = 0.0
    for row in xs:
        diag = diag + row / r
        total += float(np.sum(row / diag))
    return total


def implicit_log_solve(form, coeffs, n=2.0):
    """Explicit upper bounds for the implicit logarithmic inequalities.

    pure_log  x <= a ln x             ->  (n/(n-1)) a ln(n a / e)
    affine_log    x <= a ln(b x + c) + d  ->  (n/(n-1)) (a ln(n a b / e) + d) + c/(b (n-1))
    sqrt_log    x <= sqrt(a ln(b x + 1) + c) + d
                ->  sqrt(a ln(sqrt(8) a b^2 / e + 2 b sqrt(c) + 2 d b + 2) + c) + d

    sqrt_log is stated for n = 2 only. Coefficients a, b must be positive;
    c, d nonnegative (the c = 0 limit is used by the rare-feature
    refinement).
    """
    if form not in ("pure_log", "affine_log", "sqrt_log"):
        raise ValueError(f"unknown form {form!r}")
    if n <= 1.0:
        raise ValueError("n must exceed 1")
    a = float(coeffs["a"])
    if a <= 0:
        raise ValueError("coefficient a must be positive")
    if form == "pure_log":
        return (n / (n - 1.0)) * a * math.log(n * a / _E)
    b = float(coeffs["b"])
    c = float(coeffs.get("c", 0.0))
    d = float(coeffs.get("d", 0.0))
    if b <= 0 or c < 0 or d < 0:
        raise ValueError("need b > 0 and c, d >= 0")
    if form == "affine_log":
        return (n / (n - 1.0)) * (a * math.log(n * a * b / _E) + d) + c / (b * (n - 1.0))
    if abs(n - 2.0) > 1e-12:
        raise ValueError("sqrt_log is proved for n = 2")
    inner = math.sqrt(8.0) * a * b * b / _E + 2.0 * b * math.sqrt(c) + 2.0 * d * b + 2.0
    return math.sqrt(a * math.log(inner) + c) + d


def sqrt_sum_inequality_check(a, tol=1e-12):
    """Whether sum_t a_t / sqrt(sum_{s<=t} a_s) <= 2 sqrt(sum_t a_t); 0/0 terms are 0."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0):
        raise ValueError("entries must be nonnegative")
    if a.size == 0:
        return True
    prefix = np.cumsum(a)
    terms = np.divide(a, np.sqrt(prefix), out=np.zeros_like(a), where=prefix > 0)
    return float(terms.sum()) <= 2.0 * math.sqrt(float(prefix[-1])) + tol
