"""Bound evaluators over finished run traces, plus the two appendix-lemma terms they evaluate.

Evaluators consume immutable RunTrace objects, read the run's parameters
off its final learner and never change learner state. Each accepts a
single comparator (d,) or a batch (N, d) and returns a report dict
{name, measured, bound, slack, terms}, the shape a run summary stores,
with slack = bound - measured. It carries the numbers at the comparator
with the smallest slack, so "slack >= -tol" on the report certifies the
bound for every comparator supplied.
"""

import math
from dataclasses import dataclass

import numpy as np

from .regularizers import CompositeQuadL1, MaxScaled


_E = math.e
BATCH_STEPS = 400  # batch_comparator's steps and the radius of its ball
BATCH_RADIUS = 4.0


@dataclass
class RunTrace:
    """Finished run: its dataset, per-round records and final learner.

    The learner's (theta, f_T) and attributes (eta, loss_name, a, variant,
    r) describe the run; the scale-invariant displays read L and their
    kind off f_T.
    """

    dataset: object
    records: list
    learner: object

    @property
    def dim(self):
        return self.learner.dim


def _as_batch(u, dim):
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = u[None, :]
    if u.shape[1] != dim:
        raise ValueError(f"comparator dim {u.shape[1]} != trace dim {dim}")
    return u


def _cumulative_losses(U, X, y, kind):
    """sum_t loss(<u, x_t>, y_t) for each comparator row.

    The (N, T) prediction matrix is the one temporary: each loss is worked
    out in it, in place, with the operations and the bits of the expression
    in its comment.
    """
    if kind not in ("hinge", "square", "absolute"):
        raise ValueError(f"unknown loss kind {kind!r}")
    P = U @ X.T
    if kind == "hinge":  # max(0, 1 - y P)
        P *= y
        np.subtract(1.0, P, out=P)
        np.maximum(P, 0.0, out=P)
        return P.sum(axis=1)
    P -= y
    if kind == "square":  # 0.5 * (P - y)^2
        P *= P
        return 0.5 * P.sum(axis=1)
    return np.abs(P, out=P).sum(axis=1)  # |P - y|


def _max(values):
    """Largest value, 0.0 for none; NaN if any is NaN, where Python's max keeps its first item."""
    return float(np.asarray(values).max()) if len(values) else 0.0


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
    return {"name": name, "measured": float(measured[i]), "bound": float(bound[i]),
            "slack": float(slack[i]), "terms": terms}


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
    The square loss's gradient X^T (X u - y) is two matrix-vector products a
    step; where T >= d it is G u - X^T y from the Gram matrix G = X^T X, formed
    once, which is then no larger than X and a d^2 step instead of a 2 T d one.
    """
    T, d = X.shape
    u = np.zeros(d)
    acc = np.zeros(d)
    gram = kind == "square" and T >= d
    if gram:
        G, b = X.T @ X, X.T @ y
    for s in range(1, BATCH_STEPS + 1):
        if gram:
            g = G @ u - b
        elif kind == "square":
            g = X.T @ (X @ u - y)
        elif kind == "hinge":
            active = (1.0 - y * (X @ u)) > 0
            g = -(y[active, None] * X[active]).sum(axis=0)
        else:
            g = (np.sign(X @ u - y)[:, None] * X).sum(axis=0)
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
    """Composite regret of a CompositeQuadL1 run against the schedule-matched display.

    general  g_T(u)/eta + sum_t ||l'_t||_{*,t}^2 / (2 eta beta_t)
    sqrt     sqrt(T) * (g(u)/eta + (eta/beta) max_t ||l'_t||_*^2)
    linear   max_t ||l'_t||_*^2 (1 + ln T) / (2 beta), requires eta == 1

    The regret counts the penalty F in each round's loss, so only the family
    with the split f_t = s(t) g + eta t F is taken, and only with the eta of
    the steps z_t = -eta l'_t; other runs raise ValueError.
    """
    if schedule not in ("general", "sqrt", "linear"):
        raise ValueError("schedule must be general, sqrt, or linear")
    reg = trace.learner.reg
    if not isinstance(reg, CompositeQuadL1):
        raise ValueError("composite displays need a CompositeQuadL1 run, "
                         f"not {type(reg).__name__}")
    eta = trace.learner.eta
    if reg.eta != eta:
        raise ValueError(f"composite displays need the family's eta {reg.eta} "
                         f"to be the step eta {eta}")
    if schedule != "general" and reg.schedule != schedule:
        raise ValueError(f"schedule mismatch: run used {reg.schedule!r}")
    recs = trace.records
    T = len(recs)
    X, y = trace.dataset.X, trace.dataset.y
    U = _as_batch(u, trace.dim)
    loss_kind = trace.learner.loss_name
    penalty_u = reg.penalty_value(U)
    loss_u = _cumulative_losses(U, X, y, loss_kind)
    measured_run = float(sum(r.loss + r.extras["penalty_w"] for r in recs))
    measured = measured_run - (loss_u + T * penalty_u)
    terms = {"eta": eta, "T": T, "run_loss_plus_penalty": measured_run}
    if schedule == "general":
        g_T = reg.scheduled_quad_value(U)
        quad = float(sum(r.dual_norm_sq / (2.0 * eta * r.beta) for r in recs
                         if r.dual_norm_sq != 0))
        bound = g_T / eta + quad
        terms["quad_sum"] = quad
    elif schedule == "sqrt":
        beta = reg.quad
        g_u = reg.base_quad_value(U)
        # ||l'_t||_* in the schedule's own (time-invariant) dual norm,
        # recovered from ||z_t||_*^2 = eta^2 ||l'_t||_*^2
        max_g2 = _max([r.dual_norm_sq for r in recs]) / (eta * eta)
        bound = math.sqrt(T) * (g_u / eta + (eta / beta) * max_g2) if T else g_u * 0.0
        terms.update({"beta": beta, "max_lgrad_dual_sq": max_g2})
    else:
        if abs(eta - 1.0) > 1e-12:
            raise ValueError("schedule mismatch: the linear-schedule display requires eta == 1")
        beta = reg.ridge
        max_g2 = _max([r.dual_norm_sq for r in recs]) / (eta * eta)
        val = max_g2 * (1.0 + math.log(T)) / (2.0 * beta) if T else 0.0
        bound = np.full(U.shape[0], val)
        terms.update({"beta": beta, "max_lgrad_dual_sq": max_g2})
    return _finish(f"composite_{schedule}", measured, bound, terms, U)


def vaw_bound(trace, u):
    """Square-loss regret against (a/2)||u||^2 + (Y^2/2) sum_t x_t^T A_t^{-1} x_t, Y = max|y_t|."""
    X, y = trace.dataset.X, trace.dataset.y
    U = _as_batch(u, trace.dim)
    a = trace.learner.a
    Y = float(np.abs(y).max()) if y.size else 0.0
    run_loss = float(sum(r.loss for r in trace.records))
    measured = run_loss - _cumulative_losses(U, X, y, "square")
    quad_sum = float(sum(r.extras["post_quad"] for r in trace.records))
    bound = 0.5 * a * (U * U).sum(axis=1) + 0.5 * Y * Y * quad_sum
    return _finish("vaw", measured, bound,
                   {"a": a, "y_max": Y, "quad_sum": quad_sum, "run_loss": run_loss}, U)


def adaptive_filter_bound(trace, u):
    """Filtering regret sum (w_t.x_t - u.x_t)^2 against 2 X_T^2 f(u) + sum (y_t - u.x_t)^2.

    The display follows from the engine bound through an identity that holds
    for the square loss alone, and a cancellation that needs eta = 1 <= beta
    of the base; other runs raise ValueError.
    """
    learner, reg = trace.learner, trace.learner.reg
    if not isinstance(reg, MaxScaled):
        raise ValueError("the adaptive filter display needs a MaxScaled run, "
                         f"not {type(reg).__name__}")
    beta = reg.base.strong_convexity()
    if learner.loss_name != "square" or learner.eta != 1.0 or not beta >= 1.0:
        raise ValueError("the adaptive filter display needs the square loss, eta 1 and a base "
                         f"with beta >= 1, not loss {learner.loss_name!r}, eta {learner.eta} "
                         f"and beta {beta}")
    X, y = trace.dataset.X, trace.dataset.y
    U = _as_batch(u, trace.dim)
    preds = np.array([r.prediction for r in trace.records])
    P = U @ X.T
    measured = ((preds[None, :] - P) ** 2).sum(axis=1)
    x_max = float(reg.x_max)
    f_u = reg.base.value(U)
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
    reg = trace.learner.reg
    kind = reg.kind
    X, y = trace.dataset.X, trace.dataset.y
    U = _as_batch(u, trace.dim)
    eta = trace.learner.eta
    L = reg.lipschitz
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
    X, y = trace.dataset.X, trace.dataset.y
    U = _as_batch(u, trace.dim)
    M = sum(1 for r in recs if r.mistake)
    D = 0.0
    eta_u = 0.0
    for r in recs:
        if r.margin_error and r.eta > 0.0:
            eta_u += r.eta
            D += r.eta * (
                (r.eta * r.extras["x_dual_sq"] + 2.0 * beta * (r.label * r.prediction))
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
        "min_bound": float(bound.min()),
    }
    return _finish("first_order_mistake", float(M), bound, terms, U)


def _update_rounds(trace, X):
    """(upd, U_used, X[upd], column sums of X[upd]**2) over the update rounds upd.

    U_used counts the update rounds (eta > 0) whose margin_w was positive.
    """
    recs = trace.records
    upd = [i for i, rec in enumerate(recs) if rec.eta > 0.0]
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
    X, y = trace.dataset.X, trace.dataset.y
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
            m, chi = rec.prediction, rec.extras["chi"]
            contrib = m * (2.0 * r * rec.label - m) / (r * (r + chi))
            s_term += contrib
            if rec.mistake and m * (2.0 * r * rec.label - m) > 1e-12:
                mistake_chain_ok = False
        S1 = r * (U * U).sum(axis=1) + ((U @ Xu.T) ** 2).sum(axis=1) if upd else r * (U * U).sum(axis=1)
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
        S2 = diag_log_bound(Xu ** 2, r) + 2.0 * u_used
        bound = L_u + np.sqrt(S1 * S2)
        terms.update({"log_sum": S2, "col_sq_total": float(csum.sum())})
    return _finish(f"second_order_{variant}", measured, bound, terms, U)


def diag_rare_feature_refinement(trace, u):
    """Refinement of the diagonal bound under the rare-feature hypothesis, at its sharpest s.

    The hypothesis sum_i u_i^2 sum_t x_{t,i}^2 <= s ||u||^2 over the update
    rounds holds for every s >= s_min, the ratio of the two sums, and the
    bound grows with s, so the report takes s = s_min for the single
    comparator u. On a conservative run (U_used == 0) the closed-form solver
    turns the implicit inequality in M into the explicit bound below; on any
    other run the bound is +inf.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("refinement takes a single comparator")
    r = trace.learner.r
    X, y = trace.dataset.X, trace.dataset.y
    upd, u_used, _, csum = _update_rounds(trace, X)
    # past the float range s and the bound are not finite; u = 0 meets the hypothesis at s = 0
    with np.errstate(over="ignore", invalid="ignore"):
        unorm2 = float(u @ u)
        s = float((u * u * csum).sum()) / unorm2 if unorm2 != 0.0 else 0.0
    M = float(len(upd))
    terms = {"s": s, "u_norm_sq": unorm2, "U_used": u_used}
    bound = math.inf
    if u_used == 0:
        x_T = float(np.max(np.linalg.norm(X, axis=1))) if len(X) else 0.0
        L_u = float(_cumulative_losses(u[None, :], X, y, "hinge")[0])
        terms.update({"X_T": x_T, "L_u": L_u})
        if x_T != 0.0 and unorm2 != 0.0:
            d = trace.dim
            a = unorm2 * (r + s) * d
            b = x_T ** 2 / (d * r)
            bound = sqrt_log_solve(a, b, 0.0, L_u)
            terms.update({"a": a, "b": b})
    return {"name": "diag_refinement", "measured": M, "bound": bound, "slack": bound - M,
            "terms": terms}


def diag_log_bound(x_squares, r):
    """RHS r * sum_i ln((1/r) sum_t x_{t,i}^2 + 1) bounding sum_t x_t^T D_t^{-1} x_t."""
    xs = np.asarray(x_squares, dtype=np.float64)
    if (xs < 0).any():
        raise ValueError("inputs must be squares (nonnegative)")
    if r <= 0:
        raise ValueError("r must be positive")
    return float(r * np.log(xs.sum(axis=0) / r + 1.0).sum())


def sqrt_log_solve(a, b, c, d):
    """Explicit upper bound on x for the implicit inequality x <= sqrt(a ln(b x + 1) + c) + d:

        sqrt(a ln(sqrt(8) a b^2 / e + 2 b sqrt(c) + 2 d b + 2) + c) + d

    Coefficients a, b must be positive; c, d nonnegative (the rare-feature
    refinement uses the c = 0 limit).
    """
    if a <= 0:
        raise ValueError("coefficient a must be positive")
    if b <= 0 or c < 0 or d < 0:
        raise ValueError("need b > 0 and c, d >= 0")
    inner = math.sqrt(8.0) * a * b * b / _E + 2.0 * b * math.sqrt(c) + 2.0 * d * b + 2.0
    return math.sqrt(a * math.log(inner) + c) + d
