"""Appendix-lemma checks and test-only oracles.

The paper's appendix lemmas that no audit evaluates (the left side of the
diagonal log bound, the sqrt-sum inequality, the x <= a ln x and
x <= a ln(bx + c) + d solvers and the hinge condition), the finite-difference
gradient and implicit-inequality scan that check closed forms against brute
force, and a dense read-out of a rank-one inverse tracker. The package's own
pieces of the lemmas, diag_log_bound and sqrt_log_solve, live in
omdkit.bounds.
"""

import math

import numpy as np

CONDITION_TOL = 1e-12


def diag_quad_sum(x_squares, r):
    """LHS of the diagonal log bound, computed through the D_t recurrence."""
    xs = np.asarray(x_squares, dtype=np.float64)
    diag = np.ones(xs.shape[1])
    total = 0.0
    for row in xs:
        diag = diag + row / r
        total += float((row / diag).sum())
    return total


def sqrt_sum_inequality_check(a, tol=1e-12):
    """Whether sum_t a_t / sqrt(sum_{s<=t} a_s) <= 2 sqrt(sum_t a_t); 0/0 terms are 0."""
    a = np.asarray(a, dtype=np.float64)
    if (a < 0).any():
        raise ValueError("entries must be nonnegative")
    if a.size == 0:
        return True
    prefix = np.cumsum(a)
    terms = np.divide(a, np.sqrt(prefix), out=np.zeros_like(a), where=prefix > 0)
    return float(terms.sum()) <= 2.0 * math.sqrt(float(prefix[-1])) + tol


def _check_n_a(n, a):
    if n <= 1.0:
        raise ValueError("n must exceed 1")
    if a <= 0:
        raise ValueError("coefficient a must be positive")


def pure_log_solve(a, n=2.0):
    """Explicit bound on x <= a ln x: (n/(n-1)) a ln(n a / e), for n > 1 and a > 0."""
    _check_n_a(n, a)
    return (n / (n - 1.0)) * a * math.log(n * a / math.e)


def affine_log_solve(a, b, c, d, n=2.0):
    """Explicit bound on x <= a ln(b x + c) + d: (n/(n-1)) (a ln(n a b / e) + d) + c/(b (n-1)).

    n > 1, a, b positive and c, d nonnegative.
    """
    _check_n_a(n, a)
    if b <= 0 or c < 0 or d < 0:
        raise ValueError("need b > 0 and c, d >= 0")
    return (n / (n - 1.0)) * (a * math.log(n * a * b / math.e) + d) + c / (b * (n - 1.0))


def hinge_condition_check(loss_at_w, loss_at_u, inner_u_subgrad):
    """Whether l(u) >= 1 + <u, l'(w)> whenever l(w) > 0 (vacuously true otherwise)."""
    if loss_at_w <= 0.0:
        return True
    return loss_at_u >= 1.0 + inner_u_subgrad - CONDITION_TOL


def fd_gradient(f, v, h=1e-5):
    """Central finite differences per coordinate; f takes (N, d) rows as the oracles do."""
    v = np.asarray(v, dtype=np.float64)
    dim = v.shape[0]
    plus = np.tile(v, (dim, 1))
    minus = plus.copy()
    plus[np.arange(dim), np.arange(dim)] += h
    minus[np.arange(dim), np.arange(dim)] -= h
    fp = np.asarray(f(plus), dtype=np.float64)
    fm = np.asarray(f(minus), dtype=np.float64)
    if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
        raise ValueError("function not finite near v")
    return (fp - fm) / (2.0 * h)


def implicit_scan(predicate, hi, step):
    """Largest x in (0, hi] with predicate(x) true, scanned at the given resolution.

    Raises if the predicate still holds at hi (the range is too small to
    bracket the solution set). Returns 0.0 when no scanned point holds.
    """
    if hi <= 0 or step <= 0:
        raise ValueError("hi and step must be positive")
    if predicate(hi):
        raise ValueError("predicate true at hi; enlarge the scan range")
    best = 0.0
    x = step
    while x <= hi:
        if predicate(x):
            best = x
        x += step
    return best


def dense_inverse(tracker):
    """A^{-1} of a RankOneInverse as one dense matrix, the pending rows folded in."""
    return tracker.base - (tracker.V.T * tracker.c) @ tracker.V
