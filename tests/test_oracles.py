import math

import numpy as np
import pytest

from lemmas import fd_gradient, implicit_scan
from omdkit.oracles import (
    _OFFSETS,
    GridSpec,
    _refine_max_batch,
    numeric_argmax,
    numeric_biconjugate,
    numeric_conjugate,
    numeric_dual_norm,
)

GRID2 = GridSpec(-3.0, 3.0, 41, 2)


def _half_sq(V):
    V = np.atleast_2d(V)
    return 0.5 * np.sum(V * V, axis=1)


def test_numeric_conjugate_self_conjugate():
    val = numeric_conjugate(_half_sq, np.array([1.0, 1.0]), GRID2)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_numeric_conjugate_scaled_quadratic():
    grid = GridSpec(-3.0, 3.0, 41, 1)
    val = numeric_conjugate(lambda V: 2.0 * np.atleast_2d(V)[:, 0] ** 2,
                            np.array([1.0]), grid)
    assert val == pytest.approx(0.125, abs=1e-4)


def test_numeric_conjugate_at_zero():
    val = numeric_conjugate(_half_sq, np.zeros(2), GRID2)
    assert val == pytest.approx(0.0, abs=1e-4)


def test_numeric_argmax_point():
    pt, _ = numeric_argmax(_half_sq, np.array([0.7, -1.1]), GRID2, refine_iters=70)
    assert np.max(np.abs(pt - [0.7, -1.1])) < 1e-6


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 41, 2)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 5, 2)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 41, 4)


def test_fd_gradient_quadratic():
    g = fd_gradient(_half_sq, np.array([2.0, 3.0]))
    assert np.max(np.abs(g - [2.0, 3.0])) < 1e-8


def test_fd_gradient_abs_away_from_kink():
    g = fd_gradient(lambda V: np.abs(np.atleast_2d(V)[:, 0]), np.array([1.0]))
    assert g[0] == pytest.approx(1.0, abs=1e-10)


def test_numeric_dual_norm_euclidean():
    val = numeric_dual_norm(lambda V: np.linalg.norm(np.atleast_2d(V), axis=1),
                            np.array([3.0, 4.0]), samples=20_000)
    assert val == pytest.approx(5.0, abs=1e-3)
    assert repr(val) == "5.0"  # pinned: the search's draws and arithmetic are fixed


def test_numeric_dual_norm_weighted():
    a = np.array([4.0, 1.0])

    def wnorm(V):
        V = np.atleast_2d(V)
        return np.sqrt(np.sum(V * V * a, axis=1))

    val = numeric_dual_norm(wnorm, np.array([2.0, 1.0]), samples=20_000)
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert repr(val) == "1.414213562373075"  # pinned: the search's draws are fixed


def test_numeric_dual_norm_zero():
    val = numeric_dual_norm(lambda V: np.linalg.norm(np.atleast_2d(V), axis=1),
                            np.zeros(2), samples=1_000)
    assert val == 0.0


def test_numeric_dual_norm_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        numeric_dual_norm(lambda V: np.linalg.norm(np.atleast_2d(V), axis=1) + 1.0,
                          np.array([1.0, 0.0]), samples=100)


def test_implicit_scan_fixed_point():
    # x <= e ln x holds only at x = e exactly (tangency); give the predicate
    # slack on the scale of the scan resolution so the grid can see it
    best = implicit_scan(lambda x: x <= math.e * math.log(x) + 1e-6, hi=10.0, step=1e-4)
    assert best == pytest.approx(math.e, abs=5e-3)


def test_implicit_scan_empty_and_range_errors():
    assert implicit_scan(lambda x: False, hi=5.0, step=0.01) == 0.0
    with pytest.raises(ValueError):
        implicit_scan(lambda x: True, hi=5.0, step=0.01)


def test_biconjugation_recovers_convex_function():
    for w in ([0.5, -1.0], [1.2, 0.3]):
        val = numeric_biconjugate(_half_sq, np.array(w), GRID2, refine_iters=25)
        assert val == pytest.approx(float(_half_sq(np.array(w))[0]), abs=1e-3)


def test_fd_gradient_of_conjugate_matches_mirror_map():
    # grad f* == argmax identity, probed through the numeric conjugate
    from omdkit.regularizers import PNorm

    reg = PNorm(2, 1.5)
    theta = np.array([0.8, -0.6])

    def conj(Thetas):
        Thetas = np.atleast_2d(Thetas)
        from omdkit.oracles import numeric_conjugate_batch

        return numeric_conjugate_batch(lambda V: np.asarray(reg.value(V)), Thetas,
                                       GRID2, refine_iters=30)

    g = fd_gradient(conj, theta, h=1e-4)
    assert np.max(np.abs(g - reg.mirror_map(theta))) < 1e-5


def _refine_max_reference(objective, starts, width, iters):
    """The sequential first-improvement search: one objective call per offset."""
    best = starts.copy()
    best_val = objective(best)
    w = width
    for _ in range(iters):
        for j in range(best.shape[1]):
            for off in _OFFSETS:
                cand = best.copy()
                cand[:, j] += off * w
                vals = objective(cand)
                better = vals > best_val
                best[better] = cand[better]
                best_val[better] = vals[better]
        w *= 0.7
    return best, best_val


def _pnorm_half_sq(V, p=1.5):
    return 0.5 * np.sum(np.abs(V) ** p, axis=1) ** (2.0 / p)


REFINE_OBJECTIVES = {
    "quadratic": lambda V: V @ np.array([0.7, -1.1]) - _half_sq(V),
    "pnorm": lambda V: V @ np.array([0.9, 0.4]) - _pnorm_half_sq(V),
    "l1_plus_quadratic": lambda V: (V @ np.array([1.3, -0.2]) - _half_sq(V)
                                    - 0.3 * np.sum(np.abs(V), axis=1)),
}


@pytest.mark.parametrize("name", sorted(REFINE_OBJECTIVES))
def test_batched_refine_matches_sequential_reference(name):
    # seeded as the oracles seed it: at the best grid point, and one grid
    # step off it diagonally either way
    objective = REFINE_OBJECTIVES[name]
    pts = GRID2.points()
    seed = pts[np.argmax(objective(pts))]
    starts = seed + GRID2.spacing * np.array([[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]])
    _, ref_val = _refine_max_reference(objective, starts, GRID2.spacing, 60)
    _, val = _refine_max_batch(objective, starts, GRID2.spacing, 60)
    assert np.max(np.abs(val - ref_val)) <= 1e-9


@pytest.mark.parametrize("dim, iters", [(1, 7), (2, 25), (3, 10)])
def test_batched_refine_call_count(dim, iters):
    calls = []

    def objective(V):
        calls.append(V.shape[0])
        return -np.sum(V * V, axis=1)

    _refine_max_batch(objective, np.ones((4, dim)), 0.5, iters)
    assert len(calls) == 1 + iters * dim
    assert calls == [4] + [4 * len(_OFFSETS)] * (iters * dim)


def test_batched_refine_nan_candidate_never_wins():
    # NaN left of x = -0.58, where the unconstrained maximum (-1, 0) lies
    def objective(V):
        vals = -np.sum((V - [-1.0, 0.0]) ** 2, axis=1)
        return np.where(V[:, 0] < -0.58, np.nan, vals)

    starts = np.array([[-0.3, 0.3], [-0.45, 0.0]])
    # first step from -0.45: -0.6 is NaN and comes first, -0.55 is the best finite
    best, val = _refine_max_batch(objective, starts, 0.15, 1)
    assert best[1, 0] == pytest.approx(-0.55)
    best, val = _refine_max_batch(objective, starts, 0.15, 40)
    assert np.isfinite(val).all()
    assert (best[:, 0] >= -0.58).all()
    assert np.allclose(best, [[-0.58, 0.0], [-0.58, 0.0]], atol=1e-6)
    np.testing.assert_array_equal(val, objective(best))
