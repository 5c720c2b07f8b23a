import math

import numpy as np
import pytest

from helpers import regularizer_families
from lemmas import fd_gradient, implicit_scan
from omdkit import oracles
from omdkit.oracles import (
    _OFFSETS,
    GridSpec,
    _refine_max_batch,
    _search_draws,
    numeric_argmax,
    numeric_argmax_batch,
    numeric_biconjugate,
    numeric_conjugate,
    numeric_dual_norm,
)
from omdkit.prng import Xorshift64Star

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


@pytest.mark.parametrize("lo, hi, name", [(-math.inf, 3.0, "lo"), (-3.0, math.inf, "hi"),
                                          (math.nan, 3.0, "lo")])
def test_grid_spec_refuses_a_non_finite_bound(lo, hi, name):
    # an infinite bound passed lo < hi and gave a NaN axis with an infinite spacing
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        GridSpec(lo, hi, 41, 2)


def test_numeric_argmax_refuses_a_non_finite_theta():
    # a NaN theta scored every grid point NaN and returned the corner (-3, -3) with value nan
    with pytest.raises(ValueError, match="^theta must be finite"):
        numeric_argmax(_half_sq, np.array([math.nan, 1.0]), GRID2)
    with pytest.raises(ValueError, match="^theta must be finite"):
        numeric_argmax_batch(_half_sq, np.array([[0.1, 0.2], [0.1, math.inf]]), GRID2)


def test_numeric_biconjugate_refuses_a_non_finite_w():
    with pytest.raises(ValueError, match="^w must be finite"):
        numeric_biconjugate(_half_sq, np.array([math.nan, 0.0]), GRID2, refine_iters=5)


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


def test_numeric_dual_norm_refuses_a_norm_that_reads_inf():
    # the homogeneity probe read inf - inf = nan, which no comparison with a tolerance fails,
    # and the search then returned 0.0
    with pytest.raises(ValueError, match="not positively homogeneous"):
        numeric_dual_norm(lambda V: np.full(len(V), np.inf), np.array([1.0, 2.0]), samples=100)


def test_numeric_dual_norm_refuses_a_non_finite_z():
    # a NaN z returned nan
    with pytest.raises(ValueError, match="^z must be finite"):
        numeric_dual_norm(lambda V: np.linalg.norm(V, axis=1), np.array([math.nan, 4.0]),
                          samples=100)


def _uncached_draws(seed, dim, count):
    """The dual-norm search's draws as the search drew them on every call, without a cache."""
    rng = Xorshift64Star(seed)
    probes = []
    for _ in range(10):
        v = rng.normals(dim)
        probes.append((v, 0.5 + 2.0 * rng.uniform()))
    return tuple(probes), rng.normals(count * dim).reshape(count, dim)


@pytest.mark.parametrize("seed, dim, count", [(7, 2, 27_000), (7, 3, 1_200), (11, 1, 40)])
def test_dual_norm_draws_follow_the_uncached_stream(seed, dim, count):
    probes, draws = _search_draws(seed, dim, count)
    ref_probes, ref_draws = _uncached_draws(seed, dim, count)
    for (v, c), (ref_v, ref_c) in zip(probes, ref_probes, strict=True):
        np.testing.assert_array_equal(v, ref_v)
        assert c == ref_c
    np.testing.assert_array_equal(draws, ref_draws)


def test_dual_norm_draws_are_read_only():
    probes, draws = _search_draws(7, 2, 1_000)
    with pytest.raises(ValueError):
        draws[0, 0] = 1.0
    with pytest.raises(ValueError):
        probes[0][0][0] = 1.0


def test_numeric_dual_norm_gives_the_uncached_bits_cold_and_warm(monkeypatch):
    probes = [(reg, z) for reg in regularizer_families(2).values()
              for z in (np.array([0.9, -0.5]), np.array([-0.2, 1.3]))]

    def run():
        return [numeric_dual_norm(lambda V: np.asarray(reg.norm(V)), z, samples=20_000,
                                  refine_rounds=35) for reg, z in probes]

    _search_draws.cache_clear()
    cold = run()
    warm = run()
    assert _search_draws.cache_info().misses == 1
    monkeypatch.setattr(oracles, "_search_draws", _uncached_draws)
    uncached = run()
    assert [repr(v) for v in cold] == [repr(v) for v in warm] == [repr(v) for v in uncached]


def test_numeric_dual_norm_checks_homogeneity_on_a_warm_cache():
    def euclid(V):
        return np.linalg.norm(np.atleast_2d(V), axis=1)

    z = np.array([1.0, 0.0])
    numeric_dual_norm(euclid, z, samples=100)
    with pytest.raises(ValueError, match="not positively homogeneous"):
        numeric_dual_norm(lambda V: euclid(V) + 1.0, z, samples=100)


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


def test_numeric_biconjugate_evaluates_f_on_the_grid_once():
    pts = GRID2.points()
    grid_calls = []

    def f(V):  # not 0.5 |v|^2, whose inner search would start on the grid points themselves
        grid_calls.append(V.shape == pts.shape and np.array_equal(V, pts))
        return 1.5 * _half_sq(V)

    numeric_biconjugate(f, np.array([0.4, -0.3]), GRID2, refine_iters=22)
    assert sum(grid_calls) == 1


@pytest.mark.parametrize("name, w", [("pnorm", (0.4, -0.3)), ("composite_sqrt", (0.6, 0.2)),
                                     ("scaleinv_diag", (-0.5, 0.35))])
def test_numeric_biconjugate_matches_the_public_composition(name, w):
    # the nested conjugate built from the public oracles, each inner call evaluating f on
    # the grid again
    reg = regularizer_families(2)[name]
    w, it = np.array(w), 12

    def f(V):
        return np.asarray(reg.value(V))

    composed = numeric_conjugate(lambda T: numeric_argmax_batch(f, T, GRID2, it)[1], w, GRID2, it)
    assert repr(numeric_biconjugate(f, w, GRID2, refine_iters=it)) == repr(composed)


def test_fd_gradient_of_conjugate_matches_mirror_map():
    # grad f* == argmax identity, probed through the numeric conjugate
    from omdkit.regularizers import PNorm

    reg = PNorm(2, 1.5)
    theta = np.array([0.8, -0.6])

    def conj(Thetas):
        return numeric_argmax_batch(lambda V: np.asarray(reg.value(V)), Thetas,
                                    GRID2, refine_iters=30)[1]

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
