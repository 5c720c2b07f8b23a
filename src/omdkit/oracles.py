"""Brute-force numeric oracles: conjugates, argmax points and dual norms.

Deliberately plain (grids plus local pattern search plus random search) so
they cannot share bugs with the analytic formulas they check. Functions
passed in must accept batched (N, d) inputs and return (N,) values; the
pattern search scores the six offsets of one coordinate in one such call.

The dual-norm search's draws depend only on (seed, dim, count), so they
are drawn once per process and reused, read-only, for its life. The
pattern search writes every step's candidates into one buffer per search,
so an objective must not keep its argument after it returns; the nested
biconjugate's inner search finishes before the outer search rewrites its
buffer. The biconjugate evaluates f on the grid once, for all its inner
searches.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .prng import Xorshift64Star

_OFFSETS = np.array([-1.0, -2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


def _finite(name, x):
    """x as a float64 array; a ValueError naming x if any entry is not finite."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points_per_axis: int = 41
    dim: int = 2

    def __post_init__(self):
        _finite("lo", self.lo)
        _finite("hi", self.hi)
        if not self.lo < self.hi:
            raise ValueError("lo must be below hi")
        if self.points_per_axis < 11:
            raise ValueError("points_per_axis must be at least 11")
        if not 1 <= self.dim <= 3:
            raise ValueError("dim must be 1, 2, or 3")

    def axis(self):
        return np.linspace(self.lo, self.hi, self.points_per_axis)

    def points(self):
        axes = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=1)

    @property
    def spacing(self):
        return (self.hi - self.lo) / (self.points_per_axis - 1)


def _refine_max_batch(objective, starts, width, iters):
    """Coordinate pattern search maximizing objective (batched) around starts.

    The six offsets of one coordinate are scored in one objective call on
    the stacked (6n, dim) candidates, offset-major, written into one buffer
    that every call reuses. Each row then moves to its best candidate if
    that beats its current value; a NaN candidate never wins. One refine
    makes 1 + iters * dim objective calls.
    """
    best = starts.copy()
    best_val = objective(best)
    w = width
    n, dim = best.shape
    k = len(_OFFSETS)
    rows = np.arange(n)
    cand = np.empty((k, n, dim))
    flat = cand.reshape(k * n, dim)
    for _ in range(iters):
        steps = (_OFFSETS * w)[:, None]
        for j in range(dim):
            cand[:] = best
            cand[:, :, j] += steps
            vals = np.asarray(objective(flat)).reshape(k, n)
            pick = np.where(np.isnan(vals), -np.inf, vals).argmax(axis=0)
            top = vals[pick, rows]
            better = top > best_val
            if better.any():
                best[better] = cand[pick[better], rows[better]]
                best_val[better] = top[better]
        w *= 0.7
    return best, best_val


def _grid_values(f, pts):
    fvals = np.asarray(f(pts))
    if not np.isfinite(fvals).any():
        raise ValueError("function not finite anywhere on the grid")
    return fvals


def _argmax_batch(f, thetas, pts, fvals, spacing, iters):
    """numeric_argmax_batch with the grid points pts and fvals = f(pts) given."""
    scores = thetas @ pts.T
    scores -= fvals
    seed = pts[scores.argmax(axis=1)]
    stacked = np.tile(thetas, (len(_OFFSETS), 1))

    def objective(v):
        t = thetas if v.shape[0] == thetas.shape[0] else stacked
        return np.einsum("ij,ij->i", t, v) - np.asarray(f(v))

    return _refine_max_batch(objective, seed, spacing, iters)


def numeric_argmax_batch(f, thetas, grid, refine_iters=60):
    """argmax_v <v,theta> - f(v) for each row of thetas; returns (points, values)."""
    thetas = _finite("theta", np.atleast_2d(thetas))
    pts = grid.points()
    return _argmax_batch(f, thetas, pts, _grid_values(f, pts), grid.spacing, refine_iters)


def numeric_argmax(f, theta, grid, refine_iters=60):
    pts, vals = numeric_argmax_batch(f, np.asarray(theta)[None, :], grid, refine_iters)
    return pts[0], float(vals[0])


def numeric_conjugate(f, theta, grid, refine_iters=60):
    """sup_v <v,theta> - f(v), grid-seeded then locally refined."""
    _, val = numeric_argmax(f, theta, grid, refine_iters)
    return val


def numeric_biconjugate(f, w, grid, refine_iters=25):
    """f**(w) via a nested numeric conjugate; accurate to ~1e-4 on smooth convex f."""
    w = _finite("w", w)
    pts = grid.points()
    fvals = _grid_values(f, pts)

    def conj(thetas):
        return _argmax_batch(f, thetas, pts, fvals, grid.spacing, refine_iters)[1]

    # the outer search scores a grid array of its own: thetas @ pts.T with thetas = pts would
    # go to BLAS's symmetric kernel instead of the general one every other seed uses
    return numeric_conjugate(conj, w, grid, refine_iters)


@functools.lru_cache(maxsize=8)
def _search_draws(seed, dim, count):
    """The dual-norm search's draws from Xorshift64Star(seed), read-only and cached per process.

    Ten homogeneity probes (v, c) with v dim normals and c in [0.5, 2.5), then
    one (count, dim) block of normals, in the order the stream yields them.
    """
    rng = Xorshift64Star(seed)
    probes = []
    for _ in range(10):
        v = rng.normals(dim)
        c = 0.5 + 2.0 * rng.uniform()
        v.flags.writeable = False
        probes.append((v, c))
    draws = rng.normals(count * dim).reshape(count, dim)
    draws.flags.writeable = False
    return tuple(probes), draws


def numeric_dual_norm(primal_norm, z, samples=100_000, seed=7, refine_rounds=40):
    """sup {<u,z> : primal_norm(u) <= 1} by random search over unit-norm directions.

    primal_norm must be positively homogeneous; this is spot-checked on
    random points before the search.
    """
    z = _finite("z", z)
    dim = z.shape[0]
    probes, draws = _search_draws(seed, dim, samples + 200 * refine_rounds)
    for v, c in probes:
        nv = float(np.asarray(primal_norm(v[None, :]))[0])
        ncv = float(np.asarray(primal_norm((c * v)[None, :]))[0])
        # NaN-safe: a norm reading inf or nan fails the probe
        if not abs(ncv - c * nv) <= 1e-9 * max(1.0, abs(ncv)):
            raise ValueError("primal norm is not positively homogeneous")
    if not z.any():
        return 0.0

    def best_of(dirs):
        norms = np.asarray(primal_norm(dirs))
        ok = norms > 0
        u = dirs[ok] / norms[ok, None]
        vals = u @ z
        i = int(np.argmax(vals))
        return u[i], float(vals[i])

    # the random directions, then one block of 200 perturbations per refine round
    flat, blocks = draws[:samples], draws[samples:].reshape(refine_rounds, 200, dim)
    # include z itself and the coordinate directions as candidates
    extra = np.vstack([z[None, :], np.eye(dim), -np.eye(dim)])
    best_u, best_val = best_of(np.vstack([flat, extra]))
    sigma = 0.5
    for block in blocks:
        cand = best_u[None, :] + sigma * block
        u, val = best_of(np.vstack([cand, best_u[None, :]]))
        if val > best_val:
            best_u, best_val = u, val
        sigma *= 0.8
    return best_val
