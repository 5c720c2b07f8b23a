"""Brute-force numeric oracles: conjugates, argmax points and dual norms.

Deliberately plain (grids plus local pattern search plus random search) so
they cannot share bugs with the analytic formulas they check. Functions
passed in must accept batched (N, d) inputs and return (N,) values; the
pattern search scores the six offsets of one coordinate in one such call.
"""

from dataclasses import dataclass

import numpy as np

from .prng import Xorshift64Star

_OFFSETS = np.array([-1.0, -2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points_per_axis: int = 41
    dim: int = 2

    def __post_init__(self):
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
    the stacked (6n, dim) candidates, offset-major. Each row then moves to
    its best candidate if that beats its current value; a NaN candidate
    never wins. One refine makes 1 + iters * dim objective calls.
    """
    best = starts.copy()
    best_val = objective(best)
    w = width
    n, dim = best.shape
    k = len(_OFFSETS)
    rows = np.arange(n)
    for _ in range(iters):
        for j in range(dim):
            cand = np.repeat(best[None], k, axis=0)
            cand[:, :, j] += (_OFFSETS * w)[:, None]
            vals = np.asarray(objective(cand.reshape(k * n, dim))).reshape(k, n)
            pick = np.argmax(np.where(np.isnan(vals), -np.inf, vals), axis=0)
            top = vals[pick, rows]
            better = top > best_val
            best[better] = cand[pick, rows][better]
            best_val[better] = top[better]
        w *= 0.7
    return best, best_val


def numeric_argmax_batch(f, thetas, grid, refine_iters=60):
    """argmax_v <v,theta> - f(v) for each row of thetas; returns (points, values)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    pts = grid.points()
    fvals = np.asarray(f(pts))
    if not np.isfinite(fvals).any():
        raise ValueError("function not finite anywhere on the grid")
    scores = thetas @ pts.T - fvals[None, :]
    seed = pts[np.argmax(scores, axis=1)]
    stacked = np.tile(thetas, (len(_OFFSETS), 1))

    def objective(v):
        t = thetas if v.shape[0] == thetas.shape[0] else stacked
        return np.einsum("ij,ij->i", t, v) - np.asarray(f(v))

    return _refine_max_batch(objective, seed, grid.spacing, refine_iters)


def numeric_argmax(f, theta, grid, refine_iters=60):
    pts, vals = numeric_argmax_batch(f, np.asarray(theta)[None, :], grid, refine_iters)
    return pts[0], float(vals[0])


def numeric_conjugate(f, theta, grid, refine_iters=60):
    """sup_v <v,theta> - f(v), grid-seeded then locally refined."""
    _, val = numeric_argmax(f, theta, grid, refine_iters)
    return val


def numeric_conjugate_batch(f, thetas, grid, refine_iters=40):
    _, vals = numeric_argmax_batch(f, thetas, grid, refine_iters)
    return vals


def numeric_biconjugate(f, w, grid, refine_iters=25):
    """f**(w) via a nested numeric conjugate; accurate to ~1e-4 on smooth convex f."""

    def conj(thetas):
        return numeric_conjugate_batch(f, thetas, grid, refine_iters)

    return numeric_conjugate(conj, np.asarray(w, dtype=np.float64), grid, refine_iters)


def numeric_dual_norm(primal_norm, z, samples=100_000, seed=7, refine_rounds=40):
    """sup {<u,z> : primal_norm(u) <= 1} by random search over unit-norm directions.

    primal_norm must be positively homogeneous; this is spot-checked on
    random points before the search.
    """
    z = np.asarray(z, dtype=np.float64)
    dim = z.shape[0]
    rng = Xorshift64Star(seed)
    for _ in range(10):
        v = rng.normals(dim)
        c = 0.5 + 2.0 * rng.uniform()
        nv = float(np.asarray(primal_norm(v[None, :]))[0])
        ncv = float(np.asarray(primal_norm((c * v)[None, :]))[0])
        if abs(ncv - c * nv) > 1e-9 * max(1.0, abs(ncv)):
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
    draws = rng.normals((samples + 200 * refine_rounds) * dim).reshape(-1, dim)
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
