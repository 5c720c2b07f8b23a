"""Dense row checks and incrementally maintained inverses of rank-one updated matrices:
a blocked Sherman-Morrison inverse for the full matrix, a diagonal for its diagonal."""

import math

import numpy as np


class SparseVec:
    """Sparse vector: sorted (index, value) pairs, no explicit zeros. No learner reads one;
    it is the tests' oracle for parsed and generated rows and the bench tracer's patch target."""

    __slots__ = ("indices", "values", "dim")

    def __init__(self, entries, dim):
        dim = int(dim)
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        idx, vals = [], []
        last = -1
        for i, v in entries:
            i = int(i)
            v = float(v)
            if i <= last:
                raise ValueError(f"indices must be strictly increasing (got {i} after {last})")
            if i < 0 or i >= dim:
                raise ValueError(f"index {i} out of range for dim {dim}")
            last = i
            if v != 0.0:
                idx.append(i)
                vals.append(v)
        self.indices = np.asarray(idx, dtype=np.int64)
        self.values = np.asarray(vals, dtype=np.float64)
        self.dim = dim
        if not np.isfinite(self.values).all():
            bad = int(np.argmin(np.isfinite(self.values)))
            raise ValueError(f"non-finite value {vals[bad]} at index {idx[bad]}")

    @classmethod
    def from_dense(cls, x):
        x = np.asarray(x, dtype=np.float64)
        vec = cls.__new__(cls)
        vec.indices = np.flatnonzero(x).astype(np.int64)
        vec.values = x[vec.indices]
        vec.dim = x.shape[0]
        return vec

    def to_dense(self):
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self):
        return int(self.indices.shape[0])

    def dot(self, w):
        w = np.asarray(w, dtype=np.float64)
        if w.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: {w.shape[-1]} != {self.dim}")
        if self.indices.size == 0:
            return 0.0
        return float(w[self.indices] @ self.values)

    def scaled(self, factors):
        """New vector with per-coordinate factors applied (factors must be nonzero)."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape[0] != self.dim:
            raise ValueError("factor length must equal dim")
        if (factors == 0.0).any():
            raise ValueError("factors must be nonzero")
        vec = SparseVec.__new__(SparseVec)
        vec.indices = self.indices.copy()
        vec.values = self.values * factors[self.indices]
        vec.dim = self.dim
        return vec

    def __repr__(self):
        pairs = ", ".join(f"{i}:{v}" for i, v in zip(self.indices, self.values))
        return f"SparseVec({{{pairs}}}, dim={self.dim})"


def as_dense(x, dim):
    """An array-like of length dim as a float64 vector; ValueError on another length."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: {arr.shape[-1]} != {dim}")
    return arr


class RankOneInverse:
    """A^{-1} and ln|A| maintained under A <- A + (1/r) x x^T, with A_0 = scale * I.

    The inverse is never recomputed from scratch. It is a dense `base`, A^{-1}
    at the last fold, minus a block of pending Sherman-Morrison terms:
    A^{-1} = base - V^T diag(c) V, where row s of V is u_s = A_{s-1}^{-1} x_s
    and c_s = 1/(r + chi_s) with chi_s = x_s^T u_s. An update appends one row
    and bumps the log-determinant by ln(1 + chi/r); when the block already
    held `block` rows, it folds them and the new one into a new base with one
    matrix product. block is ceil(sqrt(dim)), which pays a fold's d^2 pass once
    per block + 1 updates while each apply pays k*d for its k pending rows, and
    0, a fold on every update, for dim <= DENSE_DIM, where the numpy calls of a
    pending block cost more than the fold's d^2 pass. The last update's u and
    chi stay readable for the Sherman-Morrison closed forms quad_drop and
    last_quad_form. An update binds new V and c (a fold a new base too) and
    never writes into the old ones, so a shallow copy keeps its state. Its
    methods, like DiagInverse's, take a dense float64 vector of length dim,
    unchecked.
    """

    DENSE_DIM = 48  # measured: blocked and dense vaw/second_order rounds cross near d = 48

    def __init__(self, dim, r=1.0, scale=1.0):
        if r <= 0:
            raise ValueError("r must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.dim = int(dim)
        self.r = float(r)
        self.block = 0 if self.dim <= self.DENSE_DIM else math.isqrt(self.dim - 1) + 1
        self.base = np.eye(self.dim) / scale
        self.V = np.empty((0, self.dim))
        self.c = np.empty(0)
        self.u = np.zeros(self.dim)  # the last update's A^{-1} x and chi, taken before it
        self.chi = 0.0
        self.logdet = self.dim * math.log(scale)

    def apply(self, v):
        """A^{-1} v, as base @ v - ((V @ v) * c) @ V on its own temporaries."""
        out = self.base @ v
        if self.c.size:
            pending = self.V @ v
            pending *= self.c
            out -= pending @ self.V
        return out

    def quad_form(self, x):
        """x^T A^{-1} x; nonnegative while A stays positive definite."""
        return float(x @ self.apply(x))

    def quad_drop(self, v):
        """v^T A^{-1} v before the last update minus after it: (u . v)^2 / (r + chi)."""
        p = self.u @ v
        return p * p / (self.r + self.chi)

    def last_quad_form(self):
        """x^T A^{-1} x after the last update, of its x: chi r / (r + chi)."""
        return self.chi * self.r / (self.r + self.chi)

    def update(self, x, u=None):
        """Advance A by (1/r) x x^T; returns the pre-update quad form chi.

        u is A^{-1} x at the state before the update: a caller that has just
        applied the inverse to x passes what apply(x) returned, and by default
        it is computed here.
        ArithmeticError, with the state unchanged, when 1 + chi/r <= 0: rounding
        has left A^{-1} indefinite, and ln|A| would have no value.
        """
        if u is None:
            u = self.apply(x)
        chi = float(x @ u)
        if 1.0 + chi / self.r <= 0.0:
            raise ArithmeticError(f"rank-one update lost positive definiteness: "
                                  f"chi = {chi!r} with r = {self.r!r} gives 1 + chi/r <= 0")
        k = self.c.size
        V, c = np.empty((k + 1, self.dim)), np.empty(k + 1)
        V[:k], V[k] = self.V, u
        c[:k], c[k] = self.c, 1.0 / (self.r + chi)
        if k == self.block:  # the block is full: fold it, u's row with it, into a new base
            self.base = self.base - (V.T * c) @ V
            V, c = V[:0], c[:0]
        self.V, self.c, self.u, self.chi = V, c, u, chi
        self.logdet += math.log1p(chi / self.r)
        return chi


class DiagInverse:
    """Diagonal counterpart: diag(A_t) under d_i <- d_i + x_i^2 / r and ln|A_t|, both rebound."""

    def __init__(self, dim, r=1.0, scale=1.0):
        if r <= 0:
            raise ValueError("r must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.dim = int(dim)
        self.r = float(r)
        self.diag = np.full(self.dim, float(scale))
        self.logdet = float(np.add.reduce(np.log(self.diag)))

    def apply(self, v):
        return v / self.diag

    def quad_form(self, x):
        return float(np.add.reduce(x * x / self.diag))

    def update(self, x):
        self.diag = self.diag + x * x / self.r
        self.logdet = float(np.add.reduce(np.log(self.diag)))
