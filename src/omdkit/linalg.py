"""Sparse vectors and incrementally maintained inverses of rank-one updated matrices."""

import math

import numpy as np


class SparseVec:
    """Sparse vector: sorted (index, value) pairs, no explicit zeros."""

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
        if np.any(factors == 0.0):
            raise ValueError("factors must be nonzero")
        vec = SparseVec.__new__(SparseVec)
        vec.indices = self.indices.copy()
        vec.values = self.values * factors[self.indices]
        vec.dim = self.dim
        return vec

    def __repr__(self):
        pairs = ", ".join(f"{i}:{v}" for i, v in zip(self.indices, self.values))
        return f"SparseVec({{{pairs}}}, dim={self.dim})"


def as_dense(x, dim=None):
    """Accept SparseVec or array-like; return a float64 dense vector."""
    if isinstance(x, SparseVec):
        if dim is not None and x.dim != dim:
            raise ValueError(f"dimension mismatch: {x.dim} != {dim}")
        return x.to_dense()
    arr = np.asarray(x, dtype=np.float64)
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: {arr.shape[-1]} != {dim}")
    return arr


class RankOneInverse:
    """A^{-1} and ln|A| maintained under A <- A + (1/r) x x^T, with A_0 = scale * I.

    The inverse is never recomputed from scratch; each update applies the
    Sherman-Morrison formula at O(d^2) cost and bumps the log-determinant
    by ln(1 + chi/r) where chi = x^T A^{-1} x. An update binds a new inverse
    and never writes into the old one, so a shallow copy keeps its state.
    Its methods, like DiagInverse's, take a dense float64 vector of length dim, unchecked.
    """

    def __init__(self, dim, r=1.0, scale=1.0):
        if r <= 0:
            raise ValueError("r must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.dim = int(dim)
        self.r = float(r)
        self.inv = np.eye(self.dim) / scale
        self.logdet = self.dim * math.log(scale)
        self._outer = np.empty((self.dim, self.dim))  # scratch for the rank-one term

    def apply(self, v):
        """A^{-1} v."""
        return self.inv @ v

    def quad_form(self, x):
        """x^T A^{-1} x; nonnegative while A stays positive definite."""
        return float(x @ self.inv @ x)

    def update(self, x):
        """Advance A by (1/r) x x^T; returns the pre-update quad form chi."""
        u = self.inv @ x
        chi = float(x @ u)
        outer = np.outer(u, u, out=self._outer)
        outer /= self.r + chi
        self.inv = self.inv - outer
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
        self.logdet = float(np.sum(np.log(self.diag)))

    def apply(self, v):
        return v / self.diag

    def quad_form(self, x):
        return float(np.sum(x * x / self.diag))

    def update(self, x):
        self.diag = self.diag + x * x / self.r
        self.logdet = float(np.sum(np.log(self.diag)))
