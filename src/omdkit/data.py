"""Datasets: svmlight/CSV parsing, seeded synthetic generators, export."""

import csv as _csv
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseVec
from .prng import Xorshift64Star


@dataclass
class Example:
    x: SparseVec
    y: float


@dataclass
class Dataset:
    examples: list
    dim: int
    meta: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.examples)

    def __len__(self):
        return len(self.examples)


def parse_svmlight(path, dim=None):
    """Parse 'label idx:val ...' lines with 1-based strictly increasing indices.

    Lines starting with '#' are comments. Raises ValueError naming the
    offending line on malformed input; an empty file is an error.
    """
    rows = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                y = float(parts[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad label {parts[0]!r}") from None
            entries = []
            last = 0
            for tok in parts[1:]:
                bits = tok.split(":")
                if len(bits) != 2:
                    raise ValueError(f"{path}: line {lineno}: bad feature token {tok!r}")
                try:
                    idx = int(bits[0])
                    val = float(bits[1])
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad feature token {tok!r}") from None
                if idx <= last:
                    raise ValueError(
                        f"{path}: line {lineno}: indices must be strictly increasing and 1-based"
                    )
                last = idx
                entries.append((idx - 1, val))
                max_index = max(max_index, idx - 1)
            rows.append((y, entries))
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    if dim is None:
        dim = max_index + 1
    elif max_index >= dim:
        raise ValueError(f"{path}: feature index {max_index + 1} exceeds declared dim {dim}")
    examples = [Example(SparseVec(entries, dim), y) for y, entries in rows]
    return Dataset(examples, dim)


def parse_csv(path, label_column="label", remap01=False, dim=None):
    """CSV with a header; every non-label column is a feature, in column order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset") from None
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r} in header")
        ycol = header.index(label_column)
        feat_cols = [i for i in range(len(header)) if i != ycol]
        if dim is None:
            dim = len(feat_cols)
        elif dim < len(feat_cols):
            raise ValueError(f"{path}: declared dim {dim} below feature count {len(feat_cols)}")
        examples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields")
            try:
                y = float(row[ycol])
                vals = [float(row[i]) for i in feat_cols]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
            if remap01:
                if y not in (0.0, 1.0):
                    raise ValueError(f"{path}: line {lineno}: label {y} not in {{0,1}}")
                y = 2.0 * y - 1.0
            entries = [(j, v) for j, v in enumerate(vals) if v != 0.0]
            examples.append(Example(SparseVec(entries, dim), y))
    if not examples:
        raise ValueError(f"{path}: empty dataset")
    return Dataset(examples, dim)


def write_svmlight(dataset, path):
    """Export with 1-based indices and repr floats; comparator metadata as comments."""
    with open(path, "w", encoding="utf-8") as fh:
        if "u_star" in dataset.meta:
            ustr = " ".join(repr(float(v)) for v in dataset.meta["u_star"])
            fh.write(f"# u_star {ustr}\n")
        for ex in dataset.examples:
            toks = [repr(float(ex.y))]
            toks += [f"{i + 1}:{repr(float(v))}" for i, v in zip(ex.x.indices, ex.x.values)]
            fh.write(" ".join(toks) + "\n")


@dataclass
class GeneratorSpec:
    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    base: "GeneratorSpec | None" = None
    factors: "list | None" = None

    def to_dict(self):
        out = {"kind": self.kind, "seed": int(self.seed), "params": dict(self.params)}
        if self.base is not None:
            out["base"] = self.base.to_dict()
        if self.factors is not None:
            out["factors"] = [float(c) for c in self.factors]
        return out

    @classmethod
    def from_dict(cls, d):
        base = cls.from_dict(d["base"]) if d.get("base") else None
        return cls(kind=d["kind"], seed=int(d.get("seed", 0)),
                   params=dict(d.get("params", {})), base=base,
                   factors=list(d["factors"]) if d.get("factors") else None)


def _unit_vector(rng, d):
    while True:
        v = np.array(rng.normals(d))
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return v / n


def _gen_separable(rng, gamma, d, T):
    """Unit-norm target u with y <u,x> >= gamma and ||x|| <= 1 by construction.

    meta carries u_unit (the unit-norm target), gamma, and u_star = u/gamma,
    the comparator with zero hinge loss.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"infeasible margin gamma={gamma}; need 0 < gamma <= 1")
    u = _unit_vector(rng, d)
    examples = []
    for _ in range(int(T)):
        y = rng.sign()
        m = gamma + (1.0 - gamma) * rng.uniform()
        v = np.array(rng.normals(d))
        orth = v - (v @ u) * u
        northo = float(np.linalg.norm(orth))
        x = y * m * u
        if northo > 1e-12:
            rho = rng.uniform()
            x = x + (orth / northo) * rho * math.sqrt(max(1.0 - m * m, 0.0))
        examples.append(Example(SparseVec.from_dense(x), y))
    return Dataset(examples, d,
                   meta={"u_star": u / gamma, "u_unit": u, "gamma": gamma})


def _gen_noisy_linear(rng, sigma, d, T, u_star=None):
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    u = np.asarray(u_star, float) if u_star is not None else _unit_vector(rng, d)
    if u.shape[0] != d:
        raise ValueError("u_star length must equal d")
    examples = []
    for _ in range(int(T)):
        x = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(d)])
        y = float(u @ x) + sigma * rng.normal()
        examples.append(Example(SparseVec.from_dense(x), y))
    return Dataset(examples, d, meta={"u_star": u})


def _gen_sparse_target(rng, k, d, T):
    if not 0 < k <= d:
        raise ValueError("need 0 < k <= d")
    support = rng.permutation(d)[:k]
    u = np.zeros(d)
    for i in support:
        u[i] = rng.sign() / math.sqrt(k)
    examples = []
    for _ in range(int(T)):
        x = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(d)])
        examples.append(Example(SparseVec.from_dense(x), float(u @ x)))
    return Dataset(examples, d, meta={"u_star": u})


def _gen_heavy_tail(rng, zipf, d, T):
    if zipf <= 0:
        raise ValueError("zipf exponent must be positive")
    probs = np.array([(i + 1.0) ** (-zipf) for i in range(d)])
    k = max(d // 4, 1)
    rare = list(range(d - k, d))
    u = np.zeros(d)
    for i in rare:
        u[i] = rng.sign() / math.sqrt(k)
    u[0] = 0.1 * rng.sign()
    examples = []
    for _ in range(int(T)):
        x = np.array([1.0 if rng.uniform() < probs[i] else 0.0 for i in range(d)])
        if not x.any():
            x[0] = 1.0
        s = float(u @ x)
        y = 1.0 if s >= 0 else -1.0
        examples.append(Example(SparseVec.from_dense(x), y))
    return Dataset(examples, d, meta={"u_star": u})


def rescale_dataset(dataset, factors):
    factors = np.asarray(factors, dtype=np.float64)
    if factors.shape[0] != dataset.dim:
        raise ValueError("factor length must equal dataset dim")
    if np.any(factors == 0.0):
        raise ValueError("rescaling factors must be nonzero")
    examples = [Example(ex.x.scaled(factors), ex.y) for ex in dataset.examples]
    meta = dict(dataset.meta)
    if "u_star" in meta:
        meta["u_star"] = np.asarray(meta["u_star"], float) / factors
    meta["rescaled_by"] = factors
    return Dataset(examples, dataset.dim, meta)


_KINDS = {
    "separable_margin": (_gen_separable, ("gamma", "d", "T")),
    "noisy_linear": (_gen_noisy_linear, ("sigma", "d", "T")),
    "sparse_target": (_gen_sparse_target, ("k", "d", "T")),
    "heavy_tail_features": (_gen_heavy_tail, ("zipf", "d", "T")),
}


def generate(spec):
    """Materialize a GeneratorSpec; deterministic given the seed."""
    if spec.kind == "rescaled":
        if spec.base is None or spec.factors is None:
            raise ValueError("rescaled spec needs base and factors")
        return rescale_dataset(generate(spec.base), spec.factors)
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    fn, required = _KINDS[spec.kind]
    missing = [k for k in required if k not in spec.params]
    if missing:
        raise ValueError(f"generator {spec.kind!r} missing parameters {missing}")
    rng = Xorshift64Star(spec.seed)
    kwargs = dict(spec.params)
    for key in ("d", "T", "k"):
        if key in kwargs:
            kwargs[key] = int(kwargs[key])
    return fn(rng, **kwargs)
