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


def _features(rest):
    """1-based indices and values of a line's feature list; None if any token is bad.

    The fields go through int() and float(), so the accepted syntax and the
    value bits are theirs. A line that fails here is rescanned by
    _bad_token for its message.
    """
    fields = rest.replace(":", " ").split()
    n = len(fields) // 2
    if 2 * n != len(fields):
        return None
    # rebuilt as 'i:v i:v ...', the fields give back the line's tokens exactly
    # when every token is idx:val with both sides non-empty
    rebuilt = " ".join(["%s:%s"] * n) % tuple(fields)
    if rebuilt != rest and rebuilt != " ".join(rest.split()):
        return None
    try:
        idx = np.array(list(map(int, fields[0::2])), dtype=np.int64)
        vals = np.array(list(map(float, fields[1::2])), dtype=np.float64)
    except (ValueError, OverflowError):  # OverflowError: an index beyond int64
        return None
    if n and (idx[0] < 1 or not (np.isfinite(vals).all() and (idx[1:] > idx[:-1]).all())):
        return None
    return idx, vals


def _bad_token(tokens):
    """What is wrong with the first bad token of a feature list, in line order."""
    last = 0
    for tok in tokens:
        bits = tok.split(":")
        try:
            if len(bits) != 2:
                raise ValueError(tok)
            idx, val = int(bits[0]), float(bits[1])
        except ValueError:
            return f"bad feature token {tok!r}"
        if not math.isfinite(val):
            return f"non-finite feature token {tok!r}"
        if idx <= last:
            return "indices must be strictly increasing and 1-based"
        if idx > np.iinfo(np.int64).max:
            return f"feature index too large in token {tok!r}"
        last = idx
    raise AssertionError(f"no bad token in {tokens!r}")


def parse_svmlight(path, dim=None):
    """Parse 'label idx:val ...' lines with 1-based strictly increasing indices.

    Lines starting with '#' are comments. Raises ValueError naming the
    offending line on malformed input; an empty file is an error. The file
    is read one line at a time and each row is held as two arrays, so no
    Python object per token outlives its line.
    """
    rows = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, *rest = line.split(None, 1)
            try:
                y = float(label)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad label {label!r}") from None
            if not math.isfinite(y):
                raise ValueError(f"{path}: line {lineno}: non-finite label {label!r}")
            rest = rest[0] if rest else ""
            row = _features(rest)
            if row is None:
                raise ValueError(f"{path}: line {lineno}: {_bad_token(rest.split())}")
            idx, vals = row
            if idx.size:
                max_index = max(max_index, int(idx[-1]) - 1)
            keep = vals != 0.0
            rows.append((y, idx[keep] - 1, vals[keep]))
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    if dim is None:
        dim = max_index + 1
    elif max_index >= dim:
        raise ValueError(f"{path}: feature index {max_index + 1} exceeds declared dim {dim}")
    examples = [Example(SparseVec.from_arrays(idx, vals, dim), y) for y, idx, vals in rows]
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
            if not (math.isfinite(y) and all(map(math.isfinite, vals))):
                tok = next(t for t in row if not math.isfinite(float(t)))
                raise ValueError(f"{path}: line {lineno}: non-finite value {tok!r}")
            if remap01:
                if y not in (0.0, 1.0):
                    raise ValueError(f"{path}: line {lineno}: label {y} not in {{0,1}}")
                y = 2.0 * y - 1.0
            vals = np.array(vals)
            nz = np.flatnonzero(vals)
            examples.append(Example(SparseVec.from_arrays(nz, vals[nz], dim), y))
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
        v = rng.normals(d)
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
        v = rng.normals(d)
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
    if np.any(factors == 0.0) or not np.isfinite(factors).all():
        raise ValueError("rescaling factors must be finite and nonzero")
    examples = [Example(ex.x.scaled(factors), ex.y) for ex in dataset.examples]
    meta = dict(dataset.meta)
    if "u_star" in meta:
        meta["u_star"] = np.asarray(meta["u_star"], float) / factors
    meta["rescaled_by"] = factors
    return Dataset(examples, dataset.dim, meta)


# kind -> (generator, required scalar parameters, optional parameters)
_KINDS = {
    "separable_margin": (_gen_separable, ("gamma", "d", "T"), ()),
    "noisy_linear": (_gen_noisy_linear, ("sigma", "d", "T"), ("u_star",)),
    "sparse_target": (_gen_sparse_target, ("k", "d", "T"), ()),
    "heavy_tail_features": (_gen_heavy_tail, ("zipf", "d", "T"), ()),
}


def generate(spec):
    """Materialize a GeneratorSpec; deterministic given the seed."""
    if spec.kind == "rescaled":
        if spec.base is None or spec.factors is None:
            raise ValueError("rescaled spec needs base and factors")
        return rescale_dataset(generate(spec.base), spec.factors)
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    fn, required, optional = _KINDS[spec.kind]
    missing = [k for k in required if k not in spec.params]
    if missing:
        raise ValueError(f"generator {spec.kind!r} missing parameters {missing}")
    unknown = sorted(set(spec.params) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"generator {spec.kind!r} got unknown parameters {unknown}; "
                         f"allowed: {list(required + optional)}")
    kwargs = dict(spec.params)
    for key in required:
        if not math.isfinite(float(kwargs[key])):
            raise ValueError(f"generator {spec.kind!r}: parameter {key}={kwargs[key]} "
                             "is not finite")
    for key in ("d", "T", "k"):
        if key in kwargs:
            if kwargs[key] != int(kwargs[key]):
                raise ValueError(f"generator {spec.kind!r}: parameter {key}={kwargs[key]} "
                                 "is not an integer")
            kwargs[key] = int(kwargs[key])
    if kwargs["d"] < 1 or kwargs["T"] < 0:
        raise ValueError(f"generator {spec.kind!r} needs d >= 1 and T >= 0 "
                         f"(got d={kwargs['d']}, T={kwargs['T']})")
    rng = Xorshift64Star(spec.seed)
    return fn(rng, **kwargs)
