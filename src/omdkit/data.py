"""Datasets as one (T, d) matrix and a label vector: svmlight/CSV parsing, seeded
synthetic generators, rescaling, export."""

import csv as _csv
import math
from dataclasses import dataclass, field

import numpy as np

from .prng import StateCursor, Xorshift64Star


@dataclass
class Dataset:
    """Rows x_t of R^d and labels y_t: a read-only (T, d) float64 matrix X and a label vector y.

    Parsed, generated and rescaled data all take this shape; iterating
    yields (row, label) pairs. support, set only by rescale_dataset, marks
    the entries a rescaled row keeps, so an underflowed product stays a
    signed zero that a further rescaling flips and write_svmlight writes.
    """

    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)
    support: np.ndarray = None

    def __post_init__(self):
        self.X.flags.writeable = False

    @classmethod
    def from_matrix(cls, X, y, meta=None):
        """Rows of a (T, d) matrix, copied; -0.0 reads as +0.0, as a zero a file leaves out."""
        return cls(X + 0.0, np.asarray(y, dtype=np.float64), dict(meta or {}))

    @property
    def dim(self):
        return self.X.shape[1]

    def __iter__(self):
        return zip(self.X, self.y.tolist())

    def __len__(self):
        return self.X.shape[0]


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
    is read one line at a time, each row is held as two arrays, and the
    rows are scattered into X once the dimension is known.
    """
    labels, rows = [], []
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
            labels.append(y)
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    if dim is None:
        dim = max_index + 1
    elif max_index >= dim:
        raise ValueError(f"{path}: feature index {max_index + 1} exceeds declared dim {dim}")
    X = np.zeros((len(rows), dim))
    for x, (idx, vals) in zip(X, rows):
        x[idx - 1] = vals
    return Dataset.from_matrix(X, labels)


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
        labels, rows = [], []
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
            labels.append(y)
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    X = np.zeros((len(rows), dim))
    X[:, :len(feat_cols)] = rows
    return Dataset.from_matrix(X, labels)


def write_svmlight(dataset, path):
    """Write the support (else nonzero) entries, 1-based, as repr floats; u_star as a comment."""
    keep = dataset.X != 0.0 if dataset.support is None else dataset.support
    with open(path, "w", encoding="utf-8") as fh:
        if "u_star" in dataset.meta:
            ustr = " ".join(repr(float(v)) for v in dataset.meta["u_star"])
            fh.write(f"# u_star {ustr}\n")
        for (x, y), k in zip(dataset, keep):
            idx = np.flatnonzero(k)
            toks = [repr(y)] + [f"{i + 1}:{v!r}" for i, v in zip(idx.tolist(), x[idx].tolist())]
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

    Row t draws a sign y, a margin m = gamma + (1 - gamma) U, a normal vector
    v, and, when v has a part orthogonal to u, a radius rho = U; then
    x = y m u + rho sqrt(1 - m^2) orth/||orth||. Whether rho is drawn moves
    every later draw, so the layout assumes it is (it is not at d = 1, where
    orth is 0) and is redone from the first row where that was wrong.

    meta carries u_unit (the unit-norm target), gamma, and u_star = u/gamma,
    the comparator with zero hinge loss.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"infeasible margin gamma={gamma}; need 0 < gamma <= 1")
    u = _unit_vector(rng, d)
    # per row: a sign, a margin, a radius, and (d + 1) // 2 polar pairs accepted w.p. pi/4
    states = T * (3 + 2 * ((d + 1) // 2) * 4 // 3) + 64
    rho_drawn = np.full(T, d > 1)
    while True:
        cur = StateCursor(rng, states)
        first, rho_at = [], []
        for drawn in rho_drawn.tolist():
            first.append(cur.take(2))  # the sign, then the margin
            cur.take_normals(d)
            if drawn:
                rho_at.append(cur.take(1))
        orth = cur.normals().reshape(T, d)
        orth -= np.vecdot(orth, u)[:, None] * u
        northo = np.sqrt(np.vecdot(orth, orth))
        wrong = np.flatnonzero((northo > 1e-12) != rho_drawn)
        if not wrong.size:
            break
        rho_drawn[wrong[0]] = not rho_drawn[wrong[0]]
        rho_drawn[wrong[0] + 1:] = d > 1
    cur.finish()
    first = np.asarray(first, dtype=np.intp)
    y = np.where(cur.states[first] & np.uint64(1), 1.0, -1.0)
    m = gamma + (1.0 - gamma) * cur.uniforms[first + 1]
    X = (y * m)[:, None] * u
    k = rho_drawn
    step = orth[k]
    step /= northo[k, None]
    step *= cur.uniforms[np.asarray(rho_at, dtype=np.intp)][:, None]
    step *= np.sqrt(np.maximum(1.0 - m[k] * m[k], 0.0))[:, None]
    X[k] += step
    return Dataset.from_matrix(X, y, {"u_star": u / gamma, "u_unit": u, "gamma": gamma})


def _gen_noisy_linear(rng, sigma, d, T, u_star=None):
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    u = np.asarray(u_star, float) if u_star is not None else _unit_vector(rng, d)
    if u.shape[0] != d:
        raise ValueError("u_star length must equal d")
    # row t: d uniforms in [-1, 1), then one normal for the noise
    cur = StateCursor(rng, T * (d + 2))
    x_at = np.empty(T, dtype=np.intp)
    for t in range(T):
        x_at[t] = cur.take(d)
        cur.take_normals(1)
    noise = cur.normals()
    cur.finish()
    X = -1.0 + 2.0 * cur.uniforms[x_at[:, None] + np.arange(d)]
    return Dataset.from_matrix(X, np.vecdot(X, u) + sigma * noise, {"u_star": u})


def _gen_sparse_target(rng, k, d, T):
    if not 0 < k <= d:
        raise ValueError("need 0 < k <= d")
    support = rng.permutation(d)[:k]
    u = np.zeros(d)
    for i in support:
        u[i] = rng.sign() / math.sqrt(k)
    X = -1.0 + 2.0 * rng.uniforms(T * d).reshape(T, d)
    return Dataset.from_matrix(X, np.vecdot(X, u), {"u_star": u})


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
    X = np.where(rng.uniforms(T * d).reshape(T, d) < probs, 1.0, 0.0)
    X[~X.any(axis=1), 0] = 1.0
    y = np.where(np.vecdot(X, u) >= 0, 1.0, -1.0)
    return Dataset.from_matrix(X, y, {"u_star": u})


def rescale_dataset(dataset, factors):
    factors = np.asarray(factors, dtype=np.float64)
    if factors.shape[0] != dataset.dim:
        raise ValueError("factor length must equal dataset dim")
    if np.any(factors == 0.0) or not np.isfinite(factors).all():
        raise ValueError("rescaling factors must be finite and nonzero")
    meta = dict(dataset.meta)
    if "u_star" in meta:
        u = np.asarray(meta["u_star"], float)
        with np.errstate(over="ignore"):
            meta["u_star"] = u / factors
        bad = np.flatnonzero(~np.isfinite(meta["u_star"]))
        if bad.size:
            i = int(bad[0])
            c = float(factors[i])
            raise ValueError(f"rescaling factor {c!r} overflows the target at coordinate {i}: "
                             f"u_star[{i}] = {float(u[i])!r} / {c!r} is not finite")
    meta["rescaled_by"] = factors
    # np.where keeps an underflowed product on the support as a signed zero
    support = dataset.X != 0.0 if dataset.support is None else dataset.support
    return Dataset(np.where(support, dataset.X * factors, 0.0), dataset.y, meta, support)


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
