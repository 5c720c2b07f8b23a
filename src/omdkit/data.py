"""Datasets as one (T, d) matrix and a label vector: svmlight/CSV parsing, seeded
synthetic generators, rescaling, export. A generator spec is the JSON object a
config and a trace header hold; check_spec checks it and generate materializes it."""

import csv as _csv
import math
import sys
from contextlib import contextmanager
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


# the bytes of the numbers in a plainly written svmlight file
_NUMBER_BYTES = b"0123456789.eE+-"
_BLOCK_BYTES = 1 << 18


def _svmlight_blocks(path):
    """Labels, rows and largest 0-based index of a plainly written file; None for any other.

    Plain: every line is a comment ('#' first, ASCII, no '\r') or 'label idx:val ...',
    each field non-empty and made of _NUMBER_BYTES, single-space separated; all lines end
    in '\n' but the last. The file is read in blocks of whole lines of about _BLOCK_BYTES
    bytes, and only one block's tokens are held at a time. A block is checked with bytes
    methods, then its labels and values go through float() and any index row other than
    1..k through int(), so the bits are the line parser's. A file that fails any check
    here is the line parser's to accept or name the fault of.
    """
    labels, rows, max_index = [], [], -1
    ones, count = [], np.arange(1, 1)  # [b"1", ..., b"k"] and 1..k for the widest row yet
    with open(path, "rb") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):
            kept = []
            for line in lines:
                if not line.startswith(b"#"):
                    kept.append(line)
                elif not line.isascii() or b"\r" in line:
                    return None  # the line parser decodes UTF-8 and also ends lines at '\r'
            block = b"".join(kept)
            if not block:
                continue
            if not block.endswith(b"\n"):
                block += b"\n"
            # what is left of a line once its number bytes go must be ' :' * k, which also
            # refuses every byte but those, ' ', ':' and '\n'
            shape = block.translate(None, _NUMBER_BYTES)
            shapes = shape.split(b"\n")
            del shapes[-1]
            if any(s != b" :" * (len(s) >> 1) for s in set(shapes)):
                return None
            # a line ' :' * k has 1 + 2k fields, one per byte of its shape and its '\n', so
            # the count falls short exactly when a field is empty or a line is blank
            toks = block.replace(b":", b" ").split()
            if len(toks) != len(shape):
                return None
            label_toks, value_toks, indices = [], [], []
            at = 0
            for n in map(len, shapes):
                k = n >> 1
                label_toks.append(toks[at])
                index_toks = toks[at + 1:at + n + 1:2]
                value_toks += toks[at + 2:at + n + 1:2]
                at += n + 1
                if len(ones) < k:
                    ones, count = [b"%d" % i for i in range(1, k + 1)], np.arange(1, k + 1)
                if index_toks == ones[:k]:
                    indices.append(count[:k])
                    continue
                try:
                    idx = np.array(list(map(int, index_toks)), dtype=np.int64)
                except (ValueError, OverflowError):  # OverflowError: an index beyond int64
                    return None
                if idx[0] < 1 or not (idx[1:] > idx[:-1]).all():
                    return None
                indices.append(idx)
            try:
                ys = list(map(float, label_toks))
                vals = np.array(list(map(float, value_toks)), dtype=np.float64)
            except ValueError:
                return None
            if not (all(map(math.isfinite, ys)) and np.isfinite(vals).all()):
                return None
            at = 0
            for idx in indices:
                rows.append((idx, vals[at:at + idx.size]))
                at += idx.size
                if idx.size:
                    max_index = max(max_index, int(idx[-1]) - 1)
            labels += ys
    return labels, rows, max_index


def _svmlight_lines(path):
    """Labels, rows and largest 0-based index, one line at a time; ValueError naming the
    first malformed line."""
    labels, rows = [], []
    max_index = -1
    with _utf8_text(path) as fh:
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
    return labels, rows, max_index


@contextmanager
def _utf8_text(path, newline=None):
    """path opened as UTF-8 text; a byte that is not UTF-8 raises ValueError naming its line."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # the decoder's offset is into its buffer, so the whole file is decoded again
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[:exc.start]
            # universal newlines: '\n', '\r\n' and a lone '\r' each end a line
            lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ValueError(f"{path}: line {lineno}: not UTF-8 text "
                             f"(byte 0x{raw[exc.start]:02x})") from None
        raise


def parse_svmlight(path, dim=None):
    """Parse 'label idx:val ...' lines with 1-based strictly increasing indices.

    Lines starting with '#' are comments. Raises ValueError naming the
    offending line on malformed input; an empty file is an error. A plainly
    written file, as write_svmlight writes one (see _svmlight_blocks), is read
    in blocks of about 256 KB, checked with bytes methods, and converted with
    one block's tokens held at a time; every other file, and a plain one with
    any fault, goes to the line parser unchanged, which accepts it or names
    its fault. Either way each row is held as two arrays, and the rows are
    scattered into X once the dimension is known.
    """
    parsed = _svmlight_blocks(path)
    if parsed is None:
        parsed = _svmlight_lines(path)
    labels, rows, max_index = parsed
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
    with _utf8_text(path, newline="") as fh:
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

    meta carries u_star = u/gamma, the comparator with zero hinge loss.
    """
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
    return Dataset.from_matrix(X, y, {"u_star": u / gamma})


def _gen_noisy_linear(rng, sigma, d, T):
    u = _unit_vector(rng, d)
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
    support = rng.permutation(d)[:k]
    u = np.zeros(d)
    for i in support:
        u[i] = rng.sign() / math.sqrt(k)
    X = -1.0 + 2.0 * rng.uniforms(T * d).reshape(T, d)
    return Dataset.from_matrix(X, np.vecdot(X, u), {"u_star": u})


def _gen_heavy_tail(rng, zipf, d, T):
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
        raise ValueError(f"factor length must equal dataset dim: "
                         f"{factors.shape[0]} factors for dim {dataset.dim}")
    bad = np.flatnonzero((factors == 0.0) | ~np.isfinite(factors))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"rescaling factors must be finite and nonzero: "
                         f"factor {float(factors[i])!r} at coordinate {i}")
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
    # np.where keeps an underflowed product on the support as a signed zero
    support = dataset.X != 0.0 if dataset.support is None else dataset.support
    return Dataset(np.where(support, dataset.X * factors, 0.0), dataset.y, meta, support)


# kind -> (generator, its parameters)
_KINDS = {
    "separable_margin": (_gen_separable, ("gamma", "d", "T")),
    "noisy_linear": (_gen_noisy_linear, ("sigma", "d", "T")),
    "sparse_target": (_gen_sparse_target, ("k", "d", "T")),
    "heavy_tail_features": (_gen_heavy_tail, ("zipf", "d", "T")),
}


def check_spec(spec, path="spec"):
    """ValueError naming the first field, under path, that generate could not read.

    A spec is {kind, seed=0, params={}}, each param a finite int or float in
    its kind's range, or {kind: "rescaled", base, factors}: a base spec and a
    list of numbers.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"field {path!r} must be an object")
    if type(spec.get("seed", 0)) is not int:
        raise ValueError(f"field '{path}.seed' must be an integer")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"field '{path}.params' must be an object")
    kind = spec.get("kind")
    if kind == "rescaled":
        check_spec(spec.get("base"), path + ".base")
        factors = spec.get("factors")
        if not (isinstance(factors, list) and all(type(c) in (int, float) for c in factors)):
            raise ValueError(f"field '{path}.factors' must be a list of numbers")
        return
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(f"unknown generator kind {kind!r} in field '{path}.kind'")
    names = _KINDS[kind][1]
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"generator {kind!r} missing parameters {missing}")
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"generator {kind!r} got unknown parameters {unknown}; "
                         f"allowed: {list(names)}")
    for key, val in params.items():
        if type(val) not in (int, float):
            raise ValueError(f"field '{path}.params.{key}' must be a number")
        if not abs(val) <= sys.float_info.max:
            raise ValueError(f"generator {kind!r}: parameter {key}={val} is not finite")
        if key in ("d", "T", "k") and val != int(val):
            raise ValueError(f"generator {kind!r}: parameter {key}={val} is not an integer")
    if params["d"] < 1 or params["T"] < 0:
        raise ValueError(f"generator {kind!r} needs d >= 1 and T >= 0 "
                         f"(got d={int(params['d'])}, T={int(params['T'])})")
    key = names[0]  # each kind's own parameter, the one with a range
    val = params[key]
    if kind == "separable_margin":
        ok, need = 0.0 < val <= 1.0, "0 < gamma <= 1 (an infeasible margin otherwise)"
    elif kind == "noisy_linear":
        ok, need = val >= 0, "sigma >= 0"
    elif kind == "sparse_target":
        val = int(val)
        ok, need = 0 < val <= params["d"], f"0 < k <= d (d={int(params['d'])})"
    else:
        ok, need = val > 0, "zipf > 0"
    if not ok:
        raise ValueError(f"generator {kind!r}: parameter {key}={val} needs {need}")


def rescaled(base, factors):
    """base's spec with coordinate i scaled by factors[i].

    Nothing reads its seed and params; they keep the bytes of stored trace headers."""
    return {"kind": "rescaled", "seed": base.get("seed", 0), "params": {}, "base": base,
            "factors": [float(c) for c in factors]}


def generate(spec):
    """Materialize a generator spec, checked by check_spec; deterministic given the seed."""
    check_spec(spec)
    if spec["kind"] == "rescaled":
        return rescale_dataset(generate(spec["base"]), spec["factors"])
    fn = _KINDS[spec["kind"]][0]
    params = spec.get("params", {})
    kwargs = {k: int(v) if k in ("d", "T", "k") else v for k, v in params.items()}
    return fn(Xorshift64Star(spec.get("seed", 0)), **kwargs)
