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


def _zeros(path, T, dim, source):
    """A zero (T, dim) matrix; a ValueError naming the source of dim if it cannot be had."""
    try:
        return np.zeros((T, dim))
    except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
        raise ValueError(f"{path}: {source}: a {T} x {dim} float64 matrix does not fit "
                         "in memory") from None


def _bad_token(tokens):
    """What is wrong with a data line's fields, its label then each token in line order; None
    if nothing is."""
    try:
        y = float(tokens[0])
    except ValueError:
        return f"bad label {tokens[0]!r}"
    if not math.isfinite(y):
        return f"non-finite label {tokens[0]!r}"
    last = 0
    for tok in tokens[1:]:
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
    return None


_BLOCK_CHARS = 1 << 18  # whole lines of about 256 KB per block
# a line's shape is its ' ' and ':' bytes, with any other ASCII whitespace read as '\t':
# str.split() splits at all of it, bytes.split() not at '\x1c'-'\x1f'
_SHAPE = bytes.maketrans(b"\v\f\x1c\x1d\x1e\x1f", b"\t" * 6)
_NOT_SHAPE = bytes(sorted(set(range(256)) - set(b" :\n\t\v\f\x1c\x1d\x1e\x1f")))


def _data_blocks(path):
    """path's data lines, stripped, in blocks of about _BLOCK_CHARS, with their line numbers."""
    lineno = 0
    with _utf8_text(path) as fh:
        while block := fh.readlines(_BLOCK_CHARS):
            lines, linenos = [], []
            for lineno, line in enumerate(block, lineno + 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    lines.append(line)
                    linenos.append(lineno)
            if lines:
                yield lines, linenos


def _structure(lines):
    """A block's lines as '\n'-joined bytes, and each line's shape.

    A non-ASCII space becomes ' ' and a non-ASCII decimal digit its ASCII digit, as int()
    and float() read a str; every other non-ASCII character stays, and fails them. Where a
    shape holds other whitespace or two spaces in a row, every line is re-joined from its
    str.split() fields with single spaces.
    """
    body = "\n".join(lines)
    if not body.isascii():
        body = body.translate({ord(c): " " if c.isspace() else str(int(c)) for c in set(body)
                               if not c.isascii() and (c.isspace() or c.isdecimal())})
    data = body.encode()
    shape = data.translate(_SHAPE, _NOT_SHAPE)
    if b"\t" in shape or b"  " in shape:
        data = "\n".join(" ".join(line.split()) for line in body.split("\n")).encode()
        shape = data.translate(_SHAPE, _NOT_SHAPE)
    return data, shape.split(b"\n")


def _block_rows(data, shapes):
    """Labels, index arrays and values of a block from _structure; None if a line is faulty.

    Each line's shape must be ' :' * k and no field empty. Labels and values go through
    float() and any index row other than 1..k through int(), so the bits are theirs.
    """
    toks = data.replace(b":", b" ").split()
    # a line ' :' * k has 1 + 2k fields, so the count falls short exactly when one is empty
    if len(toks) != len(shapes) + sum(map(len, shapes)) or any(
            s != b" :" * (len(s) >> 1) for s in set(shapes)):
        return None
    width = max(map(len, shapes)) >> 1
    ones, count = [b"%d" % i for i in range(1, width + 1)], np.arange(1, width + 1)
    label_toks, value_toks, indices = [], [], []
    at = 0
    for n in map(len, shapes):
        k = n >> 1
        label_toks.append(toks[at])
        index_toks = toks[at + 1:at + n + 1:2]
        value_toks += toks[at + 2:at + n + 1:2]
        at += n + 1
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
        labels = list(map(float, label_toks))
        vals = np.array(list(map(float, value_toks)), dtype=np.float64)
    except ValueError:
        return None
    if not (all(map(math.isfinite, labels)) and np.isfinite(vals).all()):
        return None
    return labels, indices, vals + 0.0  # -0.0 reads as +0.0, as a zero a file leaves out


def parse_svmlight(path, dim=None):
    """Parse 'label idx:val ...' lines with 1-based strictly increasing indices.

    Lines starting with '#' are comments. Raises ValueError naming the
    offending line on malformed input; an empty file is an error. The file
    is read as UTF-8 text in blocks of about 256 KB of whole lines. Each
    block is normalised (non-ASCII spaces and digits to ASCII, as int() and
    float() read them; fields re-joined with single spaces where the block
    has other whitespace), checked with bytes methods and converted in bulk,
    with one block's tokens held at a time. A block with a fault is walked
    line by line, only to name its first faulty line and token. Each row is
    held as two arrays, and the rows are scattered into X once the
    dimension is known.
    """
    labels, rows = [], []
    top, source = 0, None  # the largest index, and the line and token it is first seen in
    for lines, linenos in _data_blocks(path):
        block = _block_rows(*_structure(lines))
        if block is None:
            for line, lineno in zip(lines, linenos):
                if fault := _bad_token(line.split()):
                    raise ValueError(f"{path}: line {lineno}: {fault}")
            raise AssertionError(f"{path}: lines {linenos[0]}-{linenos[-1]} were refused, "
                                 "but none has a fault")
        ys, indices, vals = block
        at = 0
        for i, idx in enumerate(indices):
            rows.append((idx, vals[at:at + idx.size]))
            at += idx.size
            if idx.size and idx[-1] > top:
                top, tok = int(idx[-1]), lines[i].rsplit(None, 1)[-1]
                source = f"line {linenos[i]}: token {tok!r} sets dim {top}"
        labels += ys
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    if dim is None:
        dim = top
    elif top > dim:
        raise ValueError(f"{path}: feature index {top} exceeds declared dim {dim}")
    else:
        source = f"declared dim {dim}"
    X = _zeros(path, len(rows), dim, source)
    for x, (idx, vals) in zip(X, rows):
        x[idx - 1] = vals
    return Dataset(X, np.array(labels, dtype=np.float64), {})


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
        if dim is not None and dim < len(feat_cols):
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
    k = len(feat_cols)
    source = f"{k} feature columns" if dim is None else f"declared dim {dim}"
    X = _zeros(path, len(rows), k if dim is None else dim, source)
    np.add(rows, 0.0, out=X[:, :k])  # -0.0 reads as +0.0, as a zero a file leaves out
    return Dataset(X, np.array(labels, dtype=np.float64), {})


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
