"""The block svmlight parser and the CSV parser against token-loop references.

`reference_parse_svmlight` is the per-token parser the block parser
replaced, kept here as the oracle: on every file both must return the
same labels, dim and matrix bits (the reference's rows read through
SparseVec.to_dense), or raise the same message.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omdkit import data
from omdkit.data import generate, parse_csv, parse_svmlight, rescaled, write_svmlight
from omdkit.linalg import SparseVec


def reference_parse_svmlight(path, dim=None):
    """One Python (index, value) tuple per token, built into SparseVec's checked loop."""
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
            if not math.isfinite(y):
                raise ValueError(f"{path}: line {lineno}: non-finite label {parts[0]!r}")
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
                if not math.isfinite(val):
                    raise ValueError(f"{path}: line {lineno}: non-finite feature token {tok!r}")
                if idx <= last:
                    raise ValueError(
                        f"{path}: line {lineno}: indices must be strictly increasing and 1-based"
                    )
                # SparseVec would raise OverflowError on it, naming neither file nor line
                if idx > np.iinfo(np.int64).max:
                    raise ValueError(f"{path}: line {lineno}: feature index too large in token "
                                     f"{tok!r}")
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
    return [(y, SparseVec(entries, dim)) for y, entries in rows], dim


def _outcome(parse, path, dim=None):
    """('ok', dim, labels and matrix as exact bytes) or ('error', message)."""
    try:
        result = parse(path, dim=dim)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, tuple):
        rows, dim = result
        X = np.array([x.to_dense() for _, x in rows]).reshape(len(rows), dim)
        y = np.array([y for y, _ in rows])
    else:
        X, y, dim = result.X, result.y, result.dim
    return ("ok", dim, X.shape, X.dtype.str, X.tobytes(), y.dtype.str, y.tobytes())


def _assert_same(path, dim=None):
    expect = _outcome(reference_parse_svmlight, path, dim)
    assert _outcome(parse_svmlight, path, dim) == expect
    return expect


def _file(tmp_path, text, name="d.svm"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _fmt_row(rng, d, dense):
    keep = np.ones(d, bool) if dense else rng.random(d) < 0.3
    vals = rng.normal(size=d) * 10.0 ** rng.integers(-5, 5, size=d)
    vals[rng.random(d) < 0.1] = 0.0
    toks = [f"{i + 1}:{v!r}" for i, v in zip(np.flatnonzero(keep), vals[keep])]
    return " ".join([repr(float(rng.choice([-1.0, 1.0, 0.25]))), *toks])


def test_random_files_match_the_reference(tmp_path):
    rng = np.random.default_rng(7)
    for case in range(40):
        d = int(rng.integers(1, 40))
        lines = [_fmt_row(rng, d, dense=bool(rng.integers(2))) for _ in range(rng.integers(1, 30))]
        path = _file(tmp_path, "\n".join(lines) + "\n", f"r{case}.svm")
        _assert_same(path)
        _assert_same(path, dim=d)
        _assert_same(path, dim=d + 3)
        _assert_same(path, dim=1)


def test_syntax_cases_match_the_reference(tmp_path):
    texts = [
        # sparse and dense rows, an empty row, comments and blank lines
        "# header\n1 2:0.5 7:-3\n\n-1\n  # indented comment\n+1 1:1 2:2 3:3 4:4 5:5 6:6 7:7\n",
        # explicit 0 and -0.0 are dropped, but a zero last index still sets dim
        "1 1:0 2:-0.0 3:5\n-1 4:2.5 9:0\n",
        "1 1:0\n",
        "1 3:-0.0\n",
        # tabs, runs of spaces, trailing and leading whitespace, CRLF ends
        "1\t1:0.5\t\t3:2 \n  -1   2:1   4:-1\t\r\n",
        # number syntax that int() and float() accept
        "+1 +1:1e-3 02:+.5 1_0:1_0 11:-1E+2 12:1.0e-320\n",
        "1 1:1e-400 2:4.9e-324 3:1.7976931348623157e308\n",
        "-0.0 1:0.1\n",
        "1 1:٣\n",
        # unicode whitespace that str.split() honours
        "1 1:2 2:3\x1c3:4\n",
    ]
    for i, text in enumerate(texts):
        path = _file(tmp_path, text, f"s{i}.svm")
        outcome = _assert_same(path)
        assert outcome[0] == "ok", (text, outcome)


def test_a_zero_valued_last_index_sets_dim(tmp_path):
    ds = parse_svmlight(_file(tmp_path, "1 2:1 9:0\n"))
    assert ds.dim == 9
    assert np.flatnonzero(ds.X[0]).tolist() == [1]


MALFORMED = [
    ("1 2:3:4\n", "bad feature token '2:3:4'"),
    ("1 2 3:4\n", "bad feature token '2'"),
    ("1 :4\n", "bad feature token ':4'"),
    ("1 4:\n", "bad feature token '4:'"),
    ("1 ::\n", "bad feature token '::'"),
    ("1 1:a\n", "bad feature token '1:a'"),
    ("1 1.5:2\n", "bad feature token '1.5:2'"),
    ("1 1:nan\n", "non-finite feature token '1:nan'"),
    ("1 1:-inf\n", "non-finite feature token '1:-inf'"),
    ("1 1:1e999\n", "non-finite feature token '1:1e999'"),
    ("1 0:1\n", "indices must be strictly increasing and 1-based"),
    ("1 -2:1\n", "indices must be strictly increasing and 1-based"),
    ("1 3:1 3:2\n", "indices must be strictly increasing and 1-based"),
    ("1 3:1 2:2\n", "indices must be strictly increasing and 1-based"),
    ("x 1:1\n", "bad label 'x'"),
    ("nan 1:1\n", "non-finite label 'nan'"),
    # several faults on one line: the first bad token in line order is named
    ("1 1:1 3:2 2:5 4:x\n", "indices must be strictly increasing and 1-based"),
    ("1 3:2 2:nan\n", "non-finite feature token '2:nan'"),
    ("1 1:1 2:nan 1:1 4:x\n", "non-finite feature token '2:nan'"),
    ("1 1:1 2:1 3:x 0:nan\n", "bad feature token '3:x'"),
    ("1 0:x 1:1\n", "bad feature token '0:x'"),
    ("1 2:3:4 1:nan\n", "bad feature token '2:3:4'"),
    ("1 5:1 2:3:4\n", "bad feature token '2:3:4'"),
    ("1 5:1 2 3:4\n", "bad feature token '2'"),
    # an index beyond int64 is named with its token, after the faults before it
    ("-1 99999999999999999999:1\n", "feature index too large in token '99999999999999999999:1'"),
    ("1 9223372036854775808:1\n", "feature index too large in token '9223372036854775808:1'"),
    ("1 2:1 1:1 99999999999999999999:1\n", "indices must be strictly increasing and 1-based"),
    ("1 99999999999999999999:1 2:x\n", "feature index too large in token '99999999999999999999:1'"),
    ("1 -99999999999999999999:1\n", "indices must be strictly increasing and 1-based"),
]


@pytest.mark.parametrize("text,message", MALFORMED)
def test_malformed_lines_raise_the_reference_message(tmp_path, text, message):
    path = _file(tmp_path, "1 1:1\n# ok so far\n" + text)
    outcome = _assert_same(path)
    assert outcome == ("error", f"{path}: line 3: {message}")


def test_file_level_errors_match_the_reference(tmp_path):
    for text, dim, message in (("", None, "empty dataset"), ("# only\n\n", None, "empty dataset"),
                               ("1 4:1\n", 3, "feature index 4 exceeds declared dim 3"),
                               ("1 4:0\n", 3, "feature index 4 exceeds declared dim 3")):
        path = _file(tmp_path, text)
        assert _assert_same(path, dim) == ("error", f"{path}: {message}")


# tokens that are mostly valid, with every kind of fault now and then
_INDEX = st.one_of(st.integers(1, 30).map(str), st.sampled_from(["0", "-1", "+3", "1_0", "x", ""]))
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0.0", "+1", "1e-3", "1_0", ".5", "nan", "inf", "1e999", "a", ""]))
_FINITE = st.floats(-1e3, 1e3).map(repr)
_TOKEN = st.one_of(
    st.builds(lambda i, v: f"{i}:{v}", _INDEX, _VALUE),
    st.sampled_from(["7", "1:2:3", ":", "::"]))
_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _svm_line(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", "   ", "# comment 1:x", "\t#"]))
    labels = ["1", "-1", "+1", "0.5", "nan", "x"] if kind == 1 else ["1", "-1"]
    label = draw(st.sampled_from(labels))
    if kind == 2:
        toks = draw(st.lists(_TOKEN, max_size=8))
    else:
        # increasing indices and mostly valid values, the common case
        idx = sorted(draw(st.sets(st.integers(1, 40), max_size=12)))
        vals = [draw(_VALUE if draw(st.integers(0, 19)) == 0 else _FINITE) for _ in idx]
        toks = [f"{i}:{v}" for i, v in zip(idx, vals)]
    seps = [draw(_SPACE) for _ in toks]
    end = draw(st.sampled_from(["", " ", "\t"]))
    return label + "".join(s + t for s, t in zip(seps, toks)) + end


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(lines=st.lists(_svm_line(), max_size=8),
       dim=st.one_of(st.none(), st.integers(1, 45)))
def test_generated_files_match_the_reference(tmp_path_factory, lines, dim):
    path = tmp_path_factory.mktemp("svm") / "g.svm"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_same(path, dim)


def test_parse_csv_rows_match_sparsevec_entries(tmp_path):
    path = _file(tmp_path, "a,label,b,c\n0.5,1,0,-0.0\n0,-1,2.5,1e-3\n-0,1,0,0\n", "d.csv")
    for dim in (None, 3, 7):
        ds = parse_csv(path, dim=dim)
        assert ds.dim == (dim or 3) and ds.y.tolist() == [1.0, -1.0, 1.0]
        ref = [SparseVec(entries, ds.dim).to_dense()
               for entries in ([(0, 0.5)], [(1, 2.5), (2, 1e-3)], [])]
        assert ds.X.dtype == np.float64 and ds.X.tobytes() == np.array(ref).tobytes()


# near-faults for a plainly written file, one kind per text, each a case the parser must
# decide as the reference does: some it accepts, most it names
_SPLICES = ["+1:", "01:", "1:2:3", " :5", ":", "1e", "1-2", "1e999", "\r\n", "\r", "\t",
            "\n\n", "\n# mid-file comment\n", "0x10", "nan", "  ", " ", "\n-1\n", "\x1c", "é"]
_ODD_FIELDS = ["", "1e999", "-1e999", "1e-999", "+1", "01", ".5", "5.", "1E5", "1e", "-",
               "1-2", "1.0", "0", "-1", "99999999999999999999"]
_HEADERS = ["# u_star 0.5 -0.25\n", "# u_star 0.5\r-1 2:0.5\n", "# u_star é\n", "#\n#\n"]


@st.composite
def _plain_svm_text(draw):
    """A text as write_svmlight writes one, or one with a single near-fault: an odd field,
    a row out of order, an odd comment or a splice from _SPLICES."""
    mode = draw(st.sampled_from(["plain", "odd field", "out of order", "comment", "splice"]))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = []  # per line: the label, then index and value in turn
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            idx = range(1, draw(st.integers(0, 8)) + 1)
        else:
            idx = sorted(draw(st.sets(st.integers(1, 12), max_size=8)))
        row = [draw(st.one_of(st.sampled_from(["1.0", "-1.0", "-0.0"]), _FINITE))]
        for i in idx:
            row += [str(i), draw(value)]
        rows.append(row)
    at = draw(st.integers(0, len(rows) - 1))
    if mode == "odd field":
        rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.sampled_from(_ODD_FIELDS))
    elif mode == "out of order":
        idx = draw(st.lists(st.integers(1, 12), min_size=2, max_size=8))
        rows[at] = rows[at][:1] + [tok for i in idx for tok in (str(i), draw(value))]
    lines = [" ".join([row[0], *map(":".join, zip(row[1::2], row[2::2]))]) for row in rows]
    head = draw(st.sampled_from(_HEADERS if mode == "comment" else ["", _HEADERS[0]]))
    text = head + "\n".join(lines) + draw(st.sampled_from(["\n", "\n", ""]))
    if mode == "splice":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_SPLICES)) + text[at:]
    return text


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=_plain_svm_text(), dim=st.one_of(st.none(), st.integers(1, 13)))
def test_plain_texts_and_their_near_faults_match_the_reference(tmp_path_factory, text, dim):
    path = tmp_path_factory.mktemp("plain") / "p.svm"
    path.write_bytes(text.encode("utf-8"))
    _assert_same(path, dim)


# characters whose reading int(), float(), str.split() and universal newlines each decide:
# Unicode and ASCII whitespace bytes.split() does not split at, line ends, a non-ASCII
# digit, other non-ASCII letters, and the bytes of fields, comments and numbers
_ALPHABET = ["\u2028", "\x85", "\xa0", "\u3000", "\x1c", "\x1f", "\v", "\f", "\t", "\r", "\n",
             "\r\n", " ", "٣", "Å", "é", ":", "#", "1", "2", "x", "_", "-", "+", "e", "."]


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(text=st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join))
# a lone token with no colon on one line and an empty index on the next have the token
# count of two good lines: only each line's shape, label included, tells them apart
@example(text="1 1:1\n1 ٣\n٣ :1")
def test_texts_over_a_small_alphabet_match_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("alpha") / "a.svm"
    path.write_bytes(text.encode("utf-8"))
    _assert_same(path)


GEN_SPECS = [("separable_margin", {"gamma": 0.3}), ("noisy_linear", {"sigma": 0.2}),
             ("sparse_target", {"k": 1}), ("heavy_tail_features", {"zipf": 1.5})]


@pytest.mark.parametrize("d", [1, 10, 300])
@pytest.mark.parametrize("kind,params", GEN_SPECS, ids=[kind for kind, _ in GEN_SPECS])
def test_gen_output_takes_the_block_parser(tmp_path, kind, params, d):
    spec = {"kind": kind, "seed": 3, "params": {**params, "d": d, "T": 25}}
    specs = [spec]
    if kind == "noisy_linear":
        specs.append(rescaled(spec, [2.0 ** (i % 7 - 3) * (-1) ** i for i in range(d)]))
    for i, spec in enumerate(specs):
        path = tmp_path / f"g{i}.svm"
        write_svmlight(generate(spec), path)
        assert _assert_same(path)[0] == "ok"


def test_the_block_parser_holds_one_blocks_tokens(tmp_path):
    # one token list for the whole d=300, T=600 file peaked at 7.3x its size; one 256 KB
    # block's tokens at a time, about 1x, as a line-at-a-time parser's 1.3x; a file with
    # tabs and CRLF line ends is re-joined a block at a time
    plain = tmp_path / "plain.svm"
    write_svmlight(generate({"kind": "noisy_linear", "seed": 1,
                             "params": {"sigma": 0.2, "d": 300, "T": 600}}), plain)
    tabs = tmp_path / "tabs.svm"
    tabs.write_bytes(plain.read_bytes().replace(b" ", b"\t").replace(b"\n", b"\r\n"))
    for path in (plain, tabs):
        tracemalloc.start()
        try:
            parse_svmlight(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size, (path.name, peak, path.stat().st_size)


def _long_lines(n):
    """n data lines of about 100 bytes, with comment and blank lines among them."""
    lines = []
    for i in range(n):
        lines.append(f"{(-1) ** i} 1:{i / 7!r} 3:{i / 3!r} 9:{-i / 11!r} 10:{i * 1e-5!r} 12:1")
        if i % 97 == 0:
            lines.append("# a comment 1:x")
        if i % 89 == 0:
            lines.append("   ")
    return lines


def test_a_fault_in_a_later_block_names_its_line(tmp_path):
    lines = _long_lines(2 * data._BLOCK_CHARS // 60)
    at = len(lines) - 2
    lines[at] = lines[at].replace(" 9:", " 2:")
    path = tmp_path / "late.svm"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    assert path.stat().st_size > 2 * data._BLOCK_CHARS
    assert _assert_same(path) == (
        "error", f"{path}: line {at + 1}: indices must be strictly increasing and 1-based")


def test_a_later_block_alone_with_tabs_matches_the_reference(tmp_path):
    lines = _long_lines(2 * data._BLOCK_CHARS // 60)
    start = 3 * len(lines) // 4
    lines[start:] = [line.replace(" ", "\t", 2).replace(" ", " \x1c") for line in lines[start:]]
    path = tmp_path / "tabs.svm"
    path.write_bytes("\n".join(lines).encode())
    assert "\t" not in path.read_text()[:data._BLOCK_CHARS + 200]
    assert _assert_same(path)[0] == "ok"


@pytest.mark.parametrize("text,line,byte", [("1 1:2\n-1 1:\xff\n", 2, "0xff"),
                                            ("1 1:2\r-1 1:3\r\n# caf\xe9\n", 3, "0xe9"),
                                            ("# \xfe\n1 1:2\n", 1, "0xfe")])
def test_a_file_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, text, line,
                                                                       byte):
    path = tmp_path / "b.svm"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError) as exc:
        parse_svmlight(path)
    assert str(exc.value) == f"{path}: line {line}: not UTF-8 text (byte {byte})"
    csv = tmp_path / "b.csv"
    csv.write_bytes(b"a,label\r\n0.5,1\r\n" + text.replace(" ", ",").encode("latin-1"))
    with pytest.raises(ValueError) as exc:
        parse_csv(csv)
    assert str(exc.value) == f"{csv}: line {line + 2}: not UTF-8 text (byte {byte})"
