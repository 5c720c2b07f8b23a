"""Property test: whatever the CLI is given, it ends in exit 0, 1, 2 or 3.

cli.main runs in-process on malformed svmlight and CSV text, generator
specs, comparator specs and random learner-flag sets, and audits stored
traces whose header data source holds fields of the wrong type. Any
exception other than argparse's SystemExit (which counts as its code)
fails the test. Sizes stay small: d, T <= 20 and grid n <= 30. A
complete generator spec with one key its kind does not read must exit 2,
naming the key.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import READS
from omdkit import cli
from omdkit.harness import canonical_json, fingerprint

EXAMPLES = 100
FUZZ = settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)

# values each learner flag accepts; BAD values exercise the checks
GOOD = {
    "eta": ["0.5", "1"], "r": ["0.5", "1"], "a": ["0.5", "1"], "p": ["1.5", "2"],
    "lam": ["0", "0.1"], "ridge": ["0", "0.5"], "quad": ["0.5", "1"], "lipschitz": ["1", "2"],
    "fixed_eta": ["0.5", "1"], "variant": ["full", "diagonal"],
    "trigger": ["omd", "arow", "mistake"], "schedule": ["constant", "sqrt", "linear"],
    "loss": ["hinge", "square", "absolute"],
}
BAD = ["0", "-1", "1e-300", "1e300", "nan", "inf", "abc", "", "bogus"]
NUMBERS = ["0", "1", "-1", "0.5", "2", "1e300", "nan", "inf", "abc", ""]
GEN_KINDS = ["separable_margin", "noisy_linear", "sparse_target", "heavy_tail_features", "bogus"]
GEN_KEYS = ["gamma", "sigma", "k", "zipf", "d", "T", "u_star", "extra", ""]
GEN_VALUES = ["0", "1", "2", "3", "5", "20", "0.3", "-1", "2.5", "nan", "inf", "x", ""]
GRID_VALUES = ["2", "0", "-1", "1", "30", "2.5", "nan", "inf", "abc", ""]


@st.composite
def learner_flags(draw):
    """A learner and a mostly valid set of the flags it reads, now and then one it does not."""
    learner = draw(st.sampled_from(sorted(READS)))
    reads = sorted(READS[learner])
    keys = draw(st.lists(st.sampled_from(reads), unique=True)) if reads else []
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(sorted(GOOD))))
    flags = []
    for key in keys:
        value = draw(st.sampled_from(GOOD[key] if draw(st.integers(0, 4)) else BAD))
        flags += ["--" + key.replace("_", "-"), value]
    return learner, flags


def _items(keys, values):
    item = st.builds(lambda k, v, eq: k + ("=" if eq else "") + v, st.sampled_from(keys),
                     st.sampled_from(values), st.booleans())
    return st.lists(item, max_size=4).map(",".join)


gen_spec = st.one_of(
    # well-formed specs at d <= 3, so that runs finish and the comparators get exercised
    st.builds(lambda kind, d, T: f"{kind},d={d},T={T}",
              st.sampled_from(["separable_margin:gamma=0.2", "noisy_linear:sigma=0.2",
                               "sparse_target:k=1", "heavy_tail_features:zipf=1.5"]),
              st.integers(1, 3), st.integers(0, 20)),
    st.builds(lambda kind, items: f"{kind}:{items}", st.sampled_from(GEN_KINDS),
              _items(GEN_KEYS, GEN_VALUES)),
)

comparator = st.one_of(
    st.sampled_from(["zero", "star", "batch", "grid:R=2,n=5", "grid:n=30", "vec:1,0"]),
    st.sampled_from(["nope", "grid:", "vec:", "grid:R"]),
    _items(["R", "n", "x"], GRID_VALUES).map("grid:".__add__),
    st.lists(st.sampled_from(NUMBERS), max_size=4).map(lambda v: "vec:" + ",".join(v)),
)
comparators = st.lists(comparator, max_size=2).map(
    lambda cs: [x for c in cs for x in ("--comparator", c)])

svm_line = st.one_of(
    st.builds(lambda y, feats: " ".join([y, *(f"{i}:{v}" for i, v in sorted(feats.items()))]),
              st.sampled_from(["1", "-1"]),
              st.dictionaries(st.integers(1, 20), st.sampled_from(["0.5", "-1", "2"]),
                              max_size=4)),
    st.lists(st.one_of(
        st.builds(lambda i, v: f"{i}:{v}", st.integers(-1, 20), st.sampled_from(NUMBERS)),
        st.sampled_from(["1", "-1", "+1", "0", "2.5", "nan", ":", "1:", ":1", "#c", "qid:1"]),
    ), max_size=5).map(" ".join),
)
svm_text = st.lists(svm_line, max_size=20).map("\n".join)

csv_cell = st.sampled_from(["0", "1", "-1", "0.5", "2", "nan", "inf", "", "x", "1e400"])
csv_text = st.builds(
    lambda header, rows: "\n".join([header, *(",".join(r) for r in rows)]),
    st.sampled_from(["label,a,b", "a,b,label", "a,b", "label", "", "label,label,a"]),
    st.lists(st.one_of(st.lists(st.sampled_from(["1", "-1", "0.5"]), min_size=3, max_size=3),
                       st.lists(csv_cell, max_size=4)), max_size=20),
)


def _code(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), \
            np.errstate(all="ignore"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, out.getvalue()[-500:])
    return code


@FUZZ
@given(learner_flags(), gen_spec, st.integers(0, 3), comparators, st.booleans())
def test_generator_runs_end_in_known_exit_codes(lf, spec, seed, comps, strict):
    learner, flags = lf
    _code(["run", "--learner", learner, *flags, "--gen", spec, "--seed", str(seed), *comps,
           *(["--strict-audit"] if strict else [])])


# the parameters each generator kind reads, with values that make a valid spec at d, T <= 3
GEN_READS = {
    "separable_margin": {"gamma": ["0.2", "0.5", "1"]},
    "noisy_linear": {"sigma": ["0", "0.2", "1"]},
    "sparse_target": {"k": ["1"]},
    "heavy_tail_features": {"zipf": ["0.5", "1.5", "2"]},
}


@st.composite
def spec_with_one_unread_key(draw):
    """(spec text, key): a kind's complete parameters at d, T <= 3 and one key it does not read."""
    kind = draw(st.sampled_from(sorted(GEN_READS)))
    reads = {**GEN_READS[kind], "d": ["1", "2", "3"], "T": ["0", "1", "2", "3"]}
    key = draw(st.sampled_from([k for k in GEN_KEYS if k not in reads]))
    items = [f"{k}={draw(st.sampled_from(values))}" for k, values in reads.items()]
    items.append(f"{key}={draw(st.sampled_from(['0', '1', '2.5', '-1']))}")
    return f"{kind}:{','.join(draw(st.permutations(items)))}", key


@FUZZ
@given(spec_with_one_unread_key(), st.booleans())
def test_a_complete_spec_with_one_unread_key_is_a_data_error(spec_key, audit):
    spec, key = spec_key
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--learner", "vaw", "--gen", spec,
                         *([] if audit else ["--no-audit"])])
    assert code == 2, (spec, err.getvalue())
    assert f"unknown parameters [{key!r}]" in err.getvalue(), (spec, err.getvalue())


@FUZZ
@given(learner_flags(), svm_text, comparators)
def test_svmlight_runs_end_in_known_exit_codes(lf, text, comps):
    learner, flags = lf
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.svm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _code(["run", "--learner", learner, *flags, "--data", path, *comps])


@FUZZ
@given(learner_flags(), csv_text, st.booleans())
def test_csv_runs_end_in_known_exit_codes(lf, text, remap):
    learner, flags = lf
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _code(["run", "--learner", learner, *flags, "--data", path, "--format", "csv",
               *(["--remap01"] if remap else [])])


# the header data-source fields of a rescaled generator trace and of a CSV trace, dotted
HEADER_FIELDS = {
    "gen": ["kind", "spec", "spec.kind", "spec.seed", "spec.params", "spec.base",
            "spec.factors", "spec.base.kind", "spec.base.seed", "spec.base.params",
            "spec.base.params.gamma", "spec.base.params.d", "spec.base.params.T"],
    "csv": ["kind", "path", "format", "dim", "label_column", "remap01"],
}
# a string, bool, list, object, null or float; floats stay in [-20, 20], so d, T <= 20
wrong_type = st.one_of(
    st.sampled_from(["", "x", "3", "0.3", "csv", "separable_margin", "rescaled"]),
    st.booleans(),
    st.lists(st.sampled_from([1, 0.5, -1, "a", True, None]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "seed", "params", "d"]),
                    st.sampled_from([1, "a", None]), max_size=2),
    st.none(),
    st.floats(-20, 20),
)


@pytest.fixture(scope="module")
def stored_traces(tmp_path_factory):
    """(directory, {source: (header, record lines)}) of two pa traces, written once."""
    tmp = tmp_path_factory.mktemp("headers")
    csv = tmp / "d.csv"
    csv.write_text("label,a,b\n1,0.5,2\n0,1,-1\n1,0,0.5\n")
    traces = {}
    for source, argv in (
            ("gen", ["--gen", "separable_margin:gamma=0.2,d=3,T=20", "--seed", "1",
                     "--rescale", "2,0.5,-1"]),
            ("csv", ["--data", str(csv), "--format", "csv", "--remap01", "--dim", "3"])):
        path = tmp / f"{source}.jsonl"
        assert _code(["run", "--learner", "pa", *argv, "--trace", str(path), "--no-audit"]) == 0
        header, *records = path.read_text().splitlines()
        traces[source] = (json.loads(header), records)
    return tmp, traces


@FUZZ
@given(st.data())
def test_mistyped_header_data_sources_end_in_exit_0_or_2(stored_traces, data):
    tmp, traces = stored_traces
    source = data.draw(st.sampled_from(sorted(traces)))
    header, records = traces[source]
    config = copy.deepcopy(header["config"])
    for key in data.draw(st.lists(st.sampled_from(HEADER_FIELDS[source]), min_size=1,
                                  max_size=3, unique=True)):
        *parents, last = key.split(".")
        node = config["data"]
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if isinstance(node, dict):  # an earlier replacement may have removed the field
            node[last] = data.draw(wrong_type)
    digest = fingerprint({k: config[k] for k in ("learner", "params", "data")})
    path = tmp / "audit.jsonl"
    text = canonical_json({**header, "config": config, "fingerprint": digest})
    path.write_text("\n".join([text, *records]) + "\n")
    assert _code(["audit", "--trace", str(path)]) in (0, 2)
