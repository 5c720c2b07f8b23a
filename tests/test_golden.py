"""Golden digests: traces, summaries and audit payloads pinned byte for byte.

One run per CLI learner config at d=5, T=60 with comparators zero and
star, plus the batch comparator for four learners and a conservative
diagonal second-order run, which the rare-feature refinement audits. A refactor of the
engine, harness or CLI must keep every digest; changing one on purpose
means a TRACE_VERSION bump or a documented behaviour change, and new
digests here. The numeric oracles' results have one digest of their own,
which a change to the oracles must keep.
"""

import hashlib
import json

import numpy as np
import pytest
from helpers import regularizer_families

from omdkit import cli
from omdkit.data import generate
from omdkit.harness import TRACE_VERSION, canonical_json
from omdkit.oracles import GridSpec, numeric_argmax, numeric_biconjugate, numeric_dual_norm

SEPARABLE = "separable_margin:gamma=0.3,d=5,T=60"
LINEAR = "noisy_linear:sigma=0.2,d=5,T=60"

CONFIGS = {
    "ogd": (["--learner", "ogd", "--eta", "0.5", "--loss", "hinge"], SEPARABLE),
    "composite": (["--learner", "composite", "--eta", "0.7", "--lam", "0.1",
                   "--schedule", "sqrt"], LINEAR),
    "pnorm_perceptron": (["--learner", "pnorm_perceptron", "--p", "1.5"], SEPARABLE),
    "pa": (["--learner", "pa"], SEPARABLE),
    "fixed_margin": (["--learner", "fixed_margin", "--fixed-eta", "0.5"], SEPARABLE),
    "second_order_full": (["--learner", "second_order", "--variant", "full"], SEPARABLE),
    "second_order_diagonal": (["--learner", "second_order", "--variant", "diagonal"],
                              SEPARABLE),
    "vaw": (["--learner", "vaw", "--a", "1"], LINEAR),
    "adaptive_filter": (["--learner", "adaptive_filter"], LINEAR),
    "scaleinv_pnorm": (["--learner", "scaleinv_pnorm"], LINEAR),
    "scaleinv_diag": (["--learner", "scaleinv_diag"], LINEAR),
}

# the reports audit_reports picks for each CONFIGS run, after the engine's
REPORTS = {
    "ogd": [],
    "composite": ["composite_sqrt", "composite_general"],
    "pnorm_perceptron": ["first_order_mistake"],
    "pa": ["first_order_mistake"],
    "fixed_margin": ["first_order_mistake"],
    "second_order_full": ["second_order_full"],
    "second_order_diagonal": ["second_order_diagonal"],
    "vaw": ["vaw"],
    "adaptive_filter": ["adaptive_filter"],
    "scaleinv_pnorm": ["scale_invariant_pnorm"],
    "scaleinv_diag": ["scale_invariant_diag"],
}

# runs that reach the batch comparator or the rare-feature refinement: (flags, gen, comparators)
EXTRA_CONFIGS = {
    "ogd_square_batch": (["--learner", "ogd", "--eta", "0.1", "--loss", "square"], LINEAR,
                         ["batch"]),
    "composite_batch": (CONFIGS["composite"][0], LINEAR, ["batch"]),
    "pa_batch": (["--learner", "pa"], SEPARABLE, ["zero", "batch"]),
    "vaw_batch": (["--learner", "vaw", "--a", "1"], LINEAR, ["batch"]),
    # the conservative trigger makes the rare-feature refinement's bound finite
    "second_order_diagonal_mistake": (["--learner", "second_order", "--variant", "diagonal",
                                       "--trigger", "mistake"], SEPARABLE, ["zero"]),
}

# sha256 of (trace bytes, summary without wall_time_s, audit payload), first 16 hex digits;
# the trace digests are those of TRACE_VERSION 3 (no extra copies another record field)
GOLDEN = {
    "adaptive_filter": ("031f88f567a2f1c7", "c4cf74433b16375e", "a04dfd8decfc83e3"),
    "composite": ("de5381178215f167", "b9c03da2377a9fbc", "b3d478462f924da9"),
    "fixed_margin": ("b7652471eb2012fd", "763e025990699dbd", "8a3e5ee08d7a4009"),
    "ogd": ("c9bffc3975707c82", "ae8a4221e880d3ba", "a6aadc5326f22282"),
    "pa": ("b637836d3e6ceb5b", "b694fcea6e4e4ff7", "6eabb7c1b8a34fb2"),
    "pnorm_perceptron": ("941512fdf7205e4f", "39967ac99cab6485", "86fcd66ef85f1634"),
    "scaleinv_diag": ("b3a03696518613e3", "dd2445957d32509f", "48f95867a410523d"),
    "scaleinv_pnorm": ("70cb3c2951903d7a", "aa6103786ac90aa2", "b20f39dfecdd825a"),
    "second_order_diagonal": ("aa0653cb12b4b78f", "ba25bc28f399fd5e", "0f05a4d5e2cbe048"),
    "second_order_full": ("4e173f0663cb376e", "bb303afe0dfa92e0", "bc8b3a61a487d040"),
    "vaw": ("f1b44920a0c9d4e7", "7193a5f214e54acd", "aeefbcefa17a46ee"),
}

# same digests as GOLDEN, for the configs that read the loss or the target off the run
EXTRA_GOLDEN = {
    "composite_batch": ("02f48a9da804897b", "205a260e8e27f01c", "911f18e3b830009c"),
    "ogd_square_batch": ("c00fe37ed85c12d7", "5e24b0f4ef141159", "d1b0869e9b7a29a7"),
    "pa_batch": ("1a5a8ce9ebb3e919", "b853eb39b4172898", "1f04b61f63a3ddb8"),
    "second_order_diagonal_mistake": ("24a26db28aa116a6", "20a61d54723f2c44",
                                      "1058819d0059ad40"),
    "vaw_batch": ("0409d3d095202a83", "3f7b02a4fdf99975", "04a9542eddf9bada"),
}


def test_trace_digests_pin_the_current_trace_version():
    # every trace header stores the version, so a trace digest moves with it; a re-pin of the
    # trace digests without a version bump fails here
    assert TRACE_VERSION == 3


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _digests(tmp_path, flags, source, comparators=("zero", "star")):
    """source: a generator spec (run with --seed 1) or the data-source flags as a list."""
    if isinstance(source, str):
        source = ["--gen", source, "--seed", "1"]
    trace, summ, audit = (tmp_path / n for n in ("t.jsonl", "s.json", "a.json"))
    picks = [arg for spec in comparators for arg in ("--comparator", spec)]
    assert cli.main(["run", *flags, *source, *picks,
                     "--trace", str(trace), "--summary", str(summ)]) == 0
    assert cli.main(["audit", "--trace", str(trace), "--summary", str(audit)]) == 0
    summary = json.loads(summ.read_text())
    summary.pop("wall_time_s")
    return (_sha(trace.read_bytes()), _sha(canonical_json(summary).encode()),
            _sha(audit.read_bytes()))


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_golden_digests(tmp_path, key):
    flags, gen = CONFIGS[key]
    assert _digests(tmp_path, flags, gen) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_each_golden_run_gets_its_learners_reports(tmp_path, key):
    flags, gen = CONFIGS[key]
    summ = tmp_path / "s.json"
    assert cli.main(["run", *flags, "--gen", gen, "--seed", "1", "--summary", str(summ)]) == 0
    names = [r["name"] for r in json.loads(summ.read_text())["reports"]]
    assert names == ["engine", *REPORTS[key]]


@pytest.mark.parametrize("key", sorted(EXTRA_CONFIGS))
def test_golden_digests_batch_and_rare_s(tmp_path, key):
    flags, gen, comparators = EXTRA_CONFIGS[key]
    assert _digests(tmp_path, flags, gen, comparators) == EXTRA_GOLDEN[key]


def test_rare_s_golden_run_reports_the_refinement(tmp_path):
    # a conservative run gets the refinement at the smallest s its hypothesis allows,
    # sum_i u_i^2 sum_t x_{t,i}^2 / ||u||^2 over the update rounds; the omd run is not
    # conservative, and its +inf refinement is left out
    flags, gen, _ = EXTRA_CONFIGS["second_order_diagonal_mistake"]
    trace, summ = tmp_path / "t.jsonl", tmp_path / "s.json"
    assert cli.main(["run", *flags, "--gen", gen, "--seed", "1",
                     "--trace", str(trace), "--summary", str(summ)]) == 0
    reports = {r["name"]: r for r in json.loads(summ.read_text())["reports"]}
    assert list(reports) == ["engine", "second_order_diagonal", "diag_refinement"]
    header, *lines = trace.read_text().splitlines()
    upd = [json.loads(line)["eta"] > 0.0 for line in lines]
    ds = generate(json.loads(header)["config"]["data"]["spec"])
    u = ds.meta["u_star"]
    s_min = float(np.sum(u * u * (ds.X[upd] ** 2).sum(axis=0)) / (u @ u))
    assert reports["diag_refinement"]["terms"]["s"] == pytest.approx(s_min, rel=1e-12)
    omd = [*flags[:-1], "omd"]
    assert cli.main(["run", *omd, "--gen", gen, "--seed", "1", "--summary", str(summ)]) == 0
    names = [r["name"] for r in json.loads(summ.read_text())["reports"]]
    assert names == ["engine", "second_order_diagonal"]


# `omdkit gen` output files: (generator spec, --rescale value or None) -> sha256 prefix.
# The 5e-324 factor underflows some products to signed zeros, which are written as such;
# it falls on a coordinate outside the target's support, so u_star stays finite.
GEN_CONFIGS = {
    "separable_margin": ("separable_margin:gamma=0.3,d=5,T=60", None),
    "noisy_linear": ("noisy_linear:sigma=0.2,d=5,T=60", None),
    "sparse_target": ("sparse_target:k=2,d=5,T=60", None),
    "heavy_tail_features": ("heavy_tail_features:zipf=1.5,d=8,T=60", None),
    "heavy_tail_negative_rescale": ("heavy_tail_features:zipf=1.5,d=4,T=60", "-2,0.5,-3,1"),
    "sparse_target_underflow_rescale": ("sparse_target:k=1,d=3,T=60", "-1,5e-324,1e-300"),
}

GEN_GOLDEN = {
    "heavy_tail_features": "ce07829ffe5bfc7a",
    "heavy_tail_negative_rescale": "d8765e55e200f0e0",
    "noisy_linear": "91b982792025293b",
    "separable_margin": "dd443e97acbc88f3",
    "sparse_target": "ae0d349a56602f5c",
    "sparse_target_underflow_rescale": "74adc6b50253a517",
}

# a rescaling whose target u_star overflows is a data error; this spec's 5e-324 factor falls
# on a coordinate of noisy_linear's dense target (once pinned at 7271158e030bf60d, u_star -inf)
OVERFLOW_GEN = ("noisy_linear:sigma=0.2,d=3,T=60", "5e-324,-1,1e-300")

# runs at the edges of the generators: d=1 (no rho draw in separable_margin), d=100 (the
# bulk normals path) and T=0; digests as in GOLDEN
EDGE_CONFIGS = {
    "d1_pa": (["--learner", "pa"], "separable_margin:gamma=0.3,d=1,T=40"),
    "d1_scaleinv_diag": (["--learner", "scaleinv_diag"], "noisy_linear:sigma=0.2,d=1,T=40"),
    "d100_pa": (["--learner", "pa"], "separable_margin:gamma=0.3,d=100,T=30"),
    "d100_second_order_diagonal": (["--learner", "second_order", "--variant", "diagonal"],
                                   "separable_margin:gamma=0.3,d=100,T=30"),
    "T0_vaw": (["--learner", "vaw"], "noisy_linear:sigma=0.2,d=3,T=0"),
    "T0_pa": (["--learner", "pa"], "separable_margin:gamma=0.3,d=3,T=0"),
}

EDGE_GOLDEN = {
    "T0_pa": ("a481d798595c3373", "aadbb20bb6cbc471", "5ec7afa20f9745ce"),
    "T0_vaw": ("ac581c85e18ac3cc", "3650bee2b0760a90", "be0bfe52ceb27660"),
    "d100_pa": ("eaa5e78db12b6d23", "03b4433420f0b781", "3305c2c4d5d52a39"),
    "d100_second_order_diagonal": ("eb6d170a2e6773c8", "c728ec328a129d9d", "e3cf6f13bc1762b5"),
    # at d=1 the engine report reads sum_t z_t as theta, summed in round order; the parent
    # summed the stacked z_t with np.sum, which runs pairwise over a (T, 1) stack, so the
    # engine's measured value moved by 2 ulps (summary 809496973d69fa60 and 854415c4f2fa0d36,
    # audit 6bb038380a1cb305 and e8457a6248820e52 before); the traces are unchanged
    "d1_pa": ("6c9409bbaeddbd7f", "0f26cd4eaaa0fd55", "7d68fe997c712b2f"),
    "d1_scaleinv_diag": ("3b189042b6180e07", "052e84e8070d53d1", "760149bd59bd1bf4"),
}

# `omdkit compare` output under a rescaling with a negative factor
COMPARE_ARGS = ["compare", "--learner", "scaleinv_diag", "--gen",
                "noisy_linear:sigma=0.2,d=3,T=60", "--seed", "2", "--rescale=-2,0.5,3"]
COMPARE_GOLDEN = "63017a039f16c9db"


@pytest.mark.parametrize("key", sorted(GEN_CONFIGS))
def test_golden_gen_output(tmp_path, key):
    gen, rescale = GEN_CONFIGS[key]
    out = tmp_path / "out.svm"
    extra = [f"--rescale={rescale}"] if rescale is not None else []
    assert cli.main(["gen", "--gen", gen, "--seed", "1", "--out", str(out), *extra]) == 0
    assert _sha(out.read_bytes()) == GEN_GOLDEN[key]


def test_gen_overflowing_target_rescale_is_a_data_error(tmp_path, capsys):
    gen, rescale = OVERFLOW_GEN
    out = tmp_path / "out.svm"
    assert cli.main(["gen", "--gen", gen, "--seed", "1", "--out", str(out),
                     f"--rescale={rescale}"]) == 2
    assert "rescaling factor 5e-324 overflows the target at coordinate 0" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(EDGE_CONFIGS))
def test_golden_digests_generator_edges(tmp_path, key):
    flags, gen = EDGE_CONFIGS[key]
    assert _digests(tmp_path, flags, gen) == EDGE_GOLDEN[key]


def test_golden_compare_negative_rescale(capsys):
    assert cli.main(COMPARE_ARGS) == 0
    assert _sha(capsys.readouterr().out.encode()) == COMPARE_GOLDEN


# runs on parsed files, from the test's working directory, since the trace header stores the
# path: a d=5 file written by `omdkit gen`, a CSV read with --remap01 and a --dim above its
# column count, and a sparse svmlight file read with a --dim above its largest index
SEPARABLE_FILE = ["--data", "sep5.svm"]
FILE_CONFIGS = {
    "file_pa": (["--learner", "pa"], SEPARABLE_FILE, ["zero", "batch"]),
    "file_vaw": (["--learner", "vaw", "--a", "1"], SEPARABLE_FILE, ["zero", "batch"]),
    "file_second_order_full": (["--learner", "second_order", "--variant", "full"],
                               SEPARABLE_FILE, ["zero", "batch"]),
    "csv_remap01_dim": (["--learner", "pa"],
                        ["--data", "d.csv", "--format", "csv", "--remap01", "--dim", "6"],
                        ["zero", "batch"]),
    "sparse_svmlight_dim": (["--learner", "ogd", "--eta", "0.5", "--loss", "hinge"],
                            ["--data", "sparse.svm", "--dim", "12"], ["zero"]),
}

FILE_GOLDEN = {
    "csv_remap01_dim": ("3e1f9b26f6ef7ddd", "31e8697bbd258a06", "63baf20b99916dbe"),
    "file_pa": ("36b54754559f89ed", "b853eb39b4172898", "1f04b61f63a3ddb8"),
    "file_second_order_full": ("938d57f77036e090", "bb303afe0dfa92e0", "bc8b3a61a487d040"),
    "file_vaw": ("c7002812050170cb", "0711aa8369c8a269", "a4def30d57e11750"),
    "sparse_svmlight_dim": ("940f1a27231be3d8", "0d397cede8a1aa40", "7dad23b83c0ab8f7"),
}


def _write_data_files():
    """The three files FILE_CONFIGS reads, written to the working directory."""
    assert cli.main(["gen", "--gen", SEPARABLE, "--seed", "1", "--out", "sep5.svm"]) == 0
    rows = ["a,label,b,c"]
    for i in range(40):
        c = "-0" if i % 5 == 0 else repr(((i * i) % 13 - 6) / 8)
        rows.append(f"{((7 * i) % 11 - 5) / 4!r},{int((i * 5) % 3 != 0)},"
                    f"{((3 * i + 1) % 7 - 3) / 2!r},{c}")
    with open("d.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    lines = ["# sparse rows; index 8 is the largest"]
    for i in range(40):
        idx = sorted({(i + 1) % 8 + 1, (3 * i) % 8 + 1, (5 * i + 2) % 8 + 1})
        toks = [f"{k}:{((i * k) % 9 - 4) / 3!r}" for k in idx]
        lines.append(" ".join(["1" if i % 3 else "-1", *toks]))
        if i == 20:
            lines.append("")
    with open("sparse.svm", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("key", sorted(FILE_CONFIGS))
def test_golden_digests_parsed_files(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    _write_data_files()
    flags, source, comparators = FILE_CONFIGS[key]
    assert _digests(tmp_path, flags, source, comparators) == FILE_GOLDEN[key]


# sha256 of the oracles' results, one repr per line: numeric_argmax (point and value) and
# numeric_dual_norm for each family of regularizer_families(2), then one numeric_biconjugate.
# The grid seeds score with BLAS `@`, so this pin is among those that move under other CPU
# kernels (ROADMAP item 2).
ORACLES_GOLDEN = "5feeba14fb463587abd9e8494dce9109bd906aeb6c1cb1421f02dc9abf2e01bd"


def test_golden_oracle_results():
    grid = GridSpec(-3.0, 3.0, 41, 2)
    theta, z = np.array([0.7, -0.4]), np.array([0.9, -0.5])
    families = regularizer_families(2)
    lines = []
    for reg in families.values():
        pt, val = numeric_argmax(lambda V: np.asarray(reg.value(V)), theta, grid, refine_iters=70)
        lines.append(repr(([float(v) for v in pt], val)))
        lines.append(repr(numeric_dual_norm(lambda V: np.asarray(reg.norm(V)), z,
                                            samples=20_000, refine_rounds=35)))
    reg = families["growing_quadratic"]
    lines.append(repr(numeric_biconjugate(lambda V: np.asarray(reg.value(V)),
                                          np.array([0.4, -0.3]), grid, refine_iters=22)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ORACLES_GOLDEN
