"""Golden digests: traces, summaries and audit payloads pinned byte for byte.

One run per CLI learner config at d=5, T=60 with comparators zero and
star, plus the batch comparator for four learners and two diagonal
second-order runs with the rare-feature refinement. A refactor of the
engine, harness or CLI must keep every digest; changing one on purpose
means a TRACE_VERSION bump or a documented behaviour change, and new
digests here.
"""

import hashlib
import json

import pytest

from omdkit import cli
from omdkit.harness import canonical_json

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

# runs that reach the batch comparator or the rare-feature refinement: (flags, gen, comparators)
EXTRA_CONFIGS = {
    "ogd_square_batch": (["--learner", "ogd", "--eta", "0.1", "--loss", "square"], LINEAR,
                         ["batch"]),
    "composite_batch": (CONFIGS["composite"][0], LINEAR, ["batch"]),
    "pa_batch": (["--learner", "pa"], SEPARABLE, ["zero", "batch"]),
    "vaw_batch": (["--learner", "vaw", "--a", "1"], LINEAR, ["batch"]),
    "second_order_diagonal_rare_s": (["--learner", "second_order", "--variant", "diagonal",
                                      "--rare-s", "3"], SEPARABLE, ["zero", "star"]),
    # the conservative trigger meets the rare-feature hypothesis, so the bound is finite
    "second_order_diagonal_mistake_rare_s": (["--learner", "second_order", "--variant",
                                              "diagonal", "--trigger", "mistake", "--rare-s",
                                              "3"], SEPARABLE, ["zero"]),
}

# sha256 of (trace bytes, summary without wall_time_s, audit payload), first 16 hex digits;
# the trace digests are those of TRACE_VERSION 2 (no lgrad_norm or b_hash extras)
GOLDEN = {
    "adaptive_filter": ("e68bbeebebd520e9", "1c475088b6399f83", "1e92408a87aa9c96"),
    "composite": ("d273308810a68243", "b9c03da2377a9fbc", "b3d478462f924da9"),
    "fixed_margin": ("1339d0d6e1abf613", "763e025990699dbd", "8a3e5ee08d7a4009"),
    "ogd": ("9cff4108638dad51", "ae8a4221e880d3ba", "a6aadc5326f22282"),
    "pa": ("b2125c091290fce1", "b694fcea6e4e4ff7", "6eabb7c1b8a34fb2"),
    "pnorm_perceptron": ("04cae69dcf53695e", "39967ac99cab6485", "86fcd66ef85f1634"),
    "scaleinv_diag": ("49c3647a4eb3ac2e", "dd2445957d32509f", "48f95867a410523d"),
    "scaleinv_pnorm": ("8a4d310dfd999d4e", "aa6103786ac90aa2", "b20f39dfecdd825a"),
    "second_order_diagonal": ("98a2982b4731510e", "ba25bc28f399fd5e", "0f05a4d5e2cbe048"),
    "second_order_full": ("6fba09b84fbf4fb8", "54cefb098e0af672", "3fb6aeca8379c725"),
    "vaw": ("e7bbf61891866ecb", "7395d09f867c32a5", "c887ff6ec93eb11a"),
}

# same digests as GOLDEN, for the configs that read the loss, the target and rare_s off the run
EXTRA_GOLDEN = {
    "composite_batch": ("ce45e7472ecb5ee1", "205a260e8e27f01c", "911f18e3b830009c"),
    "ogd_square_batch": ("f42a3ab135a32a46", "22b9bec8f3520330", "e2015a338838ed7c"),
    "pa_batch": ("4fe404a48dda3d61", "b853eb39b4172898", "1f04b61f63a3ddb8"),
    "second_order_diagonal_mistake_rare_s": ("f29259ac44abf8cd", "dc7ca9aaa4016fdd",
                                             "fd723a154c3d6c94"),
    "second_order_diagonal_rare_s": ("a7c78bf7847157ef", "46916e1893302266",
                                     "bc83c5850a8e566a"),
    "vaw_batch": ("8142597a79cefe1b", "e84fc5cb31e8fe6b", "629813e89983e07e"),
}


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


@pytest.mark.parametrize("key", sorted(EXTRA_CONFIGS))
def test_golden_digests_batch_and_rare_s(tmp_path, key):
    flags, gen, comparators = EXTRA_CONFIGS[key]
    assert _digests(tmp_path, flags, gen, comparators) == EXTRA_GOLDEN[key]


def test_rare_s_golden_run_reports_the_refinement(tmp_path):
    summ = tmp_path / "s.json"
    flags, gen, comparators = EXTRA_CONFIGS["second_order_diagonal_rare_s"]
    assert cli.main(["run", *flags, "--gen", gen, "--seed", "1",
                     "--summary", str(summ)]) == 0
    names = [r["name"] for r in json.loads(summ.read_text())["reports"]]
    assert names == ["engine", "second_order_diagonal", "diag_refinement"]


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
    "T0_pa": ("aaae7be825859ae7", "aadbb20bb6cbc471", "5ec7afa20f9745ce"),
    "T0_vaw": ("08832cb9fea7e00b", "3650bee2b0760a90", "be0bfe52ceb27660"),
    "d100_pa": ("500d3767ce6c685f", "03b4433420f0b781", "3305c2c4d5d52a39"),
    "d100_second_order_diagonal": ("987839f54927f1dd", "c728ec328a129d9d", "e3cf6f13bc1762b5"),
    # at d=1 the engine report reads sum_t z_t as theta, summed in round order; the parent
    # summed the stacked z_t with np.sum, which runs pairwise over a (T, 1) stack, so the
    # engine's measured value moved by 2 ulps (summary 809496973d69fa60 and 854415c4f2fa0d36,
    # audit 6bb038380a1cb305 and e8457a6248820e52 before); the traces are unchanged
    "d1_pa": ("f27833bdb452956f", "0f26cd4eaaa0fd55", "7d68fe997c712b2f"),
    "d1_scaleinv_diag": ("f58a5bd5ca398fb0", "052e84e8070d53d1", "760149bd59bd1bf4"),
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
    "csv_remap01_dim": ("860fae815ddba3a1", "31e8697bbd258a06", "63baf20b99916dbe"),
    "file_pa": ("14599f6703a59f71", "b853eb39b4172898", "1f04b61f63a3ddb8"),
    "file_second_order_full": ("d4d7eb6f6b05f51a", "54cefb098e0af672", "3fb6aeca8379c725"),
    "file_vaw": ("fde018951c4945e3", "8940db29f398b97a", "c2ded194ae3acd28"),
    "sparse_svmlight_dim": ("28751058fc4a3155", "0d397cede8a1aa40", "7dad23b83c0ab8f7"),
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
