import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import gen_config, noisy_linear, separable
from omdkit.data import (
    GeneratorSpec,
    generate,
    parse_csv,
    parse_svmlight,
    write_svmlight,
)
from omdkit.harness import (
    audit_stored,
    canonical_json,
    run_compare,
    run_experiment,
    write_summary,
    write_trace,
)
from omdkit.prng import Xorshift64Star


def test_parse_svmlight_examples(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("+1 1:0.5 3:2\n-1\n")
    ds = parse_svmlight(p)
    assert ds.dim == 3
    assert ds.examples[0].y == 1.0
    assert ds.examples[0].x.to_dense().tolist() == [0.5, 0.0, 2.0]
    assert ds.examples[1].y == -1.0
    assert ds.examples[1].x.nnz == 0


def test_parse_svmlight_malformed(tmp_path):
    p = tmp_path / "bad.svm"
    p.write_text("1 2:a\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_svmlight(p)
    p.write_text("1 2:1 2:3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_svmlight(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        parse_svmlight(p)
    p.write_text("x 1:1\n")
    with pytest.raises(ValueError, match="label"):
        parse_svmlight(p)


def test_parse_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f1,label,f2\n0.5,1,2\n0,0,1\n")
    ds = parse_csv(p, remap01=True)
    assert ds.dim == 2
    assert ds.examples[0].y == 1.0
    assert ds.examples[0].x.to_dense().tolist() == [0.5, 2.0]
    assert ds.examples[1].y == -1.0
    with pytest.raises(ValueError, match="column"):
        parse_csv(p, label_column="missing")


def test_generator_determinism_and_margin():
    spec = GeneratorSpec("separable_margin", seed=9,
                         params={"gamma": 0.4, "d": 6, "T": 100})
    a = generate(spec)
    b = generate(spec)
    for ea, eb in zip(a, b):
        assert ea.y == eb.y
        assert np.array_equal(ea.x.to_dense(), eb.x.to_dense())
    u = a.meta["u_unit"]
    assert np.linalg.norm(u) == pytest.approx(1.0)
    for ex in a:
        assert ex.y * float(u @ ex.x.to_dense()) >= 0.4 - 1e-12
        assert ex.y * float(a.meta["u_star"] @ ex.x.to_dense()) >= 1.0 - 1e-12
        assert np.linalg.norm(ex.x.to_dense()) <= 1.0 + 1e-12


def test_generator_infeasible_margin():
    with pytest.raises(ValueError, match="infeasible"):
        generate(GeneratorSpec("separable_margin", seed=0,
                               params={"gamma": 1.5, "d": 3, "T": 5}))


def test_rescaled_generator_exact_factors():
    base = GeneratorSpec("noisy_linear", seed=2, params={"sigma": 0.1, "d": 3, "T": 20})
    ds = generate(base)
    factors = [1000.0, 1.0, 0.5]
    scaled = generate(GeneratorSpec("rescaled", seed=2, base=base, factors=factors))
    for ea, eb in zip(ds, scaled):
        assert np.array_equal(ea.x.to_dense() * factors, eb.x.to_dense())


def test_svmlight_round_trip(tmp_path):
    specs = [
        GeneratorSpec("heavy_tail_features", seed=5, params={"zipf": 1.5, "d": 8, "T": 40}),
        GeneratorSpec("noisy_linear", seed=6, params={"sigma": 0.3, "d": 5, "T": 40}),
    ]
    for i, spec in enumerate(specs):
        ds = generate(spec)
        path = tmp_path / f"out{i}.svm"
        write_svmlight(ds, path)
        back = parse_svmlight(path, dim=ds.dim)
        assert len(back) == len(ds)
        for ea, eb in zip(ds, back):
            assert ea.y == eb.y
            assert np.array_equal(ea.x.to_dense(), eb.x.to_dense())


def test_prng_reference_stream():
    rng = Xorshift64Star(42)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = Xorshift64Star(42)
    assert first == [rng2.next_u64() for _ in range(3)]
    assert all(0.0 <= Xorshift64Star(7).uniform() < 1.0 for _ in range(100))


def test_run_determinism_byte_identical(tmp_path):
    cfg = gen_config("pa", {}, separable(11, d=5, T=80), comparators=("zero", "star"))
    paths = []
    for tag in ("a", "b"):
        trace, summary, _ = run_experiment(cfg)
        tp = tmp_path / f"trace_{tag}.jsonl"
        write_trace(tp, cfg, trace)
        sp = tmp_path / f"summary_{tag}.json"
        write_summary(sp, summary, drop_wall_time=True)
        paths.append((tp, sp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_audit_reproduces_reports(tmp_path):
    cfg = gen_config("vaw", {"a": 1.0}, noisy_linear(3, d=4, T=60),
                     comparators=("zero", "star"))
    trace, summary, reports = run_experiment(cfg)
    tp = tmp_path / "t.jsonl"
    write_trace(tp, cfg, trace)
    reports2, _ = audit_stored(tp)
    assert canonical_json([r.to_dict() for r in reports]) == \
        canonical_json([r.to_dict() for r in reports2])


def test_audit_detects_truncation_and_tamper(tmp_path):
    cfg = gen_config("pa", {}, separable(2, d=4, T=30))
    trace, _, _ = run_experiment(cfg)
    tp = tmp_path / "t.jsonl"
    write_trace(tp, cfg, trace)
    lines = tp.read_text().splitlines()
    (tmp_path / "trunc.jsonl").write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ValueError, match="truncated at record 25"):
        audit_stored(tmp_path / "trunc.jsonl")
    bad = lines[:]
    bad[3] = bad[3].replace('"mistake":false', '"mistake":true') \
        if '"mistake":false' in bad[3] else bad[3].replace('"loss":0', '"loss":1')
    (tmp_path / "tampered.jsonl").write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match="record 3"):
        audit_stored(tmp_path / "tampered.jsonl")


def test_audit_fingerprint_mismatch(tmp_path):
    cfg = gen_config("pa", {}, separable(2, d=4, T=30))
    trace, _, _ = run_experiment(cfg)
    tp = tmp_path / "t.jsonl"
    write_trace(tp, cfg, trace)
    other = gen_config("pnorm_perceptron", {"p": 1.5}, separable(2, d=4, T=30))
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        audit_stored(tp, config_override=other)


def test_empty_dataset_runs_cleanly():
    cfg = gen_config("pa", {}, separable(0, d=3, T=0), comparators=("zero",))
    trace, summary, _ = run_experiment(cfg)
    assert summary["T"] == 0 and summary["mistakes"] == 0
    assert not trace.records


def test_classifier_rejects_real_labels():
    cfg = gen_config("pa", {}, noisy_linear(0, d=3, T=10))
    with pytest.raises(ValueError, match="labels"):
        run_experiment(cfg)


def test_regression_learner_accepts_binary_labels():
    cfg = gen_config("vaw", {}, separable(0, d=3, T=10))
    run_experiment(cfg)  # allowed per the interface contract


def test_compare_rescaling_invariance():
    cfg = gen_config("scaleinv_pnorm", {"eta": 0.7}, noisy_linear(4, d=4, T=80),
                     audit=False)
    res = run_compare(cfg, [1000.0, 0.01, 1.0, 5.0])
    assert res["max_relative_deviation"] <= 1e-6


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "omdkit.cli", *args],
                          capture_output=True, text=True)


def test_cli_gen_run_audit_cycle(tmp_path):
    data = tmp_path / "d.svm"
    out = _cli("gen", "--gen", "separable_margin:gamma=0.4,d=4,T=50",
               "--seed", "3", "--out", str(data))
    assert out.returncode == 0
    trace = tmp_path / "t.jsonl"
    summ = tmp_path / "s.json"
    out = _cli("run", "--learner", "pa",
               "--gen", "separable_margin:gamma=0.4,d=4,T=50", "--seed", "3",
               "--comparator", "zero", "--comparator", "star",
               "--trace", str(trace), "--summary", str(summ), "--strict-audit")
    assert out.returncode == 0, out.stderr
    summary = json.loads(summ.read_text())
    assert summary["T"] == 50
    assert summary["reports"]
    out = _cli("audit", "--trace", str(trace), "--strict-audit")
    assert out.returncode == 0, out.stderr
    audit_payload = json.loads(out.stdout)
    assert audit_payload["reports"] == summary["reports"]


def test_cli_byte_determinism_across_processes(tmp_path):
    args = ["run", "--learner", "scaleinv_pnorm",
            "--gen", "sparse_target:k=2,d=4,T=60", "--seed", "5",
            "--comparator", "zero"]
    blobs = []
    for tag in ("a", "b"):
        tp, sp = tmp_path / f"t{tag}.jsonl", tmp_path / f"s{tag}.json"
        out = _cli(*args, "--trace", str(tp), "--summary", str(sp))
        assert out.returncode == 0, out.stderr
        payload = json.loads(sp.read_text())
        payload.pop("wall_time_s", None)
        blobs.append((tp.read_bytes(), json.dumps(payload, sort_keys=True)))
    assert blobs[0] == blobs[1]


def test_cli_audit_fingerprint_mismatch(tmp_path):
    trace = tmp_path / "t.jsonl"
    out = _cli("run", "--learner", "pa",
               "--gen", "separable_margin:gamma=0.4,d=4,T=30", "--seed", "3",
               "--trace", str(trace), "--summary", str(tmp_path / "s.json"))
    assert out.returncode == 0, out.stderr
    out = _cli("audit", "--trace", str(trace), "--learner", "pnorm_perceptron",
               "--p", "1.5", "--gen", "separable_margin:gamma=0.4,d=4,T=30",
               "--seed", "3")
    assert out.returncode == 2
    assert "fingerprint mismatch" in out.stderr


def test_cli_exit_codes(tmp_path):
    assert _cli("run").returncode == 1  # usage: missing --learner
    assert _cli("nope").returncode == 1
    out = _cli("run", "--learner", "pa", "--data", str(tmp_path / "missing.svm"))
    assert out.returncode == 2
    bad = tmp_path / "bad.svm"
    bad.write_text("1 2:a\n")
    out = _cli("run", "--learner", "pa", "--data", str(bad))
    assert out.returncode == 2
    out = _cli("compare", "--learner", "scaleinv_diag",
               "--gen", "noisy_linear:sigma=0.1,d=3,T=40", "--seed", "1",
               "--rescale", "100,1,0.1", "--tol", "1e-6", "--strict-audit")
    assert out.returncode == 0, out.stderr


def test_cli_infeasible_generator_is_data_error(tmp_path):
    out = _cli("gen", "--gen", "separable_margin:gamma=1.5,d=3,T=5",
               "--out", str(tmp_path / "x.svm"))
    assert out.returncode == 2
    assert "infeasible" in out.stderr


def test_report_violations_flags_bad_slack():
    from omdkit.bounds import BoundReport
    from omdkit.harness import report_violations

    good = BoundReport("engine", measured=1.0, bound=1.0 + 1e-12)
    bad = BoundReport("engine", measured=1.0, bound=1.0 - 1e-6)
    loose = BoundReport("scale_invariant_diag", measured=1.0, bound=1.0 - 1e-7)
    assert report_violations([good]) == []
    assert len(report_violations([bad])) == 1
    # the scale-invariant displays get the looser tolerance
    assert report_violations([loose]) == []
    residue_bad = BoundReport("engine", measured=0.0, bound=1.0,
                              terms={"max_residue_gap": 1e-6})
    assert len(report_violations([residue_bad])) == 1
    # NaN compares false both ways, so it must fail rather than slip through
    nan_slack = BoundReport("engine", measured=float("nan"), bound=1.0)
    assert len(report_violations([nan_slack])) == 1
    nan_loose = BoundReport("scale_invariant_diag", measured=1.0, bound=float("nan"))
    assert len(report_violations([nan_loose])) == 1
    nan_gap = BoundReport("engine", measured=0.0, bound=1.0,
                          terms={"max_residue_gap": float("nan")})
    assert len(report_violations([nan_gap])) == 1
    # a vacuous +inf bound still passes
    vacuous = BoundReport("diag_refinement", measured=1.0, bound=float("inf"))
    assert report_violations([vacuous]) == []


def test_cli_composite_constant_schedule_strict_audit(tmp_path):
    # the constant schedule is audited by the general display alone
    out = _cli("run", "--learner", "composite", "--schedule", "constant",
               "--eta", "0.7", "--lam", "0.1",
               "--gen", "noisy_linear:sigma=0.2,d=4,T=60", "--seed", "2",
               "--comparator", "zero", "--comparator", "star", "--strict-audit")
    assert out.returncode == 0, out.stderr
    names = [r["name"] for r in json.loads(out.stdout)["reports"]]
    assert names == ["engine", "composite_general"]


def test_cli_eta_mode_flag_is_gone(tmp_path):
    out = _cli("run", "--learner", "pa", "--eta-mode", "fixed",
               "--gen", "separable_margin:gamma=0.4,d=4,T=30")
    assert out.returncode == 1
    assert "--eta-mode" in out.stderr


def test_audit_accepts_stored_eta_mode_param(tmp_path):
    # traces written while the CLI still stored eta_mode carry it in their config
    cfg = gen_config("pa", {"eta_mode": "fixed"}, separable(2, d=4, T=30))
    trace, _, reports = run_experiment(cfg)
    tp = tmp_path / "t.jsonl"
    write_trace(tp, cfg, trace)
    assert '"eta_mode":"fixed"' in tp.read_text().splitlines()[0]
    reports2, _ = audit_stored(tp)
    assert canonical_json([r.to_dict() for r in reports]) == \
        canonical_json([r.to_dict() for r in reports2])


def test_cli_perceptron_margin_bound(tmp_path):
    # classical bound instance: conservative perceptron on separable data
    out = _cli("run", "--learner", "pnorm_perceptron", "--p", "2.0",
               "--gen", "separable_margin:gamma=0.5,d=5,T=300", "--seed", "7",
               "--comparator", "star", "--strict-audit")
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    fom = [r for r in summary["reports"] if r["name"] == "first_order_mistake"][0]
    # X_T <= 1 by construction and L(u*) = 0, so M <= ||u*||^2 = 1/gamma^2
    assert summary["mistakes"] <= 1.0 / 0.5 ** 2 + 1e-9
    assert fom["slack"] >= -1e-9
