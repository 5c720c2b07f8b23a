import contextlib
import io
import json
import math
import os
import types

import numpy as np
import pytest

from helpers import READS, gen_config, noisy_linear, run_cli, separable
from omdkit import cli
from omdkit.data import (
    GeneratorSpec,
    generate,
    parse_csv,
    parse_svmlight,
    write_svmlight,
)
from omdkit.harness import (
    ExperimentConfig,
    audit_stored,
    canonical_json,
    fingerprint,
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
    assert ds.y.tolist() == [1.0, -1.0]
    assert ds.X.tolist() == [[0.5, 0.0, 2.0], [0.0, 0.0, 0.0]]


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


def test_parse_svmlight_rejects_non_finite(tmp_path):
    p = tmp_path / "nan.svm"
    for text, lineno, tok in (("1 1:0.5\n-1 1:0.2 2:nan\n", 2, "2:nan"),
                              ("1 1:inf\n", 1, "1:inf"),
                              ("1 1:1e999\n", 1, "1:1e999"),
                              ("# c\nnan 1:1\n", 2, "nan")):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"line {lineno}: non-finite .*{tok!r}") as err:
            parse_svmlight(p)
        assert str(p) in str(err.value)


def test_parse_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f1,label,f2\n0.5,1,2\n0,0,1\n")
    ds = parse_csv(p, remap01=True)
    assert ds.dim == 2
    assert ds.y.tolist() == [1.0, -1.0]
    assert ds.X.tolist() == [[0.5, 2.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="column"):
        parse_csv(p, label_column="missing")


def test_parse_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "nan.csv"
    for text, lineno, tok in (("f1,label\n0.5,1\n-inf,0\n", 3, "-inf"),
                              ("f1,label\n0.5,NaN\n", 2, "NaN")):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"line {lineno}: non-finite value {tok!r}") as err:
            parse_csv(p)
        assert str(p) in str(err.value)


def test_generator_determinism_and_margin():
    spec = GeneratorSpec("separable_margin", seed=9,
                         params={"gamma": 0.4, "d": 6, "T": 100})
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X)
    u = a.meta["u_unit"]
    assert np.linalg.norm(u) == pytest.approx(1.0)
    for x, y in a:
        assert y * float(u @ x) >= 0.4 - 1e-12
        assert y * float(a.meta["u_star"] @ x) >= 1.0 - 1e-12
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_generator_infeasible_margin():
    with pytest.raises(ValueError, match="infeasible"):
        generate(GeneratorSpec("separable_margin", seed=0,
                               params={"gamma": 1.5, "d": 3, "T": 5}))


def test_generator_spec_validation():
    def spec(kind, **params):
        return GeneratorSpec(kind, seed=0, params=params)

    with pytest.raises(ValueError, match="unknown parameters \\['extra'\\]"):
        generate(spec("separable_margin", gamma=0.5, d=3, T=5, extra=1.0))
    with pytest.raises(ValueError, match="d >= 1"):
        generate(spec("separable_margin", gamma=0.5, d=0, T=5))
    with pytest.raises(ValueError, match="T >= 0"):
        generate(spec("noisy_linear", sigma=0.1, d=2, T=-1))
    with pytest.raises(ValueError, match="not finite"):
        generate(spec("noisy_linear", sigma=float("nan"), d=2, T=5))
    with pytest.raises(ValueError, match="not finite"):
        generate(spec("sparse_target", k=1, d=float("inf"), T=5))
    with pytest.raises(ValueError, match="d=2.5 is not an integer"):
        generate(spec("sparse_target", k=1, d=2.5, T=5))
    base = spec("noisy_linear", sigma=0.1, d=2, T=5)
    with pytest.raises(ValueError, match="finite and nonzero"):
        generate(GeneratorSpec("rescaled", seed=0, base=base, factors=[1.0, float("inf")]))
    assert len(generate(spec("noisy_linear", sigma=0.1, d=2, T=0))) == 0


def test_rescaled_generator_exact_factors():
    base = GeneratorSpec("noisy_linear", seed=2, params={"sigma": 0.1, "d": 3, "T": 20})
    ds = generate(base)
    factors = [1000.0, 1.0, 0.5]
    scaled = generate(GeneratorSpec("rescaled", seed=2, base=base, factors=factors))
    assert np.array_equal(ds.X * factors, scaled.X)


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
        assert np.array_equal(ds.y, back.y) and np.array_equal(ds.X, back.X)


def test_prng_reference_stream():
    # pinned stream values: a drifted xorshift64* step, uniform or polar method fails them
    rng = Xorshift64Star(42)
    assert [rng.next_u64() for _ in range(3)] == [
        6255019084209693600, 14430073426741505498, 14575455857230217846]
    assert repr(rng.uniform()) == "0.9440426349851643"
    assert [repr(x) for x in rng.normals(5).tolist()] == [
        "0.4903062665503979", "0.6226145725103451", "-1.3923164342805345",
        "-0.28332282266980224", "-1.206830942782783"]
    assert repr(rng._spare_normal) == "1.060402709690046"
    assert rng.state == 3468368166034017918
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


def test_cli_gen_run_audit_cycle(tmp_path):
    data = tmp_path / "d.svm"
    out = run_cli("gen", "--gen", "separable_margin:gamma=0.4,d=4,T=50",
                  "--seed", "3", "--out", str(data))
    assert out.returncode == 0
    trace = tmp_path / "t.jsonl"
    summ = tmp_path / "s.json"
    out = run_cli("run", "--learner", "pa",
                  "--gen", "separable_margin:gamma=0.4,d=4,T=50", "--seed", "3",
                  "--comparator", "zero", "--comparator", "star",
                  "--trace", str(trace), "--summary", str(summ), "--strict-audit")
    assert out.returncode == 0, out.stderr
    summary = json.loads(summ.read_text())
    assert summary["T"] == 50
    assert summary["reports"]
    out = run_cli("audit", "--trace", str(trace), "--strict-audit")
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
        out = run_cli(*args, "--trace", str(tp), "--summary", str(sp))
        assert out.returncode == 0, out.stderr
        payload = json.loads(sp.read_text())
        payload.pop("wall_time_s", None)
        blobs.append((tp.read_bytes(), json.dumps(payload, sort_keys=True)))
    assert blobs[0] == blobs[1]


def test_cli_audit_fingerprint_mismatch(tmp_path):
    trace = tmp_path / "t.jsonl"
    out = run_cli("run", "--learner", "pa",
                  "--gen", "separable_margin:gamma=0.4,d=4,T=30", "--seed", "3",
                  "--trace", str(trace), "--summary", str(tmp_path / "s.json"))
    assert out.returncode == 0, out.stderr
    out = run_cli("audit", "--trace", str(trace), "--learner", "pnorm_perceptron",
                  "--p", "1.5", "--gen", "separable_margin:gamma=0.4,d=4,T=30",
                  "--seed", "3")
    assert out.returncode == 2
    assert "fingerprint mismatch" in out.stderr


def test_cli_audit_names_the_field_of_a_malformed_header(tmp_path):
    cfg = gen_config("pa", {}, separable(2, d=3, T=5))
    trace = tmp_path / "t.jsonl"
    write_trace(trace, cfg, run_experiment(cfg)[0])
    header, *records = trace.read_text().splitlines()
    good = json.loads(header)

    def with_config(**fields):
        return canonical_json({**good, "config": {**good["config"], **fields}})

    def fingerprinted(**fields):
        # a header whose config passes the fingerprint check, so only its fields are wrong
        config = {**good["config"], **fields}
        digest = fingerprint({k: config[k] for k in ("learner", "params", "data")})
        return canonical_json({**good, "config": config, "fingerprint": digest})

    fd = os.open(trace, os.O_RDONLY)
    cases = {
        "[1]": "bad header record: not a JSON object",
        "1": "bad header record: not a JSON object",
        canonical_json({"version": good["version"]}): "'fingerprint' must be a string",
        canonical_json({**good, "fingerprint": 5}): "'fingerprint' must be a string",
        canonical_json({**good, "config": 5}): "'config' must be an object",
        with_config(learner=5): "'learner' must be a string",
        with_config(params=5): "'params' must be an object",
        with_config(data=5): "'data' must be an object",
        with_config(comparators=5): "'comparators' must be a list",
        # comparators are outside the fingerprint, so this header passes its check
        with_config(comparators=[5]): "'comparators' must be a list of strings",
        fingerprinted(learner="nope"): "'learner' names no learner: 'nope'",
        fingerprinted(params={"eta": 1}): "'params.eta' is not a parameter of learner 'pa'",
        fingerprinted(params={"bogus": 3}): "'params.bogus' is not a parameter of learner 'pa'",
        fingerprinted(learner="ogd", params={"eta": "x"}): "'params.eta' must be a finite number",
        fingerprinted(learner="ogd", params={"eta": True}): "'params.eta' must be a finite number",
        fingerprinted(learner="ogd", params={"eta": 10**400}):
            "'params.eta' must be a finite number",
        fingerprinted(learner="ogd", params={"loss": "l1"}):
            "'params.loss' must be one of ['hinge', 'square', 'absolute']",
        fingerprinted(learner="second_order", params={"variant": 5}):
            "'params.variant' must be one of ['full', 'diagonal']",
        fingerprinted(learner="second_order", params={"rare_s": "3"}):
            "'params.rare_s' must be a finite number or null",
        fingerprinted(data={"kind": "generator", "spec": 5}): "'data.spec' must be an object",
        fingerprinted(data={"kind": "file", "path": fd}): "'data.path' must be a string",
    }
    bad = tmp_path / "bad.jsonl"
    for text, msg in cases.items():
        bad.write_text("\n".join([text, *records]) + "\n")
        code, err = _main_code(["audit", "--trace", str(bad)])
        assert code == 2, (text, err)
        assert f"error: {bad}: " in err and msg in err, (text, err)
    # the path that names a descriptor was never opened, so the descriptor is still open
    assert os.read(fd, 1) == b"{"
    os.close(fd)
    for params in ({"rare_s": None}, {"rare_s": 3}, {"r": 2}, {"variant": "diagonal"}):
        text = fingerprinted(learner="second_order", params=params)
        bad.write_text("\n".join([text, *records]) + "\n")
        code, err = _main_code(["audit", "--trace", str(bad)])
        assert "header" not in err, (params, err)


def test_cli_exit_codes(tmp_path):
    assert run_cli("run").returncode == 1  # usage: missing --learner
    assert run_cli("nope").returncode == 1
    out = run_cli("run", "--learner", "pa", "--data", str(tmp_path / "missing.svm"))
    assert out.returncode == 2
    bad = tmp_path / "bad.svm"
    bad.write_text("1 2:a\n")
    out = run_cli("run", "--learner", "pa", "--data", str(bad))
    assert out.returncode == 2
    out = run_cli("compare", "--learner", "scaleinv_diag",
                  "--gen", "noisy_linear:sigma=0.1,d=3,T=40", "--seed", "1",
                  "--rescale", "100,1,0.1", "--tol", "1e-6", "--strict-audit")
    assert out.returncode == 0, out.stderr
    # usage: a learner with no data source, and a negative --dim
    for cmd in (["run"], ["audit", "--trace", str(tmp_path / "t.jsonl")]):
        out = run_cli(*cmd, "--learner", "pa")
        assert out.returncode == 1
        assert f"{cmd[0]} --learner needs a data source: --gen or --data" in out.stderr
    good = tmp_path / "good.svm"
    good.write_text("1 1:0.5\n-1 2:1\n")
    out = run_cli("run", "--learner", "pa", "--data", str(good), "--dim", "-3")
    assert out.returncode == 1
    assert "argument --dim: -3 is negative; need --dim >= 0" in out.stderr


def test_cli_overflowing_rescaled_target_is_data_error(tmp_path, capsys):
    # 5e-324 on a coordinate of the dense target: u_star[0] / 5e-324 overflows
    gen = ["--gen", "noisy_linear:sigma=0.2,d=3,T=60", "--seed", "1",
           "--rescale=5e-324,-1,1e-300"]
    msg = "rescaling factor 5e-324 overflows the target at coordinate 0: u_star[0] = "
    # a stored trace of that config, as a version that let the target overflow wrote it
    trace = tmp_path / "t.jsonl"
    base = GeneratorSpec("noisy_linear", 1, {"sigma": 0.2, "d": 3, "T": 60})
    spec = GeneratorSpec("rescaled", 1, base=base, factors=[5e-324, -1.0, 1e-300])
    config = ExperimentConfig("pa", {}, {"kind": "generator", "spec": spec.to_dict()})
    write_trace(trace, config, types.SimpleNamespace(records=[]))
    for argv in (["gen", *gen, "--out", str(tmp_path / "x.svm")],
                 ["run", "--learner", "pa", *gen],
                 ["audit", "--trace", str(trace)],
                 ["compare", "--learner", "scaleinv_diag", *gen]):
        assert cli.main(argv) == 2, argv
        assert msg in capsys.readouterr().err, argv


def test_cli_infeasible_generator_is_data_error(tmp_path):
    out = run_cli("gen", "--gen", "separable_margin:gamma=1.5,d=3,T=5",
                  "--out", str(tmp_path / "x.svm"))
    assert out.returncode == 2
    assert "infeasible" in out.stderr


def test_cli_bad_generator_spec_is_data_error():
    # d=0 used to redraw a zero-length unit vector forever; extra=1 raised TypeError
    for spec, msg in (("separable_margin:gamma=0.5,d=0,T=5", "d >= 1"),
                      ("separable_margin:gamma=0.5,d=3,T=5,extra=1", "unknown parameters"),
                      ("separable_margin:gamma,d=3,T=5", "expected key=number, got 'gamma'")):
        out = run_cli("run", "--learner", "pa", "--gen", spec, timeout=60)
        assert out.returncode == 2, out.stderr
        assert msg in out.stderr
        assert "Traceback" not in out.stderr


def test_cli_non_finite_svmlight_is_data_error(tmp_path):
    bad = tmp_path / "nan.svm"
    bad.write_text("1 1:0.5\n-1 1:nan\n")
    out = run_cli("run", "--learner", "pa", "--data", str(bad))
    assert out.returncode == 2
    assert f"{bad}: line 2: non-finite feature token '1:nan'" in out.stderr


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
    out = run_cli("run", "--learner", "composite", "--schedule", "constant",
                  "--eta", "0.7", "--lam", "0.1",
                  "--gen", "noisy_linear:sigma=0.2,d=4,T=60", "--seed", "2",
                  "--comparator", "zero", "--comparator", "star", "--strict-audit")
    assert out.returncode == 0, out.stderr
    names = [r["name"] for r in json.loads(out.stdout)["reports"]]
    assert names == ["engine", "composite_general"]


def test_cli_composite_linear_schedule_eta_below_one_strict_audit(tmp_path):
    # the linear display needs eta == 1; with eta 0.7 the general display alone audits
    out = run_cli("run", "--learner", "composite", "--schedule", "linear",
                  "--ridge", "0.5", "--eta", "0.7",
                  "--gen", "noisy_linear:sigma=0.2,d=6,T=80", "--seed", "1",
                  "--comparator", "zero", "--comparator", "star", "--strict-audit")
    assert out.returncode == 0, out.stderr
    names = [r["name"] for r in json.loads(out.stdout)["reports"]]
    assert names == ["engine", "composite_general"]


def test_cli_eta_mode_flag_is_gone(tmp_path):
    out = run_cli("run", "--learner", "pa", "--eta-mode", "fixed",
                  "--gen", "separable_margin:gamma=0.4,d=4,T=30")
    assert out.returncode == 1
    assert "--eta-mode" in out.stderr


def test_audit_rejects_stored_eta_mode_param(tmp_path):
    # only version-1 traces stored eta_mode, and read_trace_lines refuses those; a param
    # the learner does not read is an error wherever a config is built
    with pytest.raises(ValueError, match="'params.eta_mode' is not a parameter of learner 'pa'"):
        gen_config("pa", {"eta_mode": "fixed"}, separable(2, d=4, T=30))
    cfg = gen_config("pa", {}, separable(2, d=4, T=30))
    tp = tmp_path / "t.jsonl"
    write_trace(tp, cfg, run_experiment(cfg)[0])
    header, *records = tp.read_text().splitlines()
    config = {**json.loads(header)["config"], "params": {"eta_mode": "fixed"}}
    stored = {"version": 2, "config": config, "fingerprint": fingerprint(
        {k: config[k] for k in ("learner", "params", "data")})}
    tp.write_text("\n".join([canonical_json(stored), *records]) + "\n")
    with pytest.raises(ValueError, match="header config field 'params.eta_mode'"):
        audit_stored(tp)


def test_cli_perceptron_margin_bound(tmp_path):
    # classical bound instance: conservative perceptron on separable data
    out = run_cli("run", "--learner", "pnorm_perceptron", "--p", "2.0",
                  "--gen", "separable_margin:gamma=0.5,d=5,T=300", "--seed", "7",
                  "--comparator", "star", "--strict-audit")
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    fom = [r for r in summary["reports"] if r["name"] == "first_order_mistake"][0]
    # X_T <= 1 by construction and L(u*) = 0, so M <= ||u*||^2 = 1/gamma^2
    assert summary["mistakes"] <= 1.0 / 0.5 ** 2 + 1e-9
    assert fom["slack"] >= -1e-9


FLAG_VALUES = {"eta": "0.5", "r": "0.5", "a": "0.5", "p": "1.8", "lam": "0.1",
               "ridge": "0.5", "quad": "0.5", "lipschitz": "1", "fixed_eta": "0.5",
               "rare_s": "2", "variant": "diagonal", "trigger": "arow",
               "schedule": "constant", "loss": "absolute"}
TINY = {"separable": "separable_margin:gamma=0.3,d=2,T=5",
        "linear": "noisy_linear:sigma=0.2,d=2,T=5"}


def _main_code(argv):
    """cli.main's exit code and stderr, counting an argparse SystemExit as its code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), err.getvalue()
        except SystemExit as exc:
            return exc.code, err.getvalue()


def _learner_argv(learner, key):
    gen = TINY["separable" if learner in ("ogd", "pnorm_perceptron", "pa", "fixed_margin",
                                          "second_order") else "linear"]
    flag = "--" + key.replace("_", "-")
    # --rare-s is read only with --variant diagonal
    variant = ["--variant", "diagonal"] if (learner, key) == ("second_order", "rare_s") else []
    return ["run", "--learner", learner, flag, FLAG_VALUES[key], *variant, "--gen", gen]


def test_learner_table_matches_reads():
    from omdkit.harness import LEARNERS

    assert {name: set(defaults) for name, (_f, defaults) in LEARNERS.items()} == READS
    # 10 learners x 14 learner flags, of which 21 pairs are read
    assert sum(len(FLAG_VALUES) - len(r) for r in READS.values()) == 119


@pytest.mark.parametrize("learner", sorted(READS))
def test_cli_rejects_flags_the_learner_does_not_read(learner):
    unread = sorted(set(FLAG_VALUES) - READS[learner])
    for key in unread:
        code, err = _main_code(_learner_argv(learner, key))
        assert code == 1, (learner, key)
        assert f"learner {learner} does not read --{key.replace('_', '-')}" in err
    for key in sorted(READS[learner]):
        assert _main_code(_learner_argv(learner, key))[0] == 0, (learner, key)


def test_cli_removed_and_unpaired_options_are_usage_errors(tmp_path):
    trace = tmp_path / "t.jsonl"
    gen = TINY["separable"]
    assert _main_code(["run", "--learner", "pa", "--gen", gen, "--trace", str(trace)])[0] == 0
    bad = [
        ["run", "--learner", "pa", "--gen", gen, "--audit"],
        ["audit", "--trace", str(trace), "--comparator", "zero"],
        ["compare", "--learner", "scaleinv_diag", "--gen", TINY["linear"],
         "--rescale", "2,1", "--comparator", "zero"],
        ["compare", "--learner", "scaleinv_diag", "--gen", TINY["linear"],
         "--rescale", "2,1", "--tol", "1e-6"],
        ["compare", "--learner", "scaleinv_diag", "--gen", TINY["linear"],
         "--rescale", "2,1", "--strict-audit"],
        ["audit", "--trace", str(trace), "--eta", "5", "--r", "7"],
        ["audit", "--trace", str(trace), "--seed", "3"],
        ["audit", "--trace", str(trace), "--gen", gen],
    ]
    for argv in bad:
        assert _main_code(argv)[0] == 1, argv
    code, err = _main_code(["audit", "--trace", str(trace), "--eta", "5", "--r", "7"])
    assert "--eta, --r only with --learner" in err
    # --no-audit stays, and an override config still reaches the fingerprint check
    assert _main_code(["run", "--learner", "pa", "--gen", gen, "--no-audit"])[0] == 0
    assert _main_code(["audit", "--trace", str(trace), "--learner", "pa",
                       "--gen", gen])[0] == 0


def _data_files(tmp_path):
    svm, csv = tmp_path / "d.svm", tmp_path / "d.csv"
    svm.write_text("1 1:0.5 2:0.2\n-1 1:0.1 2:0.3\n")
    csv.write_text("y,a,b\n1,0.5,0.2\n0,0.1,0.3\n")
    return str(svm), str(csv)


def test_cli_rejects_data_flags_the_gen_source_does_not_read(tmp_path):
    svm, _ = _data_files(tmp_path)
    gen = TINY["separable"]
    for extra, flag in ((["--data", svm], "--data"), (["--format", "csv"], "--format"),
                        (["--format", "svmlight"], "--format"),
                        (["--label-column", "y"], "--label-column"),
                        (["--remap01"], "--remap01"), (["--dim", "7"], "--dim")):
        for command in ("run", "compare"):
            argv = [command, "--learner", "scaleinv_diag", "--gen", gen, *extra]
            code, err = _main_code([*argv, "--rescale", "2,1"] if command == "compare"
                                   else argv)
            assert code == 1, argv
            assert f"--gen does not read {flag}" in err, err
    trace = tmp_path / "t.jsonl"
    assert _main_code(["run", "--learner", "pa", "--gen", gen, "--seed", "2",
                       "--rescale", "2,1", "--trace", str(trace)])[0] == 0
    code, err = _main_code(["audit", "--trace", str(trace), "--learner", "pa", "--gen", gen,
                            "--dim", "7"])
    assert code == 1 and "--gen does not read --dim" in err


def test_cli_rejects_seed_and_rescale_the_data_source_does_not_read(tmp_path):
    svm, _ = _data_files(tmp_path)
    trace = tmp_path / "t.jsonl"
    assert _main_code(["run", "--learner", "pa", "--data", svm, "--dim", "3",
                       "--trace", str(trace)])[0] == 0
    for argv, flags in (
            (["run", "--learner", "pa", "--data", svm, "--seed", "3"], "--seed"),
            (["run", "--learner", "pa", "--data", svm, "--rescale", "2,1"], "--rescale"),
            (["audit", "--trace", str(trace), "--learner", "pa", "--data", svm,
              "--seed", "3", "--rescale", "2,1"], "--rescale, --seed")):
        code, err = _main_code(argv)
        assert code == 1, argv
        assert f"--data does not read {flags}" in err, err


def test_cli_compare_reads_only_a_generator(tmp_path):
    svm, _ = _data_files(tmp_path)
    for source in (["--data", svm], ["--data", svm, "--seed", "3"], []):
        code, err = _main_code(["compare", "--learner", "scaleinv_diag", *source,
                                "--rescale", "2,1"])
        assert code == 1, source
        assert "compare needs --gen; it does not read --data" in err, err
    # library callers still get the data error from run_compare itself
    cfg = ExperimentConfig("scaleinv_diag", {}, {"kind": "file", "path": svm}, audit=False)
    with pytest.raises(ValueError, match="compare needs a generator data source"):
        run_compare(cfg, [2.0, 1.0])


FLOAT_FLAGS = sorted(k for k in FLAG_VALUES if k not in ("variant", "trigger", "schedule", "loss"))


@pytest.mark.parametrize("key", FLOAT_FLAGS)
def test_cli_non_finite_float_flags_are_usage_errors(key):
    learner = min(name for name, reads in READS.items() if key in reads)
    flag = "--" + key.replace("_", "-")
    for value in ("nan", "inf", "-inf", "1e400"):
        argv = _learner_argv(learner, key)
        i = argv.index(flag)
        # --flag=-inf, since argparse reads a bare -inf as an option
        argv[i:i + 2] = [f"{flag}={value}"]
        code, err = _main_code(argv)
        assert code == 1, argv
        assert f"argument {flag}: '{value}' is not a finite number" in err, err


def test_cli_non_finite_tol_is_a_usage_error():
    # --tol nan used to pass every strict compare, since deviation > nan is false
    argv = ["compare", "--learner", "ogd", "--loss", "square", "--gen", TINY["linear"],
            "--rescale", "2,1", "--strict-audit"]
    for value in ("nan", "inf", "-inf"):
        code, err = _main_code([*argv, f"--tol={value}"])
        assert code == 1, value
        assert f"argument --tol: '{value}' is not a finite number" in err, err
    assert _main_code([*argv, "--tol=1e-6"])[0] == 3


def test_cli_rare_s_needs_diagonal_variant_and_generator(tmp_path):
    svm, _ = _data_files(tmp_path)
    base = ["--learner", "second_order", "--rare-s", "3"]
    gen = ["--gen", TINY["separable"]]
    for argv in (["run", *base, *gen], ["run", *base, "--variant", "full", *gen],
                 ["run", *base, "--variant", "diagonal", "--data", svm],
                 ["compare", *base, "--variant", "diagonal", *gen, "--rescale", "2,1"]):
        code, err = _main_code(argv)
        assert code == 1, argv
        assert "--rare-s is read only by run and audit with --variant diagonal and --gen" in err
    trace = tmp_path / "t.jsonl"
    good = [*base, "--variant", "diagonal", *gen]
    assert _main_code(["run", *good, "--trace", str(trace)])[0] == 0
    assert _main_code(["audit", "--trace", str(trace), *good])[0] == 0


def test_cli_negative_rare_s_is_a_usage_error(tmp_path):
    # s < 0 made the refinement vacuous (bound inf) and the run exit 0
    base = ["--learner", "second_order", "--variant", "diagonal", "--trigger", "mistake",
            "--gen", "separable_margin:gamma=0.3,d=5,T=60", "--seed", "1", "--strict-audit"]
    for value in ("-3", "-1e-9"):
        code, err = _main_code(["run", *base, f"--rare-s={value}"])
        assert code == 1, value
        assert f"argument --rare-s: {float(value)!r} is negative; need s >= 0" in err, err
    assert _main_code(["run", *base, "--rare-s=0"])[0] == 0
    summary = tmp_path / "s.json"
    assert _main_code(["run", *base, "--rare-s=3", "--summary", str(summary)])[0] == 0
    reports = {r["name"]: r for r in json.loads(summary.read_text())["reports"]}
    assert math.isfinite(reports["diag_refinement"]["bound"])


def test_cli_compare_without_rescale_is_a_usage_error():
    gen = ["--learner", "scaleinv_diag", "--gen", TINY["linear"]]
    code, err = _main_code(["compare", *gen])
    assert code == 1
    assert "compare needs --rescale" in err, err
    # an empty list of factors is a malformed --rescale, on compare as everywhere
    code, err = _main_code(["compare", *gen, "--rescale="])
    assert code == 1
    assert "argument --rescale: '' is not a finite number" in err, err
    assert _main_code(["compare", *gen, "--rescale", "2,1"])[0] == 0


def test_cli_rescale_takes_finite_factors_on_every_command(tmp_path):
    trace = tmp_path / "t.jsonl"
    gen = ["--gen", TINY["separable"]]
    assert _main_code(["run", "--learner", "pa", *gen, "--rescale=2,-0.5",
                       "--trace", str(trace)])[0] == 0
    commands = {
        "gen": ["gen", *gen, "--out", str(tmp_path / "g.svm")],
        "run": ["run", "--learner", "pa", *gen],
        "audit": ["audit", "--trace", str(trace), "--learner", "pa", *gen],
        "compare": ["compare", "--learner", "scaleinv_diag", *gen],
    }
    for command, argv in commands.items():
        # empty, non-numeric and non-finite lists used to exit 0 (empty) or 2 (the rest);
        # the message names the first bad item
        for value, bad in (("", ""), (",", ""), ("1,,1", ""), ("1,x", "x"), ("x", "x"),
                           ("1,nan,y", "nan"), ("inf,1", "inf"), ("1,-inf", "-inf"),
                           ("1e400,1", "1e400")):
            code, err = _main_code([*argv, f"--rescale={value}"])
            assert code == 1, (command, value)
            assert f"argument --rescale: {bad!r} is not a finite number" in err, err
        # the factor count depends on d, so a wrong count or a zero stays a data error;
        # audit refuses other factors earlier, as a config that did not write the trace
        for value, message in (("1,0", "rescaling factors must be finite and nonzero"),
                               ("2,1,3", "factor length must equal dataset dim")):
            if command == "audit":
                message = "learner fingerprint mismatch"
            code, err = _main_code([*argv, f"--rescale={value}"])
            assert code == 2, (command, value)
            assert message in err, err
        assert _main_code([*argv, "--rescale=2,-0.5"])[0] == 0, command


def test_cli_rejects_csv_flags_without_csv_format(tmp_path):
    svm, csv = _data_files(tmp_path)
    for extra, flags in ((["--label-column", "y"], "--label-column"), (["--remap01"], "--remap01"),
                         (["--format", "svmlight", "--label-column", "y", "--remap01"],
                          "--label-column, --remap01")):
        code, err = _main_code(["run", "--learner", "pa", "--data", svm, *extra])
        assert code == 1, extra
        assert f"{flags} only with --format csv" in err, err
    assert _main_code(["run", "--learner", "pa", "--data", csv, "--format", "csv",
                       "--label-column", "y", "--remap01", "--dim", "3"])[0] == 0


def test_cli_names_first_nonfinite_round(tmp_path):
    argv = ["run", "--learner", "vaw", "--gen", "noisy_linear:sigma=1e200,d=2,T=20",
            "--seed", "1"]
    trace, summ, audit = (tmp_path / n for n in ("t.jsonl", "s.json", "a.json"))
    with np.errstate(all="ignore"):
        code, err = _main_code([*argv, "--trace", str(trace), "--summary", str(summ)])
        assert code == 0
        assert "non-finite loss at round 1" in err
        assert json.loads(summ.read_text())["first_nonfinite"] == {"t": 1, "field": "loss"}
        code, err = _main_code(["audit", "--trace", str(trace), "--summary", str(audit)])
        assert code == 0 and "non-finite loss at round 1" in err
        assert json.loads(audit.read_text())["first_nonfinite"] == {"t": 1, "field": "loss"}
        assert _main_code([*argv, "--strict-audit"])[0] == 3
        assert _main_code(["audit", "--trace", str(trace), "--strict-audit"])[0] == 3
    # a finite run carries no such entry
    assert _main_code(["run", "--learner", "vaw", "--gen", TINY["linear"],
                       "--summary", str(summ)])[0] == 0
    assert "first_nonfinite" not in json.loads(summ.read_text())


@pytest.mark.parametrize("spec, msg", [
    ("grid:R=2,n=3,x=1", "expected R=<radius>,n=<points>"),
    ("grid:R", "entries must be numbers"),
    ("grid:R=2,R=3", "expected R=<radius>,n=<points>"),
    ("grid:R=abc", "entries must be numbers"),
    ("grid:n=0", "an integer n >= 2"),
    ("grid:n=2.5", "an integer n >= 2"),
    ("grid:R=0", "a finite R > 0"),
    ("grid:R=inf", "a finite R > 0"),
    ("grid:R=nan", "a finite R > 0"),
    ("grid:n=1001", "n^dim <= 10^6"),
    ("grid:n=1e300", "n^dim <= 10^6"),
    ("vec:1,abc", "entries must be numbers"),
    ("vec:1", "needs 2 finite entries"),
    ("vec:1,nan", "needs 2 finite entries"),
])
def test_cli_bad_comparator_spec_is_data_error(spec, msg):
    code, err = _main_code(["run", "--learner", "pa", "--gen", TINY["separable"],
                            "--comparator", spec])
    assert code == 2
    assert f"comparator {spec!r}" in err and msg in err


def test_comparator_grid_limits():
    from omdkit.harness import _grid_spec

    assert _grid_spec("grid:R=2,n=41", 3) == (2.0, 41)
    assert _grid_spec("grid:n=100", 3) == (2.0, 100)
    with pytest.raises(ValueError, match="n\\^dim <= 10\\^6"):
        _grid_spec("grid:n=101", 3)
    with pytest.raises(ValueError, match="dim <= 3"):
        _grid_spec("grid:n=2", 4)


def test_audit_names_the_differing_field(tmp_path):
    cfg = gen_config("vaw", {"a": 1.0}, noisy_linear(3, d=3, T=10))
    trace, _, _ = run_experiment(cfg)
    tp = tmp_path / "t.jsonl"
    write_trace(tp, cfg, trace)
    lines = tp.read_text().splitlines()
    rec = json.loads(lines[4])
    old = rec["extras"]["post_quad"]
    rec["extras"]["post_quad"] = float(np.nextafter(np.nextafter(old, 1.0), 1.0))
    lines[4] = canonical_json(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        audit_stored(bad)
    msg = str(exc.value)
    assert "record 4 does not match the replayed run: field 'extras.post_quad'" in msg
    assert f"stored {canonical_json(rec['extras']['post_quad'])}" in msg
    assert f"replayed {canonical_json(old)}" in msg
    assert msg.endswith("(2 ulps apart)")
    rec["extras"]["extra_key"] = 1.0
    rec["extras"]["post_quad"] = old
    lines[4] = canonical_json(rec)
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="field 'extras.extra_key': stored 1, replayed "
                                         "\\(missing\\)$"):
        audit_stored(bad)


def test_cli_float_overflow_is_data_error():
    for argv in (["--learner", "second_order", "--r", "1e-300",
                  "--gen", "separable_margin:gamma=0.2,d=1,T=2"],
                 ["--learner", "scaleinv_diag", "--lipschitz", "1e300",
                  "--gen", "noisy_linear:sigma=0.2,d=1,T=2"]):
        with np.errstate(all="ignore"):
            code, err = _main_code(["run", *argv])
        assert code == 2, argv
        assert "error: numeric failure:" in err


def test_composite_empty_run_audits_cleanly():
    # f_0 of the composite schedules has a value, so an empty run's audit no longer raises
    for schedule in ("constant", "sqrt", "linear"):
        code, _ = _main_code(["run", "--learner", "composite", "--schedule", schedule,
                              "--ridge", "1", "--gen", "noisy_linear:sigma=0.2,d=2,T=0",
                              "--comparator", "zero", "--comparator", "batch",
                              "--strict-audit"])
        assert code == 0, schedule


def test_composite_empty_run_general_bound_reads_g_0(tmp_path):
    # an empty run stands at f_0: g_0 = 0 under the sqrt and linear schedules, and
    # g_0(u) = ||u||^2 / 2 = 1 under the constant one (eta = 1)
    for schedule, extra in (("sqrt", []), ("constant", []), ("linear", ["--ridge", "1"])):
        summ = tmp_path / f"{schedule}.json"
        code, _ = _main_code(["run", "--learner", "composite", "--schedule", schedule, *extra,
                              "--gen", "noisy_linear:sigma=0.2,d=2,T=0",
                              "--comparator", "vec:1,1", "--summary", str(summ)])
        assert code == 0, schedule
        general = [r for r in json.loads(summ.read_text())["reports"]
                   if r["name"] == "composite_general"]
        expect = 1.0 if schedule == "constant" else 0.0
        assert [r["bound"] for r in general] == [expect], schedule


def test_ogd_default_hinge_loss_needs_binary_labels():
    # ogd's default loss is the hinge, so its labels are checked without --loss too
    with pytest.raises(ValueError, match="labels"):
        run_experiment(gen_config("ogd", {}, noisy_linear(0, d=3, T=10)))
    run_experiment(gen_config("ogd", {"loss": "square"}, noisy_linear(0, d=3, T=10)))
