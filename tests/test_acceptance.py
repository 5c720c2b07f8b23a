"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else: -1e-9 slack for all bound
audits except the scale-invariant regret displays at -1e-6, 1e-8 for the
incremental linear algebra against direct recomputation, 1e-12 for exact
algebraic identities, and the stated oracle tolerances for the convex
analysis suite.
"""

import math
import time

import numpy as np

from helpers import (
    gen_config,
    heavy_tail,
    audited_learner_suite,
    noisy_linear,
    regularizer_families,
    run,
    separable,
    sparse_target,
    strong_convexity_gap,
)
from lemmas import (
    affine_log_solve,
    dense_inverse,
    diag_quad_sum,
    implicit_scan,
    pure_log_solve,
    sqrt_sum_inequality_check,
)
from omdkit.bounds import (
    RunTrace,
    first_order_mistake_bound,
    diag_log_bound,
    diag_rare_feature_refinement,
    grid_comparators,
    engine_audit,
    second_order_bound,
    sqrt_log_solve,
)
from omdkit.data import Dataset, generate
from omdkit.harness import (
    audit_stored,
    canonical_json,
    run_experiment,
    write_summary,
    write_trace,
)
from omdkit.learners import FirstOrderClassifier
from omdkit.linalg import RankOneInverse
from omdkit.oracles import (
    GridSpec,
    numeric_argmax,
    numeric_biconjugate,
    numeric_dual_norm,
)
from omdkit.prng import Xorshift64Star
from omdkit.regularizers import FixedQuadratic

AUDIT_TOL = 1e-9
SCALE_INV_TOL = 1e-6
EXACT_TOL = 1e-12
LINALG_TOL = 1e-8


def _report(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_engine_audit_all_learners():
    t0 = time.perf_counter()
    worst_slack = math.inf
    worst_gap = -math.inf
    fixed_rng = Xorshift64Star(123)
    u_fixed = np.array([fixed_rng.normal() for _ in range(10)]) * 0.5
    n_runs = 0
    for name, params, _ in audited_learner_suite(d=10, T=200, seed=0):
        for seed in range(100):
            if seed % 5 == 0:
                # small-dimension runs audited against a comparator grid
                suite = dict((n, (p, s)) for n, p, s in audited_learner_suite(d=2, T=200, seed=seed))
                params_d, spec = suite[name]
                trace, _, _ = run(name, params_d, spec, audit=False)
                U = grid_comparators(2, radius=2.0, points=41)
            else:
                suite = dict((n, (p, s)) for n, p, s in audited_learner_suite(d=10, T=200, seed=seed))
                params_d, spec = suite[name]
                trace, _, _ = run(name, params_d, spec, audit=False)
                star = generate(spec).meta["u_star"]
                U = np.vstack([np.zeros(10), star, u_fixed])
            rep = engine_audit(trace, U)
            worst_slack = min(worst_slack, rep["terms"]["min_slack"])
            worst_gap = max(worst_gap, rep["terms"]["max_residue_gap"])
            n_runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -AUDIT_TOL and worst_gap <= AUDIT_TOL and elapsed < 60.0
    _report("criterion-1 engine-audit", ok,
            f"runs={n_runs} min_slack={worst_slack:.3e} "
            f"max_residue_gap={worst_gap:.3e} elapsed={elapsed:.1f}s")


def test_criterion_2_composite_schedules():
    configs = [
        ("sqrt", {"eta": 0.7, "lam": 0.1, "ridge": 0.0, "schedule": "sqrt"}),
        ("sqrt", {"eta": 0.7, "lam": 0.0, "ridge": 1.0, "schedule": "sqrt"}),
        ("linear", {"eta": 1.0, "lam": 0.0, "ridge": 1.0, "schedule": "linear"}),
        ("linear", {"eta": 1.0, "lam": 0.1, "ridge": 1.0, "schedule": "linear"}),
    ]
    worst = math.inf
    for sched, params in configs:
        for seed in range(50):
            trace, _, reports = run(
                "composite", dict(params, loss="absolute"),
                noisy_linear(seed, sigma=0.3, d=5, T=100),
                comparators=("zero", "star", "batch"))
            rep = [r for r in reports if r["name"] == f"composite_{sched}"][0]
            gen = [r for r in reports if r["name"] == "composite_general"][0]
            worst = min(worst, rep["terms"]["min_slack"], gen["terms"]["min_slack"])
    _report("criterion-2 composite-schedules", worst >= -AUDIT_TOL,
            f"min_slack={worst:.3e} over 4 configs x 50 seeds")


def test_criterion_3_scale_invariant_bounds():
    worst = math.inf
    for kind in ("scaleinv_pnorm", "scaleinv_diag"):
        for seed in range(50):
            trace, _, reports = run(
                kind, {"lipschitz": 1.0, "eta": 0.8, "loss": "absolute"},
                sparse_target(seed, k=2, d=3, T=120),
                comparators=("zero", "star", "grid:R=2,n=21"))
            rep = [r for r in reports if r["name"].startswith("scale_invariant")][0]
            worst = min(worst, rep["terms"]["min_slack"])
    # prediction invariance under log-uniform factors in [1e-3, 1e3]
    rng = Xorshift64Star(999)
    max_dev = 0.0
    for kind in ("scaleinv_pnorm", "scaleinv_diag"):
        for seed in range(5):
            d = 6
            factors = [10.0 ** rng.uniform_in(-3.0, 3.0) for _ in range(d)]
            from omdkit.harness import run_compare

            cfg = gen_config(kind, {"lipschitz": 1.0, "eta": 0.8},
                             noisy_linear(seed, sigma=0.2, d=d, T=150))
            res = run_compare(cfg, factors)
            max_dev = max(max_dev, res["max_relative_deviation"])
    ok = worst >= -SCALE_INV_TOL and max_dev <= 1e-6
    _report("criterion-3 scale-invariance", ok,
            f"min_slack={worst:.3e} max_rescale_deviation={max_dev:.3e}")


def test_criterion_4_aggressive_vs_baseline():
    # constructed margin-error-heavy stream: D < 0 and the aggressive bound beats the baseline
    lrn = FirstOrderClassifier(FixedQuadratic(2), eta_mode="pa_optimal")
    xs, recs = [], []
    x = np.array([1.0, 0.0])
    recs.append(lrn.round(x, 1.0))
    xs.append(x)
    for _ in range(80):
        a = 0.5 / lrn.w[0]
        x = np.array([a, 0.0])
        recs.append(lrn.round(x, 1.0))
        xs.append(x)
    trace = RunTrace(Dataset.from_matrix(np.array(xs), [1.0] * len(xs)), recs, lrn)
    rep = first_order_mistake_bound(trace, np.array([[4.0, 0.0], [6.0, 0.0]]))
    d_negative = rep["terms"]["D"] < 0.0
    strictly_better = rep["bound"] < rep["terms"]["perceptron_bound"]

    # separable specialization: L(u*) = 0 so M <= (2/beta) f(u*) X_T^2
    ok_sep = True
    details = []
    for seed in range(10):
        spec = separable(seed, gamma=0.5, d=5, T=300)
        trace, summary, _ = run("pnorm_perceptron", {"p": 2.0}, spec, audit=False)
        star = generate(spec).meta["u_star"]
        reg = trace.learner.reg
        beta = reg.strong_convexity()
        x_T = max(r.extras["x_max"] for r in trace.records)
        cap = (2.0 / beta) * float(reg.value(star)) * x_T ** 2
        m = sum(1 for r in trace.records if r.mistake)
        ok_sep = ok_sep and (m <= cap + 1e-9)
        details.append((m, cap))
    ok = d_negative and strictly_better and ok_sep
    _report("criterion-4 aggressive-vs-baseline", ok,
            f"D={rep['terms']['D']:.3f} aggressive={rep['bound']:.2f} "
            f"perceptron={rep['terms']['perceptron_bound']:.2f} "
            f"separable M<=cap on 10 seeds: {ok_sep}")


def test_criterion_5_second_order_bounds():
    worst = math.inf
    ordering_ok = True
    chain_ok = True
    for seed in range(25):
        spec = separable(seed, gamma=0.25, d=5, T=150)
        star = generate(spec).meta["u_star"]
        U = np.vstack([np.zeros(5), star])
        for trigger in ("omd", "arow"):
            trace, _, _ = run("second_order",
                              {"r": 1.0, "variant": "full", "trigger": trigger},
                              spec, audit=False)
            rep = second_order_bound(trace, U)
            worst = min(worst, rep["terms"]["min_slack"])
            ordering_ok = ordering_ok and rep["terms"]["ordering_ok"]
            chain_ok = chain_ok and rep["terms"]["mistake_chain_ok"]
        trace, _, _ = run("second_order",
                          {"r": 1.0, "variant": "diagonal", "trigger": "omd"},
                          spec, audit=False)
        rep = second_order_bound(trace, U)
        worst = min(worst, rep["terms"]["min_slack"])

    # conditional rare-feature refinement on heavy-tailed data
    refinement_ok = True
    for seed in range(5):
        spec = heavy_tail(seed, zipf=1.6, d=12, T=250)
        trace, _, _ = run("second_order",
                          {"r": 1.0, "variant": "diagonal", "trigger": "mistake"},
                          spec, audit=False)
        star = generate(spec).meta["u_star"]
        rep = diag_rare_feature_refinement(trace, star)
        if rep["terms"]["U_used"] != 0:
            refinement_ok = False
            continue
        a, b, L_u = rep["terms"]["a"], rep["terms"]["b"], rep["terms"]["L_u"]
        scan = implicit_scan(
            lambda x: x <= math.sqrt(a * math.log(b * x + 1.0)) + L_u + 1e-9,
            hi=max(10.0 * rep["bound"], 50.0), step=max(rep["bound"], 1.0) / 2000.0)
        refinement_ok = refinement_ok and scan <= rep["bound"] + EXACT_TOL \
            and rep["measured"] <= rep["bound"] + 1e-9
    ok = worst >= -AUDIT_TOL and ordering_ok and chain_ok and refinement_ok
    _report("criterion-5 second-order-bounds", ok,
            f"min_slack={worst:.3e} ordering={ordering_ok} "
            f"mistake_chain={chain_ok} refinement={refinement_ok}")


def test_criterion_6_incremental_linear_algebra():
    rng = np.random.default_rng(2024)
    d, r = 20, 1.3
    inc = RankOneInverse(d, r=r)
    A = np.eye(d)
    ident_worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=d)
        chi = inc.quad_form(x)
        inc.update(x)
        A += np.outer(x, x) / r
        ident_worst = max(ident_worst, abs(inc.quad_form(x) - chi * r / (r + chi)))
    inv_err = float(np.max(np.abs(dense_inverse(inc) - np.linalg.inv(A))))
    sign, ld = np.linalg.slogdet(A)
    ld_err = abs(inc.logdet - ld)
    ok = inv_err < LINALG_TOL and ld_err < LINALG_TOL and ident_worst < EXACT_TOL
    _report("criterion-6 incremental-linalg", ok,
            f"inv_err={inv_err:.2e} logdet_err={ld_err:.2e} "
            f"sherman_morrison_identity={ident_worst:.2e}")


def test_criterion_7_convex_analysis_oracles():
    t0 = time.perf_counter()
    grid = GridSpec(-3.0, 3.0, 41, 2)
    rng = np.random.default_rng(314)
    fails = []
    for name, reg in regularizer_families(2).items():
        f = lambda V: np.asarray(reg.value(V))
        # biconjugation probes sit where grad f(w) stays inside the theta
        # grid, otherwise the nested sup is truncated by construction
        for w in ((0.4, -0.3), (0.6, 0.2), (-0.5, 0.35)):
            w = np.array(w)
            f_w = float(np.asarray(reg.value(w)))
            bicon = numeric_biconjugate(f, w, grid, refine_iters=22)
            if abs(bicon - f_w) > 1e-3:
                fails.append((name, "biconjugation", abs(bicon - f_w)))
        for _ in range(4):
            theta = rng.normal(size=2)
            pt, _ = numeric_argmax(f, theta, grid, refine_iters=70)
            mm = reg.mirror_map(theta)
            if np.max(np.abs(pt - mm)) > 1e-6:
                fails.append((name, "argmax", float(np.max(np.abs(pt - mm)))))
            fy = float(np.asarray(reg.value(mm))) + reg.conjugate(theta) - float(mm @ theta)
            if abs(fy) > 1e-9:
                fails.append((name, "fenchel_young", abs(fy)))
        for _ in range(100):
            gap = strong_convexity_gap(reg, rng.normal(size=2), rng.normal(size=2))
            if gap < -1e-9:
                fails.append((name, "strong_convexity", gap))
                break
        for _ in range(2):
            z = rng.normal(size=2)
            numeric = numeric_dual_norm(lambda V: np.asarray(reg.norm(V)), z,
                                        samples=20_000, refine_rounds=35)
            if abs(numeric - reg.dual_norm(z)) > 1e-4:
                fails.append((name, "dual_norm", abs(numeric - reg.dual_norm(z))))
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120.0
    _report("criterion-7 convex-analysis-oracles", ok,
            f"families={len(regularizer_families(2))} elapsed={elapsed:.1f}s "
            f"failures={fails[:4]}")


def test_criterion_8_log_inequality_solvers():
    rng = Xorshift64Star(808)
    ok_diag = True
    for _ in range(100):
        T = 1 + rng.randint(60)
        d = 1 + rng.randint(5)
        r = 0.2 + 4.0 * rng.uniform()
        xs = np.array([[rng.normal() ** 2 for _ in range(d)] for _ in range(T)])
        if diag_quad_sum(xs, r) > diag_log_bound(xs, r) + EXACT_TOL:
            ok_diag = False
    ok_sqrt = True
    for _ in range(100):
        n = 1 + rng.randint(50)
        a = np.array([max(rng.normal(), 0.0) for _ in range(n)])
        if not sqrt_sum_inequality_check(a, tol=EXACT_TOL):
            ok_sqrt = False

    ok_solvers = True
    for _ in range(100):
        a = math.e + 5.0 * rng.uniform()
        n = 1.5 + rng.uniform()
        val = pure_log_solve(a, n=n)
        hi = 10.0 * a * math.log(max(a, 2.0)) + 10.0
        scan = implicit_scan(lambda x: x <= a * math.log(x) + 1e-9, hi=hi, step=hi / 20000)
        if scan > val + EXACT_TOL:
            ok_solvers = False
    for _ in range(100):
        a = 0.5 + 3.0 * rng.uniform()
        b = 0.5 + 2.0 * rng.uniform()
        c = 1.0 + 2.0 * rng.uniform()
        dd = 2.0 * rng.uniform()
        val = affine_log_solve(a, b, c, dd, n=2.0)
        hi = 10.0 * (a * 10.0 + c / b + dd) + 20.0
        scan = implicit_scan(lambda x: x <= a * math.log(b * x + c) + dd + 1e-9,
                             hi=hi, step=hi / 20000)
        if scan > val + EXACT_TOL:
            ok_solvers = False
    for _ in range(100):
        a = 0.5 + 3.0 * rng.uniform()
        b = 0.2 + 2.0 * rng.uniform()
        c = 2.0 * rng.uniform()
        dd = 2.0 * rng.uniform()
        val = sqrt_log_solve(a, b, c, dd)
        hi = 10.0 * (math.sqrt(a * 10.0 + c) + dd) + 20.0
        scan = implicit_scan(
            lambda x: x <= math.sqrt(a * math.log(b * x + 1.0) + c) + dd + 1e-9,
            hi=hi, step=hi / 20000)
        if scan > val + EXACT_TOL:
            ok_solvers = False
    ok = ok_diag and ok_sqrt and ok_solvers
    _report("criterion-8 log-inequality-solvers", ok,
            f"diag_log={ok_diag} sqrt_sum={ok_sqrt} implicit_solvers={ok_solvers}")


def test_criterion_9_determinism_and_audit(tmp_path):
    cfg = gen_config("second_order", {"r": 1.0, "variant": "full", "trigger": "omd"},
                     separable(31, d=6, T=120), comparators=("zero", "star"))
    blobs = []
    for tag in ("a", "b"):
        trace, summary = run_experiment(cfg)
        tp = tmp_path / f"t{tag}.jsonl"
        write_trace(tp, cfg, trace)
        blobs.append((tp.read_bytes(),
                      write_summary(None, summary, drop_wall_time=True),
                      canonical_json(summary["reports"])))
    identical = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    _, payload = audit_stored(tmp_path / "ta.jsonl")
    audit_matches = canonical_json(payload["reports"]) == blobs[0][2]
    ok = identical and audit_matches
    _report("criterion-9 determinism", ok,
            f"byte_identical={identical} audit_reproduces={audit_matches}")
