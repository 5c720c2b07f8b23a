import math

import numpy as np
import pytest

from helpers import (
    heavy_tail,
    audited_learner_suite,
    noisy_linear,
    run,
    separable,
    sparse_target,
)
from omdkit.bounds import (
    RunTrace,
    batch_comparator,
    first_order_mistake_bound,
    diag_log_bound,
    diag_quad_sum,
    diag_rare_feature_refinement,
    implicit_log_solve,
    engine_audit,
    second_order_bound,
    sqrt_sum_inequality_check,
    vaw_bound,
)
from omdkit.data import Dataset
from omdkit.learners import FirstOrderClassifier, StepRecord, VAWRegressor
from omdkit.oracles import implicit_scan
from omdkit.regularizers import FixedQuadratic


def _manual_trace(records, learner):
    return RunTrace(Dataset.from_matrix(np.zeros((0, learner.dim)), []), records, learner)


def test_engine_audit_single_step_hand_example():
    # FixedQuadratic, z = (1,0), w_1 = 0, u = (1,0): measured 1, bound 1/2 + 1/2
    lrn = FirstOrderClassifier(FixedQuadratic(2))
    rec = StepRecord(t=1, prediction=0.0, label=1.0, loss=1.0, eta=1.0,
                     z=np.array([1.0, 0.0]), dual_norm_sq=1.0, beta=1.0, zw=0.0)
    lrn.apply_update(rec.z)  # the audit reads sum_t z_t off the learner's theta
    rep = engine_audit(_manual_trace([rec], lrn), np.array([1.0, 0.0]))
    assert rep.measured == pytest.approx(1.0)
    assert rep.bound == pytest.approx(1.0)
    assert rep.slack == pytest.approx(0.0, abs=1e-15)


def test_engine_audit_empty_trace():
    lrn = FirstOrderClassifier(FixedQuadratic(2))
    rep = engine_audit(_manual_trace([], lrn), np.array([0.5, 0.5]))
    assert rep.measured == 0.0
    assert rep.bound == pytest.approx(0.25)


def test_engine_audit_nan_residue_gap_is_reported():
    # Python's max keeps its first item when a later one is NaN; the gap must stay NaN
    from omdkit.harness import report_violations

    lrn = FirstOrderClassifier(FixedQuadratic(2))
    recs = [StepRecord(t=t, prediction=0.0, label=1.0, loss=1.0, eta=1.0,
                       z=np.zeros(2), reg_drop=drop) for t, drop in ((1, 0.0), (2, math.nan))]
    rep = engine_audit(_manual_trace(recs, lrn), np.zeros(2))
    assert math.isnan(rep.terms["max_residue_gap"])
    assert [name for name, _, _ in report_violations([rep])] == ["engine:residue"]


def test_first_order_and_composite_maxima_keep_nan():
    from omdkit.bounds import composite_bound
    from omdkit.learners import GradientDescentLearner
    from omdkit.regularizers import SqrtScheduled

    lrn = FirstOrderClassifier(FixedQuadratic(2))
    x = np.array([1.0, 0.0])
    data = Dataset.from_matrix(np.array([x, x]), [1.0, 1.0])
    recs = [lrn.round(x, 1.0) for _ in range(2)]
    recs[1].extras["x_max"] = math.nan
    rep = first_order_mistake_bound(RunTrace(data, recs, lrn), np.zeros(2))
    assert math.isnan(rep.terms["X_T"])

    lrn = GradientDescentLearner(SqrtScheduled(FixedQuadratic(2)), loss="absolute", eta=1.0)
    recs = [lrn.round(x, 1.0) for _ in range(2)]
    recs[1].dual_norm_sq = math.nan
    trace = RunTrace(data, recs, lrn)
    rep = composite_bound(trace, np.zeros(2), "sqrt")
    assert math.isnan(rep.terms["max_lgrad_dual_sq"])


def test_engine_audit_property_random_runs():
    rng = np.random.default_rng(77)
    for seed in range(12):
        for name, params, spec in audited_learner_suite(d=4, T=80, seed=seed):
            trace, _, _ = run(name, params, spec, audit=False)
            U = np.vstack([rng.normal(size=(6, 4)), np.zeros((1, 4))])
            rep = engine_audit(trace, U)
            assert rep.terms["min_slack"] >= -1e-9, (name, seed)
            assert rep.terms["max_residue_gap"] <= 1e-9, (name, seed)


def test_vaw_hand_example():
    lrn = VAWRegressor(1, a=1.0)
    recs = [lrn.round([1.0], 1.0), lrn.round([1.0], 1.0)]
    assert recs[0].prediction == 0.0
    assert recs[1].prediction == pytest.approx(1.0 / 3.0)
    trace = RunTrace(Dataset.from_matrix(np.ones((2, 1)), [1.0, 1.0]), recs, lrn)
    grid = np.linspace(-2, 2, 81)[:, None]
    rep = vaw_bound(trace, grid)
    # bound at u: u^2/2 + (1/2)(1/2 + 1/3)
    assert rep.terms["quad_sum"] == pytest.approx(1.0 / 2.0 + 1.0 / 3.0)
    assert rep.terms["min_slack"] >= -1e-12


def test_first_order_mistake_negative_d_on_margin_error_heavy_stream():
    # one mistake, then a stream of margin errors with margin held at 1/2
    lrn = FirstOrderClassifier(FixedQuadratic(2), eta_mode="pa_optimal")
    xs = []
    recs = []
    x = np.array([1.0, 0.0])
    recs.append(lrn.round(x, 1.0))
    xs.append(x)
    for _ in range(60):
        a = 0.5 / lrn.w[0]
        x = np.array([a, 0.0])
        recs.append(lrn.round(x, 1.0))
        xs.append(x)
    assert sum(r.margin_error for r in recs) == 60
    trace = RunTrace(Dataset.from_matrix(np.array(xs), [1.0] * len(xs)), recs, lrn)
    u = np.array([[4.0, 0.0]])
    rep = first_order_mistake_bound(trace, u)
    assert rep.terms["D"] < 0.0
    assert rep.terms["D_negative"]
    # for f = ||.||^2/2 the two bounds differ exactly by D
    assert rep.bound < rep.terms["perceptron_bound"]
    assert rep.bound == pytest.approx(rep.terms["perceptron_bound"] + rep.terms["D"])
    assert rep.slack >= -1e-9


def test_first_order_mistake_bound_clamps_oversubtraction():
    # margin errors whose input norms sit far below X_t make each D term
    # approach -2 eta_t; the valid budget per margin error is -eta_t, so
    # the effective correction must clamp at -sum eta_t
    lrn = FirstOrderClassifier(FixedQuadratic(2), eta_mode="pa_optimal")
    xs, ys, recs = [], [], []

    def feed(x, y):
        recs.append(lrn.round(np.asarray(x, float), y))
        xs.append(x)
        ys.append(y)

    feed([50.0, 0.0], 1.0)          # mistake; X_T = 50
    for _ in range(40):
        # tiny margin-error inputs: margin 1/2, norms << X_T
        feed([0.5 / max(lrn.w[0], 1e-9), 0.0], 1.0)
        # tiny mistakes against the current direction keep M growing
        feed([0.01, 0.0], -1.0)
    trace = RunTrace(Dataset.from_matrix(np.array(xs), ys), recs, lrn)
    rep = first_order_mistake_bound(trace, np.zeros((1, 2)))
    assert rep.terms["D"] < -rep.terms["eta_margin_sum"] - 1e-9
    assert rep.terms["D_effective"] == pytest.approx(-rep.terms["eta_margin_sum"])
    assert rep.slack >= -1e-9
    # the unclamped display value genuinely dips below the mistake count here
    assert rep.terms["display_bound"] < rep.measured


def test_first_order_mistake_conservative_run_has_zero_d():
    # conservative mode never applies a rate on margin errors, so the D
    # sum is empty even though margin-error rounds exist
    trace, _, _ = run("pnorm_perceptron", {"p": 1.5}, separable(3, d=4, T=150),
                      audit=False)
    rep = first_order_mistake_bound(trace, np.zeros(4))
    assert rep.terms["D"] == 0.0
    assert all(r.eta == 0.0 for r in trace.records if r.margin_error)


def test_first_order_mistake_property_random_separable():
    for seed in range(15):
        spec = separable(seed, gamma=0.25, d=6, T=150)
        for learner, params in [("pa", {}), ("pnorm_perceptron", {"p": 1.5}),
                                ("fixed_margin", {"fixed_eta": 0.4})]:
            trace, _, reports = run(learner, params, spec,
                                    comparators=("zero", "star", "batch"))
            rep = [r for r in reports if r.name == "first_order_mistake"][0]
            assert rep.terms["min_slack"] >= -1e-9, (learner, seed)


def test_second_order_hand_example():
    # d=2, r=1, single mistake on x=(1,0): ln|A_1| = ln 2, m_1 = 0
    trace, _, _ = run("second_order", {"r": 1.0, "variant": "full"},
                      separable(0, d=2, T=1), audit=False)
    from omdkit.learners import SecondOrderClassifier

    lrn = SecondOrderClassifier(2, r=1.0, variant="full")
    rec = lrn.round([1.0, 0.0], 1.0)
    trace = RunTrace(Dataset.from_matrix(np.array([[1.0, 0.0]]), [1.0]), [rec], lrn)
    u = np.array([2.0, 0.3])
    rep = second_order_bound(trace, u)
    assert rep.measured == 1.0
    expect = math.sqrt(1.0 * float(u @ u) + u[0] ** 2) * math.sqrt(math.log(2.0))
    assert rep.bound == pytest.approx(0.0 + expect)  # L(u) = 0 for u_1 = 2


def test_second_order_property_and_ordering():
    for seed in range(10):
        spec = separable(seed, gamma=0.2, d=5, T=150)
        U = np.vstack([np.zeros((1, 5)), _star(spec)[None, :]])
        for variant in ("full", "diagonal"):
            for trigger in ("omd", "arow", "mistake"):
                trace, _, _ = run("second_order",
                                  {"r": 1.3, "variant": variant, "trigger": trigger},
                                  spec, audit=False)
                rep = second_order_bound(trace, U)
                assert rep.terms["min_slack"] >= -1e-9, (variant, trigger, seed)
                if variant == "full":
                    assert rep.terms["ordering_ok"]
                    assert rep.terms["mistake_chain_ok"]
                    assert rep.terms["loose_bound"] >= rep.bound - 1e-9


def _star(spec):
    from omdkit.data import GeneratorSpec, generate

    return generate(GeneratorSpec.from_dict(spec)).meta["u_star"]


def test_diag_log_bound_hand_example():
    xs = np.ones((3, 1))
    rhs = diag_log_bound(xs, r=1.0)
    lhs = diag_quad_sum(xs, r=1.0)
    assert lhs == pytest.approx(0.5 + 1.0 / 3.0 + 0.25)
    assert rhs == pytest.approx(math.log(4.0))
    assert lhs <= rhs
    assert diag_log_bound(np.zeros((4, 2)), r=2.0) == 0.0
    assert diag_quad_sum(np.zeros((4, 2)), r=2.0) == 0.0


def test_diag_log_bound_random():
    rng = np.random.default_rng(40)
    for _ in range(60):
        T = int(rng.integers(1, 100))
        d = int(rng.integers(1, 6))
        r = float(rng.uniform(0.2, 5.0))
        xs = rng.normal(size=(T, d)) ** 2
        assert diag_quad_sum(xs, r) <= diag_log_bound(xs, r) + 1e-12


def test_implicit_log_solvers_examples():
    val = implicit_log_solve("pure_log", {"a": math.e}, n=2.0)
    assert val == pytest.approx(2.0 * math.e * math.log(2.0), abs=1e-12)
    assert val >= math.e
    val1 = implicit_log_solve("affine_log", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}, n=2.0)
    assert val1 == pytest.approx(2.0 * math.log(2.0 / math.e) + 1.0, abs=1e-12)
    val2 = implicit_log_solve("sqrt_log", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
    scan = implicit_scan(
        lambda x: x <= math.sqrt(math.log(x + 1.0) + 1.0) + 1.0 + 1e-9,
        hi=50.0, step=1e-4)
    assert scan <= val2 + 1e-12


def test_implicit_log_solver_validation():
    with pytest.raises(ValueError):
        implicit_log_solve("pure_log", {"a": -1.0})
    with pytest.raises(ValueError):
        implicit_log_solve("affine_log", {"a": 1.0, "b": 0.0, "c": 1.0, "d": 1.0})
    with pytest.raises(ValueError):
        implicit_log_solve("sqrt_log", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, n=3.0)
    with pytest.raises(ValueError):
        implicit_log_solve("nope", {"a": 1.0})


def test_sqrt_sum_inequality():
    assert sqrt_sum_inequality_check(np.ones(50))
    assert sqrt_sum_inequality_check([5.0])
    assert sqrt_sum_inequality_check([0.0, 0.0, 1.0])
    rng = np.random.default_rng(50)
    for _ in range(2000):
        a = rng.uniform(0, 3, size=int(rng.integers(1, 40)))
        a[rng.random(a.shape) < 0.2] = 0.0
        assert sqrt_sum_inequality_check(a)
    with pytest.raises(ValueError):
        sqrt_sum_inequality_check([-1.0])


def test_composite_sqrt_display_with_pnorm_base():
    # f_t = sqrt(t) * (1/2 ||.||_p^2), F = 0: the display's gradient norms
    # live in the p-norm's dual, not the Euclidean norm
    from omdkit.learners import GradientDescentLearner
    from omdkit.regularizers import PNorm, SqrtScheduled
    from omdkit.bounds import composite_bound

    rng = np.random.default_rng(71)
    d, T = 4, 120
    u_true = rng.normal(size=d)
    lrn = GradientDescentLearner(SqrtScheduled(PNorm(d, 1.5)), loss="absolute", eta=0.6)
    xs, ys, recs = [], [], []
    for _ in range(T):
        x = rng.normal(size=d)
        y = float(u_true @ x) + 0.3 * rng.normal()
        recs.append(lrn.round(x, y))
        xs.append(x)
        ys.append(y)
    trace = RunTrace(Dataset.from_matrix(np.array(xs), ys), recs, lrn)
    U = np.vstack([np.zeros(d), u_true, 0.5 * u_true])
    for sched in ("sqrt", "general"):
        rep = composite_bound(trace, U, sched)
        assert rep.terms["min_slack"] >= -1e-9, sched


def test_vaw_and_af_property_random_runs():
    for seed in range(15):
        spec = noisy_linear(seed, sigma=0.4, d=3, T=100)
        _, _, reports = run("vaw", {"a": 1.0}, spec,
                            comparators=("zero", "star", "grid:R=2,n=15"))
        rep = [r for r in reports if r.name == "vaw"][0]
        assert rep.terms["min_slack"] >= -1e-9, seed
        _, _, reports = run("adaptive_filter", {}, spec,
                            comparators=("zero", "star", "grid:R=2,n=15", "batch"))
        rep = [r for r in reports if r.name == "adaptive_filter"][0]
        assert rep.terms["min_slack"] >= -1e-9, seed


def test_filter_and_scale_invariant_reports_through_harness():
    trace, _, reports = run("adaptive_filter", {}, noisy_linear(2, d=3, T=100),
                            comparators=("zero", "star", "grid:R=2,n=15"))
    af = [r for r in reports if r.name == "adaptive_filter"][0]
    assert af.terms["min_slack"] >= -1e-9
    trace, _, reports = run("scaleinv_diag", {"eta": 0.5}, sparse_target(2, k=2, d=3, T=100),
                            comparators=("zero", "star", "grid:R=2,n=15"))
    th = [r for r in reports if r.name == "scale_invariant_diag"][0]
    assert th.terms["min_slack"] >= -1e-6
    # scale-invariant display check: d=1 diag, L=1, b=1, eta=1, T=4 -> sqrt(5)(u^2/2 + 1)
    from omdkit.learners import ScaleInvariantRegressor

    lrn = ScaleInvariantRegressor(1, kind="diag", lipschitz=1.0, eta=1.0)
    recs = [lrn.round(np.array([1.0]), 0.5) for _ in range(4)]
    trace = RunTrace(Dataset.from_matrix(np.ones((4, 1)), [0.5] * 4), recs, lrn)
    from omdkit.bounds import scale_invariant_bound

    rep = scale_invariant_bound(trace, np.array([[2.0]]))
    assert rep.bound == pytest.approx(math.sqrt(5.0) * (2.0 + 1.0))


def test_diag_rare_feature_refinement_on_heavy_tail():
    spec = heavy_tail(4, zipf=1.6, d=12, T=250)
    trace, _, _ = run("second_order",
                      {"r": 1.0, "variant": "diagonal", "trigger": "mistake"},
                      spec, audit=False)
    star = _star(spec)
    X, _ = trace.design()
    upd = [i for i, rec in enumerate(trace.records) if rec.extras.get("updated")]
    csum = (X[upd] ** 2).sum(axis=0)
    s_min = float(np.sum(star ** 2 * csum) / float(star @ star))
    rep, ok = diag_rare_feature_refinement(trace, star, s=s_min * 1.05 + 1e-9)
    assert ok
    assert rep.measured <= rep.bound + 1e-9
    # scan oracle for the implicit inequality must be dominated
    a, b = rep.terms["a"], rep.terms["b"]
    L_u = rep.terms["L_u"]
    scan = implicit_scan(
        lambda x: x <= math.sqrt(a * math.log(b * x + 1.0)) + L_u + 1e-9,
        hi=max(10.0 * rep.bound, 50.0), step=rep.bound / 2000.0)
    assert scan <= rep.bound + 1e-9
    # hypothesis failure path
    rep2, ok2 = diag_rare_feature_refinement(trace, star, s=s_min * 0.5)
    assert not ok2 and rep2.bound == math.inf


def test_batch_comparator_deterministic():
    rng = np.random.default_rng(60)
    X = rng.normal(size=(50, 3))
    y = np.sign(X @ np.array([1.0, -0.5, 0.2]))
    u1 = batch_comparator(X, y, kind="hinge")
    u2 = batch_comparator(X, y, kind="hinge")
    assert np.array_equal(u1, u2)
    # it should achieve small hinge loss on separable data
    margins = y * (X @ u1)
    assert np.mean(margins > 0) > 0.9


def test_engine_audit_reads_theta_with_the_bits_of_the_summed_updates():
    import copy

    from helpers import gen_config
    from omdkit.harness import canonical_json, comparator_matrix, run_experiment

    for d in (2, 10, 300):
        suite = audited_learner_suite(d=d, T=60, seed=d)
        suite += [("composite", {"eta": 0.7, "lam": 0.1, "schedule": schedule},
                   noisy_linear(d, d=d, T=60)) for schedule in ("sqrt", "constant")]
        suite.append(("composite", {"eta": 0.7, "lam": 0.1, "ridge": 0.5,
                                    "schedule": "linear"}, noisy_linear(d, d=d, T=60)))
        for name, params, spec in suite:
            cfg = gen_config(name, params, spec, ("zero", "star"), audit=False)
            trace, _, _ = run_experiment(cfg)
            U = comparator_matrix(cfg.comparators, trace)
            # the oracle: the same audit over Z = sum_t z_t, summed as a stacked array
            summed = copy.copy(trace.learner)
            summed.theta = np.sum([r.z for r in trace.records], axis=0)
            got, expect = (canonical_json(engine_audit(RunTrace(trace.dataset, trace.records,
                                                                lrn), U).to_dict())
                           for lrn in (trace.learner, summed))
            assert got == expect, (name, params, d)
