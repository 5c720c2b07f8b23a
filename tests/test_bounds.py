import functools
import itertools
import math
import operator

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
from lemmas import (
    affine_log_solve,
    diag_quad_sum,
    implicit_scan,
    pure_log_solve,
    sqrt_sum_inequality_check,
)
from omdkit.bounds import (
    BATCH_RADIUS,
    BATCH_STEPS,
    RunTrace,
    batch_comparator,
    first_order_mistake_bound,
    diag_log_bound,
    diag_rare_feature_refinement,
    engine_audit,
    ordered_sum,
    report_violations,
    second_order_bound,
    sqrt_log_solve,
    vaw_bound,
)
from omdkit.data import Dataset, rescaled
from omdkit.learners import FirstOrderClassifier, StepRecord, VAWRegressor
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
    assert rep["measured"] == pytest.approx(1.0)
    assert rep["bound"] == pytest.approx(1.0)
    assert rep["slack"] == pytest.approx(0.0, abs=1e-15)


def test_engine_audit_empty_trace():
    lrn = FirstOrderClassifier(FixedQuadratic(2))
    rep = engine_audit(_manual_trace([], lrn), np.array([0.5, 0.5]))
    assert rep["measured"] == 0.0
    assert rep["bound"] == pytest.approx(0.25)


def test_engine_audit_nan_residue_gap_is_reported():
    # Python's max keeps its first item when a later one is NaN; the gap must stay NaN
    lrn = FirstOrderClassifier(FixedQuadratic(2))
    recs = [StepRecord(t=t, prediction=0.0, label=1.0, loss=1.0, eta=1.0,
                       z=np.zeros(2), reg_drop=drop) for t, drop in ((1, 0.0), (2, math.nan))]
    rep = engine_audit(_manual_trace(recs, lrn), np.zeros(2))
    assert math.isnan(rep["terms"]["max_residue_gap"])
    assert [name for name, _, _ in report_violations([rep])] == ["engine:residue"]


def test_first_order_and_composite_maxima_keep_nan():
    from omdkit.bounds import composite_bound
    from omdkit.learners import GradientDescentLearner
    from omdkit.regularizers import CompositeQuadL1

    lrn = FirstOrderClassifier(FixedQuadratic(2))
    x = np.array([1.0, 0.0])
    data = Dataset.from_matrix(np.array([x, x]), [1.0, 1.0])
    recs = [lrn.round(x, 1.0) for _ in range(2)]
    recs[1].extras["x_max"] = math.nan
    rep = first_order_mistake_bound(RunTrace(data, recs, lrn), np.zeros(2))
    assert math.isnan(rep["terms"]["X_T"])

    lrn = GradientDescentLearner(CompositeQuadL1(2, 1.0), loss="absolute", eta=1.0)
    recs = [lrn.round(x, 1.0) for _ in range(2)]
    recs[1].dual_norm_sq = math.nan
    trace = RunTrace(data, recs, lrn)
    rep = composite_bound(trace, np.zeros(2))[0]
    assert rep["name"] == "composite_sqrt"
    assert math.isnan(rep["terms"]["max_lgrad_dual_sq"])


def test_engine_audit_property_random_runs():
    rng = np.random.default_rng(77)
    for seed in range(12):
        for name, params, spec in audited_learner_suite(d=4, T=80, seed=seed):
            trace, _, _ = run(name, params, spec, audit=False)
            U = np.vstack([rng.normal(size=(6, 4)), np.zeros((1, 4))])
            rep = engine_audit(trace, U)
            assert rep["terms"]["min_slack"] >= -1e-9, (name, seed)
            assert rep["terms"]["max_residue_gap"] <= 1e-9, (name, seed)


def test_vaw_hand_example():
    lrn = VAWRegressor(1, a=1.0)
    recs = [lrn.round([1.0], 1.0), lrn.round([1.0], 1.0)]
    assert recs[0].prediction == 0.0
    assert recs[1].prediction == pytest.approx(1.0 / 3.0)
    trace = RunTrace(Dataset.from_matrix(np.ones((2, 1)), [1.0, 1.0]), recs, lrn)
    grid = np.linspace(-2, 2, 81)[:, None]
    rep = vaw_bound(trace, grid)
    # bound at u: u^2/2 + (1/2)(1/2 + 1/3)
    assert rep["terms"]["quad_sum"] == pytest.approx(1.0 / 2.0 + 1.0 / 3.0)
    assert rep["terms"]["min_slack"] >= -1e-12


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
    assert rep["terms"]["D"] < 0.0
    assert rep["terms"]["D_negative"]
    # for f = ||.||^2/2 the two bounds differ exactly by D
    assert rep["bound"] < rep["terms"]["perceptron_bound"]
    assert rep["bound"] == pytest.approx(rep["terms"]["perceptron_bound"] + rep["terms"]["D"])
    assert rep["slack"] >= -1e-9


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
    assert rep["terms"]["D"] < -rep["terms"]["eta_margin_sum"] - 1e-9
    assert rep["terms"]["D_effective"] == pytest.approx(-rep["terms"]["eta_margin_sum"])
    assert rep["slack"] >= -1e-9
    # the unclamped display value genuinely dips below the mistake count here
    assert rep["terms"]["display_bound"] < rep["measured"]


def test_first_order_mistake_conservative_run_has_zero_d():
    # conservative mode never applies a rate on margin errors, so the D
    # sum is empty even though margin-error rounds exist
    trace, _, _ = run("pnorm_perceptron", {"p": 1.5}, separable(3, d=4, T=150),
                      audit=False)
    rep = first_order_mistake_bound(trace, np.zeros(4))
    assert rep["terms"]["D"] == 0.0
    assert all(r.eta == 0.0 for r in trace.records if r.margin_error)


def test_first_order_mistake_property_random_separable():
    for seed in range(15):
        spec = separable(seed, gamma=0.25, d=6, T=150)
        for learner, params in [("pa", {}), ("pnorm_perceptron", {"p": 1.5}),
                                ("fixed_margin", {"fixed_eta": 0.4})]:
            trace, _, reports = run(learner, params, spec,
                                    comparators=("zero", "star", "batch"))
            rep = [r for r in reports if r["name"] == "first_order_mistake"][0]
            assert rep["terms"]["min_slack"] >= -1e-9, (learner, seed)


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
    assert rep["measured"] == 1.0
    expect = math.sqrt(1.0 * float(u @ u) + u[0] ** 2) * math.sqrt(math.log(2.0))
    assert rep["bound"] == pytest.approx(0.0 + expect)  # L(u) = 0 for u_1 = 2


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
                assert rep["terms"]["min_slack"] >= -1e-9, (variant, trigger, seed)
                if variant == "full":
                    assert rep["terms"]["ordering_ok"]
                    assert rep["terms"]["mistake_chain_ok"]
                    assert rep["terms"]["loose_bound"] >= rep["bound"] - 1e-9


def _star(spec):
    from omdkit.data import generate

    return generate(spec).meta["u_star"]


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
    val = pure_log_solve(math.e, n=2.0)
    assert val == pytest.approx(2.0 * math.e * math.log(2.0), abs=1e-12)
    assert val >= math.e
    val1 = affine_log_solve(1.0, 1.0, 1.0, 0.0, n=2.0)
    assert val1 == pytest.approx(2.0 * math.log(2.0 / math.e) + 1.0, abs=1e-12)
    val2 = sqrt_log_solve(1.0, 1.0, 1.0, 1.0)
    scan = implicit_scan(
        lambda x: x <= math.sqrt(math.log(x + 1.0) + 1.0) + 1.0 + 1e-9,
        hi=50.0, step=1e-4)
    assert scan <= val2 + 1e-12


def test_implicit_log_solver_validation():
    with pytest.raises(ValueError):
        pure_log_solve(-1.0)
    with pytest.raises(ValueError):
        affine_log_solve(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sqrt_log_solve(1, 0, 1, 1)


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


def test_composite_displays_audit_only_a_composite_run():
    # the displays count the penalty F in the loss; a schedule wrapper has no F,
    # so its run is audited by the engine bound and the displays refuse it
    from omdkit.learners import GradientDescentLearner
    from omdkit.regularizers import (
        CompositeQuadL1, LinearScheduled, MaxScaled, PNorm, SqrtScheduled,
    )
    from omdkit.bounds import composite_bound

    rng = np.random.default_rng(71)
    d, T = 4, 120
    u_true = rng.normal(size=d)
    X = np.empty((T, d))
    ys = []
    for t in range(T):
        X[t] = rng.normal(size=d)
        ys.append(float(u_true @ X[t]) + 0.3 * rng.normal())
    data = Dataset.from_matrix(X, ys)
    U = np.vstack([np.zeros(d), u_true, 0.5 * u_true])

    def trace_of(reg):
        lrn = GradientDescentLearner(reg, loss="absolute", eta=0.6)
        return RunTrace(data, [lrn.round(x, y) for x, y in zip(X, ys)], lrn)

    for reg in (SqrtScheduled(PNorm(d, 1.5)), LinearScheduled(FixedQuadratic(d)),
                MaxScaled(FixedQuadratic(d))):
        trace = trace_of(reg)
        assert engine_audit(trace, U)["terms"]["min_slack"] >= -1e-9, type(reg).__name__
        with pytest.raises(ValueError, match="CompositeQuadL1"):
            composite_bound(trace, U)
    reports = composite_bound(trace_of(CompositeQuadL1(d, 0.6)), U)
    assert [rep["name"] for rep in reports] == ["composite_sqrt", "composite_general"]
    for rep in reports:
        assert rep["terms"]["min_slack"] >= -1e-9, rep["name"]


@pytest.mark.parametrize("schedule,eta,names", [
    ("sqrt", 1.0, ["composite_sqrt", "composite_general"]),
    ("linear", 1.0, ["composite_linear", "composite_general"]),
    ("linear", 0.5, ["composite_general"]),
    ("constant", 1.0, ["composite_general"]),
])
def test_composite_bound_reads_its_displays_off_the_run(schedule, eta, names):
    # the schedule's own display, where it has one, then the general display; the linear
    # display holds only at eta == 1
    from omdkit.bounds import composite_bound
    from omdkit.harness import canonical_json

    params = {"eta": eta, "lam": 0.1, "ridge": 1.0 if schedule == "linear" else 0.0,
              "schedule": schedule}
    spec = noisy_linear(3, d=3, T=80)
    trace, _, reports = run("composite", params, spec, ("zero", "star"))
    U = np.vstack([np.zeros(3), _star(spec)])
    direct = composite_bound(trace, U)
    assert [rep["name"] for rep in direct] == names
    assert [rep["name"] for rep in reports] == ["engine", *names]
    assert canonical_json(direct) == canonical_json(reports[1:])


def _gradient_trace(reg, loss, eta, spec):
    from omdkit.data import generate
    from omdkit.learners import GradientDescentLearner

    data = generate(spec)
    lrn = GradientDescentLearner(reg, loss, eta)
    return RunTrace(data, [lrn.round(x, y) for x, y in data], lrn)


@pytest.mark.parametrize("schedule,ridge", [("sqrt", 0.0), ("linear", 1.0)])
def test_composite_displays_refuse_a_family_eta_other_than_the_step_eta(schedule, ridge):
    # the displays take f_t = s(t) g + eta t F with the eta of z_t = -eta l'_t; the run
    # below steps with eta 1 over a family built with 0.1, and its engine audit holds
    from omdkit.bounds import composite_bound
    from omdkit.regularizers import CompositeQuadL1

    reg = CompositeQuadL1(5, 0.1, lam=0.3, ridge=ridge, schedule=schedule)
    trace = _gradient_trace(reg, "absolute", 1.0, noisy_linear(0, d=5, T=200))
    U = np.vstack([np.zeros(5), trace.dataset.meta["u_star"]])
    assert engine_audit(trace, U)["terms"]["min_slack"] >= -1e-9
    with pytest.raises(ValueError, match=r"family's eta 0\.1 to be the step eta 1\.0"):
        composite_bound(trace, U)


@pytest.mark.parametrize("scaled,base,loss,eta,named", [
    (True, 1.0, "absolute", 1.0, "loss 'absolute'"),
    (True, 1.0, "square", 3.0, "eta 3.0"),
    (True, 0.5, "square", 1.0, "beta 0.5"),
    (False, 1.0, "square", 1.0, "FixedQuadratic"),
])
def test_adaptive_filter_display_refuses_a_run_it_does_not_cover(scaled, base, loss, eta, named):
    # the display reads X_T off MaxScaled, and needs the square loss's identity and
    # eta = 1 <= beta of the base
    from omdkit.bounds import adaptive_filter_bound
    from omdkit.regularizers import MaxScaled

    reg = FixedQuadratic(5, scale=base)
    trace = _gradient_trace(MaxScaled(reg) if scaled else reg, loss, eta,
                            noisy_linear(0, d=5, T=200))
    with pytest.raises(ValueError, match=f"not .*{named}"):
        adaptive_filter_bound(trace, np.zeros((1, 5)))


def test_vaw_and_af_property_random_runs():
    for seed in range(15):
        spec = noisy_linear(seed, sigma=0.4, d=3, T=100)
        _, _, reports = run("vaw", {"a": 1.0}, spec,
                            comparators=("zero", "star", "grid:R=2,n=15"))
        rep = [r for r in reports if r["name"] == "vaw"][0]
        assert rep["terms"]["min_slack"] >= -1e-9, seed
        _, _, reports = run("adaptive_filter", {}, spec,
                            comparators=("zero", "star", "grid:R=2,n=15", "batch"))
        rep = [r for r in reports if r["name"] == "adaptive_filter"][0]
        assert rep["terms"]["min_slack"] >= -1e-9, seed


def test_filter_and_scale_invariant_reports_through_harness():
    trace, _, reports = run("adaptive_filter", {}, noisy_linear(2, d=3, T=100),
                            comparators=("zero", "star", "grid:R=2,n=15"))
    af = [r for r in reports if r["name"] == "adaptive_filter"][0]
    assert af["terms"]["min_slack"] >= -1e-9
    trace, _, reports = run("scaleinv_diag", {"eta": 0.5}, sparse_target(2, k=2, d=3, T=100),
                            comparators=("zero", "star", "grid:R=2,n=15"))
    th = [r for r in reports if r["name"] == "scale_invariant_diag"][0]
    assert th["terms"]["min_slack"] >= -1e-6
    # scale-invariant display check: d=1 diag, L=1, b=1, eta=1, T=4 -> sqrt(5)(u^2/2 + 1)
    from omdkit.learners import GradientDescentLearner
    from omdkit.regularizers import ScaleInvDiag

    lrn = GradientDescentLearner(ScaleInvDiag(1, 1.0), "absolute", 1.0)
    recs = [lrn.round(np.array([1.0]), 0.5) for _ in range(4)]
    trace = RunTrace(Dataset.from_matrix(np.ones((4, 1)), [0.5] * 4), recs, lrn)
    from omdkit.bounds import scale_invariant_bound

    rep = scale_invariant_bound(trace, np.array([[2.0]]))
    assert rep["bound"] == pytest.approx(math.sqrt(5.0) * (2.0 + 1.0))


def test_diag_rare_feature_refinement_on_heavy_tail():
    spec = heavy_tail(4, zipf=1.6, d=12, T=250)
    trace, _, _ = run("second_order",
                      {"r": 1.0, "variant": "diagonal", "trigger": "mistake"},
                      spec, audit=False)
    star = _star(spec)
    X = trace.dataset.X
    upd = [i for i, rec in enumerate(trace.records) if rec.eta > 0.0]
    csum = (X[upd] ** 2).sum(axis=0)
    s_min = float(np.sum(star ** 2 * csum) / float(star @ star))
    rep = diag_rare_feature_refinement(trace)
    assert rep["terms"]["s"] == pytest.approx(s_min, rel=1e-12)
    assert rep["measured"] <= rep["bound"] + 1e-9
    # scan oracle for the implicit inequality must be dominated
    a, b = rep["terms"]["a"], rep["terms"]["b"]
    L_u = rep["terms"]["L_u"]
    scan = implicit_scan(
        lambda x: x <= math.sqrt(a * math.log(b * x + 1.0)) + L_u + 1e-9,
        hi=max(10.0 * rep["bound"], 50.0), step=rep["bound"] / 2000.0)
    assert scan <= rep["bound"] + 1e-9
    # a run that is not conservative (an update round with a positive margin) gets +inf
    trace, _, _ = run("second_order", {"r": 1.0, "variant": "diagonal", "trigger": "omd"},
                      spec, audit=False)
    rep2 = diag_rare_feature_refinement(trace)
    assert rep2["terms"]["U_used"] > 0 and rep2["bound"] == math.inf


def test_diag_rare_feature_refinement_needs_the_run_target(tmp_path):
    # a parsed file embeds no u_star: the audit leaves the refinement out, which refuses the run
    from omdkit.data import generate, write_svmlight
    from omdkit.harness import run_experiment

    path = tmp_path / "d.svm"
    write_svmlight(generate(separable(1, d=3, T=40)), path)
    config = {"learner": "second_order", "params": {"variant": "diagonal", "trigger": "mistake"},
              "data": {"kind": "file", "path": str(path)}, "comparators": ["zero"]}
    trace, summary = run_experiment(config)
    assert [r["name"] for r in summary["reports"]] == ["engine", "second_order_diagonal"]
    with pytest.raises(ValueError, match="needs the run's target u_star"):
        diag_rare_feature_refinement(trace)


def test_run_totals_add_left_to_right():
    # compensated summation (the builtin sum from CPython 3.12) would give 1.0 here
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    trace, summary, _ = run("vaw", {"a": 1.0}, noisy_linear(1, sigma=0.2, d=10, T=200))
    losses = [r.loss for r in trace.records]
    assert summary["cumulative_loss"] == functools.reduce(operator.add, losses, 0)


def test_the_audit_checks_each_conservative_diagonal_run_at_s_min():
    # every diagonal second-order run on generator data is audited for the refinement;
    # only the conservative ones list it, and no report carries an infinite bound
    listed = 0
    for d, T, seed, gen, trigger in itertools.product(
            (2, 10), (10, 200), range(5), (separable, heavy_tail), ("omd", "arow", "mistake")):
        spec = gen(seed, d=d, T=T)
        params = {"variant": "diagonal", "trigger": trigger}
        trace, _, reports = run("second_order", params, spec, ("zero", "star"))
        assert not report_violations(reports), (spec, trigger)
        assert all(math.isfinite(r["bound"]) for r in reports), (spec, trigger)
        conservative = not any(rec.eta > 0.0 and rec.extras["margin_w"] * rec.label > 0.0
                               for rec in trace.records)
        names = [r["name"] for r in reports]
        assert ("diag_refinement" in names) == conservative, (spec, trigger)
        listed += conservative
    assert listed > 0
    # a conservative run whose u_star squares past the float range: the refinement's bound is
    # not finite, so the audit leaves it out, and raises no overflow warning on the way
    spec = rescaled(separable(1, d=2, T=20), [1e-200, 1e-200])
    _, _, reports = run("second_order", {"variant": "diagonal", "trigger": "mistake"}, spec)
    assert [r["name"] for r in reports] == ["engine", "second_order_diagonal"]


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


@pytest.mark.parametrize("T,d", [(60, 5), (20, 2000)])
def test_square_batch_comparator_descends_on_the_gradient_without_a_d_by_d_matrix(T, d):
    # X^T (X u - y) from the Gram matrix where T >= d, from two matrix-vector products
    # where d > T, which allocate nothing of size d x d
    import tracemalloc

    rng = np.random.default_rng(61)
    X, y = rng.normal(size=(T, d)), rng.normal(size=T)
    tracemalloc.start()
    try:
        got = batch_comparator(X, y, kind="square")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if d > T:
        assert peak < 8 * d * d // 4
    u, acc = np.zeros(d), np.zeros(d)
    for s in range(1, BATCH_STEPS + 1):
        g = ((X @ u - y)[:, None] * X).sum(axis=0)
        u = u - (BATCH_RADIUS / math.sqrt(s)) * g / np.linalg.norm(g)
        u = u * min(1.0, BATCH_RADIUS / np.linalg.norm(u))
        acc += u
    ref = acc / BATCH_STEPS
    if d <= T:
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)
    else:  # near an interpolating u the normalized step amplifies rounding: compare losses
        loss = lambda w: 0.5 * float(np.sum((X @ w - y) ** 2))
        assert abs(loss(got) - loss(ref)) <= 0.05 * loss(ref) and loss(got) < loss(0 * ref)


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
            cfg = gen_config(name, params, spec, ("zero", "star"))
            trace, _ = run_experiment(cfg, audit=False)
            U = comparator_matrix(cfg["comparators"], trace.dataset, trace.learner)
            # the oracle: the same audit over Z = sum_t z_t, summed as a stacked array
            summed = copy.copy(trace.learner)
            summed.theta = np.sum([r.z for r in trace.records], axis=0)
            got, expect = (canonical_json(engine_audit(RunTrace(trace.dataset, trace.records,
                                                                lrn), U))
                           for lrn in (trace.learner, summed))
            assert got == expect, (name, params, d)
