import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    audited_learner_suite,
    gen_config,
    heavy_tail,
    noisy_linear,
    run,
    separable,
    sparse_target,
)
from omdkit.harness import LEARNERS
from omdkit.linalg import RankOneInverse
from omdkit.learners import (
    FirstOrderClassifier,
    GradientDescentLearner,
    OnlineLearner,
    SecondOrderClassifier,
    VAWRegressor,
)
from omdkit.regularizers import (
    FixedQuadratic,
    GrowingQuadratic,
    MaxScaled,
    PNorm,
    ScaleInvDiag,
    ScaleInvPNorm,
)


def test_omd_step_identity_mirror():
    lrn = OnlineLearner(FixedQuadratic(2))
    lrn.apply_update([1.0, 2.0])
    assert lrn.w.tolist() == [1.0, 2.0]
    lrn.apply_update([0.0, 0.0])
    assert lrn.w.tolist() == [1.0, 2.0]


def test_omd_step_growing_quadratic():
    reg = GrowingQuadratic(2, r=1.0)
    reg.update([1.0, 0.0])  # A = diag(2, 1)
    lrn = OnlineLearner(reg)
    lrn.apply_update([2.0, 2.0])
    assert np.allclose(lrn.w, [1.0, 2.0])


def test_first_order_perceptron_first_step():
    lrn = FirstOrderClassifier(FixedQuadratic(2), eta_mode="conservative")
    rec = lrn.round([1.0, 0.0], 1.0)
    assert rec.mistake and rec.eta == 1.0
    assert rec.z.tolist() == [1.0, 0.0]
    assert lrn.w.tolist() == [1.0, 0.0]


def test_first_order_pa_eta_formula():
    lrn = FirstOrderClassifier(FixedQuadratic(2), eta_mode="pa_optimal")
    lrn.round([1.0, 0.0], 1.0)  # mistake, w = e1, X = 1
    # margin 0.5 via x = (0.5, 0): eta = (1 - 1*0.5)/0.25 = 2 -> clipped to 1
    rec = lrn.round([0.5, 0.0], 1.0)
    assert rec.margin_error and rec.eta == 1.0
    # rebuild a margin exactly 0.5 with unit x: step theta from e1 back to 0.5 e1
    lrn2 = FirstOrderClassifier(FixedQuadratic(2), eta_mode="pa_optimal")
    lrn2.round([1.0, 0.0], 1.0)
    lrn2.apply_update([-0.5, 0.0])
    rec = lrn2.round([1.0, 0.0], 1.0)
    assert rec.eta == pytest.approx(0.5)


def test_first_order_passive_case():
    lrn = FirstOrderClassifier(FixedQuadratic(2), eta_mode="pa_optimal")
    lrn.apply_update([1.2, 0.0])
    rec = lrn.round([1.0, 0.0], 1.0)
    assert rec.loss == 0.0 and rec.eta == 0.0 and not rec.z.any()


def test_first_order_rejects_bad_labels():
    lrn = FirstOrderClassifier(FixedQuadratic(2))
    with pytest.raises(ValueError):
        lrn.round([1.0, 0.0], 0.5)


def test_second_order_first_steps():
    lrn = SecondOrderClassifier(2, r=1.0, variant="full", trigger="omd")
    rec = lrn.round([1.0, 0.0], 1.0)
    assert rec.mistake and rec.prediction == 0.0 and rec.extras["chi"] == 1.0
    # A_1 = diag(2,1); repeat x: m = 0.5, chi = 0.5, post margin = 1/3
    rec2 = lrn.round([1.0, 0.0], 1.0)
    assert rec2.prediction == pytest.approx(0.5)
    assert rec2.extras["chi"] == pytest.approx(0.5)
    assert rec2.extras["margin_w"] == pytest.approx(1.0 / 3.0)


def _second_order_run(dim, rounds=40):
    """(records, final w) of a full-variant second-order run on seeded Gaussian rows."""
    rng = np.random.default_rng(dim)
    lrn = SecondOrderClassifier(dim, r=1.0, variant="full", trigger="omd")
    recs = [lrn.round(rng.normal(size=dim), 1.0 if rng.random() < 0.5 else -1.0)
            for _ in range(rounds)]
    return recs, lrn.w


@pytest.mark.parametrize("dim", [3, 60])
def test_second_order_update_round_reuses_its_applied_inverse(monkeypatch, dim):
    # an update round applies A_{t-1}^{-1} to x_t once, for m and chi, and that vector
    # feeds the rank-one update; the other apply is w_t's
    applies = []
    apply = RankOneInverse.apply
    monkeypatch.setattr(RankOneInverse, "apply",
                        lambda self, v: applies.append(1) or apply(self, v))
    lrn = SecondOrderClassifier(dim, r=1.0, variant="full", trigger="omd")
    rng = np.random.default_rng(7)
    updates = 0
    for _ in range(30):
        applies.clear()
        rec = lrn.round(rng.normal(size=dim), 1.0)
        assert len(applies) == (2 if rec.eta > 0.0 else 1)
        updates += rec.eta > 0.0
    assert updates
    monkeypatch.undo()
    # the bits are those of an update that applies the inverse itself
    reused = _second_order_run(dim)
    update = RankOneInverse.update
    monkeypatch.setattr(RankOneInverse, "update", lambda self, x, u=None: update(self, x))
    recomputed = _second_order_run(dim)
    assert reused[1].tobytes() == recomputed[1].tobytes()
    for a, b in zip(reused[0], recomputed[0]):
        assert repr(vars(a)) == repr(vars(b))


def test_second_order_zero_input():
    lrn = SecondOrderClassifier(2, r=1.0)
    rec = lrn.round([0.0, 0.0], -1.0)
    assert rec.loss == 1.0 and not rec.z.any()
    assert lrn.reg.tracker.logdet == 0.0
    assert not lrn.theta.any()


def test_second_order_diagonal_first_step():
    lrn = SecondOrderClassifier(2, r=1.0, variant="diagonal")
    lrn.round([1.0, 0.0], 1.0)
    assert lrn.reg.tracker.diag.tolist() == [2.0, 1.0]
    assert np.allclose(lrn.w, [0.5, 0.0])
    rec = lrn.round([1.0, 0.0], 1.0)
    assert rec.prediction == pytest.approx(0.5)


def test_second_order_margin_sign_agreement():
    # per-state claim: the pre-update margin m and the post-update margin
    # m * r/(r+chi) share a sign at every round, for both triggers
    rng = np.random.default_rng(2)
    for trigger in ("omd", "arow"):
        lrn = SecondOrderClassifier(4, r=0.8, variant="full", trigger=trigger)
        for _ in range(120):
            x = rng.normal(size=4)
            y = 1.0 if rng.random() < 0.5 else -1.0
            rec = lrn.round(x, y)
            m = rec.prediction
            omd_margin = m * 0.8 / (0.8 + rec.extras["chi"])
            assert np.sign(m) == np.sign(omd_margin)


def test_vaw_examples():
    lrn = VAWRegressor(1, a=1.0)
    assert lrn.round([1.0], 1.0).prediction == 0.0
    assert lrn.theta.tolist() == [1.0]
    # second round: A = 3, prediction 1/3
    assert lrn.round([1.0], 1.0).prediction == pytest.approx(1.0 / 3.0)
    # x = 0 contributes nothing: prediction 0, theta unchanged
    rec = lrn.round([0.0], 5.0)
    assert rec.prediction == 0.0
    assert lrn.theta.tolist() == [2.0]


def test_vaw_zero_labels_never_move():
    rng = np.random.default_rng(4)
    lrn = VAWRegressor(3, a=2.0)
    for _ in range(50):
        rec = lrn.round(rng.normal(size=3), 0.0)
        assert rec.prediction == 0.0
    assert not lrn.theta.any()


_VAW_GENERATORS = {
    "noisy_linear": noisy_linear,
    "sparse_target": lambda seed, d, T: sparse_target(seed, k=min(3, d), d=d, T=T),
    "heavy_tail": heavy_tail,
    "separable": separable,
}


@pytest.mark.parametrize("gen", sorted(_VAW_GENERATORS))
@pytest.mark.parametrize("d", [1, 5, 60])
def test_vaw_predicts_with_x_t_already_in_a_t(gen, d):
    # the ridge oracle: w_t.x_t = theta_{t-1}.solve(aI + sum_{s<=t} x_s x_s^T, x_t), and
    # theta is sum_t y_t x_t, summed in round order
    assert 5 <= RankOneInverse.DENSE_DIM < 60  # both the dense and the blocked inverse
    for seed in range(3):
        for a in (0.5, 1.0, 3.0):
            trace, _, _ = run("vaw", {"a": a}, _VAW_GENERATORS[gen](seed, d=d, T=80),
                              audit=False)
            A, theta = a * np.eye(d), np.zeros(d)
            for (x, y), rec in zip(trace.dataset, trace.records, strict=True):
                A += np.outer(x, x)
                pred = float(theta @ np.linalg.solve(A, x))
                tol = 1e-12 * np.abs(theta).sum() * np.abs(x).sum() / a
                assert abs(rec.prediction - pred) <= tol, (seed, a, rec.t)
                theta = theta + y * x
            assert trace.learner.theta.tobytes() == theta.tobytes(), (seed, a)


def test_adaptive_filter_example():
    lrn = LEARNERS["adaptive_filter"][0](2, {})
    rec = lrn.round([1.0, 0.0], 2.0)
    assert rec.prediction == 0.0 and rec.loss == 2.0
    assert rec.z.tolist() == [2.0, 0.0]
    assert np.allclose(lrn.w, [2.0, 0.0])
    rec = lrn.round([1.0, 0.0], 2.0)
    assert rec.prediction == 2.0 and rec.loss == 0.0
    assert not rec.z.any()


@pytest.mark.parametrize("gen", [noisy_linear, sparse_target, heavy_tail, separable])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adaptive_filter_is_lms_scaled_by_the_running_max_input_norm(gen, seed):
    # the plain recurrence: X_t = max(X_{t-1}, ||x_t||), w_t = theta / X_t^2 (0 before any
    # nonzero input), theta += (y_t - w_t.x_t) x_t; the CLI learner must match it bit for bit
    trace, _, _ = run("adaptive_filter", {}, gen(seed, d=5, T=60), audit=False)
    x_max, theta = 0.0, np.zeros(5)
    for (x, y), rec in zip(trace.dataset, trace.records, strict=True):
        x_max = max(x_max, math.sqrt(x @ x))
        w = theta / (x_max * x_max) if x_max else np.zeros(5)
        pred = float(w @ x)
        resid = y - pred
        assert (rec.prediction, rec.loss) == (pred, 0.5 * resid * resid), rec.t
        theta = theta + resid * x
    assert trace.learner.theta.tobytes() == theta.tobytes()


def test_scale_invariant_trivial_cases():
    lrn = GradientDescentLearner(ScaleInvPNorm(2, 1.0), "absolute", 1.0)
    assert not lrn.w.any()
    # d=1, L=1, b=1, no gradient history: prediction-time w equals theta
    lrn_d = GradientDescentLearner(ScaleInvDiag(1, 1.0), "absolute", 1.0)
    lrn_d.apply_update([0.5])
    rec = lrn_d.round([1.0], 5.0)
    assert rec.prediction == pytest.approx(0.5)


def test_scale_invariant_prediction_invariance():
    rng = np.random.default_rng(8)
    d, T = 4, 80
    xs = rng.normal(size=(T, d))
    ys = rng.normal(size=T)
    factors = np.array([1000.0, 1.0, 0.001, 7.3])
    for family in (ScaleInvPNorm, ScaleInvDiag):
        a = GradientDescentLearner(family(d, 1.0), "absolute", 0.7)
        b = GradientDescentLearner(family(d, 1.0), "absolute", 0.7)
        pa, pb = [], []
        for t in range(T):
            pa.append(a.round(xs[t], ys[t]).prediction)
            pb.append(b.round(xs[t] * factors, ys[t]).prediction)
        pa, pb = np.array(pa), np.array(pb)
        scale = max(np.abs(pa).max(), 1e-12)
        assert np.max(np.abs(pa - pb)) / scale < 1e-6, family.__name__


def test_state_invariant_w_is_mirror_of_theta():
    for name, params, spec in audited_learner_suite(d=5, T=60, seed=9):
        trace, _, _ = run(name, params, spec, audit=False)
        lrn = trace.learner
        assert np.max(np.abs(lrn.w - lrn.reg.mirror_map(lrn.theta))) < 1e-12, name


def test_step_outcome_flag_invariants():
    for name, params, spec in audited_learner_suite(d=4, T=120, seed=6):
        trace, _, _ = run(name, params, spec, audit=False)
        for rec in trace.records:
            assert not (rec.mistake and rec.margin_error), name
            if rec.margin_error:
                assert rec.loss > 0.0, name
                assert rec.prediction * rec.label > 0.0, name
            assert rec.loss >= 0.0


def test_conservative_matches_classic_perceptron():
    rng = np.random.default_rng(12)
    d, T = 6, 300
    lrn = FirstOrderClassifier(FixedQuadratic(d), eta_mode="conservative")
    w = np.zeros(d)
    for _ in range(T):
        x = rng.normal(size=d)
        y = 1.0 if rng.random() < 0.5 else -1.0
        rec = lrn.round(x, y)
        oracle_mistake = y * float(w @ x) <= 0.0
        if oracle_mistake:
            w = w + y * x
        assert rec.mistake == oracle_mistake
    assert np.allclose(lrn.w, w)


def test_pnorm_conservative_matches_pnorm_oracle_mistakes():
    rng = np.random.default_rng(14)
    d, T, p = 4, 200, 1.5
    lrn = FirstOrderClassifier(PNorm(d, p), eta_mode="conservative")
    reg = PNorm(d, p)
    theta = np.zeros(d)
    for _ in range(T):
        x = rng.normal(size=d)
        y = 1.0 if rng.random() < 0.5 else -1.0
        w = reg.mirror_map(theta)
        rec = lrn.round(x, y)
        oracle_mistake = y * float(w @ x) <= 0.0
        if oracle_mistake:
            theta = theta + y * x
        assert rec.mistake == oracle_mistake


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_a_row_of_the_wrong_length_is_rejected_where_it_enters(name):
    # the learner converts a row once; the regularizer and tracker methods check nothing
    factory, defaults = LEARNERS[name]
    row = np.ones(2)
    lrn = factory(3, defaults)
    for enter in (lambda: lrn.round(row, 1.0), lambda: lrn.apply_update(row)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            enter()


def test_scale_invariant_rejects_square_loss():
    with pytest.raises(ValueError):
        GradientDescentLearner(ScaleInvPNorm(2, 1.0), "square")


@pytest.mark.parametrize("family", [ScaleInvPNorm, ScaleInvDiag])
def test_a_scale_invariant_family_takes_losses_up_to_its_lipschitz_constant(family):
    # the loss's constant may pass L by the per-round slack of 1e-12, not more
    GradientDescentLearner(family(2, 1.0 - 1e-13), "absolute")
    with pytest.raises(ValueError, match=r"^loss 'hinge' is 1.0-Lipschitz in the prediction, "
                                         r"above the regularizer's Lipschitz constant 0.5$"):
        GradientDescentLearner(family(2, 0.5), "hinge")
    # a library caller's hinge label off {-1, +1} gives a subgradient past L in that round
    lrn = GradientDescentLearner(family(2, 2.0), "hinge")
    lrn.round([1.0, 0.0], 2.0)
    with pytest.raises(ValueError, match=r"^round 2: loss subgradient -3.0 exceeds the "
                                         r"declared Lipschitz constant 2.0$"):
        lrn.round([0.0, 1.0], 3.0)


@pytest.mark.parametrize("family", [ScaleInvPNorm, ScaleInvDiag])
def test_gradient_descent_over_a_scale_invariant_family_is_the_cli_regressor(family):
    # the golden scaleinv_* run driven by hand: the same records bit for bit, the same audit
    from omdkit.bounds import RunTrace, audit_reports
    from omdkit.data import generate
    from omdkit.harness import canonical_json, comparator_matrix, run_experiment

    name = {ScaleInvPNorm: "scaleinv_pnorm", ScaleInvDiag: "scaleinv_diag"}[family]
    config = gen_config(name, {}, noisy_linear(1, d=5, T=60), ("zero", "star"))
    cli_trace, summary = run_experiment(config)
    dataset = generate(config["data"]["spec"])
    lrn = GradientDescentLearner(family(5, 1.0), "absolute", 1.0)
    records = [lrn.round(x, y) for x, y in dataset]
    assert len(records) == len(cli_trace.records) == 60
    for mine, theirs in zip(records, cli_trace.records):
        assert canonical_json(vars(mine)) == canonical_json(vars(theirs)), mine.t
    U = comparator_matrix(config["comparators"], dataset, lrn)
    reports = audit_reports(RunTrace(dataset, records, lrn), U)
    assert [rep["name"] for rep in reports] == ["engine", f"scale_invariant_{family.kind}"]
    assert canonical_json(reports) == canonical_json(summary["reports"])


def _reference_engine(monkeypatch):
    """The engine step before copy-free snapshots: deepcopy f_{t-1}, derive w eagerly.

    It also keeps the step from before f_0 was defined, which skipped f_{t-1}
    in the first round of a GradientDescentLearner. It takes the residue
    through the family's residue hook, as the engine does, but hands it the
    deep copy; test_growing_quadratic_residue_matches_the_exact_residue holds
    the growing quadratic's closed form to the difference of the conjugates.
    It drops the A_{t-1}^{-1} x_t that the second-order classifier passes,
    so the rank-one update computes it itself.
    """
    import copy

    def apply_update(self, z):
        self.theta = self.theta + np.asarray(z, dtype=np.float64)
        self._w = self.reg.mirror_map(self.theta)

    def _advance(self, x, u=None):
        prev = copy.deepcopy(self.reg) if self.reg.time_varying else None
        self.reg.observe_input(x)
        self._w = self.reg.mirror_map(self.theta)
        if prev is None:
            return 0.0, 0.0
        if isinstance(self, GradientDescentLearner) and self.t == 1:
            return float(self.reg.conjugate(self.theta)), 0.0
        residue = self.reg.residue(prev, self.theta, self.reg.conjugate(self.theta))
        return float(residue), float(self.reg.value_drop(prev, self.w))

    monkeypatch.setattr(OnlineLearner, "apply_update", apply_update)
    monkeypatch.setattr(OnlineLearner, "_advance", _advance)


def test_engine_matches_the_deepcopy_reference_bit_for_bit(monkeypatch):
    from omdkit.harness import canonical_json

    suite = audited_learner_suite(d=6, T=80, seed=4)
    suite += [("composite", {"eta": 0.7, "lam": 0.1, "schedule": schedule}, suite[-1][2])
              for schedule in ("sqrt", "constant")]
    suite.append(("composite", {"eta": 0.7, "lam": 0.1, "ridge": 0.5, "schedule": "linear"},
                  suite[-1][2]))

    def outcomes():
        out = []
        for name, params, spec in suite:
            trace, _, _ = run(name, params, spec, audit=False)
            lrn = trace.learner
            if lrn.reg.time_varying:
                assert any(r.residue != 0.0 for r in trace.records), name
            out.append([canonical_json({**vars(r), "z": list(r.z)}) for r in trace.records]
                       + [lrn.theta.tobytes(), np.asarray(lrn.w).tobytes()])
        return out

    shallow = outcomes()
    _reference_engine(monkeypatch)
    deep = outcomes()
    for (name, _params, _spec), got, expect in zip(suite, shallow, deep):
        assert got == expect, name


def _drop_errors(learner, dataset):
    """Relative error of each update round's reg_drop against the exact drop.

    The exact drop is -(x_t . w_t)^2 / (2r), computed in rationals from the
    float operands: the row, the w_t that f_t maps theta_t to, and r.
    """
    r = Fraction(learner.reg.r)
    errors = []
    for x, y in dataset:
        theta = learner.theta
        rec = learner.round(x, y)
        if rec.eta <= 0.0:
            continue
        w = learner.reg.mirror_map(theta)
        v = sum(Fraction(a) * Fraction(b) for a, b in zip(x.tolist(), w.tolist()))
        exact = -v * v / (2 * r)
        if exact == 0:
            assert rec.reg_drop == 0.0
            continue
        errors.append(float(abs((Fraction(rec.reg_drop) - exact) / exact)))
    return errors


@pytest.mark.parametrize("d,T", [(10, 200), (300, 300)])
def test_growing_quadratic_drop_matches_the_exact_drop(d, T):
    from omdkit.data import generate

    cases = [(VAWRegressor(d, a=1.0), generate(noisy_linear(7, d=d, T=T))),
             (SecondOrderClassifier(d, r=1.0, variant="full"), generate(separable(7, d=d, T=T)))]
    for learner, dataset in cases:
        errors = _drop_errors(learner, dataset)
        assert len(errors) > T // 10
        assert max(errors) <= 1e-9, type(learner).__name__


_UNIT = 2 ** 1074  # every finite float64 is an integer multiple of 2^-1074


def _units(a):
    """The floats of a as exact integer multiples of 2^-1074."""
    mant, expo = np.frexp(np.ravel(a))  # a = mant * 2^expo with 53-bit mant
    ints = (mant * 2.0 ** 53).astype(np.int64).tolist()
    return [n << s if s >= 0 else n >> -s for n, s in zip(ints, (expo + 1021).tolist())]


def _exact_conj(tracker, theta, with_base):
    """1/2 theta^T (base - V^T diag(c) V) theta of a RankOneInverse's floats, in rationals;
    without the base term if with_base is false."""
    t = _units(theta)
    pending = sum(c * sum(v * tj for v, tj in zip(_units(row), t)) ** 2
                  for c, row in zip(_units(tracker.c), tracker.V))
    out = -Fraction(pending, _UNIT ** 5) / 2
    if with_base:
        base = sum(ti * sum(b * tj for b, tj in zip(_units(row), t))
                   for ti, row in zip(t, tracker.base))
        out += Fraction(base, _UNIT ** 3) / 2
    return out


@pytest.mark.parametrize("d,T", [(10, 200), (300, 60)])
def test_growing_quadratic_residue_matches_the_exact_residue(d, T):
    # the closed form against the deepcopy reference's f*_t(theta) - f*_{t-1}(theta), the
    # two conjugates of the tracker's own floats taken in rationals; the base terms cancel
    # exactly between folds
    import copy

    from omdkit.data import generate

    cases = [(VAWRegressor(d, a=1.0), generate(noisy_linear(7, d=d, T=T))),
             (SecondOrderClassifier(d, r=1.0, variant="full"), generate(separable(7, d=d, T=T)))]
    for learner, dataset in cases:
        errors, folds = [], 0
        for x, y in dataset:
            prev, theta = copy.deepcopy(learner.reg).tracker, learner.theta
            rec = learner.round(x, y)
            if rec.eta <= 0.0:
                continue
            now = learner.reg.tracker
            fold = now.base.tobytes() != prev.base.tobytes()
            folds += fold
            exact = _exact_conj(now, theta, fold) - _exact_conj(prev, theta, fold)
            if exact == 0:
                assert rec.residue == 0.0
                continue
            errors.append(float(abs((Fraction(rec.residue) - exact) / exact)))
        assert len(errors) > T // 10 and folds >= 2, type(learner).__name__
        assert max(errors) <= 1e-9, type(learner).__name__


@pytest.mark.parametrize("family", ["scaleinv_diag", "scaleinv_pnorm", "growing_quadratic",
                                    "max_scaled"])
def test_gradient_descent_advances_every_input_driven_family(family):
    # every family moves through observe_input, whichever learner drives it
    from omdkit.bounds import RunTrace, engine_audit
    from omdkit.data import generate

    d, T = 4, 40
    reg = {"scaleinv_diag": lambda: ScaleInvDiag(d, lipschitz=1.0),
           "scaleinv_pnorm": lambda: ScaleInvPNorm(d, lipschitz=1.0),
           "growing_quadratic": lambda: GrowingQuadratic(d, r=1.0),
           "max_scaled": lambda: MaxScaled(FixedQuadratic(d))}[family]()
    dataset = generate(noisy_linear(3, d=d, T=T))
    lrn = GradientDescentLearner(reg, loss="absolute", eta=0.5)
    records = [lrn.round(x, y) for x, y in dataset]
    if family == "growing_quadratic":
        assert reg.rows[0] == T and reg.tracker.logdet > 0.0
    elif family == "max_scaled":
        assert reg.x_max == max(float(np.linalg.norm(x)) for x, _ in dataset)
    else:
        assert (reg.b == np.abs(dataset.X).max(axis=0)).all()
    assert sum(r.z.any() for r in records) > T // 2
    assert all(r.beta > 0.0 for r in records)
    U = np.vstack([np.zeros(d), dataset.meta["u_star"]])
    rep = engine_audit(RunTrace(dataset, records, lrn), U)
    assert rep["slack"] >= -1e-9 and rep["terms"]["max_residue_gap"] <= 1e-9, rep


def _new_maxima(X, family):
    """The rounds whose row sets a new running maximum of what f reads off x_t: the
    Euclidean norm for MaxScaled, else some |x_ti|, or the support size for ScaleInvPNorm."""
    if family is MaxScaled:
        norms = np.linalg.norm(X, axis=1)
        return int((norms > np.maximum.accumulate(np.concatenate([[0.0], norms[:-1]]))).sum())
    A = np.abs(X)
    b = np.maximum.accumulate(np.vstack([np.zeros(X.shape[1]), A[:-1]]), axis=0)
    moved = (A > b).any(axis=1)
    if family is ScaleInvPNorm:
        nnz = np.count_nonzero(X, axis=1)
        moved |= nnz > np.maximum.accumulate(np.concatenate([[0], nnz[:-1]]))
    return int(moved.sum())


@pytest.mark.parametrize("learner,family", [("adaptive_filter", MaxScaled),
                                            ("scaleinv_pnorm", ScaleInvPNorm),
                                            ("scaleinv_diag", ScaleInvDiag)])
def test_the_engine_evaluates_f_prev_only_where_the_input_moved_f(monkeypatch, learner, family):
    # both differences are x - x on every other round, with no hook run
    from collections import Counter

    from omdkit.data import generate

    calls = Counter()
    for hook in ("residue", "value_drop"):
        def counted(self, *args, _hook=getattr(family, hook), _name=hook):
            calls[_name] += 1
            return _hook(self, *args)
        monkeypatch.setattr(family, hook, counted)
    expect = 0
    for seed in range(5):
        spec = noisy_linear(seed, d=10, T=200)
        run(learner, {}, spec, audit=False)
        expect += _new_maxima(generate(spec).X, family)
    assert 0 < expect < 5 * 200
    assert calls == {"residue": expect, "value_drop": expect}
