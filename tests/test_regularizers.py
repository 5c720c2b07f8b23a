import functools
import math

import numpy as np
import pytest

from helpers import regularizer_families, strong_convexity_gap
from lemmas import fd_gradient
from omdkit.oracles import GridSpec, numeric_argmax
from omdkit.regularizers import (
    CompositeQuadL1,
    FixedQuadratic,
    GrowingQuadratic,
    LinearScheduled,
    MaxScaled,
    PNorm,
    ScaleInvDiag,
    ScaleInvPNorm,
    SqrtScheduled,
    WeightedQNorm,
)

E = math.e


def test_value_examples():
    assert float(FixedQuadratic(2).value([3.0, 4.0])) == 12.5
    assert float(WeightedQNorm(1, 2.0, [4.0]).value([1.0])) == 2.0
    got = float(WeightedQNorm(2, 1.5, [1.0, 1.0]).value([1.0, 1.0]))
    assert got == pytest.approx(2.0 ** (4.0 / 3.0), abs=1e-12)


def test_conjugate_examples():
    assert FixedQuadratic(2).conjugate([3.0, 4.0]) == 12.5
    assert WeightedQNorm(1, 2.0, [4.0]).conjugate([1.0]) == pytest.approx(0.125)
    assert WeightedQNorm(2, 1.5, [1.0, 1.0]).conjugate([1.0, 0.0]) == pytest.approx(0.25)


def test_mirror_map_examples():
    assert FixedQuadratic(2).mirror_map([2.0, -3.0]).tolist() == [2.0, -3.0]

    gq = GrowingQuadratic(2, r=1.0)
    gq.update([1.0, 0.0])  # A = diag(2, 1)
    assert np.allclose(gq.mirror_map([2.0, 2.0]), [1.0, 2.0])

    comp = CompositeQuadL1(3, eta=1.0, lam=1.5, quad=1.0, schedule="constant")
    comp.advance_step()  # c = 1, threshold = 1.5
    assert np.allclose(comp.mirror_map([2.0, -1.0, 0.0]), [0.5, 0.0, 0.0])


def test_strong_convexity_examples():
    assert FixedQuadratic(2).strong_convexity() == 1.0
    assert PNorm(2, 1.5).strong_convexity() == 0.5
    reg = ScaleInvPNorm(8, lipschitz=1.0)
    reg.observe_input(np.ones(8))  # m=8, p = 2 ln 8
    p1 = 2.0 * math.log(8.0)
    assert reg.strong_convexity() == pytest.approx(math.sqrt(E * (p1 - 1.0)), abs=1e-12)
    assert reg.strong_convexity() == pytest.approx(2.930, abs=1e-3)


def test_dual_norm_examples():
    assert FixedQuadratic(2).dual_norm([3.0, 4.0]) == 5.0
    wq = WeightedQNorm(2, 2.0, [4.0, 1.0])
    assert wq.dual_norm([2.0, 1.0]) == pytest.approx(math.sqrt(2.0))
    for reg in regularizer_families(2).values():
        assert reg.dual_norm(np.zeros(2)) == 0.0


def test_advance_examples():
    reg = ScaleInvPNorm(2, lipschitz=1.0)
    reg.observe_input(np.array([1.0, 2.0]))
    reg.observe_input(np.array([3.0, 1.0]))
    assert reg.b.tolist() == [3.0, 2.0]
    assert reg.m == 2

    sid = ScaleInvDiag(1, lipschitz=1.0)
    sid.observe_input(np.array([1.0]))
    sid.observe_gradient(np.array([2.0]))
    assert sid.gs.tolist() == [4.0]


def test_conjugate_and_mirror_map_reject_a_point_of_the_wrong_length():
    for reg in regularizer_families(3).values():
        for method in (reg.conjugate, reg.mirror_map):
            with pytest.raises(ValueError, match="dimension mismatch"):
                method(np.ones(2))


def test_composite_invalid_parameters():
    with pytest.raises(ValueError):
        CompositeQuadL1(2, eta=1.0, schedule="linear")  # no ridge
    with pytest.raises(ValueError):
        CompositeQuadL1(2, eta=-1.0)
    with pytest.raises(ValueError):
        WeightedQNorm(2, 2.5, [1.0, 1.0])
    with pytest.raises(ValueError):
        PNorm(2, 1.0)


def test_unseen_coordinates_stay_zero():
    reg = ScaleInvPNorm(3, lipschitz=1.0)
    reg.observe_input([1.0, 0.0, 2.0])
    w = reg.mirror_map([0.5, 0.0, -0.5])
    assert w[1] == 0.0
    sid = ScaleInvDiag(3, lipschitz=1.0)
    sid.observe_input([1.0, 0.0, 2.0])
    w = sid.mirror_map([0.5, 0.0, -0.5])
    assert w[1] == 0.0
    assert float(sid.value([0.0, 5.0, 0.0])) == 0.0


def test_mirror_map_zero_everywhere():
    for name, reg in regularizer_families(2).items():
        assert np.allclose(reg.mirror_map(np.zeros(2)), 0.0), name
        assert float(np.asarray(reg.value(np.zeros(2)))) == pytest.approx(0.0, abs=1e-15)


def test_fenchel_young_equality_all_families():
    rng = np.random.default_rng(3)
    for name, reg in regularizer_families(2).items():
        for _ in range(20):
            theta = rng.normal(size=2) * 1.5
            w = reg.mirror_map(theta)
            gap = float(np.asarray(reg.value(w))) + reg.conjugate(theta) - float(w @ theta)
            assert abs(gap) < 1e-9, (name, gap)


def test_mirror_map_matches_argmax_oracle():
    grid = GridSpec(-3.0, 3.0, 41, 2)
    rng = np.random.default_rng(5)
    for name, reg in regularizer_families(2).items():
        for _ in range(3):
            theta = rng.normal(size=2)
            pt, _ = numeric_argmax(lambda V: np.asarray(reg.value(V)), theta, grid,
                                   refine_iters=70)
            assert np.max(np.abs(pt - reg.mirror_map(theta))) < 1e-6, name


def test_fd_gradient_of_conjugate_matches_mirror_map():
    # grad f* == mirror map, probed through the analytic conjugate
    rng = np.random.default_rng(15)
    for name, reg in regularizer_families(2).items():
        for _ in range(5):
            theta = rng.normal(size=2) + np.sign(rng.normal(size=2)) * 0.2
            fd = fd_gradient(lambda V: np.array([reg.conjugate(v) for v in np.atleast_2d(V)]),
                             theta, h=1e-5)
            assert np.max(np.abs(fd - reg.mirror_map(theta))) < 1e-5, name


def test_weighted_dual_norm_at_dim_three():
    from omdkit.oracles import numeric_dual_norm

    wq = WeightedQNorm(3, q=1.4, weights=[0.5, 1.0, 2.5])
    rng = np.random.default_rng(16)
    for _ in range(3):
        z = rng.normal(size=3)
        numeric = numeric_dual_norm(lambda V: np.asarray(wq.norm(V)), z,
                                    samples=40_000, refine_rounds=40)
        assert abs(numeric - wq.dual_norm(z)) < 1e-4


def _strong_convexity_refuted(families):
    """The families whose strong_convexity() some of 50 drawn pairs refutes, with the worst gap."""
    rng = np.random.default_rng(13)
    refuted = {}
    for name, reg in families.items():
        worst = min(strong_convexity_gap(reg, rng.normal(size=2), rng.normal(size=2))
                    for _ in range(50))
        if worst < -1e-9:
            refuted[name] = worst
    return refuted


def test_strong_convexity_certificates():
    assert _strong_convexity_refuted(regularizer_families(2)) == {}


def test_strong_convexity_certificate_refutes_an_inflated_modulus(monkeypatch):
    # a certificate that passes every family at 1.5 times its modulus certifies nothing
    families = regularizer_families(2)
    for reg in families.values():
        monkeypatch.setattr(reg, "strong_convexity",
                            functools.partial(lambda beta: 1.5 * beta(), reg.strong_convexity))
    assert sorted(_strong_convexity_refuted(families)) == sorted(families)


def test_schedule_monotonicity():
    rng = np.random.default_rng(21)
    ws = rng.normal(size=(30, 3))
    fams = {}

    gq = GrowingQuadratic(3, r=1.0)
    fams["growing_quadratic"] = (gq, lambda: gq.update(rng.normal(size=3)))
    gqd = GrowingQuadratic(3, r=1.0, diagonal=True)
    fams["growing_diag"] = (gqd, lambda: gqd.update(rng.normal(size=3)))
    sq = SqrtScheduled(PNorm(3, 1.5))
    fams["sqrt"] = (sq, sq.advance_step)
    ln = LinearScheduled(FixedQuadratic(3))
    fams["linear"] = (ln, ln.advance_step)
    ms = MaxScaled(FixedQuadratic(3))
    fams["max_scaled"] = (ms, lambda: ms.observe_input(rng.normal(size=3)))

    sip = ScaleInvPNorm(3, lipschitz=1.0)

    def adv_sip():
        sip.observe_input(rng.normal(size=3))
        sip.observe_gradient(rng.normal(size=3) * 0.5 * sip.b.max())

    sid = ScaleInvDiag(3, lipschitz=1.0)

    def adv_sid():
        sid.observe_input(rng.normal(size=3))
        sid.observe_gradient(rng.normal(size=3) * 0.5)

    fams["scaleinv_pnorm"] = (sip, adv_sip)
    fams["scaleinv_diag"] = (sid, adv_sid)

    for name, (reg, advance) in fams.items():
        advance()
        prev = np.asarray(reg.value(ws)).copy()
        for _ in range(6):
            advance()
            cur = np.asarray(reg.value(ws))
            assert np.all(cur >= prev - 1e-12), name
            prev = cur.copy()


def test_scaleinv_gradient_stats_bound_lipschitz():
    # |l'_{s,i}| <= L b_{s,i} keeps each grad_stats increment at most e L^2 (p-1)
    rng = np.random.default_rng(31)
    reg = ScaleInvPNorm(6, lipschitz=1.0)
    prev = 0.0
    for _ in range(40):
        x = rng.normal(size=6)
        reg.observe_input(x)
        deriv = rng.uniform(-1, 1)
        reg.observe_gradient(deriv * x)
        inc = reg.grad_stats - prev
        p = reg.p
        assert inc <= E * (p - 1.0) + 1e-9
        prev = reg.grad_stats


def test_growing_quadratic_matches_its_explicit_matrix():
    rng = np.random.default_rng(23)
    for dim, r, scale, n in [(3, 1.0, 1.0, 0), (5, 2.5, 0.3, 7), (40, 0.7, 2.0, 60)]:
        reg = GrowingQuadratic(dim, r=r, scale=scale)
        A = scale * np.eye(dim)
        for _ in range(n):
            x = rng.normal(size=dim) * (rng.random(dim) < 0.8)
            reg.update(x)
            A = A + np.outer(x, x) / r
        W = rng.normal(size=(9, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(9, 1))
        expect = 0.5 * np.einsum("ni,ij,nj->n", W, A, W)
        np.testing.assert_allclose(reg.value(W), expect, rtol=1e-12)
        np.testing.assert_allclose(reg.norm(W), np.sqrt(2.0 * expect), rtol=1e-12)
        for w in W:
            assert float(reg.value(w)) == pytest.approx(0.5 * w @ A @ w, rel=1e-12)
        # the drop over several rows since a snapshot is f_prev - f
        prev = reg.snapshot()
        for _ in range(3):
            reg.update(rng.normal(size=dim))
        for w in W:
            assert float(reg.value_drop(prev, w)) == pytest.approx(
                float(prev.value(w) - reg.value(w)), rel=1e-9)


@pytest.mark.parametrize("dim", [16, 64])  # a fold on every update; a block of 8 rows
def test_growing_quadratic_residue_one_row_back_and_further(dim):
    rng = np.random.default_rng(31)
    reg = GrowingQuadratic(dim, r=0.6, scale=1.2)
    reg.update(rng.normal(size=dim))
    thetas = rng.normal(size=(5, dim)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(5, 1))
    for n in (0, 1, 2, 1, 3) + (1,) * reg.tracker.block:
        prev = reg.snapshot()
        for _ in range(n):
            reg.update(rng.normal(size=dim))
        for theta in thetas:
            conj = reg.dual(theta)[0]
            got = reg.residue(prev, theta, conj)
            if n == 1:  # Sherman-Morrison's closed form, through folds as well
                assert got == pytest.approx(conj - prev.dual(theta)[0], rel=1e-9, abs=0.0)
                assert got < 0.0
            else:  # the difference of the two conjugates
                assert got == conj - prev.dual(theta)[0]
    # theta = 0 gives +0.0; a square that overflows gives -inf
    prev = reg.snapshot()
    reg.update(np.full(dim, 1e150))
    zero = reg.residue(prev, np.zeros(dim), 0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    with np.errstate(over="ignore"):
        assert reg.residue(prev, 1e200 * np.eye(dim)[0], math.inf) == -math.inf


def test_growing_quadratic_drop_at_zero_and_on_overflow():
    reg = GrowingQuadratic(2, r=1.0)
    prev = reg.snapshot()
    reg.update(np.array([1e150, 3.0]))
    drop = reg.value_drop(prev, np.zeros(2))
    assert drop == 0.0 and math.copysign(1.0, drop) == 1.0
    # (x.w)^2 = 1e320 overflows: the drop is -inf, not an OverflowError
    with np.errstate(over="ignore"):
        assert reg.value_drop(prev, np.array([1e10, 0.0])) == -math.inf


def test_a_long_row_history_deep_copies_and_pickles():
    import copy
    import pickle

    rng = np.random.default_rng(29)
    reg = GrowingQuadratic(3, r=0.5, scale=2.0)
    for _ in range(2000):  # deeper than the interpreter's recursion limit
        reg.update(rng.normal(size=3))
    def flat(reg):
        node, out = reg.rows, []
        while node is not None:
            n, x, node = node
            out.append((n, x.tobytes()))
        return {**vars(reg), "rows": out, "tracker": _state(reg.tracker)}

    W = rng.normal(size=(4, 3))
    for other in (copy.deepcopy(reg), pickle.loads(pickle.dumps(reg))):
        assert flat(other) == flat(reg)
        assert reg.value(W).tobytes() == other.value(W).tobytes()


def _exact(val):
    """val with its arrays as exact bytes, into tuples (a row history's nested triples)
    and into the attributes of the objects it holds."""
    if isinstance(val, np.ndarray):
        return (val.dtype.str, val.shape, val.tobytes())
    if isinstance(val, tuple):
        return tuple(_exact(v) for v in val)
    if hasattr(val, "__dict__"):
        return _state(val)
    return val


def _state(obj):
    """Every attribute of a regularizer and of the objects it holds, arrays as exact bytes."""
    return {key: _exact(val) for key, val in vars(obj).items()}


def _hooks(reg, rng, dim, scale):
    """The state hooks a learner would run on reg, with random inputs of about that scale."""
    x = scale * rng.normal(size=dim) * (rng.random(dim) < 0.7)
    if isinstance(reg, GrowingQuadratic):
        return [lambda: reg.update(x)]
    if isinstance(reg, (ScaleInvPNorm, ScaleInvDiag)):
        # a gradient only on coordinates already observed, as the learners produce
        g = rng.normal(size=dim) * (np.maximum(reg.b, np.abs(x)) > 0.0)
        return [functools.partial(reg.observe_input, x),
                functools.partial(reg.observe_gradient, g)]
    if isinstance(reg, MaxScaled):
        return [lambda: reg.observe_input(x)]
    return [reg.advance_step]


def test_observe_input_is_each_familys_own_advance():
    # the engine's one pre-prediction hook does what each family's own method does:
    # a schedule tick, or the growing quadratic's update
    import copy

    dim = 4
    rng = np.random.default_rng(23)
    fams = {name: reg for name, reg in regularizer_families(dim).items()
            if reg.time_varying and not isinstance(reg, (MaxScaled, ScaleInvPNorm, ScaleInvDiag))}
    assert len(fams) == 6
    for name, reg in fams.items():
        for _ in range(3):
            x = rng.normal(size=dim)
            hooked, own = copy.deepcopy(reg), copy.deepcopy(reg)
            hooked.observe_input(x)
            if isinstance(reg, GrowingQuadratic):
                own.update(x)
            else:
                own.advance_step()
            assert _state(hooked) == _state(own) != _state(reg), name
            reg = own


def test_snapshot_keeps_the_previous_state_bit_for_bit():
    import copy

    dim = 4
    rng = np.random.default_rng(5)
    fams = {name: reg for name, reg in regularizer_families(dim).items() if reg.time_varying}
    assert len(fams) == 9
    for name, reg in fams.items():
        for step in range(6):
            # growing inputs, so that the running maxima move too
            for hook in _hooks(reg, rng, dim, 10.0 * 2.0 ** step):
                before = _state(reg)
                # an observed input that sets no new maximum may leave the state as it was
                quiet = (isinstance(reg, (ScaleInvPNorm, ScaleInvDiag))
                         and hook.func == reg.observe_input
                         and bool(np.all(np.abs(hook.args[0]) <= reg.b)))
                snap, ref = reg.snapshot(), copy.deepcopy(reg)
                hook()
                assert _state(reg) != before or quiet, name
                # the hook moved reg on and left f_{t-1} in the snapshot untouched
                assert _state(snap) == _state(ref) == before, name
                theta = rng.normal(size=dim) * (reg.b > 0.0 if hasattr(reg, "b") else 1.0)
                w = reg.mirror_map(theta)
                assert repr(snap.conjugate(theta)) == repr(ref.conjugate(theta)), name
                assert repr(float(snap.value(w))) == repr(float(ref.value(w))), name


def _fresh_time_varying(dim):
    """Each time-varying family right after construction, where it stands at f_0."""
    return {
        "growing_quadratic": GrowingQuadratic(dim, r=1.0),
        "growing_quadratic_diag": GrowingQuadratic(dim, r=2.0, diagonal=True),
        "composite_sqrt": CompositeQuadL1(dim, eta=0.5, lam=0.3, schedule="sqrt"),
        "composite_linear": CompositeQuadL1(dim, eta=1.0, lam=0.2, ridge=1.0, schedule="linear"),
        "composite_constant": CompositeQuadL1(dim, eta=0.5, lam=0.3, schedule="constant"),
        "sqrt_scheduled": SqrtScheduled(PNorm(dim, p=1.8)),
        "linear_scheduled": LinearScheduled(FixedQuadratic(dim, scale=0.7)),
        "max_scaled": MaxScaled(FixedQuadratic(dim)),
        "scaleinv_pnorm": ScaleInvPNorm(dim, lipschitz=1.0),
        "scaleinv_diag": ScaleInvDiag(dim, lipschitz=1.0),
    }


# the families whose f_0 is the zero function: a zero schedule factor, curvature or weight
ZERO_F0 = {"composite_sqrt", "composite_linear", "sqrt_scheduled", "linear_scheduled",
           "max_scaled", "scaleinv_pnorm", "scaleinv_diag"}


def _derived_oracle(reg):
    """The constants reg derives from its state, by the formulas that once ran on every call."""
    if isinstance(reg, ScaleInvPNorm):
        p = max(2.0 * math.log(reg.m), 2.0) if reg.m >= 1 else 2.0
        live = reg.b > 0.0
        return {"p": p, "q": p / (p - 1.0),
                "beta": math.sqrt(E * reg.lipschitz ** 2 * (p - 1.0) + reg.grad_stats),
                "live": live, "b_live": reg.b[live]}
    if isinstance(reg, ScaleInvDiag):
        h = np.sqrt(reg.lipschitz ** 2 + reg.gs)
        weights = math.sqrt(reg.dim) * reg.b * reg.b * h
        return {"weights": weights, "live": weights > 0.0}
    if isinstance(reg, CompositeQuadL1):
        s = {"constant": 1.0, "sqrt": math.sqrt(reg.t), "linear": 0.0}[reg.schedule]
        return {"curvature": s * reg.quad + reg.eta * reg.t * reg.ridge,
                "threshold": reg.eta * reg.t * reg.lam}
    if isinstance(reg, MaxScaled):
        return {"factor": reg.x_max * reg.x_max}
    if isinstance(reg, SqrtScheduled):
        return {"factor": math.sqrt(reg.t)}
    if isinstance(reg, LinearScheduled):
        return {"factor": float(reg.t)}
    if reg.diagonal:
        return {"logdet": float(np.sum(np.log(reg.tracker.diag)))}
    return {}  # RankOneInverse.logdet is a running sum, with no closed form to compare


def _bits(val):
    if isinstance(val, np.ndarray):
        return (val.dtype.str, val.shape, val.tobytes())
    return (type(val), repr(val))


def test_derived_state_matches_the_on_demand_formulas_after_every_hook():
    dim = 4
    rng = np.random.default_rng(17)
    fams = {name: reg for name, reg in regularizer_families(dim).items() if reg.time_varying}
    fams.update({f"{name}_f0": reg for name, reg in _fresh_time_varying(dim).items()})
    for name, reg in fams.items():
        holder = reg.tracker if isinstance(reg, GrowingQuadratic) else reg
        if name not in ("growing_quadratic", "growing_quadratic_f0"):
            assert _derived_oracle(reg), name
        for step in range(6):
            for hook in [None, *_hooks(reg, rng, dim, 10.0 * 2.0 ** step)]:
                if hook is not None:
                    hook()
                for key, expect in _derived_oracle(reg).items():
                    assert _bits(getattr(holder, key)) == _bits(expect), (name, step, key)


def test_f0_is_defined_for_every_time_varying_family():
    dim = 3
    zero, e1 = np.zeros(dim), np.eye(dim)[0]
    w = np.array([0.5, -2.0, 1.5])
    for name, reg in _fresh_time_varying(dim).items():
        assert reg.time_varying, name
        assert reg.conjugate(zero) == 0.0, name
        assert not reg.mirror_map(zero).any(), name
        assert float(reg.value(zero)) == 0.0, name
        if name in ZERO_F0:
            assert reg.conjugate(e1) == math.inf, name
            assert float(reg.value(w)) == 0.0, name
        else:
            assert 0.0 < reg.conjugate(e1) < math.inf, name


def _old_conjugate(reg, theta):
    """f*(theta) by the per-family formula that ran before `dual` shared its intermediates."""
    if isinstance(reg, FixedQuadratic):
        return float(theta @ theta) / (2.0 * reg.scale)
    if isinstance(reg, PNorm):
        return float(0.5 * np.sum(np.abs(theta) ** reg.q) ** (2.0 / reg.q))
    if isinstance(reg, WeightedQNorm):
        inner = float(np.sum(np.abs(theta) ** reg.p * reg._ad))
        return inner ** (2.0 / reg.p) / (2.0 * (reg.p - 1.0))
    if isinstance(reg, GrowingQuadratic):
        return 0.5 * float(theta @ reg.tracker.apply(theta))
    if isinstance(reg, CompositeQuadL1):
        if reg.curvature == 0.0:
            return math.inf if np.any(theta != 0.0) else 0.0
        shr = np.maximum(np.abs(theta) - reg.threshold, 0.0)
        return float(np.sum(shr * shr)) / (2.0 * reg.curvature)
    if isinstance(reg, (SqrtScheduled, LinearScheduled, MaxScaled)):
        if reg.factor == 0.0:
            return math.inf if np.any(theta != 0.0) else 0.0
        return reg.factor * _old_conjugate(reg.base, theta / reg.factor)
    if isinstance(reg, ScaleInvPNorm):
        if np.any(theta[~reg.live] != 0.0):
            s = math.inf
        else:
            u = np.abs(theta[reg.live]) / reg.b_live
            top = u.max(initial=0.0)
            s = 0.0 if top == 0.0 else top * np.sum((u / top) ** reg.p) ** (1.0 / reg.p)
        if s == 0.0:
            return 0.0
        return s * s / (2.0 * reg.beta)
    assert isinstance(reg, ScaleInvDiag)
    if np.any(theta[~reg.live] != 0.0):
        return math.inf
    return 0.5 * float(np.sum(theta[reg.live] ** 2 / reg.weights[reg.live]))


NEVER_OBSERVED = "dual point has mass on a coordinate never observed"


def _old_mirror_map(reg, theta):
    """grad f*(theta) by the per-family formula that ran before `dual`; raises where it did."""
    if isinstance(reg, FixedQuadratic):
        return theta / reg.scale
    if isinstance(reg, PNorm):
        a = np.abs(theta)
        if not a.any():
            return np.zeros(reg.dim)
        nq = np.sum(a ** reg.q) ** (1.0 / reg.q)
        return np.sign(theta) * (a / nq) ** (reg.q - 1.0) * nq
    if isinstance(reg, WeightedQNorm):
        a = np.abs(theta)
        if not a.any():
            return np.zeros(reg.dim)
        inner = np.sum(a ** reg.p * reg._ad)
        return (np.sign(theta) * inner ** (2.0 / reg.p - 1.0) * a ** (reg.p - 1.0) * reg._ad
                / (reg.p - 1.0))
    if isinstance(reg, GrowingQuadratic):
        return reg.tracker.apply(theta)
    if isinstance(reg, CompositeQuadL1):
        if reg.curvature == 0.0:
            return np.zeros(reg.dim)
        return np.sign(theta) * np.maximum(np.abs(theta) - reg.threshold, 0.0) / reg.curvature
    if isinstance(reg, (SqrtScheduled, LinearScheduled, MaxScaled)):
        if reg.factor == 0.0:
            return np.zeros(reg.dim)
        return _old_mirror_map(reg.base, theta / reg.factor)
    if np.any(theta[~reg.live] != 0.0):
        raise ValueError(NEVER_OBSERVED)
    out = np.zeros(reg.dim)
    if isinstance(reg, ScaleInvDiag):
        out[reg.live] = theta[reg.live] / reg.weights[reg.live]
        return out
    assert isinstance(reg, ScaleInvPNorm)
    u = np.abs(theta[reg.live]) / reg.b_live
    top = u.max(initial=0.0)
    if top == 0.0:
        return out
    p = reg.p
    core = np.sum((u / top) ** p)
    out[reg.live] = (np.sign(theta[reg.live]) * top * core ** ((2.0 - p) / p)
                     * (u / top) ** (p - 1.0) / (reg.beta * reg.b_live))
    return out


def test_dual_keeps_the_bits_of_the_separate_conjugate_and_mirror_map():
    rng = np.random.default_rng(29)
    checked = off_domain = 0
    for dim in (1, 2, 4, 7):
        fams = dict(regularizer_families(dim))
        fams.update({f"{name}_f0": reg for name, reg in _fresh_time_varying(dim).items()})
        for cls in (ScaleInvPNorm, ScaleInvDiag):
            # coordinate 0 observed, the others never
            reg = cls(dim, lipschitz=1.0)
            reg.observe_input(np.eye(dim)[0] * 3.0)
            fams[f"{cls.__name__}_partial"] = reg
        # a curvature that is not a power of two, so that dividing by it rounds
        comp = CompositeQuadL1(dim, eta=0.3, lam=0.1, ridge=0.2, schedule="sqrt")
        for _ in range(3):
            comp.advance_step()
        fams["composite_ridge"] = comp
        assert len(fams) == 25
        for name, reg in fams.items():
            thetas = [np.zeros(dim)]
            for _ in range(12):
                # entries over seven decades, some of them zero
                theta = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 4.0, size=dim)
                theta[rng.random(dim) < 0.3] = 0.0
                thetas.append(theta)
            if hasattr(reg, "live"):
                thetas += [theta * reg.live for theta in thetas]
            for theta in thetas:
                conj, grad = reg.dual(theta)
                assert _bits(conj) == _bits(_old_conjugate(reg, theta)), (name, dim)
                assert _bits(reg.conjugate(theta)) == _bits(conj), (name, dim)
                try:
                    expect = _old_mirror_map(reg, theta)
                except ValueError:
                    assert conj == math.inf and grad is None, (name, dim)
                    with pytest.raises(ValueError) as err:
                        reg.mirror_map(theta)
                    assert str(err.value) == NEVER_OBSERVED
                    off_domain += 1
                    continue
                assert _bits(grad) == _bits(expect), (name, dim)
                assert _bits(reg.mirror_map(theta)) == _bits(expect), (name, dim)
                checked += 1
    assert off_domain and checked


def _masked_core(reg, z):
    """ScaleInvPNorm's (sum_{b_i>0} (|z_i|/b_i)^p)^{1/p} by the masked formula."""
    if np.any(z[~reg.live] != 0.0):
        return math.inf
    u = np.abs(z[reg.live]) / reg.b_live
    top = u.max(initial=0.0)
    return 0.0 if top == 0.0 else top * np.sum((u / top) ** reg.p) ** (1.0 / reg.p)


def _masked_dual_norm(reg, z):
    """A scale-invariant dual norm by the masked formula, which gathers the live coordinates."""
    if not isinstance(reg, ScaleInvDiag):
        return math.sqrt(reg.p - 1.0) * _masked_core(reg, z)
    if np.any(z[~reg.live] != 0.0):
        return math.inf
    return math.sqrt(float(np.sum(z[reg.live] ** 2 / reg.weights[reg.live])))


def _masked_value(reg, w):
    w = np.asarray(w, dtype=np.float64)
    if isinstance(reg, ScaleInvDiag):
        return 0.5 * np.sum(w * w * reg.weights, axis=-1)
    return 0.5 * reg.beta * np.sum((np.abs(w) * reg.b) ** reg.q, axis=-1) ** (2.0 / reg.q)


def _masked_gradient_state(reg, g):
    """The statistics observe_gradient(g) leaves, by the masked formulas; raises where it did."""
    if isinstance(reg, ScaleInvDiag):
        seen = reg.b > 0.0
        if np.any(g[~seen] != 0.0):
            raise ValueError("gradient has mass on a coordinate never observed")
        gs = reg.gs.copy()
        gs[seen] += (g[seen] / reg.b[seen]) ** 2
        return gs
    s = _masked_core(reg, g)
    return reg.grad_stats + (reg.p - 1.0) * s * s


@pytest.mark.parametrize("cls", [ScaleInvPNorm, ScaleInvDiag])
def test_scale_invariant_methods_keep_the_masked_bits_in_every_observation_state(cls):
    # rows that leave coordinates unseen, then the row that observes the last of them, then
    # dense rows: partially observed, just fully observed, and fully observed states
    dim = 5
    rows = [[3.0, 0.0, 0.0, -1.0, 0.0], [0.0, 0.7, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.4, 0.0, 2.5], [1.5, -0.2, 0.9, 4.0, -0.3], [0.1, 2.0, -1.0, 0.5, 1.0]]
    kinds = ["partial", "partial", "completed", "full", "full"]
    rng = np.random.default_rng(43)
    reg = cls(dim, lipschitz=1.0)
    assert not reg.all_live
    for row, kind in zip(rows, kinds):
        prev = reg.snapshot()
        reg.observe_input(np.array(row))
        assert reg.all_live == (kind != "partial"), kind
        assert prev.all_live == (kind == "full"), kind
        points = []
        for _ in range(8):
            v = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0, size=dim)
            v[rng.random(dim) < 0.25] = 0.0
            points += [v, v * reg.live]
        points.append(np.zeros(dim))
        for v in points:
            conj, grad = reg.dual(v)
            assert _bits(conj) == _bits(_old_conjugate(reg, v)), kind
            if grad is None:
                with pytest.raises(ValueError):
                    _old_mirror_map(reg, v)
            else:
                assert _bits(grad) == _bits(_old_mirror_map(reg, v)), kind
            residue = reg.residue(prev, v, conj)
            assert _bits(float(residue)) == _bits(float(conj - _old_conjugate(prev, v))), kind
            assert _bits(reg.dual_norm(v)) == _bits(_masked_dual_norm(reg, v)), kind
            assert _bits(reg.value(v)) == _bits(_masked_value(reg, v)), kind
            state = reg.snapshot()
            try:
                expect = _masked_gradient_state(reg, v)
            except ValueError:
                with pytest.raises(ValueError):
                    state.observe_gradient(v)
                continue
            state.observe_gradient(v)
            got = state.gs if cls is ScaleInvDiag else state.grad_stats
            assert _bits(got) == _bits(expect), kind
        batch = np.stack(points)
        assert _bits(reg.value(batch)) == _bits(_masked_value(reg, batch)), kind
        reg.observe_gradient(points[1])


@pytest.mark.parametrize("cls", [ScaleInvPNorm, ScaleInvDiag])
def test_folding_a_zero_gradient_keeps_every_bit_in_every_observation_state(cls):
    # a gradient learner skips the fold of a zero gradient; that is exact only if the fold
    # would leave every attribute as it was: partially observed, just completed, fully observed
    dim = 5
    rows = [[3.0, 0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.4, 0.0, 2.5],
            [1.5, -0.2, 0.9, 4.0, -0.3], [0.1, 2.0, -1.0, 0.5, 1.0]]
    kinds = ["partial", "partial", "completed", "full"]
    rng = np.random.default_rng(47)
    reg = cls(dim, lipschitz=1.0)
    for row, kind in zip(rows, kinds):
        was_live = reg.all_live
        reg.observe_input(np.array(row))
        assert (was_live, reg.all_live) == {"partial": (False, False),
                                            "completed": (False, True),
                                            "full": (True, True)}[kind]
        for _ in range(2):
            before = repr(_state(reg))
            reg.observe_gradient(np.zeros(dim))
            assert repr(_state(reg)) == before, kind
            # then a gradient on the observed coordinates, so the statistics move
            reg.observe_gradient(rng.normal(size=dim) * reg.live)
