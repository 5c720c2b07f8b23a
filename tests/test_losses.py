import numpy as np
import pytest

from lemmas import hinge_condition_check
from omdkit import losses


def test_hinge_examples():
    assert losses.hinge(1.0) == losses.LossEval(0.0, 0.0, False)
    assert losses.hinge(0.0) == losses.LossEval(1.0, -1.0, True)
    ev = losses.hinge(-0.5)
    assert ev.value == 1.5 and ev.subgrad_scalar == -1.0


def test_square_examples():
    assert losses.square(1.0, 1.0).value == 0.0
    ev = losses.square(0.0, 2.0)
    assert ev.value == 2.0 and ev.subgrad_scalar == -2.0
    ev = losses.square(3.0, 1.0)
    assert ev.value == 2.0 and ev.subgrad_scalar == 2.0


def test_absolute():
    ev = losses.absolute(2.0, -1.0)
    assert ev.value == 3.0 and ev.subgrad_scalar == 1.0
    assert losses.absolute(1.0, 1.0).subgrad_scalar == 0.0


def test_hinge_condition_trivial_cases():
    assert hinge_condition_check(0.0, 5.0, -10.0)
    # u = 0: l(u) = 1, <u, l'> = 0
    assert hinge_condition_check(0.7, 1.0, 0.0)


def test_hinge_condition_random_draws():
    rng = np.random.default_rng(17)
    d = 5
    for _ in range(10_000):
        w = rng.normal(size=d)
        u = rng.normal(size=d)
        x = rng.normal(size=d)
        y = 1.0 if rng.random() < 0.5 else -1.0
        lw = losses.hinge(y * float(w @ x))
        lu = losses.hinge(y * float(u @ x))
        # l'(w) = subgrad * y * x
        inner = lw.subgrad_scalar * y * float(u @ x)
        assert hinge_condition_check(lw.value, lu.value, inner)


def test_hinge_subgradient_validity():
    rng = np.random.default_rng(23)
    d = 4
    for _ in range(5_000):
        w = rng.normal(size=d)
        u = rng.normal(size=d)
        x = rng.normal(size=d)
        y = 1.0 if rng.random() < 0.5 else -1.0
        lw = losses.hinge(y * float(w @ x))
        lu = losses.hinge(y * float(u @ x))
        grad = lw.subgrad_scalar * y * x
        assert lu.value >= lw.value + float(grad @ (u - w)) - 1e-12


def test_square_gradient_finite_differences():
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(200):
        p = rng.normal() * 3
        y = rng.normal() * 3
        ev = losses.square(p, y)
        fd = (losses.square(p + h, y).value - losses.square(p - h, y).value) / (2 * h)
        assert ev.subgrad_scalar == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_hinge_on_prediction_matches_margin_form():
    for pred, y in [(0.3, 1.0), (-0.2, -1.0), (2.0, 1.0), (0.0, -1.0)]:
        a = losses.hinge_on_prediction(pred, y)
        b = losses.hinge(y * pred)
        assert a.value == b.value
        assert a.subgrad_scalar == b.subgrad_scalar * y


def test_by_name_unknown():
    with pytest.raises(ValueError):
        losses.by_name("logistic")
