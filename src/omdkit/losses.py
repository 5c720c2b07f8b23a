"""Scalar losses with subgradients taken in the prediction argument."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LossEval:
    value: float
    subgrad_scalar: float
    active: bool


def hinge(margin):
    """Hinge loss of a signed margin y*<w,x>; subgradient w.r.t. the margin.

    At the kink (margin exactly 1) the subgradient 0 is chosen, so the
    resulting update is a no-op.
    """
    v = max(0.0, 1.0 - float(margin))
    return LossEval(v, -1.0 if v > 0.0 else 0.0, v > 0.0)


def square(prediction, y):
    """Half squared error; subgradient w.r.t. the prediction."""
    d = float(prediction) - float(y)
    return LossEval(0.5 * d * d, d, d != 0.0)


def absolute(prediction, y):
    """Absolute error, 1-Lipschitz in the prediction."""
    d = float(prediction) - float(y)
    return LossEval(abs(d), math.copysign(1.0, d) if d != 0.0 else 0.0, d != 0.0)


def hinge_on_prediction(prediction, y):
    """Hinge loss parameterized by prediction and +-1 label."""
    y = float(y)
    ev = hinge(y * float(prediction))
    # d/dpred [1 - y*pred]_+ = -y while active
    return LossEval(ev.value, -y if ev.active else 0.0, ev.active)


_BY_NAME = {
    "hinge": hinge_on_prediction,
    "square": square,
    "absolute": absolute,
}

# Lipschitz constants in the prediction argument (None: not Lipschitz).
LIPSCHITZ = {"hinge": 1.0, "absolute": 1.0, "square": None}
LIPSCHITZ_TOL = 1e-12  # how far a subgradient may pass a declared Lipschitz constant


def by_name(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; expected one of {sorted(_BY_NAME)}") from None
