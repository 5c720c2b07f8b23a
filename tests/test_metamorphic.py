"""Exact metamorphic relations: twin runs whose records agree bit for bit.

Each twin reads its parent's data through the spec interface, a rescaled
generator spec. Every family is symmetric under a sign flip of a coordinate
and every mirror map is odd, so flipping feature columns flips the signs of
w_t and theta_t and of nothing a record holds. The scale-invariant families
see only the ratios |z_i| / b_i and |w_i| b_i, which a power-of-two factor
per feature scales exactly on both sides. Every regression loss is even
in prediction - label, so negating every label negates w_t, theta_t and
each prediction, and leaves every other record value as it was.
"""

import dataclasses

import numpy as np
import pytest

from helpers import gen_config, heavy_tail, noisy_linear, separable, sparse_target
from omdkit.data import Dataset, generate, rescaled
from omdkit.harness import build_learner, drive, encode_record, run_experiment

T = 200
DIMS = (1, 2, 10)
SEEDS = (0, 1)

CLASSIFIERS = {
    "ogd": ("ogd", {}),
    "pnorm_perceptron": ("pnorm_perceptron", {}),
    "pa": ("pa", {}),
    "fixed_margin": ("fixed_margin", {}),
    "second_order_full": ("second_order", {"variant": "full"}),
    "second_order_diagonal": ("second_order", {"variant": "diagonal"}),
}
REGRESSORS = {name: (name, {}) for name in
              ("composite", "vaw", "adaptive_filter", "scaleinv_pnorm", "scaleinv_diag")}


def _specs(classifier):
    for d in DIMS:
        for seed in SEEDS:
            if classifier:
                yield separable(seed, d=d, T=T)
                if d >= 4:
                    yield heavy_tail(seed, d=d, T=T)
            else:
                yield noisy_linear(seed, d=d, T=T)
                yield sparse_target(seed, k=min(3, d), d=d, T=T)


def _run(learner, params, spec):
    trace, _ = run_experiment(gen_config(learner, params, spec), audit=False)
    return [encode_record(r) for r in trace.records], trace.learner.theta


def _check_twin(learner, params, spec, factors):
    lines, theta = _run(learner, params, spec)
    twin_lines, twin_theta = _run(learner, params, rescaled(spec, factors))
    assert twin_lines == lines, (learner, params, spec, factors)
    # + 0.0: a column that never updated keeps theta_i = +0.0, which a factor of -1 makes -0.0
    assert (twin_theta + 0.0).tobytes() == (theta * factors + 0.0).tobytes(), (learner, spec)


@pytest.mark.parametrize("name", [*CLASSIFIERS, *REGRESSORS])
def test_flipping_feature_signs_keeps_every_record_and_flips_theta(name):
    learner, params = {**CLASSIFIERS, **REGRESSORS}[name]
    rng = np.random.default_rng(12)
    for spec in _specs(name in CLASSIFIERS):
        d = spec["params"]["d"]
        signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        _check_twin(learner, params, spec, signs)


@pytest.mark.parametrize("name", ["scaleinv_pnorm", "scaleinv_diag"])
def test_power_of_two_feature_scales_keep_every_scale_invariant_record(name):
    rng = np.random.default_rng(13)
    for spec in _specs(classifier=False):
        d = spec["params"]["d"]
        factors = np.ldexp(1.0, rng.integers(-10, 11, size=d))
        _check_twin(name, {}, spec, factors)


def _negated(rec):
    """A record of the label-negated twin as its parent's reads: label and prediction change
    sign, except round 1's prediction, <w_1, x_1> with w_1 = 0 in both runs."""
    prediction = rec.prediction if rec.t == 1 else -rec.prediction
    return dataclasses.replace(rec, prediction=prediction, label=-rec.label)


@pytest.mark.parametrize("name", sorted(REGRESSORS))
def test_negating_the_labels_negates_every_prediction_and_theta(name):
    for d in DIMS:
        for seed in SEEDS:
            for spec in (noisy_linear(seed, d=d, T=T), sparse_target(seed, k=1, d=d, T=T)):
                ds = generate(spec)
                twin = Dataset.from_matrix(ds.X, -ds.y, ds.meta)
                config = gen_config(name, {}, spec)
                learner, twin_learner = build_learner(config, d), build_learner(config, d)
                lines = [encode_record(r) for r in drive(learner, ds)]
                twin_lines = [encode_record(_negated(r)) for r in drive(twin_learner, twin)]
                assert twin_lines == lines, (name, spec)
                # + 0.0: a coordinate that never updated holds +0.0 in both runs
                assert (-twin_learner.theta + 0.0).tobytes() == (learner.theta + 0.0).tobytes()
