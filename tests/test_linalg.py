import math

import numpy as np
import pytest

from omdkit.linalg import DiagInverse, RankOneInverse, SparseVec, as_dense


def test_sparse_vec_basics():
    v = SparseVec([(0, 0.5), (2, 2.0)], dim=4)
    assert v.nnz == 2
    assert v.to_dense().tolist() == [0.5, 0.0, 2.0, 0.0]
    assert v.dot(np.array([1.0, 1.0, 1.0, 1.0])) == 2.5


def test_sparse_vec_drops_zeros():
    v = SparseVec([(0, 0.0), (1, 3.0)], dim=2)
    assert v.nnz == 1
    assert v.indices.tolist() == [1]


def test_sparse_vec_rejects_bad_indices():
    with pytest.raises(ValueError):
        SparseVec([(1, 1.0), (1, 2.0)], dim=3)
    with pytest.raises(ValueError):
        SparseVec([(2, 1.0), (1, 2.0)], dim=3)
    with pytest.raises(ValueError):
        SparseVec([(3, 1.0)], dim=3)


def test_sparse_vec_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite value .* at index 1"):
            SparseVec([(0, 1.0), (1, bad)], dim=3)


def test_as_dense_refuses_a_sparse_row():
    # a row is an array-like of length dim; a SparseVec is not one
    with pytest.raises(TypeError):
        as_dense(SparseVec([(0, 1.0)], dim=2), 2)


def test_quad_form_identity_cases():
    inv = RankOneInverse(2)
    assert inv.quad_form([1.0, 0.0]) == 1.0
    assert inv.quad_form([0.0, 0.0]) == 0.0


def test_quad_form_after_update():
    inv = RankOneInverse(2, r=1.0)
    inv.update([1.0, 0.0])  # A = diag(2, 1)
    assert inv.quad_form([1.0, 1.0]) == pytest.approx(1.5, abs=1e-15)


def test_quad_form_dimension_mismatch():
    inv = RankOneInverse(2)
    with pytest.raises(ValueError):
        inv.quad_form([1.0, 2.0, 3.0])


def test_rank_one_update_examples():
    inv = RankOneInverse(2, r=1.0)
    inv.update([1.0, 0.0])
    assert np.allclose(inv.inv, np.diag([0.5, 1.0]))
    assert inv.logdet == pytest.approx(math.log(2.0), abs=1e-15)

    inv = RankOneInverse(2, r=1.0)
    inv.update([0.0, 0.0])
    assert np.allclose(inv.inv, np.eye(2))
    assert inv.logdet == 0.0

    inv = RankOneInverse(2, r=2.0)
    chi = inv.update([1.0, 1.0])
    assert chi == pytest.approx(2.0)
    assert np.allclose(inv.inv, [[0.75, -0.25], [-0.25, 0.75]])


def test_rank_one_update_matches_direct_inverse():
    rng = np.random.default_rng(11)
    d = 8
    inv = RankOneInverse(d, r=0.7)
    A = np.eye(d)
    for _ in range(300):
        x = rng.normal(size=d)
        inv.update(x)
        A += np.outer(x, x) / 0.7
    direct = np.linalg.inv(A)
    assert np.max(np.abs(inv.inv - direct)) < 1e-10
    sign, ld = np.linalg.slogdet(A)
    assert sign > 0
    assert abs(inv.logdet - ld) < 1e-9


def test_post_update_quad_form_identity():
    rng = np.random.default_rng(5)
    for r in (0.5, 1.0, 3.0):
        inv = RankOneInverse(6, r=r)
        for _ in range(40):
            x = rng.normal(size=6)
            chi = inv.quad_form(x)
            inv.update(x)
            post = inv.quad_form(x)
            assert abs(post - chi * r / (r + chi)) < 1e-12


def test_quad_form_positive_definite():
    rng = np.random.default_rng(7)
    inv = RankOneInverse(5, r=1.0)
    for _ in range(50):
        inv.update(rng.normal(size=5))
    for _ in range(20):
        x = rng.normal(size=5)
        assert inv.quad_form(x) > 0
    assert inv.quad_form(np.zeros(5)) == 0.0
    assert np.max(np.abs(inv.inv - inv.inv.T)) < 1e-12


def test_diag_update_examples():
    d = DiagInverse(2, r=1.0)
    d.update(np.array([2.0, 0.0]))
    assert d.diag.tolist() == [5.0, 1.0]

    d2 = DiagInverse(2, r=1.0)
    d2.update(np.array([0.0, 0.0]))
    assert d2.diag.tolist() == [1.0, 1.0]

    d3 = DiagInverse(2, r=4.0)
    d3.update(np.array([2.0, 2.0]))
    assert d3.diag.tolist() == [2.0, 2.0]


def test_diag_quad_and_logdet():
    d = DiagInverse(3, r=2.0)
    d.update(np.array([1.0, 2.0, 0.0]))
    assert d.quad_form(np.array([1.0, 1.0, 1.0])) == pytest.approx(1 / 1.5 + 1 / 3.0 + 1.0)
    assert d.logdet == pytest.approx(math.log(1.5) + math.log(3.0))


def test_invalid_construction():
    with pytest.raises(ValueError):
        RankOneInverse(2, r=0.0)
    with pytest.raises(ValueError):
        DiagInverse(2, r=-1.0)
