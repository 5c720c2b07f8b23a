import math

import numpy as np
import pytest

from lemmas import dense_inverse
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
    assert np.allclose(dense_inverse(inv), np.diag([0.5, 1.0]))
    assert inv.logdet == pytest.approx(math.log(2.0), abs=1e-15)

    inv = RankOneInverse(2, r=1.0)
    inv.update([0.0, 0.0])
    assert np.allclose(dense_inverse(inv), np.eye(2))
    assert inv.logdet == 0.0

    inv = RankOneInverse(2, r=2.0)
    chi = inv.update([1.0, 1.0])
    assert chi == pytest.approx(2.0)
    assert np.allclose(dense_inverse(inv), [[0.75, -0.25], [-0.25, 0.75]])


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
    assert np.max(np.abs(dense_inverse(inv) - direct)) < 1e-10
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
    assert np.max(np.abs(dense_inverse(inv) - dense_inverse(inv).T)) < 1e-12


def _dense_reference(d, r, scale, rows):
    A = scale * np.eye(d)
    for x in rows:
        A += np.outer(x, x) / r
    return A


def test_the_block_is_empty_up_to_the_dense_dim_and_ceil_sqrt_past_it():
    dense = RankOneInverse.DENSE_DIM
    for d in (1, 2, 10, dense):
        assert RankOneInverse(d).block == 0
    for d in (dense + 1, 96, 300, 301):
        assert RankOneInverse(d).block == math.ceil(math.sqrt(d))


@pytest.mark.parametrize("d", [1, 2, 10, 300])
@pytest.mark.parametrize("block", [None, 3])  # None: the tracker's own rule
def test_blocked_tracker_matches_a_dense_inverse_across_folds(d, block):
    rng = np.random.default_rng(d)
    r, scale = 0.8, 1.5
    inv = RankOneInverse(d, r=r, scale=scale)
    if block is not None:
        inv.block = block
    rows, folds = [], 0
    direct = np.eye(d) / scale
    for step in range(3 * (inv.block + 1) + 2):
        x = rng.normal(size=d)
        base, u = inv.base, inv.apply(x)
        assert inv.update(x) == float(x @ u)
        rows.append(x)
        folds += inv.base is not base
        # the last update's u = A_{t-1}^{-1} x and chi; a row that did not fold stays pending
        assert inv.u.tobytes() == u.tobytes() and inv.chi == float(x @ u)
        assert 0 <= inv.c.size <= inv.block
        if inv.c.size:
            assert inv.V[-1].tobytes() == u.tobytes() and inv.c[-1] == 1.0 / (r + inv.chi)
        if d == 300 and step % 7:
            continue
        A = _dense_reference(d, r, scale, rows)
        prev, direct = direct, np.linalg.inv(A)
        v = rng.normal(size=d)
        assert np.max(np.abs(dense_inverse(inv) - direct)) <= 1e-10 * np.max(np.abs(direct))
        assert np.allclose(inv.apply(v), direct @ v, rtol=1e-10, atol=1e-12)
        assert inv.quad_form(v) == pytest.approx(float(v @ direct @ v), rel=1e-10)
        assert inv.last_quad_form() == pytest.approx(float(x @ direct @ x), rel=1e-10)
        if not (d == 300 and step):  # prev is A_{t-1}^{-1} only when no step was skipped
            assert inv.quad_drop(v) == pytest.approx(float(v @ (prev - direct) @ v),
                                                     rel=1e-8)
        sign, ld = np.linalg.slogdet(A)
        assert sign > 0 and inv.logdet == pytest.approx(ld, rel=1e-10, abs=1e-10)
    assert folds >= 3


def _tracker_bits(inv, v):
    return (inv.base.tobytes(), inv.V.tobytes(), inv.c.tobytes(), inv.V.shape,
            inv.u.tobytes(), repr(inv.chi), repr(inv.logdet), dense_inverse(inv).tobytes(),
            inv.apply(v).tobytes())


_BLOCKED_DIM = 2 * RankOneInverse.DENSE_DIM  # past the dense dim: a block of pending rows


def test_a_snapshot_taken_mid_block_keeps_its_bits_through_a_fold():
    import copy

    d = _BLOCKED_DIM
    rng = np.random.default_rng(3)
    inv = RankOneInverse(d, r=0.5)
    for _ in range(inv.block + 3):
        inv.update(rng.normal(size=d))
    assert 1 < inv.c.size < inv.block
    v = rng.normal(size=d)
    snap = copy.copy(inv)
    before = _tracker_bits(snap, v)
    base = inv.base
    for _ in range(inv.block):
        inv.update(rng.normal(size=d))
    assert inv.base is not base  # a fold happened after the snapshot
    assert _tracker_bits(snap, v) == before


def test_a_tracker_with_pending_rows_deep_copies_and_pickles():
    import copy
    import pickle

    d = _BLOCKED_DIM
    rng = np.random.default_rng(4)
    inv = RankOneInverse(d, r=2.0, scale=0.5)
    for _ in range(inv.block + 2):
        inv.update(rng.normal(size=d))
    assert inv.c.size == 1 < inv.block
    v = rng.normal(size=d)
    rows = rng.normal(size=(inv.block + 1, d))
    expect = _tracker_bits(inv, v)
    for other in (copy.deepcopy(inv), pickle.loads(pickle.dumps(inv))):
        assert _tracker_bits(other, v) == expect
        twin = copy.deepcopy(inv)
        for x in rows:  # the copy folds and appends as the original does
            assert other.update(x) == twin.update(x)
        assert _tracker_bits(other, v) == _tracker_bits(twin, v)


def test_an_update_that_loses_positive_definiteness_names_chi_and_r():
    # with r = 1e-300 the first update leaves A^{-1} = 0 up to rounding, here just below it
    inv = RankOneInverse(1, r=1e-300)
    inv.update(np.array([0.7]))
    v = np.array([1.0])
    before = _tracker_bits(inv, v)
    with pytest.raises(ArithmeticError, match=r"chi = -2\.22\d*e-16 with r = 1e-300"):
        inv.update(np.array([1.0]))
    assert _tracker_bits(inv, v) == before


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
