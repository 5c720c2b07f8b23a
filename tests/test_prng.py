"""The array paths of Xorshift64Star and StateCursor against the scalar draws, bit for bit."""

import random

import numpy as np
import pytest

from omdkit import prng
from omdkit.prng import Xorshift64Star

SEEDS = (1, 42, 2**64 - 1)


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_same_generator(a, b):
    assert a.state == b.state
    assert repr(a._spare_normal) == repr(b._spare_normal)


@pytest.mark.parametrize("n", [0, 1, 2, 3, prng._BULK_NORMALS - 1, prng._BULK_NORMALS,
                               prng._BULK_NORMALS + 1, 54_001])
@pytest.mark.parametrize("spare", [False, True])
def test_array_normals_match_scalar_loop(monkeypatch, n, spare):
    monkeypatch.setattr(prng, "_BULK_NORMALS", 0)
    for seed in SEEDS:
        bulk, ref = Xorshift64Star(seed), Xorshift64Star(seed)
        if spare:
            assert bulk.normal() == ref.normal()  # leaves a spare normal pending
        got = bulk.normals(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert _bits(got) == _bits(ref.normal() for _ in range(n))
        _assert_same_generator(bulk, ref)
        # scalar draws continue the same stream afterwards
        assert bulk.uniform() == ref.uniform()
        assert _bits([bulk.normal(), bulk.normal()]) == _bits([ref.normal(), ref.normal()])
        _assert_same_generator(bulk, ref)


def test_array_normals_refill_short_draws(monkeypatch):
    # a batch with too few accepted pairs draws another; force many tiny batches to hit it
    monkeypatch.setattr(prng, "_BULK_NORMALS", 0)
    batches = []
    states = prng._states

    def counted(x, n):
        batches.append(n)
        return states(x, n)

    monkeypatch.setattr(prng, "_states", counted)
    refills = 0
    for seed in range(1, 400):
        bulk, ref = Xorshift64Star(seed), Xorshift64Star(seed)
        batches.clear()
        got = bulk.normals(2)
        refills += len(batches) > 1
        assert _bits(got) == _bits([ref.normal(), ref.normal()])
        _assert_same_generator(bulk, ref)
    assert refills > 0


def test_random_interleavings_match_scalar_draws():
    pick = random.Random(5)
    for seed in SEEDS:
        bulk, ref = Xorshift64Star(seed), Xorshift64Star(seed)
        for _ in range(40):
            op = pick.random()
            if op < 0.5:
                n = pick.choice([0, 1, 2, prng._BULK_NORMALS, pick.randrange(3000)])
                assert _bits(bulk.normals(n)) == _bits(ref.normal() for _ in range(n))
            elif op < 0.65:
                assert bulk.normal() == ref.normal()
            elif op < 0.8:
                n = pick.choice([0, 1, 63, 64, 65, pick.randrange(3000)])
                assert _bits(bulk.uniforms(n)) == _bits(ref.uniform() for _ in range(n))
            else:
                assert bulk.uniform() == ref.uniform()
            _assert_same_generator(bulk, ref)


def test_small_draws_stay_on_scalar_loop(monkeypatch):
    def no_arrays(x, n):
        raise AssertionError("array path taken")

    monkeypatch.setattr(prng, "_states", no_arrays)
    rng = Xorshift64Star(3)
    for n in (2, 10, prng._BULK_NORMALS - 1):
        assert rng.normals(n).dtype == np.float64
    with pytest.raises(AssertionError, match="array path taken"):
        rng.normals(prng._BULK_NORMALS)


def test_jump_tables_match_single_steps():
    # the 64 * 2**j step map against stepping state by state
    x = 0x0123456789ABCDEF
    ref = Xorshift64Star(x)
    steps = []
    for _ in range(64 * 2**3):
        ref.next_u64()
        steps.append(ref.state)
    for j in range(4):
        assert int(prng._jump(j, np.array([x], dtype=np.uint64))[0]) == steps[64 * 2**j - 1]
    assert prng._states(x, len(steps)).tolist() == steps


def test_cursor_draws_match_scalar_draws():
    # random runs of take(k) and take_normals(k) on a cursor over a small first block, so
    # most runs refill it; take(k) stands for k uniform() calls, take_normals(k) for k normal()
    pick = random.Random(7)
    for seed in SEEDS:
        for spare in (False, True):
            for _ in range(15):
                rng, ref = Xorshift64Star(seed), Xorshift64Star(seed)
                if spare:
                    assert rng.normal() == ref.normal()  # leaves a spare normal pending
                block = pick.choice([1, 5, 64])
                cur = prng.StateCursor(rng, block)
                taken, expect = [], []
                for _ in range(pick.randrange(1, 10)):
                    k = pick.choice([0, 1, 2, pick.randrange(3, 41, 2),
                                     block + pick.randrange(1, 300)])
                    if pick.random() < 0.5:
                        taken.append((cur.take(k), [ref.uniform() for _ in range(k)]))
                    else:
                        cur.take_normals(k)
                        expect += [ref.normal() for _ in range(k)]
                got = cur.normals()
                cur.finish()
                for i, uniforms in taken:
                    assert _bits(cur.uniforms[i:i + len(uniforms)]) == _bits(uniforms)
                assert got.dtype == np.float64 and _bits(got) == _bits(expect)
                _assert_same_generator(rng, ref)
                # the stream goes on from where the cursor left it, on both normals paths
                n = pick.choice([0, 1, 2, prng._BULK_NORMALS - 1, prng._BULK_NORMALS, 300])
                assert _bits(rng.normals(n)) == _bits(ref.normal() for _ in range(n))
                assert rng.uniform() == ref.uniform()
                _assert_same_generator(rng, ref)
