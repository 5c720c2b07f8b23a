"""The generators draw whole datasets with the bits of the scalar generators in helpers.py.

Each case compares the dataset's matrix and labels byte for byte (zero
signs included), its metadata, and the PRNG's final state and spare
normal against the scalar oracle, which draws one value per PRNG call
and holds each row as a SparseVec.
"""

import numpy as np
import pytest

from helpers import scalar_generate, sparsevec_rescale, sparsevec_svmlight
from omdkit.data import (
    _KINDS,
    Dataset,
    GeneratorSpec,
    generate,
    parse_svmlight,
    rescale_dataset,
    write_svmlight,
)
from omdkit.prng import Xorshift64Star

SEEDS = (1, 2, 3, 4, 5)
DIMS = (1, 2, 5, 10, 97, 300)
LENGTHS = (0, 1, 200)


def _params(kind, d, T):
    first = {"separable_margin": ("gamma", 0.3), "noisy_linear": ("sigma", 0.2),
             "sparse_target": ("k", min(3, d)), "heavy_tail_features": ("zipf", 1.5)}[kind]
    return dict([first, ("d", d), ("T", T)])


def _same_meta(got, expect):
    assert sorted(got) == sorted(expect)
    for key, val in expect.items():
        assert type(got[key]) is type(val), key
        assert np.asarray(got[key]).tobytes() == np.asarray(val).tobytes(), key


def _check(kind, seed, params):
    rng = Xorshift64Star(seed)
    ds = _KINDS[kind][0](rng, **params)
    X, y, meta, ref_rng = scalar_generate(kind, seed, params)
    got_X, got_y = ds.X, ds.y
    assert got_X.shape == X.shape and got_X.tobytes() == X.tobytes()
    assert got_y.tobytes() == y.tobytes()
    assert not got_X.flags.writeable
    _same_meta(ds.meta, meta)
    assert rng.state == ref_rng.state
    spare, ref_spare = rng._spare_normal, ref_rng._spare_normal
    assert (spare is None) == (ref_spare is None)
    if spare is not None:
        assert np.float64(spare).tobytes() == np.float64(ref_spare).tobytes()


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_generators_match_the_scalar_oracle(kind):
    for seed in SEEDS:
        for d in DIMS:
            for T in LENGTHS:
                _check(kind, seed, _params(kind, d, T))


def test_generator_edge_parameters_match_the_scalar_oracle():
    for seed in SEEDS:
        for d in (1, 2, 10, 97):
            _check("separable_margin", seed, {"gamma": 1, "d": d, "T": 200})
            _check("separable_margin", seed, {"gamma": 1.0, "d": d, "T": 50})
            _check("noisy_linear", seed, {"sigma": 0, "d": d, "T": 200})
            _check("noisy_linear", seed, {"sigma": 0.0, "d": d, "T": 51,
                                          "u_star": [(-1.0) ** i for i in range(d)]})
            _check("sparse_target", seed, {"k": d, "d": d, "T": 20})


def test_rescaled_generators_match_the_scalar_oracle():
    # 1e-300 twice underflows every product to a signed zero, which a row keeps; a target
    # coordinate divided by such factors overflows, and that rescaling is an error.
    # heavy_tail_features at d=5 has its target on coordinates 0 and 4 only, so
    # [off_support, flipped] underflows rows to -0.0 and keeps the target finite
    negative = [-2.0, 0.5, -1e-300, 3.0, -1.0]
    tiny = [1e-300, -1e-300, 5e-324, -5e-324, 1.0]
    off_support = [1.0, 1e-300, -1e-300, -1e-300, 1.0]
    flipped = [1.0, -1e-300, 1e-300, 1e-300, 1.0]
    nested_rows = 0
    for kind in sorted(_KINDS):
        for seed in SEEDS:
            params = _params(kind, 5, 60)
            base = GeneratorSpec(kind, seed, params)
            for rescales in ([negative], [tiny], [tiny, tiny], [negative, tiny, negative],
                             [off_support, flipped]):
                spec = base
                for factors in rescales:
                    spec = GeneratorSpec("rescaled", seed, base=spec, factors=factors)
                with np.errstate(over="ignore"):
                    X, y, meta, _ = scalar_generate(kind, seed, params, rescales)
                if not np.isfinite(meta["u_star"]).all():
                    with pytest.raises(ValueError, match="overflows the target at coordinate"):
                        generate(spec)
                    continue
                ds = generate(spec)
                assert ds.X.tobytes() == X.tobytes()
                assert ds.y.tobytes() == y.tobytes()
                _same_meta(ds.meta, meta)
                nested_rows += len(rescales) > 1 and bool(np.signbit(X[X == 0.0]).any())
    assert nested_rows > 0


def test_generated_rows_are_read_only_views_and_signed_zeros_read_as_zero():
    X = np.array([[-0.0, 1.0], [2.0, -0.0]])
    ds = Dataset.from_matrix(X, [1.0, -1.0], {})
    assert np.signbit(ds.X).sum() == 0 and X[0, 0].tobytes() == np.float64(-0.0).tobytes()
    rows = list(ds)
    assert [y for _, y in rows] == [1.0, -1.0] and type(rows[0][1]) is float
    with pytest.raises(ValueError):
        rows[0][0][0] = 5.0
    # a negative factor keeps the zeros off the support at +0.0, as SparseVec.scaled does
    scaled = rescale_dataset(ds, [-1.0, -1.0])
    assert scaled.X.tobytes() == np.array([[0.0, -1.0], [-2.0, 0.0]]).tobytes()


def test_nested_underflow_rescales_match_the_sparsevec_path(tmp_path):
    # 5e-324 underflows the smaller products of coordinate 1 to signed zeros, and -2 then
    # flips their signs; sparse_target's target at seed 1 sits on coordinate 0, so it stays
    # finite. The parsed file leaves entries out, which stay +0.0 off the support.
    rescales = ([1.0, 5e-324, 1.0], [-2.0, -2.0, -2.0])
    base = GeneratorSpec("sparse_target", 1, {"k": 1, "d": 3, "T": 60})
    spec = base
    for factors in rescales:
        spec = GeneratorSpec("rescaled", 1, base=spec, factors=factors)
    path = tmp_path / "sparse.svm"
    path.write_text("1 2:0.25 3:-1\n-1 1:2 2:-0.125\n1\n-1 2:0.75\n")
    parsed = parse_svmlight(path)
    for ds, X in ((generate(spec), generate(base).X),
                  (rescale_dataset(rescale_dataset(parsed, rescales[0]), rescales[1]), parsed.X)):
        rows = sparsevec_rescale(X, rescales)
        assert ds.X.tobytes() == np.array([x.to_dense() for x in rows]).tobytes()
        zeros = np.signbit(ds.X[ds.X == 0.0])
        assert zeros.any() and not zeros.all()
        out = tmp_path / "out.svm"
        write_svmlight(ds, out)
        assert out.read_bytes() == sparsevec_svmlight(rows, ds.y, ds.meta).encode()
