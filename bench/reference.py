"""A fixed reference kernel that gauges how fast the host runs this process right now.

The benchmark runs on a few vCPUs of a shared host, whose speed moves by
up to a third over a minute or so. Both the program's calls and any other
code slow down together. The benchmark times this kernel just before
every timed call and reports each call's time as a multiple of it, in
`ref` units; the host's speed cancels out of that ratio and the
program's own cost stays in it.

The kernel mixes the kinds of work the omdkit calls spend their time on:
interpreted loops, parsing text into (index, value) tuples, encoding
small records as JSON, many numpy operations on small vectors, and
d x d array work that runs from the caches or allocates fresh arrays.
No single kind tracks every workload's calls; the mix tracks all three
best (see README.md). It uses only the standard library and numpy, never
omdkit, so no change to the program moves it. Its inputs are constants,
the same for every workload and seed.
"""

import json
import time

import numpy as np

REPS = 3  # each part is timed REPS times and its fastest time kept
# The matrix products slow down least when the host does: 20 of them,
# rather than 2, bring the kernel's swings closest to those of all three
# workloads' calls (see README.md).
MATMULS = 20

_rng = np.random.default_rng(5)


def _svmlight_lines(rows, cols):
    return "\n".join(" ".join(["1"] + [f"{j + 1}:{v:.6g}" for j, v in enumerate(_rng.normal(size=cols))])
                     for _ in range(rows))


_SHORT_TEXT = _svmlight_lines(12, 30)
_LONG_TEXT = _svmlight_lines(10, 100)
_RECORDS = [{"t": i, "y": 1.0, "p": 0.25 * i, "loss": 0.5, "w": [0.1 * j for j in range(5)]}
            for i in range(12)]
_VECS = [np.random.default_rng(i).random(10) for i in range(3)]
_VEC_OUT = np.empty(10)
_SQUARE = np.random.default_rng(0).random((96, 96))
_SQUARE_OUT = np.empty((96, 96))
_U = np.random.default_rng(7).random(300)
_MATRIX = np.random.default_rng(8).random((300, 300))
_MATRIX_OUT = np.empty((300, 300))
_BLOCK = np.ones(1_000_000)
_BLOCK_OUT = np.empty_like(_BLOCK)


def _arithmetic():
    total, table = 0.0, {}
    for i in range(1500):
        total += i * 0.5
        table[i & 63] = total
    return total


def _parse(text):
    rows = []
    for line in text.splitlines():
        parts = line.split()
        entries = []
        for tok in parts[1:]:
            idx, val = tok.split(":")
            entries.append((int(idx) - 1, float(val)))
        rows.append((float(parts[0]), entries))
    return rows


def _parse_short():
    return _parse(_SHORT_TEXT)


def _parse_long():
    return _parse(_LONG_TEXT)


def _encode():
    return [json.dumps(rec, sort_keys=True) for rec in _RECORDS]


def _small_numpy():
    np.copyto(_VEC_OUT, _VECS[0])
    for _ in range(120):
        np.multiply(_VECS[1], 0.1, out=_VEC_OUT)
        np.maximum(_VEC_OUT, _VECS[2], out=_VEC_OUT)


def _matmul():
    for _ in range(MATMULS):
        np.matmul(_SQUARE, _SQUARE, out=_SQUARE_OUT)


def _fresh_outer():
    return np.outer(_U, _U).copy()


def _in_place_matrix():
    for _ in range(3):
        np.add(_MATRIX, _MATRIX, out=_MATRIX_OUT)


def _block_copy():
    np.copyto(_BLOCK_OUT, _BLOCK)


PARTS = (_arithmetic, _parse_short, _small_numpy, _matmul, _encode, _parse_long,
         _fresh_outer, _in_place_matrix, _block_copy)


def reference_seconds():
    """One reading of the kernel: the sum over its parts of each part's fastest of REPS runs."""
    total = 0.0
    for part in PARTS:
        best = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total
