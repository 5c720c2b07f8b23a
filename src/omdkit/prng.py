"""Deterministic 64-bit PRNG shared by generators, oracles, and tests.

xorshift64*: state updates x ^= x >> 12; x ^= x << 25; x ^= x >> 27 (all
mod 2^64), output is state * 0x2545F4914F6CDD1D mod 2^64. Doubles take
the top 53 bits of the output. Pure integer arithmetic, so identical
seeds give identical streams on every platform.

Array draws compute the same stream through a `StateCursor`: `uniforms(n)`,
`normals(n)` from `_BULK_NORMALS` on, and the data generators, which lay
their draws out as indices into its block of states and evaluate them as
arrays afterwards. The state update is linear over GF(2), so k steps are
one 64x64 bit matrix, applied to a uint64 array through eight byte-indexed
lookup tables. The polar method then runs on the arrays with the scalar
path's IEEE operations; its log goes through `math.log`, because `np.log`
is not always correctly rounded and would change the last bit of some
normals.
"""

import array
import bisect
import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_DEFAULT_STATE = 0x9E3779B97F4A7C15
# normals(n) takes the array path from this n on; below it the scalar loop is faster
# (median crossover between n = 80 and n = 100 on a 2-core x86-64 box, numpy 2.4)
_BULK_NORMALS = 96


@functools.cache
def _jump_table(j):
    """(8, 256) uint64 table of the 64 * 2**j step map, cached per process.

    Entry [i, b] is the image of the state whose byte i is b and whose other
    bytes are zero; the map is linear, so a state's image is the XOR of its
    eight bytes' entries. Built from the images of the 64 unit vectors: 64
    single steps for j = 0, else the 64 * 2**(j-1) step map applied twice.
    """
    if j == 0:
        cols = np.array([_states(1 << b, 64)[-1] for b in range(64)], dtype=np.uint64)
    else:
        cols = _jump(j - 1, _jump(j - 1, np.uint64(1) << np.arange(64, dtype=np.uint64)))
    cols = cols.reshape(8, 8)
    table = np.zeros((8, 1), dtype=np.uint64)
    for bit in range(8):
        table = np.concatenate([table, table ^ cols[:, bit:bit + 1]], axis=1)
    return table


def _jump(j, states):
    """Advance each uint64 state by 64 * 2**j steps."""
    table = _jump_table(j)
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = table[0].take(octets[:, 0])
    for i in range(1, 8):
        out ^= table[i].take(octets[:, i])
    return out


def _states(x, n):
    """uint64 array of the n states that follow state x."""
    out = np.empty(n, dtype=np.uint64)
    for i in range(min(n, 64)):
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        out[i] = x
    k, j = 64, 0
    while k < n:
        m = min(k, n - k)
        out[k:k + m] = _jump(j, out[:m])
        k, j = 2 * k, j + 1
    return out


def _uniforms(states):
    """uniform() of each state, as the scalar path computes it."""
    return ((states * np.uint64(_MULT)) >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _polar(u, v, s):
    """Interleaved normal pairs of accepted polar candidates (u, v) with s = u*u + v*v."""
    logs = np.fromiter(map(math.log, s.tolist()), dtype=np.float64, count=len(s))
    factor = np.sqrt(-2.0 * logs / s)
    return np.column_stack([u * factor, v * factor]).ravel()


class StateCursor:
    """A stream of draws as a block of states, handed out by index through a cursor.

    take(k) hands out k single-state draws (uniform, sign); take_normals(k)
    takes the next k normals: a banked one first, then accepted polar pairs,
    found two states at a time as normal() scans them, banking the second
    value of a pair it does not use. normals() evaluates the normals taken;
    it comes before finish() whenever any were taken. The block doubles
    whenever a draw runs past its end; it always starts at the generator's
    state, so indices stay valid. finish() leaves the generator's state and
    spare normal where the scalar draws would have left them.
    """

    def __init__(self, rng, n):
        self.rng = rng
        self.pos = 0
        self.spare = rng._spare_normal  # the stream's first normal, if any
        self._banked = int(self.spare is not None)  # normals drawn but not taken: 0 or 1
        # index lists are int64 arrays; a Python list would hold an int object per entry
        self._pairs = array.array("q")  # start indices of the pairs taken, in order
        self._fill(max(int(n), 1))

    def _fill(self, n):
        self.states = _states(self.rng.state, n)
        self.uniforms = _uniforms(self.states)
        self._accepted = {}  # parity -> start indices of accepted pairs, derived on first use

    def take(self, k):
        """Index of the first of the next k single-state draws."""
        i = self.pos
        while i + k > len(self.states):
            self._fill(2 * len(self.states))
        self.pos = i + k
        return i

    def take_normals(self, k):
        """Take the next k normals."""
        p = (k - self._banked + 1) // 2  # pairs to draw
        self._banked += 2 * p - k
        while p:
            parity = self.pos % 2
            if parity not in self._accepted:
                u = 2.0 * self.uniforms[parity:-1:2] - 1.0
                v = 2.0 * self.uniforms[parity + 1::2] - 1.0
                s = u * u + v * v
                ok = np.flatnonzero((0.0 < s) & (s < 1.0))
                starts = (parity + 2 * ok).astype(np.int64)
                self._accepted[parity] = array.array("q", starts.tobytes())
            starts = self._accepted[parity]
            j = bisect.bisect_left(starts, self.pos)
            if j + p <= len(starts):
                self._pairs += starts[j:j + p]
                self.pos = starts[j + p - 1] + 2
                return
            self._fill(2 * len(self.states))

    def normals(self):
        """float64 array of the normals taken, in order; the banked one becomes the spare."""
        a = np.frombuffer(self._pairs, dtype=np.int64)
        u, v = 2.0 * self.uniforms[a] - 1.0, 2.0 * self.uniforms[a + 1] - 1.0
        vals = _polar(u, v, u * u + v * v)
        if self.spare is not None:
            vals = np.concatenate([[self.spare], vals])
        self.spare = float(vals[-1]) if self._banked else None
        return vals[:len(vals) - self._banked]

    def finish(self):
        """Move the generator to the state of the last draw taken, with the stream's spare."""
        if self.pos:
            self.rng.state = int(self.states[self.pos - 1])
        self.rng._spare_normal = self.spare


class Xorshift64Star:
    def __init__(self, seed):
        seed = int(seed) & _MASK
        self.state = seed if seed != 0 else _DEFAULT_STATE
        self._spare_normal = None

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def uniform(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n):
        """float64 array of the next n uniform() values."""
        cur = StateCursor(self, n)
        cur.take(n)
        cur.finish()
        return cur.uniforms[:n]

    def uniform_in(self, lo, hi):
        return lo + (hi - lo) * self.uniform()

    def normal(self):
        """Standard normal via the Marsaglia polar method."""
        if self._spare_normal is not None:
            v = self._spare_normal
            self._spare_normal = None
            return v
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self._spare_normal = v * factor
                return u * factor

    def normals(self, n):
        """float64 array of the next n normal() values, leaving the same state and spare."""
        if n < _BULK_NORMALS:
            return np.array([self.normal() for _ in range(n)], dtype=np.float64)
        # a pair is accepted with probability pi/4; a short block doubles
        want = (n + 1) // 2
        cur = StateCursor(self, 2 * (int(want / 0.785) + math.isqrt(want) + 1))
        cur.take_normals(n)
        out = cur.normals()
        cur.finish()
        return out

    def randint(self, n):
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def sign(self):
        return 1.0 if self.next_u64() & 1 else -1.0

    def permutation(self, n):
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx
