"""Seeded statistical test harness.

Every randomized procedure in the package draws from one of two sources:

* bulk sampling uses numpy's PCG64 keyed by (seed, stream), so parallel
  fan-out gets independent, reproducible streams.  ``make_rng`` builds one
  stream through numpy's SeedSequence; ``pcg64_states`` gives the same
  states for a whole array of streams: numpy's SeedSequence supplies the
  seed's pool, and only the stream words and the output are hashed, in
  uint32 array passes.  ``keyed_exponentials`` sets each resulting state
  on one reused generator to draw the same values, stream by stream;
* per-item draws (fresh marks and the like) use a counter-based splitmix64
  hash of an integer key tuple, so a value is a pure function of its key
  and survives reordering, resampling, and parallel evaluation.  Many
  keys are drawn in uint64 array passes with the same values:
  ``KeyedStream.prefix_states`` hashes many key prefixes at once, and
  ``keyed_symbols`` draws uniform symbols from one prefix state per
  entry, or one for all entries, with each entry's last key part (one
  per atom id).  Every mark a suite draws is uniform: Haar measure on a
  finite abelian group is the uniform law.

Test verdicts are reported, never printed: each test returns the dict the
report holds, with the test's name, the statistic, the p-value, the sample
size, alpha, the design, whether the outcome is a pass under that design
(goodness-of-fit tests pass on p >= alpha, tests designed to reject pass
on p < alpha) and the test's parameters.

Each statistic and p-value is computed as SciPy's stats module computes
it, through the same scipy.special function (chdtrc, kolmogorov, pdtr,
pdtrik, ndtr), without importing that module, which takes about a
second. tests/test_stats.py checks on generated inputs that statistic
and p-value are bit-identical to SciPy's.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .errors import InsufficientDataError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 step: advance the state by the golden gamma and mix."""
    x = (state + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(state: np.ndarray) -> np.ndarray:
    """``splitmix64`` on every entry of a uint64 array.

    numpy's uint64 arithmetic wraps modulo 2**64, which is exactly the
    ``& _MASK64`` of the scalar version, so the values agree bit for bit.
    """
    x = state + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _as_uint64(values) -> np.ndarray:
    """Key parts reduced modulo 2**64, as ``_state`` reduces each one."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)  # a cast from int64 wraps two's complement
    # anything else part by part: numpy would read a list mixing 2**63 and -1 as floats
    return np.array([int(v) & _MASK64 for v in values], dtype=np.uint64)


class KeyedStream:
    """Deterministic per-key randomness: a value is a function of (seed, key)."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def _state(self, key: tuple[int, ...]) -> int:
        h = splitmix64(self.seed)
        for part in key:
            h = splitmix64(h ^ (int(part) & _MASK64))
        return h

    def prefix_states(self, first, *rest: int) -> np.ndarray:
        """``_state((f, *rest))`` for every f in ``first``, one array pass per key part."""
        h = splitmix64_array(np.uint64(splitmix64(self.seed)) ^ _as_uint64(first))
        for part in rest:
            h = splitmix64_array(h ^ np.uint64(int(part) & _MASK64))
        return h

    def integer(self, upper: int, *key: int) -> int:
        return self._state(key) % upper


def keyed_symbols(states, last, order: int) -> np.ndarray:
    """Uniform symbols in [0, order) keyed by a prefix state and a last key part.

    ``states`` holds ``KeyedStream._state`` values of key prefixes, one
    for all of ``last`` or one per entry; each symbol equals
    ``KeyedStream.integer(order, *prefix, last)`` for its prefix and entry.
    The symbols are int64, so they mix with int64 arrays without numpy's
    promotion to float64; an order past 2**63 wraps them in two's
    complement.  The modulo bias is below order / 2**64, irrelevant for
    small alphabets.
    """
    return (splitmix64_array(states ^ _as_uint64(last)) % np.uint64(order)).astype(np.int64)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """One reproducible bulk stream: PCG64 keyed by (seed, stream).

    The reference for ``pcg64_states`` and ``keyed_exponentials``, which
    give the same streams for a whole array of streams at once.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence, after O'Neill's seed_seq: a pool of four uint32
# words that every entropy word is hashed into, then hashed out as state
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# The hash steps below run on uint32 arrays, whose arithmetic wraps
# modulo 2**32 as SeedSequence's does.


def _hash(value, xor, mult):
    """One hashmix or state-output step: xor, multiply, xorshift."""
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _constants(first: int, mult: int, count: int) -> np.ndarray:
    """A hash constant and the ``count`` after it, each the last times mult, as a column."""
    out = [first]
    for _ in range(count):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _words32(n) -> list[int]:
    """A nonnegative integer as SeedSequence reads it: 32-bit words, lowest first."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """numpy's SeedSequence pool once the seed's words are in, and the next hash constant.

    A spawn key follows, so SeedSequence pads the seed with zero words to
    the pool size; every stream's words then come after the same prefix.
    Its mixing hashes a zero for each pool word the entropy lacks, so
    ``SeedSequence(seed)`` has that same pool.  Each entropy word is hashed
    once per pool word, so the constant has advanced ``_POOL`` times per
    padded word.
    """
    padded = max(_POOL, len(_words32(seed)))
    pool = np.random.SeedSequence(seed).pool
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, _POOL * padded, 1 << 32) & _MASK32


def pcg64_states(seed: int, streams) -> list[tuple[int, int]]:
    """(state, inc) of ``make_rng(seed, s)``'s PCG64 for every stream s.

    ``SeedSequence(seed, spawn_key=(s,))`` for all streams at once: numpy
    supplies the pool once the seed is in, shared by every stream
    (``_seed_pool``), and only the stream words and the output are hashed
    here, in uint32 array passes.  Each stream word is hashed into all four
    pool words at once, one word column at a time, and a stream with fewer
    words keeps its pool.  Eight uint32 words come out of the pool, low
    word first in each of PCG64's four uint64 seed words, and PCG64 seeds
    its 128-bit LCG from them as ``pcg64_set_seed`` does.
    """
    words = [_words32(s) for s in streams]
    seed_pool, const = _seed_pool(int(seed))
    if not words:
        return []
    width = max(map(len, words))
    columns = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32).T
    counts = np.array([len(w) for w in words])
    pool = np.array(seed_pool, dtype=np.uint32)[:, None].repeat(len(words), axis=1)
    for j, column in enumerate(columns):
        c = _constants(const, _MULT_A, _POOL)
        const = int(c[-1, 0])
        pool = np.where(counts > j, _mix(pool, _hash(column, c[:-1], c[1:])), pool)
    c = _constants(_INIT_B, _MULT_B, 2 * _POOL)
    out = _hash(np.concatenate((pool, pool)), c[:-1], c[1:]).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (out[0::2] | (out[1::2] << np.uint64(32))).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        # state 0, one LCG step, add the seed, one more step
        states.append((((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def keyed_exponentials(seed: int, streams, size: int) -> np.ndarray:
    """Row i: the first ``size`` draws of ``make_rng(seed, streams[i]).exponential(1.0, ...)``.

    Each stream's PCG64 state (``pcg64_states``) is set on one generator,
    which then fills the row; ``exponential(1.0)`` is the standard
    exponential times 1.0, so the values agree bit for bit.
    """
    states = pcg64_states(seed, streams)
    out = np.empty((len(states), size))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    key = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": key, "has_uint32": 0, "uinteger": 0}
    for row, (state, inc) in zip(out, states):
        key["state"], key["inc"] = state, inc
        bits.state = full
        gen.standard_exponential(out=row)
    return out


def _report(name, statistic, p_value, n, alpha, expect_reject, params=None) -> dict:
    """A check result as the report holds it."""
    passed = (p_value < alpha) if expect_reject else (p_value >= alpha)
    return {
        "name": name,
        "statistic": float(statistic),
        "p_value": float(p_value),
        "n": int(n),
        "alpha": float(alpha),
        "expect_reject": bool(expect_reject),
        "passed": bool(passed),
        "params": params or {},
    }


def _pearson(observed, expected, dof) -> tuple[float, float]:
    """Pearson statistic over all cells and its chi-square(dof) upper tail."""
    observed = np.ravel(np.asarray(observed, dtype=float))
    expected = np.ravel(expected)
    stat = ((observed - expected) ** 2 / expected).sum()
    return stat, special.chdtrc(dof, stat)


def _poisson_pmf(ks, mean: float):
    return np.exp(special.xlogy(ks, mean) - special.gammaln(ks + 1) - mean)


def _poisson_cdf(k, mean: float):
    """Poisson(mean) cdf at each k, 0 below the support (where pdtr gives NaN)."""
    k = np.asarray(k)
    return np.where(k >= 0, special.pdtr(k, mean), 0.0)


def _poisson_ppf(q: float, mean: float) -> int:
    """Least k with cdf(k) >= q: pdtrik's real root, rounded up, then checked one below."""
    k = np.ceil(special.pdtrik(q, mean))
    below = max(k - 1, 0)
    return int(below if special.pdtr(below, mean) >= q else k)


def ks_exponential(samples, alpha: float = 0.01, name: str = "ks_exponential") -> dict:
    """Kolmogorov-Smirnov against the unit exponential, asymptotic p-value."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 8:
        raise InsufficientDataError(f"{name}: need at least 8 samples, got {arr.size}")
    x = np.sort(arr)
    n = x.size
    cdf = -special.expm1(-np.maximum(x, 0.0))  # zero below the support
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    p_value = np.clip(special.kolmogorov(d * math.sqrt(n)), 0.0, 1.0)
    return _report(name, d, p_value, n, alpha, expect_reject=False)


def chi2_poisson(
    counts,
    mean: float,
    alpha: float = 0.01,
    min_expected: float = 5.0,
    name: str = "chi2_poisson",
) -> dict:
    """Chi-square goodness of fit of integer draws against Poisson(mean).

    Consecutive count values are merged left to right until every bin's
    expectation reaches min_expected; the right tail is one merged bin.
    """
    arr = np.asarray(counts)
    n = arr.size
    if n == 0:
        raise InsufficientDataError(f"{name}: no samples")
    if arr.dtype.kind not in "iu" or arr.min() < 0:  # no bin holds -5, and 2.7 is no count
        raise ValueError(f"{name}: counts must be nonnegative integers")
    if mean <= 0:
        raise ValueError("mean must be positive")
    kmax = _poisson_ppf(1 - 1e-9, mean) + 1
    probs = _poisson_pmf(np.arange(kmax), mean)
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))  # tail bin [kmax, inf)

    # inclusive upper count value per bin; the last bin catches the rest,
    # leftover tail probability included
    edges = []
    acc = 0.0
    for k in range(kmax + 1):
        acc += probs[k]
        if acc * n >= min_expected:
            edges.append(k)
            acc = 0.0
    if len(edges) < 2:
        raise InsufficientDataError(f"{name}: too few samples to form two bins")

    # bin j holds counts edges[j-1]+1 .. edges[j], and the first starts at 0
    lower = _poisson_cdf([-1, *edges[:-1]], mean)
    expected = np.diff(lower, append=1.0) * n
    expected *= n / expected.sum()
    observed = np.bincount(np.searchsorted(edges[:-1], arr), minlength=len(edges))
    stat, p_value = _pearson(observed, expected, len(edges) - 1)
    return _report(
        name, stat, p_value, n, alpha, expect_reject=False,
        params={"bins": len(edges), "mean": mean},
    )


def chi2_gof(
    observed,
    probs,
    alpha: float = 0.01,
    min_expected: float = 5.0,
    name: str = "chi2_gof",
) -> dict:
    """Chi-square goodness of fit of symbol counts against given probabilities."""
    obs = np.asarray(observed, dtype=float)
    p = np.asarray(probs, dtype=float)
    if obs.ndim != 1 or obs.shape != p.shape or obs.size < 2:
        raise InsufficientDataError(f"{name}: need matching 1-d counts and probabilities")
    n = obs.sum()
    expected = p * n
    if n == 0 or expected.min() < min_expected:
        raise InsufficientDataError(f"{name}: expected cell count below {min_expected}")
    expected *= n / expected.sum()
    stat, p_value = _pearson(obs, expected, obs.size - 1)
    return _report(name, stat, p_value, int(n), alpha, expect_reject=False,
                   params={"cells": int(obs.size)})


def chi2_independence(
    table,
    alpha: float = 0.01,
    expect_reject: bool = False,
    name: str = "chi2_independence",
) -> dict:
    """Pearson chi-square on a contingency table, no continuity correction."""
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise InsufficientDataError(f"{name}: need a 2-d table")
    if (arr < 0).any():
        raise ValueError(f"{name}: counts must be nonnegative")
    arr = arr[arr.sum(axis=1) > 0][:, arr.sum(axis=0) > 0]
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise InsufficientDataError(f"{name}: table degenerates below 2x2")
    expected = arr.sum(axis=1, keepdims=True) * arr.sum(axis=0, keepdims=True) / arr.sum()
    dof = (arr.shape[0] - 1) * (arr.shape[1] - 1)
    stat, p_value = _pearson(arr, expected, dof)
    return _report(
        name, stat, p_value, int(arr.sum()), alpha, expect_reject,
        params={"shape": list(arr.shape), "dof": dof},
    )


def mc_mean(
    values,
    target: float,
    tol_sigmas: float = 3.0,
    name: str = "mc_mean",
) -> dict:
    """Monte-Carlo mean against a target, pass iff |z| <= tol_sigmas."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise InsufficientDataError(f"{name}: need at least 2 samples")
    mean = math.fsum(arr) / arr.size
    sd = float(np.std(arr, ddof=1))
    se = sd / math.sqrt(arr.size)
    if se == 0:
        z = 0.0 if mean == target else math.inf
    else:
        z = (mean - target) / se
    p_value = float(2 * special.ndtr(-abs(z)))
    alpha = float(2 * special.ndtr(-tol_sigmas))
    return _report(
        name, z, p_value, arr.size, alpha, expect_reject=False,
        params={"target": target, "mean": mean, "se": se, "tol_sigmas": tol_sigmas},
    )

