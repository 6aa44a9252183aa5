"""Seeded statistical test harness.

Every randomized procedure in the package draws from one of two sources:

* bulk sampling uses numpy's PCG64 keyed by (seed, stream), so parallel
  fan-out gets independent, reproducible streams;
* per-item draws (fresh marks and the like) use a counter-based splitmix64
  hash of an integer key tuple, so a value is a pure function of its key
  and survives reordering, resampling, and parallel evaluation.  Many
  keys are drawn in uint64 array passes with the same values:
  ``KeyedStream.prefix_states`` hashes many key prefixes at once, and
  ``DiscreteLaw.draw_at`` draws from one prefix state per entry, or one
  for all entries, with each entry's last key part (one per atom id).

Test verdicts are reported, never printed: a TestReport records the
statistic, the p-value, and whether the outcome is a pass under the
declared design (goodness-of-fit tests pass on p >= alpha, tests designed
to reject pass on p < alpha).

Each statistic and p-value is computed as SciPy's stats module computes
it, through the same scipy.special function (chdtrc, kolmogorov, pdtr,
pdtrik, ndtr), without importing that module, which takes about a
second. tests/test_stats.py checks on generated inputs that statistic
and p-value are bit-identical to SciPy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        # modulo bias is < upper / 2**64, irrelevant for small alphabets
        return self._state(key) % upper


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite alphabet with positive integer weights (exact probabilities)."""

    symbols: tuple
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.symbols) != len(self.weights) or not self.symbols:
            raise ValueError("need one positive weight per symbol")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")

    @property
    def total(self) -> int:
        return sum(self.weights)

    def prob(self, symbol) -> float:
        return self.weights[self.symbols.index(symbol)] / self.total

    def draw(self, stream: KeyedStream, *key: int):
        u = stream.integer(self.total, *key)
        acc = 0
        for s, w in zip(self.symbols, self.weights):
            acc += w
            if u < acc:
                return s
        raise AssertionError("unreachable")

    def draw_at(self, states, last) -> np.ndarray:
        """Symbol numbers of the draws keyed by a prefix state and a last key part.

        ``states`` holds ``KeyedStream._state`` values of key prefixes, one
        for all of ``last`` or one per entry; each draw equals ``draw``'s
        for the prefix followed by its entry of ``last``.
        """
        u = splitmix64_array(states ^ _as_uint64(last))
        if self.total < 2**64:
            u = u % np.uint64(self.total)
            cum = np.cumsum(np.array(self.weights, dtype=np.uint64))
        else:  # every state is already below the total
            u = u.astype(object)
            cum = np.cumsum(np.array(self.weights, dtype=object))
        return np.searchsorted(cum, u, side="right")


def uniform_law(k: int) -> DiscreteLaw:
    return DiscreteLaw(tuple(range(k)), (1,) * k)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """One reproducible bulk stream: PCG64 keyed by (seed, stream)."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class TestReport:
    name: str
    statistic: float
    p_value: float
    n: int
    alpha: float
    expect_reject: bool
    passed: bool
    params: dict = field(default_factory=dict, compare=False)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n": self.n,
            "alpha": self.alpha,
            "expect_reject": self.expect_reject,
            "passed": self.passed,
            "params": self.params,
        }


def _report(name, statistic, p_value, n, alpha, expect_reject, params=None) -> TestReport:
    passed = (p_value < alpha) if expect_reject else (p_value >= alpha)
    return TestReport(
        name=name,
        statistic=float(statistic),
        p_value=float(p_value),
        n=int(n),
        alpha=float(alpha),
        expect_reject=bool(expect_reject),
        passed=bool(passed),
        params=params or {},
    )


def _pearson(observed, expected, dof) -> tuple[float, float]:
    """Pearson statistic over all cells and its chi-square(dof) upper tail."""
    observed = np.ravel(np.asarray(observed, dtype=float))
    expected = np.ravel(expected)
    stat = ((observed - expected) ** 2 / expected).sum()
    return stat, special.chdtrc(dof, stat)


def _poisson_pmf(ks, mean: float):
    return np.exp(special.xlogy(ks, mean) - special.gammaln(ks + 1) - mean)


def _poisson_cdf(k: int, mean: float) -> float:
    return special.pdtr(k, mean) if k >= 0 else 0.0  # pdtr(-1, mean) is NaN


def _poisson_ppf(q: float, mean: float) -> int:
    """Least k with cdf(k) >= q: pdtrik's real root, rounded up, then checked one below."""
    k = np.ceil(special.pdtrik(q, mean))
    below = max(k - 1, 0)
    return int(below if special.pdtr(below, mean) >= q else k)


def ks_exponential(samples, alpha: float = 0.01, name: str = "ks_exponential") -> TestReport:
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
) -> TestReport:
    """Chi-square goodness of fit of integer draws against Poisson(mean).

    Consecutive count values are merged left to right until every bin's
    expectation reaches min_expected; the right tail is one merged bin.
    """
    arr = np.asarray(counts, dtype=int)
    n = arr.size
    if n == 0:
        raise InsufficientDataError(f"{name}: no samples")
    if mean <= 0:
        raise ValueError("mean must be positive")
    kmax = _poisson_ppf(1 - 1e-9, mean) + 1
    probs = _poisson_pmf(np.arange(kmax), mean)
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))  # tail bin [kmax, inf)

    edges = []  # inclusive upper count value per bin; last bin catches the rest
    acc = 0.0
    for k in range(kmax + 1):
        acc += probs[k]
        if acc * n >= min_expected:
            edges.append(k)
            acc = 0.0
    if not edges or len(edges) < 2:
        raise InsufficientDataError(f"{name}: too few samples to form two bins")
    if acc > 0:  # leftover tail probability folds into the final bin
        edges[-1] = kmax

    expected = []
    observed = []
    lo = 0
    for j, hi in enumerate(edges):
        last = j == len(edges) - 1
        if last:
            p = 1.0 - _poisson_cdf(lo - 1, mean) if lo > 0 else 1.0
            obs = int(np.sum(arr >= lo))
        else:
            p = _poisson_cdf(hi, mean) - _poisson_cdf(lo - 1, mean)
            obs = int(np.sum((arr >= lo) & (arr <= hi)))
        expected.append(p * n)
        observed.append(obs)
        lo = hi + 1
    expected = np.asarray(expected)
    expected *= n / expected.sum()
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
) -> TestReport:
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
) -> TestReport:
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
) -> TestReport:
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
    rep = _report(
        name, z, p_value, arr.size, alpha, expect_reject=False,
        params={"target": target, "mean": mean, "se": se, "tol_sigmas": tol_sigmas},
    )
    return rep

