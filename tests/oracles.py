"""Independent test oracles, kept deliberately naive."""

import itertools
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from scipy import stats as sps

from chaconlab.chacon import build_system
from chaconlab.cocycle import FinAbGroup, combine_pairs
from chaconlab.errors import (
    CensoredError,
    DepthExceededError,
    InsufficientDataError,
    OutOfDomainError,
)
from chaconlab.stats import KeyedStream, uniform_law
from chaconlab.suspension import (
    MarkedConfig,
    distinguish_k,
    induced_return,
    lattice_window,
    phi_k_vector,
    push_forward,
    recombine,
    return_time_N_k,
    sample_poisson,
    skew_apply_group,
)


def scipy_chi2_poisson(counts, mean: float, min_expected: float = 5.0):
    """(statistic, p-value) of stats.chi2_poisson, computed through scipy.stats."""
    arr = np.asarray(counts, dtype=int)
    n = arr.size
    if n == 0:
        raise InsufficientDataError("no samples")
    kmax = int(sps.poisson.ppf(1 - 1e-9, mean)) + 1
    probs = sps.poisson.pmf(np.arange(kmax), mean)
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
    edges = []
    acc = 0.0
    for k in range(kmax + 1):
        acc += probs[k]
        if acc * n >= min_expected:
            edges.append(k)
            acc = 0.0
    if len(edges) < 2:
        raise InsufficientDataError("too few samples to form two bins")
    if acc > 0:
        edges[-1] = kmax
    expected, observed = [], []
    lo = 0
    for j, hi in enumerate(edges):
        if j == len(edges) - 1:
            p = 1.0 - sps.poisson.cdf(lo - 1, mean) if lo > 0 else 1.0
            observed.append(int(np.sum(arr >= lo)))
        else:
            p = sps.poisson.cdf(hi, mean) - sps.poisson.cdf(lo - 1, mean)
            observed.append(int(np.sum((arr >= lo) & (arr <= hi))))
        expected.append(p * n)
        lo = hi + 1
    expected = np.asarray(expected)
    expected *= n / expected.sum()
    return sps.chisquare(observed, expected)


def brute_reachable(gens, group: FinAbGroup, bound: int) -> set:
    """All (z, coords) hit by integer combinations with coefficients in [-bound, bound]."""
    reach = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
        z, g = combine_pairs(coeffs, gens, group)
        reach.add((z, g.coords))
    return reach


def random_span_instance(rng, max_order: int = 8, max_gens: int = 3, z_bound: int = 4):
    """A small random group, generator pairs, and a target pair."""
    factor_menu = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 3), (1,)]
    factors = factor_menu[int(rng.integers(0, len(factor_menu)))]
    group = FinAbGroup(factors)
    assert group.order <= max_order
    n_gens = int(rng.integers(1, max_gens + 1))
    gens = [
        (int(rng.integers(-z_bound, z_bound + 1)), group.sample(rng))
        for _ in range(n_gens)
    ]
    target = (int(rng.integers(-z_bound, z_bound + 1)), group.sample(rng))
    return group, gens, target


def _advance(system, config, steps: int):
    for _ in range(steps):
        config, _, _ = push_forward(system, config)
    return config


def four_walk_suspension(start, stop, seed, n_max, p_max, window_hi, k_values, spec, mark_steps):
    """The suspension suite's per-sample checks, each orbit walked on its own.

    For every (sample, k) the orbit is walked four times (return time,
    route B, cocycle sums, zero-mark skew product) and once more for the
    mark test.  Returns the same tallies as ``suites.collect_suspension``,
    with plain-list mark counts.
    """
    system = build_system(n_max)
    window = lattice_window(0, window_hi, system.denom)
    group = spec.group
    stream = KeyedStream(seed)
    law = uniform_law(group.order)
    elements = list(group.elements())
    sym = {g: j for j, g in enumerate(elements)}
    keys = ("uncensored", "conjugacy_failures", "return_time_mismatches",
            "phi_transport_failures")
    per_k = {k: {**dict.fromkeys(keys, 0), "censored": {}} for k in k_values}
    mark_counts = [0] * group.order
    mark_pairs = [[0] * group.order for _ in range(group.order)]
    mark_censored = 0

    for i in range(start, stop):
        config = sample_poisson(window, seed, stream=i, denom=system.denom)
        for k in k_values:
            tally = per_k[k]
            if config.count < k:
                tally["censored"]["TooFewAtoms"] = tally["censored"].get("TooFewAtoms", 0) + 1
                continue
            try:
                points, remainder = distinguish_k(config, k)
                m_steps, adv_pts, adv_rem = induced_return(system, points, remainder, p_max)
                route_a = recombine(adv_pts, adv_rem)
                n_steps = return_time_N_k(system, config, k, p_max)
                route_b = _advance(system, config, n_steps)
                vec = phi_k_vector(system, spec, config, k, p_max)
                marked = MarkedConfig(config, (group.identity(),) * config.count)
                for _ in range(n_steps):
                    marked, _, _ = skew_apply_group(system, spec, marked)
            except CensoredError as exc:
                reasons = exc.report.reasons
                reason = max(reasons, key=reasons.get)
                tally["censored"][reason] = tally["censored"].get(reason, 0) + 1
                continue
            tally["uncensored"] += 1
            tally["return_time_mismatches"] += m_steps != n_steps
            tally["conjugacy_failures"] += not route_a.same_positions(route_b)
            tally["phi_transport_failures"] += tuple(marked.marks[:k]) != vec

        if config.count >= 2:
            start_marks = tuple(
                elements[law.draw(stream, i, 9, atom.id)] for atom in config.atoms
            )
            marked = MarkedConfig(config, start_marks)
            try:
                for _ in range(mark_steps):
                    marked, _, _ = skew_apply_group(system, spec, marked)
            except CensoredError:
                mark_censored += 1
            else:
                for g in marked.marks:
                    mark_counts[sym[g]] += 1
                mark_pairs[sym[marked.marks[0]]][sym[marked.marks[1]]] += 1
    return {
        "per_k": per_k,
        "mark_counts": mark_counts,
        "mark_pairs": mark_pairs,
        "mark_censored": mark_censored,
    }


class FractionTower:
    """The tower engine as first written: every level of every tower
    stored as a pair of Fractions and found by ``bisect``.

    Positions are Fractions in real units.  Each method reproduces the
    matching ``chaconlab.chacon`` (or ``cocycle.eval_phi``) function,
    errors included, from the stored levels alone.
    """

    def __init__(self, n_max: int):
        one = Fraction(1)
        towers = [[(Fraction(0), one)]]
        widths = [one]
        stages = []  # (first spacer's left end, stage high-water mark)
        high_water = one
        for _ in range(1, n_max):
            w = widths[-1] / 3
            prev = towers[-1]
            left = [(lo, lo + w) for lo, _ in prev]
            middle = [(lo + w, lo + 2 * w) for lo, _ in prev]
            right = [(lo + 2 * w, hi) for lo, hi in prev]
            start = high_water
            spacers = []
            for _ in range(3 * len(prev) + 2):
                spacers.append((high_water, high_water + w))
                high_water += w
            towers.append(left + middle + spacers[:1] + right + spacers[1:])
            widths.append(w)
            stages.append((start, high_water))
        self.n_max = n_max
        self.towers = towers
        self.widths = widths
        self.stages = stages
        self.high_water = high_water
        self._order = [sorted(range(len(t)), key=lambda k, t=t: t[k][0]) for t in towers]
        self._los = [[t[k][0] for k in order] for t, order in zip(towers, self._order)]

    def find(self, n: int, x) -> int | None:
        """1-based level index of x in tower n, or None."""
        i = bisect_right(self._los[n - 1], x) - 1
        if i < 0:
            return None
        k = self._order[n - 1][i]
        return k + 1 if x < self.towers[n - 1][k][1] else None

    def locate(self, x, n: int):
        if not 1 <= n <= self.n_max:
            raise ValueError(f"tower order {n} not in 1..{self.n_max}")
        k = self.find(n, x)
        if k is None:
            raise OutOfDomainError(f"{x} is not in the order-{n} tower")
        return k, x - self.towers[n - 1][k - 1][0]

    def translate_at_order(self, x, n: int):
        levels = self.towers[n - 1]
        k = self.find(n, x)
        if k is None:
            raise OutOfDomainError(f"{x} is not in the order-{n} tower")
        if k == len(levels):
            raise DepthExceededError(f"{x} is in the top level of the order-{n} tower")
        return x + (levels[k][0] - levels[k - 1][0])

    def _step(self, x, up: bool):
        if x < 0 or x >= self.high_water:
            raise OutOfDomainError(f"{x} is outside [0, {self.high_water})")
        for n, levels in enumerate(self.towers, start=1):
            k = self.find(n, x)
            if k is None:
                continue
            if up and k < len(levels):
                return x + (levels[k][0] - levels[k - 1][0])
            if not up and k > 1:
                return x + (levels[k - 2][0] - levels[k - 1][0])
        raise DepthExceededError(f"{x} is at the edge of the deepest tower")

    def apply_T(self, x):
        return self._step(x, up=True)

    def apply_T_inv(self, x):
        return self._step(x, up=False)

    def eval_phi(self, spec, x):
        if x < 0 or x >= self.high_water:
            raise OutOfDomainError(f"{x} is outside [0, {self.high_water})")
        if x < 1:
            return spec.base_value
        for stage, (lo, hi) in enumerate(self.stages, start=1):
            if lo <= x < hi:
                j = int((x - lo) / self.widths[stage])
                return spec.middle_value(stage) if j == 0 else spec.right_value(stage, j - 1)
        raise OutOfDomainError(f"{x} is not covered by any stage of this system")
