"""Two-sided configurations under the unit shift, with coupled marks.

The base space here is the real line with the map x -> x + 1, observed
through the finite window [-W, W).  Atoms are indexed two-sidedly:
... t(-1) < t(0) < 0 <= t(1) < t(2) ..., so index 1 is the first atom at
or right of the origin.  Advancing by the shift moves every index up by
the number of atoms in [-1, 0); that count is the rank cocycle of the
shift and is checked exactly against independent re-ranking.

Marks couple two independent configurations: each inter-atom interval
[t(n), t(n+1)) of the second configuration looks for the lowest atom of
the first one inside it and copies that atom's mark; intervals missed by
the first configuration draw a fresh mark from the law.  Fresh draws and
first-family marks are keyed by (seed, sample, atom id), which makes the
whole coupling a pure function of the pair, so advancing the coupled
sample and re-running the coupling on the advanced pair must agree
exactly, index by index.

Positions are exact rationals with denominator 2**53; internally they are
stored as raw integer numerators so that comparisons, the +1 shift, and
interval scans are plain integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientDataError
from .parallel import fan_out
from .ratio import format_ratio
from .stats import (
    DiscreteLaw,
    KeyedStream,
    RngSpec,
    chi2_gof,
    chi2_independence,
    make_rng,
    uniform_law,
)
from .suspension import SNAP_DENOM, snapped_arrivals

_D = SNAP_DENOM


@dataclass(frozen=True)
class BiConfig:
    """Atoms on [-W, W) with two-sided indexing around the origin.

    ``pos_nums`` are positions scaled by 2**53 (ascending, strict);
    ``ids`` are permanent and parallel to ``pos_nums``.  The atom at list
    slot i carries index i - neg_count + 1, so negative-side atoms get
    indices <= 0 and the first atom at or right of 0 gets index 1.
    """

    half_width: int
    ids: tuple[int, ...]
    pos_nums: tuple[int, ...]
    neg_count: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half width must be positive")
        if len(self.ids) != len(self.pos_nums) or len(set(self.ids)) != len(self.ids):
            raise ValueError("ids must be unique and parallel to positions")
        bound = self.half_width * _D
        prev = None
        for p in self.pos_nums:
            if not -bound <= p < bound:
                raise ValueError("atom outside the window")
            if prev is not None and p <= prev:
                raise ValueError("positions must be strictly increasing")
            prev = p
        if self.neg_count != sum(1 for p in self.pos_nums if p < 0):
            raise ValueError("neg_count does not match the positions")

    @property
    def count(self) -> int:
        return len(self.pos_nums)

    @property
    def min_index(self) -> int:
        return 1 - self.neg_count

    @property
    def max_index(self) -> int:
        return self.count - self.neg_count

    def indices(self) -> range:
        return range(self.min_index, self.max_index + 1)

    def _slot(self, n: int) -> int:
        slot = self.neg_count + n - 1
        if not 0 <= slot < self.count:
            raise IndexError(f"index {n} not in {self.min_index}..{self.max_index}")
        return slot

    def t(self, n: int) -> Fraction:
        return Fraction(self.pos_nums[self._slot(n)], _D)

    def pos_num(self, n: int) -> int:
        return self.pos_nums[self._slot(n)]

    def id_at(self, n: int) -> int:
        return self.ids[self._slot(n)]


def _sample_biconfig_counted(
    half_width: int, seed: int, stream: int
) -> tuple[BiConfig, int]:
    rng = make_rng(RngSpec(seed=seed, stream=stream))
    bound, chunk = half_width * _D, half_width + 8
    retries = 0
    for _ in range(1000):
        right = snapped_arrivals(rng, bound, chunk)
        left = [-c for c in reversed(snapped_arrivals(rng, bound, chunk))]
        if not right or not left:
            retries += 1
            continue
        nums = left + right
        config = BiConfig(
            half_width=half_width,
            ids=tuple(range(1, len(nums) + 1)),
            pos_nums=tuple(nums),
            neg_count=len(left),
        )
        return config, retries
    raise InsufficientDataError("window too small: sides keep coming up empty")


def sample_biconfig(half_width: int, seed: int, stream: int = 0) -> BiConfig:
    """Unit-intensity sample on [-W, W), one gap chain per side of the origin.

    Degenerate draws with an empty side are resampled (same stream,
    continued draws) so the two-sided indexing always has an index 0 and
    an index 1.
    """
    return _sample_biconfig_counted(half_width, seed, stream)[0]


def empty_biconfig(half_width: int) -> BiConfig:
    """No atoms at all; useful as the degenerate first family."""
    return BiConfig(half_width=half_width, ids=(), pos_nums=(), neg_count=0)


def shift_cocycle(config: BiConfig) -> int:
    """Number of atoms in [-1, 0): how far every index climbs under one shift."""
    return sum(1 for p in config.pos_nums if -_D <= p < 0)


def advance_biconfig(config: BiConfig) -> tuple[BiConfig, tuple[int, ...]]:
    """Shift every atom by +1, dropping atoms that leave the window.

    Returns the advanced configuration and the ids that exited on the
    right edge.  Indices of survivors all climb by the shift cocycle.
    """
    bound = config.half_width * _D
    kept_ids = []
    kept_nums = []
    exited = []
    for i, p in zip(config.ids, config.pos_nums):
        q = p + _D
        if q < bound:
            kept_ids.append(i)
            kept_nums.append(q)
        else:
            exited.append(i)
    advanced = BiConfig(
        half_width=config.half_width,
        ids=tuple(kept_ids),
        pos_nums=tuple(kept_nums),
        neg_count=sum(1 for q in kept_nums if q < 0),
    )
    return advanced, tuple(exited)


COPIED = "copied"
FRESH = "fresh"


@dataclass(frozen=True)
class JoiningSample:
    """A coupled pair: marks on both configurations plus provenance.

    ``marks1``/``marks2`` map two-sided indices to symbols.  Every decided
    second-family index has provenance (COPIED, source index) or
    (FRESH,); ``excluded`` lists indices whose governing interval is not
    observable in the window (the top index, lacking a successor atom).
    """

    omega1: BiConfig
    omega2: BiConfig
    marks1: dict
    marks2: dict
    provenance2: dict
    excluded: tuple[int, ...]
    law: DiscreteLaw
    seed: int
    sample_idx: int


def couple_marks(
    omega1: BiConfig,
    omega2: BiConfig,
    law: DiscreteLaw,
    seed: int,
    sample_idx: int = 0,
) -> JoiningSample:
    """Mark the pair: first family i.i.d., second family copied or fresh.

    For each index n of the second configuration whose interval
    [t(n), t(n+1)) sits inside the window, the mark is copied from the
    lowest first-family atom in the interval when one exists, otherwise
    drawn fresh.  All randomness is keyed by (seed, sample, side, atom
    id), so the result is reproducible atom by atom.
    """
    stream = KeyedStream(seed)
    marks1 = {
        n: law.draw(stream, sample_idx, 1, omega1.id_at(n)) for n in omega1.indices()
    }
    marks2: dict = {}
    provenance2: dict = {}
    excluded = []
    for n in omega2.indices():
        if n + 1 > omega2.max_index:
            excluded.append(n)
            continue
        lo = omega2.pos_num(n)
        hi = omega2.pos_num(n + 1)
        j = bisect_left(omega1.pos_nums, lo)
        if j < omega1.count and omega1.pos_nums[j] < hi:
            src = j - omega1.neg_count + 1
            marks2[n] = marks1[src]
            provenance2[n] = (COPIED, src)
        else:
            marks2[n] = law.draw(stream, sample_idx, 2, omega2.id_at(n))
            provenance2[n] = (FRESH,)
    return JoiningSample(
        omega1=omega1,
        omega2=omega2,
        marks1=marks1,
        marks2=marks2,
        provenance2=provenance2,
        excluded=tuple(excluded),
        law=law,
        seed=seed,
        sample_idx=sample_idx,
    )


def advance_joint(sample: JoiningSample) -> JoiningSample:
    """Advance both configurations one shift and transport marks by index.

    Surviving marks keep their values at climbed indices; copied links are
    re-targeted by the first family's climb.  Entries whose successor atom
    exited are dropped (they are no longer decidable in the window), which
    keeps the result equal to re-running the coupling on the advanced pair.
    """
    c1 = shift_cocycle(sample.omega1)
    c2 = shift_cocycle(sample.omega2)
    adv1, _ = advance_biconfig(sample.omega1)
    adv2, _ = advance_biconfig(sample.omega2)
    bound1 = sample.omega1.half_width * _D - _D
    bound2 = sample.omega2.half_width * _D - _D

    marks1 = {
        n + c1: v for n, v in sample.marks1.items() if sample.omega1.pos_num(n) < bound1
    }
    marks2: dict = {}
    provenance2: dict = {}
    excluded = []
    for n, v in sample.marks2.items():
        if sample.omega2.pos_num(n) >= bound2:
            continue
        if sample.omega2.pos_num(n + 1) >= bound2:
            excluded.append(n + c2)
            continue
        marks2[n + c2] = v
        prov = sample.provenance2[n]
        provenance2[n + c2] = (COPIED, prov[1] + c1) if prov[0] == COPIED else prov
    if adv2.count and adv2.max_index not in marks2 and adv2.max_index not in excluded:
        excluded.append(adv2.max_index)
    return JoiningSample(
        omega1=adv1,
        omega2=adv2,
        marks1=marks1,
        marks2=marks2,
        provenance2=provenance2,
        excluded=tuple(sorted(excluded)),
        law=sample.law,
        seed=sample.seed,
        sample_idx=sample.sample_idx,
    )


def rank_tracking_consistent(config: BiConfig) -> bool:
    """Exact oracle: advancing climbs every surviving index by the cocycle."""
    shift = shift_cocycle(config)
    advanced, exited = advance_biconfig(config)
    exited_set = set(exited)
    for n in config.indices():
        if config.id_at(n) in exited_set:
            continue
        if advanced.id_at(n + shift) != config.id_at(n):
            return False
        if advanced.pos_num(n + shift) != config.pos_num(n) + _D:
            return False
    return True


def collect_joining(
    start: int,
    stop: int,
    half_width: int,
    seed: int,
    law: DiscreteLaw,
    empty_first_family: bool = False,
) -> dict:
    """Sufficient statistics and exact-check tallies for samples [start, stop).

    ``empty_first_family`` replaces every first configuration with the
    empty one, the degenerate regime where no mark can be copied.
    """
    k = len(law.symbols)
    sym_index = {s: i for i, s in enumerate(law.symbols)}
    marginal = np.zeros(k, dtype=np.int64)
    adjacent = np.zeros((k, k), dtype=np.int64)
    copied_pairs = np.zeros((k, k), dtype=np.int64)
    copied = decided = excluded = resamples = 0
    rank_failures = equivariance_failures = 0
    for i in range(start, stop):
        if empty_first_family:
            w1 = empty_biconfig(half_width)
        else:
            w1, r1 = _sample_biconfig_counted(half_width, seed, 2 * i)
            resamples += r1
        w2, r2 = _sample_biconfig_counted(half_width, seed, 2 * i + 1)
        resamples += r2
        sample = couple_marks(w1, w2, law, seed, sample_idx=i)

        if not (rank_tracking_consistent(w1) and rank_tracking_consistent(w2)):
            rank_failures += 1
        if advance_joint(sample) != couple_marks(
            advance_biconfig(w1)[0], advance_biconfig(w2)[0], law, seed, sample_idx=i
        ):
            equivariance_failures += 1

        decided += len(sample.marks2)
        excluded += len(sample.excluded)
        for n, v in sample.marks2.items():
            marginal[sym_index[v]] += 1
            if sample.provenance2[n][0] == COPIED:
                copied += 1
                copied_pairs[sym_index[sample.marks1[sample.provenance2[n][1]]], sym_index[v]] += 1
        lo = min(sample.marks2) if sample.marks2 else 0
        for n in range(lo, max(sample.marks2, default=lo - 1), 2):
            if n in sample.marks2 and n + 1 in sample.marks2:
                adjacent[sym_index[sample.marks2[n]], sym_index[sample.marks2[n + 1]]] += 1
    return {
        "marginal": marginal,
        "adjacent": adjacent,
        "copied_pairs": copied_pairs,
        "copied": copied,
        "decided": decided,
        "excluded": excluded,
        "resamples": resamples,
        "rank_failures": rank_failures,
        "equivariance_failures": equivariance_failures,
    }


def verify_joining(
    n_samples: int,
    half_width: int,
    seed: int,
    law: DiscreteLaw | None = None,
    alpha: float = 0.01,
    workers: int = 1,
    empty_first_family: bool = False,
) -> dict:
    """Full joining verification: exact structure checks plus statistics.

    Exact, on every sample: index tracking under the shift agrees with the
    rank cocycle, and advancing the coupled sample equals re-running the
    coupling on the advanced pair.  Statistical, pooled: second-family
    marginal fit plus independence across disjoint adjacent index pairs
    ("marginal2"), designed rejection of independence between copied pairs
    ("dependence"), and the copied fraction with a 99% interval.
    """
    if law is None:
        law = uniform_law(2)
    tot = fan_out(
        collect_joining, n_samples, workers, half_width, seed, law, empty_first_family
    )

    probs = [w / law.total for w in law.weights]
    marginal = chi2_gof(tot["marginal"], probs, alpha=alpha, name="marks2_marginal")
    pairwise = chi2_independence(tot["adjacent"], alpha=alpha, name="marks2_adjacent_pairs")
    try:
        dependence = chi2_independence(
            tot["copied_pairs"], alpha=alpha, expect_reject=True, name="copied_dependence"
        )
        dependence_json = dependence.to_jsonable()
        dependence_passed = dependence.passed
    except InsufficientDataError:
        dependence_json = {
            "name": "copied_dependence",
            "verdict": "cannot_reject",
            "reason": "too few copied pairs to test",
        }
        dependence_passed = False

    frac = tot["copied"] / tot["decided"] if tot["decided"] else 0.0
    se = (frac * (1 - frac) / tot["decided"]) ** 0.5 if tot["decided"] else 0.0
    exact_ok = tot["rank_failures"] == 0 and tot["equivariance_failures"] == 0
    holds = bool(exact_ok and marginal.passed and pairwise.passed and dependence_passed)
    return {
        "samples": n_samples,
        "half_width": half_width,
        "alpha": alpha,
        "exact": {
            "rank_tracking_failures": tot["rank_failures"],
            "equivariance_failures": tot["equivariance_failures"],
            "checked": n_samples,
        },
        "marginal2": {
            "chi2_gof": marginal.to_jsonable(),
            "pairwise_independence": pairwise.to_jsonable(),
        },
        "dependence": dependence_json,
        "copied_fraction": {
            "value": frac,
            "ci99": [max(0.0, frac - 2.5758 * se), min(1.0, frac + 2.5758 * se)],
            "copied": tot["copied"],
            "decided": tot["decided"],
        },
        "excluded_indices": tot["excluded"],
        "excluded_fraction": tot["excluded"] / (tot["excluded"] + tot["decided"])
        if tot["excluded"] + tot["decided"]
        else 0.0,
        "degenerate_resamples": tot["resamples"],
        "holds": holds,
    }


def biconfig_to_json(config: BiConfig, marks: dict | None = None) -> dict:
    atoms = []
    for slot, (i, p) in enumerate(zip(config.ids, config.pos_nums)):
        n = slot - config.neg_count + 1
        entry = {"id": i, "index": n, "pos": format_ratio(Fraction(p, _D))}
        if marks is not None and n in marks:
            entry["mark"] = marks[n]
        atoms.append(entry)
    return {
        "window": [format_ratio(Fraction(-config.half_width)), format_ratio(Fraction(config.half_width))],
        "atoms": atoms,
    }


def joining_sample_to_json(sample: JoiningSample) -> dict:
    return {
        "omega1": biconfig_to_json(sample.omega1, sample.marks1),
        "omega2": biconfig_to_json(sample.omega2, sample.marks2),
        "provenance": {str(n): list(v) for n, v in sample.provenance2.items()},
        "excluded": list(sample.excluded),
        "law": {"symbols": list(sample.law.symbols), "weights": list(sample.law.weights)},
        "seed": sample.seed,
        "sample_idx": sample.sample_idx,
    }
