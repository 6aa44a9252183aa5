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

Positions are exact rationals with denominator 2**53, held as integer
numerators in numpy arrays, so comparisons, the +1 shift and the interval
search are integer array operations.  The arrays are int64 while every
position and its shift by one fit, that is for (W + 1) * 2**53 < 2**63
(W <= 1022), and object arrays of Python ints for wider windows; both run
through the same code.  A sample's marks, copied sources and excluded
entries are arrays of two-sided indices, and the keyed draws for one
(sample, side) take one array pass (``DiscreteLaw.draw_indices``).
"""

from __future__ import annotations

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


def position_dtype(half_width: int):
    """int64 when every position of the window, shifted by one, fits; else object."""
    return np.int64 if (half_width + 1) * _D < 2**63 else object


@dataclass(frozen=True, eq=False)
class BiConfig:
    """Atoms on [-W, W) with two-sided indexing around the origin.

    ``pos_nums`` are positions scaled by 2**53 (ascending, strict), in the
    array dtype ``position_dtype(half_width)``; ``ids`` are permanent int64
    ids parallel to them.  The atom at slot i carries index
    i - neg_count + 1, so negative-side atoms get indices <= 0 and the
    first atom at or right of 0 gets index 1.  Compare with
    ``same_biconfig``.
    """

    half_width: int
    ids: np.ndarray
    pos_nums: np.ndarray
    neg_count: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half width must be positive")
        bound = self.half_width * _D
        try:
            pos = np.asarray(self.pos_nums, dtype=position_dtype(self.half_width))
        except OverflowError:
            raise ValueError("atom outside the window")
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "pos_nums", pos)
        object.__setattr__(self, "ids", ids)
        if ids.shape != pos.shape or pos.ndim != 1:
            raise ValueError("ids must be parallel to positions")
        by_id = np.sort(ids)
        if not (by_id[1:] != by_id[:-1]).all():
            raise ValueError("ids must be unique")
        if not (pos[1:] > pos[:-1]).all():
            raise ValueError("positions must be strictly increasing")
        if pos.size and not (-bound <= pos[0] and pos[-1] < bound):
            raise ValueError("atom outside the window")
        if self.neg_count != np.count_nonzero(pos < 0):
            raise ValueError("neg_count does not match the positions")

    @property
    def count(self) -> int:
        return self.pos_nums.size

    @property
    def min_index(self) -> int:
        return 1 - self.neg_count

    @property
    def max_index(self) -> int:
        return self.count - self.neg_count

    def indices(self) -> range:
        return range(self.min_index, self.max_index + 1)

    def index_array(self) -> np.ndarray:
        """Every two-sided index, in slot order."""
        return np.arange(self.min_index, self.max_index + 1)

    def _slot(self, n: int) -> int:
        slot = self.neg_count + n - 1
        if not 0 <= slot < self.count:
            raise IndexError(f"index {n} not in {self.min_index}..{self.max_index}")
        return slot

    def t(self, n: int) -> Fraction:
        return Fraction(int(self.pos_nums[self._slot(n)]), _D)

    def pos_num(self, n: int) -> int:
        return int(self.pos_nums[self._slot(n)])

    def id_at(self, n: int) -> int:
        return int(self.ids[self._slot(n)])


def same_biconfig(a: BiConfig, b: BiConfig) -> bool:
    """Equal window, atoms and split at the origin."""
    return (
        a.half_width == b.half_width
        and a.neg_count == b.neg_count
        and np.array_equal(a.ids, b.ids)
        and np.array_equal(a.pos_nums, b.pos_nums)
    )


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
        config = BiConfig(
            half_width=half_width,
            ids=np.arange(1, len(left) + len(right) + 1),
            pos_nums=left + right,
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
    p = config.pos_nums
    return int(np.count_nonzero((p >= -_D) & (p < 0)))


def advance_biconfig(config: BiConfig) -> tuple[BiConfig, np.ndarray]:
    """Shift every atom by +1, dropping atoms that leave the window.

    Returns the advanced configuration and the ids that exited on the
    right edge.  Indices of survivors all climb by the shift cocycle.
    """
    moved = config.pos_nums + _D
    kept = moved < config.half_width * _D
    advanced = BiConfig(
        half_width=config.half_width,
        ids=config.ids[kept],
        pos_nums=moved[kept],
        neg_count=int(np.count_nonzero(moved[kept] < 0)),
    )
    return advanced, config.ids[~kept]


COPIED = "copied"
FRESH = "fresh"


@dataclass(frozen=True, eq=False)
class JoiningSample:
    """A coupled pair: marks on both configurations plus provenance.

    Marks are symbol numbers (positions in ``law.symbols``).  ``marks1``
    is parallel to the two-sided indices ``index1`` of the first
    configuration.  ``index2`` lists every decided second-family index,
    ascending, with its mark in ``marks2``; where ``copied2`` is set the
    mark was copied from first-family index ``source2`` (0 elsewhere),
    otherwise it was drawn fresh.  ``excluded`` lists indices whose
    governing interval is not observable in the window (the top index,
    lacking a successor atom).  Compare with ``same_sample``.
    """

    omega1: BiConfig
    omega2: BiConfig
    index1: np.ndarray
    marks1: np.ndarray
    index2: np.ndarray
    marks2: np.ndarray
    copied2: np.ndarray
    source2: np.ndarray
    excluded: np.ndarray
    law: DiscreteLaw
    seed: int
    sample_idx: int


_SAMPLE_ARRAYS = ("index1", "marks1", "index2", "marks2", "copied2", "source2", "excluded")


def same_sample(a: JoiningSample, b: JoiningSample) -> bool:
    """Equal configurations, marks, provenance and exclusions, index by index."""
    return (
        (a.law, a.seed, a.sample_idx) == (b.law, b.seed, b.sample_idx)
        and same_biconfig(a.omega1, b.omega1)
        and same_biconfig(a.omega2, b.omega2)
        and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in _SAMPLE_ARRAYS)
    )


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
    marks1 = law.draw_indices(stream, (sample_idx, 1), omega1.ids)
    p1, p2 = omega1.pos_nums, omega2.pos_nums
    # slot of the lowest first-family atom at or right of each t(n)
    first = np.searchsorted(p1, p2[:-1])
    copied = first < omega1.count
    copied[copied] = p1[first[copied]] < p2[1:][copied]
    index2 = omega2.index_array()
    marks2 = np.empty(copied.size, dtype=np.int64)
    marks2[copied] = marks1[first[copied]]
    fresh = ~copied
    marks2[fresh] = law.draw_indices(stream, (sample_idx, 2), omega2.ids[:-1][fresh])
    return JoiningSample(
        omega1=omega1,
        omega2=omega2,
        index1=omega1.index_array(),
        marks1=marks1,
        index2=index2[:-1],
        marks2=marks2,
        copied2=copied,
        source2=np.where(copied, first + omega1.min_index, 0),
        excluded=index2[-1:],
        law=law,
        seed=seed,
        sample_idx=sample_idx,
    )


def advance_joint(sample: JoiningSample) -> JoiningSample:
    """Advance both configurations one shift and transport marks by index.

    Surviving marks keep their values at indices climbed by the second
    family's cocycle; copied sources climb by the first family's.  Entries
    whose successor atom exited are dropped (they are no longer decidable
    in the window), which keeps the result equal to re-running the
    coupling on the advanced pair.
    """
    w1, w2 = sample.omega1, sample.omega2
    c1 = shift_cocycle(w1)
    c2 = shift_cocycle(w2)
    adv1, _ = advance_biconfig(w1)
    adv2, _ = advance_biconfig(w2)
    bound1 = w1.half_width * _D - _D
    bound2 = w2.half_width * _D - _D

    kept1 = w1.pos_nums[sample.index1 - w1.min_index] < bound1
    slot2 = sample.index2 - w2.min_index
    stays = w2.pos_nums[slot2] < bound2
    successor_stays = w2.pos_nums[slot2 + 1] < bound2
    kept2 = stays & successor_stays
    copied2 = sample.copied2[kept2]
    index2 = sample.index2[kept2] + c2
    excluded = sample.index2[stays & ~successor_stays] + c2
    if adv2.count and adv2.max_index not in index2 and adv2.max_index not in excluded:
        excluded = np.append(excluded, adv2.max_index)
    return JoiningSample(
        omega1=adv1,
        omega2=adv2,
        index1=sample.index1[kept1] + c1,
        marks1=sample.marks1[kept1],
        index2=index2,
        marks2=sample.marks2[kept2],
        copied2=copied2,
        source2=np.where(copied2, sample.source2[kept2] + c1, 0),
        excluded=np.sort(excluded),
        law=sample.law,
        seed=sample.seed,
        sample_idx=sample.sample_idx,
    )


def rank_tracking_consistent(config: BiConfig) -> bool:
    """Exact oracle: advancing climbs every surviving index by the cocycle."""
    shift = shift_cocycle(config)
    advanced, exited = advance_biconfig(config)
    stays = ~np.isin(config.ids, exited, kind="sort")
    # slot in the advanced configuration of each survivor's climbed index
    slot = config.index_array()[stays] + shift - advanced.min_index
    if not ((slot >= 0) & (slot < advanced.count)).all():
        return False
    return np.array_equal(advanced.ids[slot], config.ids[stays]) and np.array_equal(
        advanced.pos_nums[slot], config.pos_nums[stays] + _D
    )


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
        recoupled = couple_marks(
            advance_biconfig(w1)[0], advance_biconfig(w2)[0], law, seed, sample_idx=i
        )
        if not same_sample(advance_joint(sample), recoupled):
            equivariance_failures += 1

        # decided indices run without gaps, so marks2 is in index order
        m2 = sample.marks2
        decided += m2.size
        excluded += sample.excluded.size
        marginal += np.bincount(m2, minlength=k)
        hit = sample.copied2
        copied += int(np.count_nonzero(hit))
        np.add.at(copied_pairs, (sample.marks1[sample.source2[hit] - w1.min_index], m2[hit]), 1)
        # disjoint adjacent pairs (n, n + 1) from the lowest decided index
        even = m2.size - m2.size % 2
        np.add.at(adjacent, (m2[0:even:2], m2[1:even:2]), 1)
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
    for n, i, p in zip(config.indices(), config.ids.tolist(), config.pos_nums.tolist()):
        entry = {"id": i, "index": n, "pos": format_ratio(Fraction(p, _D))}
        if marks is not None and n in marks:
            entry["mark"] = marks[n]
        atoms.append(entry)
    return {
        "window": [format_ratio(Fraction(-config.half_width)), format_ratio(Fraction(config.half_width))],
        "atoms": atoms,
    }


def joining_sample_to_json(sample: JoiningSample) -> dict:
    symbols = sample.law.symbols
    marks1 = {n: symbols[m] for n, m in zip(sample.index1.tolist(), sample.marks1.tolist())}
    marks2 = {n: symbols[m] for n, m in zip(sample.index2.tolist(), sample.marks2.tolist())}
    provenance = {
        str(n): [COPIED, src] if copied else [FRESH]
        for n, copied, src in zip(
            sample.index2.tolist(), sample.copied2.tolist(), sample.source2.tolist()
        )
    }
    return {
        "omega1": biconfig_to_json(sample.omega1, marks1),
        "omega2": biconfig_to_json(sample.omega2, marks2),
        "provenance": provenance,
        "excluded": sample.excluded.tolist(),
        "law": {"symbols": list(sample.law.symbols), "weights": list(sample.law.weights)},
        "seed": sample.seed,
        "sample_idx": sample.sample_idx,
    }
