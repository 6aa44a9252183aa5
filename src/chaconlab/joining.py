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
through the same code.

The suite runs in blocks of ``BLOCK`` samples.  A block holds each family
of all its samples as one ``Family`` in CSR form: flat positions and ids,
per-configuration offsets and negative counts, and each atom's owner.
Sampling stays per configuration, one PCG64 stream each; every later step
is one array pass per block.  Keyed draws hash one prefix state per
(sample, side) and mix in every atom id at once
(``KeyedStream.prefix_states``, ``DiscreteLaw.draw_at``).

Coupling is one lexsort on (sample, position, family), in which a
second-family atom sorts ahead of a first-family atom at the same
position: a first-family atom at t(n) falls in the interval
[t(n), t(n+1)), and one at t(n+1) does not.  Advancing is one +2**53
shift and window mask.  The two exact checks stay independent:
``transport`` moves marks by the shift cocycle, a fresh lexsort couples
the advanced pair, and ``marks_differ`` compares the two sample by
sample; rank tracking compares index plus cocycle with the advanced
configurations.  Blocks are small and fixed so that peak memory does not
grow with the sample count (64 samples at W = 50 hold about 1 MB of
arrays).  The single-pair functions (``couple_marks``, ``advance_joint``,
``advance_biconfig``, ``rank_tracking_consistent``) run the same kernel on
a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import InsufficientDataError
from .parallel import fan_out, merge
from .ratio import format_ratio
from .stats import (
    DiscreteLaw,
    KeyedStream,
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


@dataclass(frozen=True, eq=False)
class Family:
    """One family's configurations across a block of samples, in CSR form.

    Configuration j holds the flat slots ``offsets[j]:offsets[j + 1]`` of
    ``pos`` and ``ids``, and ``owner`` names the configuration of every
    slot.  ``neg[j]`` counts its atoms left of the origin, so the atom in
    flat slot s carries the two-sided index ``s - base[owner[s]]``.
    """

    half_width: int
    pos: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray
    neg: np.ndarray
    owner: np.ndarray

    @classmethod
    def build(cls, half_width: int, pos, ids, counts, neg) -> "Family":
        """The family whose configurations hold ``counts`` consecutive atoms each."""
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # owners in the narrowest unsigned type: less memory, and a radix lexsort key
        owner = np.repeat(np.arange(counts.size, dtype=np.min_scalar_type(counts.size)), counts)
        return cls(half_width, pos, ids, offsets, np.asarray(neg, dtype=np.int64), owner)

    @classmethod
    def of(cls, configs: list[BiConfig]) -> "Family":
        """The configurations, in order, as one family."""
        return cls.build(
            configs[0].half_width,
            np.concatenate([c.pos_nums for c in configs]),
            np.concatenate([c.ids for c in configs]),
            [c.count for c in configs],
            [c.neg_count for c in configs],
        )

    @property
    def n(self) -> int:
        return self.neg.size

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def base(self) -> np.ndarray:
        return self.offsets[:-1] + self.neg - 1

    def config(self, j: int) -> BiConfig:
        lo, hi = self.offsets[j], self.offsets[j + 1]
        return BiConfig(self.half_width, self.ids[lo:hi], self.pos[lo:hi], int(self.neg[j]))


def _sample_sides(half_width: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Arrival numerators left and right of the origin, and empty-side retries.

    Both sides count outward from the origin; the left one is negated by
    the caller.
    """
    rng = make_rng(seed, stream)
    bound, chunk = half_width * _D, half_width + 8
    for retries in range(1000):
        right = snapped_arrivals(rng, bound, chunk)
        left = snapped_arrivals(rng, bound, chunk)
        if right.size and left.size:
            return left, right, retries
    raise InsufficientDataError("window too small: sides keep coming up empty")


def _sample_biconfig_counted(
    half_width: int, seed: int, stream: int
) -> tuple[BiConfig, int]:
    family, retries = sample_family(half_width, seed, np.array([stream]))
    return family.config(0), retries


def sample_biconfig(half_width: int, seed: int, stream: int = 0) -> BiConfig:
    """Unit-intensity sample on [-W, W), one gap chain per side of the origin.

    Degenerate draws with an empty side are resampled (same stream,
    continued draws) so the two-sided indexing always has an index 0 and
    an index 1.
    """
    return _sample_biconfig_counted(half_width, seed, stream)[0]


def sample_family(half_width: int, seed: int, streams: np.ndarray) -> tuple[Family, int]:
    """One ``sample_biconfig`` per stream, with ids 1, 2, ...; and the retries."""
    parts, counts, neg, retries = [], [], [], 0
    for stream in streams.tolist():
        left, right, r = _sample_sides(half_width, seed, stream)
        parts += (left[::-1], right)
        counts.append(left.size + right.size)
        neg.append(left.size)
        retries += r
    pos = np.concatenate(parts).astype(position_dtype(half_width), copy=False)
    family = Family.build(half_width, pos, None, counts, neg)
    local = np.arange(pos.size) - family.offsets[family.owner]
    pos[local < family.neg[family.owner]] *= -1
    return replace(family, ids=local + 1), retries


def empty_biconfig(half_width: int) -> BiConfig:
    """No atoms at all; useful as the degenerate first family."""
    return BiConfig(half_width=half_width, ids=(), pos_nums=(), neg_count=0)


def shift_cocycles(family: Family) -> np.ndarray:
    """Per configuration, the number of atoms in [-1, 0): how far indices climb."""
    p = family.pos
    return np.bincount(family.owner[(p >= -_D) & (p < 0)], minlength=family.n)


def shift_cocycle(config: BiConfig) -> int:
    """Number of atoms in [-1, 0): how far every index climbs under one shift."""
    return int(shift_cocycles(Family.of([config]))[0])


def advance_family(family: Family) -> tuple[Family, np.ndarray]:
    """Shift every atom by +1 and drop those leaving the window; also the kept mask."""
    moved = family.pos + _D
    kept = moved < family.half_width * _D
    owner = family.owner[kept]
    advanced = Family.build(
        family.half_width,
        moved[kept],
        family.ids[kept],
        np.bincount(owner, minlength=family.n),
        np.bincount(owner[moved[kept] < 0], minlength=family.n),
    )
    return advanced, kept


def advance_biconfig(config: BiConfig) -> tuple[BiConfig, np.ndarray]:
    """Shift every atom by +1, dropping atoms that leave the window.

    Returns the advanced configuration and the ids that exited on the
    right edge.  Indices of survivors all climb by the shift cocycle.
    """
    advanced, kept = advance_family(Family.of([config]))
    return advanced.config(0), config.ids[~kept]


def rank_tracking_failures(
    family: Family, shift: np.ndarray, advanced: Family, kept: np.ndarray
) -> np.ndarray:
    """Per configuration, whether some survivor's index did not climb by ``shift``.

    ``advanced`` and ``kept`` come from ``advance_family``; each survivor's
    index plus its configuration's cocycle must name, in the advanced
    configuration, the same id at the position one unit to the right.
    """
    slot = np.flatnonzero(kept)
    owner = family.owner[slot]
    # flat slot in the advanced family of each survivor's climbed index
    target = slot - family.base[owner] + shift[owner] + advanced.base[owner]
    local = target - advanced.offsets[owner]
    bad = (local < 0) | (local >= advanced.counts[owner])
    ok = ~bad
    moved, target = slot[ok], target[ok]
    bad[ok] = (advanced.ids[target] != family.ids[moved]) | (
        advanced.pos[target] != family.pos[moved] + _D
    )
    return np.bincount(owner[bad], minlength=family.n) > 0


def rank_tracking_consistent(config: BiConfig) -> bool:
    """Exact oracle: advancing climbs every surviving index by the cocycle."""
    family = Family.of([config])
    advanced, kept = advance_family(family)
    return not rank_tracking_failures(family, shift_cocycles(family), advanced, kept)[0]


COPIED = "copied"
FRESH = "fresh"


@dataclass(frozen=True, eq=False)
class Marks:
    """Marks and provenance of a block of coupled pairs, entry by entry.

    Every entry belongs to the sample ``owner1``/``owner2``/``owner_x``
    (its place in the block) and carries a two-sided index; entries run
    in ascending (sample, index) order.  The other fields mean what
    ``JoiningSample``'s do.
    """

    owner1: np.ndarray
    index1: np.ndarray
    marks1: np.ndarray
    owner2: np.ndarray
    index2: np.ndarray
    marks2: np.ndarray
    copied2: np.ndarray
    source2: np.ndarray
    owner_x: np.ndarray
    excluded: np.ndarray


_ENTRY_GROUPS = (
    ("owner1", ("index1", "marks1")),
    ("owner2", ("index2", "marks2", "copied2", "source2")),
    ("owner_x", ("excluded",)),
)


def couple_block(
    family1: Family, family2: Family, law: DiscreteLaw, seed: int, samples: np.ndarray
) -> Marks:
    """``couple_marks`` for every pair of a block; ``samples`` keys the draws.

    One lexsort orders the atoms of both families by (sample, position,
    family), with a second-family atom ahead of a first-family atom at
    the same position.  The first-family atoms sorted ahead of a
    second-family atom at t(n) are then those of earlier samples and
    those strictly left of t(n), so their number is the flat slot of the
    lowest first-family atom at or right of t(n).
    """
    stream = KeyedStream(seed)
    n1, n2 = family1.pos.size, family2.pos.size
    marks1 = law.draw_at(stream.prefix_states(samples, 1)[family1.owner], family1.ids)
    order = np.lexsort((
        np.concatenate((np.ones(n1, dtype=np.int8), np.zeros(n2, dtype=np.int8))),
        np.concatenate((family1.pos, family2.pos)),
        np.concatenate((family1.owner, family2.owner)),
    ))
    # second-family atoms keep their flat order in the sort, so the one in
    # flat slot s has s second-family atoms ahead of it
    first = np.flatnonzero(order >= n1) - np.arange(n2)

    # every second-family atom but each configuration's top one is decided
    top = family2.offsets[1:][family2.counts > 0] - 1
    decided = np.ones(n2, dtype=bool)
    decided[top] = False
    slot2 = np.flatnonzero(decided)
    owner2 = family2.owner[slot2]
    first = first[slot2]
    copied = first < family1.offsets[1:][owner2]
    copied[copied] = family1.pos[first[copied]] < family2.pos[slot2[copied] + 1]

    marks2 = np.empty(slot2.size, dtype=np.int64)
    marks2[copied] = marks1[first[copied]]
    fresh = ~copied
    states2 = stream.prefix_states(samples, 2)[owner2[fresh]]
    marks2[fresh] = law.draw_at(states2, family2.ids[slot2[fresh]])
    owner_x = family2.owner[top]
    return Marks(
        owner1=family1.owner,
        index1=np.arange(n1) - family1.base[family1.owner],
        marks1=marks1,
        owner2=owner2,
        index2=slot2 - family2.base[owner2],
        marks2=marks2,
        copied2=copied,
        source2=np.where(copied, first - family1.base[owner2], 0),
        owner_x=owner_x,
        excluded=top - family2.base[owner_x],
    )


def transport(
    marks: Marks,
    family1: Family,
    family2: Family,
    c1: np.ndarray,
    c2: np.ndarray,
    advanced2: Family,
) -> Marks:
    """``advance_joint`` for every pair of a block.

    Surviving marks keep their values at indices climbed by the second
    family's cocycle ``c2``; copied sources climb by the first family's
    ``c1``.  Entries whose successor atom exits become excluded, and so
    does the advanced top index when nothing else names it.
    """
    bound1 = family1.half_width * _D - _D
    bound2 = family2.half_width * _D - _D
    kept1 = family1.pos[marks.index1 + family1.base[marks.owner1]] < bound1
    slot2 = marks.index2 + family2.base[marks.owner2]
    stays = family2.pos[slot2] < bound2
    successor_stays = family2.pos[slot2 + 1] < bound2
    kept2 = stays & successor_stays
    owner1 = marks.owner1[kept1]
    owner2 = marks.owner2[kept2]
    index2 = marks.index2[kept2] + c2[owner2]
    copied2 = marks.copied2[kept2]

    edge = stays & ~successor_stays
    owner_x = marks.owner2[edge]
    excluded = marks.index2[edge] + c2[owner_x]
    top = advanced2.counts - advanced2.neg
    named = np.zeros(family2.n, dtype=bool)
    named[owner2[index2 == top[owner2]]] = True
    named[owner_x[excluded == top[owner_x]]] = True
    unnamed = np.flatnonzero((advanced2.counts > 0) & ~named)
    owner_x = np.concatenate((owner_x, unnamed))
    excluded = np.concatenate((excluded, top[unnamed]))
    order = np.lexsort((excluded, owner_x))
    return Marks(
        owner1=owner1,
        index1=marks.index1[kept1] + c1[owner1],
        marks1=marks.marks1[kept1],
        owner2=owner2,
        index2=index2,
        marks2=marks.marks2[kept2],
        copied2=copied2,
        source2=np.where(copied2, marks.source2[kept2] + c1[owner2], 0),
        owner_x=owner_x[order],
        excluded=excluded[order],
    )


def marks_differ(a: Marks, b: Marks, n: int) -> np.ndarray:
    """Per sample of a block of n, whether ``a`` and ``b`` differ in any entry."""
    bad = np.zeros(n, dtype=bool)
    for owner, fields in _ENTRY_GROUPS:
        oa, ob = getattr(a, owner), getattr(b, owner)
        bad |= np.bincount(oa, minlength=n) != np.bincount(ob, minlength=n)
        # samples with equal entry counts line up entry by entry
        ka, kb = ~bad[oa], ~bad[ob]
        for name in fields:
            diff = getattr(a, name)[ka] != getattr(b, name)[kb]
            bad[oa[ka][diff]] = True
    return bad


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
    marks = couple_block(Family.of([omega1]), Family.of([omega2]), law, seed, [sample_idx])
    return JoiningSample(
        omega1, omega2, *(getattr(marks, f) for f in _SAMPLE_ARRAYS), law, seed, sample_idx
    )


def advance_joint(sample: JoiningSample) -> JoiningSample:
    """Advance both configurations one shift and transport marks by index.

    Surviving marks keep their values at indices climbed by the second
    family's cocycle; copied sources climb by the first family's.  Entries
    whose successor atom exited are dropped (they are no longer decidable
    in the window), which keeps the result equal to re-running the
    coupling on the advanced pair.
    """
    family1, family2 = Family.of([sample.omega1]), Family.of([sample.omega2])
    arrays = {f: getattr(sample, f) for f in _SAMPLE_ARRAYS}
    # one sample: every entry belongs to sample 0
    owners = {o: np.zeros(arrays[fields[0]].size, dtype=np.int64) for o, fields in _ENTRY_GROUPS}
    advanced1, _ = advance_family(family1)
    advanced2, _ = advance_family(family2)
    moved = transport(
        Marks(**owners, **arrays),
        family1,
        family2,
        shift_cocycles(family1),
        shift_cocycles(family2),
        advanced2,
    )
    return replace(
        sample,
        omega1=advanced1.config(0),
        omega2=advanced2.config(0),
        **{f: getattr(moved, f) for f in _SAMPLE_ARRAYS},
    )


# samples per block: each block's flat arrays stay a few hundred kB at
# window 50, so peak memory does not grow with the sample count
BLOCK = 64


def _tally_block(
    samples: np.ndarray, half_width: int, seed: int, law: DiscreteLaw, empty_first_family: bool
) -> dict:
    """``collect_joining``'s tallies for one block of samples."""
    k, n = len(law.symbols), samples.size
    if empty_first_family:
        family1, r1 = Family.of([empty_biconfig(half_width)] * n), 0
    else:
        family1, r1 = sample_family(half_width, seed, 2 * samples)
    family2, r2 = sample_family(half_width, seed, 2 * samples + 1)
    marks = couple_block(family1, family2, law, seed, samples)

    m2, owner2, hit = marks.marks2, marks.owner2, marks.copied2
    source = marks.source2[hit] + family1.base[owner2[hit]]
    # disjoint adjacent pairs (n, n + 1) from each sample's lowest decided index
    per_sample = np.bincount(owner2, minlength=n)
    rank = np.arange(m2.size) - (np.cumsum(per_sample) - per_sample)[owner2]
    lead = np.flatnonzero((rank % 2 == 0) & (rank + 1 < per_sample[owner2]))
    tally = {
        "marginal": np.bincount(m2, minlength=k),
        "adjacent": np.bincount(m2[lead] * k + m2[lead + 1], minlength=k * k).reshape(k, k),
        "copied_pairs": np.bincount(
            marks.marks1[source] * k + m2[hit], minlength=k * k
        ).reshape(k, k),
        "copied": int(np.count_nonzero(hit)),
        "decided": m2.size,
        "excluded": marks.excluded.size,
        "resamples": r1 + r2,
    }

    c1, c2 = shift_cocycles(family1), shift_cocycles(family2)
    advanced1, kept1 = advance_family(family1)
    advanced2, kept2 = advance_family(family2)
    tally["rank_failures"] = int(np.count_nonzero(
        rank_tracking_failures(family1, c1, advanced1, kept1)
        | rank_tracking_failures(family2, c2, advanced2, kept2)
    ))
    moved = transport(marks, family1, family2, c1, c2, advanced2)
    del family1, family2, marks, kept1, kept2  # lower the block's peak memory
    recoupled = couple_block(advanced1, advanced2, law, seed, samples)
    tally["equivariance_failures"] = int(np.count_nonzero(marks_differ(moved, recoupled, n)))
    return tally


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
    empty one, the degenerate regime where no mark can be copied.  Blocks
    of ``BLOCK`` samples merge by ``fan_out``'s rule.
    """
    k = len(law.symbols)
    zero = {
        "marginal": np.zeros(k, dtype=np.int64),
        "adjacent": np.zeros((k, k), dtype=np.int64),
        "copied_pairs": np.zeros((k, k), dtype=np.int64),
        **dict.fromkeys(
            ("copied", "decided", "excluded", "resamples", "rank_failures",
             "equivariance_failures"),
            0,
        ),
    }
    blocks = (
        _tally_block(np.arange(lo, min(lo + BLOCK, stop)), half_width, seed, law, empty_first_family)
        for lo in range(start, stop, BLOCK)
    )
    return reduce(merge, blocks, zero)


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
