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
arrays).  The four single-pair entry points (``_sample_biconfig_counted``,
``couple_marks``, ``advance_joint``, ``rank_tracking_consistent``) remain
only as the names the benchmark's tracer wraps; each calls the kernel on
a one-sample family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import InsufficientDataError
from .parallel import fan_out, merge
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
class Family:
    """One family's configurations across a block of samples, in CSR form.

    Configuration j holds the flat slots ``offsets[j]:offsets[j + 1]`` of
    ``pos`` (positions scaled by 2**53, strictly ascending, in the dtype
    ``position_dtype(half_width)``) and ``ids`` (permanent int64 ids), and
    ``owner`` names the configuration of every slot.  ``neg[j]`` counts
    its atoms left of the origin, so the atom in flat slot s carries the
    two-sided index ``s - base[owner[s]]``: atoms left of the origin get
    indices <= 0, and the first atom at or right of it gets index 1.
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

    @property
    def n(self) -> int:
        return self.neg.size

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def base(self) -> np.ndarray:
        return self.offsets[:-1] + self.neg - 1


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


def sample_family(half_width: int, seed: int, streams: np.ndarray) -> tuple[Family, int]:
    """Unit-intensity configurations on [-W, W), one per stream; and the retries.

    Each stream draws one gap chain per side of the origin, and its atoms
    get ids 1, 2, ...  Degenerate draws with an empty side are resampled
    (same stream, continued draws), so every configuration has an index 0
    and an index 1.
    """
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


def shift_cocycles(family: Family) -> np.ndarray:
    """Per configuration, the number of atoms in [-1, 0): how far indices climb."""
    p = family.pos
    return np.bincount(family.owner[(p >= -_D) & (p < 0)], minlength=family.n)


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


@dataclass(frozen=True, eq=False)
class Marks:
    """Marks and provenance of a block of coupled pairs, entry by entry.

    Every entry belongs to the sample ``owner1``/``owner2``/``owner_x``
    (its place in the block) and carries a two-sided index; entries run
    in ascending (sample, index) order.  Marks are symbol numbers
    (positions in ``law.symbols``); ``marks1`` is parallel to the first
    configuration's indices ``index1``.  ``index2`` lists every decided
    second-family index with its mark in ``marks2``; where ``copied2`` is
    set the mark was copied from first-family index ``source2`` (0
    elsewhere), otherwise it was drawn fresh.  ``excluded`` lists indices
    whose governing interval is not observable in the window (the top
    index, lacking a successor atom).
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
    """Mark every pair of a block: first family i.i.d., second copied or fresh.

    For each index n of a second configuration whose interval
    [t(n), t(n+1)) sits inside the window, the mark is copied from the
    lowest atom of the pair's first configuration in the interval when
    one exists, otherwise drawn fresh.  All randomness is keyed by
    (seed, ``samples[j]``, side, atom id), so the result is reproducible
    atom by atom.

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
    """Move a block's marks one shift, from ``family1``/``family2`` to the advanced pair.

    Surviving marks keep their values at indices climbed by the second
    family's cocycle ``c2``; copied sources climb by the first family's
    ``c1``.  Entries whose successor atom exits become excluded (they are
    no longer decidable in the window), and so does the advanced top
    index when nothing else names it; this keeps the result equal to
    re-running the coupling on the advanced pair.
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


# the benchmark's tracer wraps these four by name; each runs the kernel on
# a one-sample family


def _sample_biconfig_counted(half_width: int, seed: int, stream: int) -> tuple[Family, int]:
    """``sample_family`` on the one stream ``stream``."""
    return sample_family(half_width, seed, np.array([stream]))


def couple_marks(
    family1: Family, family2: Family, law: DiscreteLaw, seed: int, sample_idx: int = 0
) -> Marks:
    """``couple_block`` on one pair, its draws keyed by ``sample_idx``."""
    return couple_block(family1, family2, law, seed, [sample_idx])


def advance_joint(family1: Family, family2: Family, marks: Marks) -> tuple[Family, Family, Marks]:
    """Advance a coupled pair one shift: both configurations, and their marks."""
    advanced1, _ = advance_family(family1)
    advanced2, _ = advance_family(family2)
    c1, c2 = shift_cocycles(family1), shift_cocycles(family2)
    return advanced1, advanced2, transport(marks, family1, family2, c1, c2, advanced2)


def rank_tracking_consistent(family: Family) -> bool:
    """Whether advancing climbs every surviving index by the cocycle."""
    advanced, kept = advance_family(family)
    return not rank_tracking_failures(family, shift_cocycles(family), advanced, kept).any()


# samples per block: each block's flat arrays stay a few hundred kB at
# window 50, so peak memory does not grow with the sample count
BLOCK = 64


def _tally_block(
    samples: np.ndarray, half_width: int, seed: int, law: DiscreteLaw, empty_first_family: bool
) -> dict:
    """``collect_joining``'s tallies for one block of samples."""
    k, n = len(law.symbols), samples.size
    if empty_first_family:
        pos, ids = np.empty(0, dtype=position_dtype(half_width)), np.empty(0, dtype=np.int64)
        family1, r1 = Family.build(half_width, pos, ids, np.zeros(n), np.zeros(n)), 0
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

