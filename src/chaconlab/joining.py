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
the first configuration draw a fresh mark.  Every mark is uniform on
``ALPHABET`` = 2 symbols, drawn by ``stats.keyed_symbols`` and keyed by
(seed, sample, side, atom id), which makes the whole coupling a pure
function of the pair, so advancing the coupled sample and re-running the
coupling on the advanced pair must agree exactly, index by index.

Positions are exact rationals x / 2**53, each held as its unit cell
x // 2**53 and its offset x % 2**53 in two int64 arrays at every window
width, so comparisons, the +1 shift and the interval search are integer
array operations.  The shift adds one to the cell, and the shift cocycle,
the window and the survivor tests read the cell alone.

The suite runs in blocks of ``parallel.BLOCK`` samples: ``fan_out``
calls ``collect_joining`` once per block and merges the tallies.  A block
holds each family of all its samples as one ``Family`` in CSR form: flat
positions and ids, per-configuration offsets and negative counts, and
each atom's owner; its marks (``Marks``) sit on the same flat slots.
Sampling draws all configurations of a block together, one PCG64 stream
each, seeded and snapped in array passes (``suspension.snapped_arrivals``);
every later step is one array pass per block too.  Keyed draws hash one
prefix state per (sample, side) and mix in every atom id at once
(``KeyedStream.prefix_states``, ``keyed_symbols``).

Coupling counts the first-family atoms left of every second-family atom
at once, by a binary search on (sample, cell) and a short walk over the
offsets in the cell; a first-family atom at t(n) falls in the interval
[t(n), t(n+1)), and one at t(n+1) does not.  Advancing is one +1 on the
cells and a window mask.  The two exact checks stay independent:
``transport`` keeps the slots of the atoms that survive the shift and
climbs copied sources by the first family's cocycle, a fresh count
couples the advanced pair, and ``marks_differ`` compares the two, slot
counts first; rank tracking compares index plus cocycle with the
advanced configurations.  Blocks are small and fixed so that peak memory
does not grow with the sample count (64 samples at W = 50 hold about 1 MB
of arrays).  The four single-pair entry points (``_sample_biconfig_counted``,
``couple_marks``, ``advance_joint``, ``rank_tracking_consistent``) remain
only as the names the benchmark's tracer wraps; each calls the kernel on
a one-sample family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError
from .parallel import fan_out
from .stats import KeyedStream, chi2_gof, chi2_independence, keyed_symbols
from .suspension import SNAP_DENOM, atom_ranks, keyed_draw, snapped_arrivals

_D = SNAP_DENOM
ALPHABET = 2  # the suite's marks are uniform on [0, ALPHABET)


@dataclass(frozen=True, eq=False)
class Family:
    """One family's configurations across a block of samples, in CSR form.

    Configuration j holds the flat slots ``offsets[j]:offsets[j + 1]`` of
    ``cell`` and ``off`` (int64; an atom sits at cell + off / 2**53 with off
    in [0, 2**53), strictly ascending) and ``ids`` (permanent int64 ids),
    and ``owner`` names the configuration of every slot.  ``neg[j]`` counts
    its atoms left of the origin, so the atom in flat slot s carries the
    two-sided index ``s - base[owner[s]]``: atoms left of the origin get
    indices <= 0, and the first atom at or right of it gets index 1.
    """

    half_width: int
    cell: np.ndarray
    off: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray
    neg: np.ndarray
    owner: np.ndarray

    @classmethod
    def build(cls, half_width: int, cell, off, ids, counts, neg) -> "Family":
        """The family whose configurations hold ``counts`` consecutive atoms each."""
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # owners in the narrowest unsigned type, for less memory
        owner = np.repeat(np.arange(counts.size, dtype=np.min_scalar_type(counts.size)), counts)
        return cls(half_width, cell, off, ids, offsets, np.asarray(neg, dtype=np.int64), owner)

    @property
    def n(self) -> int:
        return self.neg.size

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def base(self) -> np.ndarray:
        return self.offsets[:-1] + self.neg - 1


def sample_family(half_width: int, seed: int, streams: np.ndarray) -> tuple[Family, int]:
    """Unit-intensity configurations on [-W, W), one per stream; and the retries.

    Each stream draws one gap chain per side of the origin, right then
    left, both counting outward from it, and its atoms get ids 1, 2, ...
    Degenerate draws with an empty side are resampled (same stream,
    continued draws), so every configuration has an index 0 and an index
    1.  All streams of the block draw together (``snapped_arrivals``).
    """
    [(*right, n_right), (left_cell, left_off, n_left)], retries = snapped_arrivals(
        keyed_draw(seed, streams), len(streams), half_width * _D, half_width + 8,
        sides=2, nonempty=True,
    )
    family = Family.build(half_width, None, None, None, n_left + n_right, n_left)
    local = atom_ranks(family.counts)
    on_left = local < family.neg[family.owner]
    cell, off = np.empty(local.size, dtype=np.int64), np.empty(local.size, dtype=np.int64)
    cell[~on_left], off[~on_left] = right
    # the left arrivals of each configuration, nearest the origin last, negated
    mirror = (np.cumsum(n_left) - 1)[family.owner[on_left]] - local[on_left]
    cell[on_left] = (-left_off[mirror] >> 53) - left_cell[mirror]  # a nonzero offset borrows
    off[on_left] = -left_off[mirror] & (_D - 1)
    return replace(family, cell=cell, off=off, ids=local + 1), int(retries.sum())


def shift_cocycles(family: Family) -> np.ndarray:
    """Per configuration, the number of atoms in [-1, 0): how far indices climb."""
    return np.bincount(family.owner[family.cell == -1], minlength=family.n)


def advance_family(family: Family) -> tuple[Family, np.ndarray]:
    """Shift every atom by +1 and drop those leaving the window; also the kept mask."""
    moved = family.cell + 1
    kept = moved < family.half_width
    owner = family.owner[kept]
    advanced = Family.build(
        family.half_width,
        moved[kept],
        family.off[kept],
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
    bad[ok] = advanced.ids[target] != family.ids[moved]
    bad[ok] |= advanced.cell[target] != family.cell[moved] + 1
    bad[ok] |= advanced.off[target] != family.off[moved]
    return np.bincount(owner[bad], minlength=family.n) > 0


@dataclass(frozen=True, eq=False)
class Marks:
    """Marks and provenance of a block of coupled pairs, on the families' slots.

    ``marks1`` and ``owner1`` have one entry per flat slot of the first
    family, the other five one per flat slot of the second; ``owner*`` name
    a slot's sample, its ``Family`` its two-sided index.  Marks are symbols in
    [0, alphabet).  ``decided`` is false only on each configuration's top
    atom, whose interval lacks a successor atom in the window; such a slot
    holds mark 0, not copied, source 0.  A decided mark with ``copied2``
    set was copied from the first-family index ``source2`` (0 elsewhere),
    otherwise drawn fresh.
    """

    marks1: np.ndarray
    decided: np.ndarray
    marks2: np.ndarray
    copied2: np.ndarray
    source2: np.ndarray
    owner1: np.ndarray
    owner2: np.ndarray


def couple_block(
    family1: Family, family2: Family, alphabet: int, seed: int, samples: np.ndarray
) -> Marks:
    """Mark every pair of a block: first family i.i.d., second copied or fresh.

    For each index n of a second configuration whose interval
    [t(n), t(n+1)) sits inside the window, the mark is copied from the
    lowest atom of the pair's first configuration in the interval when
    one exists, otherwise drawn fresh.  Marks are uniform on
    [0, alphabet), and all randomness is keyed by
    (seed, ``samples[j]``, side, atom id), so the result is reproducible
    atom by atom.

    Both families' slots ascend in (sample, cell, offset).  The
    first-family atoms of earlier samples or strictly left of t(n) number
    the slot of the lowest one at or right of t(n): a binary search counts
    those in earlier (sample, cell) units, a short walk those in t(n)'s
    unit at lower offsets.  So [t(n), t(n+1)) holds one exactly when more
    lie left of t(n+1) than of t(n), one at t(n) counting and one at
    t(n+1) not.
    """
    stream = KeyedStream(seed)
    n2 = family2.cell.size
    owner2 = family2.owner
    marks1 = keyed_symbols(stream.prefix_states(samples, 1)[family1.owner], family1.ids, alphabet)
    # a sample's cells lie in [-W, W), so these unit keys ascend with the slots
    span = np.int64(2 * family1.half_width)
    unit1, unit2 = family1.owner * span + family1.cell, owner2 * span + family2.cell
    first, end = np.searchsorted(unit1, unit2), np.searchsorted(unit1, unit2, "right")
    off1 = np.append(family1.off, 0)  # first == n1 reads the pad, which end excludes
    while (left := (first < end) & (off1[first] < family2.off)).any():
        first += left

    # every second-family atom but each configuration's top one is decided
    decided = np.ones(n2, dtype=bool)
    decided[family2.offsets[1:][family2.counts > 0] - 1] = False
    copied = decided & (np.append(first[1:], 0) > first)

    marks2 = np.zeros(n2, dtype=np.int64)
    marks2[copied] = marks1[first[copied]]
    fresh = decided & ~copied
    states2 = stream.prefix_states(samples, 2)[owner2[fresh]]
    marks2[fresh] = keyed_symbols(states2, family2.ids[fresh], alphabet)
    source2 = np.where(copied, first - family1.base[owner2], 0)
    return Marks(marks1, decided, marks2, copied, source2, family1.owner, owner2)


def transport(marks: Marks, family1: Family, family2: Family, c1: np.ndarray) -> Marks:
    """Move a block's marks one shift, from ``family1``/``family2`` to the advanced pair.

    A slot is kept if its atom survives the shift, that is its cell is
    below W - 1, a bound read here and not from ``advance_family`` so that
    the two sides of the equivariance check stay independent.  A kept slot's
    index climbs with the advanced layout; only a copied source, an index
    into the other family, climbs here, by ``c1``.  A decided slot whose
    successor exits becomes undecided, the advanced configuration's top.
    This keeps the result equal to re-coupling the advanced pair.
    """
    kept1 = family1.cell < family1.half_width - 1
    stays = family2.cell < family2.half_width - 1
    # a decided slot's successor is the next flat slot, in its own configuration
    decided = marks.decided & np.append(stays[1:], False)
    copied2 = marks.copied2 & decided
    return Marks(
        marks1=marks.marks1[kept1],
        decided=decided[stays],
        marks2=np.where(decided, marks.marks2, 0)[stays],
        copied2=copied2[stays],
        source2=np.where(copied2, marks.source2 + c1[family2.owner], 0)[stays],
        owner1=family1.owner[kept1], owner2=family2.owner[stays],
    )


def marks_differ(a: Marks, b: Marks, n: int) -> np.ndarray:
    """Per sample of n: are ``a`` and ``b`` on unequal numbers of its slots, or unequal on one?"""
    bad = np.zeros(n, dtype=bool)
    sides = []  # per side: the slots of a and of b compared, and their samples
    for x, y in ((a.owner1, b.owner1), (a.owner2, b.owner2)):
        if np.array_equal(x, y):
            sides.append((slice(None), slice(None), y))
        else:  # owners ascend: keep the samples held on equally many slots
            uneven = np.bincount(x, minlength=n) != np.bincount(y, minlength=n)
            bad |= uneven
            sides.append((~uneven[x], ~uneven[y], y[~uneven[y]]))
    for name in ("marks1", "decided", "marks2", "copied2", "source2"):
        slots_a, slots_b, owners = sides[name != "marks1"]
        bad[owners[getattr(a, name)[slots_a] != getattr(b, name)[slots_b]]] = True
    return bad


# the benchmark's tracer wraps these four by name; each runs the kernel on
# a one-sample family


def _sample_biconfig_counted(half_width: int, seed: int, stream: int) -> tuple[Family, int]:
    """``sample_family`` on the one stream ``stream``."""
    return sample_family(half_width, seed, np.array([stream]))


def couple_marks(
    family1: Family, family2: Family, alphabet: int, seed: int, sample_idx: int = 0
) -> Marks:
    """``couple_block`` on one pair, its draws keyed by ``sample_idx``."""
    return couple_block(family1, family2, alphabet, seed, [sample_idx])


def advance_joint(family1: Family, family2: Family, marks: Marks) -> tuple[Family, Family, Marks]:
    """Advance a coupled pair one shift: both configurations, and their marks."""
    advanced1, _ = advance_family(family1)
    advanced2, _ = advance_family(family2)
    return advanced1, advanced2, transport(marks, family1, family2, shift_cocycles(family1))


def rank_tracking_consistent(family: Family) -> bool:
    """Whether advancing climbs every surviving index by the cocycle."""
    advanced, kept = advance_family(family)
    return not rank_tracking_failures(family, shift_cocycles(family), advanced, kept).any()


def collect_joining(start: int, stop: int, half_width: int, seed: int, alphabet: int) -> dict:
    """Sufficient statistics and exact-check tallies for samples [start, stop)."""
    samples = np.arange(start, stop)
    k = alphabet
    family1, r1 = sample_family(half_width, seed, 2 * samples)
    family2, r2 = sample_family(half_width, seed, 2 * samples + 1)
    marks = couple_block(family1, family2, alphabet, seed, samples)

    m2, decided, hit = marks.marks2, marks.decided, marks.copied2
    source = marks.source2[hit] + family1.base[family2.owner[hit]]
    # disjoint adjacent pairs (n, n + 1) from each sample's lowest index, both
    # decided, that is both below the top slot
    local = atom_ranks(family2.counts)
    lead = np.flatnonzero((local % 2 == 0) & (local + 2 < family2.counts[family2.owner]))
    tally = {
        "marginal": np.bincount(m2[decided], minlength=k),
        "adjacent": np.bincount(m2[lead] * k + m2[lead + 1], minlength=k * k).reshape(k, k),
        "copied_pairs": np.bincount(
            marks.marks1[source] * k + m2[hit], minlength=k * k
        ).reshape(k, k),
        "copied": int(np.count_nonzero(hit)),
        "decided": int(np.count_nonzero(decided)),
        "excluded": int(np.count_nonzero(~decided)),
        "resamples": r1 + r2,
    }

    c1, c2 = shift_cocycles(family1), shift_cocycles(family2)
    advanced1, kept1 = advance_family(family1)
    advanced2, kept2 = advance_family(family2)
    tally["rank_failures"] = int(np.count_nonzero(
        rank_tracking_failures(family1, c1, advanced1, kept1)
        | rank_tracking_failures(family2, c2, advanced2, kept2)
    ))
    moved = transport(marks, family1, family2, c1)
    del family1, family2, marks, kept1, kept2  # lower the block's peak memory
    recoupled = couple_block(advanced1, advanced2, alphabet, seed, samples)
    differ = marks_differ(moved, recoupled, samples.size)
    tally["equivariance_failures"] = int(np.count_nonzero(differ))
    return tally


def verify_joining(
    n_samples: int = 10_000,
    half_width: int = 50,
    seed: int = 0,
    alpha: float = 0.01,
    workers: int = 1,
) -> dict:
    """Full joining verification: exact structure checks plus statistics.

    Exact, on every sample: index tracking under the shift agrees with the
    rank cocycle, and advancing the coupled sample equals re-running the
    coupling on the advanced pair.  Statistical, pooled: second-family
    marginal fit plus independence across disjoint adjacent index pairs
    ("marginal2"), designed rejection of independence between copied pairs
    ("dependence"), and the copied fraction with a 99% interval.

    Blind spots: a copied mark is its source's mark, so the "dependence"
    table is diagonal and its statistic equals its n; it fails to reject
    only through ``source2``'s bookkeeping or too few copied pairs.  And
    sampled families never share a position, so a fault in the tie rule
    leaves both exact counters at 0; only the oracle tests see it.  The
    window and survivor tests read whole cells, which sampled atoms fill.
    """
    tot = fan_out(collect_joining, n_samples, workers, half_width, seed, ALPHABET)

    probs = [1 / ALPHABET] * ALPHABET
    marginal = chi2_gof(tot["marginal"], probs, alpha=alpha, name="marks2_marginal")
    pairwise = chi2_independence(tot["adjacent"], alpha=alpha, name="marks2_adjacent_pairs")
    try:
        dependence = chi2_independence(
            tot["copied_pairs"], alpha=alpha, expect_reject=True, name="copied_dependence"
        )
    except InsufficientDataError:
        dependence = {
            "name": "copied_dependence",
            "verdict": "cannot_reject",
            "reason": "too few copied pairs to test",
        }

    frac = tot["copied"] / tot["decided"] if tot["decided"] else 0.0
    se = (frac * (1 - frac) / tot["decided"]) ** 0.5 if tot["decided"] else 0.0
    exact_ok = tot["rank_failures"] == 0 and tot["equivariance_failures"] == 0
    passed = marginal["passed"] and pairwise["passed"] and dependence.get("passed", False)
    holds = bool(exact_ok and passed)
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
            "chi2_gof": marginal,
            "pairwise_independence": pairwise,
        },
        "dependence": dependence,
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

