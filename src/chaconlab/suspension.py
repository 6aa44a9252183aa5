"""Finite point configurations driven by the tower map.

A configuration is a finite, strictly increasing list of atoms with
permanent integer ids, standing in for one sample of a unit-intensity
point process restricted to a window inside the covered set.  Pushing a
configuration forward applies the tower map to every atom; since the map
is only piecewise order-preserving the atoms get re-ranked, and the
induced rank permutation is the combinatorial shadow of the dynamics.

Everything here is exact except sampling itself: exponential gaps are
drawn in double precision and snapped to multiples of 2**-53, after which
the whole pipeline is integer arithmetic.  Every suite samples through one
block kernel, ``snapped_arrivals``: each stream of a block is one keyed
PCG64 stream (``stats.keyed_exponentials``), and each chain is snapped and
summed from its own start in a 2-D pass over about one chunk of draws per
stream, widened only where the chain is longer.  A sampled block is flat
from the sampler to every consumer: all its positions, configuration
after configuration, and each one's atom count, x / 2**53 held as an
int64 cell x // 2**53 and an int64 offset x % 2**53.  ``sample_windows``
serves the suspension and Poisson suites, ``joining.sample_family`` the
joining suite, and ``sample_poisson`` is a one-stream call of the same
kernel.

A configuration's positions and window are integers over its lattice
denominator ``denom``; pushed through a tower system they live on the
system's lattice, so rank comparisons and permutation identities hold
exactly, never up to floating error.

Two engines move configurations.  The scalar one calls ``chacon.apply_T``
atom by atom: ``push_forward``, ``return_time_N_k``, ``skew_apply_group``
and ``phi_k_vector`` on ``PointConfig`` objects, and ``induced_return``
(route A of the suspension suite, every k in one pass) on plain
positions.  The array one, ``walk_orbits``, moves a whole block in that
flat form in the coordinates of the deepest tower N: an atom is a
level and an offset, a step adds one to every level, and
``TowerCoords.descend`` turns levels into positions and level-function
values by the rank-one digit rule.  Atoms rank by their level alone,
atoms on one level in offset order, and levels and keys are int64 at
every depth the walk takes (up to ``MAX_WALK_DEPTH``, h_25 < 2**63).
The scalar engine is the array engine's oracle in the tests.

Whole-configuration censoring: the tower map is partial (depth-bounded),
so the first atom to run off the top censors the entire configuration,
and its ``DepthExceededError`` propagates.  A search loop that uses up
its step budget raises ``PMaxExceededError``.  Both are
``CensoredError``s whose ``reason`` names the cause.  ``induced_return``
reports the reason that stopped its pass; ``walk_orbits`` only leaves
out the returns it did not find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from . import chacon
from .chacon import SNAP_DENOM, ChaconSystem, Interval
from .cocycle import CocycleSpec, GroupElem, eval_phi, phi_iter
from .errors import DepthExceededError, InsufficientDataError, PMaxExceededError
from .ratio import ceil_lattice, format_lattice, parse_ratio, to_lattice
from .stats import keyed_exponentials


class Atom(NamedTuple):
    id: int
    pos: int


def lattice_window(lo, hi, denom: int = SNAP_DENOM) -> Interval:
    """The lattice interval holding exactly the multiples of 1/denom in [lo, hi)."""
    return Interval(ceil_lattice(lo, denom), ceil_lattice(hi, denom))


@dataclass(frozen=True)
class PointConfig:
    """Strictly increasing atoms with unique permanent ids inside a window.

    Positions and the window are integers over ``denom``.
    """

    window: Interval
    atoms: tuple[Atom, ...]
    denom: int = SNAP_DENOM
    provenance: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        ids = set()
        prev = None
        for a in self.atoms:
            if a.id in ids:
                raise ValueError(f"duplicate atom id {a.id}")
            ids.add(a.id)
            if not (self.window.lo <= a.pos < self.window.hi):
                raise ValueError(f"atom {a.id} at {a.pos} is outside the window")
            if prev is not None and a.pos <= prev:
                raise ValueError("atom positions must be strictly increasing")
            prev = a.pos

    @classmethod
    def numbered(cls, window: Interval, positions, denom: int = SNAP_DENOM) -> "PointConfig":
        """Atoms at the given increasing positions, with ids 1, 2, ... in rank order."""
        atoms = tuple(Atom(i, p) for i, p in enumerate(positions, start=1))
        return cls(window=window, atoms=atoms, denom=denom)

    @property
    def count(self) -> int:
        return len(self.atoms)

    def positions(self) -> tuple[int, ...]:
        return tuple(a.pos for a in self.atoms)

    def t(self, n: int) -> int:
        """Position of the rank-n atom, 1-based."""
        if not 1 <= n <= self.count:
            raise IndexError(f"rank {n} not in 1..{self.count}")
        return self.atoms[n - 1].pos

    def same_positions(self, other: "PointConfig") -> bool:
        return self.positions() == other.positions()


@dataclass(frozen=True)
class RankPermutation:
    """Bijection of 1..size; images[i-1] is the image of rank i."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, size: int) -> "RankPermutation":
        return cls(tuple(range(1, size + 1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, n: int) -> int:
        return self.images[n - 1]

    def inverse(self) -> "RankPermutation":
        inv = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return RankPermutation(tuple(inv))

    def after(self, other: "RankPermutation") -> "RankPermutation":
        """self composed after other: (self.after(other))(n) == self(other(n))."""
        if other.size != self.size:
            raise ValueError("size mismatch")
        return RankPermutation(tuple(self.images[other.images[i] - 1] for i in range(self.size)))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def fixes_prefix(self, k: int) -> bool:
        return all(self.images[i] == i + 1 for i in range(k))


@dataclass(frozen=True)
class MarkedConfig:
    """A configuration with one mark per rank (group elements or plain symbols)."""

    config: PointConfig
    marks: tuple

    def __post_init__(self):
        if len(self.marks) != self.config.count:
            raise ValueError("need exactly one mark per atom")


_SNAP_FLOAT = float(SNAP_DENOM)
# a row whose chains keep coming up empty gives up after this many attempts
MAX_ATTEMPTS = 1000


def keyed_draw(seed: int, streams):
    """``snapped_arrivals``' draw from the PCG64 streams ``make_rng(seed, s)``."""
    streams = np.asarray(streams)
    return lambda rows, size: keyed_exponentials(seed, streams[rows], size)


def snapped_arrivals(draw, n: int, bound: int, chunk: int, sides: int = 1, nonempty: bool = False):
    """Chains of unit-rate arrival times below bound / 2**53 for n streams, over 2**53.

    ``draw(rows, size)`` gives the first ``size`` Exp(1) draws of each
    listed row's stream, one row each.  Every gap is snapped to the
    nearest multiple of 2**-53 and floored at one step, so arrivals
    strictly increase.  A chain's arrivals are its running sums up to the
    first one at or past the bound.  Draws come ``chunk`` at a time: the
    rest of the chunk that crosses the bound is discarded, so a row's next
    chain starts at the chunk boundary after its crossing.  Each row draws
    ``sides`` chains one after the other; with ``nonempty`` a row whose
    chains are not all nonempty draws all ``sides`` again, going on along
    its stream.  Returns ``[(cells, offs, counts)]`` per side, the int64
    arrivals x = cell * 2**53 + off, off in [0, 2**53), of all rows flat in
    row order, and each row's number of such redraws.

    Each chain is summed from its own start, in a 2-D pass over a window
    of one chunk per row, and a row whose chain does not cross in its
    window is summed again over one twice as wide.  Every row draws
    (sides + 2) * chunk values at first.  A row whose window runs past its
    draws drops out and, once the others are done, starts over alone with
    twice as many; its chains are a fixed function of its stream, so they
    come out the same.  A gap's whole units sum in int64 and its 53-bit
    part in uint64 modulo 2**53, a divisor of 2**64; a part is below 2**53,
    so the offset drops exactly where the parts carry one into the cell.
    """
    bound_cell, bound_off = divmod(bound, SNAP_DENOM)

    def window(draws, at, start, size):
        """Sums over ``size`` columns from the rows' starts, and how many lie below the bound."""
        gaps = draws[at[:, None], start[:, None] + np.arange(size)]
        np.rint(np.multiply(gaps, _SNAP_FLOAT, out=gaps), out=gaps)
        np.maximum(gaps, 1.0, out=gaps)
        cells = (gaps * 2.0**-53).astype(np.int64)  # exact: 2**53 is a power of two
        gaps -= cells * _SNAP_FLOAT
        offs = (gaps.astype(np.uint64).cumsum(axis=1) & np.uint64(SNAP_DENOM - 1)).view(np.int64)
        cells[:, 1:] += offs[:, 1:] < offs[:, :-1]  # the carries
        cells = cells.cumsum(axis=1)
        # sums ascend along a row, so a row that reaches the bound has reached it at its end
        reached = (cells > bound_cell) | ((cells == bound_cell) & (offs >= bound_off))
        return cells, offs, np.where(reached[:, -1], reached.argmax(axis=1), size)

    # per side, every row's last chain: its window's cells and offsets, and its count
    found = [[np.zeros((n, 0), dtype=np.int64)] * 2 + [np.zeros(n, dtype=np.int64)]
             for _ in range(sides)]
    redraws = np.zeros(n, dtype=np.int64)
    rows, width = np.arange(n), (sides + 2) * chunk
    while rows.size:
        draws, short = draw(rows, width), np.zeros(rows.size, dtype=bool)
        start, tries = np.zeros(rows.size, dtype=np.int64), np.zeros(rows.size, dtype=np.int64)
        # the first pass takes every row; with nonempty, rows with an empty side go round again
        retry = np.arange(rows.size)
        while retry.size:
            if tries[retry[0]] == MAX_ATTEMPTS:
                raise InsufficientDataError("window too small: sides keep coming up empty")
            tries[retry] += 1
            empty = np.zeros(rows.size, dtype=bool)
            for side in found:
                at, size = retry, chunk
                while at.size:
                    short[at[start[at] + size > width]] = True
                    at = at[~short[at]]
                    cells, offs, count = window(draws, at, start[at], size)
                    for i, part in ((0, cells), (1, offs)):  # over the row's, widened with zeros
                        if size > side[i].shape[1]:
                            pad = np.zeros((n, size - side[i].shape[1]), dtype=np.int64)
                            side[i] = np.concatenate([side[i], pad], axis=1)
                        side[i][rows[at], :size] = part
                    side[2][rows[at]] = count
                    at, size = at[count == size], 2 * size
                count = side[2][rows[retry]]
                empty[retry] |= count == 0
                start[retry] = ((start[retry] + count) // chunk + 1) * chunk
            retry = retry[(empty[retry] if nonempty else False) & ~short[retry]]
        redraws[rows] = tries - 1
        rows, width = rows[short], 2 * width

    out = []
    for cells, offs, counts in found:
        taken = np.arange(cells.shape[1]) < counts[:, None]
        out.append((cells[taken], offs[taken], counts))
    return out, redraws


def atom_ranks(counts: np.ndarray) -> np.ndarray:
    """Each flat atom's 0-based rank within its configuration, given the atom counts."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def sample_windows(hi: int, seed: int, streams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-intensity samples on [0, hi / 2**53): flat cells and offsets, per-stream counts.

    Each position is x / 2**53 with x = cell * 2**53 + off, an exact sum
    of snapped gaps (see ``snapped_arrivals``), drawn from
    ``make_rng(seed, s)`` for every stream s.
    """
    chunk = max(16, hi // SNAP_DENOM + 8)
    [side], _ = snapped_arrivals(keyed_draw(seed, streams), len(streams), hi, chunk)
    return side


def sample_poisson(
    window: Interval, seed: int, stream: int = 0, denom: int = SNAP_DENOM
) -> PointConfig:
    """``sample_windows`` on the one stream ``stream``, as a configuration over ``denom``."""
    scale, rest = divmod(denom, SNAP_DENOM)
    if rest:
        raise ValueError(f"lattice denominator {denom} is not a multiple of 2**53")
    # lo + x * scale >= hi exactly when x >= ceil((hi - lo) / scale)
    cells, offs, _ = sample_windows(-(-window.width // scale), seed, [stream])
    xs = (c * SNAP_DENOM + o for c, o in zip(cells.tolist(), offs.tolist()))
    return PointConfig.numbered(window, [window.lo + x * scale for x in xs], denom)


def push_forward(
    system: ChaconSystem, config: PointConfig
) -> tuple[PointConfig, RankPermutation]:
    """Apply the tower map to every atom and re-rank.

    The permutation sends old ranks to new ranks.  The first atom without
    an image censors the whole configuration: its DepthExceededError
    propagates.
    """
    if config.denom != system.denom:
        raise ValueError("the configuration and the system use different lattices")
    mapped = [Atom(a.id, chacon.apply_T(system, a.pos)) for a in config.atoms]
    order = sorted(range(len(mapped)), key=lambda i: mapped[i].pos)
    for i, j in zip(order, order[1:]):
        if mapped[i].pos == mapped[j].pos:
            raise AssertionError("map collision: two atoms landed on one position")
    images = [0] * len(mapped)
    for new_rank, old_idx in enumerate(order, start=1):
        images[old_idx] = new_rank
    out = PointConfig(
        window=system.covered,
        atoms=tuple(mapped[i] for i in order),
        denom=system.denom,
    )
    return out, RankPermutation(tuple(images))


def psi_iter(system: ChaconSystem, config: PointConfig, p: int) -> RankPermutation:
    """Rank permutation accumulated over p pushforward steps (identity at p == 0)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    total = RankPermutation.identity(config.count)
    cur = config
    for _ in range(p):
        cur, step = push_forward(system, cur)
        total = step.after(total)
    return total


def return_time_N_k(system: ChaconSystem, config: PointConfig, k: int, p_max: int) -> int:
    """Least p in 1..p_max whose accumulated permutation fixes ranks 1..k.

    k == 0 is vacuous, so the answer is 1.  Depth censoring propagates;
    budget exhaustion raises PMaxExceededError.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > config.count:
        raise InsufficientDataError(f"k={k} exceeds the atom count {config.count}")
    total = RankPermutation.identity(config.count)
    cur = config
    for p in range(1, p_max + 1):
        cur, step = push_forward(system, cur)
        total = step.after(total)
        if total.fixes_prefix(k):
            return p
    raise PMaxExceededError(f"no prefix-fixing time within {p_max} steps")


def distinguish_k(config: PointConfig, k: int) -> tuple[tuple[int, ...], PointConfig]:
    """Split off the k lowest atoms as bare positions; keep the rest."""
    if not 0 <= k <= config.count:
        raise InsufficientDataError(f"k={k} not in 0..{config.count}")
    points = tuple(a.pos for a in config.atoms[:k])
    remainder = PointConfig(window=config.window, atoms=config.atoms[k:], denom=config.denom)
    return points, remainder


def recombine(points: Sequence[int], remainder: PointConfig) -> PointConfig:
    """Inverse of distinguish_k on positions: re-adjoin the points as atoms.

    Ids are relabeled 1..n in rank order, so equality with an original
    configuration is equality of positions.
    """
    if not in_split_order(points, remainder.positions()):
        raise ValueError("points must increase strictly and sit strictly below the remainder")
    merged = list(points) + list(remainder.positions())
    return PointConfig(
        window=remainder.window,
        atoms=tuple(Atom(i + 1, p) for i, p in enumerate(merged)),
        denom=remainder.denom,
    )


def in_split_order(points: Sequence[int], rest: Sequence[int]) -> bool:
    """Are the points strictly increasing and strictly below every position in rest?"""
    if any(b <= a for a, b in zip(points, points[1:])):
        return False
    return not (points and rest and points[-1] >= min(rest))


def induced_return(
    system: ChaconSystem,
    spec: CocycleSpec,
    positions: Sequence[int],
    k_values: Iterable[int],
    p_max: int,
) -> tuple[dict, str | None]:
    """First returns to the split-order sets, every k in one pass.

    For each k, x_1..x_k are the first k positions and the rest is the
    remainder.  All atoms step together, and k returns at the first p in
    1..p_max where x_1 < ... < x_k < min(rest) holds again.  The level
    function at x_1..x_k before steps 1..p is summed on integer coordinates
    once k returns, so a censored k evaluates none.  Returns ({k: (p,
    advanced points then the advanced rest in increasing order, sums at
    x_1..x_k)}, the ``reason`` of the censoring that stopped the pass: an
    atom ran off the top or p_max passed, or None when every k returned).
    A map collision raises AssertionError.
    """
    step = chacon.apply_T
    cur = list(positions)
    waiting = sorted(set(k_values))
    width = min(max(waiting, default=0), len(cur))
    orbit = []  # x_1..x_width before each step
    sums, summed = [(0,) * spec.group.rank] * width, [0] * width
    returns = {}
    for p in range(1, p_max + 1):
        if not waiting:
            break
        orbit.append(cur[:width])
        try:
            cur = [step(system, x) for x in cur]
        except DepthExceededError as exc:
            return returns, exc.reason
        if len(set(cur)) < len(cur):
            raise AssertionError("map collision: two atoms landed on one position")
        for k in [k for k in waiting if in_split_order(cur[:k], cur[k:])]:
            for j in range(min(k, width)):
                values = (eval_phi(spec, system, xs[j]).coords for xs in orbit[summed[j]:])
                sums[j], summed[j] = tuple(map(sum, zip(sums[j], *values))), p
            returns[k] = (p, tuple(cur[:k]) + tuple(sorted(cur[k:])), tuple(sums[:k]))
            waiting.remove(k)
    return returns, PMaxExceededError.reason if waiting else None


def superpose(c1: PointConfig, c2: PointConfig) -> PointConfig:
    """Merge two configurations on one window; fresh ids, provenance kept.

    Exact lattice positions make collisions a hard error rather than a
    silent tie-break; they have probability zero under sampling.
    """
    if c1.window != c2.window or c1.denom != c2.denom:
        raise ValueError("superposition needs a common window")
    tagged = [(a.pos, 1, a.id) for a in c1.atoms] + [(a.pos, 2, a.id) for a in c2.atoms]
    tagged.sort(key=lambda t: t[0])
    for (p1, _, _), (p2, _, _) in zip(tagged, tagged[1:]):
        if p1 == p2:
            raise AssertionError("superposition collision at identical positions")
    atoms = tuple(Atom(i + 1, pos) for i, (pos, _, _) in enumerate(tagged))
    provenance = tuple((src, old) for _, src, old in tagged)
    return PointConfig(window=c1.window, atoms=atoms, denom=c1.denom, provenance=provenance)


def skew_apply_perm(perm: RankPermutation, marks: Sequence[Any]) -> tuple:
    """Permutation action on mark sequences: output rank n takes the mark
    of the rank that was sent to n."""
    if len(marks) != perm.size:
        raise ValueError("marks and permutation size differ")
    inv = perm.inverse()
    return tuple(marks[inv(n) - 1] for n in range(1, perm.size + 1))


def skew_apply_group(
    system: ChaconSystem, spec: CocycleSpec, marked: MarkedConfig
) -> tuple[MarkedConfig, RankPermutation]:
    """One step of the group-marked skew product.

    The base configuration moves by the pushforward; the mark arriving at
    new rank n is the old mark of the originating rank plus the level
    function at that atom's old position.
    """
    out, perm = push_forward(system, marked.config)
    summed = [
        eval_phi(spec, system, marked.config.t(m)) + mark
        for m, mark in enumerate(marked.marks, start=1)
    ]
    return MarkedConfig(config=out, marks=skew_apply_perm(perm, summed)), perm


def phi_k_vector(
    system: ChaconSystem,
    spec: CocycleSpec,
    config: PointConfig,
    k: int,
    p_max: int,
) -> tuple[GroupElem, ...]:
    """Cocycle sums at the first k atoms over the prefix-fixing return time."""
    n_steps = return_time_N_k(system, config, k, p_max)
    return tuple(phi_iter(spec, system, config.t(i), n_steps) for i in range(1, k + 1))


# value rows every level-function table starts with
ZERO, BASE = 0, 1

# a block's walk takes FIRST_CHUNK steps, then chunks that double up to
# MAX_CHUNK steps, each holding at most MAX_CELLS (sample, step, atom) cells
FIRST_CHUNK = 8
MAX_CHUNK = 512
MAX_CELLS = 1 << 17
# the deepest tower the walk takes: its levels and keys stay int64, as h_25 < 2**63 < h_26
MAX_WALK_DEPTH = 25


class TowerCoords:
    """The deepest tower of a system and a cocycle's values on its levels.

    In tower N = n_max a covered point is a level k in [0, h_N) and an
    offset o in [0, w_N).  The map adds 1 to k and keeps o, and it is
    undefined exactly on the top level k = h_N - 1.  ``descend`` runs the
    digit rule of ``chacon._level_lo`` on a whole array of levels and
    returns each level's posrank, its left end over w_N (an integer in
    [0, h_N)), and the row of ``values`` holding the level function there:
    the base value, or the middle or a right spacer value of the stage
    that made the level, which the same descent finds.
    """

    def __init__(self, system: ChaconSystem, spec: CocycleSpec):
        self.system = system
        self.height = system.heights[-1]
        self.width = system.widths[-1]
        self.moduli = np.array(spec.group.invariant_factors, dtype=np.int64)
        by_stage = {s.stage: s for s in spec.stages}
        rows = [spec.group.identity().coords, spec.base_value.coords]
        # (h, w_n / w_N, first value row or None) for towers n = N..2, whose
        # new levels are stage n - 1's spacers
        self.stages = []
        for n in range(system.n_max, 1, -1):
            declared = by_stage.get(n - 1)
            first = None
            if declared is not None:
                first = len(rows)
                rows += [declared.middle.coords, *(r.coords for r in declared.right)]
            self.stages.append((system.heights[n - 2], 3 ** (system.n_max - n), first))
        self.values = np.array(rows, dtype=np.int64).reshape(len(rows), spec.group.rank)

    def descend(self, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(posrank, value row) of every level."""
        k = levels.ravel()
        posrank = np.empty_like(k)
        value = np.full(k.shape, BASE, dtype=np.intp)
        at, lo = np.arange(k.size), np.zeros_like(k)
        for h, scale, first in self.stages:
            right = k > 3 * h
            stop = right | (k == 2 * h)
            if stop.any():
                ks, rs = k[stop], right[stop]
                # right spacer j = k - 3h starts at mark + j*w = k*w, the middle one at mark = 3h*w
                posrank[at[stop]] = lo[stop] + np.where(rs, ks, 3 * h) * scale
                value[at[stop]] = ZERO if first is None else np.where(rs, ks - 3 * h, 0) + first
                go = ~stop
                k, lo, at = k[go], lo[go], at[go]
            # left third: k stays; middle third: k - h, w up; right third: k - 2h - 1, 2w up
            mid, high = k >= h, k > 2 * h
            lo += np.where(high, 2 * scale, np.where(mid, scale, 0))
            k = k - np.where(high, 2 * h + 1, np.where(mid, h, 0))
        posrank[at] = lo
        return posrank.reshape(levels.shape), value.reshape(levels.shape)


def fixed_prefixes(keys: np.ndarray) -> np.ndarray:
    """Entry i on the last axis: do keys 0..i rank first, in order, in their row?

    That holds when each of them is the least key from its own on, so the
    answer is one suffix minimum and one running ``and``.  Equal keys are
    only ever atoms on one level, already in offset order.
    """
    least_after = np.minimum.accumulate(keys[..., ::-1], axis=-1)[..., ::-1]
    return np.logical_and.accumulate(keys == least_after, axis=-1)


def walk_orbits(
    tower: TowerCoords,
    positions: Sequence[int],
    counts: np.ndarray,
    wants: Sequence[Iterable[int]],
    p_max: int,
    mark_steps: int,
    start_marks: np.ndarray,
) -> tuple[list[dict], np.ndarray, np.ndarray]:
    """Walk a block of configurations at once, marks carried along.

    The block is flat: configuration s holds the next ``counts[s]``
    increasing ``positions``, and ``start_marks`` holds one row of mark
    coordinates per flat atom.  For each configuration, ``wants`` names
    the k whose prefix-fixing return time to find in 1..p_max.  A
    configuration's atoms are (level, offset) pairs in tower N.  At step p
    they rank by the key posrank(level + p) alone, in a stable sort: atoms
    on one level stay on one level, in offset order.  Ranks 1..k are fixed
    when each of the first k keys is the least from its own on.  Marks are
    the start marks plus cumulative sums of the level function, mod the
    group.  An atom on level k can take h_N - 1 - k steps; step p reads
    level min(k, h_N - 1 - p) + p, so no level passes h_N - 1.  A
    configuration leaves the walk once every k has returned (or p_max has
    passed) and ``mark_steps`` has passed, or when its atoms reach the top.

    Returns (returns, marks, reached).  ``returns[s]`` maps each wanted k
    that returned to (prefix-fixing return time, positions in rank order
    then, coordinates of the marks at ranks 1..k then).  ``marks`` holds
    every atom's mark coordinates in rank order after ``mark_steps``
    steps, flat like ``positions``; a configuration's rows there are
    meaningless unless ``reached`` says it got there before the top.
    """
    n = counts.size
    width = max(int(counts.max(initial=0)), 1)
    height = tower.height
    # every atom's (configuration, rank) cell; padding sits on level 0 past every offset
    cell = np.repeat(np.arange(n), counts), atom_ranks(counts)
    located = [chacon.locate(tower.system, x, tower.system.n_max) for x in positions]
    levels = np.zeros((n, width), dtype=np.int64)
    levels[cell] = [level - 1 for level, _ in located]  # locate counts levels from 1
    offsets = np.full((n, width), tower.width, dtype=np.int64)
    offsets[cell] = [offset for _, offset in located]
    marks = np.zeros((n, width, tower.values.shape[1]), dtype=np.int64)
    marks[cell] = start_marks
    # no walk outlasts h_N steps, so an empty configuration gets h_N
    steps_left = np.where(counts > 0, height - 1 - levels.max(axis=1), height)
    padded = offsets == tower.width
    limit = np.minimum(steps_left, min(p_max, height))
    ks = sorted(set().union(*wants))
    want = np.array([[k in w for k in ks] for w in wants], dtype=bool).reshape(len(wants), len(ks))
    returns = [{} for _ in range(n)]
    # marks are read after mark_steps steps exactly where mark_need == mark_steps
    walks_marks = (counts > 0) & (mark_steps > 0)
    mark_need = np.where(walks_marks, np.minimum(steps_left, min(mark_steps, height)), 0)
    reached = ~walks_marks | (mark_need == mark_steps)
    at_marks = marks.copy()

    active = np.flatnonzero((want.any(axis=1) & (limit > 0)) | (mark_need > 0))
    done, chunk = 0, FIRST_CHUNK
    while active.size:
        need = np.maximum(np.where(want[active].any(axis=1), limit[active], 0), mark_need[active])
        steps = min(chunk, int(need.max()) - done, max(1, MAX_CELLS // (active.size * width)))
        p = np.arange(done, done + steps + 1)[None, :, None]
        # level + p, held below the top: levels past it are never read
        posrank, value = tower.descend(np.minimum(levels[active][:, None, :], height - 1 - p) + p)
        keys = np.where(padded[active][:, None, :], height, posrank[:, 1:])  # padding ranks last
        fixed = fixed_prefixes(keys)
        # marks after steps done + 1 .. done + steps: sums of the values left behind
        cum = np.cumsum(tower.values[value[:, :-1]], axis=1)
        cum += marks[active][:, None]
        cum %= tower.moduli
        in_budget = np.arange(1, steps + 1) <= (limit[active] - done)[:, None]
        for t, k in enumerate(ks):
            hit = in_budget & want[active, t][:, None]
            if k:
                hit &= fixed[:, :, k - 1]
            first = hit.argmax(axis=1)
            for a in np.flatnonzero(hit[np.arange(active.size), first]):
                s, j = active[a], first[a]
                order = np.argsort(keys[a, j, : counts[s]], kind="stable")
                ranked = zip(posrank[a, j + 1, order].tolist(), offsets[s, order].tolist())
                moved = tuple(r * tower.width + o for r, o in ranked)
                k_marks = tuple(map(tuple, cum[a, j, order[:k]].tolist()))
                returns[s][k] = (done + int(j) + 1, moved, k_marks)
                want[s, t] = False
        if done < mark_steps <= done + steps:
            j = mark_steps - done - 1
            read = np.flatnonzero(mark_need[active] == mark_steps)
            order = np.argsort(keys[read, j], axis=1, kind="stable")[..., None]
            at_marks[active[read]] = np.take_along_axis(cum[read, j], order, axis=1)
        marks[active] = cum[:, -1]
        done += steps
        chunk = min(2 * chunk, MAX_CHUNK)
        searching = want[active].any(axis=1) & (done < limit[active])
        active = active[searching | (done < mark_need[active])]
    return returns, at_marks[cell], reached


def config_to_json(config: PointConfig, marks: Sequence[Any] | None = None) -> dict:
    d = config.denom
    atoms = []
    for i, a in enumerate(config.atoms):
        entry = {"id": a.id, "pos": format_lattice(a.pos, d)}
        if marks is not None:
            m = marks[i]
            entry["mark"] = list(m.coords) if isinstance(m, GroupElem) else m
        atoms.append(entry)
    return {
        "window": [format_lattice(config.window.lo, d), format_lattice(config.window.hi, d)],
        "atoms": atoms,
    }


def config_from_json(payload: dict, denom: int = SNAP_DENOM) -> PointConfig:
    """Read a configuration onto the lattice of step 1/denom; atoms must lie on it."""
    window = lattice_window(*(parse_ratio(end) for end in payload["window"]), denom)
    atoms = tuple(
        Atom(int(a["id"]), to_lattice(parse_ratio(a["pos"]), denom)) for a in payload["atoms"]
    )
    return PointConfig(window=window, atoms=atoms, denom=denom)
