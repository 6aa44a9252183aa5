"""Finite point configurations driven by the tower map.

A configuration is a finite, strictly increasing list of atoms with
permanent integer ids, standing in for one sample of a unit-intensity
point process restricted to a window inside the covered set.  Pushing a
configuration forward applies the tower map to every atom; since the map
is only piecewise order-preserving the atoms get re-ranked, and the
induced rank permutation is the combinatorial shadow of the dynamics.

Everything here is exact except sampling itself: exponential gaps are
drawn in double precision and snapped to multiples of 2**-53, after which
the whole pipeline is integer arithmetic.  A configuration's positions
and window are integers over its lattice denominator ``denom``; pushed
through a tower system they live on the system's lattice, so rank
comparisons and permutation identities hold exactly, never up to
floating error.

Whole-configuration censoring: the tower map is partial (depth-bounded),
so the first atom to run off the top censors the entire configuration,
and its ``DepthExceededError`` propagates.  A search loop that uses up
its step budget raises ``PMaxExceededError``.  Both are
``CensoredError``s whose ``reason`` names the cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np

from . import chacon
from .chacon import SNAP_DENOM, ChaconSystem, Interval
from .cocycle import CocycleSpec, GroupElem, eval_phi, phi_iter
from .errors import InsufficientDataError, PMaxExceededError
from .ratio import ceil_lattice, format_lattice, parse_ratio, to_lattice
from .stats import make_rng


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


def snapped_arrivals(rng: np.random.Generator, bound: int, chunk: int) -> np.ndarray:
    """Unit-rate arrival times below bound / 2**53, as numerators over 2**53.

    Exp(1) gaps are drawn ``chunk`` at a time, snapped to the nearest
    multiple of 2**-53 and floored at one step, so arrivals strictly
    increase.  The rest of the chunk that crosses the bound is discarded:
    a caller that goes on drawing from ``rng`` depends on ``chunk``.

    Each chunk's running sums take one cumulative sum.  For bounds up to
    2**63 it runs in uint64 on gaps clipped to 2**63: a sum below the
    bound plus one such gap stays below 2**64, so every sum up to the
    first one at or past the bound is exact.  Later sums of a long chunk
    may wrap, so the crossing is found as the first sum at or past the
    bound, not by a binary search.  The result is int64 there, and an
    object array of Python ints for wider bounds, whose sums are taken in
    Python ints.
    """
    narrow = 0 <= bound <= 2**63
    limit = np.uint64(bound) if narrow else bound
    parts = []
    cum = 0
    while True:
        gaps = rng.exponential(1.0, size=chunk)
        np.multiply(gaps, _SNAP_FLOAT, out=gaps)
        np.rint(gaps, out=gaps)
        np.maximum(gaps, 1.0, out=gaps)
        if narrow:
            sums = np.minimum(gaps, 2.0**63, out=gaps).astype(np.uint64).cumsum()
            if cum:
                sums += np.uint64(cum)
        else:
            sums = np.array([int(g) for g in gaps.tolist()], dtype=object).cumsum() + cum
        past = sums >= limit
        k = int(past.argmax())
        if past[k]:
            parts.append(sums[:k])
            out = np.concatenate(parts) if len(parts) > 1 else parts[0]
            return out.view(np.int64) if narrow else out  # every sum is below 2**63
        parts.append(sums)
        cum = int(sums[-1])


def sample_poisson(
    window: Interval, seed: int, stream: int = 0, denom: int = SNAP_DENOM
) -> PointConfig:
    """Unit-intensity sample on a window given in lattice units of 1/denom.

    Positions are window.lo plus exact sums of snapped gaps (see
    ``snapped_arrivals``); ``denom`` must be a multiple of 2**53.
    """
    scale, rest = divmod(denom, SNAP_DENOM)
    if rest:
        raise ValueError(f"lattice denominator {denom} is not a multiple of 2**53")
    rng = make_rng(seed, stream)
    # lo + cum * scale >= hi exactly when cum >= ceil((hi - lo) / scale)
    bound = -(-window.width // scale)
    arrivals = snapped_arrivals(rng, bound, max(16, window.width // denom + 8)).tolist()
    atoms = tuple(Atom(i, window.lo + c * scale) for i, c in enumerate(arrivals, start=1))
    return PointConfig(window=window, atoms=atoms, denom=denom)


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
    if not in_split_order(points, remainder):
        raise ValueError("points must increase strictly and sit strictly below the remainder")
    merged = list(points) + list(remainder.positions())
    return PointConfig(
        window=remainder.window,
        atoms=tuple(Atom(i + 1, p) for i, p in enumerate(merged)),
        denom=remainder.denom,
    )


def in_split_order(points: Sequence[int], remainder: PointConfig) -> bool:
    """Are the points strictly increasing and strictly below the remainder?"""
    pts = list(points)
    if any(b <= a for a, b in zip(pts, pts[1:])):
        return False
    return not (pts and remainder.count and pts[-1] >= remainder.t(1))


def induced_return(
    system: ChaconSystem,
    points: Sequence[int],
    remainder: PointConfig,
    p_max: int,
) -> tuple[int, tuple[int, ...], PointConfig]:
    """First return of (map x ... x map, pushforward) to the split-order set.

    Advances the distinguished points and the remainder in lockstep and
    returns (steps, advanced points, advanced remainder) at the first
    p >= 1 where the split order x_1 < ... < x_k < min(remainder) holds
    again.  Censoring mirrors return_time_N_k.
    """
    pts = list(points)
    cur = remainder
    for p in range(1, p_max + 1):
        pts = [chacon.apply_T(system, x) for x in pts]
        cur, _ = push_forward(system, cur)
        if in_split_order(pts, cur):
            return p, tuple(pts), cur
    raise PMaxExceededError(f"no return within {p_max} steps")


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
    inv = perm.inverse()
    new_marks = []
    for n in range(1, out.count + 1):
        m = inv(n)
        increment = eval_phi(spec, system, marked.config.t(m))
        new_marks.append(increment + marked.marks[m - 1])
    return MarkedConfig(config=out, marks=tuple(new_marks)), perm


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
