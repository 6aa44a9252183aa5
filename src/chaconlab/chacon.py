"""Exact rank-one cutting-and-stacking tower engine on an integer lattice.

The construction starts from the unit interval and repeatedly cuts every
level of the current tower into three equal thirds, inserts one new spacer
level above the middle third and a run of ``3*h + 1`` spacer levels above
the right third (``h`` is the current height), then stacks the three
columns left, middle, right.  Heights therefore follow
``h' = 2*(3*h + 1)`` and level widths shrink by a factor of three per
stage.  Total mass at least doubles per stage, so the union of all towers
has infinite measure; a finite-depth system covers ``[0, h_n * w_n)``.

Spacers are always allocated contiguously from the current high-water
mark (middle spacer first, then the right-column spacers bottom-up), so
the covered set stays an initial segment of the half-line at every stage.

Positions are Python ints over one lattice denominator per system,
``denom = 3**(n_max - 1) * 2**53``: every level endpoint is a multiple of
``3**-(n_max - 1)`` and every sampled position a multiple of ``2**-53``,
so the map is exact integer addition.  No level is stored.  A system
keeps O(n_max) integers (heights, level widths, high-water marks), and a
point's level in tower n + 1 follows from its level k in tower n and the
third it sits in (left k, middle h + k, right 2h + 1 + k), or, for a
spacer, from its distance to its stage's high-water mark.  This is the
rank-one coding of Chacon (Proc. AMS 22, 1969) and del Junco–Rahe–Swanson
(J. Analyse Math. 37, 1980).  ``levels`` lists one tower's levels on
demand, for printing.

The point map ``apply_T`` climbs one level per application and is
undefined only on the top level of the deepest tower
(``DepthExceededError``); its inverse is undefined only on the bottom
level.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import DepthExceededError, OutOfDomainError
from .ratio import format_lattice

# sampled positions are multiples of 1/SNAP_DENOM
SNAP_DENOM = 2**53


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x < self.hi


@dataclass(frozen=True)
class ChaconSystem:
    """Towers of orders 1..n_max on the lattice of step ``1 / denom``.

    ``heights[n-1]``, ``widths[n-1]`` and ``marks[n-1]`` are tower n's
    height, level width and high-water mark ``h_n * w_n``.  Stage n, which
    builds tower n + 1, puts its spacers (width ``widths[n]``) in
    ``[marks[n-1], marks[n])``; the covered set is ``[0, high_water)``.
    """

    n_max: int
    denom: int
    heights: tuple[int, ...]
    widths: tuple[int, ...]
    marks: tuple[int, ...]

    @property
    def high_water(self) -> int:
        return self.marks[-1]

    @cached_property
    def covered(self) -> Interval:
        return Interval(0, self.high_water)


def tower_heights(n_max: int) -> list[int]:
    """Heights h_1..h_{n_max} under the recurrence h' = 2*(3*h + 1)."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    heights = [1]
    for _ in range(n_max - 1):
        heights.append(2 * (3 * heights[-1] + 1))
    return heights


def build_system(n_max: int) -> ChaconSystem:
    """The depth-n_max system: O(n_max) integers, no levels."""
    heights = tower_heights(n_max)
    denom = 3 ** (n_max - 1) * SNAP_DENOM
    widths = tuple(denom // 3**n for n in range(n_max))
    return ChaconSystem(
        n_max=n_max,
        denom=denom,
        heights=tuple(heights),
        widths=widths,
        marks=tuple(h * w for h, w in zip(heights, widths)),
    )


def _check_domain(system: ChaconSystem, x: int) -> None:
    if not 0 <= x < system.marks[-1]:
        raise OutOfDomainError(f"{x} is outside [0, {system.marks[-1]})")


def spacer_of(system: ChaconSystem, x: int) -> tuple[int, int, int] | None:
    """(stage n, spacer j, offset) for a covered x at or above 1; None below 1.

    Stage n's spacer 0 is its middle spacer and spacers 1..3h_n + 1 are
    its right spacers bottom-up, the last of them the top of tower n + 1.
    """
    marks = system.marks
    if x < marks[0]:
        return None
    n = bisect_right(marks, x)  # marks[n - 1] <= x < marks[n]
    j, offset = divmod(x - marks[n - 1], system.widths[n])
    return n, j, offset


def apply_T(system: ChaconSystem, x: int) -> int:
    """One step of the point map.

    Uses the smallest tower order at which x sits in a non-top level; the
    result does not depend on the order chosen because deeper towers
    refine shallower ones column by column.  That order is the first
    tower holding x, or the next one when x is that tower's top.
    Undefined exactly on the top level of the deepest tower.
    """
    _check_domain(system, x)
    widths = system.widths
    spacer = spacer_of(system, x)
    if spacer is None:
        order, offset = 1, x  # [0, 1) is tower 1's only level, its top
    else:
        n, j, offset = spacer
        if j == 0:  # middle spacer -> right third of the bottom level
            return 2 * widths[n] + offset
        if j <= 3 * system.heights[n - 1]:  # right spacer -> the next one up
            return x + widths[n]
        order = n + 1  # the last right spacer is the top of tower n + 1
    if order == system.n_max:
        raise DepthExceededError(
            f"{x} is in the top level of the deepest tower (order {system.n_max})"
        )
    # the next stage cuts the top level in thirds; none of them is on top
    w = widths[order]
    third, offset = divmod(offset, w)
    if third == 0:  # -> middle third of the bottom level
        return w + offset
    # middle third -> the stage's middle spacer, right third -> its first right spacer
    return system.marks[order - 1] + (third - 1) * w + offset


def apply_T_inv(system: ChaconSystem, x: int) -> int:
    """One step of the inverse map.  Undefined exactly on the bottom level."""
    _check_domain(system, x)
    marks, widths = system.marks, system.widths
    spacer = spacer_of(system, x)
    if spacer is not None:
        n, j, offset = spacer
        if j >= 2:
            return x - widths[n]
        # middle spacer <- middle third of tower n's top, first right spacer <- right third
        return marks[n - 1] - widths[n - 1] + (j + 1) * widths[n] + offset
    # x stays in the bottom level for as long as it falls in left thirds
    offset = x
    for n in range(1, system.n_max):
        third, offset = divmod(offset, widths[n])
        if third == 1:  # middle third of the bottom <- left third of tower n's top
            return marks[n - 1] - widths[n - 1] + offset
        if third == 2:  # right third of the bottom <- stage n's middle spacer
            return marks[n - 1] + offset
    raise DepthExceededError(
        f"{x} is in the bottom level of the deepest tower (order {system.n_max})"
    )


def _level(system: ChaconSystem, x: int, n: int) -> tuple[int, int] | None:
    """(0-based level, offset) of x in tower n, or None when tower n misses x."""
    if not 0 <= x < system.marks[-1]:
        return None
    heights, widths = system.heights, system.widths
    spacer = spacer_of(system, x)
    if spacer is None:
        order, k, offset = 1, 0, x
    else:
        stage, j, offset = spacer
        h = heights[stage - 1]
        order, k = stage + 1, (2 * h if j == 0 else 3 * h + j)
    if order > n:
        return None
    for m in range(order, n):  # stage m: left third k, middle h + k, right 2h + 1 + k
        h = heights[m - 1]
        third, offset = divmod(offset, widths[m])
        k += (0, h, 2 * h + 1)[third]
    return k, offset


def _level_lo(system: ChaconSystem, n: int, k: int) -> int:
    """Left end of tower n's level k (0-based, bottom up)."""
    lo = 0
    while n > 1:
        h, w, mark = system.heights[n - 2], system.widths[n - 1], system.marks[n - 2]
        if k == 2 * h:  # the middle spacer
            return lo + mark
        if k > 3 * h:  # a right spacer
            return lo + mark + (k - 3 * h) * w
        third = 0 if k < h else 1 if k < 2 * h else 2
        lo += third * w
        k -= (0, h, 2 * h + 1)[third]
        n -= 1
    return lo


def _check_order(system: ChaconSystem, n: int) -> None:
    if not 1 <= n <= system.n_max:
        raise ValueError(f"tower order {n} not in 1..{system.n_max}")


def locate(system: ChaconSystem, x: int, n: int) -> tuple[int, int]:
    """Locate x in tower n: (1-based level index, offset from the level's left end)."""
    _check_order(system, n)
    found = _level(system, x, n)
    if found is None:
        raise OutOfDomainError(f"{x} is not in the order-{n} tower")
    return found[0] + 1, found[1]


def translate_at_order(system: ChaconSystem, x: int, n: int) -> int:
    """Image of x using tower n alone.  Requires x in a non-top level of tower n."""
    level, offset = locate(system, x, n)
    if level == system.heights[n - 1]:
        raise DepthExceededError(f"{x} is in the top level of the order-{n} tower")
    return _level_lo(system, n, level) + offset


def levels(system: ChaconSystem, n: int) -> list[Interval]:
    """Tower n's levels bottom-up; O(h_n) time and space, for printing."""
    _check_order(system, n)
    los = [0]
    for m in range(1, n):
        w, mark = system.widths[m], system.marks[m - 1]
        spacers = [mark + j * w for j in range(3 * len(los) + 2)]
        los = los + [lo + w for lo in los] + spacers[:1] + [lo + 2 * w for lo in los] + spacers[1:]
    w = system.widths[n - 1]
    return [Interval(lo, lo + w) for lo in los]


def orbit(system: ChaconSystem, x: int, p: int) -> list[int]:
    """[x, Tx, ..., T^p x] for p >= 0; inverse steps for p < 0."""
    step = apply_T if p >= 0 else apply_T_inv
    xs = [x]
    for _ in range(abs(p)):
        xs.append(step(system, xs[-1]))
    return xs


def translation_pieces(system: ChaconSystem) -> list[tuple[Interval, int]]:
    """Maximal translation pieces of the map: (domain level, offset) pairs.

    The domains are the non-top levels of the deepest tower; they
    partition the covered set minus the top level, and each piece maps
    onto the next level up, an interval of the same width.
    """
    top = levels(system, system.n_max)
    return [(lv, nxt.lo - lv.lo) for lv, nxt in zip(top, top[1:])]


def system_to_json(system: ChaconSystem) -> dict:
    d = system.denom
    return {
        "n_max": system.n_max,
        "towers": [
            {
                "order": n,
                "height": system.heights[n - 1],
                "level_width": format_lattice(system.widths[n - 1], d),
                "levels": [
                    [format_lattice(lv.lo, d), format_lattice(lv.hi, d)]
                    for lv in levels(system, n)
                ],
            }
            for n in range(1, system.n_max + 1)
        ],
        "high_water": format_lattice(system.high_water, d),
    }


def system_from_json(payload: dict) -> ChaconSystem:
    """Rebuild a system from its JSON form.

    The system is rebuilt from scratch and its JSON compared with the
    payload, which doubles as a format check.
    """
    system = build_system(int(payload["n_max"]))
    if system_to_json(system) != payload:
        raise ValueError("payload does not describe a tower system of this family")
    return system


def random_point(system: ChaconSystem, rng, grid: int = 2**53) -> int:
    """Random covered lattice point: high_water * u / grid, u uniform in [0, grid), floored."""
    return system.high_water * int(rng.integers(0, grid)) // grid
