"""Exact rank-one cutting-and-stacking tower engine.

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

All arithmetic is exact: positions are `fractions.Fraction` with
denominators that are powers of three times small integers.  The point
map ``apply_T`` climbs one level per application and is undefined only on
the top level of the deepest tower (``DepthExceededError``); its inverse
is undefined only on the bottom level.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CensoredError, CensorReport, DepthExceededError, OutOfDomainError
from .ratio import format_ratio, parse_ratio

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi) with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x < self.hi


@dataclass(frozen=True)
class Tower:
    """One stage of the construction: a stack of disjoint equal-width levels.

    ``levels[k]`` is the (k+1)-th level from the bottom; the map sends
    each level onto the next by translation.  ``search_order`` /
    ``search_los`` index the levels by position for O(log h) lookup and
    carry no information beyond ``levels``.
    """

    order: int
    height: int
    level_width: Fraction
    levels: tuple[Interval, ...]
    search_order: tuple[int, ...] = field(repr=False, compare=False, default=())
    search_los: tuple[Fraction, ...] = field(repr=False, compare=False, default=())

    def __post_init__(self):
        if self.height != len(self.levels):
            raise ValueError("height must equal the number of levels")
        if not self.search_order:
            order = tuple(sorted(range(self.height), key=lambda i: self.levels[i].lo))
            object.__setattr__(self, "search_order", order)
            object.__setattr__(self, "search_los", tuple(self.levels[i].lo for i in order))


@dataclass(frozen=True)
class SpacerStage:
    """Spacer levels added while building stage ``n + 1`` from stage ``n``."""

    stage: int
    middle: Interval
    right: tuple[Interval, ...]


@dataclass(frozen=True)
class ChaconSystem:
    """A finite-depth stack of towers sharing one ambient interval.

    ``towers[i]`` has order ``i + 1``; each tower's levels refine the
    previous tower's levels plus that stage's spacers.  ``high_water`` is
    the total mass, and the covered set is exactly ``[0, high_water)``.
    """

    towers: tuple[Tower, ...]
    spacer_stages: tuple[SpacerStage, ...]
    high_water: Fraction

    @property
    def n_max(self) -> int:
        return len(self.towers)

    @property
    def covered(self) -> Interval:
        return Interval(ZERO, self.high_water)


def tower_heights(n_max: int) -> list[int]:
    """Heights h_1..h_{n_max} under the recurrence h' = 2*(3*h + 1)."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    heights = [1]
    for _ in range(n_max - 1):
        heights.append(2 * (3 * heights[-1] + 1))
    return heights


def build_system(n_max: int) -> ChaconSystem:
    """Build towers of orders 1..n_max with exact rational levels."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")

    towers = [Tower(order=1, height=1, level_width=ONE, levels=(Interval(ZERO, ONE),))]
    stages: list[SpacerStage] = []
    high_water = ONE

    for n in range(1, n_max):
        prev = towers[-1]
        w = prev.level_width / 3
        left = [Interval(lv.lo, lv.lo + w) for lv in prev.levels]
        middle = [Interval(lv.lo + w, lv.lo + 2 * w) for lv in prev.levels]
        right = [Interval(lv.lo + 2 * w, lv.hi) for lv in prev.levels]

        mid_spacer = Interval(high_water, high_water + w)
        high_water += w
        right_spacers = []
        for _ in range(3 * prev.height + 1):
            right_spacers.append(Interval(high_water, high_water + w))
            high_water += w

        levels = left + middle + [mid_spacer] + right + right_spacers
        towers.append(
            Tower(
                order=n + 1,
                height=2 * (3 * prev.height + 1),
                level_width=w,
                levels=tuple(levels),
            )
        )
        stages.append(SpacerStage(stage=n, middle=mid_spacer, right=tuple(right_spacers)))

    system = ChaconSystem(
        towers=tuple(towers), spacer_stages=tuple(stages), high_water=high_water
    )
    top = towers[-1]
    assert high_water == top.height * top.level_width
    return system


def _find(tower: Tower, x: Fraction) -> int | None:
    """1-based level index of x in the tower, or None."""
    i = bisect_right(tower.search_los, x) - 1
    if i < 0:
        return None
    k = tower.search_order[i]
    if x < tower.levels[k].hi:
        return k + 1
    return None


def locate(system: ChaconSystem, x: Fraction, n: int) -> tuple[int, Fraction]:
    """Locate x in tower n: (1-based level index, offset from the level's left end)."""
    if not 1 <= n <= system.n_max:
        raise ValueError(f"tower order {n} not in 1..{system.n_max}")
    tower = system.towers[n - 1]
    k = _find(tower, Fraction(x))
    if k is None:
        raise OutOfDomainError(f"{x} is not in the order-{n} tower")
    return k, Fraction(x) - tower.levels[k - 1].lo


def translate_at_order(system: ChaconSystem, x: Fraction, n: int) -> Fraction:
    """Image of x using tower n alone.  Requires x in a non-top level of tower n."""
    tower = system.towers[n - 1]
    k = _find(tower, Fraction(x))
    if k is None:
        raise OutOfDomainError(f"{x} is not in the order-{n} tower")
    if k == tower.height:
        raise DepthExceededError(f"{x} is in the top level of the order-{n} tower")
    return Fraction(x) + (tower.levels[k].lo - tower.levels[k - 1].lo)


def apply_T(system: ChaconSystem, x: Fraction) -> Fraction:
    """One step of the point map.

    Uses the smallest tower order at which x sits in a non-top level; the
    result does not depend on the order chosen because deeper towers
    refine shallower ones column by column.  Undefined exactly on the top
    level of the deepest tower.
    """
    x = Fraction(x)
    if x < 0 or x >= system.high_water:
        raise OutOfDomainError(f"{x} is outside [0, {system.high_water})")
    for tower in system.towers:
        k = _find(tower, x)
        if k is not None and k < tower.height:
            return x + (tower.levels[k].lo - tower.levels[k - 1].lo)
    raise DepthExceededError(
        f"{x} is in the top level of the deepest tower (order {system.n_max})"
    )


def apply_T_inv(system: ChaconSystem, x: Fraction) -> Fraction:
    """One step of the inverse map.  Undefined exactly on the bottom level."""
    x = Fraction(x)
    if x < 0 or x >= system.high_water:
        raise OutOfDomainError(f"{x} is outside [0, {system.high_water})")
    for tower in system.towers:
        k = _find(tower, x)
        if k is not None and k > 1:
            return x + (tower.levels[k - 2].lo - tower.levels[k - 1].lo)
    raise DepthExceededError(
        f"{x} is in the bottom level of the deepest tower (order {system.n_max})"
    )


def orbit(system: ChaconSystem, x: Fraction, p: int) -> list[Fraction]:
    """[x, Tx, ..., T^p x] for p >= 0; inverse steps for p < 0.

    On failure raises DepthExceededError with ``steps_completed`` set to
    the number of successful steps.
    """
    step = apply_T if p >= 0 else apply_T_inv
    xs = [Fraction(x)]
    for i in range(abs(p)):
        try:
            xs.append(step(system, xs[-1]))
        except DepthExceededError as exc:
            raise DepthExceededError(str(exc), steps_completed=i) from None
    return xs


def return_time(
    system: ChaconSystem,
    x: Fraction,
    targets: Iterable[Interval],
    p_max: int,
) -> int:
    """Least p in 1..p_max with T^p(x) inside one of the target intervals.

    Raises CensoredError when the map runs out of depth first or when no
    visit happens within the budget.
    """
    targets = tuple(targets)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    cur = Fraction(x)
    for p in range(1, p_max + 1):
        try:
            cur = apply_T(system, cur)
        except DepthExceededError:
            raise CensoredError(
                f"depth exceeded after {p - 1} steps",
                report=CensorReport(survived=0, censored=1, reasons={"DepthExceeded": 1}),
            ) from None
        if any(cur in t for t in targets):
            return p
    raise CensoredError(
        f"no visit within {p_max} steps",
        report=CensorReport(survived=1, censored=0, reasons={"PMaxExceeded": 1}),
    )


def translation_pieces(system: ChaconSystem) -> list[tuple[Interval, Fraction]]:
    """Maximal translation pieces of the map: (domain level, offset) pairs.

    The domains are the non-top levels of the deepest tower; they
    partition the covered set minus the top level, and each piece maps
    onto the next level up, an interval of the same width.
    """
    top = system.towers[-1]
    return [
        (top.levels[k], top.levels[k + 1].lo - top.levels[k].lo)
        for k in range(top.height - 1)
    ]


def system_to_json(system: ChaconSystem) -> dict:
    return {
        "n_max": system.n_max,
        "towers": [
            {
                "order": t.order,
                "height": t.height,
                "level_width": format_ratio(t.level_width),
                "levels": [[format_ratio(lv.lo), format_ratio(lv.hi)] for lv in t.levels],
            }
            for t in system.towers
        ],
        "high_water": format_ratio(system.high_water),
    }


def system_from_json(payload: dict) -> ChaconSystem:
    """Rebuild a system from its JSON form and re-derive spacer stages.

    The spacer registry is reconstructed by rebuilding from scratch and
    checking the levels agree, which doubles as a format check.
    """
    system = build_system(int(payload["n_max"]))
    if system_to_json(system) != payload:
        raise ValueError("payload does not describe a tower system of this family")
    return system


def random_point(system: ChaconSystem, rng, grid: int = 2**53) -> Fraction:
    """Uniform random rational in the covered set, on a 1/grid lattice."""
    return system.high_water * Fraction(int(rng.integers(0, grid)), grid)
