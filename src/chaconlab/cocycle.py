"""Finite abelian group data attached to the tower construction.

A level function assigns one group element to every level of every tower:
the base interval carries a chosen value, refined thirds inherit their
parent's value, and each spacer carries the value assigned at the stage
that created it (zero beyond a declared cutoff stage).  Summing the
function along orbits of the point map gives a cocycle; the two checkable
criteria below control how rich that cocycle is.

* generation: the values {level_sum(n), 2*level_sum(n) + middle(n)}
  taken over all stages must generate the whole group;
* unit span: for each stage n, the pair (1, 0) must lie in the integer
  span, inside Z x G, of the climb vectors
  (h_n, level_sum(n)), (h_n + 1, level_sum(n) + middle(n)) together with
  the tail family (3*h_M + 1, right_sum(M)),
  (3*h_M + 2, middle(M+1) + right_sum(M)) over stages M.

Generation is decided by scanning the stages.  Unit span holds for every
spec, because every spec is zero past its cutoff: one tail pair already
differs by (1, 0), and ``check_condition_ii`` returns it as a certificate.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .chacon import ChaconSystem, tower_heights
from .errors import OutOfDomainError
from . import chacon


@dataclass(frozen=True)
class FinAbGroup:
    """Direct product of cyclic groups Z_{d_1} x ... x Z_{d_m}, written additively."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors", tuple(int(d) for d in self.invariant_factors))
        if any(d < 1 for d in self.invariant_factors):
            raise ValueError("cyclic factors must be >= 1")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def element(self, coords) -> "GroupElem":
        return GroupElem(tuple(coords), self)

    def identity(self) -> "GroupElem":
        return self.element((0,) * self.rank)

    def elements(self):
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield self.element(coords)

    @property
    def _strides(self) -> np.ndarray:
        # the symbol number of an element is its index in ``elements()``
        d = self.invariant_factors
        return np.array([math.prod(d[i + 1:]) for i in range(len(d))], dtype=np.int64)

    def symbols(self, coords: np.ndarray) -> np.ndarray:
        """Index in ``elements()`` of each row of reduced coordinates."""
        return (np.asarray(coords, dtype=np.int64) * self._strides).sum(axis=-1)

    def coords(self, symbols: np.ndarray) -> np.ndarray:
        """Coordinate rows of the elements numbered ``symbols`` in ``elements()``."""
        d = np.asarray(self.invariant_factors, dtype=np.int64)
        return np.asarray(symbols, dtype=np.int64)[..., None] // self._strides % d


@dataclass(frozen=True)
class GroupElem:
    coords: tuple[int, ...]
    group: FinAbGroup

    def __post_init__(self):
        d = self.group.invariant_factors
        if len(self.coords) != len(d):
            raise ValueError("coordinate count does not match the group rank")
        object.__setattr__(self, "coords", tuple(int(c) % di for c, di in zip(self.coords, d)))

    def __add__(self, other: "GroupElem") -> "GroupElem":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return GroupElem(tuple(a + b for a, b in zip(self.coords, other.coords)), self.group)

    def __neg__(self) -> "GroupElem":
        return GroupElem(tuple(-c for c in self.coords), self.group)

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElem":
        return GroupElem(tuple(k * c for c in self.coords), self.group)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class StageValues:
    """Spacer values assigned at one stage: the middle spacer and the 3*h + 1 right spacers."""

    stage: int
    middle: GroupElem
    right: tuple[GroupElem, ...]


@dataclass(frozen=True)
class CocycleSpec:
    """Level-function data: base value, per-stage spacer values, zero beyond a cutoff.

    ``stages`` may be sparse; an undeclared stage at or below the cutoff
    carries all-zero spacers, and every stage past ``zero_beyond`` must.
    """

    group: FinAbGroup
    base_value: GroupElem
    stages: tuple[StageValues, ...]
    zero_beyond: int
    _by_stage: dict = field(repr=False, compare=False, default=None)
    _identity: GroupElem = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.base_value.group != self.group:
            raise ValueError("base value belongs to a different group")
        if self.zero_beyond < 0:
            raise ValueError("zero_beyond must be >= 0")
        seen = {}
        # stage n has 3*h_n + 1 right spacers, so heights past the longest
        # right list cannot match: a huge stage number builds no huge tower
        max_stage = max((s.stage for s in self.stages), default=0)
        longest = max((len(s.right) for s in self.stages), default=0)
        heights = [1]
        while len(heights) < max_stage and 3 * heights[-1] + 1 < longest:
            heights.append(2 * (3 * heights[-1] + 1))
        for s in self.stages:
            if s.stage < 1:
                raise ValueError("stage numbers start at 1")
            if s.stage in seen:
                raise ValueError(f"duplicate stage {s.stage}")
            if s.stage > self.zero_beyond:
                raise ValueError(f"stage {s.stage} declared past the zero cutoff {self.zero_beyond}")
            if s.middle.group != self.group or any(r.group != self.group for r in s.right):
                raise ValueError("stage values belong to a different group")
            expected = 3 * heights[s.stage - 1] + 1 if s.stage <= len(heights) else None
            if len(s.right) != expected:
                need = expected if expected is not None else f"more than {longest}"
                raise ValueError(
                    f"stage {s.stage} needs {need} right-spacer values, got {len(s.right)}"
                )
            seen[s.stage] = s
        object.__setattr__(self, "stages", tuple(sorted(self.stages, key=lambda s: s.stage)))
        object.__setattr__(self, "_by_stage", seen)
        object.__setattr__(self, "_identity", self.group.identity())

    def middle_value(self, n: int) -> GroupElem:
        s = self._by_stage.get(n)
        return s.middle if s is not None else self._identity

    def right_value(self, n: int, j: int) -> GroupElem:
        s = self._by_stage.get(n)
        return s.right[j] if s is not None else self._identity

    def right_sum(self, n: int) -> GroupElem:
        s = self._by_stage.get(n)
        total = self._identity
        if s is None:
            return total
        for r in s.right:
            total = total + r
        return total


def eval_phi(spec: CocycleSpec, system: ChaconSystem, x: int) -> GroupElem:
    """Level-function value at lattice point x: constant on the level that first contained x."""
    if not 0 <= x < system.high_water:
        raise OutOfDomainError(f"{x} is outside [0, {system.high_water})")
    spacer = chacon.spacer_of(system, x)
    if spacer is None:
        return spec.base_value
    stage, j, _ = spacer
    if j == 0:
        return spec.middle_value(stage)
    return spec.right_value(stage, j - 1)


def phi_iter(spec: CocycleSpec, system: ChaconSystem, x: int, p: int) -> GroupElem:
    """Sum of the level function along x, Tx, ..., T^(p-1)x (identity when p == 0)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    total = spec.group.identity().coords  # summed as plain ints, reduced once
    cur = x
    for i in range(p):
        total = tuple(map(operator.add, total, eval_phi(spec, system, cur).coords))
        if i + 1 < p:
            cur = chacon.apply_T(system, cur)
    return spec.group.element(total)


def subgroup_closure(group: FinAbGroup, gens) -> set[GroupElem]:
    """All elements reachable from the generators (additive closure)."""
    closure = {group.identity()}
    frontier = [group.identity()]
    gens = [g for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a + g
                if b not in closure:
                    closure.add(b)
                    nxt.append(b)
        frontier = nxt
    return closure


def check_condition_i(spec: CocycleSpec, n_scan: int | None = None) -> dict:
    """Do the stage values generate the whole group?

    Each stage n contributes level_sum(n) and 2*level_sum(n) + middle(n).
    Past the zero cutoff the level sums evolve by f -> 3f, which is
    eventually periodic in a finite group, so scanning stops once the
    tail revisits a level sum (or at an explicit n_scan).  The report
    holds the verdict, each distinct generator with the first stage that
    gives it, both orders and the stage where the scan stopped.
    """
    group = spec.group
    cutoff = spec.zero_beyond
    first_stage: dict[GroupElem, int] = {}  # each generator's first stage, in order found
    f = spec.base_value
    n = 1
    tail_seen: set[GroupElem] = set()
    while True:
        for cand in (f, 2 * f + spec.middle_value(n)):
            if not cand.is_zero():
                first_stage.setdefault(cand, n)
        if n_scan is not None:
            if n >= n_scan:
                break
        elif n > cutoff:
            if f in tail_seen:
                break
            tail_seen.add(f)
        f = 3 * f + spec.middle_value(n) + spec.right_sum(n)
        n += 1
    closure = subgroup_closure(group, first_stage)
    return {
        "holds": len(closure) == group.order,
        "generators_found": [[stage, list(g.coords)] for g, stage in first_stage.items()],
        "subgroup_order": len(closure),
        "group_order": group.order,
        "n_scanned": n,
    }


def check_condition_ii(spec: CocycleSpec) -> dict:
    """Certificate that (1, 0) lies in the unit span of every stage n.

    Past ``zero_beyond`` every spacer value is zero, so at M = zero_beyond + 1
    the tail vectors are (3*h_M + 1, 0) and (3*h_M + 2, 0), and their
    difference, certificate (-1, 1), is (1, 0).  The tail family belongs to
    every stage's span, so the certificate does not depend on n.
    """
    M = spec.zero_beyond + 1
    h = tower_heights(M)[M - 1]
    low = spec.right_sum(M)
    high = spec.middle_value(M + 1) + low
    if high != low:
        raise ValueError(f"the tail vectors at stage {M} differ in the group")
    return {
        "stage": M,
        "vectors": ((3 * h + 1, low.coords), (3 * h + 2, high.coords)),
        "certificate": (-1, 1),
    }


def single_spacer_indicator(stage: int = 1) -> CocycleSpec:
    """Order-two level function that is 1 exactly on one construction spacer.

    The marked spacer is the middle spacer of the given stage; everything
    else, including all later stages, carries 0.
    """
    group = FinAbGroup((2,))
    heights = tower_heights(stage)
    zeros = tuple(group.identity() for _ in range(3 * heights[stage - 1] + 1))
    return CocycleSpec(
        group=group,
        base_value=group.identity(),
        stages=(StageValues(stage=stage, middle=group.element((1,)), right=zeros),),
        zero_beyond=stage,
    )


def zero_cocycle(group: FinAbGroup) -> CocycleSpec:
    return CocycleSpec(group=group, base_value=group.identity(), stages=(), zero_beyond=0)


def cocycle_spec_to_json(spec: CocycleSpec) -> dict:
    return {
        "group": list(spec.group.invariant_factors),
        "base_value": list(spec.base_value.coords),
        "stages": [
            {
                "n": s.stage,
                "middle": list(s.middle.coords),
                "right": [list(r.coords) for r in s.right],
            }
            for s in spec.stages
        ],
        "zero_beyond": spec.zero_beyond,
    }


# check_condition_ii's certificate holds 3*h_M + 2 at M = zero_beyond + 1,
# about 0.78*M digits; past this cutoff json.dumps refuses to write it under
# Python's default limit of 4300 digits for int-to-string conversion
MAX_ZERO_BEYOND = 5525


def _json_int(value, what: str) -> int:
    """A JSON integer as it is: 1.5, true and "2" are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _json_ints(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, not {values!r}")
    return tuple(_json_int(v, what) for v in values)


def cocycle_spec_from_json(payload: dict) -> CocycleSpec:
    zero_beyond = _json_int(payload["zero_beyond"], "zero_beyond")
    if zero_beyond > MAX_ZERO_BEYOND:
        raise ValueError(f"zero_beyond must be at most {MAX_ZERO_BEYOND}")
    group = FinAbGroup(_json_ints(payload["group"], "group"))
    stages = tuple(
        StageValues(
            stage=_json_int(item["n"], "stage n"),
            middle=group.element(_json_ints(item["middle"], "middle")),
            right=tuple(group.element(_json_ints(r, "right")) for r in item["right"]),
        )
        for item in payload["stages"]
    )
    return CocycleSpec(
        group=group,
        base_value=group.element(_json_ints(payload["base_value"], "base_value")),
        stages=stages,
        zero_beyond=zero_beyond,
    )
