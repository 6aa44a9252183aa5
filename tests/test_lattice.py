"""The lattice tower against the stored-level Fraction oracle.

For every depth 1..8 the same points go through ``chaconlab.chacon`` (as
lattice integers) and through ``oracles.FractionTower`` (as Fractions):
images, preimages, levels, one-tower translations, level-function values
and the errors raised must all agree.  Points are drawn anywhere in and
just outside the covered set, at level endpoints (top and bottom levels
included) and inside each stage's spacers.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaconlab import chacon
from chaconlab.cocycle import CocycleSpec, FinAbGroup, StageValues, eval_phi
from chaconlab.errors import ChaconlabError, DepthExceededError
from oracles import FractionTower

Z11 = FinAbGroup((11,))


def marking_spec(n_max: int) -> CocycleSpec:
    """Level values that tell the base, each stage and each spacer apart."""
    heights = chacon.tower_heights(n_max)
    stages = tuple(
        StageValues(
            stage=n,
            middle=Z11.element((n,)),
            right=tuple(Z11.element((3 * n + j + 1,)) for j in range(3 * heights[n - 1] + 1)),
        )
        for n in range(1, n_max)
    )
    return CocycleSpec(Z11, Z11.element((5,)), stages, zero_beyond=n_max - 1)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ChaconlabError, ValueError) as exc:
        return type(exc)


def on_lattice(value, denom):
    """An oracle result moved onto the lattice; errors pass through."""
    if isinstance(value, type) or value is None:
        return value
    if isinstance(value, tuple):  # locate: (level, offset)
        return value[0], on_lattice(value[1], denom)
    scaled = value * denom
    assert scaled.denominator == 1, "oracle value off the lattice"
    return scaled.numerator


@st.composite
def lattice_points(draw, oracle: FractionTower, denom: int):
    n_max = oracle.n_max
    kind = draw(st.sampled_from(["anywhere", "level", "spacer"]))
    if kind == "anywhere":
        return draw(st.integers(-2, int(oracle.high_water * denom) + 1))
    if kind == "level" or n_max == 1:
        n = draw(st.integers(1, n_max))
        top = len(oracle.towers[n - 1]) - 1
        k = draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))
        lo, hi = oracle.towers[n - 1][k]
    else:
        stage = draw(st.integers(1, n_max - 1))
        start, end = oracle.stages[stage - 1]
        w = oracle.widths[stage]
        last = int((end - start) / w) - 1
        j = draw(st.one_of(st.just(0), st.just(1), st.just(last), st.integers(0, last)))
        lo, hi = start + j * w, start + (j + 1) * w
    lo, hi = int(lo * denom), int(hi * denom)
    return draw(st.one_of(st.just(lo), st.just(hi - 1), st.integers(lo, hi - 1)))


@pytest.mark.parametrize("n_max", range(1, 9))
def test_lattice_tower_matches_fraction_oracle(n_max):
    system = chacon.build_system(n_max)
    oracle = FractionTower(n_max)
    spec = marking_spec(n_max)
    d = system.denom
    assert system.high_water == on_lattice(oracle.high_water, d)

    @given(lattice_points(oracle, d))
    def check(x):
        real = Fraction(x, d)
        for mine, theirs in [
            (chacon.apply_T, oracle.apply_T),
            (chacon.apply_T_inv, oracle.apply_T_inv),
        ]:
            assert outcome(mine, system, x) == on_lattice(outcome(theirs, real), d)
        for n in range(0, n_max + 2):
            got = outcome(chacon.locate, system, x, n)
            assert got == on_lattice(outcome(oracle.locate, real, n), d)
        for n in range(1, n_max + 1):
            got = outcome(chacon.translate_at_order, system, x, n)
            assert got == on_lattice(outcome(oracle.translate_at_order, real, n), d)
        assert outcome(eval_phi, spec, system, x) == outcome(oracle.eval_phi, spec, real)
        # the map and its inverse undo each other wherever they are defined
        try:
            y = chacon.apply_T(system, x)
        except ChaconlabError:
            pass
        else:
            assert chacon.apply_T_inv(system, y) == x
        try:
            y = chacon.apply_T_inv(system, x)
        except DepthExceededError:
            pass
        except ChaconlabError:
            return
        else:
            assert chacon.apply_T(system, y) == x

    check()
