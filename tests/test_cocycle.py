"""Group cocycle tests.

Derived-sequence values for the single-spacer indicator were computed by
hand: the level sum starts at 0, becomes 1 after the marked stage
(3*0 + 1 + 0), and stays 1 in the order-two group since 3*f = f there.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chaconlab.chacon import apply_T, random_point, tower_heights
from chaconlab.ratio import to_lattice
from chaconlab.cocycle import (
    CocycleSpec,
    FinAbGroup,
    StageValues,
    check_condition_i,
    check_condition_ii,
    cocycle_spec_from_json,
    cocycle_spec_to_json,
    eval_phi,
    phi_iter,
    single_spacer_indicator,
    subgroup_closure,
    zero_cocycle,
)
from chaconlab.errors import DepthExceededError, OutOfDomainError

from oracles import derived_sequence

Z2 = FinAbGroup((2,))
Z4 = FinAbGroup((4,))


def test_group_basics():
    g = FinAbGroup((2, 6))
    assert g.order == 12
    assert len(list(g.elements())) == 12
    a = g.element((1, 5))
    b = g.element((1, 3))
    assert (a + b).coords == (0, 2)
    assert (-a).coords == (1, 1)
    assert (3 * a).coords == (1, 3)
    assert g.identity().is_zero()
    with pytest.raises(ValueError):
        g.element((1,))
    with pytest.raises(ValueError):
        FinAbGroup((0,))


@pytest.mark.parametrize("factors", [(), (1,), (2,), (2, 6), (3, 1, 4)])
def test_symbol_numbers_follow_the_element_order(factors):
    g = FinAbGroup(factors)
    listed = [list(e.coords) for e in g.elements()]
    coords = g.coords(np.arange(g.order))
    assert coords.shape == (g.order, g.rank)
    assert coords.tolist() == listed
    assert g.symbols(np.array(listed, dtype=np.int64).reshape(g.order, g.rank)).tolist() == list(
        range(g.order)
    )


def test_trivial_group():
    g = FinAbGroup(())
    assert g.order == 1
    assert list(g.elements()) == [g.identity()]
    assert check_condition_i(zero_cocycle(g))["holds"]


def test_derived_sequence_indicator():
    rows = derived_sequence(single_spacer_indicator(1), 4)
    got = [(r.n, r.height, r.level_sum.coords, r.middle.coords, r.right_sum.coords) for r in rows]
    assert got == [
        (1, 1, (0,), (1,), (0,)),
        (2, 8, (1,), (0,), (0,)),
        (3, 50, (1,), (0,), (0,)),
        (4, 302, (1,), (0,), (0,)),
    ]


def test_derived_sequence_recurrence_general():
    # one nonzero right spacer at stage 2 in Z_4: level sums follow 3f + middle + right_sum
    group = Z4
    right = [group.identity()] * 25
    right[7] = group.element((3,))
    spec = CocycleSpec(
        group=group,
        base_value=group.element((1,)),
        stages=(StageValues(stage=2, middle=group.element((2,)), right=tuple(right)),),
        zero_beyond=2,
    )
    rows = derived_sequence(spec, 4)
    assert [r.level_sum.coords for r in rows] == [(1,), (3,), (2,), (2,)]
    # f2 = 3*1 = 3; f3 = 3*3 + 2 + 3 = 14 = 2 mod 4; f4 = 3*2 = 6 = 2


def test_eval_phi_constant_on_levels(get_system):
    spec = single_spacer_indicator(1)
    sys3 = get_system(3)
    one, zero = Z2.element((1,)), Z2.identity()

    def phi(x):
        return eval_phi(spec, sys3, to_lattice(x, sys3.denom))

    assert phi(F(0)) == zero
    assert phi(1 - F(1, 2**53)) == zero
    assert phi(F(1)) == one  # marked spacer [1, 4/3)
    assert phi(F(9, 8)) == one
    assert phi(F(4, 3) - F(1, 2**53)) == one
    assert phi(F(4, 3)) == zero  # right spacers carry 0
    assert phi(F(5, 2)) == zero  # stage-2 spacers carry 0
    with pytest.raises(OutOfDomainError):
        eval_phi(spec, sys3, -1)
    with pytest.raises(OutOfDomainError):
        eval_phi(spec, sys3, sys3.high_water)


def test_phi_iter_hand_traced(get_system):
    spec = single_spacer_indicator(1)
    sys2 = get_system(2)
    # orbit of 0 passes the marked spacer at step 2 (level 3 of the stage-2 tower)
    assert phi_iter(spec, sys2, 0, 0) == Z2.identity()
    assert phi_iter(spec, sys2, 0, 2) == Z2.identity()
    assert phi_iter(spec, sys2, 0, 3).coords == (1,)
    assert phi_iter(spec, sys2, 0, 8).coords == (1,)  # whole column sums to 1
    with pytest.raises(DepthExceededError):
        phi_iter(spec, sys2, 0, 9)
    with pytest.raises(ValueError):
        phi_iter(spec, sys2, 0, -1)


def test_cocycle_identity_random(get_system):
    # phi^(p+q)(x) == phi^(q)(T^p x) + phi^(p)(x) wherever the orbit exists
    spec = single_spacer_indicator(1)
    system = get_system(4)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        x = random_point(system, rng)
        p = int(rng.integers(0, 5))
        q = int(rng.integers(0, 5))
        try:
            total = phi_iter(spec, system, x, p + q)
            head = phi_iter(spec, system, x, p)
            y = x
            for _ in range(p):
                y = apply_T(system, y)
            tail = phi_iter(spec, system, y, q)
        except DepthExceededError:
            continue
        assert total == head + tail
        checked += 1


def test_condition_i_indicator_and_zero():
    rep = check_condition_i(single_spacer_indicator(1))
    assert rep["holds"]
    assert rep["subgroup_order"] == rep["group_order"] == 2
    assert [1, [1]] in rep["generators_found"]
    rep0 = check_condition_i(zero_cocycle(Z2))
    assert not rep0["holds"]
    assert rep0["subgroup_order"] == 1
    assert rep0["generators_found"] == []


def test_condition_i_explicit_scan_matches_auto():
    spec = single_spacer_indicator(2)
    auto = check_condition_i(spec)
    manual = check_condition_i(spec, n_scan=12)
    assert auto["holds"] == manual["holds"]
    assert auto["subgroup_order"] == manual["subgroup_order"]


def test_condition_i_proper_subgroup():
    # middle spacer 2 in Z_4 only ever generates {0, 2}
    right = tuple(Z4.identity() for _ in range(4))
    spec = CocycleSpec(
        group=Z4,
        base_value=Z4.identity(),
        stages=(StageValues(stage=1, middle=Z4.element((2,)), right=right),),
        zero_beyond=1,
    )
    rep = check_condition_i(spec)
    assert not rep["holds"]
    assert rep["subgroup_order"] == 2


def test_condition_i_multiple_of_three_factor():
    # 3*f collapses in Z_3, so the tail stabilises at 0; scan must still stop
    g3 = FinAbGroup((3,))
    right = tuple(g3.identity() for _ in range(4))
    spec = CocycleSpec(
        group=g3,
        base_value=g3.identity(),
        stages=(StageValues(stage=1, middle=g3.element((1,)), right=right),),
        zero_beyond=1,
    )
    rep = check_condition_i(spec)
    assert rep["holds"]
    assert rep["subgroup_order"] == 3


def test_condition_ii_certificate_hand_cases():
    # indicator: M = 2, h_2 = 8; zero cocycle: M = 1, h_1 = 1
    assert check_condition_ii(single_spacer_indicator(1)) == {
        "stage": 2,
        "vectors": ((25, (0,)), (26, (0,))),
        "certificate": (-1, 1),
    }
    assert check_condition_ii(zero_cocycle(FinAbGroup((2, 2))))["vectors"] == (
        (4, (0, 0)),
        (5, (0, 0)),
    )


def test_condition_ii_refuses_tail_vectors_that_differ(monkeypatch):
    # a spec the constructor accepts cannot do this, so fake a value past the cutoff
    spec = single_spacer_indicator(1)
    monkeypatch.setattr(CocycleSpec, "middle_value", lambda self, n: Z2.element((1,)))
    with pytest.raises(ValueError):
        check_condition_ii(spec)


@st.composite
def small_specs(draw):
    """A small group, a base value and up to three declared stages with any spacer values."""
    factors = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    group = FinAbGroup(factors)
    elems = st.tuples(*(st.integers(0, d - 1) for d in factors)).map(group.element)
    heights = tower_heights(3)
    stages = []
    for n in draw(st.lists(st.integers(1, 3), max_size=3, unique=True)):
        size = 3 * heights[n - 1] + 1
        right = draw(st.lists(elems, min_size=size, max_size=size))
        stages.append(StageValues(n, draw(elems), tuple(right)))
    # an offset of 0 puts the last declared stage, often with nonzero right values, at the cutoff
    zero_beyond = max((s.stage for s in stages), default=0) + draw(st.integers(0, 2))
    return CocycleSpec(group, draw(elems), tuple(stages), zero_beyond)


NONZERO_RIGHT_AT_CUTOFF = CocycleSpec(
    Z4,
    Z4.element((1,)),
    (StageValues(2, Z4.element((3,)), tuple(Z4.element((j,)) for j in range(1, 26))),),
    zero_beyond=2,
)


@given(small_specs())
@example(NONZERO_RIGHT_AT_CUTOFF)
def test_condition_ii_certificate_recombines_to_the_unit(spec):
    rep = check_condition_ii(spec)
    M = spec.zero_beyond + 1
    h = 1
    for _ in range(M - 1):
        h = 2 * (3 * h + 1)
    right = spec.right_sum(M)
    assert rep["stage"] == M
    assert rep["vectors"] == (
        (3 * h + 1, right.coords),
        (3 * h + 2, (spec.middle_value(M + 1) + right).coords),
    )
    (a, b), ((z1, g1), (z2, g2)) = rep["certificate"], rep["vectors"]
    combined = tuple((a * x + b * y) % d for x, y, d in zip(g1, g2, spec.group.invariant_factors))
    assert (a * z1 + b * z2, combined) == (1, spec.group.identity().coords)


@given(small_specs(), st.integers(1, 6))
@example(NONZERO_RIGHT_AT_CUTOFF, 4)
def test_condition_i_generators_match_the_oracle_rows(spec, k):
    expected = []
    for row in derived_sequence(spec, k):
        for cand in (row.level_sum, 2 * row.level_sum + row.middle):
            if not cand.is_zero() and all(c != list(cand.coords) for _, c in expected):
                expected.append([row.n, list(cand.coords)])
    assert check_condition_i(spec, n_scan=k)["generators_found"] == expected

def test_subgroup_closure():
    g = FinAbGroup((2, 4))
    sub = subgroup_closure(g, [g.element((1, 2))])
    assert {e.coords for e in sub} == {(0, 0), (1, 2)}
    assert len(subgroup_closure(g, [g.element((1, 1))])) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        CocycleSpec(Z2, Z2.identity(), (StageValues(1, Z2.element((1,)), (Z2.identity(),) * 3),), 1)
    with pytest.raises(ValueError):
        CocycleSpec(Z2, Z2.identity(), (StageValues(2, Z2.identity(), (Z2.identity(),) * 25),), 1)
    with pytest.raises(ValueError):
        CocycleSpec(Z2, Z4.identity(), (), 0)
    s = StageValues(1, Z2.element((1,)), (Z2.identity(),) * 4)
    with pytest.raises(ValueError):
        CocycleSpec(Z2, Z2.identity(), (s, s), 1)


def test_spec_json_roundtrip():
    spec = single_spacer_indicator(1)
    payload = cocycle_spec_to_json(spec)
    assert payload == {
        "group": [2],
        "base_value": [0],
        "stages": [{"n": 1, "middle": [1], "right": [[0], [0], [0], [0]]}],
        "zero_beyond": 1,
    }
    assert cocycle_spec_from_json(payload) == spec
    assert cocycle_spec_from_json(cocycle_spec_to_json(zero_cocycle(Z4))) == zero_cocycle(Z4)


def test_undeclared_stages_share_one_identity():
    spec = single_spacer_indicator(1)
    zero = spec.middle_value(2)
    assert zero == Z2.identity()
    assert spec.right_value(2, 0) is zero and spec.right_sum(2) is zero
    assert spec.middle_value(1) == Z2.element((1,))
    assert spec.right_sum(1) == Z2.identity()
