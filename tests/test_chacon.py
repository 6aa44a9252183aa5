"""Tower engine tests.

Expected values for the small systems were worked out by hand from the
construction rules (cut in thirds; one spacer above the middle column,
3*h + 1 above the right column; spacers allocated contiguously from the
high-water mark, middle spacer first).  The full stage-2 stack, traced by
hand, is:

    1: [0, 1/3)     left third of [0, 1)
    2: [1/3, 2/3)   middle third
    3: [1, 4/3)     spacer above the middle column
    4: [2/3, 1)     right third
    5-8: [4/3, 5/3), [5/3, 2), [2, 7/3), [7/3, 8/3)   spacers above right

so the first orbit of 0 climbs 0, 1/3, 1, 2/3, 4/3, 5/3, 2, 7/3.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from chaconlab.chacon import (
    Interval,
    apply_T,
    apply_T_inv,
    build_system,
    locate,
    orbit,
    random_point,
    return_time,
    system_from_json,
    system_to_json,
    tower_heights,
    translate_at_order,
    translation_pieces,
)
from chaconlab.errors import CensoredError, DepthExceededError, OutOfDomainError

STAGE2_LEVELS = [
    (F(0), F(1, 3)),
    (F(1, 3), F(2, 3)),
    (F(1), F(4, 3)),
    (F(2, 3), F(1)),
    (F(4, 3), F(5, 3)),
    (F(5, 3), F(2)),
    (F(2), F(7, 3)),
    (F(7, 3), F(8, 3)),
]


def test_heights_recurrence():
    assert tower_heights(6) == [1, 8, 50, 302, 1814, 10886]


def test_stage2_levels_exact(get_system):
    t2 = get_system(2).towers[1]
    assert t2.height == 8
    assert t2.level_width == F(1, 3)
    assert [(lv.lo, lv.hi) for lv in t2.levels] == STAGE2_LEVELS


def test_covered_set_is_initial_segment(get_system):
    sys2 = get_system(2)
    assert sys2.high_water == F(8, 3)
    assert sys2.covered.lo == 0 and sys2.covered.hi == F(8, 3)
    for n in range(1, 6):
        s = get_system(n)
        top = s.towers[-1]
        assert s.high_water == top.height * top.level_width


def test_levels_partition_covered_set(get_system):
    for t in get_system(5).towers:
        ivs = sorted(t.levels, key=lambda lv: lv.lo)
        assert ivs[0].lo == 0
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi == b.lo
        assert ivs[-1].hi == t.height * t.level_width


def test_widths_shrink_by_three(get_system):
    for n, t in enumerate(get_system(6).towers, start=1):
        assert t.level_width == F(1, 3 ** (n - 1))


def test_each_level_refines_previous_stage(get_system):
    system = get_system(4)
    for i in range(1, system.n_max):
        prev, cur = system.towers[i - 1], system.towers[i]
        stage = system.spacer_stages[i - 1]
        spacers = {(s.lo, s.hi) for s in (stage.middle, *stage.right)}
        inherited = 0
        for lv in cur.levels:
            if (lv.lo, lv.hi) in spacers:
                continue
            parents = [p for p in prev.levels if p.lo <= lv.lo and lv.hi <= p.hi]
            assert len(parents) == 1
            inherited += 1
        assert inherited == 3 * prev.height
        assert len(spacers) == 3 * prev.height + 2


def test_mass_at_least_doubles(get_system):
    towers = get_system(6).towers
    for a, b in zip(towers, towers[1:]):
        assert b.height * b.level_width >= 2 * a.height * a.level_width


def test_first_orbit_hand_traced(get_system):
    sys2 = get_system(2)
    assert apply_T(sys2, F(0)) == F(1, 3)
    assert orbit(sys2, F(0), 7) == [
        F(0), F(1, 3), F(1), F(2, 3), F(4, 3), F(5, 3), F(2), F(7, 3),
    ]
    with pytest.raises(DepthExceededError) as exc:
        orbit(sys2, F(0), 8)
    assert exc.value.steps_completed == 7


def test_locate_and_offsets(get_system):
    sys2 = get_system(2)
    assert locate(sys2, F(1, 2), 2) == (2, F(1, 6))
    assert locate(sys2, F(1, 2), 1) == (1, F(1, 2))
    with pytest.raises(OutOfDomainError):
        locate(sys2, F(5, 3), 1)  # spacer positions are not in the order-1 tower
    with pytest.raises(ValueError):
        locate(sys2, F(1, 2), 3)


def test_top_and_bottom_are_the_only_failures(get_system):
    sys2 = get_system(2)
    with pytest.raises(DepthExceededError):
        apply_T(sys2, F(7, 3))  # top level
    with pytest.raises(DepthExceededError):
        apply_T_inv(sys2, F(1, 4))  # bottom level [0, 1/3)
    assert apply_T_inv(sys2, F(1, 3)) == F(0)
    with pytest.raises(OutOfDomainError):
        apply_T(sys2, F(3))
    with pytest.raises(OutOfDomainError):
        apply_T(sys2, F(-1, 9))


def test_deeper_tower_extends_partial_map(get_system):
    # the top level of the order-2 tower is mapped once an order-3 tower exists
    sys3 = get_system(3)
    x = F(7, 3)
    assert apply_T(sys3, x) == translate_at_order(sys3, x, 3)
    with pytest.raises(DepthExceededError):
        translate_at_order(sys3, x, 2)


def test_translation_consistent_across_orders(get_system):
    system = get_system(4)
    rng = np.random.default_rng(42)
    for _ in range(500):
        x = random_point(system, rng)
        images = []
        for n in range(1, system.n_max + 1):
            try:
                images.append(translate_at_order(system, x, n))
            except (OutOfDomainError, DepthExceededError):
                continue
        if images:
            assert len(set(images)) == 1
            assert apply_T(system, x) == images[0]


def test_inverse_identity_random_points(get_system):
    system = get_system(4)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(2000):
        x = random_point(system, rng)
        try:
            y = apply_T(system, x)
        except DepthExceededError:
            continue
        assert apply_T_inv(system, y) == x
        checked += 1
    assert checked > 1900


def test_orbit_backward(get_system):
    sys2 = get_system(2)
    xs = orbit(sys2, F(7, 3), -7)
    assert xs == [F(7, 3), F(2), F(5, 3), F(4, 3), F(2, 3), F(1), F(1, 3), F(0)]
    with pytest.raises(DepthExceededError):
        orbit(sys2, F(7, 3), -8)


def test_return_time_hand_cases(get_system):
    sys2 = get_system(2)
    assert return_time(sys2, F(0), [Interval(F(2, 3), F(1))], p_max=10) == 3
    assert return_time(sys2, F(0), [Interval(F(7, 3), F(8, 3))], p_max=10) == 7
    with pytest.raises(CensoredError) as exc:
        return_time(sys2, F(0), [Interval(F(2, 3), F(1))], p_max=2)
    assert exc.value.report.reasons == {"PMaxExceeded": 1}
    with pytest.raises(CensoredError) as exc:
        return_time(sys2, F(2), [Interval(F(0), F(1, 3))], p_max=10)
    assert exc.value.report.reasons == {"DepthExceeded": 1}


def test_translation_pieces_partition_and_preserve_width(get_system):
    system = get_system(3)
    pieces = translation_pieces(system)
    top = system.towers[-1]
    assert len(pieces) == top.height - 1
    for (dom, off), nxt in zip(pieces, top.levels[1:]):
        assert dom.width == nxt.width
        assert dom.lo + off == nxt.lo
    # domains plus the top level tile the covered set
    ivs = sorted([dom for dom, _ in pieces] + [top.levels[-1]], key=lambda iv: iv.lo)
    assert ivs[0].lo == 0 and ivs[-1].hi == system.high_water
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi == b.lo


def test_json_export_schema(get_system):
    payload = system_to_json(get_system(2))
    assert payload["n_max"] == 2
    assert payload["high_water"] == "8/3"
    assert [t["height"] for t in payload["towers"]] == [1, 8]
    assert payload["towers"][1]["level_width"] == "1/3"
    assert payload["towers"][0]["levels"] == [["0", "1"]]
    assert payload["towers"][1]["levels"][2] == ["1", "4/3"]
    rebuilt = system_from_json(payload)
    assert rebuilt == get_system(2)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_system(0)
    with pytest.raises(ValueError):
        build_system(-3)


def test_random_point_in_covered_set(get_system):
    system = get_system(3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = random_point(system, rng)
        assert 0 <= x < system.high_water
        assert x.denominator <= 2**53 * system.high_water.denominator
