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

Positions are lattice integers; ``lat`` writes a hand value on a system's
lattice.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from chaconlab.chacon import (
    Interval,
    apply_T,
    apply_T_inv,
    build_system,
    levels,
    locate,
    orbit,
    random_point,
    system_from_json,
    system_to_json,
    tower_heights,
    translate_at_order,
    translation_pieces,
)
from chaconlab.errors import CensoredError, DepthExceededError, OutOfDomainError
from chaconlab.ratio import to_lattice

from oracles import return_time

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


def lat(system, *xs):
    """Hand values on the system's lattice: one int, or a list for several."""
    out = [to_lattice(x, system.denom) for x in xs]
    return out[0] if len(out) == 1 else out


def test_heights_recurrence():
    assert tower_heights(6) == [1, 8, 50, 302, 1814, 10886]


def test_stage2_levels_exact(get_system):
    sys2 = get_system(2)
    assert sys2.heights[1] == 8
    assert sys2.widths[1] == lat(sys2, F(1, 3))
    expected = [(lat(sys2, lo), lat(sys2, hi)) for lo, hi in STAGE2_LEVELS]
    assert [(lv.lo, lv.hi) for lv in levels(sys2, 2)] == expected


def test_covered_set_is_initial_segment(get_system):
    sys2 = get_system(2)
    assert sys2.high_water == lat(sys2, F(8, 3))
    assert sys2.covered.lo == 0 and sys2.covered.hi == lat(sys2, F(8, 3))
    for n in range(1, 6):
        s = get_system(n)
        assert s.high_water == s.heights[-1] * s.widths[-1]
        assert s.high_water == len(levels(s, n)) * s.widths[-1]


def test_levels_partition_covered_set(get_system):
    system = get_system(5)
    for n in range(1, system.n_max + 1):
        ivs = sorted(levels(system, n), key=lambda lv: lv.lo)
        assert ivs[0].lo == 0
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi == b.lo
        assert ivs[-1].hi == system.heights[n - 1] * system.widths[n - 1]


def test_widths_shrink_by_three(get_system):
    system = get_system(6)
    for n, w in enumerate(system.widths, start=1):
        assert w == lat(system, F(1, 3 ** (n - 1)))
        assert all(lv.width == w for lv in levels(system, n))


def test_each_level_refines_previous_stage(get_system):
    system = get_system(4)
    for i in range(1, system.n_max):
        prev, cur = levels(system, i), levels(system, i + 1)
        # stage i fills [marks[i-1], marks[i]) with spacers of the new width
        w, mark = system.widths[i], system.marks[i - 1]
        spacers = {(mark + j * w, mark + (j + 1) * w) for j in range(3 * len(prev) + 2)}
        assert mark + len(spacers) * w == system.marks[i]
        inherited = 0
        for lv in cur:
            if (lv.lo, lv.hi) in spacers:
                continue
            parents = [p for p in prev if p.lo <= lv.lo and lv.hi <= p.hi]
            assert len(parents) == 1
            inherited += 1
        assert inherited == 3 * len(prev)
        assert len(spacers) == 3 * len(prev) + 2
        assert len(cur) - inherited == len(spacers)


def test_mass_at_least_doubles(get_system):
    marks = get_system(6).marks
    for a, b in zip(marks, marks[1:]):
        assert b >= 2 * a


def test_first_orbit_hand_traced(get_system):
    sys2 = get_system(2)
    assert apply_T(sys2, 0) == lat(sys2, F(1, 3))
    assert orbit(sys2, 0, 7) == lat(
        sys2, F(0), F(1, 3), F(1), F(2, 3), F(4, 3), F(5, 3), F(2), F(7, 3),
    )
    with pytest.raises(DepthExceededError):
        orbit(sys2, 0, 8)


def test_locate_and_offsets(get_system):
    sys2 = get_system(2)
    assert locate(sys2, lat(sys2, F(1, 2)), 2) == (2, lat(sys2, F(1, 6)))
    assert locate(sys2, lat(sys2, F(1, 2)), 1) == (1, lat(sys2, F(1, 2)))
    with pytest.raises(OutOfDomainError):
        locate(sys2, lat(sys2, F(5, 3)), 1)  # spacer positions are not in the order-1 tower
    with pytest.raises(ValueError):
        locate(sys2, lat(sys2, F(1, 2)), 3)


def test_top_and_bottom_are_the_only_failures(get_system):
    sys2 = get_system(2)
    with pytest.raises(DepthExceededError):
        apply_T(sys2, lat(sys2, F(7, 3)))  # top level
    with pytest.raises(DepthExceededError):
        apply_T_inv(sys2, lat(sys2, F(1, 4)))  # bottom level [0, 1/3)
    assert apply_T_inv(sys2, lat(sys2, F(1, 3))) == 0
    with pytest.raises(OutOfDomainError):
        apply_T(sys2, lat(sys2, F(3)))
    with pytest.raises(OutOfDomainError):
        apply_T(sys2, lat(sys2, F(-1, 3)))


def test_deeper_tower_extends_partial_map(get_system):
    # the top level of the order-2 tower is mapped once an order-3 tower exists
    sys3 = get_system(3)
    x = lat(sys3, F(7, 3))
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
    x = lat(sys2, F(7, 3))
    xs = orbit(sys2, x, -7)
    assert xs == lat(sys2, F(7, 3), F(2), F(5, 3), F(4, 3), F(2, 3), F(1), F(1, 3), F(0))
    with pytest.raises(DepthExceededError):
        orbit(sys2, x, -8)


def test_return_time_hand_cases(get_system):
    sys2 = get_system(2)

    def window(lo, hi):
        return Interval(lat(sys2, lo), lat(sys2, hi))

    assert return_time(sys2, 0, [window(F(2, 3), F(1))], p_max=10) == 3
    assert return_time(sys2, 0, [window(F(7, 3), F(8, 3))], p_max=10) == 7
    with pytest.raises(CensoredError) as exc:
        return_time(sys2, 0, [window(F(2, 3), F(1))], p_max=2)
    assert exc.value.reason == "PMaxExceeded"
    with pytest.raises(CensoredError) as exc:
        return_time(sys2, lat(sys2, F(2)), [window(F(0), F(1, 3))], p_max=10)
    assert exc.value.reason == "DepthExceeded"


def test_translation_pieces_partition_and_preserve_width(get_system):
    system = get_system(3)
    pieces = translation_pieces(system)
    top = levels(system, 3)
    assert len(pieces) == system.heights[-1] - 1
    for (dom, off), nxt in zip(pieces, top[1:]):
        assert dom.width == nxt.width
        assert dom.lo + off == nxt.lo
    # domains plus the top level tile the covered set
    ivs = sorted([dom for dom, _ in pieces] + [top[-1]], key=lambda iv: iv.lo)
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
        assert isinstance(x, int)  # a lattice point
