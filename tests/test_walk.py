"""The suspension walk in tower coordinates, against the scalar engine.

``TowerCoords.descend`` is checked level by level against
``chacon._level_lo`` and ``cocycle.eval_phi``; ``walk_orbits`` against
``oracles.scalar_walk`` (push_forward, return_time_N_k, skew_apply_group)
on constructed configurations; and ``collect_suspension`` against
``oracles.four_walk_suspension`` on identical samples.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaconlab.chacon import _level_lo
from chaconlab.cocycle import eval_phi
from chaconlab.suites import collect_suspension
from chaconlab.suspension import (
    MAX_WALK_DEPTH,
    Atom,
    PointConfig,
    TowerCoords,
    fixed_prefixes,
    walk_orbits,
)
from conftest import cached_system, varied_spec
from oracles import four_walk_suspension, scalar_walk

SPEC = varied_spec()
GROUP = SPEC.group


def scalar_levels(system, levels):
    """(posrank, level-function coordinates) of each level, one at a time."""
    n, width = system.n_max, system.widths[-1]
    los = [_level_lo(system, n, k) for k in levels]
    assert all(lo % width == 0 for lo in los)
    return [lo // width for lo in los], [list(eval_phi(SPEC, system, lo).coords) for lo in los]


@pytest.mark.parametrize("n_max", range(1, 8))
def test_descend_matches_the_digit_rule_on_every_level(n_max):
    system = cached_system(n_max)
    tower = TowerCoords(system, SPEC)
    levels = np.arange(system.heights[-1], dtype=np.int64)
    posrank, value = tower.descend(levels)
    want_rank, want_values = scalar_levels(system, range(system.heights[-1]))
    assert posrank.tolist() == want_rank
    assert tower.values[value].tolist() == want_values


# at depth 25, the deepest the walk takes, the height is still below 2**63
@pytest.mark.parametrize("n_max", [12, 16, 24, MAX_WALK_DEPTH])
def test_descend_matches_the_digit_rule_on_sampled_levels(n_max):
    system = cached_system(n_max)
    tower = TowerCoords(system, SPEC)
    h = system.heights[-1]
    drawn = np.random.default_rng(n_max).integers(0, h, 400)
    # every stage's edges: its thirds, its middle spacer, its first and last right spacers
    edges = {e for g in system.heights[:-1] for e in (g - 1, g, 2 * g, 2 * g + 1, 3 * g, 3 * g + 1)}
    levels = sorted({0, 1, h - 2, h - 1, *edges, *drawn.tolist()})
    want_rank, want_values = scalar_levels(system, levels)
    posrank, value = tower.descend(np.array(levels, dtype=np.int64))
    assert posrank.dtype == np.int64
    assert posrank.tolist() == want_rank
    assert tower.values[value].tolist() == want_values


def test_the_walk_depth_bound_is_the_last_height_within_int64():
    # `verify` refuses a deeper --n-max; one depth more and the height passes 2**63
    heights = cached_system(MAX_WALK_DEPTH + 1).heights
    assert heights[MAX_WALK_DEPTH - 1] < 2**63 <= heights[MAX_WALK_DEPTH]


# repeated keys are atoms on one level, which the walk keeps in offset order
@given(st.lists(st.integers(-5, 5), max_size=8))
def test_fixed_prefixes_is_the_rank_order(keys):
    got = fixed_prefixes(np.array(keys, dtype=np.int64))
    ranks = np.argsort(keys, kind="stable")
    assert got.tolist() == [bool((ranks[: i + 1] == np.arange(i + 1)).all()) for i in range(len(keys))]


@st.composite
def constructed_block(draw):
    """Configurations built from tower-N coordinates, all at one depth.

    Some put two atoms on one level, share offsets across levels, or put an
    atom where its orbit reaches the top level exactly at p_max (or one
    step earlier).
    """
    n_max = draw(st.integers(2, 8))
    system = cached_system(n_max)
    h, w = system.heights[-1], system.widths[-1]
    p_max = draw(st.sampled_from([1, 2, 7, 60, 400]))
    mark_steps = draw(st.sampled_from([0, 1, 3, 90]))
    offsets = st.one_of(st.sampled_from([0, 1, w // 3, w - 1]), st.integers(0, w - 1))
    block = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, 6))
        levels = draw(st.lists(st.integers(0, h - 1), min_size=count, max_size=count))
        if count >= 2 and draw(st.booleans()):
            levels[1] = levels[0]
        if count and p_max < h and draw(st.booleans()):
            levels[-1] = h - 1 - p_max + draw(st.integers(0, 1))
        atoms = {_level_lo(system, n_max, k) + draw(offsets) for k in levels}
        positions = tuple(sorted(atoms))
        wants = draw(st.sets(st.integers(0, min(len(positions), 3))))
        start = np.array(
            [[draw(st.integers(0, d - 1)) for d in GROUP.invariant_factors] for _ in positions],
            dtype=np.int64,
        ).reshape(len(positions), GROUP.rank)
        block.append((positions, wants, start))
    return system, p_max, mark_steps, block


class Walk(NamedTuple):
    """One configuration's share of a ``walk_orbits`` result; marks None past the top."""

    returns: dict
    marks: np.ndarray | None


def per_configuration(walked, counts):
    """Split ``walk_orbits``' flat result by configuration."""
    returns, marks, reached = walked
    ends = np.cumsum(counts).tolist()
    return [
        Walk(r, marks[b - n : b] if ok else None)
        for r, n, b, ok in zip(returns, counts.tolist(), ends, reached)
    ]


def check_against_scalar(system, walk, positions, wants, p_max, mark_steps, start):
    """Assert one configuration's walk equals the scalar engine's; return its censor reasons."""
    config = PointConfig(
        window=system.covered,
        atoms=tuple(Atom(i + 1, x) for i, x in enumerate(positions)),
        denom=system.denom,
    )
    returns, reasons, marks = scalar_walk(system, SPEC, config, wants, p_max, mark_steps, start)
    assert walk.returns == returns
    assert (None if walk.marks is None else walk.marks.tolist()) == marks
    return reasons


@given(constructed_block())
def test_walk_matches_the_scalar_engine_on_constructed_blocks(case):
    system, p_max, mark_steps, block = case
    configs, wants, starts = zip(*block)
    positions = [x for config in configs for x in config]
    counts = np.array([len(config) for config in configs])
    walked = per_configuration(walk_orbits(
        TowerCoords(system, SPEC), positions, counts, wants, p_max, mark_steps,
        np.concatenate(starts),
    ), counts)
    for walk, (positions, want, start) in zip(walked, block):
        check_against_scalar(system, walk, positions, want, p_max, mark_steps, start)


def walk_one(system, levels_offsets, wants, p_max, mark_steps, start):
    """Walk one configuration given as (level, offset) pairs, checked against
    the scalar engine; return the walk and its censor reasons."""
    positions = tuple(sorted(_level_lo(system, system.n_max, k) + o for k, o in levels_offsets))
    counts = np.array([len(positions)])
    [walk] = per_configuration(walk_orbits(
        TowerCoords(system, SPEC), positions, counts, [wants], p_max, mark_steps, start
    ), counts)
    return walk, check_against_scalar(system, walk, positions, wants, p_max, mark_steps, start)


@pytest.mark.parametrize("p_max", [1, 2, 5, 30])
@pytest.mark.parametrize("below_top", [0, 1])
def test_walk_reaches_the_top_exactly_at_p_max(p_max, below_top):
    # an atom p_max (or p_max - 1) steps under the top level, one near the bottom
    system = cached_system(4)
    top = system.heights[-1] - 1
    start = np.array([[1, 0], [2, 1]])
    walk, reasons = walk_one(
        system, [(top - p_max + below_top, 7), (3, 1)], {0, 1, 2}, p_max, p_max, start
    )
    assert (walk.marks is None) == bool(below_top)
    if below_top:
        assert set(reasons.values()) <= {"DepthExceeded"}


@pytest.mark.parametrize("n_max", [3, 5, 7])
@pytest.mark.parametrize("level", [0, 4, 17])
def test_walk_orders_atoms_on_one_level_by_offset(n_max, level):
    # the two atoms on one level rank by offset at every step; the third
    # shares an offset with one of them on another level
    system = cached_system(n_max)
    w = system.widths[-1]
    atoms = [(level, w // 2), (level, w // 5), (level + 2, w // 5)]
    start = np.array([[0, 1], [1, 0], [2, 1]])
    walk, _ = walk_one(system, atoms, {0, 1, 2, 3}, 400, 5, start)
    assert walk.returns


def test_walk_at_the_deepest_tower_stays_int64():
    # eight atoms at depth 25, where the height is below 2**63 and
    # the height times the atom count is not
    system = cached_system(MAX_WALK_DEPTH)
    assert system.heights[-1] * 9 >= 2**63
    w = system.widths[-1]
    atoms = [(5 + 3 * i, i * (w // 9)) for i in range(8)]
    start = np.arange(16).reshape(8, 2) % (3, 2)
    walk, reasons = walk_one(system, atoms, {0, 1, 2, 3}, 300, 4, start)
    assert not reasons and walk.marks is not None


@settings(max_examples=25)
# seed 3 at depth 8 returns after 6,548 steps for k = 2 on its eighth sample
@example(n_max=8, k_values=(1, 2), p_max=10_000, mark_steps=3, window=Fraction(4), seed=3)
@example(n_max=2, k_values=(0, 1, 2, 3), p_max=1, mark_steps=0, window=Fraction(2), seed=0)
@example(n_max=5, k_values=(0, 3), p_max=2, mark_steps=40, window=Fraction(4), seed=1)
# a block that walks a configuration past its top while another needs more steps
@example(n_max=2, k_values=(0, 2, 3), p_max=1, mark_steps=3, window=Fraction(4), seed=116988)
# the deepest tower the walk takes, whose height is below 2**63
@example(n_max=25, k_values=(1, 2), p_max=500, mark_steps=3, window=Fraction(4), seed=3)
@given(
    n_max=st.integers(2, 8),
    k_values=st.sets(st.integers(0, 3), min_size=1).map(sorted).map(tuple),
    p_max=st.sampled_from([1, 2, 10_000]),
    mark_steps=st.sampled_from([0, 3, 40]),
    window=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(4)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_collect_suspension_matches_the_four_walk_oracle(
    n_max, k_values, p_max, mark_steps, window, seed
):
    covered = Fraction(cached_system(n_max).high_water, cached_system(n_max).denom)
    args = (seed, n_max, p_max, min(window, covered), k_values, SPEC, mark_steps)
    got = collect_suspension(0, 10, *args)
    want = four_walk_suspension(0, 10, *args)
    assert got["per_k"] == want["per_k"]
    assert got["mark_counts"].tolist() == want["mark_counts"]
    assert got["mark_pairs"].tolist() == want["mark_pairs"]
    assert got["mark_censored"] == want["mark_censored"]

