"""Point configurations, rank permutations, and the marked skew product.

The hand-traced cases all live over the depth-2 tower system, whose stack
order is [0,1/3), [1/3,2/3), [1,4/3), [2/3,1), [4/3,5/3), [5/3,2),
[2,7/3), [7/3,8/3).  Hand values are written as Fractions and put on a
system's lattice by ``cfg`` and ``lat``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaconlab.chacon import Interval, _level_lo, build_system
from chaconlab.cocycle import FinAbGroup, phi_iter, single_spacer_indicator, zero_cocycle
from chaconlab.errors import (
    CensoredError,
    DepthExceededError,
    InsufficientDataError,
    PMaxExceededError,
    TooFewAtomsError,
)
from chaconlab.ratio import to_lattice
from chaconlab.stats import chi2_gof, chi2_independence, ks_exponential, make_rng
from chaconlab.suites import collect_poisson
from chaconlab.suspension import (
    SNAP_DENOM,
    Atom,
    MarkedConfig,
    PointConfig,
    RankPermutation,
    config_from_json,
    config_to_json,
    distinguish_k,
    in_split_order,
    induced_return,
    lattice_window,
    phi_k_vector,
    psi_iter,
    push_forward,
    recombine,
    return_time_N_k,
    sample_poisson,
    sample_windows,
    skew_apply_group,
    MAX_ATTEMPTS,
    keyed_draw,
    skew_apply_perm,
    snapped_arrivals,
    superpose,
)
import oracles
from conftest import cached_system, varied_spec
from oracles import loop_snapped_arrivals

F = Fraction
VARIED = varied_spec()
D2 = build_system(2).denom
D3 = build_system(3).denom


def lat(*xs, denom=D2):
    return tuple(to_lattice(x, denom) for x in xs)


def cfg(window_hi, *positions, denom=D2):
    return PointConfig(
        window=lattice_window(0, window_hi, denom),
        atoms=tuple(Atom(i + 1, p) for i, p in enumerate(lat(*positions, denom=denom))),
        denom=denom,
    )


def window(hi, denom=D3):
    return lattice_window(0, hi, denom)


@pytest.fixture(scope="module")
def sys2():
    return build_system(2)


@pytest.fixture(scope="module")
def sys3():
    return build_system(3)


def test_point_config_validation():
    with pytest.raises(ValueError):
        cfg(2, F(1, 2), F(1, 2))  # not strictly increasing
    with pytest.raises(ValueError):
        cfg(2, F(5, 2))  # outside window
    with pytest.raises(ValueError):
        PointConfig(
            window=lattice_window(0, 2),
            atoms=(Atom(1, 2**52), Atom(1, 3 * 2**52)),  # duplicate id
        )
    c = cfg(2, F(1, 4), F(1, 2))
    assert c.count == 2 and (c.t(1), c.t(2)) == lat(F(1, 4), F(1, 2))
    with pytest.raises(IndexError):
        c.t(3)


def test_rank_permutation_algebra():
    s = RankPermutation((2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s.inverse().images == (3, 1, 2)
    assert s.after(s.inverse()).is_identity()
    assert s.inverse().after(s).is_identity()
    t = RankPermutation((1, 3, 2))
    # (t.after(s))(n) == t(s(n))
    assert tuple(t.after(s)(n) for n in (1, 2, 3)) == tuple(t(s(n)) for n in (1, 2, 3))
    assert RankPermutation.identity(4).fixes_prefix(4)
    assert RankPermutation((1, 2, 4, 3)).fixes_prefix(2)
    assert not RankPermutation((1, 3, 2, 4)).fixes_prefix(2)
    with pytest.raises(ValueError):
        RankPermutation((1, 1, 2))


def test_push_forward_hand_trace(sys2):
    c = cfg(F(8, 3), F(1, 6), F(1, 2), F(9, 8))
    out, perm = push_forward(sys2, c)
    assert perm.images == (1, 3, 2)
    assert out.positions() == lat(F(1, 2), F(19, 24), F(7, 6))
    assert [a.id for a in out.atoms] == [1, 3, 2]  # ids ride along


def test_censoring_reasons_are_exception_classes():
    assert issubclass(DepthExceededError, CensoredError)
    assert issubclass(PMaxExceededError, CensoredError)
    assert issubclass(TooFewAtomsError, CensoredError)
    assert (DepthExceededError.reason, PMaxExceededError.reason, TooFewAtomsError.reason) == (
        "DepthExceeded",
        "PMaxExceeded",
        "TooFewAtoms",
    )


def test_push_forward_censors_top_level(sys2):
    c = cfg(F(8, 3), F(1, 6), F(5, 2))  # 5/2 sits in the top level [7/3, 8/3)
    with pytest.raises(DepthExceededError) as err:
        push_forward(sys2, c)
    assert err.value.reason == "DepthExceeded"


def test_censoring_monotone_in_depth(sys2, sys3):
    c = cfg(F(8, 3), F(1, 6), F(5, 2))
    with pytest.raises(CensoredError):
        push_forward(sys2, c)
    with pytest.raises(ValueError):
        push_forward(sys3, c)  # a depth-2 lattice configuration
    # deeper towers absorb the same orbit
    out, _ = push_forward(sys3, cfg(F(8, 3), F(1, 6), F(5, 2), denom=D3))
    assert out.count == 2
    # and the shallow-map image is reproduced where both are defined
    ok, _ = push_forward(sys2, cfg(F(8, 3), F(1, 6), F(1, 2)))
    deep, _ = push_forward(sys3, cfg(F(8, 3), F(1, 6), F(1, 2), denom=D3))
    assert [F(x, D2) for x in ok.positions()] == [F(x, D3) for x in deep.positions()]


def test_psi_iter_hand_trace(sys2):
    c = cfg(F(8, 3), F(1, 2), F(9, 8))
    assert psi_iter(sys2, c, 0).is_identity()
    assert psi_iter(sys2, c, 1).images == (2, 1)
    assert psi_iter(sys2, c, 2).is_identity()


def test_psi_cocycle_identity(sys3):
    # accumulated permutation after p+q steps = (q-step perm of the advanced
    # configuration) composed after the p-step perm
    for i in range(40):
        c = sample_poisson(window(3), seed=500, stream=i, denom=D3)
        if c.count == 0:
            continue
        p, q = 1 + i % 3, 1 + (i // 3) % 3
        try:
            full = psi_iter(sys3, c, p + q)
        except CensoredError:
            continue
        cur = c
        for _ in range(p):
            cur, _ = push_forward(sys3, cur)
        assert full == psi_iter(sys3, cur, q).after(psi_iter(sys3, c, p))


def test_return_time_hand_cases(sys2):
    c = cfg(F(8, 3), F(1, 2), F(9, 8))
    assert return_time_N_k(sys2, c, 0, 10) == 1  # vacuous prefix
    assert return_time_N_k(sys2, c, 1, 10) == 2
    assert return_time_N_k(sys2, c, 2, 10) == 2
    with pytest.raises(PMaxExceededError) as err:
        return_time_N_k(sys2, c, 2, 1)
    assert err.value.reason == "PMaxExceeded"
    with pytest.raises(InsufficientDataError):
        return_time_N_k(sys2, c, 3, 10)


def test_distinguish_recombine_roundtrip():
    c = cfg(F(8, 3), F(1, 8), F(1, 2), F(9, 8), F(2))
    pts, rem = distinguish_k(c, 2)
    assert pts == lat(F(1, 8), F(1, 2))
    assert rem.positions() == lat(F(9, 8), F(2))
    assert in_split_order(pts, rem.positions())
    assert recombine(pts, rem).same_positions(c)
    pts0, rem0 = distinguish_k(c, 0)
    assert pts0 == () and rem0.same_positions(c)
    with pytest.raises(InsufficientDataError):
        distinguish_k(c, 5)
    with pytest.raises(ValueError):
        recombine(lat(F(3, 2)), rem)  # not below the remainder


def test_recombine_refuses_points_out_of_split_order():
    rem = cfg(F(8, 3), F(9, 8), F(2))
    with pytest.raises(ValueError):
        recombine(lat(F(1, 2), F(1, 8)), rem)  # decreasing
    with pytest.raises(ValueError):
        recombine(lat(F(1, 2), F(1, 2)), rem)  # repeated
    with pytest.raises(ValueError):
        recombine(lat(F(1, 8), F(9, 8)), rem)  # on the remainder's first atom


def test_split_order_is_strict():
    # route A never compares equal positions (the map is injective and a
    # collision raises first), so ties are checked here
    a, b = lat(F(1, 8), F(1, 2))
    assert in_split_order((a, b), ()) and in_split_order((a,), (b,))
    assert in_split_order((), (a, a))
    assert not in_split_order((a, a), ())
    assert not in_split_order((b, a), ())
    assert not in_split_order((a,), (a, b))
    assert not in_split_order((b,), (a,))


def test_induced_return_censoring_reasons(sys2):
    # 5/2 sits in the top level [7/3, 8/3), where the map is undefined
    spec = single_spacer_indicator(1)
    got = induced_return(sys2, spec, lat(F(5, 2), F(1, 2)), (1,), 10)  # a point runs off
    assert got == ({}, "DepthExceeded")
    got = induced_return(sys2, spec, lat(F(1, 6), F(1, 2), F(5, 2)), (1,), 10)  # the remainder
    assert got == ({}, "DepthExceeded")
    positions = lat(F(1, 2), F(9, 8))
    assert induced_return(sys2, spec, positions, (1,), 10)[0][1][0] == 2
    assert induced_return(sys2, spec, positions, (1,), 1) == ({}, "PMaxExceeded")


def test_induced_return_matches_whole_configuration(sys3):
    # split route and whole-configuration route agree exactly when uncensored
    spec = single_spacer_indicator(1)
    checked = 0
    for i in range(60):
        c = sample_poisson(window(2), seed=321, stream=i, denom=D3)
        ks = [k for k in (1, 2) if k <= c.count]
        returns, _ = induced_return(sys3, spec, c.positions(), ks, 500)
        for k, (m, positions, _) in returns.items():
            n = return_time_N_k(sys3, c, k, 500)
            assert m == n
            cur = c
            for _ in range(n):
                cur, _ = push_forward(sys3, cur)
            assert positions == cur.positions()
            checked += 1
    assert checked >= 40


def poisson_positions(system, seed):
    hi = min(4 * system.denom, system.high_water)
    return sample_poisson(Interval(0, hi), seed, denom=system.denom).positions()


@st.composite
def route_a_case(draw):
    """Increasing positions at depths 2..8: a Poisson sample on [0, 4), or
    atoms built from tower-N levels.

    Some built ones put an atom where its orbit reaches the top level
    exactly at p_max, one step earlier, or sooner; k runs over subsets of
    0..4, past the atom count too.
    """
    n_max = draw(st.integers(2, 8))
    system = cached_system(n_max)
    h, w = system.heights[-1], system.widths[-1]
    p_max = draw(st.sampled_from([1, 2, 7, 500]))
    k_values = draw(st.sets(st.integers(0, 4), min_size=1))
    if draw(st.booleans()):
        return system, poisson_positions(system, draw(st.integers(0, 2**32 - 1))), k_values, p_max
    count = draw(st.integers(0, 5))
    levels = draw(st.lists(st.integers(0, h - 1), min_size=count, max_size=count))
    if count and draw(st.booleans()):
        below = draw(st.one_of(st.sampled_from([p_max, p_max - 1]), st.integers(0, p_max)))
        levels[draw(st.integers(0, count - 1))] = max(0, h - 1 - below)
    offsets = st.integers(0, w - 1)
    positions = tuple(sorted({_level_lo(system, n_max, k) + draw(offsets) for k in levels}))
    return system, positions, k_values, p_max


@settings(max_examples=200)
# k = 0 and 1 return, then an atom runs off the top; k = 0 returns, then p_max passes
@example((cached_system(3), poisson_positions(cached_system(3), 5), {0, 1, 2, 3}, 500))
@example((cached_system(5), poisson_positions(cached_system(5), 3), {0, 1, 2, 3}, 7))
@given(route_a_case())
def test_one_pass_route_a_matches_a_pass_per_k(case):
    # each k against the single-k induced return, the sums against phi_iter
    system, positions, k_values, p_max = case
    returns, reason = induced_return(system, VARIED, positions, k_values, p_max)
    reasons = set()
    for k in k_values:
        try:
            m, pts, rest = oracles.induced_return(system, positions[:k], positions[k:], p_max)
        except CensoredError as exc:
            reasons.add(exc.reason)
            assert k not in returns
            continue
        steps, advanced, sums = returns[k]
        assert (steps, advanced) == (m, pts + rest)
        want = tuple(phi_iter(VARIED, system, x, m).coords for x in positions[:k])
        assert tuple(VARIED.group.element(s).coords for s in sums) == want
    assert set(returns) <= set(k_values)
    assert reasons == ({reason} if reason else set())


def test_superpose(sys2):
    a = cfg(F(8, 3), F(1, 6), F(1, 2))
    b = cfg(F(8, 3), F(1, 4), F(5, 4))
    both = superpose(a, b)
    assert both.positions() == lat(F(1, 6), F(1, 4), F(1, 2), F(5, 4))
    assert [x.id for x in both.atoms] == [1, 2, 3, 4]  # fresh ids
    assert both.provenance == ((1, 1), (2, 1), (1, 2), (2, 2))
    flipped = superpose(b, a)
    assert flipped.same_positions(both)  # commutative up to relabeling
    empty = cfg(F(8, 3))
    assert superpose(a, empty).same_positions(a)
    with pytest.raises(AssertionError):
        superpose(a, cfg(F(8, 3), F(1, 6)))  # identical position collides
    with pytest.raises(ValueError):
        superpose(a, cfg(2, F(1, 4)))  # window mismatch
    with pytest.raises(ValueError):
        superpose(a, cfg(F(8, 3), F(1, 4), denom=D3))  # lattice mismatch


def test_superpose_sampled_pairs():
    # the merged configuration keeps every atom of both sides, in order,
    # and its provenance splits exactly by side; on the poisson suite's
    # pair streams (3i + 1, 3i + 2) its count is the suite's pair count
    merged_any = False
    suite_counts = collect_poisson(0, 40, 8, 30, 3)["sup_counts"]
    for i in range(40):
        a = sample_poisson(lattice_window(0, 3), seed=8, stream=3 * i + 1)
        b = sample_poisson(lattice_window(0, 3), seed=8, stream=3 * i + 2)
        both = superpose(a, b)
        pos = both.positions()
        assert both.count == len(pos) == a.count + b.count == suite_counts[i]
        assert all(x < y for x, y in zip(pos, pos[1:]))
        assert sorted(pos) == sorted(a.positions() + b.positions())
        sides = [src for src, _ in both.provenance]
        assert sides.count(1) == a.count and sides.count(2) == b.count
        assert sorted(old for src, old in both.provenance if src == 1) == [x.id for x in a.atoms]
        assert sorted(old for src, old in both.provenance if src == 2) == [x.id for x in b.atoms]
        merged_any = merged_any or (a.count and b.count)
    assert merged_any


def _superposed(seed, samples, hi):
    """(a, b, superpose(a, b)) for unit-rate samples on [0, hi), two streams each."""
    for i in range(samples):
        a = sample_poisson(lattice_window(0, hi), seed=seed, stream=2 * i)
        b = sample_poisson(lattice_window(0, hi), seed=seed, stream=2 * i + 1)
        yield a, b, superpose(a, b)


def test_superposed_gaps_are_exp2():
    # The first 10 gaps from the window's start are iid Exp(2). A window of
    # 20 holds them all except with probability P(Poisson(40) < 10) < 1e-9,
    # so stopping at the window's end biases nothing measurable.
    gaps = []
    for _, _, both in _superposed(seed=21, samples=60, hi=20):
        pos = [both.window.lo, *both.positions()[:10]]
        assert len(pos) == 11
        gaps += [(y - x) / both.denom for x, y in zip(pos, pos[1:])]
    assert ks_exponential([2 * g for g in gaps], alpha=0.01)["passed"]
    # the same gaps read at unit rate must be rejected
    assert not ks_exponential(gaps, alpha=0.01)["passed"]


def test_superposed_provenance_is_a_fair_coin():
    # Each merged atom comes from either side with probability 1/2,
    # independently of its neighbour: pooled counts pass a Binomial(1/2)
    # check and consecutive sides pass an independence check.
    def sides_and_pairs(configs):
        sides, pairs = [0, 0], np.zeros((2, 2), dtype=int)
        for both in configs:
            seq = [src - 1 for src, _ in both.provenance]
            for x in seq:
                sides[x] += 1
            for x, y in zip(seq, seq[1:]):
                pairs[x, y] += 1
        return sides, pairs

    sides, pairs = sides_and_pairs(both for _, _, both in _superposed(seed=22, samples=200, hi=3))
    assert sum(sides) > 1000
    assert chi2_gof(sides, [0.5, 0.5], alpha=0.01)["passed"]
    assert chi2_independence(pairs, alpha=0.01)["passed"]
    # against a rate-2 second side the split is 1:2, and the check must reject
    thirds, _ = sides_and_pairs(
        superpose(a, superpose(b, sample_poisson(lattice_window(0, 3), seed=23, stream=i)))
        for i, (a, b, _) in enumerate(_superposed(seed=22, samples=200, hi=3))
    )
    assert not chi2_gof(thirds, [0.5, 0.5], alpha=0.01)["passed"]


def test_skew_apply_perm_action():
    marks = ("a", "b", "c")
    ident = RankPermutation.identity(3)
    assert skew_apply_perm(ident, marks) == marks
    s = RankPermutation((2, 3, 1))
    moved = skew_apply_perm(s, marks)
    # rank s(i) now carries mark i
    for i, m in enumerate(marks, start=1):
        assert moved[s(i) - 1] == m
    assert skew_apply_perm(s.inverse(), moved) == marks
    t = RankPermutation((1, 3, 2))
    assert skew_apply_perm(t.after(s), marks) == skew_apply_perm(
        t, skew_apply_perm(s, marks)
    )
    with pytest.raises(ValueError):
        skew_apply_perm(s, ("a",))


def test_skew_apply_group_hand_trace(sys2):
    spec = single_spacer_indicator(1)  # level value 1 exactly on [1, 4/3)
    g = spec.group
    one, zero = g.element((1,)), g.identity()
    marked = MarkedConfig(
        cfg(F(8, 3), F(1, 6), F(1, 2), F(9, 8)), (one, zero, one)
    )
    out, perm = skew_apply_group(sys2, spec, marked)
    assert perm.images == (1, 3, 2)
    # new rank 1 <- atom from 1/6 (level value 0), rank 2 <- atom from 9/8
    # (inside the marked spacer, +1), rank 3 <- atom from 1/2 (0)
    assert out.marks == (one, zero, zero)
    assert out.config.positions() == lat(F(1, 2), F(19, 24), F(7, 6))


def test_skew_group_zero_cocycle_is_pure_permutation(sys2):
    g = FinAbGroup((3,))
    spec = zero_cocycle(g)
    marks = (g.element((1,)), g.element((2,)), g.element((0,)))
    marked = MarkedConfig(cfg(F(8, 3), F(1, 6), F(1, 2), F(9, 8)), marks)
    out, perm = skew_apply_group(sys2, spec, marked)
    assert out.marks == skew_apply_perm(perm, marks)


def test_skew_group_two_steps_compose(sys2):
    # two single steps equal one combined step with the composed cocycle:
    # marks accumulate along orbits, permutations compose
    spec = single_spacer_indicator(1)
    g = spec.group
    start = MarkedConfig(cfg(F(8, 3), F(1, 2), F(9, 8)), (g.identity(),) * 2)
    one_a, perm_a = skew_apply_group(sys2, spec, start)
    two, perm_b = skew_apply_group(sys2, spec, one_a)
    total = perm_b.after(perm_a)
    assert psi_iter(sys2, start.config, 2) == total

    inv = total.inverse()
    for n in range(1, 3):
        m = inv(n)
        assert two.marks[n - 1] == phi_iter(spec, sys2, start.config.t(m), 2)


def test_phi_k_vector_hand_case(sys2):
    spec = single_spacer_indicator(1)
    one = spec.group.element((1,))
    c = cfg(F(8, 3), F(1, 2), F(9, 8))
    # N^(2) = 2; phi^(2)(1/2) = phi(7/6) = 1, phi^(2)(9/8) = phi(9/8) = 1
    assert phi_k_vector(sys2, spec, c, 2, 10) == (one, one)
    assert phi_k_vector(sys2, spec, c, 0, 10) == ()


def test_phi_transport_through_skew_steps(sys3):
    spec = single_spacer_indicator(2)
    checked = 0
    for i in range(40):
        c = sample_poisson(window(3), seed=77, stream=i, denom=D3)
        for k in (1, 2):
            if c.count < k:
                continue
            try:
                n = return_time_N_k(sys3, c, k, 500)
                vec = phi_k_vector(sys3, spec, c, k, 500)
            except CensoredError:
                continue
            marked = MarkedConfig(c, (spec.group.identity(),) * c.count)
            for _ in range(n):
                marked, _ = skew_apply_group(sys3, spec, marked)
            assert tuple(marked.marks[:k]) == vec
            checked += 1
    assert checked >= 30


def test_sampling_determinism_and_grid():
    w = lattice_window(0, 6)
    a = sample_poisson(w, seed=9, stream=2)
    assert a == sample_poisson(w, seed=9, stream=2)
    assert a != sample_poisson(w, seed=9, stream=3)
    assert a != sample_poisson(w, seed=10, stream=2)
    for atom in a.atoms:
        assert 0 <= atom.pos < 6 * SNAP_DENOM
        assert isinstance(atom.pos, int)  # dyadic grid
    gaps = [b.pos - a_.pos for a_, b in zip(a.atoms, a.atoms[1:])]
    assert all(g > 0 for g in gaps)
    # the same draws on a finer lattice are the same points
    fine = sample_poisson(lattice_window(0, 6, D3), seed=9, stream=2, denom=D3)
    assert [F(x, D3) for x in fine.positions()] == [F(x, SNAP_DENOM) for x in a.positions()]
    assert all(x % (D3 // SNAP_DENOM) == 0 for x in fine.positions())
    with pytest.raises(ValueError):
        sample_poisson(lattice_window(0, 6, 3), seed=9, denom=3)


def numerators(cells, offs):
    """Positions in the sampler's form, cell * 2**53 + off, read back as Python ints."""
    assert cells.dtype == offs.dtype == np.int64
    assert ((0 <= offs) & (offs < SNAP_DENOM)).all()
    return [c * SNAP_DENOM + o for c, o in zip(cells.tolist(), offs.tolist())]


@pytest.mark.parametrize("hi", [2**63 - 1, 2**63, 2**63 + 1, 2**64 + SNAP_DENOM])
def test_sample_windows_match_the_loop_around_2_63(hi):
    # windows whose top is just below, at or past 2**63 lattice units, or past
    # 2**64: the cells and offsets read back as the loop's exact sums
    cells, offs, counts = sample_windows(hi, 6, np.arange(8))
    chains = [loop_snapped_arrivals(make_rng(6, s), hi, hi // SNAP_DENOM + 8) for s in range(8)]
    assert counts.tolist() == [len(c) for c in chains]
    assert numerators(cells, offs) == [x for c in chains for x in c]


@pytest.mark.parametrize(
    "denom, hi",
    [(SNAP_DENOM, 2**63 - 1), (SNAP_DENOM, 2**63), (D3, 2**63 - D3 // SNAP_DENOM),
     (D3, 2**63), (D3, 2**63 + D3)],
)
def test_sample_poisson_scales_exactly_past_2_63(denom, hi):
    # a window two units wide whose top is just below, at or past 2**63 on its
    # lattice: positions scaled there in Python ints neither wrap nor round
    scale, lo = denom // SNAP_DENOM, hi - 2 * denom
    positions = []
    for s in range(8):
        chain = loop_snapped_arrivals(make_rng(6, s), 2 * SNAP_DENOM, 16)
        positions += sample_poisson(Interval(lo, hi), 6, s, denom).positions()
        assert positions[len(positions) - len(chain):] == [lo + x * scale for x in chain]
    assert max(positions) > 2**63 - denom


def test_offset_window_sampling():
    # stream 0 alone draws no atom at this seed; ten streams draw some
    w = lattice_window(5, 8)
    configs = [sample_poisson(w, seed=4, stream=i) for i in range(10)]
    assert sum(c.count for c in configs) > 0
    for c in configs:
        assert all(5 * SNAP_DENOM <= atom.pos < 8 * SNAP_DENOM for atom in c.atoms)


def test_off_lattice_window_end_is_exact():
    # 10/7 is not a lattice point; an atom is kept exactly when it lies below 10/7
    hi = F(10, 7)
    for i in range(40):
        c = sample_poisson(lattice_window(0, hi, D3), seed=3, stream=i, denom=D3)
        wide = sample_poisson(lattice_window(0, 2, D3), seed=3, stream=i, denom=D3)
        assert c.positions() == tuple(x for x in wide.positions() if F(x, D3) < hi)


def test_config_json_roundtrip():
    c = cfg(F(8, 3), F(1, 6), F(1, 2), F(9, 8))
    payload = config_to_json(c)
    assert payload["window"] == ["0", "8/3"]
    assert payload["atoms"][0] == {"id": 1, "pos": "1/6"}
    assert config_from_json(payload, denom=D2) == c
    spec = single_spacer_indicator(1)
    marked = config_to_json(c, marks=(spec.group.element((1,)),) * 3)
    assert marked["atoms"][0]["mark"] == [1]
    plain = config_to_json(c, marks=("x", "y", "z"))
    assert plain["atoms"][2]["mark"] == "z"


# -- the block sampler against the gap-at-a-time loop


class ScriptedRng:
    """Hands out given Exp(1) values in order, then a value far past any bound."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def exponential(self, scale, size):
        out = [self.values[i] if i < len(self.values) else 4096.0
               for i in range(self.drawn, self.drawn + size)]
        self.drawn += size
        return np.array(out) * scale


def scripted_draw(rows):
    """``snapped_arrivals``' draw over given Exp(1) values per row, as ``ScriptedRng``."""
    return lambda at, size: np.array([ScriptedRng(rows[r]).exponential(1.0, size) for r in at])


def split_rows(arrivals, counts):
    ends = np.cumsum(counts).tolist()
    return [arrivals[a:b] for a, b in zip([0, *ends], ends)]


def loop_chains(rng, bound, chunk, sides, nonempty):
    """Consecutive loop calls on one generator, as the joining sampler made them."""
    for redraws in range(MAX_ATTEMPTS):
        chains = [loop_snapped_arrivals(rng, bound, chunk) for _ in range(sides)]
        if not nonempty or all(chains):
            return chains, redraws
    return None, None


def _assert_rows_match(draw, rngs, bound, chunk, sides=1, nonempty=False):
    chains, redraws = snapped_arrivals(draw, len(rngs), bound, chunk, sides, nonempty)
    assert len(chains) == sides
    per_row = zip(*(split_rows(numerators(cells, offs), counts) for cells, offs, counts in chains))
    for row, (got, rng) in enumerate(zip(per_row, rngs)):
        expected, expected_redraws = loop_chains(rng, bound, chunk, sides, nonempty)
        assert list(got) == expected, row
        assert redraws[row] == expected_redraws


D = SNAP_DENOM
exp_values = st.one_of(
    st.sampled_from([0.0, 1e-300, 2.0**-54, 0.25, 0.5, 1.0, 2.0, 2048.0, 1e6]),
    st.floats(0.0, 8.0),
)


@given(
    st.lists(st.lists(exp_values, max_size=40), min_size=1, max_size=4),
    st.one_of(st.integers(0, 8 * D), st.sampled_from([-1, 2**63 - 1, 2**63, 2**63 + 1, 2**70])),
    st.integers(1, 6),
    st.integers(1, 3),
)
@example([[1.0, 1.0, 1.0]], 2 * D, 3, 1)  # an arrival exactly on the bound
@example([[0.5, 0.5, 2.0, 0.5]], 2 * D, 3, 3)  # crossed on a chunk's last gap
@example([[0.5, 0.5, 0.5, 1.0, 0.5]], 2 * D, 3, 3)  # crossed on a chunk's first gap
@example([[0.0, 1e-300, 0.0, 2.0**-54, 0.0]], 4, 2, 3)  # gaps floored to one step
@example([[2048.0]], 2**63, 2, 3)  # a gap of 2**64 against the widest uint64 bound
@example([[]], 2**70, 4, 3)
# a row whose first chain needs a second chunk, beside one that needs one chunk
@example([[0.5] * 5, [3.0]], 2 * D, 3, 2)
# a row that runs past its first prefix of (sides + 2) * chunk draws and redraws
@example([[0.25] * 30, [0.5, 2.0], []], 4 * D, 2, 1)
@example([[0.25] * 30, [0.5, 2.0], []], 2**70, 2, 2)  # the same past 2**63
def test_snapped_arrivals_match_the_loop(rows, bound, chunk, sides):
    rngs = [ScriptedRng(values) for values in rows]
    _assert_rows_match(scripted_draw(rows), rngs, bound, chunk, sides)


# rows empty on some side: a redraw of all sides, again and again, or never;
# a tail of short gaps ends every row's redraws
@example([[3.0, 3.0, 0.5, 3.0, 0.5, 0.5] + [0.5] * 60], 2 * D, 1, 2)
@given(
    st.lists(
        st.lists(st.sampled_from([0.5, 3.0]), max_size=12).map(lambda v: v + [0.5] * 60),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([D, 2 * D]),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_nonempty_sides_redraw_as_the_loop_does(rows, bound, chunk, sides):
    rngs = [ScriptedRng(values) for values in rows]
    _assert_rows_match(scripted_draw(rows), rngs, bound, chunk, sides, nonempty=True)


def test_a_short_row_redraws_the_whole_block_at_twice_the_width():
    # row 0 comes up empty, and on its retry round its second side runs past
    # the first prefix of 4 draws; row 1 is settled by the first pass
    rows = [[3.0, 3.0, 0.5, 3.0] + [0.5] * 60, [0.5, 3.0, 0.5, 3.0]]
    calls = []

    def draw(at, size):
        calls.append((at.tolist(), size))
        return scripted_draw(rows)(at, size)

    rngs = [ScriptedRng(values) for values in rows]
    _assert_rows_match(draw, rngs, 2 * D, 1, sides=2, nonempty=True)
    assert calls == [([0, 1], 4), ([0, 1], 8)]
    assert [loop_chains(ScriptedRng(v), 2 * D, 1, 2, True)[1] for v in rows] == [1, 0]


def test_sides_that_stay_empty_are_refused():
    with pytest.raises(InsufficientDataError):
        snapped_arrivals(scripted_draw([[0.5]]), 1, 0, 1, sides=2, nonempty=True)


def test_a_row_gives_up_after_max_attempts():
    # at bound 1 and chunk 1 a gap of 3 is an empty side, and a gap of 1/2 then 3 fills one
    empty, filled = [3.0], [0.5, 3.0]
    last_chance = empty * (MAX_ATTEMPTS - 1) + filled
    [(cells, offs, counts)], redraws = snapped_arrivals(
        scripted_draw([filled, last_chance]), 2, D, 1, nonempty=True
    )
    assert redraws.tolist() == [0, MAX_ATTEMPTS - 1]
    assert split_rows(numerators(cells, offs), counts) == [[D // 2], [D // 2]]
    with pytest.raises(InsufficientDataError):
        snapped_arrivals(scripted_draw([empty + last_chance]), 1, D, 1, nonempty=True)


@pytest.mark.parametrize("half_width", [1, 50, 1022, 1023, 1024, 1025, 5000])
def test_snapped_arrivals_match_the_loop_on_pcg64(half_width):
    # the joining sampler's draws, and the same on streams that must redraw;
    # at half-width 5000 the uint64 sums of the gaps' 53-bit parts wrap
    streams = np.arange(4)
    rngs = [make_rng(11, stream) for stream in streams]
    draw = keyed_draw(11, streams)
    _assert_rows_match(draw, rngs, half_width * D, half_width + 8, sides=2, nonempty=True)
    rngs = [make_rng(11, stream) for stream in streams]
    _assert_rows_match(draw, rngs, half_width * D, half_width + 8, sides=5)
