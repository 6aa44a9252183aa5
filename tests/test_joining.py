"""Two-sided configurations, the shift cocycle, and the coupled-marks joining."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import chaconlab.joining as joining
from chaconlab.joining import (
    Family,
    _sample_biconfig_counted,
    advance_family,
    advance_joint,
    collect_joining,
    couple_block,
    couple_marks,
    marks_differ,
    rank_tracking_consistent,
    rank_tracking_failures,
    sample_family,
    shift_cocycles,
    transport,
    verify_joining,
)
from chaconlab.suspension import SNAP_DENOM
from oracles import (
    TupleBiConfig,
    empty_first_family,
    dict_advance_joint,
    dict_collect_joining,
    dict_couple_marks,
    dict_sample_parts,
    joining_dicts,
    tuple_advance_biconfig,
    tuple_rank_tracking_consistent,
    tuple_sample_biconfig,
    tuple_shift_cocycle,
)

D = SNAP_DENOM


def _family(half_width, positions, ids):
    """One configuration from numerators in any order and ids, cut to the atom count."""
    positions = sorted(positions)
    return Family.build(
        half_width,
        np.array([p // D for p in positions], dtype=np.int64),
        np.array([p % D for p in positions], dtype=np.int64),
        np.array(ids[: len(positions)], dtype=np.int64),
        [len(positions)],
        [sum(1 for p in positions if p < 0)],
    )


def _config(half_width, positions):
    # positions given as Fractions/ints; snapped numerators must be exact
    nums = []
    for p in positions:
        f = Fraction(p) * D
        assert f.denominator == 1
        nums.append(f.numerator)
    return _family(half_width, nums, list(range(1, len(nums) + 1)))


def _stack(families):
    """One family holding the configurations of one-configuration families, in order."""
    return Family.build(
        families[0].half_width,
        np.concatenate([f.cell for f in families]),
        np.concatenate([f.off for f in families]),
        np.concatenate([f.ids for f in families]),
        [f.ids.size for f in families],
        [int(f.neg[0]) for f in families],
    )


def _numerators(family):
    """Every flat slot's position over 2**53, read back as a Python int."""
    return [c * D + o for c, o in zip(family.cell.tolist(), family.off.tolist())]


def _sample(half_width, seed, stream):
    return _sample_biconfig_counted(half_width, seed, stream)[0]


def test_indexing_convention():
    # the atom in flat slot s carries index s - base[owner[s]]: indices <= 0
    # left of the origin, and index 1 for the first atom at or right of it
    family = _stack([
        _config(3, [Fraction(-5, 2), Fraction(-1, 2), Fraction(1, 4), 2]),
        _config(3, [Fraction(1, 2)]),
        _config(3, [-3, -1, Fraction(-1, 4), 0]),
    ])
    index = np.arange(family.ids.size) - family.base[family.owner]
    assert index.tolist() == [-1, 0, 1, 2, 1, -2, -1, 0, 1]
    owner, pos = family.owner.tolist(), _numerators(family)
    at = {(o, n): Fraction(p, D) for o, n, p in zip(owner, index.tolist(), pos)}
    assert at[0, -1] == Fraction(-5, 2) and at[0, 2] == 2
    assert at[0, 0] < 0 <= at[0, 1]
    assert (1, 0) not in at and at[1, 1] == Fraction(1, 2)
    assert at[2, 0] < 0 <= at[2, 1] == 0
    # the oracle's rule, slot - neg_count + 1, gives the same ranges
    assert [TupleBiConfig.of(family, j).indices() for j in range(3)] == [
        range(-1, 3), range(1, 2), range(-2, 2)]


def test_sampling_determinism_and_split():
    a = TupleBiConfig.of(_sample(10, seed=5, stream=3))
    assert a == TupleBiConfig.of(_sample(10, seed=5, stream=3))
    assert TupleBiConfig.of(_sample(10, seed=5, stream=4)) != a
    assert TupleBiConfig.of(_sample(10, seed=6, stream=3)) != a
    assert a.pos_num(0) < 0 <= a.pos_num(1)
    assert all(-10 * D <= a.pos_num(n) < 10 * D for n in a.indices())


def test_sampling_mean_count():
    # count over [-W, W) has mean 2W; average 200 draws, allow 4 sigma
    W, reps = 15, 200
    total = sample_family(W, 77, np.arange(reps))[0].ids.size
    mean = total / reps
    se = (2 * W / reps) ** 0.5
    assert abs(mean - 2 * W) < 4 * se


def test_shift_cocycle_hand_cases():
    family = _stack([
        _config(2, [Fraction(-3, 2), Fraction(1, 2)]),
        _config(2, [Fraction(-1, 2), Fraction(1, 4)]),
        _config(2, [-1, Fraction(-1, 2), Fraction(-1, 4)]),
        _config(2, []),
    ])
    assert shift_cocycles(family).tolist() == [0, 1, 3, 0]


def test_advance_drops_right_edge():
    c = _config(2, [Fraction(-1, 2), Fraction(3, 2)])
    adv, kept = advance_family(c)
    assert c.ids[~kept].tolist() == [2]
    assert _numerators(adv) == [D // 2] and adv.neg.tolist() == [0]


def test_rank_tracking_random():
    for i in range(200):
        assert rank_tracking_consistent(_sample(6, seed=901, stream=i))


def test_couple_empty_first_family_all_fresh():
    w2 = _sample(8, seed=13, stream=0)
    w1 = _family(8, [], [])
    s = couple_marks(w1, w2, 3, seed=13)
    marks1, marks2, provenance2, _ = joining_dicts(s, w1, w2)
    assert marks1 == {}
    assert all(v == ("fresh",) for v in provenance2.values())
    o2 = TupleBiConfig.of(w2)
    assert set(marks2) == set(range(o2.min_index, o2.max_index))


def test_couple_coincident_configurations_copy_in_place():
    w2 = _sample(8, seed=21, stream=1)
    w1 = replace(w2, ids=w2.ids + 100)
    s = couple_marks(w1, w2, 4, seed=21)
    marks1, marks2, provenance2, _ = joining_dicts(s, w1, w2)
    assert marks2
    for n in marks2:
        assert provenance2[n] == ("copied", n)
        assert marks2[n] == marks1[n]


def test_provenance_invariant():
    for i in range(50):
        w1 = _sample(6, seed=31, stream=2 * i)
        w2 = _sample(6, seed=31, stream=2 * i + 1)
        s = couple_marks(w1, w2, 2, seed=31, sample_idx=i)
        marks1, marks2, provenance2, excluded = joining_dicts(s, w1, w2)
        o1, o2 = TupleBiConfig.of(w1), TupleBiConfig.of(w2)
        assert set(marks2) | set(excluded) == set(o2.indices())
        assert excluded == (o2.max_index,)
        for n, prov in provenance2.items():
            lo, hi = o2.pos_num(n), o2.pos_num(n + 1)
            if prov[0] == "copied":
                src = prov[1]
                assert marks2[n] == marks1[src]
                assert lo <= o1.pos_num(src) < hi
                # lowest such atom
                assert src == o1.min_index or not lo <= o1.pos_num(src - 1) < hi
            else:
                # no first-family atom in the interval at all
                assert not any(lo <= o1.pos_num(m) < hi for m in o1.indices())


def test_advance_equivariance_and_flow():
    for i in range(60):
        w1 = _sample(5, seed=47, stream=2 * i)
        w2 = _sample(5, seed=47, stream=2 * i + 1)
        s = couple_marks(w1, w2, 2, seed=47, sample_idx=i)
        # flow property: one and two single steps equal coupling the advanced pair
        for _ in range(2):
            w1, w2, s = advance_joint(w1, w2, s)
            recoupled = couple_marks(w1, w2, 2, seed=47, sample_idx=i)
            assert not marks_differ(s, recoupled, 1)[0]


def test_advance_index_algebra():
    w1 = _sample(6, seed=3, stream=0)
    w2 = _sample(6, seed=3, stream=1)
    s = couple_marks(w1, w2, 2, seed=3)
    c2 = shift_cocycles(w2)[0]
    adv1, adv2, adv = advance_joint(w1, w2, s)
    before, after = joining_dicts(s, w1, w2)[1], joining_dicts(adv, adv1, adv2)[1]
    assert after
    for n, v in after.items():
        assert before[n - c2] == v


def copied_fraction_theory(W: float) -> float:
    # pooled over complete gaps in [-W, W): a gap of length l fits with
    # weight (2W - l), and hits an independent unit-Poisson atom with
    # probability 1 - e^-l, hence
    #   E[sum hits] = W - 3/4 + e^-2W - e^-4W/4,  E[count] = 2W - 1 + e^-2W
    import math

    num = W - 0.75 + math.exp(-2 * W) - math.exp(-4 * W) / 4
    den = 2 * W - 1 + math.exp(-2 * W)
    return num / den


def test_verify_joining_small_run():
    rep = verify_joining(n_samples=250, half_width=12, seed=101)
    assert rep["holds"] is True
    assert rep["exact"]["rank_tracking_failures"] == 0
    assert rep["exact"]["equivariance_failures"] == 0
    assert rep["marginal2"]["chi2_gof"]["passed"] is True
    assert rep["marginal2"]["pairwise_independence"]["passed"] is True
    assert rep["dependence"]["passed"] is True
    assert rep["dependence"]["p_value"] < 1e-6
    frac = rep["copied_fraction"]
    se = (frac["value"] * (1 - frac["value"]) / frac["decided"]) ** 0.5
    assert abs(frac["value"] - copied_fraction_theory(12)) < 4 * se
    assert rep["excluded_indices"] == 250  # exactly the top index per sample


def test_verify_joining_deterministic_and_worker_invariant():
    a = verify_joining(n_samples=60, half_width=8, seed=55)
    b = verify_joining(n_samples=60, half_width=8, seed=55)
    assert a == b
    c = verify_joining(n_samples=60, half_width=8, seed=55, workers=2)
    assert a == c


def test_verify_joining_degenerate_first_family(monkeypatch):
    # no mark can be copied, so the designed rejection has no data
    monkeypatch.setattr(joining, "sample_family", empty_first_family(sample_family))
    rep = verify_joining(n_samples=40, half_width=8, seed=9)
    assert rep["holds"] is False
    assert rep["dependence"]["verdict"] == "cannot_reject"
    assert rep["copied_fraction"]["value"] == 0.0


def test_resample_tally_reported():
    # tiny window: empty sides happen often and must be counted, not hidden
    rep = verify_joining(n_samples=30, half_width=1, seed=17)
    # sample i draws its families on streams 2i and 2i + 1
    expected = sum(tuple_sample_biconfig(1, 17, stream)[1] for stream in range(60))
    assert expected > 0
    assert rep["degenerate_resamples"] == expected


# -- the array path against the tuple/dict oracle, on identical pairs

alphabets = st.integers(1, 9)
# every window up to 12, and both sides of the int64 position limit
half_widths = st.one_of(st.integers(1, 12), st.sampled_from([1022, 1023]))


@st.composite
def family_pairs(draw, widths=half_widths):
    """Two configurations on one window, often sharing positions.

    Positions come from a quarter-unit grid, from the edges the shift
    and the coupling compare against, from the other family, or from
    anywhere on the lattice; ids are any distinct int64.
    """
    W = draw(widths)
    bound = W * D
    edges = [-bound, -D - 1, -D, -1, 0, 1, bound - D - 1, bound - D, bound - 1]
    points = st.one_of(
        st.integers(-4 * W, 4 * W - 1).map(lambda q: q * D // 4),
        st.sampled_from([e for e in edges if -bound <= e < bound]),
        st.integers(-bound, bound - 1),
    )
    p2 = draw(st.lists(points, max_size=24, unique=True))
    shared = st.sampled_from(p2) if p2 else points
    empty_first = draw(st.booleans()) and draw(st.booleans())
    p1 = [] if empty_first else draw(
        st.lists(st.one_of(points, shared), max_size=24, unique=True)
    )
    ids = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=48, max_size=48, unique=True)
    return _family(W, p1, draw(ids)), _family(W, p2, draw(ids))


def _agrees_with_the_oracle(w1, w2, s, o, alphabet, seed, sample_idx):
    assert (TupleBiConfig.of(w1), TupleBiConfig.of(w2)) == (o.omega1, o.omega2)
    assert joining_dicts(s, w1, w2) == dict_sample_parts(o)
    assert not marks_differ(s, couple_marks(w1, w2, alphabet, seed, sample_idx), 1)[0]
    assert rank_tracking_consistent(w1) and rank_tracking_consistent(w2)


@given(family_pairs(), alphabets, st.integers(0, 2**64 - 1), st.integers(0, 10**6))
@example(
    (_family(1, [-D, -1, 0], [7, 8, 9]), _family(1, [-D, -D // 2, 0, D // 2], [1, 2, 3, 4])),
    2, 2**63, 0,
)
@example(
    (_family(1023, [], []), _family(1023, [-1023 * D, -1, 0, 1022 * D], [1, 2, 3, 4])),
    3, 5, 9,
)
def test_array_path_matches_the_oracle(pair, alphabet, seed, sample_idx):
    # the single-pair entry points on a block of one
    w1, w2 = pair
    o1, o2 = TupleBiConfig.of(w1), TupleBiConfig.of(w2)
    assert {w.cell.dtype for w in pair} == {w.off.dtype for w in pair} == {np.dtype(np.int64)}
    for w, o in ((w1, o1), (w2, o2)):
        assert shift_cocycles(w).tolist() == [tuple_shift_cocycle(o)]
        adv, kept = advance_family(w)
        adv_o, exited_o = tuple_advance_biconfig(o)
        assert TupleBiConfig.of(adv) == adv_o and tuple(w.ids[~kept].tolist()) == exited_o
        assert rank_tracking_consistent(w) is tuple_rank_tracking_consistent(o) is True

    # coupling, then three advances, each compared with the oracle's
    s = couple_marks(w1, w2, alphabet, seed, sample_idx)
    o = dict_couple_marks(o1, o2, alphabet, seed, sample_idx)
    _agrees_with_the_oracle(w1, w2, s, o, alphabet, seed, sample_idx)
    for _ in range(3):
        w1, w2, s = advance_joint(w1, w2, s)
        o = dict_advance_joint(o)
        _agrees_with_the_oracle(w1, w2, s, o, alphabet, seed, sample_idx)


@st.composite
def pair_blocks(draw):
    """Two to four pairs on one window, as one block of the joining kernel."""
    W = draw(half_widths)
    return draw(st.lists(family_pairs(st.just(W)), min_size=2, max_size=4))


def _edge_pair(W, p1, p2, ids1=None):
    ids1 = ids1 or [100 + i for i in range(len(p1))]
    return _family(W, p1, ids1), _family(W, p2, list(range(1, len(p2) + 1)))


def _wide_block(W):
    top = (W - 1) * D
    return [
        _edge_pair(W, [-W * D, -D, 0, top], [-W * D, -D, -1, 0, top, W * D - 1]),
        _edge_pair(W, [], [-W * D, -1, 0, top]),
    ]


# the fixed blocks below mix pairs that share positions (ties at both ends
# of an interval), atoms at -W, 0 and W - 1 (the successor bound and the
# window edge) and empty first families
_EDGES = [-D, -D // 2, -1, 0, D // 2]


@given(pair_blocks(), alphabets, st.integers(0, 2**64 - 1), st.integers(0, 10**6))
@example(
    [_edge_pair(3, [-3 * D, -D, 0, 2 * D], [-3 * D, -D, -1, 0, D, 2 * D, 3 * D - 1]),
     _edge_pair(3, [], [-3 * D, -D // 2, 0, 2 * D]),
     _edge_pair(3, [-D, -1, D, 2 * D, 3 * D - 1], [-3 * D, -D, 0, 2 * D, 3 * D - 1])],
    9, 7, 5,
)
@example(
    [_edge_pair(1, [-D, -1, 0], _EDGES), _edge_pair(1, [], [-D, 0]),
     _edge_pair(1, [-D // 2, 0, D - 1], [-D, -D // 2, 0, D - 1])],
    2, 2**63, 0,
)
# five first-family atoms in one (sample, cell) unit, below, at, between and
# above t(n) and t(n + 1) there; atoms in cells -W and W - 1; and a last
# sample whose first family is empty
@example(
    [_edge_pair(3, [-3 * D, D // 8, D // 4, 3 * D // 8, D // 2, 5 * D // 8, 2 * D + 5],
                [-3 * D + 7, -1, D // 4, D // 2, 2 * D, 3 * D - 1]),
     _edge_pair(3, [-3 * D + 1, -D, 2 * D], [-3 * D, 0, 2 * D + 9]),
     _edge_pair(3, [], [-3 * D, -D // 2, 0, 3 * D - 1])],
    2, 11, 7,
)
@example(_wide_block(1022), 9, 3, 64)
@example(_wide_block(1023), 3, 5, 63)
def test_block_kernel_matches_the_oracle(block, alphabet, seed, first_sample):
    # several pairs per block, each against the dict oracle on its own
    n = len(block)
    samples = np.arange(first_sample, first_sample + n)
    family1, family2 = _stack([w1 for w1, _ in block]), _stack([w2 for _, w2 in block])
    marks = couple_block(family1, family2, alphabet, seed, samples)
    c1, c2 = shift_cocycles(family1), shift_cocycles(family2)
    advanced1, kept1 = advance_family(family1)
    advanced2, kept2 = advance_family(family2)
    assert not rank_tracking_failures(family1, c1, advanced1, kept1).any()
    assert not rank_tracking_failures(family2, c2, advanced2, kept2).any()
    moved = transport(marks, family1, family2, c1)
    recoupled = couple_block(advanced1, advanced2, alphabet, seed, samples)
    assert not marks_differ(moved, recoupled, n).any()
    for j, (w1, w2) in enumerate(block):
        o1, o2 = TupleBiConfig.of(w1), TupleBiConfig.of(w2)
        assert (c1[j], c2[j]) == (tuple_shift_cocycle(o1), tuple_shift_cocycle(o2))
        adv1, adv2 = tuple_advance_biconfig(o1)[0], tuple_advance_biconfig(o2)[0]
        assert TupleBiConfig.of(advanced1, j) == adv1
        assert TupleBiConfig.of(advanced2, j) == adv2
        o = dict_couple_marks(o1, o2, alphabet, seed, int(samples[j]))
        assert joining_dicts(marks, family1, family2, j) == dict_sample_parts(o)
        moved_j = joining_dicts(moved, advanced1, advanced2, j)
        assert moved_j == dict_sample_parts(dict_advance_joint(o))
        again = dict_couple_marks(adv1, adv2, alphabet, seed, int(samples[j]))
        assert joining_dicts(recoupled, advanced1, advanced2, j) == dict_sample_parts(again)


def test_marks_differ_names_the_sample():
    family1, _ = sample_family(6, 2, 2 * np.arange(3))
    family2, _ = sample_family(6, 2, 2 * np.arange(3) + 1)
    marks = couple_block(family1, family2, 3, 2, np.arange(3))
    assert not marks_differ(marks, marks, 3).any()
    # one slot of sample 1 changed in each field, the top slot for decided
    top = family2.offsets[2] - 1
    for field, slot in [("marks1", family1.offsets[1]), ("decided", top),
                        ("marks2", family2.offsets[1]), ("copied2", family2.offsets[1]),
                        ("source2", family2.offsets[1])]:
        values = getattr(marks, field).copy()
        values[slot] = ~values[slot] if values.dtype == bool else values[slot] + 1
        changed = replace(marks, **{field: values})
        assert marks_differ(marks, changed, 3).tolist() == [False, True, False]
    # a sample with one slot fewer on either side differs; the samples after it still line up
    second = ["decided", "marks2", "copied2", "source2", "owner2"]
    for names, slot in [(["marks1", "owner1"], family1.offsets[1]), (second, family2.offsets[1])]:
        fewer = replace(marks, **{name: np.delete(getattr(marks, name), slot) for name in names})
        assert marks_differ(marks, fewer, 3).tolist() == [False, True, False]


@pytest.mark.parametrize("half_width", [1, 50, 1022, 1023, 1025])
def test_sample_family_matches_the_loop_sampler(half_width):
    # at half-width 1 stream 4 resamples six times before both sides have atoms
    streams = np.array([4, 0, 9, *range(10, 18)])
    family, retries = sample_family(half_width, 3, streams)
    expected = [tuple_sample_biconfig(half_width, 3, s) for s in streams.tolist()]
    singles = [_sample_biconfig_counted(half_width, 3, s) for s in streams.tolist()]
    assert retries == sum(r for _, r in expected)
    for j, ((oracle, r), (single, r_single)) in enumerate(zip(expected, singles)):
        assert TupleBiConfig.of(family, j) == oracle == TupleBiConfig.of(single)
        assert r_single == r


@pytest.mark.parametrize(
    "half_width, n_samples, alphabet, empty_first",
    [
        (1, 40, 2, False),
        (1, 70, 3, False),  # longer than parallel.BLOCK, in one call
        (5, 30, 3, False),
        (5, 30, 5, True),
        (12, 20, 9, False),
        (12, 20, 2, True),
        (1022, 1, 2, False),
        (1022, 2, 3, True),
        (1023, 1, 3, False),
        (1023, 2, 2, True),
    ],
)
def test_collect_joining_matches_the_oracle(
    monkeypatch, half_width, n_samples, alphabet, empty_first
):
    if empty_first:
        monkeypatch.setattr(joining, "sample_family", empty_first_family(sample_family))
    args = (3, 3 + n_samples, half_width, 61, alphabet)
    got, expected = collect_joining(*args), dict_collect_joining(*args, empty_first)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert np.array_equal(got[key], value), key
    assert got["decided"] > 0
    assert (got["copied"] == 0) is empty_first


@pytest.mark.parametrize("half_width", [1022, 1023, 5000])
def test_cells_hold_the_window_edges_exactly(half_width):
    # 1022 is the widest window whose numerators, shifted by one, fit int64;
    # in cells and offsets the edges read back and shift exactly at every width
    top = half_width * D - 1
    c = _family(half_width, [-half_width * D, -D, top], [1, 2, 3])
    assert c.cell.dtype == c.off.dtype == np.int64
    assert c.cell.tolist() == [-half_width, -1, half_width - 1] and c.off[2] == D - 1
    assert TupleBiConfig.of(c).pos_nums == (-half_width * D, -D, top)
    adv, kept = advance_family(c)
    assert c.ids[~kept].tolist() == [3]
    assert TupleBiConfig.of(adv).pos_nums == ((1 - half_width) * D, 0)


def test_exact_counters_count_failures(monkeypatch):
    # with no climb under the shift, both exact checks must report failures
    monkeypatch.setattr(joining, "shift_cocycles", lambda family: np.zeros(family.n, dtype=int))
    tally = collect_joining(0, 20, 5, 3, 2)
    assert tally["rank_failures"] > 0
    assert tally["equivariance_failures"] > 0


def test_transport_keeping_other_slots_counts_equivariance_failures(monkeypatch):
    # transport keeping the atoms of [W - 1, W), which leave under the shift:
    # those samples hold more slots than the recoupled pair and count as
    # failures, where the run once stopped on marks held on different slots
    real = joining.transport

    def wider(marks, family1, family2, c1):
        wide1 = replace(family1, half_width=family1.half_width + 1)
        return real(marks, wide1, replace(family2, half_width=family2.half_width + 1), c1)

    assert collect_joining(0, 20, 5, 3, 2)["equivariance_failures"] == 0
    monkeypatch.setattr(joining, "transport", wider)
    tally = collect_joining(0, 20, 5, 3, 2)
    assert 0 < tally["equivariance_failures"] <= 20
    assert tally["rank_failures"] == 0
