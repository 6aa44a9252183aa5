"""Distributional suites: report shape, determinism, worker invariance."""

import json
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from chaconlab import joining, parallel, suites, suspension
from chaconlab.cocycle import single_spacer_indicator
from chaconlab.joining import collect_joining
from chaconlab.parallel import fan_out, merge
from chaconlab.suites import (
    FAILURE_KEYS,
    collect_poisson,
    collect_suspension,
    run_poisson_suite,
    run_suspension_suite,
)
from chaconlab.suspension import MAX_WALK_DEPTH, SNAP_DENOM, RankPermutation
from oracles import empty_first_family, four_walk_suspension, loop_collect_poisson

POISSON_TESTS = {
    "t1_exponential",
    "gaps_exponential",
    "superposition_counts",
    "moment_k1",
    "moment_k2",
    "moment_k3",
    "moment_k4",
    "moment_k5",
}


def test_poisson_suite_small_run_holds():
    rep = run_poisson_suite(n_samples=600, seed=3)
    assert rep["suite"] == "poisson"
    assert rep["samples"] == 600
    assert set(rep["tests"]) == POISSON_TESTS
    assert all(t["passed"] for t in rep["tests"].values())
    assert rep["holds"] is True
    json.dumps(rep)  # the CLI serializes this verbatim


def test_poisson_suite_deterministic():
    a = run_poisson_suite(n_samples=300, seed=11)
    b = run_poisson_suite(n_samples=300, seed=11)
    assert a == b
    c = run_poisson_suite(n_samples=300, seed=12)
    assert c["tests"]["t1_exponential"] != a["tests"]["t1_exponential"]


def test_poisson_suite_worker_count_does_not_change_report():
    a = run_poisson_suite(n_samples=400, seed=5, workers=1)
    b = run_poisson_suite(n_samples=400, seed=5, workers=3)
    assert a == b


def test_poisson_suite_counts_skipped_configs():
    # a short window leaves many configs empty or with fewer than six atoms
    rep = run_poisson_suite(n_samples=400, seed=7, window_hi=3)
    assert rep["skipped"]["empty"] > 0
    assert rep["skipped"]["too_short_for_gaps"] > rep["skipped"]["empty"]
    assert set(rep["tests"]) == POISSON_TESTS


def test_suspension_suite_small_run_holds(monkeypatch):
    monkeypatch.setattr(suites, "MIN_UNCENSORED", 40)
    rep = run_suspension_suite(n_samples=80, seed=0, k_values=(1, 2))
    assert rep["suite"] == "suspension"
    assert set(rep["per_k"]) == {"1", "2"}
    for per_k in rep["per_k"].values():
        assert per_k["uncensored"] >= 40
        assert per_k["conjugacy_failures"] == 0
        assert per_k["return_time_mismatches"] == 0
        assert per_k["phi_transport_failures"] == 0
        assert per_k["censored_fraction"] < 0.5
        assert per_k["holds"] is True
    assert rep["mark_tests"]["uniformity"]["passed"]
    assert rep["mark_tests"]["pair_independence"]["passed"]
    assert rep["holds"] is True
    json.dumps(rep)


def test_suspension_suite_deterministic_across_workers(monkeypatch):
    monkeypatch.setattr(suites, "MIN_UNCENSORED", 10)
    kwargs = dict(n_samples=60, seed=4, k_values=(1,))
    a = run_suspension_suite(workers=1, **kwargs)
    b = run_suspension_suite(workers=2, **kwargs)
    assert a == b


def test_suspension_suite_rejects_window_beyond_cover():
    with pytest.raises(ValueError):
        run_suspension_suite(n_samples=10, seed=0, window_hi=Fraction(1000))


def test_suspension_suite_floor_counts_as_failure():
    rep = run_suspension_suite(n_samples=30, seed=0, k_values=(1,))
    # default floor is 500 uncensored resolutions; 30 samples cannot reach it
    assert rep["per_k"]["1"]["holds"] is False
    assert rep["holds"] is False


def test_suspension_suite_reports_starved_mark_tests(monkeypatch):
    monkeypatch.setattr(suites, "MIN_UNCENSORED", 1)
    rep = run_suspension_suite(n_samples=6, seed=2, window_hi=Fraction(1, 2), k_values=(1,))
    marks = rep["mark_tests"]
    assert marks["uniformity"]["verdict"] == "insufficient data"
    assert marks["pair_independence"]["verdict"] == "insufficient data"
    assert rep["holds"] is False
    json.dumps(rep)


@pytest.mark.parametrize("n_max", range(1, 7))
def test_suspension_window_bound_is_the_tower_mass(get_system, n_max):
    # the suite reads the bound off the heights; the built tower must agree
    system = get_system(n_max)
    high_water = Fraction(system.high_water, system.denom)
    with pytest.raises(ValueError, match=re.escape(f"[0, {high_water})")):
        run_suspension_suite(n_samples=1, n_max=n_max, window_hi=high_water + Fraction(1, 10**9))
    rep = run_suspension_suite(
        n_samples=1, n_max=n_max, p_max=1, window_hi=high_water, k_values=(0,)
    )
    assert rep["window"] == [0, str(high_water)]


def test_suspension_suite_rejects_non_integer_depth():
    with pytest.raises(ValueError):
        run_suspension_suite(n_samples=1, n_max="7")


# n_max, p_max, window, mark_steps: between them every censor reason shows,
# mark walks are censored, and p_max falls below mark_steps
ORACLE_SETTINGS = [
    (3, 2, Fraction(1, 2), 3),
    (3, 10, Fraction(5), 3),
    (2, 2, Fraction(2), 3),
    (3, 4, Fraction(3), 0),
    (4, 30, Fraction(4), 5),
]


@pytest.mark.parametrize("n_max, p_max, window, mark_steps", ORACLE_SETTINGS)
def test_one_walk_matches_four_walk_oracle(n_max, p_max, window, mark_steps):
    args = (7, n_max, p_max, window, (0, 1, 2, 3), single_spacer_indicator(1), mark_steps)
    check_against_oracle(args)


@pytest.mark.parametrize("p_max, mark_steps", [(10, 3), (2, 6)])
def test_a_walk_without_returns_counts_as_mismatches(monkeypatch, p_max, mark_steps):
    # a broken conjugacy: route A returns but no prefix ever comes back.
    # Every route-A return is then a mismatch, and the censor reasons are
    # route A's alone, as in an unbroken run
    args = (7, 3, p_max, Fraction(5), (1, 2), single_spacer_indicator(1), mark_steps)
    healthy = collect_suspension(0, 60, *args)
    monkeypatch.setattr(RankPermutation, "fixes_prefix", lambda self, k: False)
    monkeypatch.setattr(suspension, "fixed_prefixes", lambda keys: np.zeros(keys.shape, bool))
    got = check_against_oracle(args)
    for k, tally in got["per_k"].items():
        assert tally["censored"] == healthy["per_k"][k]["censored"]
        assert tally["uncensored"] == healthy["per_k"][k]["uncensored"]
        assert tally["return_time_mismatches"] == tally["uncensored"] > 0
    if mark_steps > p_max:
        assert got["mark_censored"] > 0  # some walks did run out of depth past p_max


def test_lost_walk_returns_fail_the_suite(monkeypatch):
    # the walk drops the returns of one sample in five; route A still
    # returns there, so the suite must report mismatches and fail
    real_walk = suites.walk_orbits

    def lossy_walk(*args):
        returns, marks, reached = real_walk(*args)
        return [{} if i % 5 == 0 else r for i, r in enumerate(returns)], marks, reached

    monkeypatch.setattr(suites, "walk_orbits", lossy_walk)
    rep = run_suspension_suite(n_samples=1200, k_values=(1, 2))
    assert rep["holds"] is False
    for per_k in rep["per_k"].values():
        assert per_k["return_time_mismatches"] > 0
        assert per_k["holds"] is False


def check_against_oracle(args):
    got = collect_suspension(0, 60, *args)
    want = four_walk_suspension(0, 60, *args)
    assert got["per_k"] == want["per_k"]
    assert got["mark_counts"].tolist() == want["mark_counts"]
    assert got["mark_pairs"].tolist() == want["mark_pairs"]
    assert got["mark_censored"] == want["mark_censored"]
    return got


def test_oracle_settings_force_every_censor_reason():
    reasons, mark_censored = set(), 0
    for n_max, p_max, window, mark_steps in ORACLE_SETTINGS:
        rep = collect_suspension(
            0, 60, 7, n_max, p_max, window, (0, 1, 2, 3),
            single_spacer_indicator(1), mark_steps,
        )
        for tally in rep["per_k"].values():
            reasons.update(tally["censored"])
        mark_censored += rep["mark_censored"]
    assert reasons == {"TooFewAtoms", "DepthExceeded", "PMaxExceeded"}
    assert mark_censored > 0


# window 1100 puts the bound past 2**63 lattice units, and at window 5000 the
# sampler's uint64 sums of the gaps' 53-bit parts wrap
@pytest.mark.parametrize(
    "window, start, stop",
    [pytest.param(window, start, stop, id=f"{start}-{stop}-{window}")
     for window in (1, 6, 30, 1100) for start, stop in ((11, 12), (0, 64), (70, 200))]
    + [pytest.param(5000, 11, 12, id="11-12-5000")],
)
def test_collect_poisson_matches_the_loop_oracle(window, start, stop):
    got = collect_poisson(start, stop, 5, window, 10)
    assert got == loop_collect_poisson(start, stop, 5, window, 10)


def scripted_windows(blocks):
    """A ``sample_windows`` stand-in: the given (numerators, counts) per number of streams."""

    def sample(hi, seed, streams):
        positions, counts = map(np.array, blocks[len(streams)])
        return positions // SNAP_DENOM, positions % SNAP_DENOM, counts

    return sample


def test_collect_poisson_refuses_a_shared_position_in_a_pair(monkeypatch):
    # one sample: its window holds one atom, its pair (5, 9) and (5) shares 5
    monkeypatch.setattr(suites, "sample_windows", scripted_windows(
        {1: ([3], [1]), 2: ([5, 9, 5], [2, 1])}
    ))
    with pytest.raises(AssertionError, match="collision"):
        collect_poisson(0, 1, 0, 30, 10)


def test_collect_poisson_allows_a_position_shared_across_pairs(monkeypatch):
    # two samples whose pairs are (5), (7) and (7), (5): no pair shares a position
    monkeypatch.setattr(suites, "sample_windows", scripted_windows(
        {2: ([3, 4], [1, 1]), 4: ([5, 7, 7, 5], [1, 1, 1, 1])}
    ))
    assert collect_poisson(0, 2, 0, 30, 10)["sup_counts"] == [2, 2]


def test_wide_blocks_and_the_deepest_walk_hold_no_object_arrays():
    # at window 1100 the bound passes 2**63 lattice units, and at depth 25 the
    # height times the atom count does; every array that a chaconlab function
    # holds or returns on the way is still fixed-width
    dtypes = set()

    def watch(frame, event, arg):
        if event == "return" and frame.f_globals["__name__"].startswith("chaconlab."):
            for value in [arg, *frame.f_locals.values()]:
                for item in value if isinstance(value, (list, tuple)) else [value]:
                    if isinstance(item, np.ndarray):
                        dtypes.add(item.dtype)

    sys.setprofile(watch)
    try:
        collect_poisson(0, 2, 5, 1100, 10)
        collect_joining(0, 2, 1100, 5, 2)
        collect_suspension(
            0, 2, 5, MAX_WALK_DEPTH, 300, Fraction(4), (1, 2), single_spacer_indicator(1), 3
        )
    finally:
        sys.setprofile(None)
    assert np.dtype(np.int64) in dtypes and np.dtype(object) not in dtypes


def test_collect_poisson_tells_positions_apart_by_cell_and_offset(monkeypatch):
    # one sample whose pair (5, D + 7) and (7, D + 5) shares cells and offsets, not positions
    D = SNAP_DENOM
    monkeypatch.setattr(suites, "sample_windows", scripted_windows(
        {1: ([3], [1]), 2: ([5, D + 7, 7, D + 5], [2, 2])}
    ))
    assert collect_poisson(0, 1, 0, 30, 10)["sup_counts"] == [4]


def test_fan_out_merge_rule():
    a = {"n": 1, "xs": [1], "arr": np.array([1, 2]), "d": {"x": 1}}
    b = {"n": 2, "xs": [2, 3], "arr": np.array([3, 4]), "d": {"x": 1, "y": 5}}
    got = merge(a, b)
    assert got["n"] == 3 and got["xs"] == [1, 2, 3]
    assert got["arr"].tolist() == [4, 6]
    assert got["d"] == {"x": 2, "y": 5}
    assert a["d"] == {"x": 1}  # inputs are left alone


def _plain(tally):
    """A tally with arrays as lists and every dict (Counters too) a plain dict."""
    if isinstance(tally, dict):
        return {key: _plain(value) for key, value in tally.items()}
    return tally.tolist() if isinstance(tally, np.ndarray) else tally


@pytest.mark.parametrize(
    "collect, args, empty_first",
    [
        (collect_poisson, (4, 30, 10), False),
        (collect_suspension,
         (7, 3, 10, Fraction(5), (0, 1, 2, 3), single_spacer_indicator(1), 3), False),
        (collect_joining, (5, 3, 3), False),
        (collect_joining, (5, 3, 2), True),
    ],
    ids=["poisson", "suspension", "joining", "joining-empty-first"],
)
def test_tallies_do_not_depend_on_the_block_size(monkeypatch, collect, args, empty_first):
    # 130 samples as one collect call, and through fan_out in blocks of 1,
    # 5 and 64 (64 + 64 + 2) on one and two workers: the tallies must agree
    if empty_first:  # forked workers inherit the patch
        monkeypatch.setattr(joining, "sample_family", empty_first_family(joining.sample_family))
    whole = _plain(collect(0, 130, *args))
    assert not empty_first or whole["copied"] == 0
    for block in (1, 5, 64):
        monkeypatch.setattr(parallel, "BLOCK", block)
        for workers in (1, 2):
            assert _plain(fan_out(collect, 130, workers, *args)) == whole, (block, workers)


def test_fan_out_refuses_an_empty_range():
    with pytest.raises(ValueError, match="n_samples"):
        fan_out(collect_poisson, 0, 1, 4, 30, 10)


def late(m_steps, positions, sums):
    return m_steps + 1, positions, sums


def moved(m_steps, positions, sums):
    return m_steps, positions + (0,), sums


def shifted(m_steps, positions, sums):
    return m_steps, positions, tuple(tuple(c + 1 for c in x) for x in sums)


@pytest.mark.parametrize(
    "corrupt, key",
    [(late, "return_time_mismatches"),
     (moved, "conjugacy_failures"),
     (shifted, "phi_transport_failures")],
)
def test_each_exact_check_can_fail(monkeypatch, corrupt, key):
    # corrupt route A's return time, its configuration or its cocycle sums;
    # each corruption reaches exactly one check
    real_return = suites.induced_return

    def corrupted_return(*args):
        returns, reason = real_return(*args)
        return {k: corrupt(*r) for k, r in returns.items()}, reason

    monkeypatch.setattr(suites, "induced_return", corrupted_return)
    rep = collect_suspension(
        0, 40, 7, 3, 10, Fraction(5), (1,), single_spacer_indicator(1), 3
    )
    assert rep["per_k"][1]["uncensored"] > 0
    for other in FAILURE_KEYS:
        assert (rep["per_k"][1][other] > 0) == (other == key), other
