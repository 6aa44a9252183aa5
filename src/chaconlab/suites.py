"""Monte-Carlo verification suites over the sampler and the suspension.

Each suite is a pure function of its configuration: per-sample randomness
is keyed by (seed, sample index), samples fan out across workers as
contiguous ranges, each range is tallied in blocks of ``parallel.BLOCK``
samples, and ``fan_out`` merges the partial results in range order by one
rule (dicts key by key, all else with ``+``), so reports are identical
for any worker count and any block size.  Each ``collect_*`` function
tallies the one block ``[start, stop)`` it is given, which
``sample_windows`` draws as flat positions and per-sample counts.

The ``poisson`` suite checks the sampler's law on its window.  A rate-1
Poisson process on [0, W) is exactly two facts: a Poisson(W) count, and
positions i.i.d. uniform given that count (J. F. C. Kingman, *Poisson
Processes*, 1993).  So ``window_counts`` tests each window's count against
Poisson(W), ``uniform_given_count`` tests every position, pooled over
windows, against the uniform law on ``UNIFORM_CELLS`` equal cells of
[0, W), and ``superposition_counts`` tests that superposed pairs of
windows [0, ``SUP_HI``) have Poisson(2·``SUP_HI``) counts.  All three are
exact at every width.  ``UNIFORM_CELLS`` is a module constant, not an
option.

The ``suspension`` suite checks the induced-map conjugacy exactly, sample
by sample: splitting off the k lowest atoms, advancing by the induced
first-return map, and recombining must equal advancing the whole
configuration by its rank-prefix return time — and the two return times
must agree.  Accumulated group marks are checked against the k-vector of
cocycle sums, and mark uniformity is tested statistically.  Route A
(split, induced return, cocycle sums) is one scalar pass per sample for
every k (``suspension.induced_return``) on that sample's slice of the
flat positions.  Route B and the marks come from one walk of the flat
block in tower coordinates (``suspension.walk_orbits``), a separate
computation, with start marks drawn as one flat array.  Route A alone
decides censoring: samples whose orbits outrun the truncation depth or
the step budget there are censored and reported, never silently dropped,
and a return the walk misses is a return-time mismatch.  A k holds only
with at least ``MIN_UNCENSORED`` = 500 uncensored samples, so
a run of fewer than 500 samples always reports ``holds: false`` and
``verify`` exits 1 even when no check failed (3 when censoring reached
``CENSOR_THRESHOLD``).  ``MIN_UNCENSORED`` is a module constant, not an
option: no command sets it.

Every statistical check result is the dict ``stats`` returns, and the
reports hold it as it is.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import add

import numpy as np

from .chacon import SNAP_DENOM, build_system
from .cocycle import CocycleSpec, single_spacer_indicator
from .errors import InsufficientDataError, TooFewAtomsError
from .parallel import fan_out
from .ratio import ceil_lattice
from .stats import (
    KeyedStream,
    chi2_gof,
    chi2_independence,
    chi2_poisson,
    keyed_symbols,
)
from .suspension import (
    TowerCoords,
    atom_ranks,
    induced_return,
    sample_windows,
    walk_orbits,
)

UNIFORM_CELLS = 20  # equal cells of [0, W) in the uniform_given_count test
SUP_HI = 10  # superposed pairs are drawn on [0, SUP_HI)
MARK_STEPS = 3  # skew steps before the suspension suite reads the marks
# a k whose censored fraction reaches this fails, and the CLI exits 3
CENSOR_THRESHOLD = 0.5
# a k with fewer uncensored samples than this fails
MIN_UNCENSORED = 500
FAILURE_KEYS = ("conjugacy_failures", "return_time_mismatches", "phi_transport_failures")


def collect_poisson(start: int, stop: int, seed: int, window_hi: int, sup_hi: int) -> dict:
    """Window counts, uniform cell counts and pair counts, three streams per sample.

    The samples' windows come from one ``sample_windows`` call and their
    superposed pairs from another; each tally is one array pass.
    """
    samples = np.arange(start, stop)
    cells, offs, counts = sample_windows(window_hi * SNAP_DENOM, seed, 3 * samples)
    # the uniform cell of position cell + off / 2**53 is floor(UNIFORM_CELLS * position / W),
    # and flooring UNIFORM_CELLS * off / 2**53 first leaves it unchanged, as W is an integer
    uniform = (UNIFORM_CELLS * cells + ((UNIFORM_CELLS * offs) >> 53)) // window_hi
    pair_cells, pair_offs, pair_counts = sample_windows(
        sup_hi * SNAP_DENOM, seed, (3 * samples[:, None] + (1, 2)).ravel()
    )
    # the count of ``superpose(a, b)``, which refuses a shared position
    pair = np.repeat(np.arange(pair_counts.size) // 2, pair_counts)
    ordered = np.lexsort((pair_offs, pair_cells, pair))
    if (np.diff(np.stack((pair, pair_cells, pair_offs))[:, ordered]) == 0).all(axis=0).any():
        raise AssertionError("superposition collision at identical positions")
    return {
        "counts": counts.tolist(),
        "uniform_cells": np.bincount(uniform, minlength=UNIFORM_CELLS),
        "sup_counts": (pair_counts[::2] + pair_counts[1::2]).tolist(),
    }


def run_poisson_suite(
    n_samples: int = 10_000,
    seed: int = 0,
    alpha: float = 0.01,
    window_hi: int = 30,
    workers: int = 1,
) -> dict:
    tot = fan_out(collect_poisson, n_samples, workers, seed, window_hi, SUP_HI)
    uniform = [1 / UNIFORM_CELLS] * UNIFORM_CELLS
    # each check: its test, its tally and the law the tally must follow
    checks = {
        "window_counts": (chi2_poisson, tot["counts"], float(window_hi)),
        "uniform_given_count": (chi2_gof, tot["uniform_cells"], uniform),
        "superposition_counts": (chi2_poisson, tot["sup_counts"], 2.0 * SUP_HI),
    }
    tests = {name: test(tally, law, alpha=alpha, name=name)
             for name, (test, tally, law) in checks.items()}
    return {
        "suite": "poisson",
        "samples": n_samples,
        "seed": seed,
        "alpha": alpha,
        "window": [0, window_hi],
        "superposition_window": [0, SUP_HI],
        "tests": tests,
        "holds": all(r["passed"] for r in tests.values()),
    }


def collect_suspension(
    start: int,
    stop: int,
    seed: int,
    n_max: int,
    p_max: int,
    window_hi: Fraction,
    k_values: tuple[int, ...],
    spec: CocycleSpec,
    mark_steps: int,
) -> dict:
    """Exact conjugacy/return-time/cocycle checks plus mark draws per sample.

    Route A (``induced_return`` on plain positions) runs once per sample
    for every k, and its censor reason is the one counted.  One walk of
    the samples in tower coordinates (``walk_orbits``) then serves
    everything else: the first step whose order fixes ranks 1..k is k's
    return time, the walk's configuration there is route B, its marks at
    ranks 1..k must be the start marks plus route A's cocycle sums, and
    its marks at step ``mark_steps`` feed the mark tests.
    """
    system = build_system(n_max)
    group = spec.group
    per_k = {
        k: {"uncensored": 0, **dict.fromkeys(FAILURE_KEYS, 0), "censored": Counter()}
        for k in k_values
    }
    cells, offs, counts = sample_windows(
        ceil_lattice(window_hi, SNAP_DENOM), seed, np.arange(start, stop)
    )
    scale = system.denom // SNAP_DENOM
    flat = [(c * SNAP_DENOM + o) * scale for c, o in zip(cells.tolist(), offs.tolist())]
    first = np.cumsum(counts) - counts
    bounds = list(zip(first.tolist(), counts.tolist()))  # (first flat slot, atoms) per sample
    # per sample: ({k: (return time, positions, sums)}, the reason the rest were censored)
    route_a = [
        induced_return(system, spec, flat[a : a + size], [k for k in k_values if k <= size], p_max)
        for a, size in bounds
    ]

    # uniform start marks for every atom, keyed by (seed, sample, 9, atom id);
    # mark invariance: with two or more atoms they stay uniform and pairwise
    # independent after a few skew steps; one key-prefix state per sample
    states = np.repeat(KeyedStream(seed).prefix_states(np.arange(start, stop), 9), counts)
    start_marks = group.coords(keyed_symbols(states, atom_ranks(counts) + 1, group.order))
    walk_returns, walk_marks, reached = walk_orbits(
        TowerCoords(system, spec), flat, counts, [r for r, _ in route_a], p_max, mark_steps,
        start_marks,
    )

    origins = start_marks.tolist()
    for (a, size), (returned, reason), walked in zip(bounds, route_a, walk_returns):
        for k in set(k_values).difference(returned):
            per_k[k]["censored"][reason if k <= size else TooFewAtomsError.reason] += 1
        for k, (m_steps, route_a_pos, sums) in returned.items():
            tally = per_k[k]
            tally["uncensored"] += 1
            if k not in walked:
                tally["return_time_mismatches"] += 1
                continue
            n_steps, route_b, marks = walked[k]
            origin = origins[a : a + k]
            carried = tuple(group.element(map(add, o, d)).coords for o, d in zip(origin, sums))
            tally["return_time_mismatches"] += m_steps != n_steps
            tally["conjugacy_failures"] += route_a_pos != route_b
            tally["phi_transport_failures"] += marks != carried
    # the mark tests read every configuration of two or more atoms that took
    # mark_steps steps below the top: all its marks, and the pair at ranks 1 and 2
    tested = counts >= 2
    read = tested & reached
    at, lead = group.symbols(walk_marks), first[read]
    pairs = np.bincount(at[lead] * group.order + at[lead + 1], minlength=group.order**2)
    return {
        "per_k": per_k,
        "mark_counts": np.bincount(at[np.repeat(read, counts)], minlength=group.order),
        "mark_pairs": pairs.reshape(group.order, group.order),
        "mark_censored": int(np.count_nonzero(tested & ~reached)),
    }


def run_suspension_suite(
    n_samples: int = 1200,
    seed: int = 0,
    n_max: int = 5,
    p_max: int = 10_000,
    window_hi: Fraction | int | str = 4,
    k_values: tuple[int, ...] = (1, 2),
    alpha: float = 0.01,
    workers: int = 1,
) -> dict:
    spec = single_spacer_indicator(1)
    window_hi = Fraction(window_hi)
    system = build_system(n_max)
    covered_hi = Fraction(system.high_water, system.denom)
    if window_hi > covered_hi:
        raise ValueError(f"window must fit inside [0, {covered_hi})")
    tot = fan_out(
        collect_suspension, n_samples, workers,
        seed, n_max, p_max, window_hi, tuple(k_values), spec, MARK_STEPS,
    )

    group = spec.group
    per_k_report = {}
    exact_ok = True
    for k in k_values:
        t = tot["per_k"][k]
        censored = sum(t["censored"].values())
        fraction = censored / n_samples
        ok = (
            t["uncensored"] >= MIN_UNCENSORED
            and fraction < CENSOR_THRESHOLD
            and not any(t[key] for key in FAILURE_KEYS)
        )
        exact_ok = exact_ok and ok
        per_k_report[str(k)] = {
            **{key: t[key] for key in ("uncensored", *FAILURE_KEYS)},
            "censored": dict(sorted(t["censored"].items())),
            "censored_fraction": fraction,
            "holds": ok,
        }

    def mark_test(test, counts, name: str, *args) -> dict:
        try:
            return test(counts, *args, alpha=alpha, name=name)
        except InsufficientDataError as exc:
            return {"name": name, "verdict": "insufficient data", "reason": str(exc)}

    probs = [1.0 / group.order] * group.order
    uniformity = mark_test(chi2_gof, tot["mark_counts"], "mark_uniformity", probs)
    pair_indep = mark_test(chi2_independence, tot["mark_pairs"], "mark_pair_independence")
    marks_ok = uniformity.get("passed", False) and pair_indep.get("passed", False)

    return {
        "suite": "suspension",
        "samples": n_samples,
        "seed": seed,
        "n_max": n_max,
        "p_max": p_max,
        "window": [0, str(Fraction(window_hi))],
        "k_values": list(k_values),
        "alpha": alpha,
        "per_k": per_k_report,
        "mark_tests": {
            "uniformity": uniformity,
            "pair_independence": pair_indep,
            "censored": tot["mark_censored"],
            "steps": MARK_STEPS,
        },
        "holds": bool(exact_ok and marks_ok),
    }
