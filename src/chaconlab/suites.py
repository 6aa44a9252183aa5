"""Monte-Carlo verification suites over the sampler and the suspension.

Each suite is a pure function of its configuration: per-sample randomness
is keyed by (seed, sample index), samples fan out across workers as
contiguous ranges, and ``fan_out`` merges the partial results in range
order by one rule (dicts key by key, all else with ``+``), so reports are
identical for any worker count.

The ``poisson`` suite checks the sampler's distributional contract: the
first atom is Exp(1), early inter-atom gaps are Exp(1) (early ones, so
window truncation cannot length-bias them), superposed pairs have
Poisson(2·width) counts, and E[t_1^k/k!] = 1 for small k.

The ``suspension`` suite checks the induced-map conjugacy exactly, sample
by sample: splitting off the k lowest atoms, advancing by the induced
first-return map, and recombining must equal advancing the whole
configuration by its rank-prefix return time — and the two return times
must agree.  Accumulated group marks are checked against the k-vector of
cocycle sums, and mark uniformity is tested statistically.  Samples go
in blocks of ``BLOCK``.  Route A (split, induced return, cocycle sums)
is one scalar pass per sample for every k (``suspension.induced_return``);
route B and the marks come from one walk of the block in tower
coordinates (``suspension.walk_orbits``), a separate computation.  Route
A alone decides censoring: samples whose orbits outrun the truncation
depth or the step budget there are censored and reported, never silently
dropped, and a return the walk misses is a return-time mismatch.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import add

import numpy as np

from .chacon import SNAP_DENOM, build_system, tower_heights
from .cocycle import CocycleSpec, single_spacer_indicator
from .errors import InsufficientDataError
from .parallel import fan_out
from .stats import (
    KeyedStream,
    chi2_gof,
    chi2_independence,
    chi2_poisson,
    ks_exponential,
    mc_mean,
    uniform_law,
)
from .suspension import (
    TowerCoords,
    induced_return,
    lattice_window,
    sample_poisson,
    superpose,
    walk_orbits,
)

GAPS_PER_CONFIG = 5
BLOCK = 64  # suspension samples walked together
FAILURE_KEYS = ("conjugacy_failures", "return_time_mismatches", "phi_transport_failures")


def collect_poisson(start: int, stop: int, seed: int, window_hi: int, sup_hi: int) -> dict:
    """Raw draws for the distributional suite, three streams per sample."""
    window = lattice_window(0, window_hi)
    sup_window = lattice_window(0, sup_hi)
    t1: list[float] = []
    gaps: list[float] = []
    sup_counts: list[int] = []
    skipped_empty = skipped_short = 0
    for i in range(start, stop):
        config = sample_poisson(window, seed, stream=3 * i)
        if config.count == 0:
            skipped_empty += 1
        else:
            # int / int is correctly rounded, as float(Fraction) is
            t1.append(config.t(1) / SNAP_DENOM)
            if config.count > GAPS_PER_CONFIG:
                pos = config.positions()
                gaps.extend(
                    (pos[j + 1] - pos[j]) / SNAP_DENOM for j in range(GAPS_PER_CONFIG)
                )
            else:
                skipped_short += 1
        a = sample_poisson(sup_window, seed, stream=3 * i + 1)
        b = sample_poisson(sup_window, seed, stream=3 * i + 2)
        sup_counts.append(superpose(a, b).count)
    return {
        "t1": t1,
        "gaps": gaps,
        "sup_counts": sup_counts,
        "skipped_empty": skipped_empty,
        "skipped_short": skipped_short,
    }


def run_poisson_suite(
    n_samples: int = 10_000,
    seed: int = 0,
    alpha: float = 0.01,
    window_hi: int = 30,
    sup_hi: int = 10,
    workers: int = 1,
) -> dict:
    tot = fan_out(collect_poisson, n_samples, workers, seed, window_hi, sup_hi)
    t1, gaps = tot["t1"], tot["gaps"]

    tests = {
        "t1_exponential": ks_exponential(t1, alpha=alpha, name="t1_exponential"),
        "gaps_exponential": ks_exponential(gaps, alpha=alpha, name="gaps_exponential"),
        "superposition_counts": chi2_poisson(
            tot["sup_counts"], mean=2.0 * sup_hi, alpha=alpha, name="superposition_counts"
        ),
    }
    for k in range(1, 6):
        fact = math.factorial(k)
        tests[f"moment_k{k}"] = mc_mean(
            [t**k / fact for t in t1], target=1.0, tol_sigmas=3.0, name=f"moment_k{k}"
        )
    holds = all(r.passed for r in tests.values())
    return {
        "suite": "poisson",
        "samples": n_samples,
        "seed": seed,
        "alpha": alpha,
        "window": [0, window_hi],
        "superposition_window": [0, sup_hi],
        "skipped": {"empty": tot["skipped_empty"], "too_short_for_gaps": tot["skipped_short"]},
        "tests": {k: v.to_jsonable() for k, v in tests.items()},
        "holds": bool(holds),
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

    Samples go in blocks of ``BLOCK``.  Route A (``induced_return`` on
    plain positions) runs once per sample for every k, and its censor
    reason is the one counted.  One walk of the block in tower coordinates
    (``walk_orbits``) then serves everything else: the first step whose
    order fixes ranks 1..k is k's return time, the walk's configuration
    there is route B, its marks at ranks 1..k must be the start marks plus
    route A's cocycle sums, and its marks at step ``mark_steps`` feed the
    mark tests.
    """
    system = build_system(n_max)
    tower = TowerCoords(system, spec)
    window = lattice_window(0, window_hi, system.denom)
    group = spec.group
    stream = KeyedStream(seed)
    law = uniform_law(group.order)
    zero = (0,) * group.rank

    per_k = {
        k: {"uncensored": 0, **dict.fromkeys(FAILURE_KEYS, 0), "censored": Counter()}
        for k in k_values
    }
    mark_counts = np.zeros(group.order, dtype=np.int64)
    mark_pairs = np.zeros((group.order, group.order), dtype=np.int64)
    mark_censored = 0

    for lo in range(start, stop, BLOCK):
        configs, route_a = [], []  # per sample: k -> (return time, positions, sums)
        for i in range(lo, min(lo + BLOCK, stop)):
            pos = sample_poisson(window, seed, stream=i, denom=system.denom).positions()
            ks = [k for k in k_values if k <= len(pos)]
            returned, reason = induced_return(system, spec, pos, ks, p_max)
            for k in k_values:
                if k not in returned:
                    per_k[k]["censored"][reason if k <= len(pos) else "TooFewAtoms"] += 1
            configs.append(pos)
            route_a.append(returned)

        # mark invariance: uniform starting marks stay uniform and pairwise
        # independent after a few skew steps; keyed by (seed, sample, 9, atom id)
        counts = np.array([len(c) for c in configs])
        owner = np.repeat(np.arange(lo, lo + len(configs)), counts)
        ids = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        drawn = law.draw_at(stream.prefix_states(owner, 9), ids)
        symbols = np.split(drawn, np.cumsum(counts)[:-1])
        starts = [group.coords(sym) if len(sym) >= 2 else None for sym in symbols]
        walks = walk_orbits(tower, configs, route_a, p_max, mark_steps, starts)

        for pos, returned, start, walk in zip(configs, route_a, starts, walks):
            origin = [zero] * len(pos) if start is None else start.tolist()
            for k, (m_steps, route_a_pos, sums) in returned.items():
                tally = per_k[k]
                tally["uncensored"] += 1
                if k not in walk.returns:
                    tally["return_time_mismatches"] += 1
                    continue
                n_steps, route_b, marks = walk.returns[k]
                carried = tuple(group.element(map(add, a, b)).coords for a, b in zip(origin, sums))
                tally["return_time_mismatches"] += m_steps != n_steps
                tally["conjugacy_failures"] += route_a_pos != route_b
                tally["phi_transport_failures"] += marks != carried
            if start is not None:
                if walk.marks is None:
                    mark_censored += 1
                else:
                    at = group.symbols(walk.marks)
                    mark_counts += np.bincount(at, minlength=group.order)
                    mark_pairs[at[0], at[1]] += 1
    return {
        "per_k": per_k,
        "mark_counts": mark_counts,
        "mark_pairs": mark_pairs,
        "mark_censored": mark_censored,
    }


def run_suspension_suite(
    n_samples: int = 1200,
    seed: int = 0,
    n_max: int = 5,
    p_max: int = 10_000,
    window_hi: Fraction | int | str = 4,
    k_values: tuple[int, ...] = (1, 2),
    alpha: float = 0.01,
    spec: CocycleSpec | None = None,
    mark_steps: int = 3,
    min_uncensored: int = 500,
    workers: int = 1,
) -> dict:
    if spec is None:
        spec = single_spacer_indicator(1)
    window_hi = Fraction(window_hi)
    # the covered set is [0, h·w) for the top tower; no need to build it
    covered_hi = Fraction(tower_heights(n_max)[-1], 3 ** (n_max - 1))
    if window_hi > covered_hi:
        raise ValueError(f"window must fit inside [0, {covered_hi})")
    tot = fan_out(
        collect_suspension, n_samples, workers,
        seed, n_max, p_max, window_hi, tuple(k_values), spec, mark_steps,
    )

    group = spec.group
    per_k_report = {}
    exact_ok = True
    for k in k_values:
        t = tot["per_k"][k]
        censored = sum(t["censored"].values())
        fraction = censored / n_samples
        ok = (
            t["uncensored"] >= min_uncensored
            and fraction < 0.5
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
            return test(counts, *args, alpha=alpha, name=name).to_jsonable()
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
            "steps": mark_steps,
        },
        "holds": bool(exact_ok and marks_ok),
    }
