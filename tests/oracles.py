"""Independent test oracles, kept deliberately naive."""

import itertools
from fractions import Fraction

from chaconlab.chacon import Interval, build_system
from chaconlab.cocycle import FinAbGroup, combine_pairs
from chaconlab.errors import CensoredError
from chaconlab.stats import KeyedStream, uniform_law
from chaconlab.suspension import (
    MarkedConfig,
    distinguish_k,
    induced_return,
    phi_k_vector,
    push_forward,
    recombine,
    return_time_N_k,
    sample_poisson,
    skew_apply_group,
)


def brute_reachable(gens, group: FinAbGroup, bound: int) -> set:
    """All (z, coords) hit by integer combinations with coefficients in [-bound, bound]."""
    reach = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
        z, g = combine_pairs(coeffs, gens, group)
        reach.add((z, g.coords))
    return reach


def random_span_instance(rng, max_order: int = 8, max_gens: int = 3, z_bound: int = 4):
    """A small random group, generator pairs, and a target pair."""
    factor_menu = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 3), (1,)]
    factors = factor_menu[int(rng.integers(0, len(factor_menu)))]
    group = FinAbGroup(factors)
    assert group.order <= max_order
    n_gens = int(rng.integers(1, max_gens + 1))
    gens = [
        (int(rng.integers(-z_bound, z_bound + 1)), group.sample(rng))
        for _ in range(n_gens)
    ]
    target = (int(rng.integers(-z_bound, z_bound + 1)), group.sample(rng))
    return group, gens, target


def _advance(system, config, steps: int):
    for _ in range(steps):
        config, _, _ = push_forward(system, config)
    return config


def four_walk_suspension(start, stop, seed, n_max, p_max, window_hi, k_values, spec, mark_steps):
    """The suspension suite's per-sample checks, each orbit walked on its own.

    For every (sample, k) the orbit is walked four times (return time,
    route B, cocycle sums, zero-mark skew product) and once more for the
    mark test.  Returns the same tallies as ``suites.collect_suspension``,
    with plain-list mark counts.
    """
    system = build_system(n_max)
    window = Interval(Fraction(0), Fraction(window_hi))
    group = spec.group
    stream = KeyedStream(seed)
    law = uniform_law(group.order)
    elements = list(group.elements())
    sym = {g: j for j, g in enumerate(elements)}
    keys = ("uncensored", "conjugacy_failures", "return_time_mismatches",
            "phi_transport_failures")
    per_k = {k: {**dict.fromkeys(keys, 0), "censored": {}} for k in k_values}
    mark_counts = [0] * group.order
    mark_pairs = [[0] * group.order for _ in range(group.order)]
    mark_censored = 0

    for i in range(start, stop):
        config = sample_poisson(window, seed, stream=i)
        for k in k_values:
            tally = per_k[k]
            if config.count < k:
                tally["censored"]["TooFewAtoms"] = tally["censored"].get("TooFewAtoms", 0) + 1
                continue
            try:
                points, remainder = distinguish_k(config, k)
                m_steps, adv_pts, adv_rem = induced_return(system, points, remainder, p_max)
                route_a = recombine(adv_pts, adv_rem)
                n_steps = return_time_N_k(system, config, k, p_max)
                route_b = _advance(system, config, n_steps)
                vec = phi_k_vector(system, spec, config, k, p_max)
                marked = MarkedConfig(config, (group.identity(),) * config.count)
                for _ in range(n_steps):
                    marked, _, _ = skew_apply_group(system, spec, marked)
            except CensoredError as exc:
                reasons = exc.report.reasons
                reason = max(reasons, key=reasons.get)
                tally["censored"][reason] = tally["censored"].get(reason, 0) + 1
                continue
            tally["uncensored"] += 1
            tally["return_time_mismatches"] += m_steps != n_steps
            tally["conjugacy_failures"] += not route_a.same_positions(route_b)
            tally["phi_transport_failures"] += tuple(marked.marks[:k]) != vec

        if config.count >= 2:
            start_marks = tuple(
                elements[law.draw(stream, i, 9, atom.id)] for atom in config.atoms
            )
            marked = MarkedConfig(config, start_marks)
            try:
                for _ in range(mark_steps):
                    marked, _, _ = skew_apply_group(system, spec, marked)
            except CensoredError:
                mark_censored += 1
            else:
                for g in marked.marks:
                    mark_counts[sym[g]] += 1
                mark_pairs[sym[marked.marks[0]]][sym[marked.marks[1]]] += 1
    return {
        "per_k": per_k,
        "mark_counts": mark_counts,
        "mark_pairs": mark_pairs,
        "mark_censored": mark_censored,
    }
