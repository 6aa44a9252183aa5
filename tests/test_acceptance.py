"""End-to-end acceptance gate: one test, and one printed line, per guarantee.

Each test re-verifies its claim from scratch at the stated scale and
tolerance, then reports a single human-readable pass/fail line.  Run with
``-s`` (or check the failure output) to see the lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from chaconlab.chacon import (
    apply_T,
    apply_T_inv,
    build_system,
    levels,
    random_point,
    tower_heights,
    translate_at_order,
)
from chaconlab.cli import EXIT_OK, main
from chaconlab.cocycle import (
    FinAbGroup,
    check_condition_i,
    check_condition_ii,
    phi_iter,
    single_spacer_indicator,
    subgroup_closure,
    zero_cocycle,
)
from chaconlab.errors import CensoredError, DepthExceededError, OutOfDomainError
from chaconlab.joining import verify_joining
from chaconlab.suites import run_poisson_suite, run_suspension_suite
from chaconlab.suspension import lattice_window, psi_iter, push_forward, sample_poisson


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"acceptance {num} {'pass' if ok else 'FAIL'}: {detail}")
        assert ok, f"acceptance {num}: {detail}"

    return _announce


def _bundled_spec():
    # the level function check-cocycle runs on without --spec
    return single_spacer_indicator(1)


def test_acceptance_1_tower_construction(announce):
    t0 = time.perf_counter()
    recurrence = [1]
    while len(recurrence) < 6:
        recurrence.append(2 * (3 * recurrence[-1] + 1))
    assert recurrence == [1, 8, 50, 302, 1814, 10886]
    assert tower_heights(6) == recurrence
    system = build_system(6)
    for order in range(1, system.n_max + 1):
        tower = sorted(levels(system, order), key=lambda iv: iv.lo)
        width = system.widths[order - 1]
        assert len(tower) == system.heights[order - 1]
        assert tower[0].lo == 0
        for a, b in zip(tower, tower[1:]):
            assert a.hi == b.lo  # no gap, no overlap
        assert tower[-1].hi == len(tower) * width
        assert Fraction(width, system.denom) == Fraction(3) ** (1 - order)
    elapsed = time.perf_counter() - t0
    announce(
        1,
        elapsed < 1.0,
        f"heights {recurrence}, all 6 towers partition exactly, "
        f"{elapsed:.3f}s < 1s",
    )


def test_acceptance_2_dynamics_exactness(announce):
    system = build_system(6)
    rng = np.random.default_rng(20260819)
    n_points = 10_000
    inverse_failures = order_failures = 0
    checked_inverse = checked_orders = 0
    for _ in range(n_points):
        x = random_point(system, rng)
        try:
            y = apply_T(system, x)
        except DepthExceededError:
            y = None
        if y is not None:
            checked_inverse += 1
            if apply_T_inv(system, y) != x:
                inverse_failures += 1
        images = []
        for order in range(1, system.n_max + 1):
            try:
                images.append(translate_at_order(system, x, order))
            except (OutOfDomainError, DepthExceededError):
                continue
        if len(images) >= 2:
            checked_orders += 1
            if any(img != images[0] for img in images[1:]):
                order_failures += 1
    # only points below the stage-5 water line sit in two towers (~half)
    ok = (
        inverse_failures == 0
        and order_failures == 0
        and checked_inverse > 9_900
        and checked_orders > 4_500
    )
    announce(
        2,
        ok,
        f"{n_points} rational points: inverse identity exact on "
        f"{checked_inverse}, stage translations agree on {checked_orders}, "
        f"{inverse_failures + order_failures} failures",
    )


def test_acceptance_3_cocycle_identities(announce):
    system = build_system(3)
    spec = _bundled_spec()
    rng = np.random.default_rng(30303)
    window = lattice_window(0, 3, system.denom)
    phi_checked = psi_checked = failures = 0
    stream = 0
    while min(phi_checked, psi_checked) < 1_000:
        stream += 1
        p = 1 + stream % 3
        q = 1 + (stream // 3) % 3
        if phi_checked < 1_000:
            x = random_point(system, rng)
            try:
                full = phi_iter(spec, system, x, p + q)
                mid = x
                for _ in range(p):
                    mid = apply_T(system, mid)
                split = phi_iter(spec, system, mid, q) + phi_iter(spec, system, x, p)
            except DepthExceededError:
                pass
            else:
                phi_checked += 1
                if full != split:
                    failures += 1
        if psi_checked < 1_000:
            config = sample_poisson(window, seed=777, stream=stream, denom=system.denom)
            if config.count == 0:
                continue
            try:
                full_perm = psi_iter(system, config, p + q)
            except CensoredError:
                continue
            cur = config
            for _ in range(p):
                cur, _ = push_forward(system, cur)
            psi_checked += 1
            if full_perm != psi_iter(system, cur, q).after(psi_iter(system, config, p)):
                failures += 1
    announce(
        3,
        failures == 0,
        f"accumulation identity exact on {phi_checked} orbit samples and "
        f"{psi_checked} permutation samples, {failures} failures",
    )


def test_acceptance_4_condition_checkers(announce):
    spec = _bundled_spec()
    group = spec.group
    cond_i = check_condition_i(spec)
    regenerated = subgroup_closure(
        group, [group.element(c) for _, c in cond_i["generators_found"]]
    )
    assert cond_i["holds"] and len(regenerated) == group.order

    cond_ii = check_condition_ii(spec)
    (a, b), ((z1, g1), (z2, g2)) = cond_ii["certificate"], cond_ii["vectors"]
    unit = (a * z1 + b * z2, a * group.element(g1) + b * group.element(g2))
    cond_ii_ok = unit == (1, group.identity())

    zero_fails = not check_condition_i(zero_cocycle(FinAbGroup((2,))))["holds"]
    ok = cond_i["holds"] and cond_ii_ok and zero_fails
    announce(
        4,
        ok,
        f"bundled indicator generates the group over {cond_i['n_scanned']} stages, "
        f"its unit-span certificate at stage {cond_ii['stage']} recombines to "
        f"{(unit[0], list(unit[1].coords))}, zero cocycle fails",
    )


def test_acceptance_5_distributional_suite(announce):
    t0 = time.perf_counter()
    rep = run_poisson_suite(n_samples=10_000, seed=0, alpha=0.01)
    elapsed = time.perf_counter() - t0
    expected = {
        "t1_exponential",
        "gaps_exponential",
        "superposition_counts",
        "moment_k1",
        "moment_k2",
        "moment_k3",
        "moment_k4",
        "moment_k5",
    }
    assert set(rep["tests"]) == expected
    all_passed = all(t["passed"] for t in rep["tests"].values())
    ok = all_passed and rep["holds"] and elapsed < 30.0
    announce(
        5,
        ok,
        f"10^4 samples at alpha=0.01: all {len(expected)} tests passed, "
        f"{elapsed:.1f}s < 30s",
    )


def test_acceptance_6_conjugacy_identity(announce):
    rep = run_suspension_suite(
        n_samples=1_200,
        seed=0,
        n_max=5,
        p_max=10_000,
        k_values=(1, 2),
        alpha=0.01,
        workers=4,
    )
    details = []
    ok = rep["holds"]
    for k in ("1", "2"):
        per_k = rep["per_k"][k]
        ok = ok and (
            per_k["uncensored"] >= 500
            and per_k["conjugacy_failures"] == 0
            and per_k["return_time_mismatches"] == 0
            and per_k["censored_fraction"] < 0.5
        )
        details.append(
            f"k={k}: {per_k['uncensored']} uncensored, "
            f"censored {per_k['censored_fraction']:.1%}"
        )
    announce(6, ok, "split/advance conjugacy exact; " + "; ".join(details))


def test_acceptance_7_joining_suite(announce):
    t0 = time.perf_counter()
    rep = verify_joining(
        n_samples=10_000, half_width=50, seed=0, alpha=0.01, workers=4
    )
    elapsed = time.perf_counter() - t0
    exact = rep["exact"]
    marginal = rep["marginal2"]
    dependence = rep["dependence"]
    ok = (
        exact["rank_tracking_failures"] == 0
        and exact["equivariance_failures"] == 0
        and exact["checked"] == 10_000
        and marginal["chi2_gof"]["passed"]
        and marginal["pairwise_independence"]["passed"]
        and dependence["passed"]
        and dependence["p_value"] < 1e-3
        and rep["holds"]
        and elapsed < 60.0
    )
    announce(
        7,
        ok,
        f"10^4 samples at half-width 50: marginals i.i.d., dependence "
        f"p={dependence['p_value']:.2e} < 1e-3, exact checks clean, "
        f"{elapsed:.1f}s < 60s",
    )


def test_acceptance_8_reproducibility(announce, tmp_path):
    commands = [
        ["build-chacon", "--n-max", "3"],
        ["check-cocycle"],
        ["verify", "poisson", "--samples", "500", "--seed", "1"],
        ["verify", "suspension", "--samples", "100", "--seed", "0"],
        ["verify", "joining", "--samples", "300", "--window", "12", "--seed", "2"],
    ]
    mismatches = 0
    for idx, argv in enumerate(commands):
        a = tmp_path / f"{idx}_a.json"
        b = tmp_path / f"{idx}_b.json"
        rc_a = main(argv + ["--out", str(a)])
        rc_b = main(argv + ["--out", str(b)])
        assert rc_a == rc_b
        if a.read_bytes() != b.read_bytes():
            mismatches += 1
        ca, cb = a.with_suffix(".csv"), b.with_suffix(".csv")
        if ca.exists() != cb.exists() or (
            ca.exists() and ca.read_bytes() != cb.read_bytes()
        ):
            mismatches += 1
    announce(
        8,
        mismatches == 0,
        f"{len(commands)} commands re-run byte-identical "
        f"(JSON and CSV), {mismatches} mismatches",
    )
