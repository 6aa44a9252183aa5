"""Command-line front end: build tower systems, check cocycle conditions,
and run the verification suites.

Every command emits a JSON report that embeds the effective run
configuration and the package version, serialized with sorted keys and no
timestamps, so identical configurations produce byte-identical output.
Reports with tabular statistics also get a CSV rendering next to the JSON
file when --out is used.

Exit codes: 0 all checks pass; 1 a verification check failed; 2 usage
error (bad flags, malformed spec file); 3 censoring exceeded its
threshold before the statistics could be trusted.

The CLI runs OpenBLAS with one thread unless OPENBLAS_NUM_THREADS is
already set: no command does BLAS work, and idle OpenBLAS threads only
compete with the main thread for CPU.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

# Set before numpy loads: no command does BLAS work, and each OpenBLAS
# worker thread spins at load, competing with the main thread on small hosts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .chacon import build_system, system_to_json
from .cocycle import (
    check_condition_i,
    check_condition_ii,
    cocycle_spec_from_json,
    single_spacer_indicator,
)
from .errors import InsufficientDataError
from .joining import verify_joining
from .ratio import format_lattice
from .suites import CENSOR_THRESHOLD, run_poisson_suite, run_suspension_suite
from .suspension import MAX_WALK_DEPTH

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CENSORED = 3

# build-chacon lists every level of every tower, about six times more per
# depth: at depth 9 the report holds 209 MB and the run peaks near 1.6 GB
MAX_BUILD_N = 9


# every report's run_config holds these fields, null unless its command sets them
RUN_CONFIG = dict.fromkeys(
    ("command", "suite", "n_max", "k", "p_max", "window", "samples", "seed", "alpha", "spec",
     "workers")
)

# each command's options and their defaults; verify leaves samples and window
# unset, so each suite sizes itself
BUILD_OPTIONS = {"n_max": 4, "out": None}
CHECK_OPTIONS = {"spec": None, "n_scan": None, "out": None}
VERIFY_OPTIONS = {
    "samples": None, "seed": 0, "alpha": 0.01, "window": None, "n_max": 5,
    "p_max": 10_000, "k": "1,2", "workers": 1, "out": None,
}


def _emit(report: dict, out: str | None, csv_rows: list[dict] | None = None) -> None:
    # stdout stays pure JSON for pipelines; the CSV twin only accompanies --out
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        if csv_rows:
            stem = out[: -len(".json")] if out.endswith(".json") else out
            with open(stem + ".csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0].keys()))
                writer.writeheader()
                writer.writerows(csv_rows)
    else:
        sys.stdout.write(text)


def _test_rows(tests: dict) -> list[dict]:
    """CSV rows of one block of tests, by key; entries without a p-value are skipped."""
    fields = ("statistic", "p_value", "n", "alpha", "expect_reject", "passed")
    rows = []
    for key in sorted(tests):
        t = tests[key]
        if isinstance(t, dict) and "p_value" in t:
            rows.append({"test": t["name"], **{f: t[f] for f in fields}})
    return rows


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


class UsageError(Exception):
    pass


# JSON types a config-file value may take: the type its flag converts to,
# with an integer allowed for a float, a number for --window and a list for
# --k; null counts as absent
FILE_TYPES = {
    "samples": int, "seed": int, "n_max": int, "p_max": int, "workers": int,
    "n_scan": int, "alpha": (int, float), "window": (str, int),
    "k": (str, list), "spec": str, "out": str,
}


def _merge(args: argparse.Namespace, file_cfg: dict, key: str, default):
    """Flag wins over config file wins over default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    value = file_cfg.get(key)
    if value is not None:
        if isinstance(value, bool) or not isinstance(value, FILE_TYPES[key]):
            raise UsageError(f"config file value {key}={value!r} has the wrong type")
        return value
    return default


def _options(args: argparse.Namespace, defaults: dict) -> dict:
    """Every option of a command's table, merged from flag, config file and default.

    A config-file key outside the table is refused, so a misspelt key
    cannot fall back to its default without a word.
    """
    file_cfg = _load_config_file(args.config)
    unknown = ", ".join(sorted(set(file_cfg) - set(defaults)))
    if unknown:
        raise UsageError(f"config file {args.config} sets {unknown}, unknown to {args.command}")
    opts = {key: _merge(args, file_cfg, key, default) for key, default in defaults.items()}
    if args.command in ("build-chacon", "verify") and (opts["out"] or "").endswith(".csv"):
        raise UsageError(f"--out {opts['out']} ends in .csv, which names the CSV twin")
    return opts


def cmd_build_chacon(args: argparse.Namespace) -> int:
    opts = _options(args, BUILD_OPTIONS)
    n_max = opts["n_max"]
    if not 1 <= n_max <= MAX_BUILD_N:
        raise UsageError(f"--n-max must be between 1 and {MAX_BUILD_N}")
    system = build_system(n_max)
    d = system.denom
    rows = [
        {
            "order": n,
            "height": h,
            "level_width": format_lattice(w, d),
            "mass": format_lattice(mark, d),
        }
        for n, h, w, mark in zip(range(1, n_max + 1), system.heights, system.widths, system.marks)
    ]
    report = {
        "version": __version__,
        "run_config": {**RUN_CONFIG, "command": "build-chacon", "n_max": n_max},
        "heights": list(system.heights),
        "covered": [format_lattice(0, d), format_lattice(system.high_water, d)],
        "towers": rows,
        "system": system_to_json(system),
    }
    _emit(report, opts["out"], csv_rows=rows)
    if opts["out"]:  # table is wanted on screen even when the JSON goes to a file
        for r in rows:
            sys.stdout.write(
                f"order {r['order']}: height {r['height']}, "
                f"level width {r['level_width']}, mass {r['mass']}\n"
            )
    return EXIT_OK


def _load_cocycle_spec(path: str | None):
    if path is None:  # the level function the suspension suite runs on
        return single_spacer_indicator(1), "bundled"
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return cocycle_spec_from_json(payload), path
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(f"cannot load cocycle spec {path}: {exc}")


def cmd_check_cocycle(args: argparse.Namespace) -> int:
    opts = _options(args, CHECK_OPTIONS)
    n_scan = opts["n_scan"]
    if n_scan is not None and n_scan < 1:
        raise UsageError("--n-scan must be at least 1")
    spec, spec_name = _load_cocycle_spec(opts["spec"])

    cond_i = check_condition_i(spec, n_scan=n_scan)
    report = {
        "version": __version__,
        "run_config": {**RUN_CONFIG, "command": "check-cocycle", "spec": spec_name},
        "n_scan": cond_i["n_scanned"],  # an explicit n_scan is where the scan stops
        "condition_i": cond_i,
        "condition_ii": check_condition_ii(spec),
        "holds": cond_i["holds"],
    }
    _emit(report, opts["out"])
    return EXIT_OK if cond_i["holds"] else EXIT_FAIL


def _parse_k(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        # a config-file list holds JSON integers; 1.5 or true is not truncated into one
        if any(isinstance(v, bool) or not isinstance(v, int) for v in value):
            raise UsageError(f"--k list entries must be integers, not {value!r}")
        ks = tuple(value)
    else:
        try:
            ks = tuple(int(part) for part in str(value).split(",") if part.strip())
        except ValueError:
            raise UsageError(f"cannot parse --k value {value!r}")
    if not ks or any(k < 0 for k in ks):
        raise UsageError("--k needs a comma-separated list of nonnegative integers")
    if len(set(ks)) < len(ks):  # a repeated k would tally its censoring twice
        raise UsageError(f"--k entries must be distinct, not {value!r}")
    return ks


def _parse_window(value) -> Fraction:
    try:
        window = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse --window value {value!r}")
    if window <= 0:
        raise UsageError(f"--window must be positive, not {value!r}")
    return window


SUITES = ("poisson", "suspension", "joining", "all")


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _options(args, VERIFY_OPTIONS)
    out = opts.pop("out")
    samples, seed, alpha, window = opts["samples"], opts["seed"], opts["alpha"], opts["window"]
    k = _parse_k(opts["k"])
    if samples is not None and samples < 1:
        raise UsageError("--samples must be at least 1")
    if seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not 1 <= opts["n_max"] <= MAX_WALK_DEPTH:
        raise UsageError(f"--n-max must be between 1 and {MAX_WALK_DEPTH}")
    if opts["p_max"] < 1:
        raise UsageError("--p-max must be at least 1")
    if opts["workers"] < 1:
        raise UsageError("--workers must be at least 1")
    if not 0 < alpha < 1:  # NaN included
        raise UsageError(f"--alpha must lie strictly between 0 and 1, not {alpha!r}")

    window_hi = None
    if window is not None:
        window_hi = _parse_window(window)
        if window_hi.denominator == 1:
            window_hi = int(window_hi)
        elif args.suite != "suspension":
            raise UsageError(f"--window must be an integer for poisson and joining, not {window!r}")

    # only what the user set reaches a suite; each sizes the rest itself
    given = {"seed": seed, "alpha": alpha, "workers": opts["workers"]}
    if samples is not None:
        given["n_samples"] = samples
    results = {}
    for name in SUITES[:-1] if args.suite == "all" else (args.suite,):
        kw = dict(given)
        if window_hi is not None:  # joining's window is the half-width of its index range
            kw["half_width" if name == "joining" else "window_hi"] = window_hi
        if name == "poisson":
            results[name] = run_poisson_suite(**kw)
        elif name == "suspension":
            results[name] = run_suspension_suite(
                **kw, n_max=opts["n_max"], p_max=opts["p_max"], k_values=k
            )
        else:
            results[name] = verify_joining(**kw)
    holds = all(r["holds"] for r in results.values())
    report = {
        "version": __version__,
        "run_config": {
            **RUN_CONFIG, **opts, "command": "verify", "suite": args.suite, "k": list(k),
            "window": None if window is None else str(window),
        },
        "suites": results,
        "holds": holds,
    }
    rows = []
    for r in results.values():
        for block in ("tests", "marginal2", "dependence", "mark_tests"):
            tests = r.get(block, {})
            rows += _test_rows({block: tests} if block == "dependence" else tests)
    _emit(report, out, csv_rows=rows or None)
    per_k = results["suspension"]["per_k"].values() if "suspension" in results else ()
    if any(c["censored_fraction"] >= CENSOR_THRESHOLD for c in per_k):
        return EXIT_CENSORED
    return EXIT_OK if holds else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaconlab",
        description="Exact rank-one tower dynamics and seeded suspension verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here (CSV alongside)")
    common.add_argument("--config", help="JSON file of defaults; explicit flags win")

    b = sub.add_parser("build-chacon", parents=[common], help="build and dump a tower system")
    b.add_argument("--n-max", dest="n_max", type=int, help=f"construction depth (default {BUILD_OPTIONS['n_max']})")
    b.set_defaults(func=cmd_build_chacon)

    c = sub.add_parser("check-cocycle", parents=[common], help="check generation and unit-span conditions")
    c.add_argument("--spec", help="cocycle spec JSON (default: bundled indicator)")
    c.add_argument("--n-scan", dest="n_scan", type=int, help="stages to scan (default: auto)")
    c.set_defaults(func=cmd_check_cocycle)

    v = sub.add_parser("verify", parents=[common], help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    v.add_argument("--seed", type=int, help=f"master seed (default {VERIFY_OPTIONS['seed']})")
    v.add_argument("--alpha", type=float, help=f"test level (default {VERIFY_OPTIONS['alpha']})")
    v.add_argument("--window", help="sampling window size (suite-specific default)")
    v.add_argument("--n-max", dest="n_max", type=int,
                   help=f"construction depth (default {VERIFY_OPTIONS['n_max']})")
    v.add_argument("--p-max", dest="p_max", type=int,
                   help=f"step budget (default {VERIFY_OPTIONS['p_max']})")
    v.add_argument("--k", help=f"comma-separated prefix sizes (default {VERIFY_OPTIONS['k']})")
    v.add_argument("--workers", type=int, help=f"parallel workers (default {VERIFY_OPTIONS['workers']})")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, InsufficientDataError) as exc:
        # bad flag values and parameter choices that starve the statistics
        # are both the caller's to fix
        parser.exit(EXIT_USAGE, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
