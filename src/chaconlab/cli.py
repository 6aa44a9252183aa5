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
"""

from __future__ import annotations

import argparse
import csv

import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources

from . import __version__
from .chacon import build_system, system_to_json
from .cocycle import check_condition_i, check_condition_ii, cocycle_spec_from_json
from .errors import InsufficientDataError
from .joining import verify_joining
from .ratio import format_lattice
from .suites import run_poisson_suite, run_suspension_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CENSORED = 3

CENSOR_THRESHOLD = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one command, defaults already resolved."""

    command: str
    suite: str | None = None
    n_max: int | None = None
    k: tuple[int, ...] | None = None
    p_max: int | None = None
    window: str | None = None
    samples: int | None = None
    seed: int | None = None
    alpha: float | None = None
    spec: str | None = None
    workers: int | None = None

    def to_jsonable(self) -> dict:
        data = asdict(self)
        if self.k is not None:
            data["k"] = list(self.k)
        return data


def _emit(report: dict, out: str | None, csv_rows: list[dict] | None = None) -> None:
    # stdout stays pure JSON for pipelines; the CSV twin only accompanies --out
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        if csv_rows:
            _write_csv(_csv_path(out), csv_rows)
    else:
        sys.stdout.write(text)


def _csv_path(out: str) -> str:
    return (out[: -len(".json")] if out.endswith(".json") else out) + ".csv"


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(fh, rows)


def _write_rows(fh, rows: list[dict]) -> None:
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _test_rows(tests: dict) -> list[dict]:
    rows = []
    for key in sorted(tests):
        t = tests[key]
        if not isinstance(t, dict) or "p_value" not in t:
            continue
        rows.append(
            {
                "test": t.get("name", key),
                "statistic": t.get("statistic"),
                "p_value": t.get("p_value"),
                "n": t.get("n"),
                "alpha": t.get("alpha"),
                "expect_reject": t.get("expect_reject"),
                "passed": t.get("passed"),
            }
        )
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


def cmd_build_chacon(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(getattr(args, "config", None))
    n_max = _merge(args, file_cfg, "n_max", 4)
    out = _merge(args, file_cfg, "out", None)
    if n_max < 1:
        raise UsageError("--n-max must be at least 1")
    system = build_system(n_max)
    run = RunConfig(command="build-chacon", n_max=n_max)
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
        "run_config": run.to_jsonable(),
        "heights": list(system.heights),
        "covered": [format_lattice(0, d), format_lattice(system.high_water, d)],
        "towers": rows,
        "system": system_to_json(system),
    }
    _emit(report, out, csv_rows=rows)
    if out:  # table is wanted on screen even when the JSON goes to a file
        for r in rows:
            sys.stdout.write(
                f"order {r['order']}: height {r['height']}, "
                f"level width {r['level_width']}, mass {r['mass']}\n"
            )
    return EXIT_OK


def _load_cocycle_spec(path: str | None):
    if path is None:
        ref = resources.files("chaconlab").joinpath("data/indicator_cocycle.json")
        return cocycle_spec_from_json(json.loads(ref.read_text())), "bundled"
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return cocycle_spec_from_json(payload), path
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(f"cannot load cocycle spec {path}: {exc}")


def cmd_check_cocycle(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(getattr(args, "config", None))
    spec_path = _merge(args, file_cfg, "spec", None)
    n_scan = _merge(args, file_cfg, "n_scan", None)
    out = _merge(args, file_cfg, "out", None)
    spec, spec_name = _load_cocycle_spec(spec_path)

    cond_i = check_condition_i(spec, n_scan=n_scan)
    run = RunConfig(command="check-cocycle", spec=spec_name)
    report = {
        "version": __version__,
        "run_config": run.to_jsonable(),
        "n_scan": cond_i.n_scanned if n_scan is None else n_scan,
        "condition_i": cond_i.to_jsonable(),
        "condition_ii": check_condition_ii(spec),
        "holds": cond_i.holds,
    }
    _emit(report, out)
    return EXIT_OK if cond_i.holds else EXIT_FAIL


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
    return ks


def _parse_window(value) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse --window value {value!r}")


SUITES = ("poisson", "suspension", "joining", "all")


def cmd_verify(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(getattr(args, "config", None))
    suite = args.suite
    samples = _merge(args, file_cfg, "samples", None)
    seed = _merge(args, file_cfg, "seed", 0)
    alpha = _merge(args, file_cfg, "alpha", 0.01)
    window = _merge(args, file_cfg, "window", None)
    n_max = _merge(args, file_cfg, "n_max", 5)
    p_max = _merge(args, file_cfg, "p_max", 10_000)
    k = _parse_k(_merge(args, file_cfg, "k", "1,2"))
    workers = _merge(args, file_cfg, "workers", 1)
    out = _merge(args, file_cfg, "out", None)
    if samples is not None and samples < 1:
        raise UsageError("--samples must be at least 1")
    if p_max < 1:
        raise UsageError("--p-max must be at least 1")
    if workers < 1:
        raise UsageError("--workers must be at least 1")

    chosen = SUITES[:-1] if suite == "all" else (suite,)
    results = {}
    censoring_exceeded = False
    for name in chosen:
        if name == "poisson":
            results[name] = run_poisson_suite(
                n_samples=10_000 if samples is None else samples,
                seed=seed,
                alpha=alpha,
                window_hi=int(window) if window is not None else 30,
                workers=workers,
            )
        elif name == "suspension":
            rep = run_suspension_suite(
                n_samples=1200 if samples is None else samples,
                seed=seed,
                n_max=n_max,
                p_max=p_max,
                window_hi=_parse_window(window) if window is not None else Fraction(4),
                k_values=k,
                alpha=alpha,
                workers=workers,
            )
            results[name] = rep
            for per_k in rep["per_k"].values():
                if per_k["censored_fraction"] >= CENSOR_THRESHOLD:
                    censoring_exceeded = True
        elif name == "joining":
            results[name] = verify_joining(
                n_samples=10_000 if samples is None else samples,
                half_width=int(window) if window is not None else 50,
                seed=seed,
                alpha=alpha,
                workers=workers,
            )
    holds = all(r["holds"] for r in results.values())
    run = RunConfig(
        command="verify",
        suite=suite,
        n_max=n_max,
        k=k,
        p_max=p_max,
        window=str(window) if window is not None else None,
        samples=samples,
        seed=seed,
        alpha=alpha,
        workers=workers,
    )
    report = {
        "version": __version__,
        "run_config": run.to_jsonable(),
        "suites": results,
        "holds": holds,
    }
    rows = []
    for name, r in results.items():
        for block in ("tests", "marginal2"):
            if block in r:
                rows.extend(_test_rows(r[block]))
        if "dependence" in r and "p_value" in r.get("dependence", {}):
            rows.extend(_test_rows({"dependence": r["dependence"]}))
        if "mark_tests" in r:
            rows.extend(_test_rows(r["mark_tests"]))
    _emit(report, out, csv_rows=rows or None)
    if censoring_exceeded:
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
    b.add_argument("--n-max", dest="n_max", type=int, help="construction depth (default 4)")
    b.set_defaults(func=cmd_build_chacon)

    c = sub.add_parser("check-cocycle", parents=[common], help="check generation and unit-span conditions")
    c.add_argument("--spec", help="cocycle spec JSON (default: bundled indicator)")
    c.add_argument("--n-scan", dest="n_scan", type=int, help="stages to scan (default: auto)")
    c.set_defaults(func=cmd_check_cocycle)

    v = sub.add_parser("verify", parents=[common], help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    v.add_argument("--seed", type=int, help="master seed (default 0)")
    v.add_argument("--alpha", type=float, help="test level (default 0.01)")
    v.add_argument("--window", help="sampling window size (suite-specific default)")
    v.add_argument("--n-max", dest="n_max", type=int, help="construction depth (default 5)")
    v.add_argument("--p-max", dest="p_max", type=int, help="step budget (default 10000)")
    v.add_argument("--k", help="comma-separated prefix sizes (default 1,2)")
    v.add_argument("--workers", type=int, help="parallel workers (default 1)")
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
