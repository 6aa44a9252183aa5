"""Benchmark of ``chaconlab verify``, run the way a user runs it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a chaconlab checkout.  Every measured run is one
``chaconlab verify`` subprocess started from the source tree with
``PYTHONPATH=src`` (through ``perfbench/child.py``, which also times the
call to ``chaconlab.cli.main``).  Runs go one at a time in a closed loop
with a single client until ``--seconds`` have passed; there is always at
least one.  ``--seed`` (default 0, the CLI's default) is passed to the CLI
as its master seed, so the same seed gives the same inputs.

Every run passes through the correctness gate (``gate``).  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds provenance, run counts, tail
percentiles and the SHA-256 of every report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics from runs with the span tracer (``tracer.py``)
installed, alternated with untraced runs that give the tracing overhead.
The metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import COLLECTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 3  # at least this many set-up probes per run
RUNS_PER_PROBE = 2
TRACED_RUNS = 2
CENSOR_THRESHOLD = 0.5  # the CLI exits 3 at this censored fraction
# Statistical test level.  At the CLI's default 0.01 a correct program
# fails a chance test on a few seeds in a hundred; at 1e-6 a failed gate
# means a regression.  The exact checks do not depend on it.
ALPHA = "1e-6"

SUSPENSION_COUNTERS = ("conjugacy_failures", "return_time_mismatches", "phi_transport_failures")
JOINING_COUNTERS = ("rank_tracking_failures", "equivariance_failures")
EXACT_COUNTERS = SUSPENSION_COUNTERS + JOINING_COUNTERS

# per-layer counts that must repeat exactly between traced runs of one seed
REPEATED_COUNTS = (
    "chacon.apply_T.calls",
    "suspension.push_forward.atom_steps",
    "cocycle.eval_phi.calls",
    "stats.keyed_draws",
    "joining.couple_marks.calls",
    "stats.make_rng.calls",
)


@dataclass(frozen=True)
class Workload:
    cli: tuple[str, ...]  # arguments after ``verify``, without --samples/--seed
    samples: int
    n_max: int  # depth the set-up probe builds: the run's --n-max or the CLI default
    counters: tuple[str, ...]  # exact-failure counters the report must carry
    zero_in_trace: tuple[str, ...]  # layer counts this workload must leave at 0


# The suspension workload lowers --p-max from the CLI's 10000 so that run
# time depends on the code rather than on the seed: return times cluster
# (under about 60 steps, then about 180, 1,090 and 6,530), and at 10000 the
# few samples per seed with a return in the thousands carried most of the
# atom-steps.  README.md gives the measurements.
WORKLOADS = {
    "joining": Workload(
        ("joining", "--window", "50", "--workers", "1"),
        1000, 5, JOINING_COUNTERS, ("chacon.apply_T.calls",),
    ),
    "suspension-deep": Workload(
        ("suspension", "--n-max", "7", "--window", "4", "--k", "1",
         "--p-max", "500", "--workers", "2"),
        560, 7, SUSPENSION_COUNTERS, (),
    ),
}


class BenchError(Exception):
    """The benchmark cannot measure at all (as opposed to a failed gate)."""


@dataclass
class Run:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    import_s: float | None
    main_s: float | None
    report: bytes
    trace_dir: Path | None  # set for a traced run


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + old if old else "")
    return env


def spawn(cmd: list[str], stdout) -> tuple[int, float, os.wait_result]:
    """Run cmd from the checkout root; return exit code, wall time, rusage.

    The rusage comes from ``os.wait4`` and covers the child plus every
    descendant it waited for (the pool workers), so CPU time adds up
    across processes and ``ru_maxrss`` is the largest of them.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=stdout, start_new_session=True
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_cli(argv: list[str], work: Path, trace: bool) -> Run:
    n = len(list(work.glob("report-*.json")))
    report_path = work / f"report-{n}.json"
    timing_path = work / f"timing-{n}.json"
    trace_dir = None
    if trace:
        trace_dir = work / f"trace-{n}"
        trace_dir.mkdir()
    cmd = [sys.executable, str(CHILD), "run", str(timing_path),
           str(trace_dir) if trace else "-", "--", *argv]
    with open(report_path, "wb") as out:
        code, wall, usage = spawn(cmd, out)
    timing = json.loads(timing_path.read_text()) if timing_path.exists() else {}
    return Run(
        exit_code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports kB
        import_s=timing.get("import_s"),
        main_s=timing.get("main_s"),
        report=report_path.read_bytes(),
        trace_dir=trace_dir,
    )


def probe(args: list[str]) -> tuple[float, bytes]:
    """Run a child.py probe; return its wall time and stdout."""
    with tempfile.TemporaryFile(dir=BENCH / ".work") as out:
        code, wall, _ = spawn([sys.executable, str(CHILD), *args], out)
        out.seek(0)
        text = out.read()
    if code != 0:
        raise BenchError(f"probe {' '.join(args)} exited with {code}")
    return wall, text


# -- correctness gate -------------------------------------------------------


def _walk(node, key: str):
    """Every value stored under ``key`` anywhere in a JSON tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                yield v
            yield from _walk(v, key)
    elif isinstance(node, list):
        for v in node:
            yield from _walk(v, key)


def gate(workload: Workload, exit_code: int, report: bytes, reference: bytes | None) -> list[str]:
    """Reasons a run fails the correctness gate; empty when it passes.

    A run passes only with exit code 0, ``holds: true``, every
    exact-failure counter present and zero, every censored fraction
    below the CLI's threshold, and report bytes equal to ``reference``
    (the workload's first report with this seed) when one is given.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if reference is not None and report != reference:
        problems.append("report bytes differ from the first run's")
    try:
        doc = json.loads(report)
    except ValueError:
        return problems + ["report is not JSON"]
    if not isinstance(doc, dict) or doc.get("holds") is not True:
        problems.append("holds is not true")
    for counter in EXACT_COUNTERS:
        values = list(_walk(doc, counter))
        if counter in workload.counters and not values:
            problems.append(f"{counter} missing")
        if any(v != 0 for v in values):
            problems.append(f"{counter} = {values}")
    for fraction in _walk(doc, "censored_fraction"):
        if not fraction < CENSOR_THRESHOLD:
            problems.append(f"censored_fraction {fraction} >= {CENSOR_THRESHOLD}")
    return problems


def uncensored_fraction(report: bytes) -> float:
    """1 - censored (sample, k) pairs / attempted pairs; 1 where nothing censors."""
    try:
        doc = json.loads(report)
        suites = doc["suites"].values()
    except (ValueError, KeyError, AttributeError):
        return 0.0
    pairs = censored = 0
    for suite in suites:
        per_k = suite.get("per_k", {})
        pairs += suite.get("samples", 0) * len(per_k)
        censored += sum(sum(t["censored"].values()) for t in per_k.values())
    return 1.0 - censored / pairs if pairs else 1.0


# -- per-layer metrics from merged traces ------------------------------------


def merge_traces(trace_dir: Path) -> dict:
    merged = {"totals": {}, "counts": {}, "spans": [], "samples": []}
    for path in sorted(trace_dir.glob("trace-*.json")):
        part = json.loads(path.read_text())
        for name, (calls, total, own) in part["totals"].items():
            rec = merged["totals"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for name, value in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        merged["spans"].extend(part["spans"])
        merged["samples"].extend(part["samples"])
    return merged


def _nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def layer_metrics(trace: dict) -> dict[str, float]:
    totals, counts = trace["totals"], trace["counts"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    spans = {}
    for span_id, name, start, end, parent in trace["spans"]:
        spans.setdefault(name, []).append((span_id, start, end, parent))
    by_id = {s[0]: s for group in spans.values() for s in group}
    fan_outs = spans.get("parallel.fan_out", [])
    ranges = [s for name in COLLECTS for s in spans.get(name, [])]
    busy = [end - start for _, start, end, _ in ranges] or [0.0]
    sample_ms = [(end - start) * 1e3 for _, start, end in trace["samples"]] or [0.0]
    atom_steps = counts.get("atom_steps", 0)
    base = counts.get("trajectory_atom_steps", 0)
    tests = ("stats.ks_exponential", "stats.chi2_poisson", "stats.chi2_gof",
             "stats.chi2_independence", "stats.mc_mean")
    return {
        "chacon.build_system.calls": calls("chacon.build_system"),
        "chacon.build_system.s": ratio(total_s("chacon.build_system"), calls("chacon.build_system")),
        "chacon.apply_T.calls": calls("chacon.apply_T"),
        "chacon.apply_T.us_per_call": ratio(total_s("chacon.apply_T") * 1e6, calls("chacon.apply_T")),
        "chacon.apply_T.self_s": self_s("chacon.apply_T"),
        "cocycle.eval_phi.calls": calls("cocycle.eval_phi"),
        "cocycle.eval_phi.us_per_call": ratio(total_s("cocycle.eval_phi") * 1e6, calls("cocycle.eval_phi")),
        "cocycle.phi_iter.self_s": self_s("cocycle.phi_iter"),
        "suspension.sample_poisson.calls": calls("suspension.sample_poisson"),
        "suspension.sample_poisson.us_per_atom": ratio(
            total_s("suspension.sample_poisson") * 1e6, counts.get("sampled_atoms", 0)),
        "suspension.push_forward.atom_steps": atom_steps,
        "suspension.push_forward.self_us_per_atom_step": ratio(
            self_s("suspension.push_forward") * 1e6, atom_steps),
        "suspension.push_forward.redundancy": ratio(atom_steps, base),
        "suspension.push_forward.redundancy_base": base,
        "suspension.return_time_N_k.self_s": self_s("suspension.return_time_N_k"),
        "suspension.induced_return.self_s": self_s("suspension.induced_return"),
        "suspension.skew_apply_group.self_s": self_s("suspension.skew_apply_group"),
        "suspension.phi_k_vector.self_s": self_s("suspension.phi_k_vector"),
        "joining.sample_biconfig.us_per_call": ratio(
            total_s("joining.sample_biconfig") * 1e6, calls("joining.sample_biconfig")),
        "joining.couple_marks.calls": calls("joining.couple_marks"),
        "joining.couple_marks.self_s": self_s("joining.couple_marks"),
        "joining.advance_joint.self_s": self_s("joining.advance_joint"),
        "joining.rank_tracking_consistent.self_s": self_s("joining.rank_tracking_consistent"),
        "stats.keyed_draws": calls("stats.keyed_draw"),
        "stats.keyed_draw.ns_per_draw": ratio(total_s("stats.keyed_draw") * 1e9, calls("stats.keyed_draw")),
        "stats.make_rng.calls": calls("stats.make_rng"),
        "stats.tests.s": sum(total_s(name) for name in tests),
        "suites.sample_ms.p50": _nearest_rank(sample_ms, 50),
        "suites.sample_ms.p99": _nearest_rank(sample_ms, 99),
        "suites.sample_ms.max": max(sample_ms),
        # forked workers start with an empty stack, so a range belongs to
        # the fan-out whose interval holds its start
        "parallel.startup_s": sum(
            min((r[1] for r in ranges if f[1] <= r[1] <= f[2]), default=f[1]) - f[1]
            for f in fan_outs),
        "parallel.worker_busy_s.max": max(busy),
        "parallel.imbalance": ratio(max(busy), statistics.fmean(busy)),
        "suites.reduce_s": sum(by_id[f[3]][2] - f[2] for f in fan_outs if f[3] in by_id),
        "cli.emit_s": total_s("cli.emit"),
    }


# -- the two passes ---------------------------------------------------------


def closed_loop(run_once, seconds: float, minimum: int = 1) -> list[Run]:
    deadline = time.perf_counter() + seconds
    runs = [run_once(i) for i in range(minimum)]
    while time.perf_counter() < deadline:
        runs.append(run_once(len(runs)))
    return runs


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten runs beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "runs": n, "tail": None}
    if n > 10:
        pct = math.floor(100 * (1 - 10 / n))
        if pct > 50:
            out["tail"] = {"percentile": pct, "value": _nearest_rank(values, pct)}
    return out


def gate_runs(workload: Workload, runs: list[Run]) -> tuple[list[str], int]:
    """Gate every run against the first one's report; (problems, failed runs)."""
    problems, failed = [], 0
    for i, run in enumerate(runs):
        reasons = gate(workload, run.exit_code, run.report, runs[0].report if i else None)
        if run.main_s is None:
            reasons.append("no timing written")
        problems.extend(f"run {i}: {r}" for r in reasons)
        failed += bool(reasons)
    return problems, failed


def timed_pass(workload: Workload, argv: list[str], samples: int, seconds: float, work: Path):
    # One untimed probe first: it compiles the package's bytecode and warms
    # the file cache, so the first timed process pays neither.  Then the
    # set-up probes go between the CLI runs, one before every RUNS_PER_PROBE
    # runs, so that both sample the same stretch of the machine's speed.
    probe(["setup", str(workload.n_max)])
    setup, runs = [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        if len(runs) % RUNS_PER_PROBE == 0:
            setup.append(probe(["setup", str(workload.n_max)])[0])
        runs.append(run_cli(argv, work, trace=False))
    while len(setup) < SETUP_RUNS:
        setup.append(probe(["setup", str(workload.n_max)])[0])
    problems, failed = gate_runs(workload, runs)
    rates = [samples / r.main_s for r in runs if r.main_s]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setup),
        "samples_per_s": statistics.median(rates) if rates else 0.0,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "uncensored_fraction": uncensored_fraction(runs[0].report),
    }
    detail = {
        "timings": {
            "wall_s": tail([r.wall_s for r in runs]),
            "setup_s": tail(setup),
            "samples_per_s": tail(rates) if rates else None,
            "cpu_s": tail([r.cpu_s for r in runs]),
        },
        "peak_rss_mb_max": max(r.rss_mb for r in runs),
    }
    return runs, problems, failed, metrics, detail


def traced_pass(workload: Workload, argv: list[str], samples: int, seconds: float, work: Path):
    system_mb = float(probe(["system-mb", str(workload.n_max)])[1])
    probe(["setup", str(workload.n_max)])  # warm-up, as in timed_pass

    def run_once(i):  # untraced, traced, traced, then alternate
        return run_cli(argv, work, trace=i in (1, 2) or (i > 2 and i % 2 == 0))

    runs = closed_loop(run_once, seconds, minimum=1 + TRACED_RUNS)
    problems, failed = gate_runs(workload, runs)
    traced = [r for r in runs if r.trace_dir]
    layers = [layer_metrics(merge_traces(r.trace_dir)) for r in traced]
    first = {name: layers[0][name] for name in REPEATED_COUNTS}
    for i, layer in enumerate(layers[1:], start=1):
        for name in REPEATED_COUNTS:
            if layer[name] != first[name]:
                problems.append(f"traced run {i}: {name} {layer[name]} != {first[name]}")
    for name in workload.zero_in_trace:
        if first[name] != 0:
            problems.append(f"layer split: {name} = {first[name]}, expected 0")
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        # counts that repeat stay whole numbers
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["chacon.system_mb"] = system_mb
    metrics["cli.import_s"] = statistics.median(r.import_s for r in traced if r.import_s)
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in runs if not r.trace_dir)
    detail = {
        "traced_runs": len(traced),
        "untraced_runs": len(runs) - len(traced),
        "repeated_counts": first,
        "counts_repeat": not any(p.startswith("traced run") for p in problems),
    }
    return runs, problems, failed, metrics, detail


# -- entry point --------------------------------------------------------------


def provenance() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="override the workload's sample count (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chaconlab" / "cli.py").is_file():
        print(f"perfbench: no chaconlab source tree under {ROOT}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    units = declared_metrics(bool(args.trace))
    seconds = args.seconds if args.seconds is not None else json.loads(SPEC.read_text())["run_seconds"]
    workload = WORKLOADS[args.workload]
    samples = args.samples or workload.samples
    argv_cli = ["verify", *workload.cli, "--samples", str(samples),
                "--seed", str(args.seed), "--alpha", ALPHA]

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        measure = traced_pass if args.trace else timed_pass
        runs, problems, failed, metrics, detail = measure(workload, argv_cli, samples, seconds, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}")
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        cli_args=argv_cli,
        samples={name: w.samples for name, w in WORKLOADS.items()} | {args.workload: samples},
        provenance=provenance(),
        attempted=len(runs),
        failed=failed,
        failed_fraction=failed / len(runs),
        report_sha256=[hashlib.sha256(r.report).hexdigest() for r in runs],
        problems=problems,
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
