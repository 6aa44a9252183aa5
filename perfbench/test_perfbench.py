"""Tests of the benchmark itself: the gate, the metric names, the failure mode.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SUSPENSION = bench.WORKLOADS["suspension-deep"]
TINY_SAMPLES = {"joining": 20, "suspension-deep": 20}


def report(**changes) -> dict:
    per_k = {
        "uncensored": 9,
        "conjugacy_failures": 0,
        "return_time_mismatches": 0,
        "phi_transport_failures": 0,
        "censored": {"DepthExceeded": 1},
        "censored_fraction": 0.1,
        "holds": True,
    }
    per_k.update(changes.pop("per_k", {}))
    doc = {"holds": True, "suites": {"suspension": {"samples": 10, "per_k": {"1": per_k}}}}
    doc.update(changes)
    return doc


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_gate_passes_a_clean_report():
    good = encode(report())
    assert bench.gate(SUSPENSION, 0, good, None) == []
    assert bench.gate(SUSPENSION, 0, good, good) == []
    assert bench.uncensored_fraction(good) == pytest.approx(0.9)


def flipped(data: bytes) -> bytes:
    # "samples": 10 becomes 11: still valid JSON, only the bytes differ
    i = data.index(b'"samples": 10') + len(b'"samples": 1')
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]


@pytest.mark.parametrize(
    "exit_code, doctored",
    [
        (0, encode(report(per_k={"conjugacy_failures": 1}))),
        (0, encode(report(holds=False))),
        (0, flipped(encode(report()))),
        (3, encode(report())),
    ],
    ids=["conjugacy_failure", "holds_false", "flipped_byte", "exit_code_3"],
)
def test_gate_rejects_doctored_reports(exit_code, doctored):
    assert bench.gate(SUSPENSION, exit_code, doctored, encode(report()))


def test_flipped_byte_fails_on_identity_alone():
    reasons = bench.gate(SUSPENSION, 0, flipped(encode(report())), encode(report()))
    assert reasons == ["report bytes differ from the first run's"]


def test_gate_rejects_missing_counters_and_heavy_censoring():
    no_counter = report()
    del no_counter["suites"]["suspension"]["per_k"]["1"]["conjugacy_failures"]
    assert bench.gate(SUSPENSION, 0, encode(no_counter), None)
    assert bench.gate(SUSPENSION, 0, encode(report(per_k={"censored_fraction": 0.5})), None)
    assert bench.gate(SUSPENSION, 0, b"not json", None)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_declared_metric_comes_out_with_its_unit(workload, trace):
    done = run_bench(
        bench.ROOT, "--workload", workload, "--seconds", "0", "--trace", trace,
        "--samples", str(TINY_SAMPLES[workload]),
    )
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads(bench.SPEC.read_text())["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert len(set(detail["report_sha256"])) == 1  # tracing changes no report byte
    if trace == "1":
        assert detail["counts_repeat"]
        assert not [p for p in detail["problems"] if p.startswith("layer split")]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench.BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = run_bench(tmp_path, "--workload", "joining", "--seed", "1")
    assert done.returncode != 0
    assert done.stdout == ""
