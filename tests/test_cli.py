"""Command-line interface: exit codes, report plumbing, config precedence."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import chaconlab
from chaconlab import __version__
from chaconlab.chacon import build_system, tower_heights
from chaconlab.cli import (
    EXIT_CENSORED,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from chaconlab.cocycle import (
    FinAbGroup,
    cocycle_spec_to_json,
    single_spacer_indicator,
    zero_cocycle,
)


def run_json(capsys, argv):
    """Run main() and parse its stdout as a single JSON document."""
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def report_digest(doc: dict) -> str:
    """SHA-256 of json.dumps(report, sort_keys=True) without "version", which
    reads the installed package's version."""
    doc = {k: v for k, v in doc.items() if k != "version"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _fresh_python(code: str, **env_vars: str) -> str:
    """Run code in a fresh interpreter that finds chaconlab, with OPENBLAS_NUM_THREADS
    unset unless given; return its stdout."""
    src = Path(chaconlab.__file__).resolve().parents[1]
    # this process imported chaconlab.cli, so its own environment holds the default
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(src), **env_vars)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()


def _import_cli(code: str, **env_vars: str) -> str:
    """Run code after a fresh `import chaconlab.cli`; return its stdout."""
    return _fresh_python("import os, sys, chaconlab.cli\n" + code, **env_vars)


# the scipy.special functions chaconlab.stats calls
SPECIAL_UFUNCS = ("chdtrc", "expm1", "gammaln", "kolmogorov", "ndtr", "pdtr", "pdtrik", "xlogy")


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats takes about a second on every run; p-values need only scipy.special
    code = "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    assert _import_cli(code) == "[]"


def test_cli_import_loads_the_special_ufuncs_without_the_package():
    # the scipy.special package import, through its array-API support, was more
    # than half of the start-up; the package imported later shares the ufuncs
    code = textwrap.dedent(f"""
        print([m for m in ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.random")
               if m in sys.modules])
        from chaconlab import stats
        from scipy import special
        print([n for n in {SPECIAL_UFUNCS!r} if getattr(special, n) is not getattr(stats.special, n)])
    """)
    assert _import_cli(code).splitlines() == ["['numpy.random']", "[]"]


def test_cli_main_imports_no_numpy_or_scipy_module():
    # numpy imports numpy.random lazily: a first draw inside main would pay
    # for it in every run, and again in every forked worker
    code = textwrap.dedent("""
        import contextlib, io
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["joining", "--samples", "100"], ["suspension", "--samples", "40"],
                         ["poisson", "--samples", "200"]):
                chaconlab.cli.main(["verify", *argv, "--workers", "1"])
        print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy")))
    """)
    assert _import_cli(code) == "[]"


@pytest.mark.parametrize("prelude, package", [
    # the direct load fails: stats falls back to the package import
    ("import importlib.util\n"
     "def refuse(*args, **kwargs):\n"
     "    raise ImportError('refused')\n"
     "importlib.util.spec_from_file_location = refuse", "scipy.special"),
    # scipy.special is already imported: stats reuses it
    ("import scipy.special", "scipy.special"),
    # the direct load, which the in-process pins miss once a test imported scipy.special
    ("", "scipy.special._ufuncs"),
], ids=["fallback", "reuse", "direct"])
def test_stats_special_paths_keep_the_pinned_reports(prelude, package):
    digests = {tuple(argv): digest for argv, digest in PINNED_SUITES}
    runs = [("joining", "--samples", "100"), ("suspension", "--samples", "40")]
    code = prelude + "\n" + textwrap.dedent(f"""
        import contextlib, hashlib, io, json, sys
        import chaconlab.cli
        from chaconlab import stats
        print(stats.special is sys.modules[{package!r}])
        for argv in {runs!r}:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                chaconlab.cli.main(["verify", *argv])
            text = json.dumps(json.loads(out.getvalue())["suites"], sort_keys=True)
            print(hashlib.sha256(text.encode()).hexdigest())
    """)
    assert _fresh_python(code).splitlines() == ["True", *(digests[argv] for argv in runs)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_openblas_threads():
    # no command does BLAS work; each OpenBLAS worker thread spins at load
    assert _import_cli("print(len(os.listdir('/proc/self/task')))") == "1"


def test_cli_import_keeps_the_users_openblas_threads():
    code = "print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _import_cli(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_build_chacon_stdout_is_pure_json(capsys):
    rc, doc = run_json(capsys, ["build-chacon", "--n-max", "2"])
    assert rc == EXIT_OK
    assert doc["heights"] == tower_heights(2)
    assert doc["covered"] == ["0", "8/3"]
    assert len(doc["towers"]) == build_system(2).n_max
    assert doc["run_config"]["command"] == "build-chacon"
    assert doc["version"] == __version__


def test_build_chacon_out_writes_json_csv_and_table(tmp_path, capsys):
    out = tmp_path / "towers.json"
    rc = main(["build-chacon", "--n-max", "2", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["heights"] == [1, 8]
    with open(tmp_path / "towers.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["order"]) for r in rows] == [1, 2]
    assert rows[1]["height"] == "8"
    # the human-readable table still lands on the screen
    assert "order 1: height 1" in capsys.readouterr().out


def test_build_chacon_rejects_bad_depth():
    with pytest.raises(SystemExit) as exc:
        main(["build-chacon", "--n-max", "0"])
    assert exc.value.code == EXIT_USAGE


def test_check_cocycle_bundled_passes(capsys):
    rc, doc = run_json(capsys, ["check-cocycle"])
    assert rc == EXIT_OK
    assert doc["holds"] is True
    assert doc["condition_i"]["holds"] is True
    assert doc["n_scan"] == doc["condition_i"]["n_scanned"]
    assert doc["condition_ii"] == {
        "stage": 2,
        "vectors": [[25, [0]], [26, [0]]],
        "certificate": [-1, 1],
    }


def test_check_cocycle_zero_spec_fails(tmp_path, capsys):
    spec = zero_cocycle(FinAbGroup((2,)))
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cocycle_spec_to_json(spec)))
    rc, doc = run_json(capsys, ["check-cocycle", "--spec", str(path)])
    assert rc == EXIT_FAIL
    assert doc["holds"] is False
    assert doc["condition_i"]["holds"] is False


BUNDLED_SPEC = cocycle_spec_to_json(single_spacer_indicator(1))


def _zero_spec(*factors) -> dict:
    return cocycle_spec_to_json(zero_cocycle(FinAbGroup(factors)))


# SHA-256 of json.dumps(report["condition_i"], sort_keys=True) and the exit
# code, pinned while condition (ii) was still decided by an integer span
# solver; spec None runs the bundled spec
PINNED_COCYCLES = [
    pytest.param(None, EXIT_OK,
                 "9920f82c6000bb294e3b9636d04718a81bf3fa4a5253255b947a0a4e89695c81",
                 id="bundled"),
    pytest.param(_zero_spec(2), EXIT_FAIL,
                 "b7441f005d8f2f502aead8796187724c526769acae76dcd261a58091bff4f650",
                 id="zero-Z2"),
    pytest.param(_zero_spec(3), EXIT_FAIL,
                 "8ba2398c67e0651539f9f0088ec8121ecce5ad53a1693cae4ec0b15a19260a93",
                 id="zero-Z3"),
    pytest.param(_zero_spec(2, 2), EXIT_FAIL,
                 "c4227957610eb030071cdac101e48057b0970845c08dc9ca6489a50f80d69b5d",
                 id="zero-Z2xZ2"),
    pytest.param(_zero_spec(4, 6), EXIT_FAIL,
                 "aaf7f7fcf2e39a0d3aed79587207a48fc36646faeef8d0fc3193da8148ac9944",
                 id="zero-Z4xZ6"),
    pytest.param({**BUNDLED_SPEC, "zero_beyond": 20}, EXIT_OK,
                 "c63625629bff88d423a7ee655ef51d7846a3de630b12a5e6b1757adaca5db3be",
                 id="bundled-zero-beyond-20"),
]


@pytest.mark.parametrize("spec, code, digest", PINNED_COCYCLES)
def test_check_cocycle_matches_pinned_hash(tmp_path, capsys, spec, code, digest):
    argv = ["check-cocycle"]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv += ["--spec", str(path)]
    rc, doc = run_json(capsys, argv)
    assert rc == code
    text = json.dumps(doc["condition_i"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of json.dumps(report, sort_keys=True) without "version", and the
# exit code: n_scan, holds and condition (ii) as well as condition (i)
PINNED_COCYCLE_REPORTS = [
    pytest.param([], EXIT_OK,
                 "b37055f57b5623243113f523ed17bea145670fd6118ef2961ad1eae0bba76283",
                 id="bundled"),
    pytest.param(["--n-scan", "3"], EXIT_OK,
                 "b37055f57b5623243113f523ed17bea145670fd6118ef2961ad1eae0bba76283",
                 id="n-scan-3"),
    pytest.param(["--n-scan", "1"], EXIT_OK,
                 "3e9db1e048fc012a233a15df1d9ecbf2e72530d837886a7c8ce828d834cc49fd",
                 id="n-scan-1"),
    pytest.param(["--spec", "spec.json"], EXIT_FAIL,
                 "112885d76830df59fd75faca1d25866fe0af50066e182fc6992c589c56234f9d",
                 id="zero-Z2"),
]


@pytest.mark.parametrize("args, code, digest", PINNED_COCYCLE_REPORTS)
def test_check_cocycle_report_matches_pinned_hash(tmp_path, monkeypatch, capsys, args, code, digest):
    monkeypatch.chdir(tmp_path)  # the spec path lands in run_config
    Path("spec.json").write_text(json.dumps(_zero_spec(2)))
    rc, doc = run_json(capsys, ["check-cocycle", *args])
    assert rc == code
    assert report_digest(doc) == digest


def test_check_cocycle_report_stays_small_for_a_late_cutoff(tmp_path):
    # the report once held every stage's span generators: 75 MB at zero_beyond 400
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**BUNDLED_SPEC, "zero_beyond": 400}))
    out = tmp_path / "report.json"
    assert main(["check-cocycle", "--spec", str(path), "--out", str(out)]) == EXIT_OK
    assert out.stat().st_size < 64 * 1024
    assert json.loads(out.read_text())["condition_ii"]["stage"] == 401


def test_check_cocycle_at_the_largest_cutoff_keeps_its_bytes(tmp_path, monkeypatch, capsys):
    # the certificate's integers have about 0.78 * zero_beyond digits; at
    # 5525 json.dumps still writes them
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps({**BUNDLED_SPEC, "zero_beyond": 5525}))
    rc, doc = run_json(capsys, ["check-cocycle", "--spec", "spec.json"])
    assert rc == EXIT_OK
    assert report_digest(doc) == "e9e667d909700653392021a9998d6670d81c983883952a8c0a9e7b11a5348e77"


@pytest.mark.parametrize("zero_beyond", [5526, 10**9])
def test_check_cocycle_refuses_a_cutoff_past_the_limit(tmp_path, capsys, zero_beyond):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**BUNDLED_SPEC, "zero_beyond": zero_beyond}))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["check-cocycle", "--spec", str(path)])
    assert time.perf_counter() - start < 2.0  # no tower of 10**9 heights is built
    assert exc.value.code == EXIT_USAGE
    assert "zero_beyond must be at most 5525" in capsys.readouterr().err


def test_check_cocycle_missing_spec_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check-cocycle", "--spec", str(tmp_path / "nope.json")])
    assert exc.value.code == EXIT_USAGE


def test_check_cocycle_malformed_spec_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(SystemExit) as exc:
        main(["check-cocycle", "--spec", str(path)])
    assert exc.value.code == EXIT_USAGE


def test_verify_poisson_small_run_passes(capsys):
    rc, doc = run_json(
        capsys, ["verify", "poisson", "--samples", "400", "--seed", "1"]
    )
    assert rc == EXIT_OK
    assert doc["holds"] is True
    assert doc["run_config"]["samples"] == 400
    assert doc["run_config"]["suite"] == "poisson"
    assert all(t["passed"] for t in doc["suites"]["poisson"]["tests"].values())


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == EXIT_USAGE


def test_verify_rejects_bad_k():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "suspension", "--k", "1,x"])
    assert exc.value.code == EXIT_USAGE


def test_verify_suspension_below_floor_fails(capsys):
    # 60 samples cannot reach the 500-uncensored floor, but censoring stays low
    rc, doc = run_json(
        capsys, ["verify", "suspension", "--samples", "60", "--seed", "0"]
    )
    assert rc == EXIT_FAIL
    rep = doc["suites"]["suspension"]
    for per_k in rep["per_k"].values():
        assert per_k["censored_fraction"] < 0.5
        assert per_k["conjugacy_failures"] == 0
        assert per_k["return_time_mismatches"] == 0
    assert doc["holds"] is False


def test_verify_suspension_heavy_censoring_sets_exit_code(capsys):
    # a window of 1/4 leaves most samples with no atoms at all
    rc, doc = run_json(
        capsys,
        ["verify", "suspension", "--samples", "60", "--seed", "0",
         "--window", "1/4", "--k", "1"],
    )
    assert rc == EXIT_CENSORED
    per_k = doc["suites"]["suspension"]["per_k"]["1"]
    assert per_k["censored_fraction"] >= 0.5
    assert per_k["censored"].get("TooFewAtoms", 0) > 0


def test_verify_out_writes_csv_rows_and_keeps_stdout_quiet(tmp_path, capsys):
    out = tmp_path / "poisson.json"
    rc = main(
        ["verify", "poisson", "--samples", "300", "--seed", "2", "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["holds"] is True
    with open(tmp_path / "poisson.csv") as fh:
        rows = list(csv.DictReader(fh))
    names = {r["test"] for r in rows}
    assert "t1_exponential" in names
    assert "superposition_counts" in names
    for r in rows:
        float(r["p_value"])  # every row carries a parseable p-value


@pytest.mark.parametrize("argv", [["build-chacon", "--n-max", "2"], ["verify", "poisson"]])
@pytest.mark.parametrize("from_file", [False, True])
def test_out_ending_in_csv_is_refused_before_running(tmp_path, capsys, argv, from_file):
    # the CSV twin of report.csv would be report.csv.csv, beside a JSON report.csv
    out = str(tmp_path / "report.csv")
    if from_file:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": out}))
        argv = argv + ["--config", str(cfg)]
    else:
        argv = argv + ["--out", out]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == (["run.json"] if from_file else [])


def test_config_file_fills_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": 250, "seed": 9}))
    rc, doc = run_json(
        capsys,
        ["verify", "poisson", "--config", str(cfg), "--samples", "300"],
    )
    assert rc == EXIT_OK
    assert doc["run_config"]["samples"] == 300  # flag beats file
    assert doc["run_config"]["seed"] == 9  # file beats default


def test_config_file_must_be_object(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "poisson", "--config", str(cfg)])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "entry",
    [{"samples": "5"}, {"seed": "x"}, {"seed": 1.5}, {"p_max": "x"}, {"window": [1]}],
)
def test_config_file_value_of_wrong_type_is_usage_error(tmp_path, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "suspension", "--config", str(cfg)])
    assert exc.value.code == EXIT_USAGE


def test_same_run_config_reruns_byte_identical(tmp_path):
    argv = ["verify", "joining", "--samples", "120", "--window", "12",
            "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_verify_all_runs_every_suite(capsys):
    # tiny sample count: poisson and joining pass, suspension misses its floor
    rc, doc = run_json(
        capsys, ["verify", "all", "--samples", "60", "--seed", "0"]
    )
    assert rc == EXIT_FAIL
    assert set(doc["suites"]) == {"poisson", "suspension", "joining"}
    assert doc["suites"]["poisson"]["holds"] is True
    assert doc["suites"]["suspension"]["holds"] is False


def test_starved_statistics_report_as_usage_error():
    # a unit window rarely yields 6 atoms, so the gap test has no data
    with pytest.raises(SystemExit) as exc:
        main(["verify", "poisson", "--samples", "40", "--window", "1"])
    assert exc.value.code == EXIT_USAGE


# SHA-256 of json.dumps(report["suites"], sort_keys=True) for small runs.
# Pinned before the suspension walk and the fan-out merge were rewritten;
# the last two suspension runs censor for every reason the suite knows.
PINNED_SUITES = [
    (["poisson", "--samples", "200"],
     "43f4452ea1b2861e7452911ec2ed6234cd7590288016bc8dd3b7a9529e7ff7d4"),
    (["suspension", "--samples", "40"],
     "7064d5984d53d3e46f3f0c4ae846fd7db88f764678073b3396e01091fcef7efb"),
    (["joining", "--samples", "100"],
     "376b790d064c9258bdb0db028fec8761222d56328aa3b8e337a3c7faee11cdec"),
    (["all", "--samples", "60"],
     "cfde5999761851155618b4cf167e8e107c62a9dc1ecb2af844b51ed2e45d8975"),
    (["suspension", "--samples", "60", "--n-max", "3", "--p-max", "10",
      "--window", "5", "--k", "0,1,2,3"],
     "d74e3885d6f583c390ca4b017e78853f76235ff146ee92dd4da124c309970132"),
    (["suspension", "--samples", "60", "--n-max", "2", "--p-max", "2",
      "--window", "2", "--k", "0,1,2,3"],
     "315649716a587fc80275b2e3060105079dedc1a9ac4f32122a79946caff54d15"),
    # pinned before positions moved from Fractions to lattice integers: the
    # benchmark's depth-7 run, and a window whose end is off the lattice
    (["suspension", "--samples", "40", "--n-max", "7", "--window", "4", "--k", "1",
      "--p-max", "500"],
     "ed7d87c5272163b8f3e845c11068255a115ca02860066b1300d346620d6624e5"),
    (["suspension", "--samples", "60", "--n-max", "3", "--window", "10/7"],
     "f5389189bc2cf92af8bf96f9b8d0ab232373a5d9767efdbad0fa4a6913578b12"),
    # pinned before the joining suite moved to arrays: the widest window
    # with int64 positions, one past it (object positions), and a mid size
    (["joining", "--window", "1022", "--samples", "4"],
     "1e72ded54a583d2e04e84c20d6f0e1417ee2590f8fd014314874a2fe0776efc8"),
    (["joining", "--window", "1100", "--samples", "4"],
     "dc47c4687ba09fbf562661ff7f4fa58ba9c0ea0058fc82bfdcb52e3e7f855478"),
    (["joining", "--window", "12", "--samples", "120"],
     "b517d5c1caeaebb9413b06b18e66d59ab5f86e9593a721744b1f753f06a5b22f"),
    # pinned before the joining suite moved to blocks of samples: the
    # benchmark's run at two seeds, a window with 591 empty-side resamples,
    # and a sample count whose two-worker split falls inside a block
    (["joining", "--window", "50", "--samples", "1000", "--alpha", "1e-6", "--seed", "0"],
     "2b44e722a161c059ff576a799880c11fb34357aca17ba2a7d04f1b66f340a08e"),
    (["joining", "--window", "50", "--samples", "1000", "--alpha", "1e-6", "--seed", "7"],
     "4022ca942ed6e866330af55be3b9cef782562c51dae358c91e0c595d9ef867cb"),
    (["joining", "--window", "1", "--samples", "200"],
     "9bbaf454069c31c889d7a112e72798a8b8712f1f2df57fa6a893cbdd0f4c9098"),
    (["joining", "--samples", "130"],
     "b46c3afc2d88df75f62dd682ac032b033f6c0d4f8139224d2c995a1257667d23"),
    # pinned before the suspension walk moved to tower coordinates: depth 8
    # at the default p_max (seed 3 reaches returns of 1,090 and 6,548 steps
    # and two budget overruns), depth 12, the benchmark's depth-7 run at two
    # seeds, 150 samples (a two-worker split inside a block), a wide window,
    # and depth 25, whose orbit keys do not fit in int64
    (["suspension", "--n-max", "8", "--k", "1,2", "--seed", "3", "--samples", "60"],
     "cf69b30d7e8481206e1087c3be6f7f6ee6585a9e792c6c5f256a9b66bf7484c5"),
    (["suspension", "--n-max", "12", "--k", "1,2", "--samples", "66"],
     "3d0268462f21a69a22a4076630bba762650bd813a8b237b73c84c4672b134a83"),
    (["suspension", "--n-max", "7", "--window", "4", "--k", "1", "--p-max", "500",
      "--samples", "560", "--alpha", "1e-6", "--seed", "0"],
     "2c32884b86021968721666a324a3ea31deff7d3ef62236ae44fdc5cb67ad8a6e"),
    (["suspension", "--n-max", "7", "--window", "4", "--k", "1", "--p-max", "500",
      "--samples", "560", "--alpha", "1e-6", "--seed", "7"],
     "bbbe1f93fc251ed508cadbf0243a993d10f479ff29d03339825eb393e6032ec1"),
    (["suspension", "--n-max", "5", "--samples", "150"],
     "763c8a4b934b4a1c13a395339926b857b6c2a20df3b6e773d3dc1922ccea47a7"),
    (["suspension", "--n-max", "6", "--window", "40", "--k", "1,2,3", "--p-max", "300",
      "--samples", "30"],
     "6c87c64cd4c2447916ec8c09561c813d05c99cc99650830ab7bd069932c52c17"),
    (["suspension", "--n-max", "25", "--k", "1,2", "--samples", "30", "--p-max", "2000"],
     "d62942f8743d9af3a23741d5137df69dd8c9cce586de074c9853879b910dd431"),
    # pinned before the block loop moved into fan_out: 2000 samples on a
    # short window (its gap test rejects, since skipping windows of under six
    # atoms biases the gaps short), 150 samples (a two-worker split inside a
    # block), and a window whose lattice positions pass int64
    (["poisson", "--samples", "2000", "--window", "10", "--seed", "3"],
     "26b0282586f3a9628176a406c336ab86078edd081956fd4065a0938410041e37"),
    (["poisson", "--samples", "150"],
     "31ac4069d2af2e4af63aed05c653d57be073a05d049f64beff8d69277328da7c"),
    (["poisson", "--samples", "40", "--window", "1100"],
     "369624b2143aa3af825399947a68406368b316af135d487cd9377ee21bd20ff4"),
    # pinned before positions moved to an int64 cell and a 53-bit offset: a
    # bound of exactly 2**63 lattice units (then summed in uint64 and held as
    # Python ints), a window whose sums of 53-bit parts wrap uint64, and
    # joining one past the widest window of int64 numerators
    (["poisson", "--samples", "40", "--window", "1024"],
     "2d526c4843c11d5a357d82a2f7d7db70f865c288c7af5bb36ea4fe172773866c"),
    (["poisson", "--samples", "20", "--window", "5000"],
     "bf41f6dce3637e9a56b7704d3e7d3e1a29b2ec179923a2f3a8ec55f2f5c3de12"),
    (["joining", "--samples", "4", "--window", "1023"],
     "8c398bb8587dae2d000f197865c87d7d51a62570a9bdff886cac0de76ba8791c"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, digest", PINNED_SUITES)
def test_verify_suites_match_pinned_hashes(capsys, argv, digest, workers):
    main(["verify", *argv, "--workers", workers])
    doc = json.loads(capsys.readouterr().out)
    text = json.dumps(doc["suites"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# report_digest of the build-chacon report; the digests of the whole stdout,
# version included, were pinned while the tower still stored every level as
# a pair of Fractions, and both accepted the same output when these replaced them
PINNED_BUILDS = {
    1: "286bcb5382a4cb728efd284b39d63fd1979971c05939a8225f36480d479f2079",
    2: "e006272c3c42464854ee948e7fca6b5a612f0f7bea1b5d50c1b6161ce231b97b",
    3: "b4dc71a434da11e3a99a0e544556fdea3c184bb27e90dd8732f38bedb069c2be",
    4: "46a63cdc402216f43d41504fcd3e60786d5b6691998f4a67027fa8ac69937c92",
    5: "621c9c60a7211aaa02d502b8a60a0674ac1e73a4475e371db566e1341629508c",
}


@pytest.mark.parametrize("n_max, digest", sorted(PINNED_BUILDS.items()))
def test_build_chacon_matches_pinned_hash(capsys, n_max, digest):
    rc, doc = run_json(capsys, ["build-chacon", "--n-max", str(n_max)])
    assert rc == EXIT_OK
    assert report_digest(doc) == digest


# report_digest of whole verify reports and their exit codes, run_config
# included, pinned before the CLI resolved its options from one table;
# run.json sets an integer window, a k list and two workers
PINNED_VERIFY_REPORTS = [
    pytest.param(["all", "--samples", "60"], EXIT_FAIL,
                 "f34046dea064aaea8fcdd9735f512b46f501efc265d3723bc4f918304214de0a",
                 id="all-60"),
    pytest.param(["all", "--config", "run.json"], EXIT_FAIL,
                 "68efa8ac41466ac8bae4a9aea0c702d2f5ffbd0cced73406b9ffc217b6af062f",
                 id="all-config"),
    pytest.param(["suspension", "--samples", "60", "--n-max", "3", "--window", "10/7"],
                 EXIT_CENSORED,
                 "9f39ccbfff00c39b7695c0d40058a2c0ce05adc907d7e46621c17c405d5a6257",
                 id="suspension-window-10/7"),
    pytest.param(["joining", "--window", "12", "--samples", "120"], EXIT_OK,
                 "a46d6332412e8e1782cb1a68acffe746808fb03253e015342f83f6e166316dfc",
                 id="joining-window-12"),
]


@pytest.mark.parametrize("args, code, digest", PINNED_VERIFY_REPORTS)
def test_verify_report_matches_pinned_hash(tmp_path, monkeypatch, capsys, args, code, digest):
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps(
        {"samples": 70, "seed": 4, "k": [2, 1], "n_max": 4, "window": 6, "workers": 2}
    ))
    rc, doc = run_json(capsys, ["verify", *args])
    assert rc == code
    assert report_digest(doc) == digest


def test_verify_out_twins_match_pinned_hashes(tmp_path):
    out = tmp_path / "all.json"
    assert main(["verify", "all", "--samples", "60", "--out", str(out)]) == EXIT_FAIL
    assert report_digest(json.loads(out.read_text())) == (
        "f34046dea064aaea8fcdd9735f512b46f501efc265d3723bc4f918304214de0a"
    )
    assert hashlib.sha256((tmp_path / "all.csv").read_bytes()).hexdigest() == (
        "44a0e68d6d51dc36da32e251377abc26b04a9d27bb45c18bd91934294e72f3bb"
    )
