"""Malformed --config and --spec files: exit 2 with a message, never a traceback."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chaconlab import cli, joining, suites
from chaconlab.cli import EXIT_USAGE, FILE_TYPES, UsageError, main
from chaconlab.suspension import MAX_WALK_DEPTH

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # json writes NaN and Infinity, and Python's json reads them back
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)

BUNDLED_SPEC = {
    "group": [2],
    "base_value": [0],
    "stages": [{"n": 1, "middle": [1], "right": [[0], [0], [0], [0]]}],
    "zero_beyond": 1,
}

# keys `verify` reads from a config file, in the order it merges them
VERIFY_KEYS = ["samples", "seed", "alpha", "window", "n_max", "p_max", "k", "workers", "out"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


def exits_with_usage(argv) -> str:
    """Run main(argv); assert it exits 2 and return the message it wrote."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    message = err.getvalue()
    assert message.startswith("error: ") and len(message) > len("error: \n")
    return message


def write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


def _is_json_object(data: bytes) -> bool:
    try:
        return isinstance(json.loads(data), dict)
    except (ValueError, RecursionError):
        return False


def wrong_type(key):
    """JSON values a config file may not give for key (null counts as absent)."""
    return json_values.filter(
        lambda v: v is not None and (isinstance(v, bool) or not isinstance(v, FILE_TYPES[key]))
    )


@given(
    st.one_of(
        st.binary(max_size=40),
        json_values.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
    )
)
@example(b"\xff\xfe{}")  # not UTF-8
@example(b"[" * 100_000)  # nested past the recursion limit
@example(b"")
def test_config_file_that_is_no_object_exits_2(scratch, data):
    assume(not _is_json_object(data))
    exits_with_usage(["verify", "poisson", "--config", write(scratch / "run.json", data)])


@given(st.sampled_from(sorted(FILE_TYPES)), json_values)
def test_merge_returns_the_declared_type_or_raises_usage_error(key, value):
    args = cli.build_parser().parse_args(["verify", "poisson"])
    try:
        merged = cli._merge(args, {key: value}, key, "default")
    except UsageError:
        return
    if value is None:  # null counts as absent
        assert merged == "default"
    else:
        assert merged is value
        assert isinstance(merged, FILE_TYPES[key]) and not isinstance(merged, bool)


@given(
    st.dictionaries(st.sampled_from(VERIFY_KEYS), json_values),
    st.sampled_from(VERIFY_KEYS).flatmap(lambda key: st.tuples(st.just(key), wrong_type(key))),
)
@example({"k": [None]}, ("out", 1))
@example({"k": [[1]]}, ("out", 1))
@example({"k": [float("inf")]}, ("out", 1))
def test_config_file_with_a_wrong_value_exits_2(scratch, cfg, bad):
    # one value of the wrong type stops the run before any suite starts, and
    # the others, of any type, must not crash the merge on the way there
    key, value = bad
    cfg = {**cfg, key: value}
    path = write(scratch / "run.json", json.dumps(cfg).encode())
    exits_with_usage(["verify", "suspension", "--config", path])


@given(st.one_of(json_values, st.text(alphabet="0123456789,- x", max_size=12)))
@example([None])
@example([[1]])
@example([float("inf")])
@example(["1", "two"])
def test_parse_k_gives_nonnegative_ints_or_usage_error(value):
    try:
        ks = cli._parse_k(value)
    except UsageError:
        return
    assert ks and all(isinstance(k, int) and k >= 0 for k in ks)


@given(st.one_of(st.from_regex(r"\A-?\d{0,3}(/-?\d{0,2})?\Z"), st.text(max_size=8), st.integers()))
@example("1/0")
def test_window_gives_a_fraction_or_usage_error(value):
    try:
        window = cli._parse_window(value)
    except UsageError:
        return
    assert window == Fraction(value)


def test_window_with_zero_denominator_exits_2():
    assert "--window" in exits_with_usage(["verify", "suspension", "--window", "1/0"])


def _spec_paths(spec, prefix=()):
    """Every place in a spec a value sits: (path, value) pairs."""
    yield prefix, spec
    if isinstance(spec, dict):
        items = spec.items()
    elif isinstance(spec, list):
        items = enumerate(spec)
    else:
        items = ()
    for k, v in items:
        yield from _spec_paths(v, prefix + (k,))


def _replace(spec, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(spec, dict):
        return {**spec, head: _replace(spec[head], rest, value)}
    return [_replace(v, rest, value) if i == head else v for i, v in enumerate(spec)]


SPEC_PLACES = [path for path, _ in _spec_paths(BUNDLED_SPEC)]


@st.composite
def mutated_specs(draw):
    """The bundled spec with up to three of its values replaced by any JSON value."""
    spec = BUNDLED_SPEC
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(SPEC_PLACES))
        try:
            spec = _replace(spec, path, draw(json_values))
        except (KeyError, IndexError, TypeError):  # an earlier mutation removed the place
            pass
    return spec


@given(mutated_specs())
@example({**BUNDLED_SPEC, "zero_beyond": math.inf})
@example({**BUNDLED_SPEC, "group": [1e300 * 1e300]})
@example({**BUNDLED_SPEC, "stages": [{**BUNDLED_SPEC["stages"][0], "n": 10**9}]})
@example({**BUNDLED_SPEC, "zero_beyond": 10**9, "stages": [{**BUNDLED_SPEC["stages"][0], "n": 10**9}]})
def test_spec_loads_or_raises_usage_error(scratch, spec):
    path = write(scratch / "spec.json", json.dumps(spec).encode())
    try:
        cli._load_cocycle_spec(path)
    except UsageError:
        pass


@given(
    mutated_specs(),
    st.sampled_from(sorted(BUNDLED_SPEC)),
    st.sampled_from([None, math.inf, -math.inf, math.nan, "x", "delete"]),
)
def test_spec_with_a_broken_field_exits_2(scratch, spec, key, broken):
    # null, a non-finite number, a word or its absence breaks any required
    # field; the rest of the spec may be anything
    assume(isinstance(spec, dict))
    spec = {k: v for k, v in spec.items() if k != key}
    if broken != "delete":
        spec[key] = broken
    path = write(scratch / "spec.json", json.dumps(spec).encode())
    exits_with_usage(["check-cocycle", "--spec", path])


@pytest.mark.parametrize(
    "data",
    [b"[1, 2]", b"\xff", b"[" * 100_000],
    ids=["not-an-object", "not-utf8", "too-deep"],
)
def test_spec_file_that_is_no_spec_exits_2(scratch, data):
    exits_with_usage(["check-cocycle", "--spec", write(scratch / "spec.json", data)])


@pytest.mark.parametrize(
    "path, value",
    [
        (("group",), [2.7]),
        (("group",), [True]),
        (("group",), ["2"]),
        (("group",), 2),
        (("base_value",), [1.9]),
        (("base_value",), [True]),
        (("stages", 0, "n"), 1.2),
        (("stages", 0, "n"), True),
        (("stages", 0, "middle"), [0.5]),
        (("stages", 0, "right", 2), [False]),
        (("stages", 0, "right", 3), 0),
        (("zero_beyond",), 1.5),
        (("zero_beyond",), True),
        (("zero_beyond",), 1.0),
    ],
)
def test_spec_with_a_non_integer_exits_2(scratch, path, value):
    # int() would truncate 1.5 to 1 and read true as 1; the loader must refuse
    spec = _replace(BUNDLED_SPEC, path, value)
    path = write(scratch / "spec.json", json.dumps(spec).encode())
    assert "integer" in exits_with_usage(["check-cocycle", "--spec", path])


def test_bundled_spec_round_trips_through_the_strict_loader(scratch):
    path = write(scratch / "spec.json", json.dumps(BUNDLED_SPEC).encode())
    spec, _ = cli._load_cocycle_spec(path)
    assert spec.zero_beyond == 1 and spec.group.invariant_factors == (2,)


@pytest.mark.parametrize("k", [[1.5], [True], [1, 2.0], ["1"], [False, 1]])
def test_config_k_with_a_non_integer_exits_2(scratch, k):
    path = write(scratch / "run.json", json.dumps({"k": k}).encode())
    assert "--k" in exits_with_usage(["verify", "suspension", "--config", path])


class Sampled(Exception):
    """Raised in place of a suite's sampling."""


def refuse_to_sample(*args):
    raise Sampled


@pytest.mark.parametrize("k", [[1, 1], [2, 0, 2]])
def test_repeated_k_exits_2_before_any_suite_runs(scratch, monkeypatch, k):
    # once run: --k 1,1 tallied each sample's censoring twice, 30 of 60
    # censored and exit 3, where --k 1 gave 15 and exit 1
    monkeypatch.setattr(suites, "fan_out", refuse_to_sample)
    argv = ["verify", "suspension", "--samples", "60"]
    assert "--k" in exits_with_usage([*argv, "--k", ",".join(map(str, k))])
    path = write(scratch / "run.json", json.dumps({"k": k}).encode())
    assert "--k" in exits_with_usage([*argv, "--config", path])


def test_config_k_list_of_integers_is_kept():
    assert cli._parse_k([2, 0, 3]) == (2, 0, 3)
    with pytest.raises(UsageError):
        cli._parse_k([1.5, True])


@pytest.mark.parametrize("suite", ["poisson", "suspension", "joining", "all"])
@pytest.mark.parametrize("samples", [0, -1, -10_000])
def test_samples_below_one_exits_2(scratch, suite, samples):
    # 0 once ran the suite's default sample count while the report said 0
    assert "--samples" in exits_with_usage(["verify", suite, "--samples", str(samples)])
    path = write(scratch / "run.json", json.dumps({"samples": samples}).encode())
    assert "--samples" in exits_with_usage(["verify", suite, "--config", path])


@pytest.mark.parametrize("p_max", [0, -1, -10**30])
def test_p_max_below_one_exits_2(scratch, p_max):
    # once accepted: every sample was censored as PMaxExceeded and the run exited 3
    assert "--p-max" in exits_with_usage(["verify", "suspension", "--p-max", str(p_max)])
    path = write(scratch / "run.json", json.dumps({"p_max": p_max}).encode())
    assert "--p-max" in exits_with_usage(["verify", "suspension", "--config", path])


@pytest.mark.parametrize("suite", ["poisson", "suspension", "joining", "all"])
@pytest.mark.parametrize("n_max", [0, -3, -10**30, MAX_WALK_DEPTH + 1, 10**30])
def test_n_max_outside_the_bound_exits_2_before_any_suite_runs(scratch, monkeypatch, suite, n_max):
    # once accepted: joining and poisson exited 0 with n_max -3 or 0 in the
    # report, and suspension failed only inside tower_heights; past depth 25
    # the walk's levels leave int64
    monkeypatch.setattr(suites, "fan_out", refuse_to_sample)
    monkeypatch.setattr(joining, "fan_out", refuse_to_sample)
    path = write(scratch / "run.json", json.dumps({"n_max": n_max}).encode())
    for argv in (["--n-max", str(n_max)], ["--config", path]):
        message = exits_with_usage(["verify", suite, *argv])
        assert "--n-max" in message and str(MAX_WALK_DEPTH) in message


@pytest.mark.parametrize("suite", ["poisson", "suspension", "joining", "all"])
def test_n_max_at_the_bound_reaches_the_suite(scratch, monkeypatch, suite):
    monkeypatch.setattr(suites, "fan_out", refuse_to_sample)
    monkeypatch.setattr(joining, "fan_out", refuse_to_sample)
    path = write(scratch / "run.json", json.dumps({"n_max": MAX_WALK_DEPTH}).encode())
    for argv in (["--n-max", str(MAX_WALK_DEPTH)], ["--config", path]):
        with pytest.raises(Sampled):
            main(["verify", suite, *argv])


@pytest.mark.parametrize("workers", [0, -3, -10**30])
def test_workers_below_one_exits_2(scratch, workers):
    # once accepted: the suite ran on one worker while the report said 0
    argv = ["verify", "joining", "--samples", "10"]
    assert "--workers" in exits_with_usage([*argv, "--workers", str(workers)])
    path = write(scratch / "run.json", json.dumps({"workers": workers}).encode())
    assert "--workers" in exits_with_usage([*argv, "--config", path])


@pytest.mark.parametrize("alpha", [0, 1, -0.5, 1.5, math.nan, math.inf])
def test_alpha_outside_the_unit_interval_exits_2(scratch, alpha):
    # once a verdict: at alpha 0 a p-value of 1e-217 "failed to reject" and the run exited 1
    argv = ["verify", "joining", "--samples", "20"]
    assert "--alpha" in exits_with_usage([*argv, "--alpha", str(alpha)])
    path = write(scratch / "run.json", json.dumps({"alpha": alpha}).encode())
    assert "--alpha" in exits_with_usage([*argv, "--config", path])


@pytest.mark.parametrize("suite", ["poisson", "suspension", "joining", "all"])
@pytest.mark.parametrize("window", [0, -1, -3, -(10**30)])
def test_window_not_positive_exits_2(scratch, suite, window):
    # joining once spent its 1000 redraws on empty sides, and suspension
    # named an empty interval in lattice units
    argv = ["verify", suite, "--samples", "10"]
    assert "--window" in exits_with_usage([*argv, "--window", str(window)])
    assert "--window" in exits_with_usage([*argv, f"--window={window}/7"])
    path = write(scratch / "run.json", json.dumps({"window": window}).encode())
    assert "--window" in exits_with_usage([*argv, "--config", path])


@pytest.mark.parametrize("suite", ["poisson", "suspension", "joining", "all"])
def test_window_past_the_bound_exits_2_before_any_suite_runs(scratch, monkeypatch, suite):
    # a block's arrays grow with the window (one 64-sample joining block by
    # about 25 MB per 1000 of half-width), and depth 25 covers windows near 10**7
    monkeypatch.setattr(suites, "fan_out", refuse_to_sample)
    monkeypatch.setattr(joining, "fan_out", refuse_to_sample)
    argv = ["verify", suite, "--n-max", str(MAX_WALK_DEPTH)]
    for window in (str(cli.MAX_WINDOW + 1), f"{2 * cli.MAX_WINDOW + 1}/2"):
        message = exits_with_usage([*argv, "--window", window])
        assert "--window" in message and str(cli.MAX_WINDOW) in message
    path = write(scratch / "run.json", json.dumps({"window": cli.MAX_WINDOW + 1}).encode())
    assert "--window" in exits_with_usage([*argv, "--config", path])
    with pytest.raises(Sampled):
        main([*argv, "--window", str(cli.MAX_WINDOW)])


@pytest.mark.parametrize("suite", ["poisson", "joining", "all"])
@pytest.mark.parametrize("window", ["2.5", "5/2", "1/3"])
def test_window_not_an_integer_exits_2(scratch, suite, window):
    # once int()'s "invalid literal"; the suspension suite takes a fraction
    argv = ["verify", suite, "--samples", "10"]
    assert "--window" in exits_with_usage([*argv, "--window", window])
    path = write(scratch / "run.json", json.dumps({"window": window}).encode())
    assert "--window" in exits_with_usage([*argv, "--config", path])


@pytest.mark.parametrize("suite", ["poisson", "suspension", "joining", "all"])
@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_exits_2(scratch, suite, seed):
    # once refused only by the sampler, with numpy's "expected non-negative integer"
    argv = ["verify", suite, "--samples", "10"]
    assert "--seed" in exits_with_usage([*argv, "--seed", str(seed)])
    path = write(scratch / "run.json", json.dumps({"seed": seed}).encode())
    assert "--seed" in exits_with_usage([*argv, "--config", path])


@pytest.mark.parametrize("n_scan", [0, -3, -10**30])
def test_n_scan_below_one_exits_2(scratch, n_scan):
    # once exit 0 with "n_scan" 0 or -3 in the report, and one stage scanned
    assert "--n-scan" in exits_with_usage(["check-cocycle", "--n-scan", str(n_scan)])
    path = write(scratch / "run.json", json.dumps({"n_scan": n_scan}).encode())
    assert "--n-scan" in exits_with_usage(["check-cocycle", "--config", path])


@pytest.mark.parametrize(
    "argv, cfg, key",
    [
        (["check-cocycle"], {"n_scna": 1}, "n_scna"),
        (["check-cocycle"], {"samples": 5}, "samples"),  # a verify key
        (["verify", "poisson"], {"sampels": 5, "seed": 1}, "sampels"),
        (["verify", "all"], {"n_scan": 2}, "n_scan"),
        (["build-chacon"], {"n-max": 2}, "n-max"),
        (["build-chacon"], {"n_max": 2, "seed": 1}, "seed"),
    ],
)
def test_config_key_the_command_does_not_read_exits_2(scratch, monkeypatch, argv, cfg, key):
    # once ignored: {"n_scna": 1} scanned 3 stages and {"sampels": 5} ran 10,000 samples
    monkeypatch.setattr(cli, "build_system", refuse_to_build)
    monkeypatch.setattr(cli, "check_condition_i", refuse_to_sample)
    monkeypatch.setattr(suites, "fan_out", refuse_to_sample)
    monkeypatch.setattr(joining, "fan_out", refuse_to_sample)
    path = write(scratch / "run.json", json.dumps(cfg).encode())
    assert key in exits_with_usage([*argv, "--config", path])


class Built(Exception):
    """Raised in place of a tower build, with the depth asked for."""


def refuse_to_build(n_max):
    raise Built(n_max)


@pytest.mark.parametrize("n_max", [0, -1, cli.MAX_BUILD_N + 1, 10**30])
def test_build_depth_outside_the_bound_exits_2_before_building(scratch, monkeypatch, n_max):
    # once unbounded: depth 9 wrote 209 MB in 46 s, and each depth is about six times more
    monkeypatch.setattr(cli, "build_system", refuse_to_build)
    assert "--n-max" in exits_with_usage(["build-chacon", "--n-max", str(n_max)])
    path = write(scratch / "run.json", json.dumps({"n_max": n_max}).encode())
    assert "--n-max" in exits_with_usage(["build-chacon", "--config", path])


def test_build_depth_at_the_bound_is_built(scratch, monkeypatch):
    monkeypatch.setattr(cli, "build_system", refuse_to_build)
    path = write(scratch / "run.json", json.dumps({"n_max": cli.MAX_BUILD_N}).encode())
    for argv in (["--n-max", str(cli.MAX_BUILD_N)], ["--config", path]):
        with pytest.raises(Built) as exc:
            main(["build-chacon", *argv])
        assert exc.value.args == (cli.MAX_BUILD_N,)


@pytest.mark.parametrize("n_scan", [1, 3])
def test_n_scan_is_the_number_of_stages_scanned(capsys, n_scan):
    assert main(["check-cocycle", "--n-scan", str(n_scan)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_scan"] == doc["condition_i"]["n_scanned"] == n_scan


def test_one_sample_and_a_one_step_budget_run(capsys):
    # the smallest accepted values: a one-sample report that says so
    assert main(["verify", "suspension", "--samples", "1", "--p-max", "1", "--k", "0"]) == cli.EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["run_config"]["samples"] == 1 and doc["run_config"]["p_max"] == 1
    assert doc["suites"]["suspension"]["samples"] == 1
    assert doc["suites"]["suspension"]["per_k"]["0"]["uncensored"] == 1
