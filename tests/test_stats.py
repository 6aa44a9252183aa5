"""Seeded randomness plumbing and the statistical test harness."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps

from chaconlab import stats
from chaconlab.errors import InsufficientDataError
from chaconlab.stats import (
    KeyedStream,
    chi2_gof,
    chi2_independence,
    chi2_poisson,
    keyed_exponentials,
    keyed_symbols,
    ks_exponential,
    make_rng,
    mc_mean,
    pcg64_states,
    splitmix64,
    splitmix64_array,
)
from oracles import scipy_chi2_poisson


def test_splitmix64_reference_vector():
    # first output of the reference generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    # chaining the reference way (state += golden gamma) gives the next one
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * 0x9E3779B97F4A7C15) % 2**64) == 0x06C45D188009454F


def test_splitmix64_array_reference_vector():
    states = np.array([0, 0x9E3779B97F4A7C15, (2 * 0x9E3779B97F4A7C15) % 2**64], dtype=np.uint64)
    assert splitmix64_array(states).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
@example([0, 1, 2**63, 2**64 - 1])
def test_splitmix64_array_matches_scalar(states):
    got = splitmix64_array(np.array(states, dtype=np.uint64)).tolist()
    assert got == [splitmix64(x) for x in states]


key_parts = st.one_of(st.integers(-(2**64), 2**65), st.integers(0, 2**64 - 1))
orders = st.one_of(st.sampled_from([1, 2, 3, 2**64 - 1]), st.integers(1, 2**64 - 1))


def _wrapped(symbols) -> list[int]:
    """int64 symbols read back modulo 2**64: themselves for orders up to 2**63."""
    assert symbols.dtype == np.int64
    return [v & (2**64 - 1) for v in symbols.tolist()]


@given(
    orders,
    st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
    st.lists(key_parts, max_size=3),
    st.lists(key_parts, max_size=30),
)
@example(2, 2**63, [4, 2], [0, 2**63, 2**64 - 1])
@example(3, 2**64 - 1, [], [0, 2**63, 2**64 - 1, -1])
@example(1, 0, [7], [0, 2**63, 2**64 - 1])
@example(2**64 - 1, 0, [7], [0, 2**63, 2**64 - 1, -1])
def test_keyed_symbols_one_prefix_matches_scalar_draws(order, seed, prefix, last):
    stream = KeyedStream(seed)
    prefix = tuple(prefix)
    got = keyed_symbols(np.uint64(stream._state(prefix)), last, order)
    assert _wrapped(got) == [stream.integer(order, *prefix, x) for x in last]


@given(
    st.sampled_from([1, 2, 3, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),
    st.integers(0, 10**6),
)
def test_keyed_symbols_on_int64_ids(order, seed, ids, sample_idx):
    # the joining suite passes ids as an int64 array; negatives wrap like int() & (2**64 - 1)
    stream = KeyedStream(seed)
    got = keyed_symbols(
        np.uint64(stream._state((sample_idx, 2))), np.array(ids, dtype=np.int64), order
    )
    assert _wrapped(got) == [stream.integer(order, sample_idx, 2, x) for x in ids]


@given(
    orders,
    st.integers(0, 2**64 - 1),
    st.lists(st.tuples(key_parts, key_parts), max_size=20),
    st.lists(key_parts, max_size=2),
)
@example(2, 2**63, [(0, 5), (2**64 - 1, -1), (-1, 2**63)], [2])
@example(2**64 - 1, 1, [(0, 5), (2**64 - 1, -1), (-1, 2**63)], [])
def test_prefix_states_and_keyed_symbols_match_scalar_draws(order, seed, keys, rest):
    # one prefix state per entry: (first, *rest), then that entry's last part
    stream = KeyedStream(seed)
    firsts, lasts = [f for f, _ in keys], [x for _, x in keys]
    states = stream.prefix_states(firsts, *rest)
    assert states.tolist() == [stream._state((f, *rest)) for f in firsts]
    got = keyed_symbols(states, lasts, order)
    assert _wrapped(got) == [stream.integer(order, f, *rest, x) for f, x in keys]


def test_splitmix64_range_and_determinism():
    seen = {splitmix64(s) for s in range(200)}
    assert len(seen) == 200
    assert all(0 <= v < 2**64 for v in seen)


def test_keyed_stream():
    s = KeyedStream(7)
    assert s.integer(2**64, 1, 2, 3) == s.integer(2**64, 1, 2, 3)
    assert s.integer(2**64, 1, 2, 3) != s.integer(2**64, 3, 2, 1)  # order matters
    assert s.integer(2**64, 1) != KeyedStream(8).integer(2**64, 1)
    assert 0 <= s.integer(2**64, 9) < 2**64
    for u in range(2, 30):
        assert 0 <= s.integer(u, 5, 6) < u


def test_keyed_symbols_frequencies():
    # uniform on each order: a chi-square fit over 4000 draws per order
    for order in (2, 3, 7):
        got = keyed_symbols(np.uint64(KeyedStream(3)._state((order,))), np.arange(4000), order)
        rep = chi2_gof(np.bincount(got, minlength=order), [1 / order] * order, alpha=0.01)
        assert rep["passed"], order


def test_keyed_symbols_mix_with_int64_keys():
    # uint64 symbols added to int64 ids would promote to float64, which bincount refuses
    ids = np.arange(-5, 5, dtype=np.int64)
    state = np.uint64(KeyedStream(1)._state((0,)))
    got = keyed_symbols(state, ids, 3)
    keys = got * 10 + ids + 5
    assert keys.dtype == np.int64
    assert np.bincount(keys, minlength=30).sum() == ids.size
    assert keyed_symbols(state, ids, 1).tolist() == [0] * ids.size


def test_make_rng_streams():
    a = make_rng(5, 0).standard_normal(8)
    b = make_rng(5, 0).standard_normal(8)
    c = make_rng(5, 1).standard_normal(8)
    d = make_rng(6, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # PCG64 keyed by SeedSequence(seed, spawn_key=(stream,)), the streams the pins were drawn on
    direct = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=(1,))))
    assert np.array_equal(c, direct.standard_normal(8))
    assert np.array_equal(a, make_rng(5).standard_normal(8))


# one to seven 32-bit words: SeedSequence pads the seed only up to its pool,
# and each word past the pool advances the stream words' hash constant
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**130 + 5, 2**200 + 7]
STREAMS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**70 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_block_seeding_matches_make_rng(seed):
    states = pcg64_states(seed, STREAMS)
    draws = keyed_exponentials(seed, STREAMS, 300)
    assert draws.shape == (len(STREAMS), 300)
    for stream, (state, inc), row in zip(STREAMS, states, draws):
        rng = make_rng(seed, stream)
        assert rng.bit_generator.state["state"] == {"state": state, "inc": inc}
        assert np.array_equal(row, rng.exponential(1.0, size=300))


def test_block_seeding_of_any_stream_order_and_word_count():
    # streams of one, two and three words in one block, each on its own
    streams = [2**70 + 3, 5, 2**40, 5]
    assert pcg64_states(7, streams) == [pcg64_states(7, [s])[0] for s in streams]
    assert pcg64_states(7, np.array([2**63, 0], dtype=np.uint64)) == pcg64_states(7, [2**63, 0])
    assert pcg64_states(7, []) == [] and keyed_exponentials(7, [], 4).shape == (0, 4)


@pytest.mark.parametrize("seed, streams", [(-1, [0]), (-(2**70), [0]), (3, [1, -1]), (-1, [])])
def test_block_seeding_refuses_negative_seeds_and_streams(seed, streams):
    with pytest.raises(ValueError, match="non-negative"):
        pcg64_states(seed, streams)
    with pytest.raises(ValueError, match="non-negative"):
        make_rng(seed, streams[-1] if streams else 0)


def test_ks_exponential_null_and_alternative():
    rng = make_rng(11)
    good = ks_exponential(rng.exponential(1.0, size=4000))
    assert good["passed"] and good["p_value"] >= 0.01
    bad = ks_exponential(rng.exponential(0.5, size=4000))  # rate-2 draws
    assert not bad["passed"] and bad["p_value"] < 1e-6
    with pytest.raises(InsufficientDataError):
        ks_exponential([1.0, 2.0])


def test_chi2_poisson_null_and_alternative():
    rng = make_rng(12)
    good = chi2_poisson(rng.poisson(20.0, size=4000), mean=20.0)
    assert good["passed"]
    bad = chi2_poisson(rng.poisson(25.0, size=4000), mean=20.0)
    assert not bad["passed"] and bad["p_value"] < 1e-6
    with pytest.raises(InsufficientDataError):
        chi2_poisson([], mean=20.0)
    with pytest.raises(InsufficientDataError):
        chi2_poisson([20, 21], mean=20.0)  # cannot form two bins of 5


@pytest.mark.parametrize(
    "counts",
    [
        [3, 1, -5, 4] * 100,  # -5 fell in no bin but counted in n, moving the p-value
        [2.7, 3.0, 1.0] * 100,  # 2.7 was truncated to 2
        [3.0, 1.0, 4.0] * 100,  # counts are integers, not floats that look like them
        [True, False] * 100,
    ],
)
def test_chi2_poisson_refuses_counts_it_cannot_bin(counts):
    with pytest.raises(ValueError, match="nonnegative integers"):
        chi2_poisson(counts, mean=3.0)



def test_chi2_gof_hand_cases():
    perfect = chi2_gof([50, 50], [0.5, 0.5])
    assert perfect["statistic"] == 0.0 and perfect["p_value"] == 1.0 and perfect["passed"]
    skew = chi2_gof([90, 10], [0.5, 0.5])
    assert not skew["passed"] and skew["p_value"] < 1e-6
    with pytest.raises(InsufficientDataError):
        chi2_gof([2, 1], [0.5, 0.5])  # expectations below the floor
    with pytest.raises(InsufficientDataError):
        chi2_gof([10], [1.0])


def test_chi2_independence_cases():
    rng = make_rng(13)
    draws = rng.integers(0, 2, size=(4000, 2))
    table = np.zeros((2, 2), dtype=int)
    for a, b in draws:
        table[a, b] += 1
    indep = chi2_independence(table)
    assert indep["passed"]
    copied = chi2_independence([[500, 0], [0, 500]], expect_reject=True)
    assert copied["passed"] and copied["p_value"] < 1e-10
    with pytest.raises(InsufficientDataError):
        chi2_independence([[5, 5]])
    with pytest.raises(InsufficientDataError):
        chi2_independence([[5, 5], [0, 0]])  # zero row drops, degenerates
    with pytest.raises(ValueError):
        chi2_independence([[5, -1], [2, 3]])  # counts cannot be negative


def test_mc_mean():
    rng = make_rng(14)
    x = rng.exponential(1.0, size=4000)
    assert mc_mean(x, target=1.0)["passed"]  # E[Exp(1)] = 1
    assert mc_mean(x**2 / 2.0, target=1.0)["passed"]  # E[X^2]/2 = 1
    assert not mc_mean(x, target=1.5)["passed"]
    same = mc_mean([2.0, 2.0, 2.0], target=2.0)
    assert same["passed"] and same["statistic"] == 0.0
    off = mc_mean([2.0, 2.0, 2.0], target=1.0)
    assert not off["passed"]
    with pytest.raises(InsufficientDataError):
        mc_mean([1.0], target=1.0)


def binom_interval(n: int, p: float, conf: float = 0.99) -> tuple[int, int]:
    """Central exact-binomial interval, used to calibrate rejection rates."""
    lo = int(sps.binom.ppf((1 - conf) / 2, n, p))
    hi = int(sps.binom.ppf(1 - (1 - conf) / 2, n, p))
    return lo, hi


def test_binom_interval_hand_case():
    # Binomial(4, 1/2): cdf = 1/16, 5/16, 11/16, 15/16, 1
    assert binom_interval(4, 0.5, conf=0.5) == (1, 3)
    lo, hi = binom_interval(200, 0.01)
    assert 0 <= lo <= 200 * 0.01 <= hi <= 200
    lo90, hi90 = binom_interval(200, 0.01, conf=0.90)
    assert lo <= lo90 and hi90 <= hi


def test_report_is_json_safe():
    rng = make_rng(15)
    rep = ks_exponential(rng.exponential(1.0, size=64))
    payload = json.dumps(rep, sort_keys=True)
    back = json.loads(payload)
    assert back["name"] == "ks_exponential"
    assert isinstance(back["passed"], bool)
    assert isinstance(back["expect_reject"], bool)


RUNS = 200


def _calibrate(reject_prob, run):
    rejections = sum(1 for i in range(RUNS) if run(i))
    lo, hi = binom_interval(RUNS, reject_prob, conf=0.99)
    assert lo <= rejections <= hi, (rejections, lo, hi)


def test_calibration_ks_exponential():
    def run(i):
        rng = make_rng(1000, i)
        return not ks_exponential(rng.exponential(1.0, size=500))["passed"]

    _calibrate(0.01, run)


def test_calibration_chi2_poisson():
    def run(i):
        rng = make_rng(2000, i)
        return not chi2_poisson(rng.poisson(8.0, size=500), mean=8.0)["passed"]

    _calibrate(0.01, run)


def test_calibration_chi2_independence():
    def run(i):
        rng = make_rng(3000, i)
        draws = rng.integers(0, 2, size=(600, 2))
        table = np.zeros((2, 2), dtype=int)
        for a, b in draws:
            table[a, b] += 1
        return not chi2_independence(table)["passed"]

    _calibrate(0.01, run)


def test_calibration_mc_mean():
    def run(i):
        rng = make_rng(4000, i)
        return not mc_mean(rng.exponential(1.0, size=500), target=1.0)["passed"]

    # two-sided 3-sigma design: rejection probability 2*(1 - Phi(3))
    _calibrate(2 * (1 - 0.99865010196837), run)


# The harness computes each statistic and p-value through the scipy.special
# function that scipy.stats uses; reports are only byte-identical if every
# one of them is the same double, so these compare with ==, never approx.


def assert_same_double(ours, theirs):
    # == alone would let -0.0 stand for 0.0, which json writes differently
    assert ours == theirs and math.copysign(1.0, ours) == math.copysign(1.0, theirs), (ours, theirs)


def _draws(kind):
    """Seeded numpy draws as a list: kind(rng, size) for a generated seed and size."""
    return st.builds(
        lambda seed, size: kind(make_rng(seed), size).tolist(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 400),
    )


ks_samples = st.one_of(
    # few points, many of them tied, some at or below the support's edge
    st.lists(
        st.one_of(st.integers(0, 5).map(float), st.floats(-1.0, 30.0)),
        min_size=8,
        max_size=40,
    ),
    _draws(lambda rng, size: rng.exponential(1.0, size=size + 8)),
    _draws(lambda rng, size: rng.exponential(1.4, size=size + 8)),
)


@given(ks_samples)
@example([1.0] * 8)
@example([-0.5, 0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0])  # below the support
@example([0.0, 0.0, 0.5, 0.5, 0.5, 2.0, 2.0, 2.0, 7.0])
def test_ks_exponential_matches_scipy(samples):
    ours = ks_exponential(samples)
    theirs = sps.kstest(np.asarray(samples, dtype=float), "expon", method="asymp")
    assert_same_double(ours["statistic"], theirs.statistic)
    assert_same_double(ours["p_value"], theirs.pvalue)


@st.composite
def poisson_cases(draw):
    mean = draw(st.floats(0.05, 60.0))
    shift = draw(st.sampled_from([1.0, 0.7, 1.4]))
    counts = draw(
        st.one_of(
            _draws(lambda rng, size: rng.poisson(mean * shift, size=size)),
            st.lists(st.integers(0, 90), min_size=1, max_size=300),
        )
    )
    return counts, mean


@given(poisson_cases())
@example(([0] * 40 + [1] * 30 + [2] * 20 + [3] * 10, 1.2))
def test_chi2_poisson_matches_scipy(case):
    # every binning starts at count 0, so the first bin's cdf(-1) is always taken
    counts, mean = case
    try:
        statistic, p_value = scipy_chi2_poisson(counts, mean)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            chi2_poisson(counts, mean)
        return
    ours = chi2_poisson(counts, mean)
    assert_same_double(ours["statistic"], statistic)
    assert_same_double(ours["p_value"], p_value)


@st.composite
def ppf_cases(draw):
    mean = draw(st.floats(0.01, 200.0))
    # a level that is itself a cdf value makes pdtrik's root land on an
    # integer, where the answer is the count one below the rounded-up root
    q = draw(
        st.one_of(
            st.floats(1e-12, 1 - 1e-12),
            st.just(1 - 1e-9),
            st.integers(0, 400).map(lambda k: float(special.pdtr(k, mean))),
        )
    )
    assume(0.0 < q < 1.0)
    return mean, q


@given(ppf_cases())
@example((123.08086844513596, 0.9157401147790551))
def test_poisson_ppf_matches_scipy(case):
    mean, q = case
    assert stats._poisson_ppf(q, mean) == int(sps.poisson.ppf(q, mean))


@given(st.floats(0.01, 200.0), st.integers(1, 400))
def test_poisson_pmf_matches_scipy(mean, kmax):
    ours = stats._poisson_pmf(np.arange(kmax), mean)
    theirs = sps.poisson.pmf(np.arange(kmax), mean)
    assert ours.tobytes() == theirs.tobytes()


@given(st.floats(0.01, 200.0), st.integers(-3, 400))
def test_poisson_cdf_matches_scipy(mean, k):
    assert_same_double(stats._poisson_cdf(k, mean), sps.poisson.cdf(k, mean))


@given(
    st.integers(2, 6).flatmap(
        lambda cells: st.tuples(
            st.lists(st.integers(0, 300), min_size=cells, max_size=cells),
            st.lists(st.integers(1, 20), min_size=cells, max_size=cells),
        )
    )
)
def test_chi2_gof_matches_scipy(case):
    observed, weights = case
    probs = np.asarray(weights, dtype=float) / sum(weights)
    if sum(observed) == 0:
        with pytest.raises(InsufficientDataError):
            chi2_gof(observed, probs, min_expected=0.0)
        return
    ours = chi2_gof(observed, probs, min_expected=0.0)
    n = float(sum(observed))
    expected = probs * n
    expected *= n / expected.sum()
    theirs = sps.chisquare(np.asarray(observed, dtype=float), expected)
    assert_same_double(ours["statistic"], theirs.statistic)
    assert_same_double(ours["p_value"], theirs.pvalue)


@st.composite
def contingency_tables(draw):
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    cells = st.lists(st.integers(0, 60), min_size=cols, max_size=cols)
    table = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)):
        table[i, :] = 0
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1)):
        table[:, j] = 0
    return table


@given(contingency_tables())
@example(np.array([[5, 0, 3], [0, 0, 0], [2, 0, 9]]))
def test_chi2_independence_matches_scipy(table):
    kept = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0].astype(float)
    if min(kept.shape) < 2:
        with pytest.raises(InsufficientDataError):
            chi2_independence(table)
        return
    ours = chi2_independence(table)
    theirs = sps.chi2_contingency(kept, correction=False)
    assert_same_double(ours["statistic"], theirs.statistic)
    assert_same_double(ours["p_value"], theirs.pvalue)
    assert ours["params"] == {"shape": list(kept.shape), "dof": int(theirs.dof)}


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=40),
    st.floats(-50.0, 50.0),
    st.floats(0.5, 6.0),
)
@example([2.0, 2.0, 2.0], 1.0, 3.0)  # zero spread: z is infinite
def test_mc_mean_matches_scipy(values, target, tol_sigmas):
    ours = mc_mean(values, target, tol_sigmas=tol_sigmas)
    assert_same_double(ours["p_value"], float(2 * sps.norm.sf(abs(ours["statistic"]))))
    assert_same_double(ours["alpha"], float(2 * sps.norm.sf(tol_sigmas)))
