"""Independent test oracles, kept deliberately naive."""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy import stats as sps

from chaconlab import chacon
from chaconlab.chacon import ChaconSystem, Interval, apply_T, build_system, tower_heights
from chaconlab.cocycle import CocycleSpec, GroupElem
from chaconlab.errors import (
    CensoredError,
    DepthExceededError,
    InsufficientDataError,
    OutOfDomainError,
    PMaxExceededError,
)
from chaconlab.joining import Family
from chaconlab.stats import KeyedStream, make_rng
from chaconlab.suspension import (
    SNAP_DENOM,
    MarkedConfig,
    PointConfig,
    distinguish_k,
    in_split_order,
    lattice_window,
    phi_k_vector,
    push_forward,
    return_time_N_k,
    sample_poisson,
    skew_apply_group,
    superpose,
)


def scipy_chi2_poisson(counts, mean: float, min_expected: float = 5.0):
    """(statistic, p-value) of stats.chi2_poisson, computed through scipy.stats."""
    arr = np.asarray(counts, dtype=int)
    n = arr.size
    if n == 0:
        raise InsufficientDataError("no samples")
    kmax = int(sps.poisson.ppf(1 - 1e-9, mean)) + 1
    probs = sps.poisson.pmf(np.arange(kmax), mean)
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
    edges = []
    acc = 0.0
    for k in range(kmax + 1):
        acc += probs[k]
        if acc * n >= min_expected:
            edges.append(k)
            acc = 0.0
    if len(edges) < 2:
        raise InsufficientDataError("too few samples to form two bins")
    if acc > 0:
        edges[-1] = kmax
    expected, observed = [], []
    lo = 0
    for j, hi in enumerate(edges):
        if j == len(edges) - 1:
            p = 1.0 - sps.poisson.cdf(lo - 1, mean) if lo > 0 else 1.0
            observed.append(int(np.sum(arr >= lo)))
        else:
            p = sps.poisson.cdf(hi, mean) - sps.poisson.cdf(lo - 1, mean)
            observed.append(int(np.sum((arr >= lo) & (arr <= hi))))
        expected.append(p * n)
        lo = hi + 1
    expected = np.asarray(expected)
    expected *= n / expected.sum()
    return sps.chisquare(observed, expected)


def return_time(
    system: ChaconSystem,
    x: int,
    targets: Iterable[Interval],
    p_max: int,
) -> int:
    """Least p in 1..p_max with T^p(x) inside one of the target intervals.

    Raises DepthExceededError when the map runs out of depth first and
    PMaxExceededError when no visit happens within the budget.
    """
    targets = tuple(targets)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    cur = x
    for p in range(1, p_max + 1):
        cur = apply_T(system, cur)
        if any(cur in t for t in targets):
            return p
    raise PMaxExceededError(f"no visit within {p_max} steps")


@dataclass(frozen=True)
class StageRow:
    """Derived per-stage data: height, level sum, and the two stage spacer terms."""

    n: int
    height: int
    level_sum: GroupElem
    middle: GroupElem
    right_sum: GroupElem


def derived_sequence(spec: CocycleSpec, count: int) -> list[StageRow]:
    """Rows for stages 1..count.

    level_sum(1) is the base value (a single level) and
    level_sum(n+1) = 3*level_sum(n) + middle(n) + right_sum(n): the next
    tower stacks three copies of every level plus that stage's spacers.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    heights = tower_heights(count)
    rows = []
    f = spec.base_value
    for n in range(1, count + 1):
        rows.append(
            StageRow(
                n=n,
                height=heights[n - 1],
                level_sum=f,
                middle=spec.middle_value(n),
                right_sum=spec.right_sum(n),
            )
        )
        f = 3 * f + spec.middle_value(n) + spec.right_sum(n)
    return rows


def _advance(system, config, steps: int):
    for _ in range(steps):
        config, _ = push_forward(system, config)
    return config


# ``suspension.induced_return`` as first written: one k per pass, no sums
def induced_return(
    system: ChaconSystem,
    points: Sequence[int],
    rest: Sequence[int],
    p_max: int,
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """First return of (map x ... x map, pushforward) to the split-order set.

    Advances the distinguished points and the rest of the configuration in
    lockstep, position by position, and returns (steps, advanced points,
    advanced rest in increasing order) at the first p >= 1 where the split
    order x_1 < ... < x_k < min(rest) holds again.  Two atoms landing on
    one position raise AssertionError.  Censoring mirrors return_time_N_k.
    """
    step = chacon.apply_T
    pts, rest = list(points), list(rest)
    size = len(pts) + len(rest)
    for p in range(1, p_max + 1):
        pts = [step(system, x) for x in pts]
        rest = [step(system, x) for x in rest]
        if len(set(pts).union(rest)) < size:
            raise AssertionError("map collision: two atoms landed on one position")
        if in_split_order(pts, rest):
            return p, tuple(pts), tuple(sorted(rest))
    raise PMaxExceededError(f"no return within {p_max} steps")


def four_walk_suspension(start, stop, seed, n_max, p_max, window_hi, k_values, spec, mark_steps):
    """The suspension suite's per-sample checks, each orbit walked on its own.

    For every (sample, k) the orbit is walked by route A (the single-k
    ``induced_return`` above), which alone decides censoring, and four
    more times (return time, route B, cocycle sums, zero-mark skew
    product); once more for the mark test.  A route-A return without a
    prefix-fixing return is a return-time mismatch.  Returns the same
    tallies as ``suites.collect_suspension``, with plain-list mark counts.
    """
    system = build_system(n_max)
    window = lattice_window(0, window_hi, system.denom)
    group = spec.group
    stream = KeyedStream(seed)
    elements = list(group.elements())
    sym = {g: j for j, g in enumerate(elements)}
    keys = ("uncensored", "conjugacy_failures", "return_time_mismatches",
            "phi_transport_failures")
    per_k = {k: {**dict.fromkeys(keys, 0), "censored": {}} for k in k_values}
    mark_counts = [0] * group.order
    mark_pairs = [[0] * group.order for _ in range(group.order)]
    mark_censored = 0

    for i in range(start, stop):
        config = sample_poisson(window, seed, stream=i, denom=system.denom)
        for k in k_values:
            tally = per_k[k]
            if config.count < k:
                tally["censored"]["TooFewAtoms"] = tally["censored"].get("TooFewAtoms", 0) + 1
                continue
            points, remainder = distinguish_k(config, k)
            try:
                m_steps, adv_pts, adv_rest = induced_return(
                    system, points, remainder.positions(), p_max
                )
            except CensoredError as exc:
                tally["censored"][exc.reason] = tally["censored"].get(exc.reason, 0) + 1
                continue
            tally["uncensored"] += 1
            try:
                n_steps = return_time_N_k(system, config, k, p_max)
            except CensoredError:
                tally["return_time_mismatches"] += 1
                continue
            route_b = _advance(system, config, n_steps)
            vec = phi_k_vector(system, spec, config, k, p_max)
            marked = MarkedConfig(config, (group.identity(),) * config.count)
            for _ in range(n_steps):
                marked, _ = skew_apply_group(system, spec, marked)
            tally["return_time_mismatches"] += m_steps != n_steps
            tally["conjugacy_failures"] += adv_pts + adv_rest != route_b.positions()
            tally["phi_transport_failures"] += tuple(marked.marks[:k]) != vec

        if config.count >= 2:
            start_marks = tuple(
                elements[stream.integer(group.order, i, 9, atom.id)] for atom in config.atoms
            )
            marked = MarkedConfig(config, start_marks)
            try:
                for _ in range(mark_steps):
                    marked, _ = skew_apply_group(system, spec, marked)
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


def scalar_walk(system, spec, config, wants, p_max, mark_steps, start_marks):
    """``suspension.walk_orbits`` for one configuration, one atom-step at a time.

    Every wanted k gets its own ``return_time_N_k`` and a skew-product walk
    to that time; the mark walk runs ``mark_steps`` skew steps.  Returns
    (returns, reasons, marks): returns maps k to (return time, positions,
    coordinates of the marks at ranks 1..k), reasons maps each k without a
    return to its censoring reason, and marks lists every mark's coordinates
    in rank order, or is None when the walk hit the top first.
    """
    marks0 = tuple(spec.group.element(c) for c in start_marks)
    returns, reasons = {}, {}
    for k in wants:
        try:
            n_steps = return_time_N_k(system, config, k, p_max)
        except CensoredError as exc:
            reasons[k] = exc.reason
            continue
        marked = MarkedConfig(config, marks0)
        for _ in range(n_steps):
            marked, _ = skew_apply_group(system, spec, marked)
        returns[k] = (
            n_steps, marked.config.positions(), tuple(m.coords for m in marked.marks[:k])
        )
    marked = MarkedConfig(config, marks0)
    try:
        for _ in range(mark_steps):
            marked, _ = skew_apply_group(system, spec, marked)
    except CensoredError:
        return returns, reasons, None
    return returns, reasons, [list(m.coords) for m in marked.marks]


class FractionTower:
    """The tower engine as first written: every level of every tower
    stored as a pair of Fractions and found by ``bisect``.

    Positions are Fractions in real units.  Each method reproduces the
    matching ``chaconlab.chacon`` (or ``cocycle.eval_phi``) function,
    errors included, from the stored levels alone.
    """

    def __init__(self, n_max: int):
        one = Fraction(1)
        towers = [[(Fraction(0), one)]]
        widths = [one]
        stages = []  # (first spacer's left end, stage high-water mark)
        high_water = one
        for _ in range(1, n_max):
            w = widths[-1] / 3
            prev = towers[-1]
            left = [(lo, lo + w) for lo, _ in prev]
            middle = [(lo + w, lo + 2 * w) for lo, _ in prev]
            right = [(lo + 2 * w, hi) for lo, hi in prev]
            start = high_water
            spacers = []
            for _ in range(3 * len(prev) + 2):
                spacers.append((high_water, high_water + w))
                high_water += w
            towers.append(left + middle + spacers[:1] + right + spacers[1:])
            widths.append(w)
            stages.append((start, high_water))
        self.n_max = n_max
        self.towers = towers
        self.widths = widths
        self.stages = stages
        self.high_water = high_water
        self._order = [sorted(range(len(t)), key=lambda k, t=t: t[k][0]) for t in towers]
        self._los = [[t[k][0] for k in order] for t, order in zip(towers, self._order)]

    def find(self, n: int, x) -> int | None:
        """1-based level index of x in tower n, or None."""
        i = bisect_right(self._los[n - 1], x) - 1
        if i < 0:
            return None
        k = self._order[n - 1][i]
        return k + 1 if x < self.towers[n - 1][k][1] else None

    def locate(self, x, n: int):
        if not 1 <= n <= self.n_max:
            raise ValueError(f"tower order {n} not in 1..{self.n_max}")
        k = self.find(n, x)
        if k is None:
            raise OutOfDomainError(f"{x} is not in the order-{n} tower")
        return k, x - self.towers[n - 1][k - 1][0]

    def translate_at_order(self, x, n: int):
        levels = self.towers[n - 1]
        k = self.find(n, x)
        if k is None:
            raise OutOfDomainError(f"{x} is not in the order-{n} tower")
        if k == len(levels):
            raise DepthExceededError(f"{x} is in the top level of the order-{n} tower")
        return x + (levels[k][0] - levels[k - 1][0])

    def _step(self, x, up: bool):
        if x < 0 or x >= self.high_water:
            raise OutOfDomainError(f"{x} is outside [0, {self.high_water})")
        for n, levels in enumerate(self.towers, start=1):
            k = self.find(n, x)
            if k is None:
                continue
            if up and k < len(levels):
                return x + (levels[k][0] - levels[k - 1][0])
            if not up and k > 1:
                return x + (levels[k - 2][0] - levels[k - 1][0])
        raise DepthExceededError(f"{x} is at the edge of the deepest tower")

    def apply_T(self, x):
        return self._step(x, up=True)

    def apply_T_inv(self, x):
        return self._step(x, up=False)

    def eval_phi(self, spec, x):
        if x < 0 or x >= self.high_water:
            raise OutOfDomainError(f"{x} is outside [0, {self.high_water})")
        if x < 1:
            return spec.base_value
        for stage, (lo, hi) in enumerate(self.stages, start=1):
            if lo <= x < hi:
                j = int((x - lo) / self.widths[stage])
                return spec.middle_value(stage) if j == 0 else spec.right_value(stage, j - 1)
        raise OutOfDomainError(f"{x} is not covered by any stage of this system")


def loop_snapped_arrivals(rng, bound: int, chunk: int) -> list[int]:
    """``suspension.snapped_arrivals`` as first written: one gap at a time."""
    out: list[int] = []
    cum = 0
    while True:
        gaps = np.maximum(1.0, np.rint(rng.exponential(1.0, size=chunk) * SNAP_DENOM))
        for g in gaps.tolist():
            cum += int(g)
            if cum >= bound:
                return out
            out.append(cum)


def loop_collect_poisson(start, stop, seed, window_hi, sup_hi):
    """``suites.collect_poisson`` one sample at a time and one atom at a time.

    Stream 3i draws sample i's window [0, window_hi) and streams 3i + 1 and
    3i + 2 its pair on [0, sup_hi), each chain by ``loop_snapped_arrivals``;
    the pair count is that of ``superpose``, which refuses a shared position.
    """

    def chain(stream, hi):
        return loop_snapped_arrivals(make_rng(seed, stream), hi * SNAP_DENOM, max(16, hi + 8))

    pair_window = Interval(0, sup_hi * SNAP_DENOM)
    t1, gaps, sup_counts = [], [], []
    skipped_empty = skipped_short = 0
    for i in range(start, stop):
        pos = chain(3 * i, window_hi)
        if not pos:
            skipped_empty += 1
        else:
            t1.append(pos[0] / SNAP_DENOM)
            if len(pos) > 5:
                gaps += [(b - a) / SNAP_DENOM for a, b in zip(pos, pos[1:6])]
            else:
                skipped_short += 1
        a, b = (PointConfig.numbered(pair_window, chain(3 * i + j, sup_hi)) for j in (1, 2))
        sup_counts.append(superpose(a, b).count)
    return {
        "t1": t1,
        "gaps": gaps,
        "sup_counts": sup_counts,
        "skipped_empty": skipped_empty,
        "skipped_short": skipped_short,
    }


# -- the joining suite as first written: tuples, dicts and one atom at a time

JOIN_D = 2**53


@dataclass(frozen=True)
class TupleBiConfig:
    """One two-sided configuration as first written: ids and numerators as tuples.

    The atom at slot i carries index i - neg_count + 1, the rule the
    kernel states as index = flat slot - ``Family.base[owner]``.
    """

    half_width: int
    ids: tuple[int, ...]
    pos_nums: tuple[int, ...]
    neg_count: int

    @classmethod
    def of(cls, family, j: int = 0) -> "TupleBiConfig":
        """The same atoms as configuration j of a ``joining.Family``, numerators read
        back as Python ints cell * 2**53 + off."""
        lo, hi = family.offsets[j], family.offsets[j + 1]
        cells, offs = family.cell[lo:hi].tolist(), family.off[lo:hi].tolist()
        return cls(
            family.half_width,
            tuple(int(i) for i in family.ids[lo:hi]),
            tuple(c * JOIN_D + o for c, o in zip(cells, offs)),
            int(family.neg[j]),
        )

    @property
    def count(self) -> int:
        return len(self.pos_nums)

    @property
    def min_index(self) -> int:
        return 1 - self.neg_count

    @property
    def max_index(self) -> int:
        return self.count - self.neg_count

    def indices(self) -> range:
        return range(self.min_index, self.max_index + 1)

    def _slot(self, n: int) -> int:
        slot = self.neg_count + n - 1
        if not 0 <= slot < self.count:
            raise IndexError(f"index {n} not in {self.min_index}..{self.max_index}")
        return slot

    def pos_num(self, n: int) -> int:
        return self.pos_nums[self._slot(n)]

    def id_at(self, n: int) -> int:
        return self.ids[self._slot(n)]


def tuple_sample_biconfig(half_width: int, seed: int, stream: int) -> tuple[TupleBiConfig, int]:
    """One stream of ``joining.sample_family`` as first written, and its retries."""
    rng = make_rng(seed, stream)
    bound, chunk = half_width * JOIN_D, half_width + 8
    for retries in range(1000):
        right = loop_snapped_arrivals(rng, bound, chunk)
        left = [-c for c in reversed(loop_snapped_arrivals(rng, bound, chunk))]
        if right and left:
            ids = tuple(range(1, len(left) + len(right) + 1))
            return TupleBiConfig(half_width, ids, tuple(left + right), len(left)), retries
    raise InsufficientDataError("window too small: sides keep coming up empty")


def tuple_shift_cocycle(config: TupleBiConfig) -> int:
    return sum(1 for p in config.pos_nums if -JOIN_D <= p < 0)


def tuple_advance_biconfig(config: TupleBiConfig) -> tuple[TupleBiConfig, tuple[int, ...]]:
    bound = config.half_width * JOIN_D
    kept_ids, kept_nums, exited = [], [], []
    for i, p in zip(config.ids, config.pos_nums):
        q = p + JOIN_D
        if q < bound:
            kept_ids.append(i)
            kept_nums.append(q)
        else:
            exited.append(i)
    advanced = TupleBiConfig(
        half_width=config.half_width,
        ids=tuple(kept_ids),
        pos_nums=tuple(kept_nums),
        neg_count=sum(1 for q in kept_nums if q < 0),
    )
    return advanced, tuple(exited)


@dataclass(frozen=True)
class DictJoiningSample:
    """A coupled pair with marks and provenance held in dicts keyed by index.

    ``marks1``/``marks2`` map two-sided indices to symbols; provenance is
    ("copied", source index) or ("fresh",).
    """

    omega1: TupleBiConfig
    omega2: TupleBiConfig
    marks1: dict
    marks2: dict
    provenance2: dict
    excluded: tuple[int, ...]


def joining_dicts(marks, family1, family2, j: int = 0) -> tuple:
    """Sample j of a block's ``joining.Marks`` in the oracle's dict form.

    The marks sit on the flat slots of ``family1`` and ``family2``, and
    slot ``offsets[j] + i`` carries the i-th index of ``TupleBiConfig``'s
    range; an undecided slot must hold mark 0, not copied, source 0.
    """
    assert marks.marks1.size == family1.ids.size
    assert {getattr(marks, f).size for f in ("decided", "marks2", "copied2", "source2")} == {
        family2.ids.size}
    lo1, lo2 = int(family1.offsets[j]), int(family2.offsets[j])
    indices1 = TupleBiConfig.of(family1, j).indices()
    marks1 = {n: int(marks.marks1[s]) for s, n in enumerate(indices1, start=lo1)}
    marks2, provenance2, excluded = {}, {}, []
    for s, n in enumerate(TupleBiConfig.of(family2, j).indices(), start=lo2):
        m, copied, src = int(marks.marks2[s]), bool(marks.copied2[s]), int(marks.source2[s])
        if not marks.decided[s]:
            assert (m, copied, src) == (0, False, 0)
            excluded.append(n)
            continue
        marks2[n] = m
        provenance2[n] = ("copied", src) if copied else ("fresh",)
    return marks1, marks2, provenance2, tuple(excluded)


def dict_sample_parts(sample: DictJoiningSample) -> tuple:
    return sample.marks1, sample.marks2, sample.provenance2, sample.excluded


def dict_couple_marks(
    omega1, omega2, alphabet: int, seed: int, sample_idx: int = 0
) -> DictJoiningSample:
    stream = KeyedStream(seed)
    marks1 = {
        n: stream.integer(alphabet, sample_idx, 1, omega1.id_at(n)) for n in omega1.indices()
    }
    marks2, provenance2, excluded = {}, {}, []
    for n in omega2.indices():
        if n + 1 > omega2.max_index:
            excluded.append(n)
            continue
        lo = omega2.pos_num(n)
        hi = omega2.pos_num(n + 1)
        j = bisect_left(omega1.pos_nums, lo)
        if j < omega1.count and omega1.pos_nums[j] < hi:
            src = j - omega1.neg_count + 1
            marks2[n] = marks1[src]
            provenance2[n] = ("copied", src)
        else:
            marks2[n] = stream.integer(alphabet, sample_idx, 2, omega2.id_at(n))
            provenance2[n] = ("fresh",)
    return DictJoiningSample(omega1, omega2, marks1, marks2, provenance2, tuple(excluded))


def dict_advance_joint(sample: DictJoiningSample) -> DictJoiningSample:
    c1 = tuple_shift_cocycle(sample.omega1)
    c2 = tuple_shift_cocycle(sample.omega2)
    adv1, _ = tuple_advance_biconfig(sample.omega1)
    adv2, _ = tuple_advance_biconfig(sample.omega2)
    bound1 = sample.omega1.half_width * JOIN_D - JOIN_D
    bound2 = sample.omega2.half_width * JOIN_D - JOIN_D
    marks1 = {
        n + c1: v for n, v in sample.marks1.items() if sample.omega1.pos_num(n) < bound1
    }
    marks2, provenance2, excluded = {}, {}, []
    for n, v in sample.marks2.items():
        if sample.omega2.pos_num(n) >= bound2:
            continue
        if sample.omega2.pos_num(n + 1) >= bound2:
            excluded.append(n + c2)
            continue
        marks2[n + c2] = v
        prov = sample.provenance2[n]
        provenance2[n + c2] = ("copied", prov[1] + c1) if prov[0] == "copied" else prov
    if adv2.count and adv2.max_index not in marks2 and adv2.max_index not in excluded:
        excluded.append(adv2.max_index)
    return DictJoiningSample(adv1, adv2, marks1, marks2, provenance2, tuple(sorted(excluded)))


def tuple_rank_tracking_consistent(config: TupleBiConfig) -> bool:
    shift = tuple_shift_cocycle(config)
    advanced, exited = tuple_advance_biconfig(config)
    exited_set = set(exited)
    for n in config.indices():
        if config.id_at(n) in exited_set:
            continue
        if advanced.id_at(n + shift) != config.id_at(n):
            return False
        if advanced.pos_num(n + shift) != config.pos_num(n) + JOIN_D:
            return False
    return True


def empty_first_family(sample_family):
    """``joining.sample_family`` with every first configuration empty.

    ``collect_joining`` draws sample i's first configuration on stream 2i
    and its second on stream 2i + 1; the even streams get the empty
    configuration, with no retries, and the odd ones go to
    ``sample_family``.  This is the degenerate regime where no mark can
    be copied.
    """

    def sample(half_width, seed, streams):
        if streams[0] % 2:
            return sample_family(half_width, seed, streams)
        n = len(streams)
        none = np.empty(0, dtype=np.int64)
        empty = Family.build(half_width, none, none, none, np.zeros(n), np.zeros(n))
        return empty, 0

    return sample


def dict_collect_joining(start, stop, half_width, seed, k, empty_first_family=False) -> dict:
    """``joining.collect_joining`` as first written, on the same samples.

    ``empty_first_family`` makes every first configuration empty, the
    degenerate regime where no mark can be copied.
    """
    marginal = np.zeros(k, dtype=np.int64)
    adjacent = np.zeros((k, k), dtype=np.int64)
    copied_pairs = np.zeros((k, k), dtype=np.int64)
    copied = decided = excluded = resamples = 0
    rank_failures = equivariance_failures = 0
    for i in range(start, stop):
        if empty_first_family:
            w1 = TupleBiConfig(half_width, (), (), 0)
        else:
            w1, r1 = tuple_sample_biconfig(half_width, seed, 2 * i)
            resamples += r1
        w2, r2 = tuple_sample_biconfig(half_width, seed, 2 * i + 1)
        resamples += r2
        sample = dict_couple_marks(w1, w2, k, seed, sample_idx=i)

        if not (tuple_rank_tracking_consistent(w1) and tuple_rank_tracking_consistent(w2)):
            rank_failures += 1
        recoupled = dict_couple_marks(
            tuple_advance_biconfig(w1)[0], tuple_advance_biconfig(w2)[0], k, seed, sample_idx=i
        )
        if dict_advance_joint(sample) != recoupled:
            equivariance_failures += 1

        decided += len(sample.marks2)
        excluded += len(sample.excluded)
        for n, v in sample.marks2.items():
            marginal[v] += 1
            if sample.provenance2[n][0] == "copied":
                copied += 1
                copied_pairs[sample.marks1[sample.provenance2[n][1]], v] += 1
        lo = min(sample.marks2) if sample.marks2 else 0
        for n in range(lo, max(sample.marks2, default=lo - 1), 2):
            if n in sample.marks2 and n + 1 in sample.marks2:
                adjacent[sample.marks2[n], sample.marks2[n + 1]] += 1
    return {
        "marginal": marginal,
        "adjacent": adjacent,
        "copied_pairs": copied_pairs,
        "copied": copied,
        "decided": decided,
        "excluded": excluded,
        "resamples": resamples,
        "rank_failures": rank_failures,
        "equivariance_failures": equivariance_failures,
    }
