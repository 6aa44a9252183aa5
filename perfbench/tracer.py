"""Span tracer for the traced benchmark pass.

The tracer measures chaconlab from outside: ``install`` replaces every
module attribute that binds one of the functions in ``LAYERS`` with a
timing wrapper, so calls made through names imported elsewhere
(``suites`` and ``suspension`` import several by name) are timed too.
Nothing under ``src/`` knows it is being traced.

Every wrapped call is a span with a name, a start and an end.  Self time
is a span's time minus the time its child spans cover.  The hot layers
(``apply_T``, ``eval_phi``, keyed draws) are called hundreds of thousands
of times a run, so every span is folded into per-name totals (calls,
total time, self time) the moment it closes.  The coarse spans (suite,
fan-out, collect ranges, samples, tower builds, report output) are also
kept one by one with their parent, the innermost kept span open when
they started, because the parallel and per-sample metrics need them.

A sample's span runs from its sampler call to the next sample's sampler
call in the same process; the sampler's ``stream`` argument keys it.
Worker processes are forked and inherit the wrappers; a fork hook clears
the copied state, and each process writes its spans to ``out_dir`` when a
``collect_*`` range returns.  The parent writes the rest at exit, and the
benchmark merges the files.  ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, so times from different processes compare.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

clock = time.perf_counter

MODULES = ("chacon", "cocycle", "suspension", "joining", "stats", "suites", "parallel", "cli")

# (module, attribute, span name) for every wrapped function
LAYERS = (
    ("chacon", "build_system", "chacon.build_system"),
    ("chacon", "apply_T", "chacon.apply_T"),
    ("cocycle", "eval_phi", "cocycle.eval_phi"),
    ("cocycle", "phi_iter", "cocycle.phi_iter"),
    ("suspension", "sample_poisson", "suspension.sample_poisson"),
    ("suspension", "push_forward", "suspension.push_forward"),
    ("suspension", "return_time_N_k", "suspension.return_time_N_k"),
    ("suspension", "induced_return", "suspension.induced_return"),
    ("suspension", "skew_apply_group", "suspension.skew_apply_group"),
    ("suspension", "phi_k_vector", "suspension.phi_k_vector"),
    # sample_biconfig delegates to this; collect_joining calls it directly
    ("joining", "_sample_biconfig_counted", "joining.sample_biconfig"),
    ("joining", "couple_marks", "joining.couple_marks"),
    ("joining", "advance_joint", "joining.advance_joint"),
    ("joining", "rank_tracking_consistent", "joining.rank_tracking_consistent"),
    ("stats", "make_rng", "stats.make_rng"),
    ("stats", "ks_exponential", "stats.ks_exponential"),
    ("stats", "chi2_poisson", "stats.chi2_poisson"),
    ("stats", "chi2_gof", "stats.chi2_gof"),
    ("stats", "chi2_independence", "stats.chi2_independence"),
    ("stats", "mc_mean", "stats.mc_mean"),
    ("suites", "collect_poisson", "suites.collect_poisson"),
    ("suites", "collect_suspension", "suites.collect_suspension"),
    ("joining", "collect_joining", "joining.collect_joining"),
    ("suites", "run_poisson_suite", "suites.run_poisson_suite"),
    ("suites", "run_suspension_suite", "suites.run_suspension_suite"),
    ("joining", "verify_joining", "joining.verify_joining"),
    ("parallel", "fan_out", "parallel.fan_out"),
    ("cli", "_emit", "cli.emit"),
)

# one keyed draw is one KeyedStream._state call: one 64-bit value per key
KEYED_DRAW = ("stats", "KeyedStream", "_state", "stats.keyed_draw")

# collect range -> (sampler span, sampler calls per sample)
COLLECTS = {
    "suites.collect_poisson": ("suspension.sample_poisson", 3),
    "suites.collect_suspension": ("suspension.sample_poisson", 1),
    "joining.collect_joining": ("joining.sample_biconfig", 2),
}
SUITES = ("suites.run_poisson_suite", "suites.run_suspension_suite", "joining.verify_joining")
KEPT = frozenset(
    ("chacon.build_system", "parallel.fan_out", "cli.emit", *COLLECTS, *SUITES)
)
COUNTERS = ("atom_steps", "sampled_atoms", "trajectory_atom_steps")

# frame slots
START, CHILD, NAME, PUSHES, SPAN_ID = range(5)


def _bound_argument(fn, name: str, default=None):
    signature = inspect.signature(fn)

    def read(args, kwargs):
        return signature.bind(*args, **kwargs).arguments.get(name, default)

    return read


class Tracer:
    """Span and counter store for one process; see the module docstring."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[list] = []
        self.samples: list[list] = []
        self.sample: list | None = None  # [index, start, atoms, trajectory steps]
        self.collect: tuple | None = None  # (sampler, per sample, mark_steps)
        self.pid = os.getpid()
        self.seq = 0
        self.dumps = 0
        os.register_at_fork(after_in_child=self._forked)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"chaconlab.{m}") for m in MODULES}
        for module, attr, name in LAYERS:
            original = getattr(modules[module], attr)
            wrapped = self._wrap(name, original)
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapped)
        module, cls_name, attr, name = KEYED_DRAW
        cls = getattr(modules[module], cls_name)
        setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    def _wrap(self, name: str, fn):
        rec = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        before = after = None
        if name == "suspension.push_forward":
            before = self._before_push
        elif name == "suspension.return_time_N_k":
            after = self._after_return_time
        elif name in COLLECTS:
            before = self._collect_opener(name, fn)
            after = self._after_collect
        elif name == "suspension.sample_poisson":
            before = self._sampler_hook(name, fn)
            after = self._after_poisson_sampler
        elif name == "joining.sample_biconfig":
            before = self._sampler_hook(name, fn)
        keep = name in KEPT

        if before is None and after is None and not keep:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                frame = [clock(), 0.0, name, 0, None]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[START]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[CHILD]
                    if stack:
                        stack[-1][CHILD] += dur

            return timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0, name, 0, None]
            if keep:
                frame[SPAN_ID] = self._next_id()
            if before is not None:
                before(frame, args, kwargs)
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[START]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[CHILD]
                if stack:
                    stack[-1][CHILD] += dur
                if keep:
                    self.spans.append(
                        [frame[SPAN_ID], name, frame[START], end, self._parent_id()]
                    )
                if after is not None:
                    after(frame, end, result)

        return traced

    # -- hooks ----------------------------------------------------------

    def _before_push(self, frame, args, kwargs) -> None:
        atoms = (args[1] if len(args) > 1 else kwargs["config"]).count
        self.counts["atom_steps"] += atoms
        if self.stack and self.stack[-1][NAME] == "suspension.return_time_N_k":
            self.stack[-1][PUSHES] += 1

    def _after_return_time(self, frame, end, result) -> None:
        # steps walked, whether a return was found or the orbit was censored
        if self.sample is not None:
            self.sample[3] = max(self.sample[3], frame[PUSHES])

    def _collect_opener(self, name, fn):
        sampler, per_sample = COLLECTS[name]
        read_mark_steps = _bound_argument(fn, "mark_steps", 0)

        def before(frame, args, kwargs):
            self.collect = (sampler, per_sample, read_mark_steps(args, kwargs))

        return before

    def _after_collect(self, frame, end, result) -> None:
        self._close_sample(end)
        self.collect = None
        self.dump()

    def _sampler_hook(self, name, fn):
        read_stream = _bound_argument(fn, "stream", 0)

        def before(frame, args, kwargs):
            if self.collect is None or self.collect[0] != name:
                return
            index = read_stream(args, kwargs) // self.collect[1]
            if self.sample is None or self.sample[0] != index:
                self._close_sample(frame[START])
                self.sample = [index, frame[START], 0, 0]

        return before

    def _after_poisson_sampler(self, frame, end, result) -> None:
        if result is None:  # the sampler raised
            return
        self.counts["sampled_atoms"] += result.count
        if self.sample is not None and self.collect[1] == 1:
            self.sample[2] = result.count  # one configuration per sample

    def _close_sample(self, end: float) -> None:
        if self.sample is None:
            return
        index, start, atoms, steps = self.sample
        mark_steps = self.collect[2] if atoms >= 2 else 0
        self.counts["trajectory_atom_steps"] += atoms * max(steps, mark_steps)
        self.samples.append([index, start, end])
        self.sample = None

    # -- bookkeeping ----------------------------------------------------

    def _next_id(self) -> str:
        self.seq += 1
        return f"{self.pid}:{self.seq}"

    def _parent_id(self) -> str | None:
        for frame in reversed(self.stack):
            if frame[SPAN_ID] is not None:
                return frame[SPAN_ID]
        return None

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.seq = self.dumps = 0
        self.stack.clear()
        self.sample = self.collect = None
        self._reset()

    def _reset(self) -> None:
        for rec in self.totals.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        self.spans.clear()
        self.samples.clear()

    def dump(self) -> None:
        """Write everything recorded since the last dump and start afresh."""
        self.dumps += 1
        path = os.path.join(self.out_dir, f"trace-{self.pid}-{self.dumps}.json")
        payload = {
            "pid": self.pid,
            "totals": self.totals,
            "counts": self.counts,
            "spans": self.spans,
            "samples": self.samples,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
        self._reset()
