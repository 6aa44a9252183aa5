"""Deterministic sample fan-out, a block at a time.

Workers receive disjoint index ranges; every sample's randomness is keyed
by its absolute index, so results are identical for any worker count.
Each worker tallies its range in blocks of ``BLOCK`` samples, one
``collect`` call per block, so a suite's arrays stay small whatever the
sample count.  Partials merge by one rule, in ascending range order,
across blocks and across workers alike: dicts key by key (a key only one
side has is kept), every other value with ``+`` — ints add, numpy arrays
add elementwise, lists concatenate.

With more than one worker, ``fan_out`` forks one child per range after
the first (POSIX ``os.fork``) and tallies the first range itself.  Each
child pickles ``(ok, value)`` — its tally, or the exception it raised —
into a pipe and leaves by ``os._exit``, so it runs no exit handler and
flushes no inherited output buffer.  The caller reads and reaps the
children in range order, merges their tallies after its own and raises a
child's exception as its own; no child outlives the call.
"""

from __future__ import annotations

import os
import pickle
import signal
from functools import reduce

# samples per collect call, small and fixed so that a suite's peak memory
# does not grow with the sample count; no result depends on it
BLOCK = 64


def merge(a, b):
    """Combine two partial results by the module's merge rule."""
    if isinstance(a, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = merge(out[key], value) if key in out else value
        return out
    return a + b


def _tally_range(collect, start: int, stop: int, *args):
    """collect(lo, hi, *args) on each block of [start, stop), merged in order."""
    blocks = range(start, stop, BLOCK)
    return reduce(merge, (collect(lo, min(lo + BLOCK, stop), *args) for lo in blocks))


def _fork_range(collect, start: int, stop: int, args):
    """Fork a child that tallies [start, stop) and pickles (ok, value) into a pipe.

    Returns the child's pid and the read end of its pipe.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1  # a child that cannot send its result says so by its status
    try:
        os.close(read)
        try:
            result = (True, _tally_range(collect, start, stop, *args))
        except BaseException as exc:
            result = (False, exc)
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def fan_out(collect, n_samples: int, workers: int, /, *args):
    """Tally range(n_samples) with collect(start, stop, *args) per block.

    The range splits into one contiguous part per worker; the caller
    tallies the first part and a forked child each other one.  Returns the
    partial results merged in ascending range order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    workers = min(max(1, int(workers)), n_samples)
    step = -(-n_samples // workers)
    (start, stop), *rest = [(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]
    children = []  # (start, stop, pid, pipe) of every child not yet reaped
    try:
        for lo, hi in rest:
            children.append((lo, hi, *_fork_range(collect, lo, hi, args)))
        tally = _tally_range(collect, start, stop, *args)
        while children:
            lo, hi, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise RuntimeError(
                    f"the worker for samples [{lo}, {hi}) ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            tally = merge(tally, value)
        return tally
    finally:
        for _, _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
