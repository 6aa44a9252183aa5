"""Deterministic sample fan-out, a block at a time.

Workers receive disjoint index ranges; every sample's randomness is keyed
by its absolute index, so results are identical for any worker count.
Each worker tallies its range in blocks of ``BLOCK`` samples, one
``collect`` call per block, so a suite's arrays stay small whatever the
sample count.  Partials merge by one rule, in ascending range order,
across blocks and across workers alike: dicts key by key (a key only one
side has is kept), every other value with ``+`` — ints add, numpy arrays
add elementwise, lists concatenate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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


def fan_out(collect, n_samples: int, workers: int, /, *args):
    """Tally range(n_samples) with collect(start, stop, *args) per block.

    The range splits into one contiguous part per worker; returns the
    partial results merged in ascending range order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    workers = min(max(1, int(workers)), n_samples)
    if workers == 1:
        return _tally_range(collect, 0, n_samples, *args)
    step = -(-n_samples // workers)
    bounds = [(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_tally_range, collect, lo, hi, *args) for lo, hi in bounds]
        return reduce(merge, (f.result() for f in futures))
