"""Deterministic sample fan-out.

Workers receive disjoint index ranges; every sample's randomness is keyed
by its absolute index, so results are identical for any worker count.
Partials merge by one rule, in ascending range order: dicts key by key
(a key only one side has is kept), every other value with ``+`` — ints
add, numpy arrays add elementwise, lists concatenate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import reduce


def merge(a, b):
    """Combine two partial results by the module's merge rule."""
    if isinstance(a, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = merge(out[key], value) if key in out else value
        return out
    return a + b


def fan_out(collect, n_samples: int, workers: int, /, *args):
    """Run collect(start, stop, *args) over a partition of range(n_samples).

    Returns the partial results merged in ascending range order.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    workers = max(1, int(workers))
    if workers == 1 or n_samples <= 1:
        return collect(0, n_samples, *args)
    workers = min(workers, n_samples)
    step = -(-n_samples // workers)
    bounds = [(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(collect, lo, hi, *args) for lo, hi in bounds]
        return reduce(merge, (f.result() for f in futures))
