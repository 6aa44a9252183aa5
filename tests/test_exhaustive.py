"""The walk against route A on every level multiset of a few atoms at small depths.

Within a configuration, atom order depends only on the atoms' levels in
the deepest tower: atoms on one level stay on one level, in offset order.
So at depth N a configuration of m atoms is one of C(h_N + m - 1, m)
types, the multisets of levels, and one configuration of each type shows
every order of returns the walk and route A can meet at that depth.  Each
setting's configurations go into one block, so budgets and atom counts
differ inside a block.
"""

from itertools import combinations_with_replacement
from operator import add, mod

import numpy as np
import pytest

from chaconlab.chacon import levels
from chaconlab.suites import MARK_STEPS
from chaconlab.suspension import TowerCoords, induced_return, walk_orbits
from conftest import cached_system, varied_spec

SPEC = varied_spec()
GROUP = SPEC.group

# (depth, most atoms): 494 types at depth 2, 23,425 at depth 3
SIZES = {2: 4, 3: 3}
# no orbit outlasts h_N - 1 steps, so a budget of h_N or more censors
# nothing; depth 3 takes two budgets, as each of its blocks costs about 1.4 s
SETTINGS = [(2, 1), (2, 2), (2, "h_N"), (2, 10_000), (3, 2), (3, 10_000)]


def every_type(system, most):
    """One configuration per multiset of up to ``most`` levels: positions, increasing.

    An atom sits at its level's left end, a repeated level's next atom one
    lattice unit to the right.
    """
    los = [level.lo for level in levels(system, system.n_max)]
    return [
        sorted(los[level] + multiset[:i].count(level) for i, level in enumerate(multiset))
        for m in range(1, most + 1)
        for multiset in combinations_with_replacement(range(len(los)), m)
    ]


@pytest.mark.parametrize("n_max, p_max", SETTINGS)
def test_walk_matches_route_a_on_every_type(n_max, p_max):
    system = cached_system(n_max)
    p_max = system.heights[-1] if p_max == "h_N" else p_max
    block = every_type(system, SIZES[n_max])
    counts = np.array([len(positions) for positions in block])
    flat = [x for positions in block for x in positions]
    rng = np.random.default_rng(n_max)
    start = rng.integers(0, GROUP.invariant_factors, size=(len(flat), GROUP.rank))
    wants = [range(1, len(positions) + 1) for positions in block]
    walked, _, _ = walk_orbits(
        TowerCoords(system, SPEC), flat, counts, wants, p_max, MARK_STEPS, start
    )
    factors = GROUP.invariant_factors
    origins = start.tolist()
    first = 0
    for positions, want, walk in zip(block, wants, walked):
        returned, _ = induced_return(system, SPEC, positions, want, p_max)
        origin = origins[first : first + len(positions)]
        first += len(positions)
        # the marks at ranks 1..k: the start marks plus route A's sums, mod the group
        expected = {
            k: (p, moved, tuple(tuple(map(mod, map(add, o, d), factors)) for o, d in zip(origin, sums)))
            for k, (p, moved, sums) in returned.items()
        }
        assert walk == expected, positions
