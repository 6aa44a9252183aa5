from functools import lru_cache

import pytest
from hypothesis import Phase, settings

from chaconlab.chacon import build_system, tower_heights
from chaconlab.cocycle import CocycleSpec, FinAbGroup, StageValues

# derandomized so that every run of the suite draws the same examples; a
# failing example is reported as drawn, unshrunk, so a broken kernel fails
# in seconds instead of spending minutes shrinking its block examples
settings.register_profile(
    "chaconlab",
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("chaconlab")


@lru_cache(maxsize=None)
def cached_system(n_max: int):
    return build_system(n_max)


@pytest.fixture(scope="session")
def get_system():
    return cached_system


def varied_spec() -> CocycleSpec:
    """Z_3 x Z_2 values that change from spacer to spacer on stages 1..3.

    Stages 4 and 5 are left undeclared, so they carry zero up to the cutoff.
    """
    group = FinAbGroup((3, 2))
    heights = tower_heights(3)

    def value(j: int):
        return group.element((j % 3, j // 3 % 2))

    stages = tuple(
        StageValues(n, value(n), tuple(value(n + j) for j in range(3 * heights[n - 1] + 1)))
        for n in (1, 2, 3)
    )
    return CocycleSpec(group, group.element((1, 1)), stages, zero_beyond=5)
