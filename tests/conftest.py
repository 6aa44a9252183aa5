from functools import lru_cache

import pytest
from hypothesis import settings

from chaconlab.chacon import build_system

# derandomized so that every run of the suite draws the same examples
settings.register_profile("chaconlab", derandomize=True, deadline=None)
settings.load_profile("chaconlab")


@lru_cache(maxsize=None)
def cached_system(n_max: int):
    return build_system(n_max)


@pytest.fixture(scope="session")
def get_system():
    return cached_system
