"""Shared fixtures."""

import random
import tracemalloc

import pytest

from radlab.core import canonicalize
from radlab.errors import TooLarge


@pytest.fixture
def too_large_before_allocating():
    """Assert that call raises TooLarge on wide vectors with n = 23, the
    first n past the listed-sums cap, and n = 25, within 1 MiB of traced
    allocation each: their entry sums T are far above the 2^n packed
    slots, and their 2^n sign sums exceed the listed-sums cap."""

    def check(call):
        rng = random.Random(64)
        for n in (23, 25):
            wide = canonicalize([rng.randint(1 << 19, 1 << 20) for _ in range(n)])
            tracemalloc.start()
            try:
                with pytest.raises(TooLarge):
                    call(wide)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    return check
