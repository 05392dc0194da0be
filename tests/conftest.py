"""Shared fixtures."""

import random
import tracemalloc

import pytest

from radlab.core import canonicalize
from radlab.errors import TooLarge


@pytest.fixture
def too_large_before_allocating():
    """Assert that call raises TooLarge on a wide n=25 vector within 1 MiB
    of traced allocation: its entry sum T is far above the 2^20 packed
    slots, and its 2^25 sign sums exceed the listed-sums cap."""

    def check(call):
        rng = random.Random(64)
        wide = canonicalize([rng.randint(1 << 19, 1 << 20) for _ in range(25)])
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                call(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    return check
