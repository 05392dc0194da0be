"""Shared fixtures."""

import random
import tracemalloc

import pytest

from radlab.core import canonicalize
from radlab.errors import TooLarge


@pytest.fixture
def too_large_before_allocating():
    """Assert that call raises TooLarge on each of the vectors (or other
    inputs), within 1 MiB of traced allocation each.  By default the
    vectors are wide ones with n = 23, the first n past the listed-sums
    rule for entries below 2^21, and n = 25: their entry sums T are far
    above the 2^n packed slots, and their 2^n sign sums do not fit the
    listed-sums budget."""

    def check(call, vectors=None):
        if vectors is None:
            rng = random.Random(64)
            vectors = [canonicalize([rng.randint(1 << 19, 1 << 20) for _ in range(n)]) for n in (23, 25)]
        for wide in vectors:
            tracemalloc.start()
            try:
                with pytest.raises(TooLarge):
                    call(wide)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    return check


@pytest.fixture(scope="session")
def prime_reciprocals_46():
    """1/2, 1/3, ..., 1/199 over the first 46 primes, as radlab eval takes
    it: scaled by the lcm of the denominators, each entry has ~270 bits."""
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    assert len(primes) == 46
    return ",".join(f"1/{p}" for p in primes)


@pytest.fixture(scope="session")
def wide_8000_bit_20():
    """One 20-vector of 8,000-bit entries: its 2^20 listed sums would need
    ~2.4 GB, and its entry sum is far above 2^20 packed slots."""
    rng = random.Random(66)
    return [canonicalize([rng.randint(1 << 7999, 1 << 8000) for _ in range(20)])]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs this process may use and ``search.MIN_SHARD_S`` at 1 ns,
    below what any probe takes, so that at RADLAB_THREADS=2 every sample
    runs on a pool of two workers, also on a one-CPU machine; returns the
    monkeypatch, for RADLAB_THREADS."""
    from radlab import search

    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(search, "MIN_SHARD_S", 1e-9)
    return monkeypatch
