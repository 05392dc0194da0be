"""Property tests: both counting engines and the sweep's packed read equal
the Gray-code oracle, the sum distribution equals the counted Gray-code
sums, and the subset-count fraction equals its subset-walking oracle."""

from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radlab.conjectures import combinatorial_fraction, combinatorial_fraction_gray
from radlab.core import canonicalize
from radlab.counting import (
    GF_BIT_BUDGET,
    ONE_SIDED,
    TWO_SIDED,
    distribution,
    iter_sign_sums,
    tail_counts,
    tail_counts_gf,
    tail_counts_gray,
    tail_counts_mitm,
    _gf_bits,
    _gf_width,
    _norm_classes,
    _packed_product,
)
from radlab.errors import TooLarge

SIDES = st.sampled_from([ONE_SIDED, TWO_SIDED])
RHOS = st.builds(Fraction, st.integers(0, 40), st.integers(1, 9))


@st.composite
def vectors(draw, min_entry=0, max_n=12):
    """Canonical vectors with n <= max_n, entries from tiny to wide, zeros allowed."""
    hi = draw(st.sampled_from([1, 2, 3, 9, 50, 1000, 1 << 20]))
    entries = draw(st.lists(st.integers(min_entry, hi), min_size=1, max_size=max_n))
    if not any(entries):
        entries[0] = 1
    return canonicalize(entries)


@st.composite
def realized_thresholds(draw):
    """An integer-norm vector and rho with rho*||a|| a realized |a.s|.

    A vector with odd N = ||a||^2 extended by (N-1)/2 has norm (N+1)/2.
    """
    entries = draw(st.lists(st.integers(0, 12), min_size=1, max_size=9))
    if sum(x * x for x in entries) % 2 == 0:
        entries.append(1)
    norm_sq = sum(x * x for x in entries)
    entries.append((norm_sq - 1) // 2)
    a = canonicalize(entries)
    root = isqrt(a.norm_sq)
    assert root * root == a.norm_sq
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=a.n, max_size=a.n))
    s = abs(sum(x * y for x, y in zip(a.entries, signs)))
    return a, Fraction(s, root)


def assert_engines_agree(a, rho, side):
    oracle = tail_counts_gray(a, rho, side)
    if _gf_bits(a.n, a.total) <= GF_BIT_BUDGET:
        assert tail_counts_gf(a, rho, side) == oracle
    else:  # wide entries at n near 12 overflow the packed budget
        with pytest.raises(TooLarge):
            tail_counts_gf(a, rho, side)
    assert tail_counts_mitm(a, rho, side) == oracle
    assert tail_counts(a, rho, side) == oracle


@settings(max_examples=400, deadline=None)
@given(vectors(), RHOS, SIDES)
def test_engines_match_oracle(a, rho, side):
    assert_engines_agree(a, rho, side)


@settings(max_examples=200, deadline=None)
@given(vectors(), SIDES)
def test_engines_match_oracle_at_rho_zero(a, side):
    assert_engines_agree(a, 0, side)


@settings(max_examples=300, deadline=None)
@given(realized_thresholds(), SIDES)
def test_engines_match_oracle_on_realized_threshold(case, side):
    a, rho = case
    assert_engines_agree(a, rho, side)
    if side == ONE_SIDED:
        assert tail_counts_gf(a, rho, side).at > 0


@settings(max_examples=300, deadline=None)
@given(vectors())
def test_norm_classes_match_oracle(a):
    # the exhaustive sweep's read of its packed prefix product
    assume(_gf_bits(a.n, a.total) <= GF_BIT_BUDGET)
    poly = _packed_product(a.entries, _gf_width(a.n))
    oracle = tail_counts_gray(a, 1, TWO_SIDED)
    assert _norm_classes(poly, a.n, a.total, a.norm_sq) == (oracle.below, oracle.at, oracle.above)


@settings(max_examples=300, deadline=None)
@given(vectors())
def test_distribution_matches_sign_sums(a):
    # entries up to 2^20 reach the listed sums, small ones the packed slots
    assert distribution(a).pairs == tuple(sorted(Counter(iter_sign_sums(a.entries)).items()))


@settings(max_examples=300, deadline=None)
@given(vectors(min_entry=1))
def test_combinatorial_fraction_matches_subset_walk(l):
    assert combinatorial_fraction(l) == combinatorial_fraction_gray(l)
