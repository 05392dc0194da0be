"""Property tests: both counting engines and the packed-product reader
they share with the exhaustive sweep equal the Gray-code oracle, the
claim suite's sign-sum convolution equals the literal enumeration and,
on the quick claim sample, the Gray-code oracle, the
two-sided norm tail is twice the one-sided one (as the dim-7 claim pass
assumes), the sum distribution equals the counted Gray-code
sums (also through its one-slot memo), the subset-count fraction equals its
subset-walking oracle, the linear-pass delta sweep and pairing equal their
bisection oracles on a warm or cold memo, and every checker's report
reruns to the same bytes."""

import gc
import tracemalloc
import weakref
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radlab import conjectures, verify
from radlab.conjectures import (
    CHECKERS,
    HOLDS,
    VIOLATED,
    CheckReport,
    check_pairing,
    combinatorial_fraction,
    combinatorial_fraction_gray,
    delta_sweep,
    rerun,
)
from radlab.core import canonicalize
from radlab.counting import (
    ONE_SIDED,
    TWO_SIDED,
    SumDistribution,
    TailCounts,
    distribution,
    tail_counts,
    tail_counts_gf,
    tail_counts_mitm,
    _gf_width,
    _classify,
    _half_sums,
    _packed_counts,
    _packed_fits,
    _packed_product,
    _threshold_boundary,
)
from radlab.errors import DimensionError, NonPositiveEntry, TooLarge
from radlab.search import KeySchedule

from oracles import brute_counts, iter_sign_sums, tail_counts_gray

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
    assert verify._reference_counts(a, rho, side) == TailCounts(a.n, *brute_counts(a.entries, rho, side))
    if _packed_fits(_gf_width(a.n), a.total):
        assert tail_counts_gf(a, rho, side) == oracle
    else:  # wide entries at n near 12 overflow the packed budget
        with pytest.raises(TooLarge):
            tail_counts_gf(a, rho, side)
    assert tail_counts_mitm(a, rho, side) == oracle
    assert tail_counts(a, rho, side) == oracle


@settings(max_examples=400, deadline=None, derandomize=True)
@given(vectors(), RHOS, SIDES)
def test_engines_match_oracle(a, rho, side):
    assert_engines_agree(a, rho, side)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vectors(), SIDES)
def test_engines_match_oracle_at_rho_zero(a, side):
    assert_engines_agree(a, 0, side)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(realized_thresholds(), SIDES)
def test_engines_match_oracle_on_realized_threshold(case, side):
    a, rho = case
    assert_engines_agree(a, rho, side)
    if side == ONE_SIDED:
        assert tail_counts_gf(a, rho, side).at > 0


def test_reference_matches_gray_on_the_quick_crossval_sample(monkeypatch):
    # the (a, rho, side) of the quick engine-crossval claim, in key order
    # on one worker, read off its calls of the packed engine
    monkeypatch.setenv("RADLAB_THREADS", "1")
    cases = []

    def spy(a, rho, side):
        cases.append((a, rho, side))
        return tail_counts_gf(a, rho, side)

    monkeypatch.setattr(verify, "tail_counts_gf", spy)
    assert verify._crossval_claim(8, 0, 7).passed
    assert len(cases) == 104
    assert {side for _, _, side in cases} == {ONE_SIDED, TWO_SIDED}
    assert any(_threshold_boundary(a.norm_sq, rho)[1] for a, rho, _ in cases)
    assert [verify._reference_counts(*case) for case in cases] == [tail_counts_gray(*case) for case in cases]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors(max_n=14))
def test_two_sided_norm_tail_is_twice_the_one_sided(a):
    # S and -S are equally frequent and ||a|| > 0: the dim-7 pass counts one side
    one = tail_counts(a, 1, ONE_SIDED)
    two = tail_counts(a, 1, TWO_SIDED)
    assert (two.below, two.at, two.above) == (
        (1 << a.n) - 2 * (one.at + one.above), 2 * one.at, 2 * one.above)


def test_dim7_pass_matches_a_direct_recount():
    floor, vsd, _ = verify._dim7_sample_claims(300, 7)
    sample = [a for _, a, _ in KeySchedule(7, "{seed}:dim7:{k}", ((7, 300),), 0, 50).draws()]
    assert floor.details["min_p_ge"] == min(
        tail_counts_gray(a, 1, TWO_SIDED).p_ge.fraction for a in sample)
    assert vsd.details["min_size"] == min(
        c.at + c.above for c in (tail_counts_gray(a, 1, ONE_SIDED) for a in sample))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors(), st.one_of(st.just(Fraction(0)), RHOS, st.integers(4, 60).map(Fraction)),
       SIDES, st.integers(0, 50))
def test_packed_counts_match_oracle(a, rho, side, extra_width):
    # the reader of tail_counts_gf and the exhaustive sweep, at any slot
    # width > n; rho >= 4 > sqrt(12) puts the threshold above the entry sum
    width = _gf_width(a.n) + extra_width
    assume(_packed_fits(width, a.total))
    k0, exact = _threshold_boundary(a.norm_sq, rho)
    below, at = _packed_counts(_packed_product(a.entries, width), width, a.total, k0, exact)
    one = tail_counts_gray(a, rho, ONE_SIDED)
    assert (below, at) == (one.below, one.at)
    assert _classify(a.n, below, at, k0, exact, side) == tail_counts_gray(a, rho, side)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors())
def test_half_sums_are_the_sign_sums_ascending(a):
    sums = _half_sums(a.entries)
    assert all(x <= y for x, y in zip(sums, sums[1:]))
    assert sums == sorted(iter_sign_sums(a.entries))


def sign_sum_table(a):
    return tuple(sorted(Counter(iter_sign_sums(a.entries)).items()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors())
def test_distribution_matches_sign_sums(a):
    # entries up to 2^20 reach the listed sums, small ones the packed slots
    assert distribution(a).pairs == sign_sum_table(a)


@st.composite
def packed_vectors(draw):
    """Canonical vectors with n <= 14 and entry sum T < 2^n, where both the
    packed slots and the listed sums of distribution fit."""
    n = draw(st.integers(1, 14))
    entries = draw(st.lists(st.integers(0, ((1 << n) - 1) // n), min_size=n, max_size=n))
    if not any(entries):
        entries[0] = 1
    return canonicalize(entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(packed_vectors())
def test_packed_and_listed_tables_agree(a):
    # distribution reads T < 2^n from the packed slots; the listed sums
    # give the same table, symmetric about 0
    pairs = distribution(a).pairs
    assert pairs == tuple(Counter(_half_sums(a.entries)).items())
    values, counts = zip(*pairs)
    assert values == tuple(-v for v in reversed(values))
    assert counts == counts[::-1]


# distribution's one-slot memo: consecutive calls on one vector share a
# table, and a call on another vector lets the previous table go.

def test_distribution_repeat_returns_the_same_table():
    a, b = canonicalize([3, 2, 2, 1]), canonicalize([5, 1, 1])
    first = distribution(a)
    assert distribution(a) is first
    other = distribution(b)
    assert other is not first
    assert other.pairs == sign_sum_table(b)
    assert first.pairs == sign_sum_table(a)


@st.composite
def slot_sequences(draw):
    """Calls on a few vectors, with repeats: a packed table (entries 1..3,
    so T < 2^n), a listed-sums table (entries near 2^20, so T >= 2^n) and
    any others."""
    packed = draw(st.lists(st.integers(1, 3), min_size=4, max_size=10))
    listed = draw(st.lists(st.integers(1 << 19, 1 << 20), max_size=9)) + [1]
    pool = [canonicalize(packed), canonicalize(listed)] + draw(st.lists(vectors(), max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1, max_size=12))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(slot_sequences())
def test_interleaved_distribution_calls_match_sign_sums(sequence):
    for a in sequence:
        assert distribution(a).pairs == sign_sum_table(a)


def test_too_large_build_leaves_the_slot_correct():
    a = canonicalize([3, 2, 2, 1])
    # n = 23 with entry sum above 2^23: past both tables
    big = canonicalize([(1 << 20) + i for i in range(23)])
    r = weakref.ref(distribution(a))
    tracemalloc.start()
    try:
        for _ in range(2):
            with pytest.raises(TooLarge):
                distribution(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before any table is allocated
    gc.collect()
    assert r() is None  # the slot was emptied before the refused build
    assert distribution(a).pairs == sign_sum_table(a)


def test_slot_lets_go_of_the_previous_table():
    a, b = canonicalize([7, 5, 3, 1]), canonicalize([2, 1])
    r = weakref.ref(distribution(a))
    distribution(b)
    gc.collect()
    assert r() is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vectors(), vectors())
def test_checkers_report_alike_on_warm_and_cold_slots(a, b):
    assume(a.entries != b.entries)
    for checker in (check_pairing, delta_sweep):
        table = distribution(a)
        warm = checker(a).to_json_dict()
        assert distribution(a) is table  # the checker read the slot's table
        distribution(b)
        assert checker(a).to_json_dict() == warm


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors(min_entry=1))
def test_combinatorial_fraction_matches_subset_walk(l):
    assert combinatorial_fraction(l) == combinatorial_fraction_gray(l)


# The bisection checkers that the linear passes replaced, kept as oracles.
# Both read the table through conjectures.distribution, so a test that
# substitutes a hand-made table feeds the oracle and the checker alike.

def _counter_above(dist):
    """t -> the number of sign sums strictly above t, by bisection."""
    values = [v for v, _ in dist.pairs]
    suffix = list(accumulate((c for _, c in reversed(dist.pairs)), initial=0))[::-1]
    return lambda t: suffix[bisect_right(values, t)]


def _jump_points(pos, norm_sq):
    """The distinct points v and norm_sq/v over the ascending positive sums
    v, in ascending order, as reduced (numerator, denominator) pairs."""
    out = []
    i, j = 0, len(pos) - 1
    while i < len(pos) or j >= 0:
        if j < 0 or (i < len(pos) and pos[i] * pos[j] <= norm_sq):
            if j >= 0 and pos[i] * pos[j] == norm_sq:
                j -= 1  # v == norm_sq/w: one point
            out.append((pos[i], 1))
            i += 1
        else:
            w = pos[j]
            g = gcd(norm_sq, w)
            out.append((norm_sq // g, w // g))
            j -= 1
    return out


def sweep_samples(a):
    """The sweep's samples in order, each with 2^n times the left side."""
    dist = conjectures.distribution(a)
    points = _jump_points([v for v, _ in dist.pairs if v > 0], a.norm_sq)
    (p0, q0), (pk, qk) = points[0], points[-1]
    samples = points + [(p0, q0 + 1), (pk + 1, qk)]
    samples += [(p1 + p2, q1 + q2) for (p1, q1), (p2, q2) in zip(points, points[1:])]
    above = _counter_above(dist)
    # 2^n times the threshold-pair left side at delta = (p/q)/||a||; the
    # sums are integers, so the floors of the thresholds split them alike
    return [((p, q), above(p // q) + above(a.norm_sq * q // p)) for p, q in samples]


def delta_sweep_bisect(a):
    samples = sweep_samples(a)
    best, best_pq = -1, samples[0][0]
    for pq, above in samples:
        if above > best:
            best, best_pq = above, pq
    best_lhs = Fraction(best, 1 << a.n)
    best_q = Fraction(*best_pq)
    holds = best_lhs <= Fraction(1, 2)
    values = {"max_lhs": best_lhs, "argmax_q": best_q, "points_tested": len(samples)}
    witness = None if holds else {"q": best_q, "max_lhs": best_lhs}
    return CheckReport(
        "delta-sweep", a, HOLDS if holds else VIOLATED, values, witness,
        note="delta parametrized as q/||a||; q rational",
    )


def check_pairing_bisect(a):
    dist = conjectures.distribution(a)
    half = 1 << (a.n - 1)
    runs = [(v, c if v else c // 2) for v, c in dist.pairs if v >= 0]
    vals = [v for v, _ in runs]
    ends = list(accumulate(c for _, c in runs))
    assert ends[-1] == half
    # one k per stretch where neither k nor half + 1 - k passes a run end
    max_product, witness = 0, None
    inner = ends[:-1]
    for k in sorted({1, *(e + 1 for e in inner), *(half + 1 - e for e in inner)}):
        s_k, partner = vals[bisect_left(ends, k)], vals[bisect_left(ends, half + 1 - k)]
        p = s_k * partner
        max_product = max(max_product, p)
        if p > a.norm_sq and witness is None:
            witness = {"k": k, "s_k": s_k, "partner": partner}
    holds = witness is None
    values = {"max_product": max_product, "norm_sq": a.norm_sq}
    return CheckReport(
        "pairing", a, HOLDS if holds else VIOLATED, values, witness,
        note="tests the sorted pairing; sufficient but not claimed necessary",
    )


def assert_checkers_match_oracles(a):
    assert delta_sweep(a).to_json_dict() == delta_sweep_bisect(a).to_json_dict()
    assert check_pairing(a).to_json_dict() == check_pairing_bisect(a).to_json_dict()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors())
def test_linear_checkers_match_bisection_oracles(a):
    assert_checkers_match_oracles(a)


def table(n, upper):
    """The symmetric table of 2^n sums whose upper half is upper."""
    counts = Counter(upper) + Counter(-x for x in upper)
    return SumDistribution(n, tuple(sorted(counts.items())))


@st.composite
def symmetric_tables(draw):
    """A vector and a hand-made symmetric table of 2^n sums, realizable or
    not.  Values that divide norm_sq make points v*w == norm_sq coincide."""
    entries = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(any))
    a = canonicalize(entries)
    divisors = [d for d in range(1, a.norm_sq + 1) if a.norm_sq % d == 0]
    size = 1 << (a.n - 1)
    upper = draw(st.lists(st.sampled_from(divisors) | st.integers(0, 3 * a.norm_sq),
                          min_size=size, max_size=size).filter(any))
    return a, table(a.n, upper)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(symmetric_tables())
def test_linear_checkers_match_oracles_on_synthetic_tables(case):
    # real vectors never violate either statement; these tables do
    a, dist = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjectures, "distribution", lambda _a: dist)
        assert_checkers_match_oracles(a)


def realized(entries):
    """A vector and its own table of sign sums."""
    a = canonicalize(entries)
    return a, SumDistribution(a.n, sign_sum_table(a))


HAND_TABLES = {
    # upper half 0, 2, 3, 9 against norm_sq 3: k = 1 pairs 0 with 9, and
    # the midpoint k = 2 pairs 2 with 3, whose product 6 exceeds 3
    "pairing-midpoint": (canonicalize([1, 1, 1]), table(3, [0, 2, 3, 9])),
    "pairing-self-partner": (canonicalize([1]), table(1, [2])),
    # 2 * 3 == norm_sq 6
    "coincident-points": (canonicalize([2, 1, 1]), table(3, [1, 2, 3, 5])),
    "tied-mediants": (canonicalize([1, 1, 1]), table(3, [0, 1, 4, 4])),
    "tied-with-below-first": (canonicalize([1, 1, 1]), table(3, [0, 0, 1, 2])),
    # delta_sweep walks the jump points up to the first p with p^2 >= norm_sq:
    # 12 + 4 - 3 = 13 = ||a||, a value and its own norm_sq/w point
    "root-realized": realized([12, 4, 3]),
    # the walk stops on norm_sq/w = 18/4 with w^2 < norm_sq (at w^2 = norm_sq
    # the point is also the value w, as in root-realized)
    "stops-on-quotient": realized([4, 1, 1]),
    # every positive value below ||a||: the values run out, then norm_sq/2
    "all-below-norm": (canonicalize([2, 1, 1]), table(3, [0, 1, 2, 2])),
    "all-above-norm": realized([1, 1]),
    # the first maximum lies on (14/4, 4), which straddles ||a|| = sqrt(14)
    "straddle-maximum": realized([3, 2, 1]),
}


@pytest.mark.parametrize("name", sorted(HAND_TABLES))
def test_linear_checkers_match_oracles_on_hand_tables(name, monkeypatch):
    a, dist = HAND_TABLES[name]
    monkeypatch.setattr(conjectures, "distribution", lambda _a: dist)
    assert_checkers_match_oracles(a)


def test_hand_tables_show_their_cases(monkeypatch):
    def use(name):
        a, dist = HAND_TABLES[name]
        monkeypatch.setattr(conjectures, "distribution", lambda _a: dist)
        return a, dist

    a, _ = use("pairing-midpoint")
    assert check_pairing(a).witness == {"k": 2, "s_k": 2, "partner": 3}
    a, _ = use("pairing-self-partner")
    assert check_pairing(a).witness == {"k": 1, "s_k": 2, "partner": 2}

    a, dist = use("coincident-points")
    positive = [v for v, _ in dist.pairs if v > 0]
    # the values 1, 2, 3, 5 and the points 6/w (6/5, 2, 3, 6) share 2 and 3
    assert delta_sweep(a).values["points_tested"] == 2 * (2 * len(positive) - 2) + 1

    # several samples share the maximum, so the first one must win: two
    # mediants in a violation, and the sample below the first point with
    # a later mediant
    for name, violated in (("tied-mediants", True), ("tied-with-below-first", False)):
        a, _ = use(name)
        samples = sweep_samples(a)
        lhs = [x for _, x in samples]
        assert lhs.count(max(lhs)) >= 2
        report = delta_sweep(a)
        assert report.values["argmax_q"] == Fraction(*samples[lhs.index(max(lhs))][0])
        assert report.violated == violated

    # the half walk's edges: the jump points at and past ||a||, and the
    # values' side of it
    def split_at_norm(name):
        a, dist = use(name)
        positive = [v for v, _ in dist.pairs if v > 0]
        points = [Fraction(p, q) for p, q in _jump_points(positive, a.norm_sq)]
        return a, positive, [x for x in points if x * x < a.norm_sq], [x for x in points if x * x >= a.norm_sq]

    a, positive, _, upper = split_at_norm("root-realized")
    assert upper[0] == 13 and 13 in positive and a.norm_sq == 13 * 13
    a, positive, _, upper = split_at_norm("stops-on-quotient")
    assert upper[0] == Fraction(a.norm_sq, 4) and upper[0] not in positive and 4 * 4 < a.norm_sq
    a, positive, _, _ = split_at_norm("all-below-norm")
    assert all(v * v < a.norm_sq for v in positive)
    a, positive, _, _ = split_at_norm("all-above-norm")
    assert all(v * v > a.norm_sq for v in positive)
    a, _, lower, upper = split_at_norm("straddle-maximum")
    assert lower[-1] < delta_sweep(a).values["argmax_q"] < upper[0]


def _checker_args(name):
    """A vector and the parameters the named checker takes."""
    if name == "delta":
        return st.tuples(vectors(), st.fixed_dictionaries({"delta": RHOS.filter(bool)}))
    if name == "delta-alt":
        deltas = st.builds(lambda p, q: Fraction(min(p, q), max(p, q)),
                           st.integers(1, 40), st.integers(1, 40))
        return st.tuples(vectors(), st.fixed_dictionaries({"delta": deltas}))
    return st.tuples(vectors(), st.just({}))


# the typed errors each checker documents for inputs outside its domain
DOMAIN_ERRORS = {"gprime": (NonPositiveEntry, DimensionError), "comb": (NonPositiveEntry,)}


@pytest.mark.parametrize("name", sorted(CHECKERS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rerun_reproduces_every_checker(name, data):
    a, params = data.draw(_checker_args(name))
    try:
        report = CHECKERS[name](a, **params)
    except DOMAIN_ERRORS.get(name, ()):
        return
    assert rerun(report).to_json_dict() == report.to_json_dict()
