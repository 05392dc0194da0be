"""The two counting engines (packed generating function and
meet-in-the-middle), their dispatch and the sum distribution, against
the Gray-code and literal-enumeration oracles of ``oracles``, which are
checked against each other here."""

import random
import struct
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radlab.core import CoeffVec, _canonical_entries, canonicalize, parse_vector
from radlab.counting import (
    _DIGIT_BYTES,
    _HALF_SUM_BYTES,
    _SUM_BYTES,
    ONE_SIDED,
    TWO_SIDED,
    _SLOT_FORMATS,
    SumDistribution,
    TailCounts,
    _gf_width,
    _half_sums,
    _listed_fits,
    _limits,
    _packed_fits,
    _tail_le,
    distribution,
    tail_count_engine,
    tail_counts,
    tail_counts_gf,
    tail_counts_mitm,
    tail_counts_threshold,
)
from radlab.errors import InvalidThreshold, TooLarge

from oracles import brute_counts, iter_sign_sums, random_vector, tail_counts_gray


class TestTailCountsNorm:
    def test_single_coordinate(self):
        c = tail_counts(CoeffVec((1,)))
        assert (c.below, c.at, c.above) == (0, 2, 0)
        assert c.p_ge.fraction == 1

    def test_six_ones_and_zero(self):
        c = tail_counts(CoeffVec((1, 1, 1, 1, 1, 1, 0)))
        assert (c.below, c.at, c.above) == (100, 0, 28)
        assert c.p_ge.fraction == Fraction(7, 32)

    def test_22111(self):
        # two-sided counts; the one-sided strict tail (4 of 32) is half of
        # the two-sided 8 by symmetry
        c = tail_counts(CoeffVec((2, 2, 1, 1, 1)))
        assert (c.below, c.at, c.above) == (24, 0, 8)
        assert c.p_gt.fraction == Fraction(1, 4)
        one = tail_counts_threshold(CoeffVec((2, 2, 1, 1, 1)), 1, ONE_SIDED)
        assert one.above == 4
        assert one.p_gt.fraction == Fraction(1, 8)

    def test_2221111(self):
        c = tail_counts(CoeffVec((2, 2, 2, 1, 1, 1, 1)))
        assert (c.below, c.at, c.above) == (68, 32, 28)
        assert c.p_gt.fraction == Fraction(7, 32)
        one = tail_counts_threshold(CoeffVec((2, 2, 2, 1, 1, 1, 1)), 1, ONE_SIDED)
        assert one.above == 14
        assert one.p_gt.fraction == Fraction(7, 64)

    def test_cap_raises_use_mitm(self):
        with pytest.raises(TooLarge):
            tail_counts_gray(CoeffVec(tuple([1] * 31)), 1, TWO_SIDED)


class TestTailCountsThreshold:
    def test_1111_rho_one(self):
        c = tail_counts_threshold(CoeffVec((1, 1, 1, 1)), 1, TWO_SIDED)
        assert (c.below, c.at, c.above) == (6, 8, 2)
        assert c.p_ge.fraction == Fraction(5, 8)

    def test_rho_zero_one_sided_symmetric(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 8)
            if a is None:
                continue
            c = tail_counts_threshold(a, 0, ONE_SIDED)
            assert c.above == c.below
            assert c.at == sum(
                1 for s in iter_sign_sums(a.entries) if s == 0
            )

    def test_fractional_rho(self):
        c = tail_counts_threshold(CoeffVec((1, 1, 1)), Fraction(5, 3), TWO_SIDED)
        assert (c.below, c.at, c.above) == (6, 0, 2)

    def test_negative_rho(self):
        with pytest.raises(InvalidThreshold):
            tail_counts_threshold(CoeffVec((1,)), Fraction(-1), TWO_SIDED)

    @pytest.mark.parametrize("rho", [1 / 3, 1.0, 0.0, True, False])
    def test_inexact_rho_refused(self, rho):
        # the float 1/3 is not 1/3 and True is not a number: each engine
        # refuses them rather than count at a nearby threshold
        for engine in (tail_counts, tail_counts_gf, tail_counts_mitm):
            with pytest.raises(InvalidThreshold):
                engine(canonicalize([2, 2, 1]), rho)

    def test_a_third_of_an_integer_norm(self):
        # ||(2,2,1)|| = 3: at rho = 1/3 the threshold 1 is realized by
        # four sign sums, which the float 1/3, a hair below, counted above
        c = tail_counts(canonicalize([2, 2, 1]), Fraction(1, 3))
        assert (c.below, c.at, c.above) == (0, 4, 4)

    def test_matches_brute_force(self):
        rng = random.Random(32)
        for _ in range(150):
            n = rng.randint(1, 9)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            rho = Fraction(rng.randint(0, 15), rng.randint(1, 5))
            side = rng.choice([ONE_SIDED, TWO_SIDED])
            expected = brute_counts(a.entries, rho, side)
            c = tail_counts_threshold(a, rho, side)
            assert (c.below, c.at, c.above) == expected
            g = tail_counts_gray(a, rho, side)
            assert (g.below, g.at, g.above) == expected

    def test_monotone_in_rho(self):
        rng = random.Random(34)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            rhos = sorted(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(4))
            above = [tail_counts_threshold(a, r, TWO_SIDED).above for r in rhos]
            assert all(above[i] >= above[i + 1] for i in range(len(above) - 1))

    def test_consistency_with_norm(self):
        rng = random.Random(35)
        for _ in range(30):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            assert tail_counts(a) == tail_counts_gray(a, 1, TWO_SIDED)


class TestDistribution:
    def test_pair(self):
        assert distribution(CoeffVec((1, 1))).pairs == ((-2, 1), (0, 2), (2, 1))

    def test_binomial(self):
        assert distribution(CoeffVec((1, 1, 1))).pairs == ((-3, 1), (-1, 3), (1, 3), (3, 1))

    def test_211111(self):
        d = distribution(CoeffVec((2, 1, 1, 1, 1, 1)))
        assert dict(d.pairs)[3] == dict(d.pairs)[-3] == 11

    def test_symmetry_and_total(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 10)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            d = distribution(a)
            assert sum(c for _, c in d.pairs) == 1 << n
            for v, c in d.pairs:
                assert dict(d.pairs)[-v] == c

    @pytest.mark.parametrize("pairs", [
        ((2, 1), (0, 2), (-2, 1)),  # values decreasing
        ((0, 2), (0, 2)),  # a repeated value
        ((-2, 1), (0, 1), (2, 1)),  # counts sum to 3, not 2^2
        ((-2, 3), (0, -2), (2, 3)),  # a negative count
        ((-2, 1), (0, 1), (2, 2)),  # counts not mirrored
        ((-2, 1), (1, 2), (2, 1)),  # values not mirrored
    ])
    def test_rejects_bad_tables(self, pairs):
        with pytest.raises(ValueError):
            SumDistribution(2, pairs)

    @pytest.mark.parametrize("n", [25, 40, 63])
    def test_all_ones_are_binomial(self, n):
        pairs = tuple((n - 2 * k, comb(n, k)) for k in range(n, -1, -1))
        assert distribution(CoeffVec((1,) * n)).pairs == pairs

    def test_slot_formats_read_their_widths(self):
        assert [(width, 8 * struct.calcsize(fmt)) for width, fmt in _SLOT_FORMATS] == [
            (8, 8), (16, 16), (32, 32), (64, 64)]

    @pytest.mark.parametrize("n", [7, 8, 15, 16, 31, 32, 63])
    def test_slot_width_boundaries(self, n):
        # a slot is the narrowest of 8, 16, 32 and 64 bits wider than n:
        # the two slots of (1, 0, ..., 0) hold 2^(n-1), the largest count
        # a nonzero vector has
        unit = CoeffVec((1,) + (0,) * (n - 1))
        assert distribution(unit).pairs == ((-1, 1 << n - 1), (1, 1 << n - 1))
        if n == 63:
            return
        ones = CoeffVec((1,) * n)
        pairs = tuple((n - 2 * k, comb(n, k)) for k in range(n, -1, -1))
        assert distribution(ones).pairs == pairs
        if n <= 16:
            assert pairs == tuple(Counter(_half_sums(ones.entries)).items())

    @pytest.mark.parametrize("carry", [
        lambda slot, width: (1 << width) + 1 - slot,  # slot 1 reads 1, slot 2 one more: the sum moves
        lambda slot, width: (1 << width) - 1,  # slot 1 one less, slot 2 one more: the sum stays
    ])
    def test_a_carried_slot_raises(self, monkeypatch, carry):
        from radlab import counting

        product = counting._packed_product

        def carried(entries, width):
            poly = product(entries, width)
            slot = (poly >> width) & ((1 << width) - 1)
            return poly + (carry(slot, width) << width)

        a = CoeffVec((3, 2, 2, 1))
        distribution(CoeffVec((1,)))  # empty the memo
        monkeypatch.setattr(counting, "_packed_product", carried)
        with pytest.raises(RuntimeError, match="do not sum to 2"):
            distribution(a)
        monkeypatch.undo()
        assert distribution(a).pairs == tuple(Counter(_half_sums(a.entries)).items())

    def test_32_bit_slots_fit_entry_sums_the_64_bit_ones_did_not(self, monkeypatch):
        # n = 21 with T = 2^20 takes 32-bit slots, which fit where 64-bit
        # ones did not, so the 2^21 sums are never listed; the table is
        # +-(2^20 - 20) plus 20 ones' binomial
        from radlab import counting

        monkeypatch.setattr(counting, "_half_sums", None)
        big = (1 << 20) - 20
        a = CoeffVec((big,) + (1,) * 20)
        assert (a.total, _packed_fits(32, a.total), _packed_fits(64, a.total)) == (1 << 20, True, False)
        upper = [(big + 20 - 2 * k, comb(20, k)) for k in range(20, -1, -1)]
        assert distribution(a).pairs == tuple((-v, c) for v, c in reversed(upper)) + tuple(upper)

    def test_cap(self, too_large_before_allocating):
        # 25 small entries fit the packed slots; 25 wide ones fit neither
        # table and fail before anything is allocated
        assert dict(distribution(CoeffVec((1,) * 25)).pairs)[1] == comb(25, 12)
        too_large_before_allocating(distribution)


class TestMitm:
    def test_matches_direct_small(self):
        rng = random.Random(51)
        for _ in range(150):
            n = rng.randint(1, 12)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            rho = Fraction(rng.randint(0, 15), rng.randint(1, 5))
            side = rng.choice([ONE_SIDED, TWO_SIDED])
            assert tail_counts_mitm(a, rho, side) == tail_counts_gray(a, rho, side)

    def test_all_ones_n30_no_boundary(self):
        # sums share the parity of n and sqrt(30) is irrational, so
        # nothing can land exactly on the norm
        c = tail_counts_mitm(CoeffVec(tuple([1] * 30)), 1, TWO_SIDED)
        assert c.at == 0
        assert c.below + c.above == 1 << 30

    def test_seven_dim_example(self):
        c = tail_counts_mitm(CoeffVec((1, 1, 1, 1, 1, 1, 0)), 1, TWO_SIDED)
        assert (c.below, c.at, c.above) == (100, 0, 28)

    def test_cap(self):
        with pytest.raises(TooLarge):
            tail_counts_mitm(CoeffVec(tuple([1] * 47)), 1)

    def test_rho_zero(self):
        a = CoeffVec((2, 1, 1))
        assert tail_counts_mitm(a, 0, ONE_SIDED) == tail_counts_gray(a, 0, ONE_SIDED)
        assert tail_counts_mitm(a, 0, TWO_SIDED) == tail_counts_gray(a, 0, TWO_SIDED)

    @pytest.mark.parametrize("entries", [
        (1,),  # n = 1: the right half is the single sum 0
        (1, 0), (3, 2, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0, 0),  # zero entries
        (1,) * 4, (1,) * 9, (1,) * 16, (1 << 20,) * 11 + (1,),  # long runs of equal half sums
        (4, 3), (2, 2, 1), (4, 2, 2, 1), (6, 3, 2), (12, 4, 3),  # integer norms
    ])
    def test_pointer_edge_cases_match_gray(self, entries):
        a = CoeffVec(entries)
        root = isqrt(a.norm_sq)
        # rho = 0 and rho*||a|| = T are realized thresholds when the norm
        # is an integer; rho*||a|| just past T leaves nothing above
        for rho in (Fraction(0), Fraction(1), Fraction(a.total, root), Fraction(a.total + 1, root)):
            self.assert_matches_gray(a, rho)
        if root * root == a.norm_sq:
            # S = T needs every nonzero entry signed +
            assert tail_counts_mitm(a, Fraction(a.total, root), ONE_SIDED).at == 1 << entries.count(0)
            top = tail_counts_mitm(a, Fraction(a.total + 1, root), TWO_SIDED)
            assert (top.below, top.above) == (1 << a.n, 0)

    @staticmethod
    def walk_bounds(a, v):
        """The left and right half sums of a and the bounds lo, hi of the
        left sums that count_le(v) walks."""
        split = (a.n + 1) // 2
        left, right = _half_sums(a.entries[:split]), _half_sums(a.entries[split:])
        return left, right, bisect_right(left, v - right[-1]), bisect_right(left, v - right[0])

    def assert_matches_gray(self, a, rho):
        for side in (ONE_SIDED, TWO_SIDED):
            assert tail_counts_mitm(a, rho, side) == tail_counts_gray(a, rho, side), (rho, side)

    def test_nothing_walked(self):
        # every left sum pairs with all right sums or with none
        a = CoeffVec((1 << 20, 1 << 20, 1, 1))
        lt, le = _limits(a.norm_sq, 1)
        left, _, lo, hi = self.walk_bounds(a, le)
        assert lt == le and 0 < lo == hi < len(left)
        self.assert_matches_gray(a, Fraction(1))

    def test_every_pair_counted(self):
        # rho*||a|| >= T: the first bisection takes every left sum
        a = CoeffVec((9, 7, 4, 4, 1))
        rho = Fraction(a.total, isqrt(a.norm_sq))
        _, le = _limits(a.norm_sq, rho)
        left, _, lo, hi = self.walk_bounds(a, le)
        assert lo == hi == len(left)
        assert tail_counts_mitm(a, rho, ONE_SIDED).above == 0
        self.assert_matches_gray(a, rho)

    def test_runs_of_equal_left_sums_straddle_a_cut(self):
        # the left half sums of six equal entries come in binomial runs; at
        # some realized sums v, a run of equal left sums ends at the cut lo
        a = CoeffVec((1 << 20,) * 11 + (1,))
        root = isqrt(a.norm_sq)
        straddled = 0
        for v in sorted({abs(s) for s in iter_sign_sums(a.entries)}):
            if v >= root:  # floor(v / root * ||a||) = v needs v < isqrt(||a||^2)
                continue
            rho = Fraction(v, root)
            assert _limits(a.norm_sq, rho) == (v, v)
            left, right, lo, _ = self.walk_bounds(a, v)
            straddled += bisect_left(left, v - right[-1]) < lo - 1
            self.assert_matches_gray(a, rho)
        assert straddled

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_gray(self, data):
        # entries up to 2^20, zeros allowed; rho from 0 to just past T / ||a||
        entries = data.draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=14))
        if not any(entries):
            entries[0] = 1
        a = canonicalize(entries)
        root = isqrt(a.norm_sq)
        rho = data.draw(st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(a.total, root), Fraction(a.total + 1, root)]),
            st.fractions(0, Fraction(a.total + 1, root), max_denominator=root)))
        self.assert_matches_gray(a, rho)


def test_auto_dispatch():
    assert tail_counts is tail_counts_threshold
    assert tail_counts is not tail_counts_mitm
    small = canonicalize([1] * 8)
    assert tail_counts(small) == tail_counts_gray(small, 1, TWO_SIDED)
    # n=30 is meet-in-the-middle work, not a 2^30 sweep
    ones = canonicalize([1] * 30)
    assert tail_counts(ones) == tail_counts_mitm(ones, 1, TWO_SIDED)
    big = canonicalize([1] * 32)
    c = tail_counts(big)
    assert c.below + c.at + c.above == 1 << 32


class TestKernel:
    """The count kernel on canonical entry tuples, as the sampled paths
    call it, against the front door on the canonical vector."""

    RHOS = (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(7, 4), Fraction(5))

    @pytest.mark.parametrize("hi", [20, 1 << 20])
    def test_kernel_equals_tail_counts_on_permutations_and_multiples(self, hi):
        rng = random.Random(66)
        engines = set()
        for _ in range(60):
            n = rng.randint(1, 12)
            raw = [rng.randint(0, hi) for _ in range(n)]
            if not any(raw):
                continue
            a = canonicalize(raw)
            engines.add(tail_count_engine(a))
            expected = {side: [tail_counts(a, rho, side) for rho in self.RHOS] for side in (ONE_SIDED, TWO_SIDED)}
            # a permutation and a common multiple of the draws make the same entries
            c = rng.randint(2, 9)
            for variant in (raw, rng.sample(raw, n), [c * x for x in raw]):
                entries = _canonical_entries(variant)
                assert entries == a.entries
                total, norm_sq = sum(entries), sum(x * x for x in entries)
                # the engine tail_counts picks, and each engine where its table fits
                named = [None, "mitm"] + (["gf"] if _packed_fits(_gf_width(n), total) else [])
                for engine in named:
                    for side in (ONE_SIDED, TWO_SIDED):
                        assert _tail_le(entries, n, total, norm_sq, self.RHOS, side, engine) == expected[side], (
                            entries, engine, side)
        # small entries count through the packed product, wide ones through
        # meet-in-the-middle
        assert engines == ({"gf"} if hi == 20 else {"gf", "mitm"})

    @pytest.mark.parametrize("engine, n, refusal", [
        ("gf", 60, "the packed product does not fit"),
        ("mitm", 47, "the half sums do not fit"),
        (None, 47, "neither engine's table fits"),
    ])
    def test_the_kernel_admits_its_table_before_allocating(self, engine, n, refusal):
        # 20-bit entries: at n = 60 the packed product would take ~480 MB,
        # at n = 47 the half sums ~1.3 GB; the kernel refuses either table
        # itself, with the front doors' error, and allocates nothing
        entries = tuple(range((1 << 20) + n, 1 << 20, -1))
        total, norm_sq = sum(entries), sum(x * x for x in entries)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"^n={n} with a 26-bit entry sum: {refusal}$"):
                _tail_le(entries, n, total, norm_sq, (1,), TWO_SIDED, engine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestDispatch:
    def test_small_entries_use_gf(self):
        assert tail_count_engine(canonicalize([1] * 30)) == "gf"
        assert tail_count_engine(CoeffVec((1, 1, 1, 1, 1, 1, 0))) == "gf"

    def test_wide_entries_fall_back(self):
        rng = random.Random(61)
        for n in (10, 14, 32):
            a = canonicalize([rng.randint(1, 1 << 20) for _ in range(n)])
            assert tail_count_engine(a) == "mitm"
            assert tail_counts(a) == tail_counts_mitm(a, 1, TWO_SIDED)

    def test_n60_small_entries_counts_through_gf(self):
        rng = random.Random(62)
        a = canonicalize([rng.randint(1, 50) for _ in range(60)])
        assert tail_count_engine(a) == "gf"
        two = tail_counts(a)
        one = tail_counts(a, 1, ONE_SIDED)
        assert two.below + two.at + two.above == 1 << 60
        # |S| > t splits evenly between S > t and S < -t
        assert (two.at, two.above) == (2 * one.at, 2 * one.above)
        assert two == tail_counts_gf(a, 1, TWO_SIDED)
        with pytest.raises(TooLarge):
            tail_counts_mitm(a, 1, TWO_SIDED)

    def test_too_large_raised_before_allocating(self):
        # n = 47 is the first n whose half sums would not fit 1 GiB
        rng = random.Random(63)
        a = canonicalize([rng.randint(1 << 19, 1 << 20) for _ in range(47)])
        assert tail_count_engine(canonicalize(a.entries[1:])) == "mitm"
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                tail_count_engine(a)
            with pytest.raises(TooLarge):
                tail_counts(a)
            with pytest.raises(TooLarge):
                tail_counts_gf(a, 1, TWO_SIDED)
            with pytest.raises(TooLarge):
                tail_counts_mitm(a, 1, TWO_SIDED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20



def half_sum_count(n):
    return (1 << (n + 1) // 2) + (1 << n // 2)


class TestSizeRule:
    """Every table is admitted by _packed_fits or _listed_fits, from n and
    the entry sum T alone, before anything is allocated."""

    @pytest.mark.parametrize("width", [1, 20, 21])
    def test_narrow_entries_keep_the_caps(self, width):
        # entries below 2^width <= 2^21: T stays one 30-bit digit
        top = (1 << width) - 1
        for total in (46, 46 * top):
            assert _listed_fits(half_sum_count(46), _HALF_SUM_BYTES, total)
        for total in (47, 47 * top):
            assert not _listed_fits(half_sum_count(47), _HALF_SUM_BYTES, total)
        for total in (22, 22 * top):
            assert _listed_fits(1 << 22, _SUM_BYTES, total)
        for total in (23, 23 * top):
            assert not _listed_fits(1 << 23, _SUM_BYTES, total)

    def test_packed_boundary(self):
        # T+1 slots of 64 bits within 2^26 bits, and of 32 bits
        assert _packed_fits(64, (1 << 20) - 1)
        assert not _packed_fits(64, 1 << 20)
        assert _packed_fits(32, (1 << 21) - 1)
        assert not _packed_fits(32, 1 << 21)

    @pytest.mark.parametrize("width", [20, 1000])
    def test_model_bounds_the_measured_peak(self, width):
        rng = random.Random(65)
        a = canonicalize([rng.randint(1 << (width - 1), 1 << width) for _ in range(16)])
        per_digit = _DIGIT_BYTES * -(-a.total.bit_length() // 30)
        for call, bound in (
            (lambda: tail_counts_mitm(a, 1, TWO_SIDED), half_sum_count(16) * (_HALF_SUM_BYTES + per_digit)),
            (lambda: distribution(a), (1 << 16) * (_SUM_BYTES + per_digit)),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_wide_rationals_are_refused_before_allocating(
            self, too_large_before_allocating, prime_reciprocals_46):
        # the lcm of 46 prime denominators makes ~270-bit entries, whose
        # half sums would need ~1.3 GB: a cap on n alone admits them
        a = parse_vector(prime_reciprocals_46)
        assert (a.n, a.total.bit_length()) == (46, 274)
        for call in (tail_count_engine, tail_counts, lambda v: tail_counts_mitm(v, 1, TWO_SIDED)):
            too_large_before_allocating(call, [a])
        with pytest.raises(TooLarge, match=r"^n=46 with a 274-bit entry sum: neither engine's table fits$"):
            tail_counts(a)

    def test_wide_distribution_is_refused_before_allocating(
            self, too_large_before_allocating, wide_8000_bit_20):
        too_large_before_allocating(distribution, wide_8000_bit_20)


def test_probability_accessors_sum_to_one():
    c = TailCounts(3, 2, 4, 2)
    assert c.p_lt.fraction + c.p_eq.fraction + c.p_gt.fraction == 1
    assert c.p_le.fraction == Fraction(3, 4)
    assert c.p_ge.fraction == Fraction(3, 4)
