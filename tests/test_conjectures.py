"""Predicate checkers: exact values, verdicts, and report plumbing."""

import random
from fractions import Fraction
from itertools import product

import pytest

from radlab.core import CoeffVec, canonicalize
from radlab.conjectures import (
    CheckReport,
    GPRIME_TABLE,
    check_combinatorial,
    check_delta_alt,
    check_delta_inequality,
    check_gprime,
    check_hk_bound,
    check_pairing,
    check_symmetric_tails,
    check_tomaszewski,
    classify_A_or_B,
    combinatorial_fraction,
    combinatorial_fraction_gray,
    delta_sweep,
    _implied_counterexample,
)
from radlab import counting
from radlab.counting import ONE_SIDED, distribution, tail_counts
from radlab.errors import (
    DimensionError,
    InvalidThreshold,
    NonPositiveEntry,
)

from oracles import random_vector, rerun


class TestTomaszewski:
    def test_boundary_pair(self):
        r = check_tomaszewski(CoeffVec((1, 1)))
        assert r.holds and r.values["p_le_norm"].fraction == Fraction(1, 2)

    def test_three_ones(self):
        r = check_tomaszewski(CoeffVec((1, 1, 1)))
        assert r.holds and r.values["p_le_norm"].fraction == Fraction(3, 4)

    def test_degenerate(self):
        r = check_tomaszewski(CoeffVec((1, 0)))
        assert r.holds and r.values["p_le_norm"].fraction == 1


class TestSymmetricTails:
    def test_four_ones(self):
        r = check_symmetric_tails(CoeffVec((1, 1, 1, 1)))
        assert r.holds
        assert r.values["p_lt_norm"].fraction == Fraction(6, 16)
        assert r.values["p_gt_norm"].fraction == Fraction(2, 16)

    def test_equality_case(self):
        r = check_symmetric_tails(CoeffVec((1, 1)))
        assert r.holds
        assert r.values["p_lt_norm"].fraction == r.values["p_gt_norm"].fraction

    def test_extremal_seven(self):
        r = check_symmetric_tails(CoeffVec((1, 1, 1, 1, 1, 1, 0)))
        assert r.holds
        assert r.values["p_lt_norm"].fraction == Fraction(100, 128)
        assert r.values["p_gt_norm"].fraction == Fraction(28, 128)

    def test_reformulations_are_identities(self):
        rng = random.Random(81)
        for _ in range(100):
            n = rng.randint(1, 9)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            r = check_symmetric_tails(a)
            assert r.values["gt_le_half_minus_half_atom"] == r.holds
            assert r.values["le_ge_half_plus_half_atom"] == r.holds


class TestDeltaInequality:
    def test_four_ones_delta_one(self):
        r = check_delta_inequality(CoeffVec((1, 1, 1, 1)), 1)
        assert r.holds and r.values["lhs"] == Fraction(1, 8)

    def test_single_coordinate_equality(self):
        r = check_delta_inequality(CoeffVec((1,)), 2)
        assert r.holds and r.values["lhs"] == Fraction(1, 2)

    def test_pair_equality(self):
        r = check_delta_inequality(CoeffVec((1, 1)), 1)
        assert r.holds and r.values["lhs"] == Fraction(1, 2)

    def test_bad_delta(self):
        with pytest.raises(InvalidThreshold):
            check_delta_inequality(CoeffVec((1, 1)), 0)

    @pytest.mark.parametrize("delta", [1 / 3, 1.0, True])
    def test_inexact_delta_refused(self, delta):
        with pytest.raises(InvalidThreshold):
            check_delta_inequality(CoeffVec((2, 2, 1)), delta)

    def test_symmetric_in_delta_inversion(self):
        rng = random.Random(82)
        for _ in range(60):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            d = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            r1 = check_delta_inequality(a, d)
            r2 = check_delta_inequality(a, 1 / d)
            assert r1.values["lhs"] == r2.values["lhs"]


class TestDeltaAlt:
    def test_invalid_form_counterexample_values(self):
        r = check_delta_alt(CoeffVec((1, 1, 1, 1)), 1)
        assert r.holds
        assert r.values["p_le_delta"].fraction == Fraction(14, 16)
        assert r.values["p_ge_inv_delta"].fraction == Fraction(10, 16)
        assert r.values["wrong_inequality_lhs"] == Fraction(5, 4)
        assert r.values["wrong_inequality_holds"] is False

    def test_tiny_delta(self):
        r = check_delta_alt(CoeffVec((1, 1)), Fraction(1, 100))
        assert r.holds
        assert r.values["p_le_delta"].fraction == Fraction(1, 2)
        assert r.values["p_ge_inv_delta"].fraction == 0

    def test_delta_above_one_rejected(self):
        with pytest.raises(InvalidThreshold):
            check_delta_alt(CoeffVec((1, 1)), 2)

    @pytest.mark.parametrize("delta", [1 / 3, 1.0, True])
    def test_inexact_delta_refused(self, delta):
        with pytest.raises(InvalidThreshold):
            check_delta_alt(CoeffVec((2, 2, 1)), delta)

    def test_a_third_counts_the_realized_threshold(self):
        # ||(2,2,1)|| = 3, so |S| <= 1 holds for 4 of the 8 sign sums
        r = check_delta_alt(CoeffVec((2, 2, 1)), Fraction(1, 3))
        assert r.values["p_le_delta"].fraction == Fraction(1, 2)


@pytest.mark.parametrize("check", [check_delta_inequality, check_delta_alt])
def test_a_delta_check_builds_one_table(monkeypatch, check):
    # both thresholds are read off one packed product, or off one pair of
    # half-sum lists for wide entries, and count as tail_counts does
    builds = []
    for name in ("_packed_product", "_half_sums"):
        real = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *args, _real=real, _name=name: builds.append(_name) or _real(*args))
    rng = random.Random(84)
    for hi, table in ((20, ["_packed_product"]), (1 << 20, ["_half_sums"] * 2)):
        for _ in range(10):
            a = canonicalize([rng.randint(1, hi) for _ in range(rng.randint(2, 12))])
            delta = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            if check is check_delta_alt:
                delta = min(delta, 1 / delta)
            builds.clear()
            r = check(a, delta)
            assert builds == table, a
            if check is check_delta_inequality:
                expected = (tail_counts(a, delta, ONE_SIDED).p_gt, tail_counts(a, 1 / delta, ONE_SIDED).p_gt)
                assert (r.values["p_gt_delta"], r.values["p_gt_inv_delta"]) == expected
            else:
                expected = (tail_counts(a, delta).p_le, tail_counts(a, 1 / delta).p_ge)
                assert (r.values["p_le_delta"], r.values["p_ge_inv_delta"]) == expected


class TestDeltaSweep:
    def test_pair_max_is_half(self):
        r = delta_sweep(CoeffVec((1, 1)))
        assert r.holds and r.values["max_lhs"] == Fraction(1, 2)

    def test_single_coordinate_max_is_half(self):
        r = delta_sweep(CoeffVec((1,)))
        assert r.holds and r.values["max_lhs"] == Fraction(1, 2)

    def test_dominates_pointwise_evaluations(self):
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            r = delta_sweep(a)
            best = r.values["max_lhs"]
            for _ in range(25):
                d = Fraction(rng.randint(1, 60), rng.randint(1, 20))
                assert check_delta_inequality(a, d).values["lhs"] <= best

    def test_sweep_implies_symmetric_tails(self):
        # if the threshold-pair inequality survives the whole critical
        # set, the symmetric-tail inequality must hold as well
        rng = random.Random(88)
        for _ in range(60):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            if delta_sweep(a).holds:
                assert check_symmetric_tails(a).holds
                assert check_tomaszewski(a).holds

    def test_max_is_attained_on_q_ray(self):
        # recomputing the left side at the reported argmax reproduces it
        rng = random.Random(84)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            r = delta_sweep(a)
            q = r.values["argmax_q"]
            pairs = distribution(a).pairs
            lhs = Fraction(
                sum(c for v, c in pairs if v > q) + sum(c for v, c in pairs if v > a.norm_sq / q),
                1 << n,
            )
            assert lhs == r.values["max_lhs"]

    def test_wide_entries_refused(self, too_large_before_allocating, wide_8000_bit_20):
        too_large_before_allocating(delta_sweep, wide_8000_bit_20)


class TestPairing:
    def test_pair(self):
        r = check_pairing(CoeffVec((1, 1)))
        assert r.holds and r.values["max_product"] == 0

    def test_identity_case(self):
        r = check_pairing(CoeffVec((1, 0, 0)))
        assert r.holds and r.values["max_product"] == 1 == r.values["norm_sq"]

    def test_three_ones(self):
        r = check_pairing(CoeffVec((1, 1, 1)))
        assert r.holds and r.values["max_product"] == 3

    def test_matches_brute_sorted_pairing(self):
        rng = random.Random(85)
        for _ in range(80):
            n = rng.randint(1, 9)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            sums = sorted(
                sum(x * y for x, y in zip(a.entries, signs))
                for signs in product((1, -1), repeat=n)
            )
            half = 1 << (n - 1)
            top = sums[half:]
            products = [top[k - 1] * top[half - k] for k in range(1, half + 1)]
            r = check_pairing(a)
            assert r.holds == all(p <= a.norm_sq for p in products)
            assert r.values["max_product"] == max(products)

    def test_cap(self, too_large_before_allocating):
        # 25 ones pair 1 with 25 first: the products reach the norm exactly
        r = check_pairing(CoeffVec((1,) * 25))
        assert r.holds and r.values["max_product"] == 25 == r.values["norm_sq"]
        too_large_before_allocating(check_pairing)

    def test_wide_entries_refused(self, too_large_before_allocating, wide_8000_bit_20):
        too_large_before_allocating(check_pairing, wide_8000_bit_20)


def literal_subset_fraction(entries):
    """Oracle: evaluate the subset form by explicit double sums."""
    n = len(entries)
    good = 0
    for bits in product((0, 1), repeat=n):
        inside = [entries[i] for i in range(n) if bits[i]]
        outside = [entries[i] for i in range(n) if not bits[i]]
        form = 0
        for part in (inside, outside):
            for i in range(len(part)):
                for j in range(i + 1, len(part)):
                    form += part[i] * part[j]
        form -= sum(inside) * sum(outside)
        if form <= 0:
            good += 1
    return Fraction(good, 1 << n)


class TestCombinatorialFraction:
    def test_two_ones(self):
        assert combinatorial_fraction(CoeffVec((1, 1))).fraction == Fraction(1, 2)

    def test_three_ones(self):
        assert combinatorial_fraction(CoeffVec((1, 1, 1))).fraction == Fraction(3, 4)

    def test_22111_matches_tails(self):
        v = CoeffVec((2, 2, 1, 1, 1))
        assert combinatorial_fraction_gray(v).fraction == tail_counts(v).p_le.fraction == Fraction(3, 4)
        assert combinatorial_fraction(v).fraction == Fraction(3, 4)

    def test_incremental_matches_literal_oracle(self):
        rng = random.Random(86)
        for _ in range(60):
            n = rng.randint(1, 8)
            v = canonicalize([rng.randint(1, 9) for _ in range(n)])
            assert combinatorial_fraction_gray(v).fraction == literal_subset_fraction(v.entries)

    def test_equivalence_exhaustive_small(self):
        from itertools import combinations_with_replacement

        seen = set()
        for n in range(1, 7):
            for combo in combinations_with_replacement(range(1, 4), n):
                v = canonicalize(combo)
                if v.entries in seen:
                    continue
                seen.add(v.entries)
                assert combinatorial_fraction_gray(v).fraction == tail_counts(v).p_le.fraction

    def test_zero_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            combinatorial_fraction(CoeffVec((1, 0)))
        with pytest.raises(NonPositiveEntry):
            combinatorial_fraction_gray(CoeffVec((1, 0)))

    def test_report_form(self):
        r = check_combinatorial(CoeffVec((1, 1, 1)))
        assert r.holds and r.values["fraction"].fraction == Fraction(3, 4)


class TestClassify:
    def test_four_ones_boundary(self):
        assert classify_A_or_B(CoeffVec((1, 1, 1, 1))) == "B"

    def test_three_ones_irrational_norm(self):
        assert classify_A_or_B(CoeffVec((1, 1, 1))) == "A"

    def test_single(self):
        assert classify_A_or_B(CoeffVec((1,))) == "B"

    def test_matches_at_count(self):
        rng = random.Random(87)
        for _ in range(100):
            n = rng.randint(1, 9)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            cls = classify_A_or_B(a)
            assert cls == ("B" if tail_counts(a).at > 0 else "A")


class TestHkBound:
    def test_extremal_equality(self):
        r = check_hk_bound(CoeffVec((1, 1, 1, 1, 1, 1, 0)))
        assert r.holds and r.values["p_ge_norm"].fraction == Fraction(7, 32)

    def test_single(self):
        r = check_hk_bound(CoeffVec((1,)))
        assert r.holds and r.values["p_ge_norm"].fraction == 1

    def test_three(self):
        r = check_hk_bound(CoeffVec((1, 1, 1)))
        assert r.holds and r.values["p_ge_norm"].fraction == Fraction(1, 4)

    def test_out_of_scope_above_seven(self):
        r = check_hk_bound(CoeffVec((1, 1, 1, 1, 1, 1, 1, 1)))
        assert r.verdict == "out-of-scope"
        assert not r.holds and not r.violated
        # eight unit entries: |S| >= sqrt(8) iff |S| in {4,6,8}
        assert r.values["p_ge_norm"].fraction == Fraction(2 * (1 + 8 + 28), 256)


class TestGprime:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((1, 1), Fraction(1, 2)),
            ((1, 1, 1), Fraction(1, 4)),
            ((1, 1, 1, 1), Fraction(1, 8)),
            ((2, 2, 1, 1, 1), Fraction(1, 4)),
            ((2, 1, 1, 1, 1, 1), Fraction(3, 16)),
            ((2, 2, 2, 1, 1, 1, 1), Fraction(7, 32)),
        ],
    )
    def test_extremal_witnesses(self, entries, expected):
        r = check_gprime(CoeffVec(entries))
        assert r.holds
        assert r.values["p_gt_norm"].fraction == expected == GPRIME_TABLE[len(entries)]
        assert r.values["equality"] is True

    def test_zero_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            check_gprime(CoeffVec((1, 1, 0)))

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            check_gprime(CoeffVec((1,) * 8))


class TestReportPlumbing:
    def test_json_shape(self):
        obj = check_gprime(CoeffVec((2, 2, 1, 1, 1))).to_json_dict()
        assert obj["predicate"] == "gprime"
        assert obj["vector"] == "2,2,1,1,1"
        assert obj["n"] == 5
        assert obj["verdict"] == "holds"
        assert obj["values"]["p_gt_norm"] == "1/4"
        assert obj["witness"] is None

    def test_violated_requires_witness(self):
        # fabricate a violated report to exercise the serialization path
        rep = CheckReport(
            "tomaszewski", CoeffVec((1, 1)), "violated",
            {"p_le_norm": Fraction(1, 4)}, {"deficit": 1},
        )
        obj = rep.to_json_dict()
        assert obj["verdict"] == "violated" and obj["witness"] == {"deficit": 1}

    def test_rerun_reproduces_reports(self):
        reports = [
            check_tomaszewski(CoeffVec((1, 1, 1))),
            check_symmetric_tails(CoeffVec((1, 1, 1, 1))),
            check_delta_inequality(CoeffVec((1, 1)), Fraction(3, 2)),
            check_delta_alt(CoeffVec((1, 1, 1, 1)), 1),
            delta_sweep(CoeffVec((2, 1, 1))),
            check_pairing(CoeffVec((1, 1, 1))),
            check_combinatorial(CoeffVec((2, 2, 1, 1, 1))),
            check_hk_bound(CoeffVec((1, 1, 1, 1, 1, 1, 0))),
            check_gprime(CoeffVec((2, 1, 1, 1, 1, 1))),
        ]
        for rep in reports:
            assert rerun(rep).to_json_dict() == rep.to_json_dict()

    def test_implied_counterexample_vector(self):
        # ||a|| = 5 exactly, so the induced vector is representable
        a = CoeffVec((4, 3, 0))
        out = _implied_counterexample(a, Fraction(2))
        assert out["b"] == Fraction(3, 4)
        assert out["implied_vector"].entries == (16, 15, 12, 0)

    def test_implied_counterexample_irrational_norm(self):
        out = _implied_counterexample(CoeffVec((1, 1)), Fraction(2))
        assert "implied_vector" not in out
        assert out["b"] == Fraction(3, 4)
