"""Dominance order, closures, and the quadratic membership rules."""

import random

import pytest

from radlab import dominance
from radlab.core import CoeffVec, SignAssignment, sign_sum
from radlab.dominance import (
    _closure_rows,
    case_lemma_7,
    dominates,
    in_vsd,
    pair_lemma_select,
    upward_closure,
    verify_order_rules,
    vsd_count_lower_bound,
    vsd_membership_quadratic,
)
from radlab.errors import DimensionError, LemmaPreconditionViolated, TooLarge

from oracles import literal_membership_form, literal_pair_form, random_vector


def J(*indices, n):
    return SignAssignment.from_indices(indices, n)


class TestDominates:
    def test_single_flip_moves_right(self):
        assert dominates(J(2, n=3), J(3, n=3))
        assert not dominates(J(3, n=3), J(2, n=3))

    def test_incomparable_pair(self):
        s, t = J(1, n=3), J(2, 3, n=3)
        assert not dominates(s, t) and not dominates(t, s)
        # witnessed by opposite strict orders of the signed sums
        a1, a2 = CoeffVec((1, 1, 1)), CoeffVec((1, 0, 0))
        assert sign_sum(a1, s) > sign_sum(a1, t)
        assert sign_sum(a2, s) < sign_sum(a2, t)

    def test_reflexive(self):
        s = J(3, 4, n=7)
        assert dominates(s, s)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dominates(J(1, n=2), J(1, n=3))

    def test_antisymmetric_and_transitive_exhaustive(self):
        for n in (1, 2, 3, 4, 5):
            sa = [SignAssignment(m, n) for m in range(1 << n)]
            rel = {(s.mask, t.mask) for s in sa for t in sa if dominates(s, t)}
            for s in sa:
                assert (s.mask, s.mask) in rel
            for sm, tm in rel:
                if sm != tm:
                    assert (tm, sm) not in rel
            for sm, tm in rel:
                for um in range(1 << n):
                    if (tm, um) in rel:
                        assert (sm, um) in rel

    def test_transitive_random_large(self):
        rng = random.Random(61)
        for _ in range(3000):
            n = rng.randint(2, 16)
            s, t, u = (SignAssignment(rng.randrange(1 << n), n) for _ in range(3))
            if dominates(s, t) and dominates(t, u):
                assert dominates(s, u)

    def test_soundness_random(self):
        rng = random.Random(62)
        for _ in range(2000):
            n = rng.randint(2, 12)
            s = SignAssignment(rng.randrange(1 << n), n)
            t = SignAssignment(rng.randrange(1 << n), n)
            if not dominates(s, t):
                continue
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            assert sign_sum(a, t) >= sign_sum(a, s)

    def test_completeness_via_prefix_indicators(self):
        # whenever s is not below t, some prefix indicator separates them
        rng = random.Random(63)
        for _ in range(2000):
            n = rng.randint(2, 12)
            s = SignAssignment(rng.randrange(1 << n), n)
            t = SignAssignment(rng.randrange(1 << n), n)
            if dominates(s, t):
                continue
            found = False
            for k in range(1, n + 1):
                ind = CoeffVec(tuple([1] * k + [0] * (n - k)))
                if sign_sum(ind, t) < sign_sum(ind, s):
                    found = True
                    break
            assert found


class TestUpwardClosure:
    def test_top_element(self):
        assert upward_closure(SignAssignment(0, 5)) == {SignAssignment(0, 5)}

    def test_bottom_element(self):
        n = 4
        bottom = SignAssignment((1 << n) - 1, n)
        assert len(upward_closure(bottom)) == 1 << n

    def test_known_14_element_closure(self):
        closure = upward_closure(J(4, 5, 7, n=7))
        expected = {
            (), (4,), (5,), (6,), (7,),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (4, 5, 7), (4, 6, 7), (5, 6, 7),
        }
        assert {s.indices for s in closure} == expected
        assert len(closure) == 14

    def test_matches_exhaustive_scan(self):
        # every seed at every n the full order-rule claim runs, as the rows it reads
        for n in range(1, 9):
            rows = _closure_rows(n)
            for m in range(1 << n):
                seed = SignAssignment(m, n)
                assert rows[m] == sum(1 << t for t in range(1 << n) if dominates(seed, SignAssignment(t, n)))
        rng = random.Random(64)
        for _ in range(60):
            n = rng.randint(1, 10)
            seed = SignAssignment(rng.randrange(1 << n), n)
            generated = {t.mask for t in upward_closure(seed)}
            scanned = {
                m for m in range(1 << n) if dominates(seed, SignAssignment(m, n))
            }
            assert generated == scanned

    def test_the_member_budget_alone_sizes_a_closure(self, too_large_before_allocating):
        # a closure is refused for its members only, at any dimension: the
        # only sign vectors at least as good as a flip of the last position
        # are it and the top, and the top is its own closure, while the
        # all-flip seed at n = 23, 8,388,608 members, is still refused
        for n in (24, 25, 63):
            top = SignAssignment(0, n)
            assert upward_closure(J(n, n=n)) == {J(n, n=n), top}
            assert upward_closure(top) == {top}
        too_large_before_allocating(upward_closure, [SignAssignment((1 << 23) - 1, 23)])

    def test_refused_before_allocating(self, too_large_before_allocating):
        # 16,777,216, 9,740,686 and 8,388,608 members, each past the budget
        seeds = [SignAssignment((1 << 24) - 1, 24), J(*range(1, 13), n=24), SignAssignment((1 << 23) - 1, 23)]
        too_large_before_allocating(upward_closure, seeds)

    def test_budget_counts_every_member(self, monkeypatch):
        # the budget of exactly 14 members admits the 14-member closure, one
        # byte less refuses it
        seed = J(4, 5, 7, n=7)
        monkeypatch.setattr(dominance, "LISTED_BUDGET", 14 * dominance._MEMBER_BYTES)
        assert len(upward_closure(seed)) == 14
        monkeypatch.setattr(dominance, "LISTED_BUDGET", 14 * dominance._MEMBER_BYTES - 1)
        with pytest.raises(TooLarge):
            upward_closure(seed)


class TestOrderRules:
    def test_small(self):
        assert verify_order_rules(3)

    def test_seven(self):
        assert verify_order_rules(7)

    def test_cap(self):
        with pytest.raises(TooLarge):
            verify_order_rules(11)


class TestMembershipForm:
    def test_example_form_value(self):
        a = CoeffVec((1, 1, 1, 1, 1, 1, 0))
        assert literal_membership_form(a, J(5, 6, 7, n=7)) == -1
        assert not vsd_membership_quadratic(a, J(5, 6, 7, n=7))
        assert sign_sum(a, J(5, 6, 7, n=7)) ** 2 < a.norm_sq

    def test_empty_flip_set_always_member(self):
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(1, 9)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            assert vsd_membership_quadratic(a, SignAssignment(0, n))

    def test_two_ones_singleton(self):
        a = CoeffVec((1, 1))
        assert literal_membership_form(a, J(1, n=2)) == -1
        assert not vsd_membership_quadratic(a, J(1, n=2))

    def test_precondition_enforced(self):
        with pytest.raises(LemmaPreconditionViolated):
            vsd_membership_quadratic(CoeffVec((1, 1)), J(1, 2, n=2))

    def test_dimension_mismatch(self):
        a = CoeffVec((1, 1, 1))
        for call in (
            lambda: sign_sum(a, J(1, n=2)),
            lambda: vsd_membership_quadratic(a, J(1, n=2)),
            lambda: pair_lemma_select(a, J(1, n=2), J(2, n=2)),
        ):
            with pytest.raises(DimensionError):
                call()

    def test_equivalence_with_comparator(self):
        # every mask for n <= 8, in both variants, against the literal form
        rng = random.Random(72)
        for n in range(1, 9):
            for _ in range(8):
                a = random_vector(rng, n, 9)
                if a is None:
                    continue
                for mask in range(1 << n):
                    s = SignAssignment(mask, n)
                    form = literal_membership_form(a, s)
                    # the identity every membership decision rests on
                    assert 2 * form == sign_sum(a, s) ** 2 - a.norm_sq
                    negative = sign_sum(a, s) < 0
                    for strict in (False, True):
                        if negative:
                            with pytest.raises(LemmaPreconditionViolated):
                                vsd_membership_quadratic(a, s, strict)
                            assert not in_vsd(a, s, strict)
                            continue
                        member = form > 0 if strict else form >= 0
                        assert vsd_membership_quadratic(a, s, strict) == member
                        assert in_vsd(a, s, strict) == member


class TestPairRule:
    def test_uniform_seven(self):
        a = CoeffVec((1, 1, 1, 1, 1, 1, 1))
        assert literal_pair_form(a, J(2, n=7), J(5, 6, 7, n=7)) == 3
        assert pair_lemma_select(a, J(2, n=7), J(5, 6, 7, n=7)) == "J"

    def test_empty_first_set(self):
        a = CoeffVec((2, 1, 1))
        result = pair_lemma_select(a, SignAssignment(0, 3), J(3, n=3))
        assert result in ("J", "both")

    def test_hypothesis_failure_raises(self):
        # for this vector the averaged form of the pair {3,4}, {5,6,7} is
        # -1, so the rule does not apply (and indeed neither flip set
        # reaches the norm)
        a = CoeffVec((1, 1, 1, 1, 1, 1, 0))
        assert literal_pair_form(a, J(3, 4, n=7), J(5, 6, 7, n=7)) == -1
        assert not in_vsd(a, J(3, 4, n=7))
        assert not in_vsd(a, J(5, 6, 7, n=7))
        with pytest.raises(LemmaPreconditionViolated):
            pair_lemma_select(a, J(3, 4, n=7), J(5, 6, 7, n=7))

    def test_overlap_rejected(self):
        with pytest.raises(LemmaPreconditionViolated):
            pair_lemma_select(CoeffVec((1, 1, 1)), J(1, n=3), J(1, 2, n=3))

    def test_never_neither_when_hypothesis_holds(self):
        # in both variants against the literal forms: the rule raises
        # LemmaPreconditionViolated exactly when a sign precondition or the
        # averaged-form hypothesis fails (< 0 plain, <= 0 strict), and
        # otherwise names the members
        for strict in (False, True):
            ok = (lambda v: v > 0) if strict else (lambda v: v >= 0)
            rng = random.Random(73)
            checked = 0
            for _ in range(4000):
                n = rng.randint(2, 9)
                a = random_vector(rng, n, 9)
                if a is None:
                    continue
                jm = rng.randrange(1 << n)
                km = rng.randrange(1 << n) & ~jm
                sj, sk = SignAssignment(jm, n), SignAssignment(km, n)
                hypothesis = literal_pair_form(a, sj, sk)
                # the averaged form pair_lemma_select reads, times four
                assert 4 * hypothesis == sign_sum(a, sj) ** 2 + sign_sum(a, sk) ** 2 - 2 * a.norm_sq
                if not (ok(sign_sum(a, sj)) and ok(sign_sum(a, sk)) and ok(hypothesis)):
                    with pytest.raises(LemmaPreconditionViolated):
                        pair_lemma_select(a, sj, sk, strict)
                    continue
                in_j = ok(literal_membership_form(a, sj))
                in_k = ok(literal_membership_form(a, sk))
                assert in_j or in_k
                expected = "both" if in_j and in_k else "J" if in_j else "K"
                assert pair_lemma_select(a, sj, sk, strict) == expected
                checked += 1
            assert checked > 300


class TestCaseRule7:
    def test_extremal_vector(self):
        assert case_lemma_7(CoeffVec((1, 1, 1, 1, 1, 1, 0))).indices == (2,)

    def test_degenerate_single_coordinate(self):
        assert case_lemma_7(CoeffVec((1, 0, 0, 0, 0, 0, 0))).indices == (2,)

    def test_random_sample_always_finds_witness(self):
        rng = random.Random(74)
        candidates = {(2,), (3, 4), (5, 6, 7)}
        for _ in range(3000):
            a = random_vector(rng, 7, 50)
            if a is None:
                continue
            w = case_lemma_7(a)
            assert w.indices in candidates
            assert in_vsd(a, w)
            if a.entries[6] > 0:
                ws = case_lemma_7(a, strict=True)
                assert ws.indices in candidates
                assert in_vsd(a, ws, strict=True)

    def test_strict_needs_positive_entries(self):
        with pytest.raises(LemmaPreconditionViolated):
            case_lemma_7(CoeffVec((1, 1, 1, 1, 1, 1, 0)), strict=True)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            case_lemma_7(CoeffVec((1, 1)))


class TestVsdCountLowerBound:
    def test_single_seed(self):
        a = CoeffVec((1, 1, 1, 1, 1, 1, 0))
        assert vsd_count_lower_bound(a, [J(2, n=7)]) == 7

    def test_no_seeds(self):
        assert vsd_count_lower_bound(CoeffVec((1, 1, 1)), []) == 0

    def test_seed_of_another_dimension_raises(self):
        with pytest.raises(DimensionError):
            vsd_count_lower_bound(CoeffVec((1, 1, 1, 1, 1, 1, 0)), [J(2, n=6)])

    def test_unverified_seed_excluded(self):
        a = CoeffVec((1, 1, 1, 1, 1, 1, 0))
        assert vsd_count_lower_bound(a, [J(5, 6, 7, n=7)]) == 0

    def test_refused_before_allocating(self, too_large_before_allocating):
        # (2,...,15)_24 reaches the norm of (1, 0, ..., 0), and its closure
        # has 7,507,638 members, past the budget
        a = CoeffVec((1,) + (0,) * 23)
        seed = J(*range(2, 16), n=24)
        assert in_vsd(a, seed)
        too_large_before_allocating(lambda s: vsd_count_lower_bound(a, [s]), [seed])

    def test_certificate_of_14(self):
        # (4,5,7)_7 reaches the norm here, so its closure certifies 14
        a = CoeffVec((1, 1, 1, 0, 0, 0, 0))
        assert in_vsd(a, J(4, 5, 7, n=7))
        assert vsd_count_lower_bound(a, [J(4, 5, 7, n=7)]) == 14

    def test_lower_bound_is_sound(self):
        rng = random.Random(75)
        for _ in range(300):
            a = random_vector(rng, 7, 20)
            if a is None:
                continue
            seeds = [SignAssignment(rng.randrange(1 << 7), 7) for _ in range(3)]
            bound = vsd_count_lower_bound(a, seeds)
            actual = sum(1 for m in range(1 << 7) if in_vsd(a, SignAssignment(m, 7)))
            assert bound <= actual

    def test_membership_transfers_upward(self):
        rng = random.Random(76)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_vector(rng, n, 9)
            if a is None:
                continue
            for sm in range(1 << n):
                s = SignAssignment(sm, n)
                if not in_vsd(a, s):
                    continue
                for t in upward_closure(s):
                    assert in_vsd(a, t)
