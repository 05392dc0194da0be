"""Core types and single sign sums."""

import enum
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radlab
from radlab.core import (
    CoeffVec,
    DyadicProb,
    SignAssignment,
    canonicalize,
    parse_vector,
    sign_sum,
)
from radlab.cli import main
from radlab.errors import DimensionError, InvalidCoefficient, SearchInputError, ZeroNorm
from radlab.search import SearchState

from oracles import random_vector

entry_lists = st.lists(st.integers(0, 60), min_size=1, max_size=12).filter(any)
exact_lists = st.lists(st.one_of(st.integers(0, 10**12), st.fractions(min_value=0, max_denominator=50)),
                       min_size=1, max_size=12).filter(any)
zero_lists = st.integers(1, 63).flatmap(lambda n: st.lists(st.sampled_from([0, Fraction(0)]), min_size=n, max_size=n))

class TestCanonicalize:
    def test_common_denominator_scaling(self):
        assert canonicalize([Fraction(1, 2)] * 4).entries == (1, 1, 1, 1)

    def test_sorting(self):
        assert canonicalize([1, 2, 2, 1, 1]).entries == (2, 2, 1, 1, 1)

    def test_gcd_reduction(self):
        assert canonicalize([4, 2, 2]).entries == (2, 1, 1)

    def test_gcd_reduction_with_zeros(self):
        assert canonicalize([4, 0, 2]).entries == (2, 1, 0)

    def test_mixed_rationals(self):
        assert canonicalize([Fraction(1, 2), Fraction(1, 3), 1]).entries == (6, 3, 2)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            once = random_vector(rng, rng.randint(1, 9), 30)
            if once is None:
                continue
            assert canonicalize(list(once.entries)).entries == once.entries

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(entry_lists, st.randoms(use_true_random=False))
    def test_permutation_independent(self, raw, rng):
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert canonicalize(shuffled) == canonicalize(raw)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(entry_lists, st.integers(1, 10**6), st.integers(1, 10**6))
    def test_scale_invariant(self, raw, factor, divisor):
        a = canonicalize(raw)
        assert canonicalize([factor * x for x in raw]) == a
        assert canonicalize([Fraction(x, divisor) for x in raw]) == a
        assert canonicalize([Fraction(factor * x, divisor) for x in raw]) == a

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(entry_lists)
    def test_ints_equal_fractions(self, raw):
        a, b = canonicalize(raw), canonicalize([Fraction(x) for x in raw])
        assert (a, a.norm_sq, a.total) == (b, b.norm_sq, b.total)
        assert a.norm_sq == sum(x * x for x in a.entries) and a.total == sum(a.entries)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(entry_lists, exact_lists))
    def test_output_is_the_checked_vector(self, raw):
        # canonicalize builds its vector without CoeffVec's checks; they
        # pass on it, and it is the vector they would have built
        a, b = canonicalize(raw), CoeffVec(canonicalize(raw).entries)
        c = pickle.loads(pickle.dumps(a))
        for v in (b, c):
            assert (v.entries, v.norm_sq, v.total, hash(v)) == (a.entries, a.norm_sq, a.total, hash(a))
            assert v == a and repr(v) == repr(a)
        assert {type(x) for x in a.entries} == {int}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(zero_lists)
    def test_zero_lists_refused(self, raw):
        with pytest.raises(ZeroNorm):
            canonicalize(raw)
        with pytest.raises(ZeroNorm):
            CoeffVec(tuple(map(int, raw)))

    def test_negative_rejected(self):
        with pytest.raises(InvalidCoefficient):
            canonicalize([1, -1])

    def test_float_rejected(self):
        with pytest.raises(InvalidCoefficient):
            canonicalize([0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(InvalidCoefficient):
            canonicalize([])


class Small(enum.IntEnum):
    ONE = 1
    TWO = 2


# entries, then what canonicalize and CoeffVec each raise (type, message
# start) or, for a valid input, return; a loop names the first bad entry
BAD_INPUTS = {
    "bool": ((True, False), (InvalidCoefficient, "entry True is not an exact number"),
             (InvalidCoefficient, "entry True is not an integer")),
    "float": ((2, 1.5), (InvalidCoefficient, "float entry 1.5; use int or Fraction"),
              (InvalidCoefficient, "entry 1.5 is not an integer")),
    "string": ((1, "1"), (InvalidCoefficient, "entry '1' is not an exact number"),
               (InvalidCoefficient, "entry '1' is not an integer")),
    "negative": ((1, -1), (InvalidCoefficient, "negative entry -1"),
                 (InvalidCoefficient, "negative entry -1")),
    "negative-before-float": ((3, -2, -5, 0.5), (InvalidCoefficient, "negative entry -2"),
                              (InvalidCoefficient, "negative entry -2")),
    "negative-fraction": ((Fraction(-1, 2), 1), (InvalidCoefficient, "negative entry -1/2"),
                          (InvalidCoefficient, "entry Fraction(-1, 2) is not an integer")),
    "unsorted": ((1, 2), (2, 1), (InvalidCoefficient, "entries must be sorted non-increasing")),
    "common-factor": ((4, 2), (2, 1), (InvalidCoefficient, "entries share common factor 2")),
    "empty": ((), (InvalidCoefficient, "empty coefficient vector"),
              (InvalidCoefficient, "empty coefficient vector")),
    "n-64": ((1,) * 64, (DimensionError, "dimension 64 exceeds cap 63"),
             (DimensionError, "dimension 64 exceeds cap 63")),
    "int-subclass": ((Small.TWO, Small.ONE), (2, 1), (2, 1)),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_inputs_raise_typed_errors(name):
    entries, canon, vec = BAD_INPUTS[name]
    for build, expect in ((lambda: canonicalize(list(entries)), canon), (lambda: CoeffVec(entries), vec)):
        if isinstance(expect[0], type):
            with pytest.raises(expect[0]) as exc:
                build()
            assert str(exc.value).startswith(expect[1])
        else:
            assert build().entries == expect


# a sweep checkpoint a real G sweep (n=5, bound 10) could write
CHECKPOINT = {"target": "G", "n": 5, "bound": 10, "cursor": [9, 1, 0, 0, 0],
              "best_value": "1/4", "witness": "1,1,1,0,0", "examined": 86}
# every way in for a zero vector: a call that raises ZeroNorm, a command
# line that exits 2, or a checkpoint change that resume refuses
ZERO_VECTORS = {
    "CoeffVec": lambda: CoeffVec((0, 0)),
    "canonicalize": lambda: canonicalize([0, 0]),
    "canonicalize-fraction": lambda: canonicalize([Fraction(0)]),
    "parse_vector": lambda: parse_vector("0,0"),
    "eval": ["eval", "--vector", "0,0"],
    "check": ["check", "tomaszewski", "--vector", "0,0"],
    "descent": ["search", "descent", "--target", "G", "--start", "0,0"],
    "resume-cursor": {"cursor": [0, 0, 0, 0, 0]},
    "resume-witness": {"witness": "0,0,0,0,0"},
}


@pytest.mark.parametrize("way", ZERO_VECTORS)
def test_zero_vector_refused(way, tmp_path, capsys):
    made = ZERO_VECTORS[way]
    if callable(made):
        with pytest.raises(ZeroNorm, match="the zero vector has no norm"):
            made()
        return
    if isinstance(made, dict):
        checkpoint = dict(CHECKPOINT, **made)
        with pytest.raises(SearchInputError, match="the zero vector has no norm"):
            SearchState.from_json_dict(checkpoint)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(checkpoint))
        made = ["search", "resume", str(path)]
    assert main(made) == 2
    assert capsys.readouterr().err.endswith("the zero vector has no norm\n")


class TestCoeffVec:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidCoefficient):
            CoeffVec((1, 2))  # not sorted
        with pytest.raises(InvalidCoefficient):
            CoeffVec((4, 2))  # common factor
        with pytest.raises(InvalidCoefficient):
            CoeffVec((1, -1))

    def test_norm_sq_cached(self):
        v = CoeffVec((2, 2, 1, 1, 1))
        assert v.norm_sq == 11
        assert v.n == 5
        assert v.total == 7

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            CoeffVec(tuple([1] * 64))


class TestParseVector:
    def test_integers(self):
        assert parse_vector("2,2,1,1,1").entries == (2, 2, 1, 1, 1)

    def test_rationals(self):
        assert parse_vector("1/2,1/2,1/2,1/2").entries == (1, 1, 1, 1)

    def test_bad_token(self):
        with pytest.raises(InvalidCoefficient):
            parse_vector("1,abc")

    def test_empty(self):
        with pytest.raises(InvalidCoefficient):
            parse_vector("")


class TestSignAssignment:
    def test_indices_roundtrip(self):
        s = SignAssignment.from_indices((3, 4), 5)
        assert s.indices == (3, 4)
        assert s.signs() == (1, 1, -1, -1, 1)
        assert str(s) == "(3,4)_5"

    def test_complement(self):
        s = SignAssignment.from_indices((1,), 3)
        assert s.complement().indices == (2, 3)

    def test_mask_validation(self):
        with pytest.raises(DimensionError):
            SignAssignment(8, 3)
        with pytest.raises(DimensionError):
            SignAssignment.from_indices((4,), 3)


class TestSignSum:
    def test_all_plus(self):
        assert sign_sum(CoeffVec((1, 1, 1)), SignAssignment(0, 3)) == 3

    def test_two_flips(self):
        a = CoeffVec((2, 2, 1, 1, 1))
        assert sign_sum(a, SignAssignment.from_indices((3, 4), 5)) == 3

    def test_with_zero_entry(self):
        a = CoeffVec((1, 1, 1, 1, 1, 1, 0))
        assert sign_sum(a, SignAssignment.from_indices((6,), 7)) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sign_sum(CoeffVec((1, 1)), SignAssignment(0, 3))

    def test_matches_literal_dot_product(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 10)
            a = random_vector(rng, n, 9)
            s = SignAssignment(rng.randrange(1 << n), n)
            if a is None:
                continue
            expected = sum(x * y for x, y in zip(a.entries, s.signs()))
            assert sign_sum(a, s) == expected


class TestCmpAbsVsNorm:
    """|a.s| against ||a||, compared on squares: sign_sum(a, s)**2 vs norm_sq."""

    def test_zero_sum_below(self):
        assert sign_sum(CoeffVec((1, 1)), SignAssignment.from_indices((1,), 2)) ** 2 < 2

    def test_single_coordinate_at(self):
        assert sign_sum(CoeffVec((1,)), SignAssignment(0, 1)) ** 2 == 1

    def test_all_plus_above(self):
        assert sign_sum(CoeffVec((1, 1, 1)), SignAssignment(0, 3)) ** 2 > 3

    def test_complement_symmetry(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(1, 10)
            a = random_vector(rng, n, 9)
            s = SignAssignment(rng.randrange(1 << n), n)
            if a is None:
                continue
            assert sign_sum(a, s) ** 2 == sign_sum(a, s.complement()) ** 2

    def test_quadratic_equivalence(self):
        # |a.s| <= ||a||  iff  the sum of a_i a_j s_i s_j over ordered pairs
        # i != j is <= 0, for every sign vector
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 8)
            a = random_vector(rng, n, 6)
            if a is None:
                continue
            for mask in range(1 << n):
                s = SignAssignment(mask, n)
                sv = s.signs()
                cross = sum(
                    a.entries[i] * sv[i] * a.entries[j] * sv[j]
                    for i in range(n)
                    for j in range(n)
                    if i != j
                )
                assert (sign_sum(a, s) ** 2 <= a.norm_sq) == (cross <= 0)


def test_dyadic_prob():
    p = DyadicProb(28, 7)
    assert p.fraction == Fraction(7, 32)
    assert str(p) == "7/32"
    with pytest.raises(InvalidCoefficient):
        DyadicProb(5, 2)


def test_importing_radlab_loads_no_hashlib():
    # hashlib loads OpenSSL; the sampler imports it at its first draw
    code = "import radlab, sys; assert 'hashlib' not in sys.modules"
    src = str(Path(radlab.__file__).parent.parent)
    subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"], check=True)
