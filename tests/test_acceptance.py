"""Acceptance suite: one test per criterion, at the full stated budgets.

Every expected value is an exact rational frozen from independent oracles
(brute-force enumeration over sign tuples / literal subset sums).  Run
with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the whole module finishes in a few minutes.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from radlab.conjectures import (
    GPRIME_TABLE,
    check_delta_alt,
    check_pairing,
    combinatorial_fraction_gray,
)
from radlab.core import CoeffVec, SignAssignment, canonicalize, sign_sum
from radlab.counting import (
    ONE_SIDED,
    TWO_SIDED,
    tail_counts,
    tail_counts_gf,
    tail_counts_gray,
    tail_counts_mitm,
    tail_counts_threshold,
)
from radlab.dominance import case_lemma_7, dominates, upward_closure, verify_order_rules
from radlab.errors import NoWitness
from radlab.search import SearchTarget, exhaustive_integer_search, hunt, seeded_vectors

SEED = 7

G_WITNESSES = {
    (1,): Fraction(1),
    (1, 1): Fraction(1, 2),
    (1, 1, 1): Fraction(1, 4),
    (1, 1, 1, 0): Fraction(1, 4),
    (1, 1, 1, 0, 0): Fraction(1, 4),
    (1, 1, 1, 1, 1, 1): Fraction(7, 32),
    (1, 1, 1, 1, 1, 1, 0): Fraction(7, 32),
}
G_TABLE = {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 4),
           4: Fraction(1, 4), 5: Fraction(1, 4), 6: Fraction(7, 32), 7: Fraction(7, 32)}

GPRIME_WITNESSES = {
    (1, 1): Fraction(1, 2),
    (1, 1, 1): Fraction(1, 4),
    (1, 1, 1, 1): Fraction(1, 8),
    (2, 2, 1, 1, 1): Fraction(1, 4),
    (2, 1, 1, 1, 1, 1): Fraction(3, 16),
    (2, 2, 2, 1, 1, 1, 1): Fraction(7, 32),
}

CLOSURE_457_LISTED = {
    (4, 6, 7), (5, 6, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (4,), (5,), (6,), (7,), (),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_g_table_and_exhaustive_minimum():
    ok = True
    for entries, expected in G_WITNESSES.items():
        ok = ok and tail_counts(CoeffVec(entries)).p_ge.fraction == expected
    for n, expected in G_TABLE.items():
        rec = exhaustive_integer_search(n, SearchTarget.G, 24)
        ok = ok and rec.best_value.fraction == expected
    report(1, ok, "norm-reaching table reproduced; exhaustive sweep (sum<=24, n<=7) finds no smaller value")


def test_criterion_02_gprime_table_and_exhaustive_minimum():
    ok = True
    for entries, expected in GPRIME_WITNESSES.items():
        ok = ok and tail_counts(CoeffVec(entries)).p_gt.fraction == expected
    for n, expected in GPRIME_TABLE.items():
        rec = exhaustive_integer_search(n, SearchTarget.GPRIME, 24)
        ok = ok and rec.best_value.fraction == expected
    report(2, ok, "strict-tail table reproduced; exhaustive all-positive sweep finds no smaller value")


@pytest.fixture(scope="module")
def dim7_sample():
    """100000 seeded random canonical 7-vectors, entries <= 50: the
    two-sided tail, the size of the norm-reaching set, and the three-flip
    witness rule, all in one pass."""
    trials = 100_000
    min_p_ge = None
    min_vsd = None
    floor_ok = vsd_ok = witness_ok = strict_ok = True
    strict_checked = used = 0
    for a, _ in seeded_vectors(((f"{SEED}:dim7:{i}", 7) for i in range(trials)), 0, 50):
        used += 1
        p_ge = tail_counts_threshold(a, 1, TWO_SIDED).p_ge.fraction
        one = tail_counts_threshold(a, 1, ONE_SIDED)
        vsd_size = one.at + one.above
        if min_p_ge is None or p_ge < min_p_ge:
            min_p_ge = p_ge
        if min_vsd is None or vsd_size < min_vsd:
            min_vsd = vsd_size
        floor_ok = floor_ok and p_ge >= Fraction(7, 32)
        vsd_ok = vsd_ok and vsd_size >= 14
        try:
            w = case_lemma_7(a)
            witness_ok = witness_ok and w.indices in {(2,), (3, 4), (5, 6, 7)}
        except NoWitness:
            witness_ok = False
        if a.entries[6] > 0:
            strict_checked += 1
            try:
                case_lemma_7(a, strict=True)
            except NoWitness:
                strict_ok = False
    return {
        "used": used,
        "min_p_ge": min_p_ge,
        "min_vsd": min_vsd,
        "floor_ok": floor_ok,
        "vsd_ok": vsd_ok,
        "witness_ok": witness_ok,
        "strict_ok": strict_ok,
        "strict_checked": strict_checked,
    }


def test_criterion_03_dim7_floor_and_vsd_size(dim7_sample):
    s = dim7_sample
    ok = s["floor_ok"] and s["vsd_ok"]
    report(
        3, ok,
        f"{s['used']} random 7-vectors: min P(|a.s|>=||a||) = {s['min_p_ge']} >= 7/32, "
        f"min |V_sd| = {s['min_vsd']} >= 14",
    )


def test_criterion_04_dim7_case_rule(dim7_sample):
    s = dim7_sample
    ok = s["witness_ok"] and s["strict_ok"]
    report(
        4, ok,
        f"three-flip witness found on all {s['used']} samples "
        f"(strict variant on {s['strict_checked']} all-positive samples)",
    )


def test_criterion_05_subset_count_equivalence():
    ok = True
    seen = set()
    checked = 0
    for n in range(1, 9):
        for combo in combinations_with_replacement(range(1, 5), n):
            vec = canonicalize(combo)
            if vec.entries in seen:
                continue
            seen.add(vec.entries)
            checked += 1
            ok = ok and combinatorial_fraction_gray(vec).fraction == tail_counts(vec).p_le.fraction
    random_trials = 10_000
    for i in range(random_trials):
        rng = random.Random(f"{SEED}:comb:{i}")
        n = rng.randint(2, 12)
        vec = canonicalize([rng.randint(1, 20) for _ in range(n)])
        ok = ok and combinatorial_fraction_gray(vec).fraction == tail_counts(vec).p_le.fraction
    report(
        5, ok,
        f"subset-count fraction equals P(|l.s|<=||l||) on all {checked} canonical vectors "
        f"(n<=8, entries in [1,4]) and {random_trials} random vectors (n<=12)",
    )


def test_criterion_06_invalid_two_sided_sum():
    r = check_delta_alt(CoeffVec((1, 1, 1, 1)), 1)
    ok = (
        r.values["wrong_inequality_lhs"] == Fraction(5, 4)
        and r.values["wrong_inequality_holds"] is False
        and r.holds
    )
    report(6, ok, "at (1,1,1,1), delta=1: invalid two-sided sum is exactly 5/4 while the valid form holds")


def test_criterion_07_sorted_pairing():
    trials_per_n = 10_000
    violations = 0
    used = 0
    keys = ((f"{SEED}:pair:{n}:{i}", n) for n in range(2, 9) for i in range(trials_per_n))
    for a, _ in seeded_vectors(keys, 0, 20):
        used += 1
        if not check_pairing(a).holds:
            violations += 1
    report(7, violations == 0, f"sorted pairing held on {used} vectors ({trials_per_n} per n in [2,8]); {violations} violations")


def test_criterion_08_dominance_order():
    rules_ok = all(verify_order_rules(n) for n in range(1, 9))

    closure = {s.indices for s in upward_closure(SignAssignment.from_indices((4, 5, 7), 7))}
    closure_ok = closure == CLOSURE_457_LISTED | {(4, 5, 7)}

    rng = random.Random(f"{SEED}:dom")
    sound_ok = complete_ok = True
    for _ in range(10_000):
        n = rng.randint(2, 12)
        s = SignAssignment(rng.randrange(1 << n), n)
        t = SignAssignment(rng.randrange(1 << n), n)
        if dominates(s, t):
            a = canonicalize([rng.randint(0, 9) for _ in range(n)])
            if sign_sum(a, t) < sign_sum(a, s):
                sound_ok = False
        else:
            if not any(
                sign_sum(ind, t) < sign_sum(ind, s)
                for k in range(1, n + 1)
                for ind in [CoeffVec(tuple([1] * k + [0] * (n - k)))]
            ):
                complete_ok = False
    ok = rules_ok and closure_ok and sound_ok and complete_ok
    report(8, ok, "order rules exhaustive for n<=8; soundness/completeness sampled; closure of (4,5,7)_7 is the 13 known vectors plus itself")


def test_criterion_09_falsification_hunts_empty():
    v1 = hunt("tomaszewski", range(2, 10), 100_000, SEED)
    v2 = hunt("delta", range(2, 9), 700, SEED)
    ok = not v1 and not v2
    report(9, ok, f"hunts returned {len(v1)} half-mass and {len(v2)} threshold-pair violations (expected 0 and 0)")


def test_criterion_10_engine_cross_validation():
    mismatches = 0
    trials = [n for n in range(2, 15) for _ in range(70)] + [
        n for n in range(15, 21) for _ in range(15)
    ]
    assert len(trials) == 1000
    for a, rng in seeded_vectors(((f"{SEED}:xval:{n}:{i}", n) for i, n in enumerate(trials)), 0, 20):
        rho = Fraction(rng.randint(0, 24), rng.randint(1, 8))
        if rho > 3:
            rho = Fraction(3)
        side = rng.choice([ONE_SIDED, TWO_SIDED])
        oracle = tail_counts_gray(a, rho, side)
        if tail_counts_gf(a, rho, side) != oracle or tail_counts_mitm(a, rho, side) != oracle:
            mismatches += 1

    rng = random.Random(f"{SEED}:mitm40")
    big = canonicalize([rng.randint(1, 50) for _ in range(40)])
    t0 = time.monotonic()
    counts = tail_counts_mitm(big, 1, TWO_SIDED)
    elapsed = time.monotonic() - t0
    sane = counts.below + counts.at + counts.above == 1 << 40
    sane = sane and tail_counts_gf(big, 1, TWO_SIDED) == counts
    ok = mismatches == 0 and elapsed < 60 and sane
    report(
        10, ok,
        f"1000 random (a, rho) with n<=20: {mismatches} engine mismatches; "
        f"n=40 meet-in-the-middle count in {elapsed:.1f}s (< 60s)",
    )
