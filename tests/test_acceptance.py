"""Acceptance suite: one test per criterion, at the full stated budgets.

The claims come from one run of ``verify_paper(full=True, seed=7)``, the
code behind ``radlab verify-paper --full``; each criterion asserts that
its claims passed and that their details equal the values frozen here:
the exact G and G' table values, witnesses and minima, and the seed-7
sample sizes and counts.  The fixture also pins the sha256 of the
report's bytes, the file ``radlab verify-paper --full --out`` writes, so
any change to an exact report value must update FULL_SHA256 on purpose.
The module draws no random numbers and calls no engine itself.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the whole module takes 7-11 s with ``RADLAB_THREADS=1`` and
5-8 s on two workers on a 2-core machine with CPython 3.11.
"""

import hashlib
from fractions import Fraction

import pytest

from radlab import cli, verify

SEED = 7
FULL_SHA256 = "0562047d0eb456ab604d895497a26f0ba47e0dd5cb754bf025cf41cc5cb4a818"

# details of each claim of the seed-7 --full run, as the report prints them
FROZEN = {
    "g-witnesses": {
        "1": "1", "1,1": "1/2", "1,1,1": "1/4", "1,1,1,0": "1/4", "1,1,1,0,0": "1/4",
        "1,1,1,1,1,1": "7/32", "1,1,1,1,1,1,0": "7/32",
    },
    "g-exhaustive-min": {
        "n=1": "1 via 1 (1 vectors)",
        "n=2": "1/2 via 1,1 (91 vectors)",
        "n=3": "1/4 via 1,1,1 (427 vectors)",
        "n=4": "1/4 via 1,1,1,0 (1079 vectors)",
        "n=5": "1/4 via 1,1,1,0,0 (1963 vectors)",
        "n=6": "7/32 via 1,1,1,1,1,1 (2925 vectors)",
        "n=7": "7/32 via 1,1,1,1,1,1,0 (3833 vectors)",
    },
    "gprime-witnesses": {
        "1,1": "1/2", "1,1,1": "1/4", "1,1,1,1": "1/8",
        "2,2,1,1,1": "1/4", "2,1,1,1,1,1": "3/16", "2,2,2,1,1,1,1": "7/32",
    },
    "gprime-exhaustive-min": {
        "n=1": "0 via 1 (1 vectors)",
        "n=2": "1/2 via 1,1 (90 vectors)",
        "n=3": "1/4 via 1,1,1 (336 vectors)",
        "n=4": "1/8 via 1,1,1,1 (652 vectors)",
        "n=5": "1/4 via 2,2,1,1,1 (884 vectors)",
        "n=6": "3/16 via 2,1,1,1,1,1 (962 vectors)",
        "n=7": "7/32 via 2,2,2,1,1,1,1 (908 vectors)",
    },
    "invalid-two-sided-sum": {"wrong_lhs": "5/4"},
    "dim7-case-rule-sample": {"strict_checked": "87041"},
    "comb-equivalence-exhaustive": {"canonical_vectors": "442"},
    "comb-equivalence-random": {"trials": "10000"},
    "pairing-sample": {"checked": "69977"},
    "dominance-rules": {},
    "dominance-closure-457": {"size": "14"},
    "dominance-soundness-completeness": {"pairs": "9985", "max_n": "12"},
    "hunt-tomaszewski-empty": {"violations": "0"},
    "hunt-delta-empty": {"violations": "0"},
    "engine-crossval": {"trials": "1000"},
    "mitm-large": {"counts": "(749248342086, 0, 350263285690)"},
}

# the upward closure of (4,5,7)_7: the 13 known vectors plus itself
CLOSURE_457_LISTED = {
    (4, 6, 7), (5, 6, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (4,), (5,), (6,), (7,), (),
}


@pytest.fixture(scope="module")
def claims():
    """Every claim of verify-paper --full at seed 7, by id, run once."""
    report = verify.verify_paper(full=True, seed=SEED)
    assert hashlib.sha256(cli.canonical_json_bytes(report)).hexdigest() == FULL_SHA256
    return {c["claim"]: c for c in report["claims"]}


def report(criterion: int, claims: dict, *claim_ids: str, ok: bool = True) -> None:
    """Assert ok, and that the claims passed with the frozen details of
    those that FROZEN lists."""
    got = [claims[i] for i in claim_ids]
    ok = ok and all(c["passed"] for c in got)
    ok = ok and all(c["details"] == FROZEN[c["claim"]] for c in got if c["claim"] in FROZEN)
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - "
          + "; ".join(c["description"] for c in got))
    assert ok, got


def test_criterion_01_g_table_and_exhaustive_minimum(claims):
    report(1, claims, "g-witnesses", "g-exhaustive-min")


def test_criterion_02_gprime_table_and_exhaustive_minimum(claims):
    report(2, claims, "gprime-witnesses", "gprime-exhaustive-min")


def test_criterion_03_dim7_floor_and_vsd_size(claims):
    floor, vsd = claims["dim7-floor-sample"], claims["dim7-vsd-size-sample"]
    ok = Fraction(floor["details"]["min_p_ge"]) >= Fraction(7, 32) and int(vsd["details"]["min_size"]) >= 14
    report(3, claims, "dim7-floor-sample", "dim7-vsd-size-sample", ok=ok)


def test_criterion_04_dim7_case_rule(claims):
    report(4, claims, "dim7-case-rule-sample")


def test_criterion_05_subset_count_equivalence(claims):
    report(5, claims, "comb-equivalence-exhaustive", "comb-equivalence-random")


def test_criterion_06_invalid_two_sided_sum(claims):
    report(6, claims, "invalid-two-sided-sum")


def test_criterion_07_sorted_pairing(claims):
    report(7, claims, "pairing-sample")


def test_criterion_08_dominance_order(claims):
    ok = (verify.CLOSURE_457 == CLOSURE_457_LISTED | {(4, 5, 7)}
          and claims["dominance-rules"]["description"].endswith("n <= 8"))
    report(8, claims, "dominance-rules", "dominance-closure-457", "dominance-soundness-completeness", ok=ok)


def test_criterion_09_falsification_hunts_empty(claims):
    ok = (claims["hunt-tomaszewski-empty"]["description"].startswith("100000 random")
          and "over 700 random" in claims["hunt-delta-empty"]["description"])
    report(9, claims, "hunt-tomaszewski-empty", "hunt-delta-empty", ok=ok)


def test_criterion_10_engine_cross_validation(claims):
    ok = claims["mitm-large"]["description"].startswith("single n=40 ")
    report(10, claims, "engine-crossval", "mitm-large", ok=ok)
