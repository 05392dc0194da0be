"""The end-to-end claim suite.

Recomputes, with exact arithmetic, every headline value and property this
library is expected to reproduce: the norm-reaching probability tables
and their extremal witnesses, the exhaustive small-region minima, the
dimension-7 floor and witness rules, the subset-count equivalence, the
sorted pairing, the falsification hunts, and the engine cross-validation.

``full=True`` runs the acceptance-scale budgets, which the acceptance
tests check; the default budgets finish in seconds and exercise the same
claims.  The claims run one after another, and each sampled claim, the
hunts included, evaluates its sample through ``search.run_sharded``, in
this process or on up to ``RADLAB_THREADS`` worker processes; the report
is the same at any worker count.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Iterator

from .conjectures import (
    G_TABLE,
    GPRIME_TABLE,
    HK_BOUND,
    check_delta_alt,
    combinatorial_fraction_gray,
)
from .core import CoeffVec, SignAssignment, _canonical_entries, canonicalize, sign_sum
from .counting import (
    ONE_SIDED,
    TWO_SIDED,
    TailCounts,
    tail_counts,
    tail_counts_gf,
    tail_counts_mitm,
)
from .dominance import case_lemma_7, dominates, upward_closure, verify_order_rules
from .errors import NoWitness
from .search import (
    HUNT_PREDICATES,
    KeySchedule,
    SearchTarget,
    Substream,
    exhaustive_integer_search,
    failures_shard,
    hunt,
    run_sharded,
    split_runs,
)

# norm-reaching (G) and strict-tail (G') witnesses of the table values
G_WITNESSES = ((1,), (1, 1), (1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 0, 0),
               (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 0))
GPRIME_WITNESSES = ((1, 1), (1, 1, 1), (1, 1, 1, 1), (2, 2, 1, 1, 1),
                    (2, 1, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1))

# upward closure of the flip set {4,5,7} in dimension 7: the canonical
# 14-element certificate used by the dimension-7 floor argument
CLOSURE_457 = {
    (), (4,), (5,), (6,), (7,),
    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (4, 5, 7), (4, 6, 7), (5, 6, 7),
}


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "description": self.description,
            "passed": self.passed,
            "details": {k: str(v) for k, v in self.details.items()},
        }


def _witness_claims(claim_id: str, desc: str, witnesses: tuple, target: SearchTarget, table: dict) -> ClaimResult:
    details = {}
    ok = True
    for entries in witnesses:
        value = target.probability(tail_counts(CoeffVec(entries))).fraction
        details[",".join(map(str, entries))] = value
        ok = ok and value == table[len(entries)]
    return ClaimResult(claim_id, desc, ok, details)


def _exhaustive_claims(claim_id: str, desc: str, target: SearchTarget, table: dict, bound: int) -> ClaimResult:
    details = {}
    ok = True
    for n, expected in table.items():
        rec = exhaustive_integer_search(n, target, bound)
        details[f"n={n}"] = f"{rec.best_value} via {rec.witness} ({rec.vectors_examined} vectors)"
        ok = ok and rec.best_value.fraction == expected
    return ClaimResult(claim_id, desc, ok, details)


def _dim7_shard(schedule: KeySchedule, shard: int, shards: int):
    """The shard's evaluated and all-positive counts, and a record
    (k, (|V_sd(a)|, a or None)) at each new minimum of |V_sd(a)| and at
    each sample a whose case-rule call found no witness."""
    evaluated = strict_checked = 0
    min_vsd = None
    records = []
    for k, entries, _ in schedule.draws(shard, shards):
        a = CoeffVec._canonical(entries)
        evaluated += 1
        one = tail_counts(a, 1, ONE_SIDED)
        vsd_size = one.at + one.above
        strict = a.entries[6] > 0
        strict_checked += strict
        try:
            case_lemma_7(a, strict=strict)
            failure = None
        except NoWitness:
            failure = a
        new_min = min_vsd is None or vsd_size < min_vsd
        if new_min:
            min_vsd = vsd_size
        if new_min or failure is not None:
            records.append((k, (vsd_size, failure)))
    return (evaluated, strict_checked), records


def _dim7_sample_claims(trials: int, seed: int) -> list[ClaimResult]:
    """One pass over seeded random canonical 7-vectors, entries <= 50:
    the two-sided floor, the norm-reaching set size, and the three-flip
    witness rule, one call per sample: strict on all-positive samples,
    since a strict witness is also a plain one.

    Each sample is counted on one side only: S and -S are equally
    frequent and ||a|| > 0, so |a.s| >= ||a|| holds for twice as many of
    the 2^7 signs as a.s >= ||a||, the members of V_sd(a)."""
    schedule = KeySchedule(seed, "{seed}:dim7:{k}", ((7, trials),), 0, 50)
    (evaluated, strict_checked), records = run_sharded(_dim7_shard, schedule)
    min_vsd = min((vsd_size for _, (vsd_size, _) in records), default=None)
    first_failure = next((a for _, (_, a) in records if a is not None), None)
    sampled = evaluated > 0
    min_p = Fraction(2 * min_vsd, 2**7) if sampled else None
    rule_details = {"strict_checked": strict_checked}
    if first_failure is not None:
        rule_details["first_failure"] = first_failure
    return [
        ClaimResult(
            "dim7-floor-sample",
            f"P(|a.s| >= ||a||) >= 7/32 on {trials} random 7-vectors",
            sampled and min_p >= HK_BOUND,
            {"min_p_ge": min_p},
        ),
        ClaimResult(
            "dim7-vsd-size-sample",
            f"|V_sd(a)| >= 14 by direct enumeration on the same sample",
            sampled and min_vsd >= 14,
            {"min_size": min_vsd},
        ),
        ClaimResult(
            "dim7-case-rule-sample",
            "one of the flips (2)_7, (3,4)_7, (5,6,7)_7 always reaches the norm",
            sampled and first_failure is None,
            rule_details,
        ),
    ]


def _sampled_claim(holds: Callable, schedule: KeySchedule) -> tuple[bool, int]:
    """A sampled claim passes when it evaluated at least one vector and
    ``holds`` was true on every one; returns that and the number
    evaluated."""
    (evaluated,), failures = run_sharded(failures_shard, schedule, holds)
    return evaluated > 0 and not failures, evaluated


def _comb_agrees(entries: tuple[int, ...], stream: Substream | None = None) -> bool:
    a = CoeffVec._canonical(entries)
    return combinatorial_fraction_gray(a).fraction == tail_counts(a).p_le.fraction


def _comb_exhaustive_claim() -> ClaimResult:
    vecs = {_canonical_entries(c) for n in range(1, 9) for c in combinations_with_replacement(range(1, 5), n)}
    return ClaimResult(
        "comb-equivalence-exhaustive",
        "subset-count fraction equals P(|l.s| <= ||l||) for all vectors with n <= 8, entries in [1,4]",
        all(map(_comb_agrees, vecs)),
        {"canonical_vectors": len(vecs)},
    )


def _comb_random_claim(trials: int, seed: int) -> ClaimResult:
    runs = tuple((2 + i % 11, 1) for i in range(trials))
    schedule = KeySchedule(seed, "{seed}:comb:{k}", runs, 1, 20)
    passed, evaluated = _sampled_claim(_comb_agrees, schedule)
    return ClaimResult(
        "comb-equivalence-random",
        f"subset-count equivalence on {trials} random vectors with n <= 12",
        passed,
        {"trials": evaluated},
    )


def _pairing_claim(trials_per_n: int, seed: int) -> ClaimResult:
    runs = tuple((n, trials_per_n) for n in range(2, 9))
    schedule = KeySchedule(seed, "{seed}:pair:{n}:{i}", runs, 0, 20)
    # decided by the predicate of `hunt --predicate pairing`
    passed, checked = _sampled_claim(HUNT_PREDICATES["pairing"][1], schedule)
    return ClaimResult(
        "pairing-sample",
        f"sorted pairing products stay within norm_sq, {trials_per_n} vectors per n in [2,8]",
        passed,
        {"checked": checked},
    )


@lru_cache(maxsize=None)
def _prefix_indicators(n: int) -> tuple[CoeffVec, ...]:
    """The n-vectors (1, ..., 1, 0, ..., 0) with k ones, k = 1..n."""
    return tuple(CoeffVec((1,) * k + (0,) * (n - k)) for k in range(1, n + 1))


def _dominance_holds(entries: tuple[int, ...], stream: Substream) -> bool:
    a = CoeffVec._canonical(entries)
    # the pair (s, t), drawn after the entries of a
    s, t = (SignAssignment(mask, a.n) for mask in stream.draws(2, 0, (1 << a.n) - 1))
    if dominates(s, t):
        # sound: t is at least as good as s on the sampled vector
        return sign_sum(a, t) >= sign_sum(a, s)
    # complete: some prefix indicator vector separates the pair
    return any(sign_sum(ind, t) < sign_sum(ind, s) for ind in _prefix_indicators(a.n))


def _dominance_claims(max_exhaustive_n: int, pairs: int, max_n: int, seed: int) -> list[ClaimResult]:
    rules_ok = all(verify_order_rules(n) for n in range(1, max_exhaustive_n + 1))
    closure = upward_closure(SignAssignment.from_indices((4, 5, 7), 7))
    closure_ids = {SignAssignment(m, 7).indices for m in closure}
    closure_ok = closure_ids == CLOSURE_457
    schedule = KeySchedule(seed, "{seed}:dom:{n}:{i}", split_runs(pairs, range(2, max_n + 1)), 0, 9)
    sampled_ok, evaluated = _sampled_claim(_dominance_holds, schedule)
    return [
        ClaimResult(
            "dominance-rules",
            f"order rules (i)-(v) hold exhaustively for n <= {max_exhaustive_n}",
            rules_ok,
        ),
        ClaimResult(
            "dominance-closure-457",
            "upward closure of (4,5,7)_7 is exactly the known 14-element set",
            closure_ok,
            {"size": len(closure)},
        ),
        ClaimResult(
            "dominance-soundness-completeness",
            "prefix-sum order is sound and complete against sampled vectors",
            sampled_ok,
            {"pairs": evaluated, "max_n": max_n},
        ),
    ]


def _hunt_claims(tomaszewski_budget: int, delta_budget: int, seed: int) -> list[ClaimResult]:
    v1 = hunt("tomaszewski", range(2, 10), tomaszewski_budget, seed)
    v2 = hunt("delta", range(2, 9), delta_budget, seed)
    return [
        ClaimResult(
            "hunt-tomaszewski-empty",
            f"{tomaszewski_budget} random vectors across n in [2,9] produce no violation",
            len(v1) == 0,
            {"violations": len(v1)},
        ),
        ClaimResult(
            "hunt-delta-empty",
            f"threshold-pair sweep over {delta_budget} random vectors across n in [2,8] produces no violation",
            len(v2) == 0,
            {"violations": len(v2)},
        ),
    ]


def _reference_counts(a: CoeffVec, rho: Fraction, side: str) -> TailCounts:
    """The counts of both engines by a route that shares no code with
    them: the sign sums convolved one entry at a time from {0: 1}, then
    each distinct sum S decided by comparing den^2 * S^2 with
    num^2 * ||a||^2 for rho = num/den.  The sums T - 2m, m = 0..T, are at
    most T + 1 for entry sum T: 401 at the claim's n <= 20, entries <= 20."""
    sums = Counter({0: 1})
    for e in a.entries:
        step = Counter()
        for s, c in sums.items():
            step[s + e] += c
            step[s - e] += c
        sums = step
    threshold = rho.numerator**2 * a.norm_sq
    den_sq = rho.denominator**2
    below = at = above = 0
    for s, c in sums.items():
        lhs = den_sq * s * s
        if lhs < threshold or side == ONE_SIDED and s < 0:
            below += c
        elif lhs == threshold:
            at += c
        else:
            above += c
    return TailCounts(a.n, below, at, above)


def _engines_agree(entries: tuple[int, ...], stream: Substream) -> bool:
    a = CoeffVec._canonical(entries)
    # rho's numerator, its denominator and the side, drawn after the entries
    rho = min(Fraction(stream.draw(0, 3 * 8), stream.draw(1, 8)), Fraction(3))
    side = (ONE_SIDED, TWO_SIDED)[stream.draw(0, 1)]
    return tail_counts_gf(a, rho, side) == _reference_counts(a, rho, side) == tail_counts_mitm(a, rho, side)


def _crossval_claim(per_n_to_14: int, per_n_15_to_20: int, seed: int) -> ClaimResult:
    runs = tuple((n, per_n_to_14) for n in range(2, 15)) + tuple((n, per_n_15_to_20) for n in range(15, 21))
    schedule = KeySchedule(seed, "{seed}:xval:{n}:{k}", runs, 0, 20)
    passed, evaluated = _sampled_claim(_engines_agree, schedule)
    return ClaimResult(
        "engine-crossval",
        "packed generating function and meet-in-the-middle equal the sign-sum "
        f"convolution counts on {schedule.size} random (a, rho)",
        passed,
        {"trials": evaluated},
    )


def _mitm_large_claim(n: int, seed: int) -> ClaimResult:
    a = canonicalize(Substream(f"{seed}:mitm:{n}").draws(n, 1, 50))
    t0 = time.monotonic()
    counts = tail_counts_mitm(a, 1, TWO_SIDED)
    elapsed = time.monotonic() - t0
    # the all-plus and all-minus assignments always reach the norm
    sane = counts.at + counts.above >= 2
    return ClaimResult(
        "mitm-large",
        f"single n={n} meet-in-the-middle count completes in under 60 s "
        "and equals the packed generating function count",
        elapsed < 60 and sane and tail_counts_gf(a, 1, TWO_SIDED) == counts,
        {"counts": (counts.below, counts.at, counts.above)},
    )


def _claims(full: bool, seed: int) -> Iterator[list[ClaimResult]]:
    """Every claim in report order with its budget, as the list of claims
    each pass computes; a pass runs only when its turn comes."""
    yield [_witness_claims(
        "g-witnesses", "norm-reaching witnesses evaluate to the table values",
        G_WITNESSES, SearchTarget.G, G_TABLE)]
    yield [_exhaustive_claims(
        "g-exhaustive-min", "exhaustive sweep (entry sum <= 24) finds no smaller value",
        SearchTarget.G, G_TABLE, 24)]
    yield [_witness_claims(
        "gprime-witnesses", "strict-tail witnesses evaluate to the table values",
        GPRIME_WITNESSES, SearchTarget.GPRIME, GPRIME_TABLE)]
    yield [_exhaustive_claims(
        "gprime-exhaustive-min", "exhaustive all-positive sweep matches the strict-tail table",
        SearchTarget.GPRIME, GPRIME_TABLE, 24)]

    alt = check_delta_alt(CoeffVec((1, 1, 1, 1)), 1)
    yield [ClaimResult(
        "invalid-two-sided-sum",
        "at (1,1,1,1), delta=1 the invalid two-sided sum is exactly 5/4 while the valid form holds",
        alt.holds
        and alt.values["wrong_inequality_lhs"] == Fraction(5, 4)
        and alt.values["wrong_inequality_holds"] is False,
        {"wrong_lhs": alt.values["wrong_inequality_lhs"]},
    )]

    yield _dim7_sample_claims(100_000 if full else 2000, seed)
    yield [_comb_exhaustive_claim()]
    yield [_comb_random_claim(10_000 if full else 1000, seed)]
    yield [_pairing_claim(10_000 if full else 250, seed)]
    yield _dominance_claims(8 if full else 6, 10_000 if full else 2000, 12 if full else 10, seed)
    yield _hunt_claims(100_000 if full else 4000, 700 if full else 140, seed)
    yield [_crossval_claim(70 if full else 8, 15 if full else 0, seed)]
    yield [_mitm_large_claim(40 if full else 32, seed)]


def verify_paper(full: bool = False, log: Callable[[str], None] | None = None, seed: int = 7) -> dict:
    """Run the whole claim suite; returns {"claims": [...], "all_passed"}.
    Each claim is logged as soon as its pass finishes: the first claim of
    a pass with the pass's elapsed seconds, the others as sharing them.
    The report holds no time."""
    claims: list[ClaimResult] = []
    start = time.monotonic()
    for group in _claims(full, seed):
        elapsed = time.monotonic() - start
        if log:
            for r in group:
                cost = f"{elapsed:.2f} s" if r is group[0] else f"in the {group[0].claim_id} pass"
                log(f"{'PASS' if r.passed else 'FAIL'}  {r.claim_id}: {r.description} [{cost}]")
        claims += group
        start = time.monotonic()
    return {
        "claims": [c.to_json_dict() for c in claims],
        "all_passed": all(c.passed for c in claims),
    }
