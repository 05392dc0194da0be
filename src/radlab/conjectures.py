"""Checkers for the desk-verifiable tail statements: the half-mass
inequality for |a.s| vs ||a||, its symmetric-tail and threshold-pair
strengthenings, the sorted pairing of sign sums, the subset-count
reformulation, and the norm-reaching probability floors in dimensions
up to 7.

Every checker returns a CheckReport carrying exact rational values; a
"violated" verdict always includes a witness that can be re-checked
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .core import CoeffVec, DyadicProb, RationalLike
from .counting import ONE_SIDED, TWO_SIDED, TailCounts, _refuse_inexact, _tail_le, distribution, tail_counts
from .errors import (
    DimensionError,
    InvalidThreshold,
    NonPositiveEntry,
    TooLarge,
)

HOLDS = "holds"
VIOLATED = "violated"
OUT_OF_SCOPE = "out-of-scope"

# Proven floors: P(|a.s| >= ||a||) >= 7/32 for n <= 7, its exact minimum
# G(n) for each n <= 7, and the strict analogue table over vectors with no
# zero entries.
HK_BOUND = Fraction(7, 32)
HK_MAX_N = 7
G_TABLE = {
    1: Fraction(1),
    2: Fraction(1, 2),
    3: Fraction(1, 4),
    4: Fraction(1, 4),
    5: Fraction(1, 4),
    6: Fraction(7, 32),
    7: Fraction(7, 32),
}
GPRIME_TABLE = {
    1: Fraction(0),
    2: Fraction(1, 2),
    3: Fraction(1, 4),
    4: Fraction(1, 8),
    5: Fraction(1, 4),
    6: Fraction(3, 16),
    7: Fraction(7, 32),
}
# Half-mass floor P(|a.s| <= ||a||) >= 1/2, proven in every dimension
# (Keller and Klein, "Proof of Tomaszewski's conjecture on randomly signed
# sums", arXiv:2006.16834).
T_FLOOR = Fraction(1, 2)


@dataclass
class CheckReport:
    """Outcome of one predicate on one vector, with exact values."""

    predicate: str
    vector: CoeffVec
    verdict: str
    values: dict = field(default_factory=dict)
    witness: dict | None = None
    note: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    def to_json_dict(self) -> dict:
        out = {
            "predicate": self.predicate,
            "vector": str(self.vector),
            "n": self.vector.n,
            "verdict": self.verdict,
            "values": {k: _jsonable(v) for k, v in self.values.items()},
            "witness": _jsonable(self.witness),
        }
        if self.params:
            out["params"] = {k: _jsonable(v) for k, v in self.params.items()}
        if self.note:
            out["note"] = self.note
        return out


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, DyadicProb):
        return str(v.fraction)
    if isinstance(v, CoeffVec):
        return str(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


def tomaszewski_holds(c: TailCounts) -> bool:
    """The half-mass inequality on counts at the norm: at least half of the
    2^n sign sums satisfy |a.s| <= ||a||."""
    return c.below + c.at >= 1 << (c.n - 1)


def check_tomaszewski(a: CoeffVec) -> CheckReport:
    """At least half of the 2^n sign sums satisfy |a.s| <= ||a||."""
    c = tail_counts(a)
    holds = tomaszewski_holds(c)
    values = {
        "p_le_norm": c.p_le,
        "below": c.below,
        "at": c.at,
        "above": c.above,
    }
    witness = None if holds else {"p_le_norm": c.p_le, "deficit": (1 << (a.n - 1)) - c.below - c.at}
    return CheckReport("tomaszewski", a, HOLDS if holds else VIOLATED, values, witness)


def check_symmetric_tails(a: CoeffVec) -> CheckReport:
    """P(|a.s| < ||a||) >= P(|a.s| > ||a||), with the two half-plus-atom
    reformulations reported alongside (they are arithmetic identities)."""
    c = tail_counts(a)
    holds = c.below >= c.above
    half = Fraction(1, 2)
    values = {
        "p_lt_norm": c.p_lt,
        "p_gt_norm": c.p_gt,
        "p_eq_norm": c.p_eq,
        "gt_le_half_minus_half_atom": c.p_gt.fraction <= half - c.p_eq.fraction / 2,
        "le_ge_half_plus_half_atom": c.p_le.fraction >= half + c.p_eq.fraction / 2,
    }
    witness = None if holds else {"below": c.below, "above": c.above}
    return CheckReport("tails", a, HOLDS if holds else VIOLATED, values, witness)


def _implied_counterexample(a: CoeffVec, delta: Fraction) -> dict:
    """Data for the (n+1)-dimensional vector a violation would induce:
    append b*||a|| with 2b = delta - 1/delta.  Exact whenever ||a|| is an
    integer; otherwise the rational parameters are reported instead."""
    from math import isqrt

    b = (delta - 1 / delta) / 2
    root = isqrt(a.norm_sq)
    out: dict = {"b": abs(b), "norm_sq": a.norm_sq}
    if root * root == a.norm_sq:
        from .core import canonicalize

        extended = [Fraction(x) for x in a.entries] + [abs(b) * root]
        out["implied_vector"] = canonicalize(extended)
    return out


def check_delta_inequality(a: CoeffVec, delta: RationalLike) -> CheckReport:
    """P(a.s > delta*||a||) + P(a.s > ||a||/delta) <= 1/2 for delta > 0.

    A violation would induce a counterexample to the half-mass inequality
    in dimension n+1; the report carries the implied vector so it can be
    re-checked directly.
    """
    _refuse_inexact(delta, "delta")
    delta = Fraction(delta)
    if delta <= 0:
        raise InvalidThreshold(f"delta must be positive, got {delta}")
    c1, c2 = _tail_le(a.entries, a.n, a.total, a.norm_sq, (delta, 1 / delta), ONE_SIDED)
    lhs = c1.p_gt.fraction + c2.p_gt.fraction
    holds = lhs <= Fraction(1, 2)
    values = {"p_gt_delta": c1.p_gt, "p_gt_inv_delta": c2.p_gt, "lhs": lhs}
    witness = None
    note = None
    if not holds:
        witness = {"delta": delta, "lhs": lhs}
        witness.update(_implied_counterexample(a, delta))
        note = "candidate half-mass counterexample in dimension n+1"
    return CheckReport(
        "delta", a, HOLDS if holds else VIOLATED, values, witness, note,
        params={"delta": delta},
    )


def check_delta_alt(a: CoeffVec, delta: RationalLike) -> CheckReport:
    """P(|a.s| <= delta*||a||) >= P(|a.s| >= ||a||/delta) for 0 < delta <= 1.

    Also evaluates the superficially similar inequality
    P(|a.s| >= delta*||a||) + P(|a.s| >= ||a||/delta) <= 1, which is NOT
    valid in general; its truth value is reported separately.
    """
    _refuse_inexact(delta, "delta")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise InvalidThreshold(f"delta must be in (0, 1], got {delta}")
    ca, cb = _tail_le(a.entries, a.n, a.total, a.norm_sq, (delta, 1 / delta), TWO_SIDED)
    holds = ca.p_le.fraction >= cb.p_ge.fraction
    wrong_lhs = ca.p_ge.fraction + cb.p_ge.fraction
    values = {
        "p_le_delta": ca.p_le,
        "p_ge_inv_delta": cb.p_ge,
        "wrong_inequality_lhs": wrong_lhs,
        "wrong_inequality_holds": wrong_lhs <= 1,
    }
    witness = None if holds else {"delta": delta, "p_le_delta": ca.p_le, "p_ge_inv_delta": cb.p_ge}
    return CheckReport(
        "delta-alt", a, HOLDS if holds else VIOLATED, values, witness,
        params={"delta": delta},
    )


def _reduced(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    return p // g, q // g


def delta_sweep(a: CoeffVec) -> CheckReport:
    """Maximize the threshold-pair left side over ALL delta > 0.

    For fixed a the left side is a step function of delta jumping only
    where one of the two thresholds crosses a realized sign-sum value.
    Parametrizing delta = q/||a|| puts every jump at a rational q (a
    positive sum value v, or norm_sq/v), so testing each jump point and a
    mediant between consecutive points covers every value the function
    takes.  Everything stays rational; no square root is ever needed.

    One merge walks the jump points ascending (the values v ascend while
    norm_sq/w descends as w does, and v < norm_sq/w iff v*w < norm_sq) and
    carries the left side in one running count, with no bisection:
    #(S > q) drops by count(v) at v, and #(S > norm_sq/q) rises by count(w)
    just after norm_sq/w.

    With N = norm_sq, the left side #(S > q) + #(S > N/q) and its set of
    jump points are symmetric under q -> N/q, so the interval mirroring
    one above sqrt(N) lies below it and comes first: the first maximum
    lies at or below sqrt(N).  The merge stops after the first point p
    with p^2 >= N (v*v >= N at a value, w*w <= N at N/w).
    """
    norm_sq = a.norm_sq
    pairs = distribution(a).pairs
    # the table is symmetric and strictly increasing: the upper half is positive
    pos = pairs[(len(pairs) + 1) // 2:]
    # below the first point the left side counts every positive sum once
    lhs = positive = sum(map(itemgetter(1), pos))
    # each point as (p, q), reduced only if a sample needs it, and the left
    # side on the open interval after it (where its right mediant lies)
    points: list[tuple[int, int]] = []
    after: list[int] = []
    i, j = 0, len(pos) - 1
    while True:
        if j >= 0:
            w, cw = pos[j]
            cross = pos[i][0] * w if i < len(pos) else norm_sq + 1  # only w left
        if j < 0 or cross <= norm_sq:
            v, cv = pos[i]
            points.append((v, 1))
            lhs -= cv
            i += 1
            if j >= 0 and cross == norm_sq:  # v == norm_sq/w: one point
                lhs += cw
                j -= 1
            past = v * v - norm_sq
        else:
            points.append((norm_sq, w))
            lhs += cw
            j -= 1
            past = norm_sq - w * w
        after.append(lhs)
        if past >= 0:  # this point p has p^2 >= norm_sq
            break
    # The samples are the points, one below the first and one above the
    # last, then the mediants between consecutive points, and the first
    # maximum wins.  The left side at a point is below the one on the
    # interval before it (v's count drops) or after it (w's count rises),
    # so no point is a maximum, and below the first point and above the
    # last it counts every positive sum once.  The interval after p
    # (after[-1]) mirrors an earlier one or the one below the first point,
    # so it is never the first maximum and points[k + 1] exists.  The
    # points walked before p lie below sqrt(norm_sq) and their mirrors at
    # or past p, which is its own mirror if p^2 == norm_sq.
    best = max(max(after), positive)
    if best == positive:
        p, q = _reduced(*points[0])
        q += 1
    else:
        k = after.index(best)
        (p1, q1), (p2, q2) = _reduced(*points[k]), _reduced(*points[k + 1])
        p, q = p1 + p2, q1 + q2
    best_lhs = Fraction(best, 1 << a.n)
    best_q = Fraction(p, q)
    holds = best_lhs <= Fraction(1, 2)
    values = {
        "max_lhs": best_lhs,
        "argmax_q": best_q,
        "points_tested": 2 * (2 * (len(points) - 1) + (past == 0)) + 1,
    }
    witness = None if holds else {"q": best_q, "max_lhs": best_lhs}
    return CheckReport(
        "delta-sweep", a, HOLDS if holds else VIOLATED, values, witness,
        note="delta parametrized as q/||a||; q rational",
    )


def check_pairing(a: CoeffVec) -> CheckReport:
    """Sort the 2^n sign sums; the k-th smallest nonnegative one times the
    k-th largest must not exceed norm_sq (the scale-corrected form of the
    unit-product pairing)."""
    pairs = distribution(a).pairs
    half = 1 << (a.n - 1)
    # The 2^(n-1) largest sums, ascending, as (value, count) runs: half of
    # the zeros, then every positive value.  The table is symmetric and
    # strictly increasing, so its upper half starts at 0 when its length is
    # odd and at the first positive value otherwise.
    runs = pairs[len(pairs) // 2:]
    if len(pairs) % 2:
        runs = ((0, runs[0][1] // 2),) + runs[1:]
    covered = sum(map(itemgetter(1), runs))
    if covered != half:
        raise RuntimeError(f"pairing runs cover {covered} sums, not {half}")
    # Walk from both ends: s_k, the k-th smallest, and its partner, the
    # k-th largest, stay in their runs for `left` and `right` more k, so
    # one step covers every k before either run runs out.  k and
    # half + 1 - k give the same product, so the walk stops at the
    # midpoint: a violating k past it mirrors to a smaller one.
    max_product, witness = 0, None
    lo, hi = iter(runs), reversed(runs)
    (s_k, left), (partner, right) = next(lo), next(hi)
    k = 1
    while True:
        p = s_k * partner
        if p > max_product:
            max_product = p
        if p > a.norm_sq and witness is None:
            witness = {"k": k, "s_k": s_k, "partner": partner}
        step = left if left < right else right  # min() costs a slow call here
        k += step
        if 2 * k > half + 1:
            break
        left -= step
        right -= step
        if not left:
            s_k, left = next(lo)
        if not right:
            partner, right = next(hi)
    holds = witness is None
    values = {"max_product": max_product, "norm_sq": a.norm_sq}
    return CheckReport(
        "pairing", a, HOLDS if holds else VIOLATED, values, witness,
        note="tests the sorted pairing; sufficient but not claimed necessary",
    )


def combinatorial_fraction(l: CoeffVec) -> DyadicProb:
    """Fraction of subsets J of the index set for which

        pairs inside J + pairs inside the complement - cross pairs <= 0.

    With s the sign vector flipping J, twice the left side is
    (l.s)^2 - ||l||^2, so the fraction is P(|l.s| <= ||l||), read off the
    tail counts.  combinatorial_fraction_gray evaluates the subset form
    itself.
    """
    if any(x < 1 for x in l.entries):
        raise NonPositiveEntry("all entries must be >= 1")
    return tail_counts(l).p_le


# The subset walk of combinatorial_fraction_gray refuses dimensions above this n.
GRAY_CAP = 30


def combinatorial_fraction_gray(l: CoeffVec) -> DyadicProb:
    """Reference oracle for combinatorial_fraction: walks all 2^n subsets
    in Gray-code order, maintaining the pair sums incrementally under
    single-index toggles, so each subset costs O(1) multiplications.
    """
    if any(x < 1 for x in l.entries):
        raise NonPositiveEntry("all entries must be >= 1")
    if l.n > GRAY_CAP:
        raise TooLarge(f"n={l.n} exceeds the Gray sweep cap {GRAY_CAP}")
    e = l.entries
    n = l.n
    in_sum = 0
    out_sum = sum(e)
    pairs_in = 0
    pairs_out = 0
    run = 0
    for x in e:
        pairs_out += x * run
        run += x
    member = [False] * n
    count = 1 if pairs_in + pairs_out - in_sum * out_sum <= 0 else 0
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1
        x = e[j]
        if member[j]:
            in_sum -= x
            pairs_in -= x * in_sum
            pairs_out += x * out_sum
            out_sum += x
            member[j] = False
        else:
            out_sum -= x
            pairs_out -= x * out_sum
            pairs_in += x * in_sum
            in_sum += x
            member[j] = True
        if pairs_in + pairs_out - in_sum * out_sum <= 0:
            count += 1
    return DyadicProb(count, n)


def check_combinatorial(l: CoeffVec) -> CheckReport:
    """Report form of combinatorial_fraction: holds iff fraction >= 1/2."""
    frac = combinatorial_fraction(l)
    holds = frac.fraction >= Fraction(1, 2)
    witness = None if holds else {"fraction": frac}
    return CheckReport(
        "comb", l, HOLDS if holds else VIOLATED, {"fraction": frac}, witness
    )


def classify_A_or_B(a: CoeffVec) -> str:
    """"B" if some sign sum lands exactly on the norm, else "A"."""
    return "B" if tail_counts(a).at > 0 else "A"


def check_hk_bound(a: CoeffVec) -> CheckReport:
    """P(|a.s| >= ||a||) >= 7/32, proven for n <= 7.

    For n > 7 nothing is proven; the probability is still reported but the
    verdict is out-of-scope rather than holds/violated.
    """
    c = tail_counts(a)
    values = {"p_ge_norm": c.p_ge, "bound": HK_BOUND}
    if a.n > HK_MAX_N:
        return CheckReport(
            "hk", a, OUT_OF_SCOPE, values,
            note=f"bound proven only for n <= {HK_MAX_N}",
        )
    holds = c.p_ge.fraction >= HK_BOUND
    witness = None if holds else {"p_ge_norm": c.p_ge}
    return CheckReport("hk", a, HOLDS if holds else VIOLATED, values, witness)


def check_gprime(a: CoeffVec) -> CheckReport:
    """P(|a.s| > ||a||) >= the proven strict-tail floor for n <= 7.

    Defined only for vectors with no zero entry; equality identifies an
    extremal vector.
    """
    if any(x < 1 for x in a.entries):
        raise NonPositiveEntry("strict-tail floor requires all entries >= 1")
    if a.n > HK_MAX_N:
        raise DimensionError(f"strict-tail floor table stops at n={HK_MAX_N}")
    c = tail_counts(a)
    bound = GPRIME_TABLE[a.n]
    holds = c.p_gt.fraction >= bound
    values = {
        "p_gt_norm": c.p_gt,
        "bound": bound,
        "equality": c.p_gt.fraction == bound,
    }
    witness = None if holds else {"p_gt_norm": c.p_gt}
    return CheckReport("gprime", a, HOLDS if holds else VIOLATED, values, witness)


# The checkers, keyed by the predicate name in their reports; "delta" and
# "delta-alt" also take delta, every other one only the vector.
CHECKERS = {
    "tomaszewski": check_tomaszewski,
    "tails": check_symmetric_tails,
    "delta": check_delta_inequality,
    "delta-alt": check_delta_alt,
    "delta-sweep": delta_sweep,
    "pairing": check_pairing,
    "comb": check_combinatorial,
    "hk": check_hk_bound,
    "gprime": check_gprime,
}
