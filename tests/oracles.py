"""Slow but simple counts that the tests compare the library against.

``tail_counts_gray`` sweeps all 2^n sign vectors in Gray-code order, one
add or subtract per step; ``brute_counts`` enumerates the sign tuples
literally.  Both decide each sign sum S against rho * ||a|| by comparing
den^2 * S^2 with num^2 * ||a||^2, and share no threshold rule with the
library.  ``literal_membership_form`` and ``literal_pair_form``
accumulate the dominance module's quadratic forms pair by pair over the
split of the entries by flip set.  ``rerun`` re-executes a report's
checker on its stored input, and ``random_vector`` draws the random
vectors of the tests.
"""

import random
from fractions import Fraction
from itertools import product
from typing import Iterator

from radlab.conjectures import CHECKERS, GRAY_CAP, CheckReport
from radlab.core import CoeffVec, RationalLike, SignAssignment, canonicalize, parse_vector
from radlab.counting import ONE_SIDED, Side, TailCounts
from radlab.errors import TooLarge


def random_vector(rng: random.Random, n: int, hi: int) -> CoeffVec | None:
    """The canonical vector of n entries rng.randint(0, hi), or None when
    every entry is 0, which no vector has; rng advances the same either
    way, as ``KeySchedule.draws`` skips an all-zero draw."""
    entries = [rng.randint(0, hi) for _ in range(n)]
    return canonicalize(entries) if any(entries) else None


def iter_sign_sums(entries: tuple[int, ...]) -> Iterator[int]:
    """Yield all 2^n sign sums in Gray-code order, one add/subtract per step."""
    n = len(entries)
    deltas = [2 * e for e in entries]
    sgn = [1] * n
    s = sum(entries)
    yield s
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1
        if sgn[j] > 0:
            s -= deltas[j]
            sgn[j] = -1
        else:
            s += deltas[j]
            sgn[j] = 1
        yield s


def tail_counts_gray(a: CoeffVec, rho: RationalLike, side: Side) -> TailCounts:
    """Reference oracle: count a.s (one-sided) or |a.s| (two-sided) against
    rho * ||a|| by sweeping all 2^n sign vectors.  A negative a.s is below
    one-sided; any other s is below, at or above as den^2 * s^2 is below,
    at or above num^2 * ||a||^2."""
    if a.n > GRAY_CAP:
        raise TooLarge(f"n={a.n} exceeds the Gray sweep cap {GRAY_CAP}")
    rho = Fraction(rho)
    d2, t2 = rho.denominator ** 2, rho.numerator ** 2 * a.norm_sq
    below = at = above = 0
    for s in iter_sign_sums(a.entries):
        if s < 0 and side == ONE_SIDED:
            below += 1
            continue
        lhs = d2 * s * s
        if lhs < t2:
            below += 1
        elif lhs == t2:
            at += 1
        else:
            above += 1
    return TailCounts(a.n, below, at, above)


def brute_counts(entries, rho, side):
    """Independent oracle: enumerate sign tuples, compare squared values."""
    ns = sum(x * x for x in entries)
    num, den = rho.numerator, rho.denominator
    t2 = num * num * ns
    d2 = den * den
    below = at = above = 0
    for signs in product((1, -1), repeat=len(entries)):
        s = sum(x * y for x, y in zip(entries, signs))
        if side == ONE_SIDED and s < 0:
            below += 1
            continue
        lhs = d2 * s * s
        if lhs < t2:
            below += 1
        elif lhs == t2:
            at += 1
        else:
            above += 1
    return below, at, above


def _pair_sum(values: list[int]) -> int:
    """Sum of products over unordered pairs, accumulated literally."""
    acc = 0
    run = 0
    for v in values:
        acc += v * run
        run += v
    return acc


def _split_by_mask(a: CoeffVec, mask: int) -> tuple[list[int], list[int]]:
    inside, outside = [], []
    for i, x in enumerate(a.entries):
        (inside if (mask >> i) & 1 else outside).append(x)
    return inside, outside


def literal_membership_form(a: CoeffVec, J: SignAssignment) -> int:
    """Pairs inside J + pairs inside its complement - cross pairs."""
    inside, outside = _split_by_mask(a, J.mask)
    return _pair_sum(inside) + _pair_sum(outside) - sum(inside) * sum(outside)


def literal_pair_form(a: CoeffVec, J: SignAssignment, K: SignAssignment) -> int:
    """Pairs inside J + pairs inside K + pairs inside the joint
    complement - cross pairs J x K, for disjoint J and K."""
    in_j, _ = _split_by_mask(a, J.mask)
    in_k, _ = _split_by_mask(a, K.mask)
    _, rest = _split_by_mask(a, J.mask | K.mask)
    return _pair_sum(in_j) + _pair_sum(in_k) + _pair_sum(rest) - sum(in_j) * sum(in_k)


def rerun(report: CheckReport) -> CheckReport:
    """Re-execute the named predicate on the stored input; a report is
    reproducible bit for bit when this equals it."""
    vec = parse_vector(str(report.vector))
    return CHECKERS[report.predicate](vec, **{k: Fraction(v) for k, v in report.params.items()})
