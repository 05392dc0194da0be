"""Exact counting of sign-sum outcomes against norm-scaled thresholds.

``tail_counts`` is the one counting engine: meet-in-the-middle
(Horowitz-Sahni) enumerates the two half spaces of 2^(n/2) sums and
combines sorted half sums with binary search.  ``tail_counts_gray``, a
direct Gray-code sweep over all 2^n sign vectors, is kept only as the
reference oracle that tests and the claim suite compare against.  Both
decide every comparison against ``rho * ||a||`` in integers.

The key trick: for integer sums S and rational rho >= 0, let
``k0 = floor(rho * ||a||)`` (computed from squares with isqrt) and let
``exact`` record whether the threshold is itself an integer.  Then

    S <  rho*||a||   iff  S <= k0 - 1 if exact else S <= k0
    S == rho*||a||   iff  exact and S == k0
    S >  rho*||a||   iff  S >= k0 + 1

which turns the whole count into machine-integer comparisons.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterator, Literal

from .core import CoeffVec, DyadicProb, RationalLike
from .errors import InvalidThreshold, TooLarge, UseMitm, ZeroNorm

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"
Side = Literal["one-sided", "two-sided"]

# The Gray-code reference sweep refuses dimensions above this n.
GRAY_CAP = 30
# Half sums of 2^24 entries each are the practical memory limit.
MITM_CAP = 48
# Full value/multiplicity tables are only kept up to here.
DISTRIBUTION_CAP = 24


@dataclass(frozen=True)
class TailCounts:
    """Exact three-way partition of the 2^n outcomes at one threshold.

    Every probability the checkers need (<, <=, =, >=, >) is a derived
    accessor, so boundary conventions live in exactly one place.
    """

    n: int
    below: int
    at: int
    above: int

    def __post_init__(self) -> None:
        if self.below < 0 or self.at < 0 or self.above < 0:
            raise ValueError("negative count")
        if self.below + self.at + self.above != (1 << self.n):
            raise ValueError(
                f"counts {self.below}+{self.at}+{self.above} != 2^{self.n}"
            )

    @property
    def p_lt(self) -> DyadicProb:
        return DyadicProb(self.below, self.n)

    @property
    def p_le(self) -> DyadicProb:
        return DyadicProb(self.below + self.at, self.n)

    @property
    def p_eq(self) -> DyadicProb:
        return DyadicProb(self.at, self.n)

    @property
    def p_ge(self) -> DyadicProb:
        return DyadicProb(self.at + self.above, self.n)

    @property
    def p_gt(self) -> DyadicProb:
        return DyadicProb(self.above, self.n)


@dataclass(frozen=True)
class SumDistribution:
    """Multiset of the 2^n sign-sum values, as (value, count) pairs.

    Values are strictly increasing and the multiset is symmetric about 0.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    _values: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _suffix: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = tuple(v for v, _ in self.pairs)
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("values must be strictly increasing")
        if sum(c for _, c in self.pairs) != (1 << self.n):
            raise ValueError("multiplicities must sum to 2^n")
        asdict = dict(self.pairs)
        for v, c in self.pairs:
            if c <= 0 or asdict.get(-v) != c:
                raise ValueError("distribution must be symmetric")
        suffix = [0] * (len(self.pairs) + 1)
        for i in range(len(self.pairs) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + self.pairs[i][1]
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_suffix", tuple(suffix))

    def values(self) -> tuple[int, ...]:
        return self._values

    def count_above(self, threshold: RationalLike) -> int:
        """Number of sign sums strictly greater than an exact rational."""
        return self._suffix[bisect_right(self._values, threshold)]

    def count_eq(self, value: int) -> int:
        i = bisect_left(self._values, value)
        if i < len(self._values) and self._values[i] == value:
            return self.pairs[i][1]
        return 0


def _threshold_boundary(norm_sq: int, rho: Fraction) -> tuple[int, bool]:
    """floor(rho * sqrt(norm_sq)) and whether the product is an exact integer."""
    num, den = rho.numerator, rho.denominator
    t2num = num * num * norm_sq
    t2den = den * den
    k0 = isqrt(t2num // t2den)
    return k0, k0 * k0 * t2den == t2num


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


def _validated_rho(rho: RationalLike) -> Fraction:
    rho = Fraction(rho)
    if rho < 0:
        raise InvalidThreshold(f"negative threshold multiplier {rho}")
    return rho


def tail_counts_gray(a: CoeffVec, rho: RationalLike, side: Side) -> TailCounts:
    """Reference oracle: count a.s (one-sided) or |a.s| (two-sided) against
    rho * ||a|| by sweeping all 2^n sign vectors."""
    rho = _validated_rho(rho)
    if a.norm_sq == 0:
        raise ZeroNorm("zero vector has no norm threshold")
    if a.n > GRAY_CAP:
        raise UseMitm(f"n={a.n} exceeds the Gray sweep cap {GRAY_CAP}")
    if side not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"unknown side {side!r}")
    k0, exact = _threshold_boundary(a.norm_sq, rho)
    lo = k0 - 1 if exact else k0
    below = at = above = 0
    two = side == TWO_SIDED
    for s in iter_sign_sums(a.entries):
        v = -s if (two and s < 0) else s
        if v <= lo:
            below += 1
        elif exact and v == k0:
            at += 1
        else:
            above += 1
    return TailCounts(a.n, below, at, above)


def distribution(a: CoeffVec) -> SumDistribution:
    """Exact multiset of sign-sum values with multiplicities."""
    if a.n > DISTRIBUTION_CAP:
        raise TooLarge(f"n={a.n} exceeds distribution cap {DISTRIBUTION_CAP}")
    counts = {0: 1}
    for e in a.entries:
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            nxt[v + e] = nxt.get(v + e, 0) + c
            nxt[v - e] = nxt.get(v - e, 0) + c
        counts = nxt
    return SumDistribution(a.n, tuple(sorted(counts.items())))


def _half_sums(entries: tuple[int, ...]) -> list[int]:
    sums = [0]
    for e in entries:
        sums = [s + e for s in sums] + [s - e for s in sums]
    return sums


def tail_counts(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count a.s (one-sided) or |a.s| (two-sided) against rho * ||a||.

    Splits the coordinates into two halves, enumerates the 2^(n/2) half
    sums, sorts one side and counts pair sums per class with bisection.
    Produces counts identical to tail_counts_gray, field for field.
    """
    rho = _validated_rho(rho)
    if a.norm_sq == 0:
        raise ZeroNorm("zero vector has no norm threshold")
    if a.n > MITM_CAP:
        raise TooLarge(f"n={a.n} exceeds meet-in-the-middle cap {MITM_CAP}")
    if side not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"unknown side {side!r}")
    split = (a.n + 1) // 2
    left = _half_sums(a.entries[:split])
    right = sorted(_half_sums(a.entries[split:]))
    size_r = len(right)
    k0, exact = _threshold_boundary(a.norm_sq, rho)
    lo = k0 - 1 if exact else k0
    below = at = 0
    if side == ONE_SIDED:
        for x in left:
            below += bisect_right(right, lo - x)
            if exact:
                at += bisect_right(right, k0 - x) - bisect_left(right, k0 - x)
    else:
        for x in left:
            if lo >= 0:
                hi_i = bisect_right(right, lo - x)
                lo_i = bisect_left(right, -lo - x)
                if hi_i > lo_i:
                    below += hi_i - lo_i
            if exact:
                at += bisect_right(right, k0 - x) - bisect_left(right, k0 - x)
                if k0 > 0:
                    at += bisect_right(right, -k0 - x) - bisect_left(right, -k0 - x)
    total = len(left) * size_r
    return TailCounts(a.n, below, at, total - below - at)


# Former engine names, kept for callers; all three are one function object.
tail_counts_mitm = tail_counts
tail_counts_threshold = tail_counts
