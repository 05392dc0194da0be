"""Exact counting of sign-sum outcomes against norm-scaled thresholds.

Two engines produce identical counts:

- ``tail_counts_gf`` packs the subset-sum generating function
  prod (1 + x^(a_i)) into one integer (Kronecker substitution), with
  n+1 bits per coefficient: n shift-adds build it, and each class count
  is one shift plus one reduction modulo 2^(n+1) - 1.
- ``tail_counts_mitm``, meet-in-the-middle (Horowitz-Sahni), enumerates
  the two half spaces of 2^(n/2) sums and combines sorted half sums
  with binary search.

``tail_counts`` picks one by a fixed cost rule, ``tail_count_engine``:
the packed polynomial when the n*T*(n+1) bits its shift-adds touch
(T = sum of entries) stay within GF_WORK_PER_HALF_SUM per half sum of
meet-in-the-middle and the integer fits GF_BIT_BUDGET; otherwise
meet-in-the-middle up to MITM_CAP; otherwise TooLarge, raised before
anything is allocated.  ``tail_counts_gray``, a direct Gray-code sweep
over all 2^n sign vectors, is kept only as the reference oracle that
tests and the claim suite compare against.  All three decide every
comparison against ``rho * ||a||`` in integers.

``distribution`` reads the 2^n sign sums from the smaller table: the same
product with T+1 64-bit slots (T < 2^n, within GF_BIT_BUDGET), else the
2^n sums listed (n <= MITM_CAP // 2), else TooLarge before allocating.

The key trick: for integer sums S and rational rho >= 0, let
``k0 = floor(rho * ||a||)`` (computed from squares with isqrt) and let
``exact`` record whether the threshold is itself an integer.  Then

    S <  rho*||a||   iff  S <= k0 - 1 if exact else S <= k0
    S == rho*||a||   iff  exact and S == k0
    S >  rho*||a||   iff  S >= k0 + 1

which turns the whole count into machine-integer comparisons.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from math import isqrt
from operator import lt, neg
from typing import Callable, Iterator, Literal

from .core import CoeffVec, DyadicProb, RationalLike
from .errors import InvalidThreshold, TooLarge, UseMitm, ZeroNorm

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"
Side = Literal["one-sided", "two-sided"]

# The Gray-code reference sweep refuses dimensions above this n.
GRAY_CAP = 30
# Half sums of 2^24 entries each are the practical memory limit.
MITM_CAP = 48
# The packed generating function is used while n*T*(n+1), the bits its n
# shift-adds touch, stays within this many per meet-in-the-middle half sum
# (2^ceil(n/2) of them) and the packed integer within the bit budget.
GF_WORK_PER_HALF_SUM = 10_000
GF_BIT_BUDGET = 1 << 26


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
        vals, counts = tuple(zip(*self.pairs)) or ((), ())
        if not all(map(lt, vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        if sum(counts) != (1 << self.n):
            raise ValueError("multiplicities must sum to 2^n")
        if min(counts) <= 0 or counts != counts[::-1] or vals[::-1] != tuple(map(neg, vals)):
            raise ValueError("distribution must be symmetric")
        suffix = tuple(accumulate(reversed(counts), initial=0))[::-1]
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_suffix", suffix)

    def count_above(self, threshold: RationalLike) -> int:
        """Number of sign sums strictly greater than an exact rational."""
        return self._suffix[bisect_right(self._values, threshold)]


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


def _classify(n: int, le: Callable[[int], int], eq: Callable[[int], int],
              k0: int, exact: bool, side: Side) -> TailCounts:
    """The three classes from two counts over the sign sums S:
    le(v) = #(S <= v) for v >= -1 and eq(v) = #(S == v) for v >= 0.

    S and -S are equally frequent, so the two-sided classes follow from
    the one-sided ones: #(|S| <= v) = 2*le(v) - 2^n for v >= 0, and
    #(|S| == v) = 2*eq(v) for v > 0.
    """
    everything = 1 << n
    lo = k0 - 1 if exact else k0
    at = eq(k0) if exact else 0
    if side == ONE_SIDED:
        below = le(lo)
    else:
        below = 2 * le(lo) - everything if lo >= 0 else 0
        if k0:
            at *= 2
    return TailCounts(n, below, at, everything - below - at)


def _validated(a: CoeffVec, rho: RationalLike, side: Side) -> Fraction:
    rho = Fraction(rho)
    if rho < 0:
        raise InvalidThreshold(f"negative threshold multiplier {rho}")
    if a.norm_sq == 0:
        raise ZeroNorm("zero vector has no norm threshold")
    if side not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"unknown side {side!r}")
    return rho


def tail_counts_gray(a: CoeffVec, rho: RationalLike, side: Side) -> TailCounts:
    """Reference oracle: count a.s (one-sided) or |a.s| (two-sided) against
    rho * ||a|| by sweeping all 2^n sign vectors."""
    rho = _validated(a, rho, side)
    if a.n > GRAY_CAP:
        raise UseMitm(f"n={a.n} exceeds the Gray sweep cap {GRAY_CAP}")
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
    """Exact multiset of sign-sum values with multiplicities.  Packed slot m
    (64 bits > n) counts the sign sums T - 2m and equals slot T - m, so read
    in native byte order the slots are the counts of -T, -T+2, ..., T."""
    n, total = a.n, a.total
    if total < 1 << n and 64 * (total + 1) <= GF_BIT_BUDGET:
        poly = _packed_product(a.entries, 64)
        counts = memoryview(poly.to_bytes(8 * (total + 1), sys.byteorder)).cast("Q").tolist()
        pairs = tuple(zip(compress(range(-total, total + 1, 2), counts), filter(None, counts)))
    elif n <= MITM_CAP // 2:
        # a Counter keeps first-seen order: counting sorted sums encodes runs
        pairs = tuple(Counter(sorted(_half_sums(a.entries))).items())
    else:
        raise TooLarge(f"n={n} with entry sum {total} exceeds the packed budget "
                       f"({GF_BIT_BUDGET} bits) and the listed-sums cap n <= {MITM_CAP // 2}")
    return SumDistribution(n, pairs)


def _half_sums(entries: tuple[int, ...]) -> list[int]:
    sums = [0]
    for e in entries:
        sums = [s + e for s in sums] + [s - e for s in sums]
    return sums


def _packed_product(entries: tuple[int, ...], width: int) -> int:
    """prod (1 + x^e) over the entries, packed with width bits per slot
    (Kronecker substitution): slot m counts the subsets with sum m."""
    poly = 1
    for e in reversed(entries):  # ascending entries keep early products short
        poly += poly << (e * width)
    return poly


def _gf_width(n: int) -> int:
    """Bits per slot of the packed generating function of an n-vector:
    n+1, so that no slot, a count of at most 2^n subsets, carries."""
    return n + 1


def _gf_bits(n: int, total: int) -> int:
    """Size of the packed generating function: T+1 slots of n+1 bits."""
    return (total + 1) * _gf_width(n)


def _norm_classes(poly: int, n: int, total: int, norm_sq: int) -> tuple[int, int, int]:
    """(below, at, above) of |a.s| against ||a||, read off the packed
    product poly of a nonnegative n-vector a with entry sum total and
    squared norm norm_sq > 0: the classes tail_counts_gf(a) counts, with
    no vector built.  0 < ||a|| <= total keeps every slot read within the
    product."""
    width = _gf_width(n)
    mask = (1 << width) - 1
    k0 = isqrt(norm_sq)
    everything = 1 << n
    if k0 * k0 == norm_sq:
        # x^2 = x mod 2, so k0 has the parity of every sign sum S = T - 2m
        # and S == k0 in slot (T - k0) / 2; S <= k0 - 1 in the slots above
        m = (total - k0) // 2
        at = 2 * ((poly >> (m * width)) & mask)
        le = (poly >> ((m + 1) * width)) % mask
    else:  # S <= k0 in the slots m >= (T - k0) / 2
        at = 0
        le = (poly >> ((total - k0 + 1) // 2 * width)) % mask
    below = 2 * le - everything
    return below, at, everything - below - at


def tail_count_engine(a: CoeffVec) -> str:
    """The engine tail_counts uses for a: "gf" or "mitm".

    The packed generating function costs about n shift-adds of n*T*(n+1)
    bits in total; meet-in-the-middle costs about 2^(n/2) bisections.
    Raises TooLarge, before anything is allocated, when neither fits.
    """
    n, total = a.n, a.total
    if (
        _gf_bits(n, total) <= GF_BIT_BUDGET
        and n * total * (n + 1) <= GF_WORK_PER_HALF_SUM << ((n + 1) // 2)
    ):
        return "gf"
    if n <= MITM_CAP:
        return "mitm"
    raise TooLarge(
        f"n={n} with entry sum {total} exceeds both the packed generating "
        f"function budget ({GF_BIT_BUDGET} bits) and the meet-in-the-middle cap {MITM_CAP}"
    )


def tail_counts(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count a.s (one-sided) or |a.s| (two-sided) against rho * ||a||.

    Dispatches on tail_count_engine; the engine checks the inputs, and
    both produce counts identical to tail_counts_gray, field for field.
    """
    engine = tail_counts_gf if tail_count_engine(a) == "gf" else tail_counts_mitm
    return engine(a, rho, side)


# Former name of the dispatcher, kept for callers.
tail_counts_threshold = tail_counts


def tail_counts_gf(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count from the subset-sum generating function prod (1 + x^(a_i)),
    packed into one integer with B = n+1 bits per slot.

    Slot m holds the number of flipped subsets with sum m; such a subset
    has sign sum S = T - 2m, where T = sum(a).  No slot exceeds 2^n <
    2^B - 1, so the slots above one right shift are summed exactly by a
    single reduction modulo 2^B - 1, and one slot is one mask.
    """
    rho = _validated(a, rho, side)
    n, total = a.n, a.total
    if _gf_bits(n, total) > GF_BIT_BUDGET:
        raise TooLarge(f"packed generating function of {_gf_bits(n, total)} bits "
                       f"exceeds the budget of {GF_BIT_BUDGET}")
    width = _gf_width(n)
    mask = (1 << width) - 1
    poly = _packed_product(a.entries, width)

    # _classify passes v >= -1 and T >= 1, so no slot index m exceeds T
    def count_le(v: int) -> int:
        """Sign vectors with S <= v: the subsets with m >= (T - v) / 2."""
        m = (total - v + 1) // 2
        if m <= 0:
            return 1 << n
        return (poly >> (m * width)) % mask

    def count_eq(v: int) -> int:
        if v > total or (total - v) % 2:
            return 0
        return (poly >> ((total - v) // 2 * width)) & mask

    k0, exact = _threshold_boundary(a.norm_sq, rho)
    return _classify(n, count_le, count_eq, k0, exact, side)


def tail_counts_mitm(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Meet-in-the-middle (Horowitz-Sahni): split the coordinates into two
    halves, enumerate the 2^(n/2) half sums, sort one side and count pair
    sums with bisection."""
    rho = _validated(a, rho, side)
    if a.n > MITM_CAP:
        raise TooLarge(f"n={a.n} exceeds meet-in-the-middle cap {MITM_CAP}")
    split = (a.n + 1) // 2
    left = _half_sums(a.entries[:split])
    right = sorted(_half_sums(a.entries[split:]))

    def count_le(v: int) -> int:
        return sum(bisect_right(right, v - x) for x in left)

    def count_eq(v: int) -> int:
        return sum(bisect_right(right, v - x) - bisect_left(right, v - x) for x in left)

    k0, exact = _threshold_boundary(a.norm_sq, rho)
    return _classify(a.n, count_le, count_eq, k0, exact, side)
