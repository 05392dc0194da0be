"""Exact counting of sign-sum outcomes against norm-scaled thresholds.

Two engines produce identical counts:

- ``tail_counts_gf`` packs the subset-sum generating function
  prod (1 + x^(a_i)) into one integer (Kronecker substitution), with
  n+1 bits per coefficient: n shift-adds build it, and ``_packed_counts``
  reads each count as one shift plus one reduction modulo 2^(n+1) - 1,
  the read the exhaustive sweep makes inline, once per vector.
- ``tail_counts_mitm``, meet-in-the-middle (Horowitz-Sahni), builds the
  2^(n/2) sums of each half in ascending order, one add per sum and one
  merge of two sorted runs per entry, and counts the pair sums at or
  below a value by two bisections, which find the left sums that pair
  with every right sum and those that pair with none, and one walk over
  the left sums between them with a pointer that only moves down.

Each engine counts #(S <= k0 - 1 if exact else k0) and #(S == k0) over
the sign sums S, and ``_classify`` makes the classes of either side.

``tail_counts`` picks one by a fixed cost rule, ``tail_count_engine``:
the packed polynomial when the n*T*(n+1) bits its shift-adds touch
(T = sum of entries) stay within GF_WORK_PER_HALF_SUM per half sum of
meet-in-the-middle and it fits; otherwise meet-in-the-middle if its half
sums fit; otherwise TooLarge.  Both decide every comparison against
``rho * ||a||`` in integers.  The claim suite checks them against a
sign-sum convolution that shares no code with either (``verify``), and
the tests against a Gray-code sweep and a literal enumeration of all
2^n sign vectors.

``distribution`` reads the 2^n sign sums from the smaller table that
fits: the same product with T+1 slots (when T < 2^n), each the
narrowest of 8, 16, 32 or 64 bits wider than n, else the 2^n sums
listed, else TooLarge.  The slots are checked before the table is
built: they must sum to 2^n (no slot carried) and read the same
backwards (the table is symmetric), or distribution raises.  A
one-slot memo keyed by the entries hands the same immutable table to
consecutive calls on one vector, so ``delta_sweep`` and
``check_pairing`` after ``distribution`` build it once.  Any other call
empties the slot before it builds, so the slot never holds two tables
at once; it retains the last vector's table (up to hundreds of MB)
until a call on another vector.

One size rule admits every table from n and T, before anything is
allocated: T+1 packed slots must fit GF_BIT_BUDGET bits (``_packed_fits``),
and listed sums, Python ints no wider than T, LISTED_BUDGET bytes at a
fixed cost per sum plus 8 B per 30-bit digit of T (``_listed_fits``).
tracemalloc peaks (CPython 3.11, 64-bit, n = 14 to 20, entries of 20 to
8,000 bits) are 43-46 B per half sum of meet-in-the-middle at one digit
and 175 B per sum listed by ``distribution``, each +4 B per digit.
Entries below 2^21 thus admit meet-in-the-middle to n = 46, listed sums
to n = 22.

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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, repeat
from math import isqrt
from operator import add, lt
from typing import Literal

from .core import CoeffVec, DyadicProb, RationalLike
from .errors import InvalidThreshold, TooLarge, ZeroNorm

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"
Side = Literal["one-sided", "two-sided"]

# The packed generating function is used while n*T*(n+1), the bits its n
# shift-adds touch, stays within this many per meet-in-the-middle half sum
# (2^ceil(n/2) of them) and the packed integer within the bit budget.
GF_WORK_PER_HALF_SUM = 10_000
GF_BIT_BUDGET = 1 << 26
# The packed slot widths of distribution, narrowest first, with the
# memoryview format that reads a slot of that width.
_SLOT_FORMATS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
# The listed-sums byte budget and its cost model (see the module docstring).
LISTED_BUDGET = 1 << 30
_HALF_SUM_BYTES, _SUM_BYTES, _DIGIT_BYTES = 48, 170, 8


def _packed_fits(width: int, total: int) -> bool:
    """Whether T+1 packed slots of width bits fit GF_BIT_BUDGET."""
    return (total + 1) * width <= GF_BIT_BUDGET


def _listed_fits(sums: int, base: int, total: int) -> bool:
    """Whether sums ints no wider than T, at base bytes each plus
    _DIGIT_BYTES per 30-bit digit of T, fit LISTED_BUDGET."""
    return sums * (base + _DIGIT_BYTES * -(-total.bit_length() // 30)) <= LISTED_BUDGET


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

    def __post_init__(self) -> None:
        vals, counts = tuple(zip(*self.pairs)) or ((), ())
        if not all(map(lt, vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        if sum(counts) != (1 << self.n):
            raise ValueError("multiplicities must sum to 2^n")
        if min(counts) <= 0 or counts != counts[::-1] or any(map(add, vals, reversed(vals))):
            raise ValueError("distribution must be symmetric")

    @classmethod
    def _from_slots(cls, n: int, slots: list[int]) -> "SumDistribution":
        """The table of packed slots m = 0..T, slot m counting the sign sums
        T - 2m, built without ``__post_init__``.  The slots themselves are
        checked: they sum to 2^n, so none carried, and read the same
        backwards, so the table is symmetric.  Its values come from a range
        and its counts are the nonzero slots, so they increase and are
        positive by construction."""
        if sum(slots) != 1 << n or slots != slots[::-1]:
            raise RuntimeError(f"packed slots of an {n}-vector do not sum to 2^{n} symmetrically")
        total = len(slots) - 1
        dist = object.__new__(cls)
        object.__setattr__(dist, "n", n)
        object.__setattr__(dist, "pairs", tuple(zip(compress(range(-total, total + 1, 2), slots),
                                                    filter(None, slots))))
        return dist


def _threshold_boundary(norm_sq: int, rho: RationalLike) -> tuple[int, bool]:
    """floor(rho * sqrt(norm_sq)) and whether the product is an exact integer."""
    num, den = rho.numerator, rho.denominator
    t2num = num * num * norm_sq
    t2den = den * den
    k0 = isqrt(t2num // t2den)
    return k0, k0 * k0 * t2den == t2num


def _classify(n: int, below: int, at: int, k0: int, exact: bool, side: Side) -> TailCounts:
    """The three classes from below = #(S <= k0 - 1 if exact else k0) and
    at = #(S == k0) if exact else 0 over the sign sums S.

    S and -S are equally frequent, so the two-sided classes follow from
    the one-sided ones: #(|S| <= v) = 2*#(S <= v) - 2^n for v >= 0, and
    #(|S| == v) = 2*#(S == v) for v > 0.  At v = -1 (k0 = 0, exact) the
    same formula gives -#(S == 0) <= 0, and no |S| is negative.
    """
    everything = 1 << n
    if side == TWO_SIDED:
        below = max(2 * below - everything, 0)
        if k0:
            at *= 2
    return TailCounts(n, below, at, everything - below - at)


def _validated(a: CoeffVec, rho: RationalLike, side: Side) -> RationalLike:
    rho = rho if isinstance(rho, int) else Fraction(rho)  # an int has numerator and denominator
    if rho < 0:
        raise InvalidThreshold(f"negative threshold multiplier {rho}")
    if a.norm_sq == 0:
        raise ZeroNorm("zero vector has no norm threshold")
    if side not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"unknown side {side!r}")
    return rho


# (entries, table) of the last distribution call, or None
_last_table: tuple[tuple[int, ...], SumDistribution] | None = None


def distribution(a: CoeffVec) -> SumDistribution:
    """Exact multiset of sign-sum values with multiplicities.  Packed slot m
    (8, 16, 32 or 64 bits, the narrowest wider than n, as no slot exceeds
    2^n) counts the sign sums T - 2m and equals slot T - m, so read in
    native byte order the slots are the counts of -T, -T+2, ..., T.

    A call on the entries of the previous call returns the same table
    object.  Any other call first empties the one-slot memo, so no earlier
    table stays alive through it, and then builds and stores its own; a
    build that raises leaves the slot empty.
    """
    global _last_table
    last = _last_table
    if last is not None and last[0] == a.entries:
        return last[1]
    _last_table = None
    n, total = a.n, a.total
    width, fmt = next(slot for slot in _SLOT_FORMATS if n < slot[0])
    if total < 1 << n and _packed_fits(width, total):
        poly = _packed_product(a.entries, width)
        dist = SumDistribution._from_slots(
            n, memoryview(poly.to_bytes(width // 8 * (total + 1), sys.byteorder)).cast(fmt).tolist())
    elif _listed_fits(1 << n, _SUM_BYTES, total):
        # a Counter keeps first-seen order: counting sorted sums encodes runs
        dist = SumDistribution(n, tuple(Counter(_half_sums(a.entries)).items()))
    else:
        raise TooLarge(f"n={n} with a {total.bit_length()}-bit entry sum: neither sum table fits")
    _last_table = (a.entries, dist)
    return dist


def _half_sums(entries: tuple[int, ...]) -> list[int]:
    """The 2^k sign sums of k entries, ascending.  Starting from minus the
    entries' sum, each entry appends a copy of the sums shifted up by twice
    the entry, one add per sum; both runs are ascending, so each sort is
    Timsort's linear merge of two runs."""
    sums = [-sum(entries)]
    for e in entries:
        sums += list(map(add, sums, repeat(2 * e)))
        sums.sort()
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


def _packed_counts(poly: int, width: int, total: int, k0: int, exact: bool) -> tuple[int, int]:
    """The counts _classify takes, read off the packed product poly of a
    nonnegative vector with entry sum total and width > n bits per slot.

    Slot m counts the subsets with sum m, whose sign sum is S = T - 2m, so
    S <= v in the slots m >= (T - v) / 2.  No slot exceeds 2^n < 2^width - 1,
    so the slots above one right shift are summed exactly by a single
    reduction modulo 2^width - 1, and one slot is one mask.
    """
    mask = (1 << width) - 1
    # the first slot with S <= k0 - 1 if exact else k0
    m = (total - k0 + 2) // 2 if exact else (total - k0 + 1) // 2
    below = (poly >> m * width) % mask if m > 0 else poly % mask
    if exact and 2 * m - 2 == total - k0 >= 0:  # slot m - 1 holds S == k0
        return below, (poly >> (m - 1) * width) & mask
    return below, 0


def tail_count_engine(a: CoeffVec) -> str:
    """The engine tail_counts uses for a: "gf" or "mitm".

    The packed generating function costs about n shift-adds of n*T*(n+1)
    bits in total; meet-in-the-middle costs about 2^(n/2) adds to build
    its half sums and at most as many pointer steps to count them.
    Raises TooLarge, before anything is allocated, when neither fits.
    """
    n, total = a.n, a.total
    if _packed_fits(_gf_width(n), total) and n * total * (n + 1) <= GF_WORK_PER_HALF_SUM << (n + 1) // 2:
        return "gf"
    if _listed_fits((1 << (n + 1) // 2) + (1 << n // 2), _HALF_SUM_BYTES, total):
        return "mitm"
    raise TooLarge(f"n={n} with a {total.bit_length()}-bit entry sum: neither engine's table fits")


def tail_counts(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count a.s (one-sided) or |a.s| (two-sided) against rho * ||a||.

    Dispatches on tail_count_engine; the engine checks the inputs, and
    both produce identical counts, field for field.
    """
    engine = tail_counts_gf if tail_count_engine(a) == "gf" else tail_counts_mitm
    return engine(a, rho, side)


# Former name of the dispatcher, kept for callers.
tail_counts_threshold = tail_counts


def tail_counts_gf(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count from the subset-sum generating function prod (1 + x^(a_i)),
    packed into one integer with n+1 bits per slot and read by
    ``_packed_counts``."""
    rho = _validated(a, rho, side)
    n, total = a.n, a.total
    width = _gf_width(n)
    if not _packed_fits(width, total):
        raise TooLarge(f"n={n} with a {total.bit_length()}-bit entry sum: the packed product does not fit")
    k0, exact = _threshold_boundary(a.norm_sq, rho)
    below, at = _packed_counts(_packed_product(a.entries, width), width, total, k0, exact)
    return _classify(n, below, at, k0, exact, side)


def tail_counts_mitm(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Meet-in-the-middle (Horowitz-Sahni): split the coordinates into two
    halves and build the 2^(n/2) sums of each in ascending order, one add
    per sum.  #(S <= v) bisects the left list twice: left sums x with
    x + right[-1] <= v pair with every right sum, those with
    x + right[0] > v with none.  As x ascends through the left sums in
    between, v - x descends, so the number of right sums <= v - x is read
    by one pointer into the right list that only moves down and never
    reaches either end.  #(S <= v) costs one bounded walk, and an exact
    threshold, #(S == k0) = #(S <= k0) - #(S <= k0 - 1), two."""
    rho = _validated(a, rho, side)
    split = (a.n + 1) // 2
    if not _listed_fits((1 << split) + (1 << a.n - split), _HALF_SUM_BYTES, a.total):
        raise TooLarge(f"n={a.n} with a {a.total.bit_length()}-bit entry sum: the half sums do not fit")
    left = _half_sums(a.entries[:split])
    right = _half_sums(a.entries[split:])

    def count_le(v: int) -> int:
        # right[0] <= v - x < right[-1] for the left sums x walked, so the
        # pointer j stays within 1..len(right) - 1 without a bounds test
        lo = bisect_right(left, v - right[-1])
        hi = bisect_right(left, v - right[0])
        total = lo * len(right)
        if lo < hi:
            j = bisect_right(right, v - left[lo])
            for x in islice(left, lo, hi):
                t = v - x
                while right[j - 1] > t:
                    j -= 1
                total += j
        return total

    k0, exact = _threshold_boundary(a.norm_sq, rho)
    below = count_le(k0 - 1 if exact else k0)
    return _classify(a.n, below, count_le(k0) - below if exact else 0, k0, exact, side)
