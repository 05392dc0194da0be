"""Exact counting of sign-sum outcomes against norm-scaled thresholds.

Two engines produce identical counts:

- ``tail_counts_gf`` packs the subset-sum generating function
  prod (1 + x^(a_i)) into one integer (Kronecker substitution), with
  n+1 bits per coefficient: n shift-adds build it, and ``_packed_le``
  reads each count as one shift plus one reduction modulo 2^(n+1) - 1,
  the read the exhaustive sweep makes inline, once per vector.
- ``tail_counts_mitm``, meet-in-the-middle (Horowitz-Sahni), builds the
  2^(n/2) sums of each half in ascending order, one add per sum and one
  merge of two sorted runs per entry, and counts the pair sums at or
  below a value by two bisections, which find the left sums that pair
  with every right sum and those that pair with none, and one walk over
  the left sums between them with a pointer that only moves down.

Each engine answers one question, #(S <= v) over the sign sums S, at
the two limits of the key trick below.

Every tail count is made by one count kernel, ``_tail_le``, behind
three front doors.  The front doors, ``tail_counts``, ``tail_counts_gf``
and ``tail_counts_mitm``, check the inputs, an exact, nonnegative rho
and a known side (``_validated``), and make one kernel call.  The kernel
checks nothing of its inputs: it takes canonical entries with their n,
T (the entry sum) and ||a||^2, a side and any number of thresholds.
``_engine`` admits its one table, the packed product or the two
half-sum lists: the engine named, if its table fits, else the one
``tail_count_engine``'s rule picks, and TooLarge before anything is
allocated when that table does not fit.  The kernel reads #(S <= v) at
the two limits of each threshold and returns one ``TailCounts`` per
threshold, classified by ``_classify``.  So the delta checks read both
of their thresholds off one table, and the sampled hunts and the
random search count a drawn entry tuple without building a
``CoeffVec``.

``tail_counts`` picks the engine by a fixed cost rule,
``tail_count_engine``: the packed polynomial when the n*T*(n+1) bits its
shift-adds touch stay within GF_WORK_PER_HALF_SUM per half sum of
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
one-slot memo keyed by the entries holds a weak reference to the last
table, so a call on the same entries returns the same immutable table
while a caller holds it: ``check_pairing`` and ``delta_sweep`` on a
vector whose ``distribution`` is kept build nothing, and no table
outlives its last holder.

One size rule admits every table from n and T, before anything is
allocated: T+1 packed slots must fit GF_BIT_BUDGET bits (``_packed_fits``),
and listed sums, Python ints no wider than T, LISTED_BUDGET bytes at a
fixed cost per sum plus 8 B per 30-bit digit of T (``_listed_fits``).
tracemalloc peaks (CPython 3.11, 64-bit, n = 14 to 20, entries of 20 to
8,000 bits) are 43-46 B per half sum of meet-in-the-middle at one digit
and 175 B per sum listed by ``distribution``, each +4 B per digit.
Entries below 2^21 thus admit meet-in-the-middle to n = 46, listed sums
to n = 22.

The key trick: for integer sums S and rational rho >= 0, let lt and le
be the largest integers below rho*||a|| and not above it (``_limits``,
one isqrt on squares; lt = le - 1 exactly when rho*||a|| is an integer,
else lt = le).  Then

    #(S <  rho*||a||) = #(S <= lt)
    #(S == rho*||a||) = #(S <= le) - #(S <= lt)
    #(S >  rho*||a||) = 2^n - #(S <= le)

which turns the whole count into machine-integer comparisons, and an
engine reads its count at le only when le != lt.
"""

from __future__ import annotations

import sys
import weakref
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, islice, repeat
from math import isqrt
from operator import add, lt
from typing import Callable, Iterable, Literal

from .core import CoeffVec, DyadicProb, RationalLike
from .errors import InvalidThreshold, TooLarge

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


def _limits(norm_sq: int, rho: RationalLike) -> tuple[int, int]:
    """lt, le: the largest integers below rho * sqrt(norm_sq) and not above
    it.  le = floor(sqrt(num^2 * norm_sq / den^2)) by one isqrt, and
    lt = le - 1 exactly when le^2 * den^2 == num^2 * norm_sq."""
    num, den = rho.numerator, rho.denominator
    t2num = num * num * norm_sq
    t2den = den * den
    le = isqrt(t2num // t2den)
    return (le - 1 if le * le * t2den == t2num else le), le


def _classify(n: int, below: int, upto: int, side: Side) -> TailCounts:
    """The three classes from below = #(S <= lt) and upto = #(S <= le)
    over the sign sums S.

    S and -S are equally frequent, so the two-sided counts follow from
    the one-sided ones: #(|S| <= v) = 2*#(S <= v) - 2^n for v >= 0, as le
    always is.  At v = -1 (lt at rho = 0) the same formula gives
    -#(S == 0) <= 0, and no |S| is negative, so below is clamped at 0.

    The classes below, upto - below and 2^n - upto sum to 2^n, and they
    are nonnegative exactly when 0 <= below <= upto <= 2^n, which is
    checked here, so the result skips ``TailCounts``' own checks.  The
    fields are set one by one, in declaration order, so the instance
    shares its class's attribute keys as a constructed one does.
    """
    everything = 1 << n
    if side == TWO_SIDED:
        below = 2 * below - everything
        if below < 0:
            below = 0
        upto = 2 * upto - everything
    if not 0 <= below <= upto <= everything:
        raise ValueError(f"negative count: below {below}, upto {upto} of 2^{n}")
    counts = object.__new__(TailCounts)
    object.__setattr__(counts, "n", n)
    object.__setattr__(counts, "below", below)
    object.__setattr__(counts, "at", upto - below)
    object.__setattr__(counts, "above", everything - upto)
    return counts


def _refuse_inexact(value: object, what: str) -> None:
    """Refuse a float or a bool as a threshold: the float 1/3 is not 1/3,
    and True is not a number."""
    if isinstance(value, (bool, float)):
        raise InvalidThreshold(f"{what} {value!r} is not exact; use int or Fraction")


def _validated(rho: RationalLike, side: Side) -> RationalLike:
    if type(rho) is not int:  # an int has numerator and denominator
        _refuse_inexact(rho, "threshold multiplier")
        rho = Fraction(rho)
    if rho < 0:
        raise InvalidThreshold(f"negative threshold multiplier {rho}")
    if side not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"unknown side {side!r}")
    return rho


# (entries, weak reference to their table) of the last distribution call, or None
_last_table: tuple[tuple[int, ...], weakref.ref] | None = None


def distribution(a: CoeffVec) -> SumDistribution:
    """Exact multiset of sign-sum values with multiplicities.  Packed slot m
    (8, 16, 32 or 64 bits, the narrowest wider than n, as no slot exceeds
    2^n) counts the sign sums T - 2m and equals slot T - m, so read in
    native byte order the slots are the counts of -T, -T+2, ..., T.

    A call on the entries of the previous call returns the same table
    object while anyone holds it; the one-slot memo holds only a weak
    reference to it.
    """
    global _last_table
    last = _last_table
    if last is not None and last[0] == a.entries and (dist := last[1]()) is not None:
        return dist
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
    _last_table = (a.entries, weakref.ref(dist))
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


def _packed_le(poly: int, width: int, total: int, v: int) -> int:
    """#(S <= v) over the sign sums S, read off the packed product poly of
    a nonnegative vector with entry sum total and width > n bits per slot.

    Slot m counts the subsets with sum m, whose sign sum is S = T - 2m, so
    S <= v in the slots m >= (T - v + 1) // 2.  No slot exceeds
    2^n < 2^width - 1, so the slots above one right shift are summed
    exactly by a single reduction modulo 2^width - 1.
    """
    m = (total - v + 1) // 2
    return (poly >> m * width if m > 0 else poly) % ((1 << width) - 1)


def tail_count_engine(a: CoeffVec) -> str:
    """The engine tail_counts uses for a: "gf" or "mitm".

    The packed generating function costs about n shift-adds of n*T*(n+1)
    bits in total; meet-in-the-middle costs about 2^(n/2) adds to build
    its half sums and at most as many pointer steps to count them.
    Raises TooLarge, before anything is allocated, when neither fits.
    """
    return _engine(a.n, a.total)


def _engine(n: int, total: int, engine: str | None = None) -> str:
    """The engine whose table the count kernel builds: the one named, "gf"
    or "mitm", if its table fits, else by tail_count_engine's rule on n and
    the entry sum T.  Raises TooLarge, before anything is allocated, when
    that table, or for the rule neither, fits."""
    if engine != "mitm" and _packed_fits(_gf_width(n), total) and (
            engine or n * total * (n + 1) <= GF_WORK_PER_HALF_SUM << (n + 1) // 2):
        return "gf"
    if engine != "gf" and _listed_fits((1 << (n + 1) // 2) + (1 << n // 2), _HALF_SUM_BYTES, total):
        return "mitm"
    refusal = ("neither engine's table fits" if engine is None else
               "the packed product does not fit" if engine == "gf" else "the half sums do not fit")
    raise TooLarge(f"n={n} with a {total.bit_length()}-bit entry sum: {refusal}")


def _mitm_reader(entries: tuple[int, ...], n: int) -> Callable[[int], int]:
    """#(S <= v) as a function of v, counted over the half sums of the
    entries, built once (see ``tail_counts_mitm``)."""
    split = (n + 1) // 2
    left = _half_sums(entries[:split])
    right = _half_sums(entries[split:])

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

    return count_le


def _tail_le(entries: tuple[int, ...], n: int, total: int, norm_sq: int,
             rhos: Iterable[RationalLike], side: Side, engine: str | None = None) -> list[TailCounts]:
    """The count kernel: the counts on the side given, one per rho, of the
    2^n sign sums of canonical entries (n of them, entry sum T, squared
    norm norm_sq) at rho * ||a||, each rho already checked.  ``_engine``
    admits one table, of the engine named or by tail_count_engine's rule,
    and raises TooLarge before anything is allocated when it does not fit;
    the table is built once and read at the two limits of every rho, at le
    only when it differs from lt."""
    if _engine(n, total, engine) == "gf":
        width = _gf_width(n)
        count_le = partial(_packed_le, _packed_product(entries, width), width, total)
    else:
        count_le = _mitm_reader(entries, n)
    out = []
    for rho in rhos:
        lt, le = _limits(norm_sq, rho)
        below = count_le(lt)
        out.append(_classify(n, below, below if le == lt else count_le(le), side))
    return out


def tail_counts(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count a.s (one-sided) or |a.s| (two-sided) against rho * ||a||:
    the inputs checked, then one kernel call, ``_tail_le``, on the engine
    tail_count_engine picks; both engines produce identical counts, field
    for field."""
    return _tail_le(a.entries, a.n, a.total, a.norm_sq, (_validated(rho, side),), side)[0]


# Former name of the dispatcher, kept for callers.
tail_counts_threshold = tail_counts


def tail_counts_gf(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Count from the subset-sum generating function prod (1 + x^(a_i)),
    packed into one integer with n+1 bits per slot and read by
    ``_packed_le``."""
    return _tail_le(a.entries, a.n, a.total, a.norm_sq, (_validated(rho, side),), side, "gf")[0]


def tail_counts_mitm(a: CoeffVec, rho: RationalLike = 1, side: Side = TWO_SIDED) -> TailCounts:
    """Meet-in-the-middle (Horowitz-Sahni): split the coordinates into two
    halves and build the 2^(n/2) sums of each in ascending order, one add
    per sum.  #(S <= v) bisects the left list twice: left sums x with
    x + right[-1] <= v pair with every right sum, those with
    x + right[0] > v with none.  As x ascends through the left sums in
    between, v - x descends, so the number of right sums <= v - x is read
    by one pointer into the right list that only moves down and never
    reaches either end.  #(S <= v) costs one bounded walk, read at lt and,
    for an integer threshold, at le."""
    return _tail_le(a.entries, a.n, a.total, a.norm_sq, (_validated(rho, side),), side, "mitm")[0]
