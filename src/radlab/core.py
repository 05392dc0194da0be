"""Exact representations of coefficient vectors, sign assignments, dyadic
probabilities and single sign sums.

All arithmetic is integer or reduced-rational.  Norms are never
materialized: ``norm_sq`` carries ||a||^2, and every threshold
``rho * ||a||`` is decided on squares by ``counting._limits``, the largest
integers below it and not above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import ge, mul
from typing import Iterable, Sequence, Union

from .errors import DimensionError, InvalidCoefficient, ZeroNorm

RationalLike = Union[int, Fraction]

# Masks must fit comfortably in one machine word.
MAX_DIMENSION = 63

_INT, _EXACT = {int}, {int, Fraction}


@dataclass(frozen=True)
class CoeffVec:
    """Canonical nonnegative integer coefficient vector.

    Invariants: entries sorted non-increasing with gcd 1 (the zero vector,
    whose gcd is 0, raises ZeroNorm), so ``norm_sq``, the sum of squares,
    is positive; ``total`` is the sum.  Probabilistic statements about
    sign sums are scale invariant, so the integer scaling loses nothing.
    """

    entries: tuple[int, ...]
    norm_sq: int = field(init=False, compare=False)
    total: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        e = self.entries
        if not isinstance(e, tuple):
            raise InvalidCoefficient("entries must be a tuple of integers")
        if len(e) == 0:
            raise InvalidCoefficient("empty coefficient vector")
        if len(e) > MAX_DIMENSION:
            raise DimensionError(f"dimension {len(e)} exceeds cap {MAX_DIMENSION}")
        # here and in canonicalize, the loop names the first bad entry
        if not set(map(type, e)) <= _INT or min(e) < 0:
            for x in e:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidCoefficient(f"entry {x!r} is not an integer")
                if x < 0:
                    raise InvalidCoefficient(f"negative entry {x}")
        if not all(map(ge, e, e[1:])):
            raise InvalidCoefficient("entries must be sorted non-increasing")
        g = gcd(*e)
        if g != 1:  # g is 0 exactly for the zero vector
            if not g:
                raise ZeroNorm("the zero vector has no norm")
            raise InvalidCoefficient(f"entries share common factor {g}; canonicalize first")
        object.__setattr__(self, "norm_sq", sum(map(mul, e, e)))
        object.__setattr__(self, "total", sum(e))

    @classmethod
    def _canonical(cls, entries: tuple[int, ...]) -> "CoeffVec":
        """The vector of entries that ``canonicalize`` has already checked,
        sorted and reduced, built without ``__post_init__``: the checks
        would cost more than half of a sampled vector's ``canonicalize``."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "entries", entries)
        object.__setattr__(vec, "norm_sq", sum(map(mul, entries, entries)))
        object.__setattr__(vec, "total", sum(entries))
        return vec

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.entries)


@dataclass(frozen=True)
class SignAssignment:
    """One of the 2^n sign vectors, packed as a bitmask.

    Bit ``i`` set means coordinate ``i+1`` carries sign -1.  Equivalently
    the mask encodes the subset J of flipped (1-indexed) positions, so the
    uniform measure on masks is the uniform measure on sign vectors.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_DIMENSION:
            raise DimensionError(f"dimension {self.n} out of range")
        if not 0 <= self.mask < (1 << self.n):
            raise DimensionError(f"mask {self.mask:#x} does not fit dimension {self.n}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "SignAssignment":
        """Build the sign vector with -1 exactly at the given 1-indexed positions."""
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise DimensionError(f"index {i} out of range 1..{n}")
            mask |= 1 << (i - 1)
        return cls(mask, n)

    @property
    def indices(self) -> tuple[int, ...]:
        """Sorted 1-indexed positions carrying sign -1."""
        return tuple(i + 1 for i in range(self.n) if (self.mask >> i) & 1)

    def signs(self) -> tuple[int, ...]:
        return tuple(-1 if (self.mask >> i) & 1 else 1 for i in range(self.n))

    def complement(self) -> "SignAssignment":
        return SignAssignment(self.mask ^ ((1 << self.n) - 1), self.n)

    def __str__(self) -> str:
        return f"({','.join(str(i) for i in self.indices)})_{self.n}"


@dataclass(frozen=True)
class DyadicProb:
    """Exact probability count / 2^n."""

    count: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or not 0 <= self.count <= (1 << self.n):
            raise InvalidCoefficient(f"bad dyadic probability {self.count}/2^{self.n}")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, 1 << self.n)

    def __str__(self) -> str:
        return str(self.fraction)


def canonicalize(raw: Sequence[RationalLike]) -> CoeffVec:
    """Sort, common-denominator-scale and gcd-reduce a nonnegative vector.

    Accepts integers and exact rationals; floats are rejected because they
    are not exact, and the all-zero vector, which has no norm, raises
    ZeroNorm.  Every rule of ``CoeffVec`` is checked or established here,
    so the result skips ``CoeffVec``'s own checks.
    """
    if len(raw) == 0:
        raise InvalidCoefficient("empty coefficient vector")
    if len(raw) > MAX_DIMENSION:
        raise DimensionError(f"dimension {len(raw)} exceeds cap {MAX_DIMENSION}")
    kinds = set(map(type, raw))
    if not kinds <= _EXACT or min(raw) < 0:
        for x in raw:
            if isinstance(x, float):
                raise InvalidCoefficient(f"float entry {x!r}; use int or Fraction")
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise InvalidCoefficient(f"entry {x!r} is not an exact number")
            if x < 0:
                raise InvalidCoefficient(f"negative entry {x}")
    if kinds != _INT:  # ints and Fractions both carry numerator and denominator
        scale = lcm(*(x.denominator for x in raw))
        raw = [x.numerator * (scale // x.denominator) for x in raw]
    ints = sorted(raw, reverse=True)
    g = gcd(*ints)
    if g != 1:  # g is 0 exactly for the zero vector
        if not g:
            raise ZeroNorm("the zero vector has no norm")
        ints = [x // g for x in ints]
    return CoeffVec._canonical(tuple(ints))


def parse_vector(text: str) -> CoeffVec:
    """Parse the comma-separated vector format, e.g. "2,2,1,1,1" or "1/2,1/2"."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InvalidCoefficient("empty vector string")
    entries = []
    for p in parts:
        try:
            entries.append(Fraction(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidCoefficient(f"cannot parse entry {p!r}") from exc
    return canonicalize(entries)


def sign_sum(a: CoeffVec, s: SignAssignment) -> int:
    """The exact signed sum a_1 s_1 + ... + a_n s_n."""
    if a.n != s.n:
        raise DimensionError(f"vector has n={a.n}, sign assignment has n={s.n}")
    neg = 0
    m = s.mask
    while m:
        low = m & -m
        neg += a.entries[low.bit_length() - 1]
        m ^= low
    return a.total - 2 * neg
