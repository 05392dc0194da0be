"""The "better than" partial order on sign vectors and the quadratic
membership rules for the norm-reaching sets V_sd(a) and V_sd+(a).

For non-increasing nonnegative coefficient vectors, ``s <= t`` in the
order (every such vector gives ``a.t >= a.s``) holds exactly when every
prefix sum of ``t - s`` is nonnegative: the cone of admissible vectors is
generated by the prefix indicator vectors (1,..,1,0,..,0), so the
universal condition reduces to n prefix checks.  Equivalently, writing
each sign vector as its set of flipped positions, the flips of ``t`` must
be at most as many as those of ``s`` and sit at componentwise later
positions.

A flip set J with a.(J)_n >= 0 reaches the norm exactly when the
paper's pair-sum form (pairs inside J, plus pairs outside J, minus the
cross pairs) is nonnegative, and expanding the square gives

    2 * form(a, J) = (a.(J)_n)^2 - ||a||^2,

so every membership decision here reads one sign sum and compares its
square with ||a||^2 (strictly, for V_sd+).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .core import CoeffVec, SignAssignment, sign_sum
from .counting import LISTED_BUDGET
from .errors import (
    DimensionError,
    LemmaPreconditionViolated,
    NoWitness,
    TooLarge,
)

ORDER_RULES_CAP = 10
# tracemalloc peak per closure member, its int mask plus its share of the
# set's table (CPython 3.11, 64-bit): 59 B where the table is nearly full
# and 112 B just after it doubles (n = 18 and 20), 116 B at n = 63, where
# masks take up to three 30-bit digits
_MEMBER_BYTES = 120


def dominates(s: SignAssignment, t: SignAssignment) -> bool:
    """True iff t is at least as good as s: a.t >= a.s for every
    non-increasing nonnegative coefficient vector (reflexive)."""
    if s.n != t.n:
        raise DimensionError(f"dimension mismatch {s.n} != {t.n}")
    sm, tm = s.mask, t.mask
    acc = 0
    for i in range(s.n):
        acc += ((sm >> i) & 1) - ((tm >> i) & 1)
        if acc < 0:
            return False
    return True


def upward_closure(s: SignAssignment) -> set[int]:
    """The masks of all sign vectors at least as good as s, s's own
    included; ``SignAssignment(m, s.n)`` wraps one.

    Generated directly from the flipped-position characterization: choose
    any prefix-length q of s's flip positions i_1 < ... < i_p and any
    increasing j_1 < ... < j_q with j_r >= i_r.  Output-sensitive, so
    cheap for seeds with few flips even in larger dimensions.  Where the
    2^n masks would not all fit LISTED_BUDGET, the same recursion memoized
    on (depth, next free position) counts the members first, and raises
    TooLarge before any is built when they would not fit.
    """
    base = s.indices
    n = s.n
    if (1 << n) * _MEMBER_BYTES > LISTED_BUDGET:
        @cache
        def count(depth: int, next_free: int) -> int:
            return 1 if depth == len(base) else 1 + sum(
                count(depth + 1, j + 1) for j in range(max(base[depth], next_free), n + 1))

        if (members := count(0, 1)) * _MEMBER_BYTES > LISTED_BUDGET:
            raise TooLarge(f"the closure of {s} has {members} members, past the {LISTED_BUDGET}-byte budget")
    masks: set[int] = set()

    def extend(depth: int, next_free: int, mask: int) -> None:
        masks.add(mask)
        if depth == len(base):
            return
        for j in range(max(base[depth], next_free), n + 1):
            extend(depth + 1, j + 1, mask | (1 << (j - 1)))

    extend(0, 1, 0)
    return masks


def _closure_rows(n: int) -> list[int]:
    """rows[m] = bitmask over all masks t with (m)_n <= (t)_n."""
    return [sum(1 << t for t in upward_closure(SignAssignment(m, n))) for m in range(1 << n)]


def verify_order_rules(n: int) -> bool:
    """Exhaustively instantiate the five closure rules of the order and
    confirm each implied relation against the ``upward_closure`` rows of
    ``_closure_rows`` (tests match them to ``dominates``, the prefix-sum
    test, for every mask at n <= 8).

    (i)   single flip moves right:        (i)_n < (j)_n for i < j
    (ii)  dropping flips improves:        J superset J' implies (J)_n < (J')_n
    (iii) transitivity
    (iv)  disjoint augmentation:          (J')_n < (J'')_n and J disjoint from
          both implies (J u J')_n < (J u J'')_n
    (v)   componentwise shift of equally many flips
    """
    if n < 1:
        raise DimensionError(f"dimension {n} out of range")
    if n > ORDER_RULES_CAP:
        raise TooLarge(f"n={n} exceeds order-rule cap {ORDER_RULES_CAP}")
    full = (1 << n) - 1
    rows = _closure_rows(n)

    # (i)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not (rows[1 << (i - 1)] >> (1 << (j - 1))) & 1:
                return False

    # (ii)  proper submasks of every mask
    for m in range(1 << n):
        sub = (m - 1) & m
        while True:
            if not (rows[m] >> sub) & 1:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & m

    # (iii)  every row absorbs the rows of its members
    for m in range(1 << n):
        r = rows[m]
        probe = r
        while probe:
            low = probe & -probe
            t = low.bit_length() - 1
            if rows[t] & ~r:
                return False
            probe ^= low

    # (iv)
    for m1 in range(1 << n):
        r = rows[m1] & ~(1 << m1)
        while r:
            low = r & -r
            m2 = low.bit_length() - 1
            r ^= low
            free = full & ~(m1 | m2)
            sub = free
            while True:
                if not (rows[sub | m1] >> (sub | m2)) & 1:
                    return False
                if sub == 0:
                    break
                sub = (sub - 1) & free

    # (v)
    for m in range(1, n + 1):
        for left in combinations(range(1, n + 1), m):
            lmask = 0
            for i in left:
                lmask |= 1 << (i - 1)
            for right in combinations(range(1, n + 1), m):
                if all(i <= j for i, j in zip(left, right)):
                    rmask = 0
                    for j in right:
                        rmask |= 1 << (j - 1)
                    if not (rows[lmask] >> rmask) & 1:
                        return False
    return True


def _reaches_norm(a: CoeffVec, d: int, strict: bool) -> bool:
    """Whether a sign sum d >= 0 reaches ||a|| (strict: exceeds it)."""
    return d * d > a.norm_sq if strict else d * d >= a.norm_sq


def vsd_membership_quadratic(a: CoeffVec, J: SignAssignment, strict: bool = False) -> bool:
    """Decide (J)_n in V_sd(a) (strict=False) or V_sd+(a) (strict=True)
    by the sign of the quadratic form.

    Requires a.(J)_n >= 0; the form criterion is only valid on that side.
    """
    d = sign_sum(a, J)
    if d < 0:
        raise LemmaPreconditionViolated(f"a.{J} < 0; the form criterion does not apply")
    return _reaches_norm(a, d, strict)


def pair_lemma_select(
    a: CoeffVec, J: SignAssignment, K: SignAssignment, strict: bool = False
) -> str:
    """For disjoint J, K whose averaged form is nonnegative (positive in
    the strict variant), report which of (J)_n, (K)_n reaches the norm:
    "J", "K" or "both".  Never "neither" while the preconditions hold.
    """
    if J.mask & K.mask:
        raise LemmaPreconditionViolated("J and K must be disjoint")
    ok = (lambda v: v > 0) if strict else (lambda v: v >= 0)
    dj = sign_sum(a, J)
    if not ok(dj):
        raise LemmaPreconditionViolated(f"a.{J} fails the sign precondition")
    dk = sign_sum(a, K)
    if not ok(dk):
        raise LemmaPreconditionViolated(f"a.{K} fails the sign precondition")
    # four times the averaged form
    if not ok(dj * dj + dk * dk - 2 * a.norm_sq):
        raise LemmaPreconditionViolated("averaged form fails the hypothesis")
    in_j = _reaches_norm(a, dj, strict)
    in_k = _reaches_norm(a, dk, strict)
    if in_j and in_k:
        return "both"
    if in_j:
        return "J"
    if in_k:
        return "K"
    raise NoWitness(
        f"pair rule violated for a={a}, J={J}, K={K}; this falsifies the rule"
    )


_CASE7_CANDIDATES = tuple(SignAssignment.from_indices(idx, 7) for idx in ((2,), (3, 4), (5, 6, 7)))


def case_lemma_7(a: CoeffVec, strict: bool = False) -> SignAssignment:
    """For any canonical 7-vector, one of the flips (2)_7, (3,4)_7,
    (5,6,7)_7 reaches the norm (strictly, if strict and all entries are
    positive).  Returns the first that does; failure to find one would
    falsify the rule and raises NoWitness.
    """
    if a.n != 7:
        raise DimensionError(f"expected dimension 7, got {a.n}")
    if strict and a.entries[6] == 0:
        raise LemmaPreconditionViolated("strict variant requires all entries positive")
    for cand in _CASE7_CANDIDATES:
        if vsd_membership_quadratic(a, cand, strict):
            return cand
    raise NoWitness(f"no candidate reaches the norm for a={a}; rule falsified")


def in_vsd(a: CoeffVec, s: SignAssignment, strict: bool = False) -> bool:
    """Membership in V_sd(a) (a.s >= ||a||) or V_sd+(a) (strict >)."""
    d = sign_sum(a, s)
    return d >= 0 and _reaches_norm(a, d, strict)


def vsd_count_lower_bound(a: CoeffVec, seeds: list[SignAssignment]) -> int:
    """Size of the union of upward closures of the seeds verified to lie
    in V_sd(a); a certified lower bound for |V_sd(a)| because membership
    propagates upward.  Seeds outside V_sd(a) are skipped; a seed of
    another dimension raises DimensionError."""
    union: set[int] = set()
    for s in seeds:
        if in_vsd(a, s):
            union |= upward_closure(s)
    return len(union)
