"""Extremal search over canonical integer coefficient vectors and the
falsification harness.

Search spaces are always canonical: non-increasing, gcd-reduced, bounded
entry sum (exhaustive) or bounded entries (random).  Results report "best
value found plus witness"; no global optimality is claimed outside
exhausted regions.

Every sampled value here and in the claim suite is read by
``Substream.draws`` from the counter-based substream of its own key, the
stream of ``blake2b(key)`` (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), so results are reproducible, the same on every
interpreter, and independent of how trials are split across workers.
The keys are

- ``"{seed}:{i}"``: trial i of ``random_search``;
- ``"{seed}:{n}:{i}"``: trial i in dimension n of ``hunt``;
- ``"{seed}:dim7:{i}"``: sample i of the dimension-7 floor claims;
- ``"{seed}:pair:{n}:{i}"``: sample i in dimension n of the pairing claim;
- ``"{seed}:xval:{n}:{i}"``: pair i of the engine cross-validation, which
  draws rho and the side from the same substream after the entries;
- ``"{seed}:dom:{n}:{i}"``: pair i in dimension n of the dominance
  claim, which draws the two sign masks after the entries;
- ``"{seed}:mitm:{n}"``: the one n-vector of the large meet-in-the-middle
  claim;
- ``"{seed}:comb:{i}"``: trial i of the random subset-count claim.

Each of these samples but the meet-in-the-middle vector is a
``KeySchedule``, and ``run_sharded`` is the one path that evaluates one:
as one call in this process, or as one strided shard per worker on up to
``RADLAB_THREADS`` worker processes, after a timing probe whose result it
discards.  Every result is the same at any worker count.  The draws are
canonical entry tuples, never all zero; the tomaszewski hunt and random
search count them with ``counting._tail_le``, and a ``CoeffVec`` is built
only for a predicate that needs one, a record or a report.

Every search minimizes integer ``(count, entries)`` keys: n is fixed
within a search, so the tail count orders like the probability, and the
entries break ties lexicographically.  Random search and descent score
each vector with ``_score``; a resumed sweep counts its witness through
``tail_counts``.  The exhaustive
sweep carries ``tail_counts_gf``'s packed product down its walk and reads
each vector's count off it inline, one shift-add, one shift and one
reduction, and, because the walk ascends lexicographically, keeps a new
best only on a strictly smaller count; ``canonical_vectors`` with
``_score`` is kept as its test oracle.  The oracle walks its whole region
plainly; only the sweep seeks, straight past a resume cursor.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import ceil, gcd, isqrt
from operator import itemgetter, mul
from time import perf_counter
from typing import Callable, Iterator, Sequence

from .conjectures import (
    CHECKERS,
    G_TABLE,
    GPRIME_TABLE,
    T_FLOOR,
    CheckReport,
    tomaszewski_holds,
)
from .core import MAX_DIMENSION, CoeffVec, DyadicProb, _canonical_entries
from .counting import TWO_SIDED, TailCounts, _gf_width, _tail_le, tail_counts
from .errors import (
    ConjectureFalsified,
    DimensionError,
    NonPositiveEntry,
    RadlabError,
    SearchInputError,
    TooLarge,
)

DEFAULT_ENTRY_BOUND = 20
MAX_SWEEP_VECTORS = 5_000_000
# an exhaustive sweep sizes its region at entry sums doubling from
# FIRST_SIZING (or once, at its own bound, if that is smaller) up to its
# bound, and stops at the first size over MAX_SWEEP_VECTORS, which every
# region with n >= 2 reaches by entry sum 2^13
FIRST_SIZING = 1 << 6
# the least work a pooled sample gives each worker, in seconds of the
# probe's estimate: two forked workers start in ~12 ms, and samples of
# 2 * 50 ms ran on them in 0.67-1.08 of their time in one process, at
# 2 * 25 ms in 0.82-1.43 (2-core machine, CPython 3.11)
MIN_SHARD_S = 0.05


class SearchTarget(enum.Enum):
    """Which tail probability is being minimized."""

    T = "T"
    G = "G"
    GPRIME = "Gprime"

    @property
    def min_entry(self) -> int:
        # the strict-tail constant is only defined over nonzero entries
        return 1 if self is SearchTarget.GPRIME else 0

    def probability(self, counts: TailCounts) -> DyadicProb:
        if self is SearchTarget.T:
            return counts.p_le
        if self is SearchTarget.G:
            return counts.p_ge
        return counts.p_gt

    @classmethod
    def parse(cls, text: str) -> "SearchTarget":
        for member in cls:
            if member.value.lower() == text.lower():
                return member
        raise SearchInputError(f"unknown target {text!r}")


@dataclass
class SearchRecord:
    """Result of one search run.  ``bound`` holds the mode's budget
    parameter: entry-sum bound (exhaustive), entry bound (random) or step
    budget (descent)."""

    target: SearchTarget
    n: int
    best_value: DyadicProb
    witness: CoeffVec
    vectors_examined: int
    mode: str
    seed: int | None = None
    bound: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.value,
            "n": self.n,
            "best_value": str(self.best_value),
            "witness": str(self.witness),
            "vectors_examined": self.vectors_examined,
            "mode": self.mode,
            "seed": self.seed,
            "bound": self.bound,
        }


@dataclass
class SearchState:
    """Resumable cursor state of an exhaustive sweep.  Its shape is checked
    as it is made, from a file or in code, n first by the dimension rule;
    any other break raises SearchInputError.  Whether it belongs to a
    search is ``_resume_key``'s to check."""

    target: SearchTarget
    n: int
    bound: int
    cursor: tuple[int, ...] | None
    best_count: int | None
    witness: tuple[int, ...] | None
    examined: int

    def __post_init__(self) -> None:
        n, examined, count = self.n, self.examined, self.best_count
        if (not isinstance(self.target, SearchTarget)
                or tuple(map(type, (n, self.bound, examined))) != (int, int, int)
                or examined < 0):
            raise SearchInputError(
                f"bad checkpoint target={self.target!r}, n={n!r}, bound={self.bound!r} or examined={examined!r}")
        check_dimensions([n])
        held = (self.cursor, count, self.witness)
        if None in held:
            if held != (None, None, None):
                raise SearchInputError("checkpoint holds only some of cursor, best value and witness")
            if examined:
                raise SearchInputError(f"checkpoint without a cursor claims {examined} vectors examined")
            return
        if type(count) is not int or not 0 <= count <= 1 << n:
            raise SearchInputError(f"checkpoint count {count!r} is not a count over 2^{n}")
        for what, vec in (("cursor", self.cursor), ("witness", self.witness)):
            try:
                size = CoeffVec(vec).n
            except RadlabError as exc:
                raise SearchInputError(f"checkpoint {what} {vec!r}: {exc}") from exc
            if size != n:
                raise SearchInputError(f"checkpoint {what} {vec!r} is not a canonical {n}-vector")

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.value,
            "n": self.n,
            "bound": self.bound,
            "cursor": list(self.cursor) if self.cursor else None,
            "best_value": str(DyadicProb(self.best_count, self.n)) if self.best_count is not None else None,
            "witness": ",".join(str(x) for x in self.witness) if self.witness else None,
            "examined": self.examined,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SearchState":
        """The state of a checkpoint as ``to_json_dict`` writes it: target a
        string, cursor a list, witness "a,b,c" and best value "p/q" (str of
        a Fraction), read only after n has passed the dimension rule.
        Another format, or a field that does not parse, raises
        SearchInputError."""
        try:
            target, n, bound, examined = (d[k] for k in ("target", "n", "bound", "examined"))
        except (KeyError, TypeError) as exc:
            raise SearchInputError(f"checkpoint lacks target, n, bound or examined: {exc!r}") from exc
        cursor, best_value, witness = d.get("cursor"), d.get("best_value"), d.get("witness")
        if type(n) is int:
            check_dimensions([n])
        count = None
        try:
            for value, kind in ((target, str), (cursor, list), (best_value, str), (witness, str)):
                if value is not None and type(value) is not kind:
                    raise TypeError(f"{value!r} is not a {kind.__name__}")
            if target is not None:
                target = SearchTarget.parse(target)
            if cursor is not None:
                cursor = tuple(cursor)
            if best_value is not None:
                p, _, q = best_value.partition("/")
                count = (int(p) << n) // int(q or 1)
                # written back, only the count's own "p/q" reads the same
                if str(Fraction(count, 1 << n)) != best_value:
                    raise ValueError(f"best_value {best_value!r} is not a count over 2^{n}")
            if witness is not None:
                witness = tuple(map(int, witness.split(",")))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SearchInputError(f"bad checkpoint field: {exc}") from exc
        return cls(target, n, bound, cursor, count, witness, examined)


def _floor(target: SearchTarget, n: int) -> Fraction:
    """The proven floor of the target's value in dimension n, 0 where none
    is proven: the half-mass floor holds in every dimension, the G and
    strict-tail tables for n <= 7."""
    if target is SearchTarget.T:
        return T_FLOOR
    return (G_TABLE if target is SearchTarget.G else GPRIME_TABLE).get(n, Fraction(0))


def _check_floor(target: SearchTarget, entries: tuple[int, ...], count: int) -> None:
    """Any value count / 2^n of canonical entries below a proven floor
    means the build (or mathematics) is broken, so the run aborts with a
    falsification report."""
    n = len(entries)
    floor = _floor(target, n)
    if count * floor.denominator < floor.numerator << n:
        raise ConjectureFalsified({"target": target.value, "vector": str(CoeffVec._canonical(entries)),
                                   "value": str(Fraction(count, 1 << n)), "floor": str(floor)})


_Key = tuple[int, tuple[int, ...]]


def _norm_counts(entries: tuple[int, ...]) -> TailCounts:
    """The two-sided counts of canonical entries at their norm, by the
    count kernel alone: the entries need no check."""
    return _tail_le(entries, len(entries), sum(entries), sum(map(mul, entries, entries)), (1,), TWO_SIDED)[0]


def _score(target: SearchTarget, entries: tuple[int, ...]) -> _Key:
    """The fold key of one evaluated vector of canonical entries, (tail
    count, entries), after the floor check."""
    count = target.probability(_norm_counts(entries)).count
    _check_floor(target, entries, count)
    return count, entries


def _record(target: SearchTarget, key: _Key, examined: int, mode: str, bound: int,
            seed: int | None = None) -> SearchRecord:
    """The record of a search whose best fold key is ``key``."""
    count, entries = key
    n = len(entries)
    return SearchRecord(target, n, DyadicProb(count, n), CoeffVec(entries), examined, mode, seed, bound)


# hashlib.blake2b, bound by the first Substream: hashlib loads OpenSSL,
# ~3.6 MB and ~3-4 ms that importing radlab need not pay, and an import
# statement per key costs ~1.5 us (CPython 3.11)
_blake2b: Callable | None = None


class Substream:
    """The bytes of a key's counter-mode blake2b stream (RFC 7693), and
    the draws read from them in order.

    Block 0 is ``blake2b(key)``, the 64-byte digest of the key's UTF-8
    bytes; block c >= 1 is ``blake2b(key, person=c.to_bytes(16,
    "little"))``, the key hashed with the counter c as personalization
    (block 0's personalization is all zero bytes, which is the plain
    hash).  The stream is the blocks' bytes concatenated; block 0 is
    hashed here, each later block only when a draw reaches it.  No two
    (key, counter) pairs hash the same input, so the streams of distinct
    keys are independent."""

    __slots__ = ("key", "buf", "pos", "block")

    def __init__(self, key: str) -> None:
        global _blake2b
        if _blake2b is None:
            from hashlib import blake2b as _blake2b
        # buf ends with block ``block``, and pos is its next unread byte
        self.key = key.encode()
        self.buf, self.pos, self.block = _blake2b(self.key).digest(), 0, 0

    def draws(self, count: int, lo: int, hi: int) -> list[int]:
        """The next count integers in [lo, hi], read in one pass: lo + r for
        each of the first count draws r below the width hi - lo + 1, where a
        draw is the next ceil(k / 8) bytes, little-endian, cut to k bits, k
        the width's bit length.  The stream resumes right after the last
        draw kept; count <= 0 reads nothing."""
        if (width := hi - lo + 1) < 1:
            raise ValueError(f"empty entry range [{lo}, {hi}]")
        out: list[int] = []
        if count <= 0:
            return out
        k = width.bit_length()
        size, mask = (k + 7) // 8, (1 << k) - 1
        buf, pos = self.buf, self.pos
        while True:
            end = pos + size
            if end > len(buf):
                buf, end, pos = buf[pos:], size, 0
                while end > len(buf):
                    self.block += 1
                    buf += _blake2b(self.key, person=self.block.to_bytes(16, "little")).digest()
                self.buf = buf
            r = (buf[pos] if size == 1 else int.from_bytes(buf[pos:end], "little")) & mask
            pos = end
            if r < width:
                out.append(lo + r)
                count -= 1
                if not count:
                    self.pos = pos
                    return out

    def draw(self, lo: int, hi: int) -> int:
        """The next integer in [lo, hi]."""
        return self.draws(1, lo, hi)[0]


class KeySchedule:
    """A seeded sample in a fixed global order, small enough to send to a
    worker.  Its keys come in ``runs`` of (n, count): key k, for
    k = 0, 1, ..., ``size`` - 1, is ``template`` filled with the seed, the
    run's dimension n and an index that ends the template, either i, which
    counts within the run, or k itself.  Each draws n entries in
    [lo, hi].  A plain class: building a frozen dataclass would add ~1 ms,
    and a named tuple ~0.3 ms, to the ~11 ms that importing radlab takes
    (CPython 3.11, 2-core machine)."""

    __slots__ = ("seed", "template", "runs", "lo", "hi")

    def __init__(self, seed: int, template: str, runs: tuple[tuple[int, int], ...], lo: int, hi: int) -> None:
        self.seed, self.template, self.runs, self.lo, self.hi = seed, template, runs, lo, hi

    @property
    def size(self) -> int:
        return sum(count for _, count in self.runs)

    def keys(self, shard: int = 0, shards: int = 1) -> Iterator[tuple[int, str, int]]:
        """(k, key, n) for every key index k equal to shard modulo
        shards, ascending."""
        head, index = self.template[:-3], self.template[-3:]
        if index not in ("{i}", "{k}"):
            raise ValueError(f"key template {self.template!r} does not end in {{i}} or {{k}}")
        start = 0
        for n, count in self.runs:
            prefix = head.format(seed=self.seed, n=n)
            offset = start if index == "{i}" else 0
            for k in range(start + (shard - start) % shards, start + count, shards):
                yield k, f"{prefix}{k - offset}", n
            start += count

    def draws(self, shard: int = 0, shards: int = 1) -> Iterator[tuple[int, tuple[int, ...], Substream]]:
        """(k, entries, substream) for the shard's keys whose n draws in
        [lo, hi] are not all zero, ascending in k: the entries are the
        draws made canonical, sorted non-increasing and gcd-reduced, as a
        tuple, not a ``CoeffVec``, which a caller wraps only when it needs
        one.  The substream continues after the draws."""
        lo, hi = self.lo, self.hi
        for k, key, n in self.keys(shard, shards):
            stream = Substream(key)
            entries = stream.draws(n, lo, hi)
            if any(entries):
                yield k, _canonical_entries(entries), stream


def split_runs(budget: int, n_values: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (n, count) runs that split budget evenly across the
    dimensions, earlier dimensions absorbing the remainder."""
    base, rem = divmod(budget, len(n_values))
    return tuple((n, base + (pos < rem)) for pos, n in enumerate(n_values))


# what one shard of a sample returns: tallies summed over the shards, the
# first of them the vectors evaluated, and (key index, item) records
_Shard = tuple[tuple[int, ...], list[tuple[int, object]]]


def run_sharded(work: Callable[..., _Shard], schedule: KeySchedule, *args: object) -> _Shard:
    """Evaluate a sample shard by shard: ``work(schedule, shard, shards,
    *args)`` evaluates the keys with index k equal to shard modulo shards,
    as it deals them, and returns its tallies and its records ascending in
    k.  Returns the tallies summed and every record in global key order,
    the same at any number of shards.

    The sample runs either as one call in this process, ``work(schedule, 0,
    1, *args)``, or as the W calls ``work(schedule, j, W, *args)`` on a
    pool.  On W = ``_resolve_workers()`` >= 2 workers, this process first
    times a probe, ``work`` on the keys k = 0 modulo max(4 W, size // 16),
    ~16 keys whatever W is, and discards its result.  Scaled to the whole
    sample, that time starts a pool of one worker per ``MIN_SHARD_S``, up
    to W; under two, the sample runs as the one call here.  Strided shards
    balance schedules that run from cheap keys to costly ones; ``work`` is
    module-level, so that any start method can send it.  When the probe or
    a shard raises, the sample runs as the one call here, which raises the
    error at the lowest key index as itself; a broken pool's
    ``BrokenExecutor`` propagates.
    """
    workers = _resolve_workers()
    if workers < 2:
        return work(schedule, 0, 1, *args)
    # a sample's costly keys often come last, so key 0 alone would misjudge
    # it, and its costs may repeat with a period that divides W, so the
    # stride does not follow W but the size
    size = schedule.size
    stride = max(4 * workers, size // 16)
    # loaded before the clock: a cold hashlib import (~5 ms) would pool small samples
    import hashlib  # noqa: F401
    began = perf_counter()
    try:
        work(schedule, 0, stride, *args)
    except Exception:
        return work(schedule, 0, 1, *args)
    seconds = (perf_counter() - began) * size / max(1, -(-size // stride))
    pooled = min(workers, int(seconds / MIN_SHARD_S))
    if pooled < 2:
        return work(schedule, 0, 1, *args)
    # imported here: it loads multiprocessing on every import of radlab;
    # the default start method: two workers start in ~12 ms with fork,
    # in ~150 ms with spawn, more than a shard saves (2-core machine, CPython 3.11)
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(max_workers=pooled) as pool:
            results = list(pool.map(work, repeat(schedule), range(workers), repeat(workers),
                                    *map(repeat, args)))
    except BrokenExecutor:
        raise
    except Exception:
        return work(schedule, 0, 1, *args)
    tallies = tuple(map(sum, zip(*(t for t, _ in results))))
    return tallies, sorted((r for _, records in results for r in records), key=itemgetter(0))


def failures_shard(schedule: KeySchedule, shard: int, shards: int, holds: Callable) -> _Shard:
    """The shard's evaluated count and a record (k, entries) for each
    sample on which ``holds(entries, substream)`` is false."""
    evaluated = 0
    failures = []
    for k, a, rng in schedule.draws(shard, shards):
        evaluated += 1
        if not holds(a, rng):
            failures.append((k, a))
    return (evaluated,), failures


def _require_sample(evaluated: int) -> None:
    """A search or hunt that evaluated nothing is not a clean pass."""
    if not evaluated:
        raise SearchInputError("no nonzero vector sampled; increase trials")


def check_dimensions(n_values: Sequence[int]) -> None:
    """The dimension rule of every search, before any key is drawn or any
    region counted: each n >= 1, and none above core's cap."""
    if min(n_values) < 1:
        raise SearchInputError(f"dimension must be >= 1, got {min(n_values)}")
    if max(n_values) > MAX_DIMENSION:
        raise DimensionError(f"dimension {max(n_values)} exceeds cap {MAX_DIMENSION}")


def _check_inputs(n_values: Sequence[int], trials: int, entry_bound: int, min_entry: int) -> None:
    """The input rules shared by random_search and hunt; a dimension
    listed twice would draw the same keys twice."""
    if not n_values:
        raise SearchInputError("no dimension to search")
    check_dimensions(n_values)
    if len(set(n_values)) < len(n_values):
        repeated = next(n for i, n in enumerate(n_values) if n in n_values[:i])
        raise SearchInputError(f"dimension {repeated} is listed twice")
    if trials < 1:
        raise SearchInputError("trials must be >= 1")
    if entry_bound < max(min_entry, 1):
        raise SearchInputError(f"entry bound must be >= {max(min_entry, 1)}, got {entry_bound}")


def canonical_vectors(n: int, bound: int, min_entry: int = 0) -> Iterator[CoeffVec]:
    """All canonical vectors of dimension n with entry sum <= bound, in
    ascending lexicographic order of their entry tuples: the plain walk
    that tests hold the exhaustive sweep to.

    The running gcd is carried down, and the all-zero vector fails the gcd
    test like any other multiple.
    """
    last = n - 1
    prefix = [0] * n

    def rec(d: int, max_val: int, budget: int, g: int) -> Iterator[CoeffVec]:
        for v in range(min_entry, min(max_val, budget - (last - d) * min_entry) + 1):
            prefix[d] = v
            if d < last:
                yield from rec(d + 1, v, budget - v, gcd(g, v))
            elif gcd(g, v) == 1:
                yield CoeffVec(tuple(prefix))

    yield from rec(0, bound, bound, 0)


def _count_sequences(slots: int, max_val: int, budget: int, min_entry: int) -> int:
    """The number of non-increasing tuples of ``slots`` entries in
    [min_entry, max_val] with sum <= budget.

    Less min_entry each, they are the partitions of at most
    b = budget - s * min_entry into at most s = slots parts, each at most
    m = min(max_val - min_entry, b), so the count is the sum of the
    coefficients of q^0..q^b in the Gaussian binomial
    [m + s choose s]_q = prod_{i=1..s} (1 - q^(m+i)) / (1 - q^i),
    built as a power series truncated after q^b, one O(b) pass per factor.
    """
    if slots == 0:
        return 1
    b = budget - slots * min_entry
    m = min(max_val - min_entry, b)
    if m < 0:
        return 0
    series = [1] + [0] * b
    for i in range(1, slots + 1):
        for j in range(b, m + i - 1, -1):  # times (1 - q^(m+i))
            series[j] -= series[j - m - i]
        for j in range(i, b + 1):  # divided by (1 - q^i)
            series[j] += series[j - i]
    return sum(series)


def estimate_search_size(n: int, bound: int, min_entry: int = 0) -> int:
    """Upper bound on the canonical-vector count (gcd filter ignored).

    The sweep budgets with the exact ``canonical_count``; this bound is
    kept for the benchmark, which places its checkpoint by it."""
    total = _count_sequences(n, bound, bound, min_entry)
    return total - 1 if min_entry == 0 else total


def _mobius_table(limit: int) -> list[int]:
    """The Moebius function mu(d) for d = 1..limit, after a 0 at d = 0: 0
    when a square divides d, else -1 to the number of prime factors of d.
    One sieve flips the sign at the multiples of each prime p and zeroes
    the multiples of p^2."""
    mu = [0] + [1] * limit
    composite = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p::p] = b"\x01" * len(range(p, limit + 1, p))
        for m in range(p, limit + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, limit + 1, p * p):
            mu[m] = 0
    return mu


def canonical_count(n: int, bound: int, min_entry: int = 0, upto: tuple[int, ...] | None = None) -> int:
    """The exact number of vectors ``canonical_vectors(n, bound, min_entry)``
    yields; with ``upto``, a canonical n-vector of that region, the number
    that do not come after it (its rank, counted from 1).

    Moebius inversion over a common divisor d of the entries: the
    non-increasing tuples of multiples of d are d times the tuples with
    entries >= ceil(min_entry / d) and sum <= bound // d, so the tuples with
    gcd 1 number sum_d mu(d) * (multiples of d, less the zero tuple).  A
    tuple before ``upto`` shares a prefix of it and then has a smaller entry.
    ``_count_sequences`` counts each such set at once, as a sum of
    Gaussian-binomial coefficients.  mu is sieved once per call.
    """
    total = 0
    for d, mu in enumerate(_mobius_table(bound)):
        if not mu:
            continue
        lo = -(-min_entry // d)
        if upto is None:
            multiples = _count_sequences(n, bound // d, bound // d, lo)
        else:
            multiples = spent = 0
            for i, c in enumerate(upto):
                multiples += _count_sequences(n - i, (c - 1) // d, (bound - spent) // d, lo)
                if c % d:
                    break
                spent += c
            else:
                multiples += 1  # upto itself
        total += mu * (multiples - (min_entry == 0))
    return total


def _resume_key(state: SearchState, target: SearchTarget, n: int, bound: int, region: int) -> _Key | None:
    """The fold key a sweep of bound ``bound``, walked at entry sum
    <= ``region``, resumes with.  Raises SearchInputError unless the state
    belongs to this search, its cursor and witness lie in the region, the
    witness does not come after the cursor, its count is the witness's
    own, and examined is the cursor's rank in the walk."""
    if (state.target, state.n, state.bound) != (target, n, bound):
        raise SearchInputError("resume state does not match this search")
    if state.cursor is None:
        return None
    for what, vec in (("cursor", state.cursor), ("witness", state.witness)):
        if sum(vec) > region or vec[-1] < target.min_entry:
            raise SearchInputError(f"checkpoint {what} {vec} lies outside the search region")
    if state.witness > state.cursor:
        raise SearchInputError(f"checkpoint witness {state.witness} comes after cursor {state.cursor}")
    # counted through the public dispatcher, not ``_score``: it is the one
    # count of a sweep outside the packed walk that perfbench's self-test
    # corrupts (``tail_counts_threshold`` is ``tail_counts``)
    key = target.probability(tail_counts(CoeffVec(state.witness))).count, state.witness
    _check_floor(target, state.witness, key[0])
    if key[0] != state.best_count:
        raise SearchInputError(f"checkpoint count {state.best_count} is not the "
                               f"count {key[0]} of witness {state.witness}")
    rank = canonical_count(n, region, target.min_entry, state.cursor)
    if state.examined != rank:
        raise SearchInputError(f"checkpoint claims {state.examined} vectors examined, "
                               f"but cursor {state.cursor} is vector {rank} of the walk")
    return key


def exhaustive_integer_search(
    n: int,
    target: SearchTarget,
    bound: int,
    *,
    resume: SearchState | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[SearchState], None] | None = None,
) -> SearchRecord:
    """Evaluate the target on every canonical vector with entry sum <= bound.

    The walk goes in ``canonical_vectors``' order and is the only walk that
    seeks: it starts straight past a resume cursor (checked first, by
    ``_resume_key``), so a run interrupted at a checkpoint and resumed from
    it produces the identical final record.  Each level carries its
    prefix's gcd, entry sum t, squared norm and packed product
    p = prod (1 + x^a_i), w = n + 1 bits a slot; the level that picks entry
    n-1, u, runs the last entry v inline.  A vector costs one isqrt and the
    read c = ((p + (p << v*w)) >> m*w) mod (2^w - 1), the sum of its
    product's slots j >= m = (t + v - lim + 1) // 2 (none carries), which is
    #(S <= lim) over its sign sums S = t + v - 2j.  G reads lim = lt, the
    largest integer below ||a||; G' and T read lim = le, the largest not
    above it (``counting._limits`` at rho = 1).  As the count kernel
    classifies two-sided counts, G counts at + above = 2^n - (2c - 2^n)
    = 2 (2^n - c), G' counts above = 2 (2^n - c) and T below + at
    = 2c - 2^n.  A CoeffVec is built
    only for a floor violation and for the witness.  ``on_checkpoint`` gets the state
    every ``checkpoint_every`` >= 0 vectors (0: never); an interrupt reports
    the state of the last checkpoint or finished run of final entries, so
    that its cursor, best and examined agree.

    After the dimension rule, ``canonical_count`` sizes the region before
    the walk at entry sums doubling from ``FIRST_SIZING`` up to the bound
    (a bound up to ``FIRST_SIZING`` once, at itself), and the first one
    over the cap refuses it; by entry sum 2^13 every region with n >= 2
    is.  The last, exact, size sets the budget, rejects an empty region,
    and must equal the vectors examined at the end, or the walk is broken
    (RuntimeError).
    """
    check_dimensions([n])
    if checkpoint_every < 0:
        raise SearchInputError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    min_entry = target.min_entry
    # the only canonical 1-vector is (1,): that region is walked, sized and
    # ranked at entry sum <= 1, and checkpoints and the record keep bound
    region = min(bound, 1) if n == 1 else bound
    # a region only grows with its bound, so one over the cap at a smaller
    # entry sum is refused there: no Moebius sum runs past the first
    # over-cap doubling, which a large n reaches at FIRST_SIZING already
    at = min(region, FIRST_SIZING)
    while True:
        size = canonical_count(n, at, min_entry)
        if size > MAX_SWEEP_VECTORS:
            at_least = "at least " if at < region else ""
            raise TooLarge(f"region holds {at_least}{size} canonical vectors (cap {MAX_SWEEP_VECTORS})")
        if at == region:
            break
        at = min(2 * at, region)
    if not size:
        raise SearchInputError("empty search region")
    best: _Key | None = None
    examined = 0
    after: tuple[int, ...] | None = None
    if resume is not None:
        best = _resume_key(resume, target, n, bound, region)
        examined, after = resume.examined, resume.cursor
    everything = 1 << n
    floor_count = ceil(_floor(target, n) * everything)
    best_count = best[0] if best else everything + 1
    width = _gf_width(n)
    mask = (1 << width) - 1
    # a vector's count is base + slope * c; the walk's squared norms are
    # less 1 for G, so that isqrt reads lim
    slope, base = (2, -everything) if target is SearchTarget.T else (-2, 2 * everything)
    every = checkpoint_every if on_checkpoint else 0
    next_checkpoint = (examined // every + 1) * every if every else -1
    last = n - 1
    # what an interrupt reports, replaced whole so that its parts agree
    done = (after, best, examined)

    def state(cursor: tuple[int, ...] | None, key: _Key | None, seen: int) -> SearchState:
        return SearchState(target, n, bound, cursor, *(key or (None, None)), seen)

    def rec(d: int, max_val: int, g: int, total: int, poly: int, norm_sq: int,
            head: tuple[int, ...], on_cursor: bool) -> None:
        nonlocal best, best_count, examined, next_checkpoint, done
        lo = after[d] if on_cursor else min_entry
        hi = region - total - (last - d) * min_entry
        hi = hi if hi < max_val else max_val  # min() costs a slow call here
        if d < last - 1:
            for v in range(lo, hi + 1):
                rec(d + 1, v, gcd(g, v), total + v, poly + (poly << v * width), norm_sq + v * v,
                    head + (v,), on_cursor and v == lo)
            return
        # the prefix through entry n-1, u (none at n = 1, where d = last), then each last entry v
        seen, top = examined, best_count
        for u in range(lo, hi + 1) if d < last else (max_val,):
            gu, tu, pu, squ, hu, oc = (g, total, poly, norm_sq, head, on_cursor) if d == last else (
                gcd(g, u), total + u, poly + (poly << u * width), norm_sq + u * u, head + (u,), on_cursor and u == lo)
            vs = range(after[last] + 1 if oc else min_entry, (u if u < region - tu else region - tu) + 1)
            if gu != 1:
                vs = [v for v in vs if gcd(gu, v) == 1]
            for v in vs:
                seen += 1
                m = (tu + v - isqrt(squ + v * v) + 1) // 2
                count = base + slope * (((pu + (pu << v * width)) >> m * width) % mask)
                if count < top:
                    if count < floor_count:
                        _check_floor(target, hu + (v,), count)
                    top, best = count, (count, hu + (v,))
                if seen == next_checkpoint:
                    done = (hu + (v,), best, seen)
                    next_checkpoint += every
                    on_checkpoint(state(*done))
            if vs:
                done = (hu + (vs[-1],), best, seen)
        examined, best_count = seen, top

    try:
        rec(0, region, 0, 0, 1, -(target is SearchTarget.G), (), after is not None)
    except KeyboardInterrupt:
        if on_checkpoint:
            on_checkpoint(state(*done))
        raise
    if examined != size:
        raise RuntimeError(f"sweep examined {examined} vectors of a region of {size}")
    return _record(target, best, examined, "exhaustive", bound)


def _random_shard(schedule: KeySchedule, shard: int, shards: int, target: SearchTarget) -> _Shard:
    """The shard's evaluated count and its best (count, entries) key."""
    best: tuple[int, _Key] | None = None
    examined = 0
    for k, entries, _ in schedule.draws(shard, shards):
        cand = _score(target, entries)
        examined += 1
        if best is None or cand < best[1]:
            best = k, cand
    return (examined,), [best] if best else []


def _resolve_workers() -> int:
    """RADLAB_THREADS, capped at (and by default) the number of CPUs this
    process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = os.environ.get("RADLAB_THREADS") or cpus
    try:
        return max(1, min(cpus, int(cap)))
    except ValueError as exc:
        raise SearchInputError(f"RADLAB_THREADS={cap!r} is not an integer") from exc


def random_search(
    n: int,
    target: SearchTarget,
    trials: int,
    seed: int,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
) -> SearchRecord:
    """Sample integer vectors with i.i.d. entries and track the minimum.

    Runs through ``run_sharded``, on up to ``RADLAB_THREADS`` worker
    processes (default: the CPUs this process may use).  Trial i draws
    from the substream (seed, i); the merge is a min over (count, entries)
    keys, so the outcome does not depend on the number of workers.
    """
    _check_inputs([n], trials, entry_bound, target.min_entry)
    schedule = KeySchedule(seed, "{seed}:{k}", ((n, trials),), target.min_entry, entry_bound)
    (examined,), bests = run_sharded(_random_shard, schedule, target)
    _require_sample(examined)
    return _record(target, min(best for _, best in bests), examined, "random", entry_bound, seed)


def local_descent(start: CoeffVec, target: SearchTarget, steps: int) -> SearchRecord:
    """Greedy descent over single-entry +-1 perturbations.

    Moves only on strict improvement; equal-value neighbors never cause a
    move, and among improving neighbors the lexicographically smallest
    canonical vector wins, so the walk is deterministic.  A negative step
    budget is a SearchInputError; 0 steps scores the start alone.
    """
    if steps < 0:
        raise SearchInputError(f"steps must be >= 0, got {steps}")
    if any(x < target.min_entry for x in start.entries):
        raise NonPositiveEntry("this target requires strictly positive entries")
    current = _score(target, start.entries)
    examined = 1
    for _ in range(steps):
        neighbors: set[tuple[int, ...]] = set()
        for idx in range(start.n):
            for d in (1, -1):
                e = list(current[1])
                e[idx] += d
                if e[idx] < target.min_entry or not any(e):
                    continue
                neighbors.add(_canonical_entries(e))
        neighbors.discard(current[1])
        best_move = min((_score(target, e) for e in sorted(neighbors)), default=None)
        examined += len(neighbors)
        if best_move is None or best_move[0] >= current[0]:
            break
        current = best_move
    return _record(target, current, examined, "descent", steps)


def _tomaszewski_holds(entries: tuple[int, ...], stream: Substream) -> bool:
    return tomaszewski_holds(_norm_counts(entries))


def _pairing_holds(entries: tuple[int, ...], stream: Substream) -> bool:
    return not CHECKERS["pairing"](CoeffVec._canonical(entries)).violated


def _delta_holds(entries: tuple[int, ...], stream: Substream) -> bool:
    return not CHECKERS["delta-sweep"](CoeffVec._canonical(entries)).violated


# hunt's predicate names, each with the checker that reports a violation and
# the predicate that decides a sample; "delta" sweeps every threshold pair
HUNT_PREDICATES = {
    "tomaszewski": ("tomaszewski", _tomaszewski_holds),
    "pairing": ("pairing", _pairing_holds),
    "delta": ("delta-sweep", _delta_holds),
}


def hunt(
    predicate: str,
    n_values: Sequence[int],
    budget: int,
    seed: int,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
) -> list[CheckReport]:
    """Drive random vectors through a checker; return every violation, in
    the order of the keys that drew them.

    The budget is the total number of vectors, split evenly across the
    dimensions (earlier dimensions absorb the remainder), and evaluated by
    ``run_sharded``.  The predicate's bool decides each sample; the
    checker runs again only on the violating vectors, to build their
    reports.  An empty result is the expected outcome; any violation
    is independently re-checkable from its report.  Raises
    SearchInputError on inputs _check_inputs rejects and when every draw
    was the zero vector, because a hunt that evaluated nothing is not a
    clean pass.
    """
    if predicate not in HUNT_PREDICATES:
        raise SearchInputError(f"unknown predicate {predicate!r}")
    n_values = list(n_values)
    _check_inputs(n_values, budget, entry_bound, 0)
    schedule = KeySchedule(seed, "{seed}:{n}:{i}", split_runs(budget, n_values), 0, entry_bound)
    checker, holds = HUNT_PREDICATES[predicate]
    (evaluated,), failures = run_sharded(failures_shard, schedule, holds)
    _require_sample(evaluated)
    # a checker's report is a function of the vector: rerun, it is the same
    return [CHECKERS[checker](CoeffVec._canonical(entries)) for _, entries in failures]
