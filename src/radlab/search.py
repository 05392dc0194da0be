"""Extremal search over canonical integer coefficient vectors and the
falsification harness.

Search spaces are always canonical: non-increasing, gcd-reduced, bounded
entry sum (exhaustive) or bounded entries (random).  Results report "best
value found plus witness"; no global optimality is claimed outside
exhausted regions.

Every sampled vector, here and in the claim suite, comes from
``seeded_vectors``: each vector has its own substream
``random.Random(key)``, so results are reproducible and independent of
how trials are partitioned across workers.  The substream keys are

- ``"{seed}:{i}"``: trial i of ``random_search``;
- ``"{seed}:{n}:{i}"``: trial i in dimension n of ``hunt``;
- ``"{seed}:dim7:{i}"``: sample i of the dimension-7 floor claims;
- ``"{seed}:pair:{n}:{i}"``: sample i in dimension n of the pairing claim;
- ``"{seed}:xval:{n}:{i}"``: pair i of the engine cross-validation, which
  draws rho and the side from the same substream after the entries.

Every search minimizes integer ``(count, entries)`` keys: n is fixed
within a search, so the tail count orders like the probability, and the
entries break ties lexicographically.  Random search, descent and
checkpoint validation score each vector with ``_score``.  The exhaustive
sweep reads its counts off a packed product carried down its walk
(``counting._norm_classes``) and, because the walk ascends
lexicographically, keeps a new best only on a strictly smaller count;
``canonical_vectors`` with ``_score`` is kept as its test oracle.
"""

from __future__ import annotations

import enum
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd
from typing import Callable, Iterable, Iterator, Sequence

from .conjectures import CHECKERS, CheckReport, HK_BOUND, HK_MAX_N, T_FLOOR
from .core import CoeffVec, DyadicProb, canonicalize
from .counting import TailCounts, _gf_width, _norm_classes, tail_counts
from .errors import (
    BudgetExceeded,
    ConjectureFalsified,
    NonPositiveEntry,
    RadlabError,
    SearchInputError,
    ZeroNorm,
)

DEFAULT_ENTRY_BOUND = 20
DEFAULT_MAX_VECTORS = 5_000_000


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
    """Resumable cursor state of an exhaustive sweep."""

    target: SearchTarget
    n: int
    bound: int
    cursor: tuple[int, ...] | None
    best_count: int | None
    witness: tuple[int, ...] | None
    examined: int

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
        """Parse a checkpoint; raises SearchInputError unless it is a dict with
        a string target, integer n >= 1, bound and examined >= 0, a best value
        that is a count over 2^n exactly when a witness is present, and
        canonical n-vectors as cursor and witness."""
        try:
            target, n, bound, examined = (d[k] for k in ("target", "n", "bound", "examined"))
        except (KeyError, TypeError) as exc:
            raise SearchInputError(f"checkpoint lacks target, n, bound or examined: {exc!r}") from exc
        best_value, witness, cursor = d.get("best_value"), d.get("witness"), d.get("cursor")
        if tuple(map(type, (target, n, bound, examined))) != (str, int, int, int) or n < 1 or examined < 0:
            raise SearchInputError(
                f"bad checkpoint target={target!r}, n={n!r}, bound={bound!r} or examined={examined!r}")
        if (best_value is None) != (witness is None):
            raise SearchInputError("checkpoint holds only one of best_value and witness")
        best_count = None
        if best_value is not None:
            try:
                scaled = Fraction(best_value) * (1 << n)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise SearchInputError(f"checkpoint best_value {best_value!r}: {exc}") from exc
            if scaled.denominator != 1 or not 0 <= scaled <= 1 << n:
                raise SearchInputError(f"checkpoint best_value {best_value} is not a count over 2^{n}")
            best_count = scaled.numerator
        return cls(
            target=SearchTarget.parse(target),
            n=n,
            bound=bound,
            cursor=None if cursor is None else _state_vector(cursor, n, "cursor"),
            best_count=best_count,
            witness=None if witness is None else _state_vector(witness, n, "witness"),
            examined=examined,
        )


def _state_vector(value: str | Sequence[int], n: int, what: str) -> tuple[int, ...]:
    """A checkpoint's cursor (a list) or witness (a string) as a canonical,
    nonzero n-vector."""
    try:
        entries = tuple(int(x) for x in value.split(",")) if isinstance(value, str) else tuple(value)
        vec = CoeffVec(entries)
    except (TypeError, ValueError, RadlabError) as exc:
        raise SearchInputError(f"checkpoint {what} {value!r}: {exc}") from exc
    if vec.n != n or vec.is_zero():
        raise SearchInputError(f"checkpoint {what} {value!r} is not a canonical {n}-vector")
    return entries


def evaluate_target(a: CoeffVec, target: SearchTarget) -> DyadicProb:
    if a.norm_sq == 0:
        raise ZeroNorm("cannot evaluate the zero vector")
    return target.probability(tail_counts(a))


def _floor(target: SearchTarget, n: int) -> Fraction:
    """The proven floor of the target's value in dimension n, 0 where none
    is proven: the half-mass floor holds in every dimension, the 7/32
    floor for n <= 7."""
    if target is SearchTarget.T:
        return T_FLOOR
    if target is SearchTarget.G and n <= HK_MAX_N:
        return HK_BOUND
    return Fraction(0)


def _check_floor(target: SearchTarget, a: CoeffVec, value: Fraction) -> None:
    """Any value below a proven floor means the build (or mathematics) is
    broken, so the run aborts with a falsification report."""
    floor = _floor(target, a.n)
    if value < floor:
        raise ConjectureFalsified(
            {"target": target.value, "vector": str(a), "value": str(value), "floor": str(floor)}
        )


_Key = tuple[int, tuple[int, ...]]


def _score(target: SearchTarget, a: CoeffVec) -> _Key:
    """The fold key of one evaluated vector, (tail count, entries), after
    the floor check."""
    prob = target.probability(tail_counts(a))
    _check_floor(target, a, prob.fraction)
    return prob.count, a.entries


def seeded_vectors(
    keys: Iterable[tuple[str, int]], lo: int, hi: int
) -> Iterator[tuple[CoeffVec, random.Random]]:
    """For each (key, n), draw n entries in [lo, hi] from
    random.Random(key); yield the canonical vector of every draw that is
    not all zero, together with its substream for any further draws."""
    for key, n in keys:
        # string seeding is stable across runs and hash randomization
        rng = random.Random(key)
        entries = [rng.randint(lo, hi) for _ in range(n)]
        if any(entries):
            yield canonicalize(entries), rng


def _check_inputs(n_values: Sequence[int], trials: int, entry_bound: int, min_entry: int) -> None:
    """The input rules shared by random_search and hunt."""
    if not n_values:
        raise SearchInputError("no dimension to search")
    if min(n_values) < 1:
        raise SearchInputError(f"dimensions must be >= 1, got {min(n_values)}")
    if trials < 1:
        raise SearchInputError("trials must be >= 1")
    if entry_bound < max(min_entry, 1):
        raise SearchInputError(f"entry bound must be >= {max(min_entry, 1)}, got {entry_bound}")


def canonical_vectors(
    n: int, bound: int, min_entry: int = 0, after: tuple[int, ...] | None = None
) -> Iterator[CoeffVec]:
    """All canonical vectors of dimension n with entry sum <= bound, in
    ascending lexicographic order of their entry tuples; with ``after``, a
    canonical n-vector of the region, only those that come after it.

    The walk seeks: while the prefix still equals ``after``, each level
    starts at the cursor's own entry.  The running gcd is carried down,
    and the all-zero vector fails the gcd test like any other multiple.
    """
    last = n - 1
    prefix = [0] * n

    def rec(d: int, max_val: int, budget: int, g: int, on_cursor: bool) -> Iterator[CoeffVec]:
        lo = after[d] if on_cursor else min_entry
        hi = min(max_val, budget - (last - d) * min_entry)
        if d == last:
            for v in range(lo + on_cursor, hi + 1):  # the cursor itself is done
                if gcd(g, v) == 1:
                    prefix[d] = v
                    yield CoeffVec(tuple(prefix))
            return
        for v in range(lo, hi + 1):
            prefix[d] = v
            yield from rec(d + 1, v, budget - v, gcd(g, v), on_cursor and v == lo)

    return rec(0, bound, bound, 0, after is not None)


@lru_cache(maxsize=None)
def _count_sequences(slots: int, max_val: int, budget: int, min_entry: int) -> int:
    if slots == 0:
        return 1
    total = 0
    hi = min(max_val, budget - (slots - 1) * min_entry)
    for v in range(min_entry, hi + 1):
        total += _count_sequences(slots - 1, v, budget - v, min_entry)
    return total


def estimate_search_size(n: int, bound: int, min_entry: int = 0) -> int:
    """Upper bound on the canonical-vector count (gcd filter ignored).

    The sweep budgets with the exact ``canonical_count``; this bound is
    kept for the benchmark, which places its checkpoint by it."""
    total = _count_sequences(n, bound, bound, min_entry)
    return total - 1 if min_entry == 0 else total


def _mobius(d: int) -> int:
    """The Moebius function: 0 when a square divides d, else -1 to the
    number of prime factors of d."""
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def canonical_count(n: int, bound: int, min_entry: int = 0, upto: tuple[int, ...] | None = None) -> int:
    """The exact number of vectors ``canonical_vectors(n, bound, min_entry)``
    yields; with ``upto``, a canonical n-vector of that region, the number
    that do not come after it (its rank, counted from 1).

    Moebius inversion over a common divisor d of the entries: the
    non-increasing tuples of multiples of d are d times the tuples with
    entries >= ceil(min_entry / d) and sum <= bound // d, so the tuples with
    gcd 1 number sum_d mu(d) * (multiples of d, less the zero tuple).  A
    tuple before ``upto`` shares a prefix of it and then has a smaller entry,
    and ``_count_sequences`` counts each such set at once.
    """
    total = 0
    for d in range(1, bound + 1):
        mu = _mobius(d)
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


def _resume_key(state: SearchState, target: SearchTarget, n: int, bound: int) -> _Key | None:
    """The fold key a sweep resumes with.  Raises SearchInputError unless
    the checkpoint belongs to this search, its cursor and witness are
    canonical n-vectors of the region, the witness does not come after
    the cursor, the stored count is the witness's own, and examined is
    the cursor's rank in the walk."""
    if (state.target, state.n, state.bound) != (target, n, bound):
        raise SearchInputError("resume state does not match this search")
    if state.cursor is None or state.witness is None:
        if state.cursor != state.witness:
            raise SearchInputError("checkpoint holds only one of cursor and witness")
        if state.examined:
            raise SearchInputError(f"checkpoint without a cursor claims {state.examined} vectors examined")
        return None
    for what, vec in (("cursor", state.cursor), ("witness", state.witness)):
        _state_vector(vec, n, what)
        if sum(vec) > bound or vec[-1] < target.min_entry:
            raise SearchInputError(f"checkpoint {what} {vec} lies outside the search region")
    if state.witness > state.cursor:
        raise SearchInputError(f"checkpoint witness {state.witness} comes after cursor {state.cursor}")
    key = _score(target, CoeffVec(state.witness))
    if key != (state.best_count, state.witness):
        raise SearchInputError(f"checkpoint count {state.best_count} is not the "
                               f"count {key[0]} of witness {state.witness}")
    rank = canonical_count(n, bound, target.min_entry, state.cursor)
    if state.examined != rank:
        raise SearchInputError(f"checkpoint claims {state.examined} vectors examined, "
                               f"but cursor {state.cursor} is vector {rank} of the walk")
    return key


def exhaustive_integer_search(
    n: int,
    target: SearchTarget,
    bound: int,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
    resume: SearchState | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[SearchState], None] | None = None,
) -> SearchRecord:
    """Evaluate the target on every canonical vector with entry sum <= bound.

    The walk is ``canonical_vectors``' own: fixed lexicographic order,
    seeking straight past a resume cursor (checked first, by
    ``_resume_key``), so a run interrupted at a checkpoint and resumed from
    it produces the identical final record.  Each level carries its
    prefix's gcd, entry sum, squared norm and packed product
    prod (1 + x^a_i), so a vector costs one shift-add and one
    ``_norm_classes`` read; a CoeffVec is built only for a floor violation
    and for the witness.  An interrupt checkpoints the state as of the last
    checkpoint or the last finished run of final entries, so that its
    cursor, best and examined agree.

    ``canonical_count`` sizes the region exactly before the walk: it sets
    the budget, rejects an empty region, and must equal the vectors
    examined at the end, or the walk is broken (RuntimeError).
    """
    if n < 1:
        raise SearchInputError(f"dimension must be >= 1, got {n}")
    min_entry = target.min_entry
    size = canonical_count(n, bound, min_entry)
    if size > max_vectors:
        raise BudgetExceeded(f"region holds {size} canonical vectors (cap {max_vectors})")
    if not size:
        raise SearchInputError("empty search region")
    best: _Key | None = None
    examined = 0
    after: tuple[int, ...] | None = None
    if resume is not None:
        best = _resume_key(resume, target, n, bound)
        examined, after = resume.examined, resume.cursor
    everything = 1 << n
    floor_count = ceil(_floor(target, n) * everything)
    best_count = best[0] if best else everything + 1
    width = _gf_width(n)
    # the class choice of SearchTarget.probability, inlined: a call per
    # vector costs a sixth of the walk
    strict, upper = target is SearchTarget.GPRIME, target is SearchTarget.G
    every = checkpoint_every if on_checkpoint else 0
    next_checkpoint = (examined // every + 1) * every if every else -1
    last = n - 1
    # what an interrupt reports, replaced whole so that its parts agree
    done = (after, best, examined)

    def state(cursor: tuple[int, ...] | None, key: _Key | None, seen: int) -> SearchState:
        return SearchState(target, n, bound, cursor, *(key or (None, None)), seen)

    def rec(d: int, max_val: int, budget: int, g: int, poly: int, norm_sq: int,
            head: tuple[int, ...], on_cursor: bool) -> None:
        nonlocal best, best_count, examined, next_checkpoint, done
        lo = after[d] if on_cursor else min_entry
        hi = min(max_val, budget - (last - d) * min_entry)
        if d < last:
            for v in range(lo, hi + 1):
                rec(d + 1, v, budget - v, gcd(g, v), poly + (poly << v * width), norm_sq + v * v,
                    head + (v,), on_cursor and v == lo)
            return
        total = bound - budget
        seen, top, cursor = examined, best_count, None
        for v in range(lo + on_cursor, hi + 1):  # the cursor itself is done
            if gcd(g, v) != 1:
                continue
            below, at, above = _norm_classes(poly + (poly << v * width), n, total + v, norm_sq + v * v)
            count = above if strict else at + above if upper else below + at
            seen += 1
            cursor = v
            if count < top:
                if count < floor_count:
                    _check_floor(target, CoeffVec(head + (v,)), Fraction(count, everything))
                top, best = count, (count, head + (v,))
            if seen == next_checkpoint:
                done = (head + (v,), best, seen)
                next_checkpoint += every
                on_checkpoint(state(*done))
        examined, best_count = seen, top
        if cursor is not None:
            done = (head + (cursor,), best, seen)

    try:
        rec(0, bound, bound, 0, 1, 0, (), after is not None)
    except KeyboardInterrupt:
        if on_checkpoint:
            on_checkpoint(state(*done))
        raise
    if examined != size:
        raise RuntimeError(f"sweep examined {examined} vectors of a region of {size}")
    return SearchRecord(
        target=target,
        n=n,
        best_value=DyadicProb(best[0], n),
        witness=CoeffVec(best[1]),
        vectors_examined=examined,
        mode="exhaustive",
        bound=bound,
    )


def _random_chunk(args: tuple) -> tuple[_Key | None, int]:
    n, target_name, lo, hi, seed, entry_bound = args
    target = SearchTarget.parse(target_name)
    keys = ((f"{seed}:{i}", n) for i in range(lo, hi))
    best: _Key | None = None
    examined = 0
    for vec, _ in seeded_vectors(keys, target.min_entry, entry_bound):
        cand = _score(target, vec)
        examined += 1
        if best is None or cand < best:
            best = cand
    return best, examined


def _resolve_workers(workers: int | None) -> int:
    cpus = os.cpu_count() or 1
    cap = os.environ.get("RADLAB_THREADS") or cpus
    try:
        limit = min(cpus, int(cap))
    except ValueError as exc:
        raise SearchInputError(f"RADLAB_THREADS={cap!r} is not an integer") from exc
    return max(1, min(limit if workers is None else workers, limit))


def random_search(
    n: int,
    target: SearchTarget,
    trials: int,
    seed: int,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
    workers: int | None = None,
) -> SearchRecord:
    """Sample integer vectors with i.i.d. entries and track the minimum.

    Trial i draws from the substream (seed, i); the merge is an
    associative min with a lexicographic tie-break, so the outcome does
    not depend on the number of workers or the chunking.
    """
    _check_inputs([n], trials, entry_bound, target.min_entry)
    workers = _resolve_workers(workers)
    chunks = []
    if workers == 1 or trials < 4 * workers:
        chunks.append((n, target.value, 0, trials, seed, entry_bound))
    else:
        step = (trials + workers - 1) // workers
        for lo in range(0, trials, step):
            chunks.append((n, target.value, lo, min(lo + step, trials), seed, entry_bound))
    if len(chunks) == 1:
        results = [_random_chunk(chunks[0])]
    else:
        # imported here: it loads multiprocessing on every import of radlab
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_random_chunk, chunks))
    best = min((b for b, _ in results if b is not None), default=None)
    if best is None:
        raise SearchInputError("no nonzero vector sampled; increase trials")
    return SearchRecord(
        target=target,
        n=n,
        best_value=DyadicProb(best[0], n),
        witness=CoeffVec(best[1]),
        vectors_examined=sum(seen for _, seen in results),
        mode="random",
        seed=seed,
        bound=entry_bound,
    )


def local_descent(start: CoeffVec, target: SearchTarget, steps: int) -> SearchRecord:
    """Greedy descent over single-entry +-1 perturbations.

    Moves only on strict improvement; equal-value neighbors never cause a
    move, and among improving neighbors the lexicographically smallest
    canonical vector wins, so the walk is deterministic.
    """
    if start.norm_sq == 0:
        raise ZeroNorm("descent needs a nonzero start")
    if target.min_entry == 1 and any(x == 0 for x in start.entries):
        raise NonPositiveEntry("this target requires strictly positive entries")
    current = _score(target, start)
    examined = 1
    for _ in range(steps):
        neighbors: set[tuple[int, ...]] = set()
        for idx in range(start.n):
            for d in (1, -1):
                e = list(current[1])
                e[idx] += d
                if e[idx] < target.min_entry or not any(e):
                    continue
                neighbors.add(canonicalize(e).entries)
        neighbors.discard(current[1])
        best_move = min((_score(target, CoeffVec(e)) for e in sorted(neighbors)), default=None)
        examined += len(neighbors)
        if best_move is None or best_move[0] >= current[0]:
            break
        current = best_move
    return SearchRecord(
        target=target,
        n=start.n,
        best_value=DyadicProb(current[0], start.n),
        witness=CoeffVec(current[1]),
        vectors_examined=examined,
        mode="descent",
        bound=steps,
    )


# hunt's predicate names and the checkers they run; "delta" sweeps every
# threshold pair
HUNT_PREDICATES = {"tomaszewski": "tomaszewski", "pairing": "pairing", "delta": "delta-sweep"}


def hunt(
    predicate: str,
    n_values: Sequence[int],
    budget: int,
    seed: int,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
) -> list[CheckReport]:
    """Drive random vectors through a checker; return every violation.

    The budget is the total number of vectors, split evenly across the
    dimensions (earlier dimensions absorb the remainder).  An empty result
    is the expected outcome; any violation is independently re-checkable
    from its report.  Raises SearchInputError on inputs _check_inputs
    rejects and when every draw was the zero vector, because a hunt that
    evaluated nothing is not a clean pass.
    """
    if predicate not in HUNT_PREDICATES:
        raise SearchInputError(f"unknown predicate {predicate!r}")
    checker = CHECKERS[HUNT_PREDICATES[predicate]]
    n_values = list(n_values)
    _check_inputs(n_values, budget, entry_bound, 0)
    base, rem = divmod(budget, len(n_values))
    keys = (
        (f"{seed}:{n}:{i}", n)
        for pos, n in enumerate(n_values)
        for i in range(base + (1 if pos < rem else 0))
    )
    violations: list[CheckReport] = []
    evaluated = 0
    for vec, _ in seeded_vectors(keys, 0, entry_bound):
        evaluated += 1
        report = checker(vec)
        if report.violated:
            violations.append(report)
    if not evaluated:
        raise SearchInputError("no nonzero vector sampled; increase trials")
    return violations
