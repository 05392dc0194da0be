"""Search modes: exhaustive sweeps, random probes, descent, hunts, resume."""

import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import nextafter

import pytest

from radlab import cli, search, verify
from radlab.conjectures import HOLDS, VIOLATED, CheckReport
from radlab.core import CoeffVec, canonicalize
from radlab.errors import (
    ConjectureFalsified,
    NonPositiveEntry,
    RadlabError,
    SearchInputError,
    TooLarge,
)
from radlab.search import (
    KeySchedule,
    SearchRecord,
    SearchState,
    SearchTarget,
    _check_floor,
    _score,
    canonical_count,
    canonical_vectors,
    estimate_search_size,
    exhaustive_integer_search,
    hunt,
    local_descent,
    random_search,
    run_sharded,
    seeded_vectors,
)


class TestTarget:
    def test_parse(self):
        assert SearchTarget.parse("g") is SearchTarget.G
        assert SearchTarget.parse("Gprime") is SearchTarget.GPRIME
        with pytest.raises(ValueError):
            SearchTarget.parse("X")

    def test_entry_constraints(self):
        assert SearchTarget.T.min_entry == 0
        assert SearchTarget.GPRIME.min_entry == 1


@lru_cache(maxsize=None)
def count_sequences_by_recursion(slots, max_val, budget, min_entry):
    """Oracle: non-increasing tuples of slots entries in [min_entry,
    max_val] with sum <= budget, counted by choosing the first entry."""
    if slots == 0:
        return 1
    total = 0
    hi = min(max_val, budget - (slots - 1) * min_entry)
    for v in range(min_entry, hi + 1):
        total += count_sequences_by_recursion(slots - 1, v, budget - v, min_entry)
    return total


class TestCanonicalVectors:
    def test_each_visited_exactly_once(self):
        got = [v.entries for v in canonical_vectors(3, 6)]
        assert len(got) == len(set(got))
        assert got == sorted(got)

    def test_matches_brute_force_canonical_set(self):
        brute = set()
        for raw in product(range(7), repeat=3):
            if sum(raw) <= 6 and any(raw):
                brute.add(canonicalize(list(raw)).entries)
        # brute set may contain vectors whose canonical form has sum > 6?
        # no: gcd reduction never increases the sum
        assert set(v.entries for v in canonical_vectors(3, 6)) == brute

    def test_min_entry_one(self):
        for v in canonical_vectors(3, 8, min_entry=1):
            assert all(x >= 1 for x in v.entries)

    def test_count_is_exact(self):
        for n in range(1, 7):
            for bound in range(21):
                for m in (0, 1):
                    actual = len(list(canonical_vectors(n, bound, m)))
                    assert canonical_count(n, bound, m) == actual, (n, bound, m)

    def test_rank_is_walk_position(self):
        for n in range(1, 7):
            for bound in range(15):
                for m in (0, 1):
                    for i, c in enumerate(canonical_vectors(n, bound, m)):
                        assert canonical_count(n, bound, m, c.entries) == i + 1, (n, bound, m, c)

    def test_sequence_count_matches_recursion(self):
        for slots in range(7):
            for max_val in range(-1, 14):
                for budget in range(-1, 16):
                    for lo in (0, 1, 2):
                        args = (slots, max_val, budget, lo)
                        assert search._count_sequences(*args) == count_sequences_by_recursion(*args), args

    def test_estimate_upper_bounds_actual(self):
        for n, bound, min_entry in [(3, 6, 0), (4, 9, 0), (4, 9, 1), (2, 5, 1)]:
            actual = sum(1 for _ in canonical_vectors(n, bound, min_entry))
            assert actual <= estimate_search_size(n, bound, min_entry)


class TestExhaustive:
    def test_g7_small_bound(self):
        r = exhaustive_integer_search(7, SearchTarget.G, 12)
        assert r.best_value.fraction == Fraction(7, 32)
        assert r.witness.entries == (1, 1, 1, 1, 1, 1, 0)
        assert r.mode == "exhaustive"

    def test_gprime5(self):
        r = exhaustive_integer_search(5, SearchTarget.GPRIME, 7)
        assert r.best_value.fraction == Fraction(1, 4)
        assert r.witness.entries == (2, 2, 1, 1, 1)

    def test_t2(self):
        r = exhaustive_integer_search(2, SearchTarget.T, 2)
        assert r.best_value.fraction == Fraction(1, 2)
        assert r.witness.entries == (1, 1)

    def test_budget_refusal_of_a_huge_region(self):
        # the region is sized in closed form: 78,392,880 vectors, no walk
        with pytest.raises(TooLarge, match=r"78392880 canonical vectors \(cap 5000000\)"):
            exhaustive_integer_search(3, SearchTarget.G, 1500)

    def test_best_is_true_minimum(self):
        r = exhaustive_integer_search(3, SearchTarget.T, 8)
        values = [_score(SearchTarget.T, v)[0] for v in canonical_vectors(3, 8)]
        assert r.best_value.count == min(values)
        assert r.vectors_examined == len(values)


ORACLE_BOUND = 24


def _oracle_regions():
    """For every n <= 7 and target, the walk-ordered (key, entry sum) pairs
    of canonical_vectors + _score at the largest bound tested: the region
    of a smaller bound is the pairs with entry sum within it."""
    for n in range(1, 8):
        for target in SearchTarget:
            scored = [(_score(target, v), sum(v.entries))
                      for v in canonical_vectors(n, ORACLE_BOUND, target.min_entry)]
            yield n, target, scored


class TestWalkMatchesOracle:
    def test_fresh_and_resumed_sweeps(self):
        rng = random.Random(5)
        for n, target, scored in _oracle_regions():
            for bound in range(ORACLE_BOUND + 1):
                keys = [key for key, total in scored if total <= bound]
                if not keys:
                    with pytest.raises(SearchInputError):
                        exhaustive_integer_search(n, target, bound)
                    continue
                rec = exhaustive_integer_search(n, target, bound)
                assert (rec.best_value.count, rec.witness.entries, rec.vectors_examined) == (
                    *min(keys), len(keys)), (n, target, bound)
                for i in sorted(rng.sample(range(len(keys)), min(2, len(keys)))):
                    count, witness = min(keys[:i + 1])
                    state = SearchState(target, n, bound, keys[i][1], count, witness, i + 1)
                    assert exhaustive_integer_search(n, target, bound, resume=state) == rec

    def test_floor_violation_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(search, "HK_BOUND", Fraction(1, 4))
        with pytest.raises(ConjectureFalsified) as oracle:
            for vec in canonical_vectors(7, 12):
                _score(SearchTarget.G, vec)
        with pytest.raises(ConjectureFalsified) as walk:
            exhaustive_integer_search(7, SearchTarget.G, 12)
        assert walk.value.args == oracle.value.args
        assert walk.value.args[0]["floor"] == "1/4"

    def test_miscounted_walk_is_not_a_clean_pass(self, monkeypatch):
        exact = search.canonical_count
        monkeypatch.setattr(search, "canonical_count", lambda *args: exact(*args) + 1)
        with pytest.raises(RuntimeError, match="examined 86"):
            exhaustive_integer_search(5, SearchTarget.G, 10)


class TestResume:
    def test_interrupted_run_resumes_exactly(self):
        full = exhaustive_integer_search(5, SearchTarget.G, 10)

        captured: list[SearchState] = []

        def interrupt_once(state: SearchState) -> None:
            captured.append(state)
            if len(captured) == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            exhaustive_integer_search(
                5, SearchTarget.G, 10, checkpoint_every=20, on_checkpoint=interrupt_once
            )
        state = captured[-1]
        assert state.examined < full.vectors_examined
        resumed = exhaustive_integer_search(5, SearchTarget.G, 10, resume=state)
        assert resumed == full

    def test_resume_from_every_checkpoint(self):
        for target, bound in ((SearchTarget.G, 10), (SearchTarget.GPRIME, 12)):
            full = exhaustive_integer_search(5, target, bound)
            states: list[SearchState] = []
            exhaustive_integer_search(5, target, bound, checkpoint_every=1, on_checkpoint=states.append)
            assert len(states) == full.vectors_examined
            for state in states:
                again = SearchState.from_json_dict(json.loads(json.dumps(state.to_json_dict())))
                assert again == state
                assert exhaustive_integer_search(5, target, bound, resume=again) == full

    def test_state_json_roundtrip(self):
        state = SearchState(SearchTarget.G, 5, 10, (2, 1, 1, 0, 0), 9, (1, 1, 1, 0, 0), 17)
        again = SearchState.from_json_dict(state.to_json_dict())
        assert again == state

    def test_mismatched_state_rejected(self):
        state = SearchState(SearchTarget.G, 5, 10, None, None, None, 0)
        with pytest.raises(ValueError):
            exhaustive_integer_search(5, SearchTarget.T, 10, resume=state)

    def test_negative_checkpoint_interval_rejected(self):
        # a negative interval used to be no error: the walk never reached it
        with pytest.raises(SearchInputError, match="checkpoint_every must be >= 0, got -3"):
            exhaustive_integer_search(4, SearchTarget.G, 6, checkpoint_every=-3, on_checkpoint=print)


class TestRandomSearch:
    def test_deterministic(self, monkeypatch):
        monkeypatch.setenv("RADLAB_THREADS", "1")
        a = random_search(6, SearchTarget.G, 300, seed=42)
        b = random_search(6, SearchTarget.G, 300, seed=42)
        assert a == b

    def test_worker_count_does_not_change_result(self, two_cpus):
        # every sample pools on two workers after a probe of key 0, and 7,
        # 8 and 9 trials leave the two shards even and uneven
        for target in SearchTarget:
            for trials in (7, 8, 9):
                records = []
                for workers in ("1", "2"):
                    two_cpus.setenv("RADLAB_THREADS", workers)
                    records.append(random_search(6, target, trials, seed=7))
                assert records[0] == records[1]

    def test_single_trial(self):
        r = random_search(4, SearchTarget.T, 1, seed=5)
        assert r.vectors_examined <= 1

    def test_floor_never_crossed(self):
        r = random_search(7, SearchTarget.G, 500, seed=3)
        assert r.best_value.fraction >= Fraction(7, 32)
        r = random_search(5, SearchTarget.T, 500, seed=3)
        assert r.best_value.fraction >= Fraction(1, 2)

    def test_gprime_entries_positive(self):
        r = random_search(4, SearchTarget.GPRIME, 50, seed=1, entry_bound=5)
        assert all(x >= 1 for x in r.witness.entries)


class TestFloors:
    def test_fabricated_violation_aborts(self):
        with pytest.raises(ConjectureFalsified):
            _check_floor(SearchTarget.G, CoeffVec((1, 1, 1, 1, 1, 1, 0)), Fraction(1, 5))
        with pytest.raises(ConjectureFalsified):
            _check_floor(SearchTarget.T, CoeffVec((1, 1)), Fraction(1, 3))

    def test_strict_tail_table_checked(self):
        # the G' floor is the proven strict-tail table, 1/4 at n = 5
        with pytest.raises(ConjectureFalsified):
            _check_floor(SearchTarget.GPRIME, CoeffVec((2, 2, 1, 1, 1)), Fraction(1, 5))
        _check_floor(SearchTarget.GPRIME, CoeffVec((2, 2, 1, 1, 1)), Fraction(1, 4))
        _check_floor(SearchTarget.GPRIME, CoeffVec(tuple([1] * 9)), Fraction(23, 128))

    def test_out_of_range_dimension_not_checked(self):
        _check_floor(SearchTarget.G, CoeffVec(tuple([1] * 8)), Fraction(1, 5))

    def test_half_mass_floor_checked_in_every_dimension(self):
        # proven for every n, so the gate has no dimension cap
        for n in (10, 40):
            with pytest.raises(ConjectureFalsified):
                _check_floor(SearchTarget.T, CoeffVec(tuple([1] * n)), Fraction(1, 3))
        _check_floor(SearchTarget.T, CoeffVec(tuple([1] * 40)), Fraction(1, 2))


class TestDescent:
    def test_uniform_seven_descends(self):
        start = CoeffVec((1, 1, 1, 1, 1, 1, 1))
        r = local_descent(start, SearchTarget.G, 50)
        assert r.best_value.fraction <= Fraction(29, 64)  # the start value
        assert r.best_value.fraction >= Fraction(7, 32)

    def test_extremal_is_local_minimum(self):
        start = CoeffVec((1, 1, 1, 1, 1, 1, 0))
        r = local_descent(start, SearchTarget.G, 50)
        assert r.witness == start
        assert r.best_value.fraction == Fraction(7, 32)

    def test_zero_steps(self):
        start = CoeffVec((2, 1, 1))
        r = local_descent(start, SearchTarget.G, 0)
        assert r.witness == start and r.vectors_examined == 1

    def test_negative_steps_rejected(self):
        with pytest.raises(SearchInputError, match="steps must be >= 0, got -5"):
            local_descent(CoeffVec((2, 2, 1, 1, 1)), SearchTarget.G, -5)

    def test_gprime_start_constraint(self):
        with pytest.raises(NonPositiveEntry):
            local_descent(CoeffVec((1, 1, 0)), SearchTarget.GPRIME, 5)

    def test_monotone_progress(self):
        rng = random.Random(91)
        for _ in range(20):
            n = rng.randint(2, 6)
            start = canonicalize([rng.randint(1, 9) for _ in range(n)])
            r = local_descent(start, SearchTarget.T, 30)
            assert r.best_value.count <= _score(SearchTarget.T, start)[0]


class TestWorkers:
    def test_env_caps_parallelism(self, monkeypatch):
        from radlab.search import _resolve_workers

        monkeypatch.setenv("RADLAB_THREADS", "1")
        assert _resolve_workers() == 1
        monkeypatch.setenv("RADLAB_THREADS", "1000000")
        if hasattr(search.os, "sched_getaffinity"):
            assert _resolve_workers() == len(search.os.sched_getaffinity(0))
        else:
            assert _resolve_workers() == (search.os.cpu_count() or 1)
        monkeypatch.delenv("RADLAB_THREADS")
        assert _resolve_workers() >= 1

    def test_workers_count_the_cpus_this_process_may_use(self, monkeypatch):
        # a process pinned to 2 of 64 CPUs starts at most 2 workers
        from radlab.search import _resolve_workers

        monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)
        monkeypatch.delenv("RADLAB_THREADS", raising=False)
        assert _resolve_workers() == 2
        monkeypatch.setenv("RADLAB_THREADS", "8")
        assert _resolve_workers() == 2
        monkeypatch.delattr(search.os, "sched_getaffinity")
        assert _resolve_workers() == 8

    def test_bad_env_is_input_error(self, monkeypatch):
        monkeypatch.setenv("RADLAB_THREADS", "abc")
        with pytest.raises(SearchInputError, match="RADLAB_THREADS"):
            random_search(3, SearchTarget.G, 5, seed=0)


class TestHunt:
    def test_tomaszewski_clean(self):
        assert hunt("tomaszewski", range(2, 6), 400, seed=9) == []

    def test_pairing_clean(self):
        assert hunt("pairing", range(2, 6), 200, seed=9) == []

    def test_delta_clean(self):
        assert hunt("delta", range(2, 6), 80, seed=9) == []

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            hunt("nope", [3], 10, seed=0)

    def test_budget_split(self):
        # budget smaller than the dimension count still runs something
        assert hunt("tomaszewski", range(2, 10), 3, seed=1) == []


def test_sampler_matches_literal_draws_for_every_key_shape():
    # the substream key shapes of random_search, hunt and the claim suite
    shapes = ["7:{i}", "7:3:{i}", "7:dim7:{i}", "7:pair:3:{i}", "7:xval:3:{i}"]
    # the ranges the code draws from, lo == hi, widths 32 and 33 on either
    # side of a power of two, and a width of more than 32 bits
    ranges = [(0, 2), (0, 20), (0, 50), (1, 20), (1, 50), (0, 0), (3, 3),
              (0, 31), (0, 32), (1, 32), (1, 33), (0, 2**40)]
    for shape, (lo, hi) in product(shapes, ranges):
        keys = [(shape.format(i=i), 1 + i % 9) for i in range(90)]
        expected = []
        for key, n in keys:
            rng = random.Random(key)
            entries = [rng.randint(lo, hi) for _ in range(n)]
            if any(entries):
                expected.append((canonicalize(entries), rng.random()))
        # the yielded substream continues where the entry draws stopped
        got = [(a, rng.random()) for a, rng in seeded_vectors(keys, lo, hi)]
        assert got == expected, (shape, lo, hi)
        if (lo, hi) == (0, 2):
            assert len(got) < len(keys)  # all-zero draws occurred and were skipped


def test_sampler_rejects_an_empty_range():
    with pytest.raises(ValueError):
        random.Random("7:0").randint(3, 2)
    with pytest.raises(ValueError, match="empty entry range"):
        list(seeded_vectors([("7:0", 3)], 3, 2))


def test_input_errors_are_typed():
    # one class, both a library error and the ValueError these used to be
    assert issubclass(SearchInputError, RadlabError)
    assert issubclass(SearchInputError, ValueError)
    state = SearchState(SearchTarget.G, 5, 10, None, None, None, 0)
    # the checkpoint a real G sweep (n=5, bound 10) could write
    checkpoint = {"target": "G", "n": 5, "bound": 10, "cursor": [9, 1, 0, 0, 0],
                  "best_value": "1/4", "witness": "1,1,1,0,0", "examined": 86}
    good = SearchState.from_json_dict(checkpoint)
    assert exhaustive_integer_search(5, SearchTarget.G, 10, resume=good).best_value.count == 8

    def resume_from(**changes) -> SearchRecord:
        return exhaustive_integer_search(5, SearchTarget.G, 10, resume=dataclasses.replace(good, **changes))

    calls = [
        lambda: SearchTarget.parse("X"),
        lambda: hunt("nope", [3], 10, seed=0),
        lambda: random_search(3, SearchTarget.T, 0, seed=0),
        lambda: random_search(3, SearchTarget.T, 1, seed=0, entry_bound=0),
        lambda: random_search(0, SearchTarget.T, 10, seed=0),
        lambda: random_search(3, SearchTarget.GPRIME, 10, seed=0, entry_bound=0),
        lambda: hunt("tomaszewski", [], 10, seed=0),
        lambda: hunt("tomaszewski", [3, 0], 10, seed=0),
        lambda: hunt("tomaszewski", [3], 0, seed=0),
        lambda: hunt("tomaszewski", [3], 10, seed=0, entry_bound=0),
        lambda: hunt("tomaszewski", [3], 10, seed=0, entry_bound=-1),
        # a single trial whose one entry is drawn as 0 evaluates nothing
        lambda: hunt("tomaszewski", [1], 1, seed=_zero_draw_seed(), entry_bound=1),
        lambda: exhaustive_integer_search(5, SearchTarget.T, 10, resume=state),
        # a best value that is no count over 2^5 and a 2-vector witness
        lambda: SearchState.from_json_dict(dict(checkpoint, best_value="1/3", witness="1,1")),
        lambda: SearchState.from_json_dict(dict(checkpoint, witness="1,1")),
        lambda: SearchState.from_json_dict(dict(checkpoint, cursor=[2, 1])),
        lambda: SearchState.from_json_dict(dict(checkpoint, cursor=[1, 2, 0, 0, 0])),
        lambda: SearchState.from_json_dict(dict(checkpoint, witness=None)),
        lambda: SearchState.from_json_dict(dict(checkpoint, best_value=None)),
        lambda: SearchState.from_json_dict(dict(checkpoint, best_value="33/32")),
        lambda: SearchState.from_json_dict(dict(checkpoint, n="5")),
        lambda: SearchState.from_json_dict(dict(checkpoint, examined=-7)),
        lambda: SearchState.from_json_dict([checkpoint]),
        lambda: SearchState.from_json_dict("G"),
        *[lambda k=k: SearchState.from_json_dict({x: v for x, v in checkpoint.items() if x != k})
          for k in ("target", "n", "bound", "examined")],
        lambda: SearchState.from_json_dict(dict(checkpoint, best_value="a quarter")),
        lambda: SearchState.from_json_dict(dict(checkpoint, best_value="1/0")),
        lambda: SearchState.from_json_dict(dict(checkpoint, best_value=[1, 4])),
        lambda: SearchState.from_json_dict({"target": 5, "n": 3, "bound": 5, "examined": 0}),
        # (1,1,1,0,0) has G count 8, not 9
        lambda: resume_from(best_count=9),
        # the cursor (9,1,0,0,0) is the region's last vector, vector 86 of the walk
        lambda: resume_from(examined=3),
        lambda: exhaustive_integer_search(5, SearchTarget.G, 10,
                                          resume=dataclasses.replace(state, examined=5)),
        lambda: exhaustive_integer_search(0, SearchTarget.G, 10),
        lambda: resume_from(cursor=(9, 2, 0, 0, 0)),
        lambda: resume_from(cursor=(1, 1, 1, 0, 0), witness=(2, 1, 1, 0, 0)),
        lambda: resume_from(cursor=(2, 1, 1, 0, 0), witness=None),
        lambda: resume_from(cursor=(2, 1, 1, 0, 0), best_count=None, witness=(1, 1, 1, 0, 0)),
        # zero entries lie outside the all-positive region
        lambda: exhaustive_integer_search(
            5, SearchTarget.GPRIME, 10, resume=dataclasses.replace(good, target=SearchTarget.GPRIME)
        ),
        lambda: exhaustive_integer_search(3, SearchTarget.GPRIME, 2),
    ]
    for call in calls:
        with pytest.raises(SearchInputError):
            call()
    # rejected for its count alone: everything else in it is the real checkpoint's
    with pytest.raises(SearchInputError, match="cursor \\(9, 1, 0, 0, 0\\) is vector 86 of the walk"):
        resume_from(examined=3)


def _zero_draw_seed() -> int:
    return next(s for s in range(100) if random.Random(f"{s}:1:0").randint(0, 1) == 0)


def _flag_shard(schedule, shard, shards, flagged):
    """Records (k, key) for the flagged key indices of one shard, whether
    or not their draw is all zero."""
    keys = list(schedule.keys(shard, shards))
    return (len(keys),), [(k, key) for k, key, _ in keys if k in flagged]


def _raise_shard(schedule, shard, shards, error, at, log):
    """Appends its process id and (shard, shards) to the file ``log``, then
    raises at the shard's first key index in ``at``."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {shard} {shards}\n")
    for k, _, _ in schedule.keys(shard, shards):
        if k in at:
            raise error(f"raised at key {k}")
    return (0,), []


def _shards_seen(schedule, shard, shards, calls):
    """Records (shard, shards) in ``calls``, which a worker's copy keeps
    to itself, and returns it as its one record."""
    calls.append((shard, shards))
    return (1,), [(shard, shards)]


def _pid_shard(schedule, shard, shards):
    return (1,), [(shard, os.getpid())]


def _exit_shard(schedule, shard, shards, parent):
    """Ends any process but ``parent`` at once, as a crashed worker ends."""
    if os.getpid() != parent:
        os._exit(1)
    return (0,), []


def _dims_seen(schedule, shard, shards, seen):
    """Records (shards, n) in ``seen`` for each key it deals."""
    seen.extend((shards, n) for _, _, n in schedule.keys(shard, shards))
    return (0,), []


# the probe's stride on two workers, size // 16, for a sample of 4,096 to
# 4,111 keys: it deals keys 0, PROBED, 2 * PROBED, ...
PROBED = 256


def _cost(n):
    """A cross-check-like cost of one key, 60 us + 0.255 us * 2^n."""
    return (60 + 0.255 * 2**n) / 1e6


def _costed_shard(schedule, shard, shards, clock, seen):
    """Advances ``clock`` by ``_cost`` of each key it deals, and records
    (shard, shards, k) in ``seen``."""
    for k, _, n in schedule.keys(shard, shards):
        clock[0] += _cost(n)
        seen.append((shard, shards, k))
    return (1,), []


def _seen_shard(schedule, shard, shards, seen, at):
    """Records the key indices it deals in ``seen``, and raises at the
    first in ``at``."""
    for k, _, _ in schedule.keys(shard, shards):
        seen.append(k)
        if k in at:
            raise SearchInputError(f"raised at key {k}")
    return (1,), []


class _InlinePool:
    """A stand-in ProcessPoolExecutor that maps in this process and
    records its size in ``sizes``."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def _odd_total_violates(a):
    """A stand-in checker that reports every vector of odd entry sum."""
    return CheckReport("tomaszewski", a, VIOLATED if a.total % 2 else HOLDS)


class TestSharded:
    # dimensions 1 and 2 with entries in {0, 1}: many draws are all zero
    SCHEDULE = KeySchedule(7, "{seed}:{n}:{i}", ((1, 9), (2, 4), (1, 8)), 0, 1)

    def zero_keys(self) -> set[int]:
        return {k for k, key, n in self.SCHEDULE.keys()
                if not any(random.Random(key).randint(0, 1) for _ in range(n))}

    def test_keys_are_the_written_out_schedules(self):
        keys = [(key, n) for _, key, n in self.SCHEDULE.keys()]
        assert keys == ([(f"7:1:{i}", 1) for i in range(9)] + [(f"7:2:{i}", 2) for i in range(4)]
                        + [(f"7:1:{i}", 1) for i in range(8)])
        by_k = KeySchedule(5, "{seed}:xval:{n}:{k}", ((2, 3), (3, 2)), 0, 20)
        assert [key for _, key, _ in by_k.keys()] == [
            "5:xval:2:0", "5:xval:2:1", "5:xval:2:2", "5:xval:3:3", "5:xval:3:4"]
        with pytest.raises(ValueError, match="does not end in"):
            list(KeySchedule(5, "{seed}:{n}", ((2, 3),), 0, 20).keys())
        # shard s of S deals exactly the indices k = s mod S, ascending
        size = self.SCHEDULE.size
        for shards in (1, 2, 3, 5, size + 2):
            for shard in range(shards):
                dealt = [k for k, _, _ in self.SCHEDULE.keys(shard, shards)]
                assert dealt == list(range(shard, size, shards))
        zeros = self.zero_keys()
        assert [k for k, _, _ in self.SCHEDULE.draws()] == [k for k in range(size) if k not in zeros]
        assert KeySchedule.__slots__ == ("seed", "template", "runs", "lo", "hi")

    def test_records_come_back_in_key_order(self, two_cpus):
        zeros = self.zero_keys()
        assert zeros and len(zeros) < self.SCHEDULE.size
        flagged = frozenset({0, 3, 8, 9, 12, 20} | set(sorted(zeros)[:3]))
        expected = ((self.SCHEDULE.size,), [(k, key) for k, key, _ in self.SCHEDULE.keys() if k in flagged])
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            assert run_sharded(_flag_shard, self.SCHEDULE, flagged) == expected
        assert not multiprocessing.active_children()

    def test_probed_keys_are_dealt_once(self, two_cpus):
        # on two workers the probe deals 0, 258, 516, ... and its result is
        # discarded; shard 0 deals every even key: each is counted once
        schedule = KeySchedule(5, "{seed}:{n}:{i}", ((1, 8 * PROBED + 44), (2, 8 * PROBED)), 0, 1)
        stride = schedule.size // 16
        flagged = frozenset({0, 1, stride - 2, stride - 1, stride, stride + 1, 2 * stride, schedule.size - 1})
        expected = ((schedule.size,), [(k, key) for k, key, _ in schedule.keys() if k in flagged])
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            assert run_sharded(_flag_shard, schedule, flagged) == expected

    @pytest.mark.parametrize("error", [SearchInputError, TooLarge])
    @pytest.mark.parametrize("at, first, pooled", [(frozenset(range(21)), 0, False),
                                                   (frozenset({3, 4, 9}), 3, True)],
                             ids=["every-key", "odd-shard-first"])
    def test_errors_cross_the_pool_unchanged(self, two_cpus, tmp_path, error, at, first, pooled):
        # the caller sees the error at the lowest key index, as one process
        # raises it: when the probe (keys 0, 8, 16) raises at key 0, and when
        # both pooled shards raise, shard 1 at key 3 and shard 0 at key 4
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            log = tmp_path / f"calls-{workers}"
            with pytest.raises(error) as info:
                run_sharded(_raise_shard, self.SCHEDULE, error, at, log)
            assert type(info.value) is error and str(info.value) == f"raised at key {first}"
        assert not multiprocessing.active_children()
        calls = [tuple(map(int, line.split())) for line in (tmp_path / "calls-2").read_text().splitlines()]
        here = os.getpid()
        # the probe and the one call here, after the two shards ran in workers
        expected = [(here, 0, 8), (here, 0, 1)]
        if pooled:
            assert sorted((shard, shards) for pid, shard, shards in calls[1:-1] if pid != here) == [(0, 2), (1, 2)]
            calls = [calls[0], calls[-1]]
        assert calls == expected

    @pytest.mark.parametrize("at, first", [({3, PROBED}, 3), ({PROBED - 2, PROBED}, PROBED - 2),
                                           ({PROBED - 1, PROBED}, PROBED - 1), ({PROBED, PROBED + 1}, PROBED)],
                             ids=["part-1-early", "part-0-just-below", "part-1-just-below", "probe-first"])
    def test_a_probed_error_loses_to_a_lower_key(self, two_cpus, at, first):
        # on two workers the probe raises at key PROBED, which this process
        # evaluates before the pool starts; the error at the lowest key
        # index still wins, as in one process
        schedule = KeySchedule(7, "{seed}:{n}:{i}", ((1, 16 * PROBED + 9),), 0, 1)
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            with pytest.raises(SearchInputError) as info:
                run_sharded(_seen_shard, schedule, [], frozenset(at))
            assert str(info.value) == f"raised at key {first}"
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("at", [0, PROBED])
    def test_after_a_probed_error_only_lower_keys_run(self, two_cpus, at):
        # the probe, keys 0 modulo PROBED, raises at key `at`: no pool
        # starts, and the sample runs as one call here, which deals the
        # keys up to `at` and raises there, whatever MIN_SHARD_S is
        two_cpus.setenv("RADLAB_THREADS", "2")
        two_cpus.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        two_cpus.setattr(_InlinePool, "sizes", [])
        schedule = KeySchedule(7, "{seed}:{n}:{i}", ((1, 16 * PROBED),), 0, 1)
        for least in (1e-9, float("inf")):
            two_cpus.setattr(search, "MIN_SHARD_S", least)
            seen = []
            with pytest.raises(SearchInputError, match=f"raised at key {at}$"):
                run_sharded(_seen_shard, schedule, seen, {at})
            assert seen == [*range(0, at + 1, PROBED), *range(at + 1)]
        assert _InlinePool.sizes == []

    def test_after_a_pooled_error_the_sample_reruns_here(self, two_cpus):
        # shard 0 raises at key PROBED + 4 first, and shard 1 never runs on
        # the stand-in pool; the call here deals the keys up to the lowest
        # error, shard 1's at PROBED + 1, and raises it
        two_cpus.setenv("RADLAB_THREADS", "2")
        two_cpus.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        two_cpus.setattr(_InlinePool, "sizes", [])
        schedule = KeySchedule(7, "{seed}:{n}:{i}", ((1, 16 * PROBED),), 0, 1)
        seen = []
        with pytest.raises(SearchInputError, match=f"raised at key {PROBED + 1}$"):
            run_sharded(_seen_shard, schedule, seen, {PROBED + 1, PROBED + 4})
        assert _InlinePool.sizes == [2]
        assert seen == [*range(0, 16 * PROBED, PROBED), *range(0, PROBED + 5, 2), *range(PROBED + 2)]

    def test_a_broken_pool_is_not_rerun(self, two_cpus):
        # a worker that dies breaks the pool: that is raised, not hidden by
        # a call here
        two_cpus.setenv("RADLAB_THREADS", "2")
        with pytest.raises(concurrent.futures.BrokenExecutor):
            run_sharded(_exit_shard, self.SCHEDULE, os.getpid())
        assert not multiprocessing.active_children()

    def test_a_pool_starts_from_two_shards_of_estimated_work(self, monkeypatch):
        # a fake clock: the probe, one call on the stride max(4 W, size // 16),
        # deals `probed` of the `size` keys and reads `elapsed`, so the
        # sample is estimated at size / probed * elapsed; 2 * MIN_SHARD_S of
        # that is the least that runs on two workers, and less runs here
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("RADLAB_THREADS", "2")
        for size, stride, probed in ((16 * PROBED, PROBED, 16), (16 * PROBED + 9, PROBED, 17),
                                     (520, 32, 17), (8, 8, 1)):
            schedule = KeySchedule(7, "{seed}:{n}:{i}", ((4, size),), 0, 20)
            boundary = 2 * search.MIN_SHARD_S * probed / size
            for elapsed, result, here in ((nextafter(boundary, 0), [(0, 1)], [(0, stride), (0, 1)]),
                                          (boundary, [(0, 2), (1, 2)], [(0, stride)])):
                clock = iter((0.0, elapsed))
                monkeypatch.setattr(search, "perf_counter", lambda: next(clock))
                # the probe's record is discarded, and the pooled shards' calls
                # are recorded only in the workers
                calls = []
                assert run_sharded(_shards_seen, schedule, calls) == ((len(result),), result)
                assert calls == here
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("workers", [2, 4, 8, 16])
    def test_a_sample_whose_costly_keys_come_last_pools(self, monkeypatch, workers):
        # the engine cross-check's shape: 70 keys at each n = 2..14, then
        # 15 at each n = 15..20, which carry ~93% of its ~8.5 s on a fake
        # clock; the probe deals some of those, so the sample pools on
        # every worker, and shard j of W deals exactly the keys j modulo W
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        monkeypatch.setenv("RADLAB_THREADS", str(workers))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        clock, seen = [0.0], []
        monkeypatch.setattr(search, "perf_counter", lambda: clock[0])
        runs = tuple((n, 70) for n in range(2, 15)) + tuple((n, 15) for n in range(15, 21))
        schedule = KeySchedule(7, "{seed}:xval:{n}:{k}", runs, 0, 20)
        assert run_sharded(_costed_shard, schedule, clock, seen) == ((workers,), [])
        assert _InlinePool.sizes == [workers]
        stride = max(4 * workers, 1000 // 16)
        probe = [k for _, shards, k in seen if shards == stride]
        assert probe == list(range(0, 1000, stride))
        for shard in range(workers):
            assert [k for j, shards, k in seen if (j, shards) == (shard, workers)] == list(range(shard, 1000, workers))
        assert len(seen) == len(probe) + 1000
        n_of = [n for _, _, n in schedule.keys()]
        assert clock[0] == pytest.approx(sum(map(_cost, n_of)) + sum(_cost(n_of[k]) for k in probe))
        assert 8.4 < sum(map(_cost, n_of)) < 8.6

    @pytest.mark.parametrize("workers", [11, 22])
    def test_the_probe_sees_costs_that_repeat_with_the_worker_count(self, monkeypatch, workers):
        # the random subset-count claim's schedule, whose n = 2 + k % 11
        # repeats every 11 keys: a stride that is a multiple of W = 11 or 22
        # would deal only n = 2, but the probe's stride does not follow W
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        monkeypatch.setenv("RADLAB_THREADS", str(workers))
        monkeypatch.setattr(search, "MIN_SHARD_S", float("inf"))
        schedule = KeySchedule(7, "{seed}:comb:{k}", tuple((2 + i % 11, 1) for i in range(10_000)), 1, 20)
        seen = []
        run_sharded(_dims_seen, schedule, seen)
        assert {n for shards, n in seen if shards != 1} == set(range(2, 13))

    def test_a_refused_hunt_raises_the_same_error_from_a_worker(self, two_cpus):
        # 30-bit entries at n = 60: no sum table fits, refused per vector
        raised = []
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            with pytest.raises(TooLarge) as info:
                hunt("tomaszewski", [60], 8, seed=1, entry_bound=2**30)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] and raised[0][0] is TooLarge

    def test_a_shard_of_zero_draws_is_no_error(self, two_cpus):
        def zero(seed, i):
            return random.Random(f"{seed}:{i}").randint(0, 1) == 0

        # shard 1 of 2 draws keys 1, 3, 5, 7: all zero, while shard 0 is not
        seed = next(s for s in range(1000)
                    if all(zero(s, i) for i in (1, 3, 5, 7)) and not all(zero(s, i) for i in (0, 2, 4, 6)))
        records = []
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            records.append(random_search(1, SearchTarget.T, 8, seed=seed, entry_bound=1))
        assert records[0] == records[1]
        assert records[0].vectors_examined == sum(not zero(seed, i) for i in (0, 2, 4, 6))
        # the check runs once, on the merged count
        seed = next(s for s in range(5000) if all(zero(s, i) for i in range(8)))
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            with pytest.raises(SearchInputError, match="no nonzero vector sampled"):
                random_search(1, SearchTarget.T, 8, seed=seed, entry_bound=1)

    @pytest.mark.parametrize("seed", [7, 11, 20261017])
    def test_searches_and_hunts_do_not_depend_on_the_worker_count(self, two_cpus, seed):
        # on two workers, the probe takes key 0 and 9 trials leave uneven shards
        for trials in (7, 8, 9):
            runs = []
            for workers in ("1", "2"):
                two_cpus.setenv("RADLAB_THREADS", workers)
                runs.append([random_search(5, target, trials, seed=seed) for target in SearchTarget]
                            + [hunt(p, range(2, 6), trials, seed=seed) for p in search.HUNT_PREDICATES])
            assert runs[0] == runs[1]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stand-in checker reaches workers only through fork")
    def test_hunt_violations_come_back_in_key_order(self, two_cpus):
        two_cpus.setitem(search.CHECKERS, "tomaszewski", _odd_total_violates)
        # entries in {0, 1} at n = 1, 2: many draws are all zero and skipped
        keys = [(f"3:{n}:{i}", n) for n, count in ((1, 6), (2, 5)) for i in range(count)]
        expected = [_odd_total_violates(a) for a, _ in seeded_vectors(keys, 0, 1)]
        expected = [r for r in expected if r.violated]
        assert expected
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            assert hunt("tomaszewski", [1, 2], 11, seed=3, entry_bound=1) == expected

    def test_shards_run_under_spawn(self, two_cpus):
        # a spawned worker starts from a fresh import: everything it needs
        # travels in its arguments
        two_cpus.setenv("RADLAB_THREADS", "1")
        serial = random_search(5, SearchTarget.G, 9, seed=7)
        two_cpus.setenv("RADLAB_THREADS", "2")
        spawn = multiprocessing.get_context("spawn")
        two_cpus.setattr(concurrent.futures, "ProcessPoolExecutor",
                         functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=spawn))
        # a spy on the calls made here: it pickles as the function it wraps,
        # which a spawned worker imports unwrapped
        calls = []

        @functools.wraps(search._random_shard)
        def spy(schedule, shard, shards, *args):
            calls.append((shard, shards))
            return spy.__wrapped__(schedule, shard, shards, *args)

        two_cpus.setattr(search, "_random_shard", spy)
        assert random_search(5, SearchTarget.G, 9, seed=7) == serial
        assert calls == [(0, 8)]  # the probe alone: the shards ran in workers
        (shards,), pids = run_sharded(_pid_shard, KeySchedule(7, "{seed}:{k}", ((5, 9),), 0, 20))
        assert shards == 2 and [j for j, _ in pids] == [0, 1] and os.getpid() not in {pid for _, pid in pids}
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("seed, digest", [
        (7, "9d12138116218ae7964b2a98a17e5ccefe65a0da3ee8fdbd0046d0bb2037cbf6"),
        (20261017, "fe9ebe3915f24c1a90263f1c67dd4d47451781aaf1ad27a08f7576ac6fc3c48c"),
    ], ids=["7", "20261017"])
    def test_quick_report_does_not_depend_on_the_worker_count(self, two_cpus, seed, digest):
        # every sampled claim runs on two workers, and the report bytes
        # are the ones CI pins for a run on one worker
        two_cpus.setenv("RADLAB_THREADS", "2")
        report = verify.verify_paper(seed=seed)
        assert hashlib.sha256(cli.canonical_json_bytes(report)).hexdigest() == digest
