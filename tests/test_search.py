"""Search modes: exhaustive sweeps, random probes, descent, hunts, resume."""

import ast
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import nextafter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radlab import cli, search, verify
from radlab.conjectures import CHECKERS, HOLDS, VIOLATED, CheckReport
from radlab.core import MAX_DIMENSION, CoeffVec, canonicalize
from radlab.counting import tail_counts
from radlab.errors import (
    ConjectureFalsified,
    DimensionError,
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
)

from test_cli import QUICK_SHA256


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
        # the region holds 78,392,880 vectors, counted in closed form; the
        # sweep refuses it at entry sum 1024, its first over-cap doubling,
        # with no walk, and a region over the cap at its own bound exactly
        assert canonical_count(3, 1500) == 78392880
        with pytest.raises(TooLarge, match=r"^region holds at least 25003665 canonical vectors \(cap 5000000\)$"):
            exhaustive_integer_search(3, SearchTarget.G, 1500)
        with pytest.raises(TooLarge, match=r"^region holds 10165443 canonical vectors \(cap 5000000\)$"):
            exhaustive_integer_search(20, SearchTarget.G, 64)

    @pytest.mark.parametrize("bound, sums", [(32, [32]), (36, [36]), (64, [64]), (100, [64, 100]),
                                             (300, [64, 128, 256, 300])])
    def test_a_region_is_sized_at_doubling_entry_sums(self, monkeypatch, bound, sums):
        # a bound up to FIRST_SIZING is sized once, at itself; a larger one
        # at 64, 128, ... and then at itself
        exact, sized = search.canonical_count, []
        monkeypatch.setattr(search, "canonical_count", lambda *args: sized.append(args[1]) or exact(*args))
        rec = exhaustive_integer_search(3, SearchTarget.G, bound)
        assert sized == sums
        assert rec.vectors_examined == exact(3, bound)

    @pytest.mark.parametrize("n", [64, 900, 1200])
    def test_oversized_dimension_refused_before_counting(self, monkeypatch, n):
        # no witness of such a region is a CoeffVec, and from n ~ 1000 the
        # walk's recursion would overflow the stack: nothing is counted
        def spy(*args):
            raise AssertionError("canonical_count called")

        monkeypatch.setattr(search, "canonical_count", spy)
        for bound in (3, 16):
            with pytest.raises(DimensionError, match=f"^dimension {n} exceeds cap 63$"):
                exhaustive_integer_search(n, SearchTarget.G, bound)

    @pytest.mark.parametrize("target", [SearchTarget.G, SearchTarget.GPRIME], ids=["min-entry-0", "min-entry-1"])
    def test_a_region_past_the_sizing_bound_is_refused_there(self, monkeypatch, target):
        # a region is sized at entry sums doubling from FIRST_SIZING and
        # refused at the first one over the cap, 2^13 at the latest: no
        # Moebius sum runs past it (the sum at 10^6 took ~10 s)
        exact, table = search.canonical_count, search._mobius_table
        sized, sieved, first_over = [], [], {}
        monkeypatch.setattr(search, "canonical_count", lambda *args: sized.append((args[1], exact(*args))) or sized[-1][1])
        monkeypatch.setattr(search, "_mobius_table", lambda limit: sieved.append(limit) or table(limit))
        for n in range(2, MAX_DIMENSION + 1):
            sized.clear()
            sieved.clear()
            with pytest.raises(TooLarge) as refused:
                exhaustive_integer_search(n, target, 10**6)
            sums, sizes = zip(*sized)
            assert sums == tuple(search.FIRST_SIZING << k for k in range(len(sums))), n
            assert sums[-1] <= 1 << 13
            assert max(sizes[:-1], default=0) <= search.MAX_SWEEP_VECTORS < sizes[-1]
            assert str(refused.value) == f"region holds at least {sizes[-1]} canonical vectors (cap 5000000)"
            assert max(sieved) == sums[-1]
            first_over[n] = sums[-1]
        assert first_over[2] == 1 << 13
        assert max(first_over[n] for n in range(20, MAX_DIMENSION + 1)) <= 2 * search.FIRST_SIZING

    @pytest.mark.parametrize("target", list(SearchTarget))
    def test_one_dimension_is_swept_at_entry_sum_one(self, monkeypatch, target):
        # (1,) is the only canonical 1-vector: a huge bound is walked,
        # sized and ranked at entry sum 1, and the record keeps the bound
        small = exhaustive_integer_search(1, target, 24)
        calls = []
        table = search._mobius_table
        monkeypatch.setattr(search, "_mobius_table", lambda limit: calls.append(limit) or table(limit))
        huge = exhaustive_integer_search(1, target, 10**9)
        assert huge.bound == 10**9 and dataclasses.replace(huge, bound=24) == small
        states = []
        exhaustive_integer_search(1, target, 10**9, checkpoint_every=1, on_checkpoint=states.append)
        assert [(s.bound, s.cursor, s.examined) for s in states] == [(10**9, (1,), 1)]
        assert exhaustive_integer_search(1, target, 10**9, resume=states[0]) == huge
        assert set(calls) == {1}

    def test_best_is_true_minimum(self):
        r = exhaustive_integer_search(3, SearchTarget.T, 8)
        values = [_score(SearchTarget.T, v.entries)[0] for v in canonical_vectors(3, 8)]
        assert r.best_value.count == min(values)
        assert r.vectors_examined == len(values)


ORACLE_BOUND = 24


def _oracle_regions():
    """For every n <= 7 and target, the walk-ordered (key, entry sum) pairs
    of canonical_vectors + _score at the largest bound tested: the region
    of a smaller bound is the pairs with entry sum within it."""
    for n in range(1, 8):
        for target in SearchTarget:
            scored = [(_score(target, v.entries), sum(v.entries))
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
        monkeypatch.setitem(search.G_TABLE, 7, Fraction(1, 4))
        with pytest.raises(ConjectureFalsified) as oracle:
            for vec in canonical_vectors(7, 12):
                _score(SearchTarget.G, vec.entries)
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

    @pytest.mark.parametrize("target", list(SearchTarget), ids=lambda t: t.value)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_checkpoint_matches_the_oracle(self, target, n):
        # checkpoint i holds vector i of the plain walk, the least of the
        # first i keys, and i examined
        keys = [_score(target, v.entries) for v in canonical_vectors(n, 10, target.min_entry)]
        states: list[SearchState] = []
        exhaustive_integer_search(n, target, 10, checkpoint_every=1, on_checkpoint=states.append)
        assert states == [SearchState(target, n, 10, keys[i][1], *min(keys[:i + 1]), i + 1)
                          for i in range(len(keys))]

    @pytest.mark.parametrize("target, n, bound", [
        (SearchTarget.G, 5, 10), (SearchTarget.GPRIME, 5, 12), (SearchTarget.T, 4, 8),
        *((target, n, 6) for n in (1, 2) for target in SearchTarget),
    ], ids=lambda x: getattr(x, "value", x))
    def test_interrupt_at_every_leaf_resumes_exactly(self, monkeypatch, target, n, bound):
        # the sweep takes one isqrt per vector, so call k interrupts vector k;
        # the interrupt reports the state after the last finished run of
        # final entries, which the oracle's (n-1)-prefixes delimit
        full = exhaustive_integer_search(n, target, bound)
        vecs = [v.entries for v in canonical_vectors(n, bound, target.min_entry)]
        keys = [_score(target, v) for v in vecs]
        ends = [i for i in range(1, len(vecs) + 1) if i == len(vecs) or vecs[i][:-1] != vecs[i - 1][:-1]]
        exact = search.isqrt
        for k in range(1, len(vecs) + 1):
            calls = iter(range(1, k + 1))

            def isqrt(x: int) -> int:
                if next(calls) == k:
                    raise KeyboardInterrupt
                return exact(x)

            monkeypatch.setattr(search, "isqrt", isqrt)
            reported: list[SearchState] = []
            with pytest.raises(KeyboardInterrupt):
                exhaustive_integer_search(n, target, bound, on_checkpoint=reported.append)
            monkeypatch.setattr(search, "isqrt", exact)
            seen = max([0] + [i for i in ends if i < k])
            expected = (vecs[seen - 1], *min(keys[:seen])) if seen else (None, None, None)
            assert reported == [SearchState(target, n, bound, *expected, seen)], k
            assert exhaustive_integer_search(n, target, bound, resume=reported[0]) == full

    def test_state_json_roundtrip(self):
        state = SearchState(SearchTarget.G, 5, 10, (2, 1, 1, 0, 0), 9, (1, 1, 1, 0, 0), 17)
        again = SearchState.from_json_dict(state.to_json_dict())
        assert again == state

    @pytest.mark.parametrize("fields, refusal", [
        (((9, 1, 0, 0, 0), None, (1, 1, 1, 0, 0), 86), "holds only some of cursor, best value and witness"),
        (((9, 1, 0, 0), 8, (1, 1, 1, 0, 0), 86), "cursor (9, 1, 0, 0) is not a canonical 5-vector"),
        ((None, None, None, 3), "without a cursor claims 3 vectors examined"),
        (((9, 1, 0, 0, 0), 33, (1, 1, 1, 0, 0), 86), "count 33 is not a count over 2^5"),
        (([9, 1, 0, 0, 0], 8, (1, 1, 1, 0, 0), 86), "entries must be a tuple of integers"),
    ], ids=["witness-without-count", "short-cursor", "examined-without-cursor", "count-past-2^n", "list-cursor"])
    def test_a_state_built_in_code_is_checked_as_it_is_made(self, fields, refusal):
        # cursor, count, witness and examined of the G sweep at n = 5, bound
        # 10, each breaking one shape rule: the state is refused when built,
        # not when a sweep resumes from it
        with pytest.raises(SearchInputError) as refused:
            SearchState(SearchTarget.G, 5, 10, *fields)
        assert refusal in str(refused.value)

    @pytest.mark.parametrize("field", [
        {"cursor": "9,1,0,0,0"}, {"witness": [1, 1, 1, 0, 0]}, {"best_value": 0.25},
        *({"best_value": v} for v in ["0.25", "2.5e-1", "1e1000000000", "2/8", "-1/-4", " 1/4", "1/3", "1/0"]),
    ], ids=lambda field: f"{next(iter(field))}={next(iter(field.values()))!r}")
    def test_a_checkpoint_field_in_another_format_is_refused(self, field):
        # to_json_dict writes the cursor as a list, the witness as "a,b,c"
        # and the best value as the str of a count over 2^n, and nothing
        # else is read: a decimal or an exponent never reaches Fraction,
        # which would build 1e1000000000 as a 10^9-digit integer
        checkpoint = {"target": "G", "n": 5, "bound": 10, "cursor": [9, 1, 0, 0, 0],
                      "best_value": "1/4", "witness": "1,1,1,0,0", "examined": 86}
        assert SearchState.from_json_dict(checkpoint).to_json_dict() == checkpoint
        tracemalloc.start()
        try:
            with pytest.raises(SearchInputError, match="^bad checkpoint field: "):
                SearchState.from_json_dict(dict(checkpoint, **field))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
    """_check_floor takes a value as its count over 2^n."""

    def test_fabricated_violation_aborts(self):
        with pytest.raises(ConjectureFalsified) as info:
            _check_floor(SearchTarget.G, (1, 1, 1, 1, 1, 1, 0), 27)
        assert info.value.args[0] == {"target": "G", "vector": "1,1,1,1,1,1,0", "value": "27/128",
                                      "floor": "7/32"}
        with pytest.raises(ConjectureFalsified):
            _check_floor(SearchTarget.T, (1, 1), 1)
        _check_floor(SearchTarget.G, (1, 1, 1, 1, 1, 1, 0), 28)

    def test_strict_tail_table_checked(self):
        # the G' floor is the proven strict-tail table, 1/4 at n = 5
        with pytest.raises(ConjectureFalsified):
            _check_floor(SearchTarget.GPRIME, (2, 2, 1, 1, 1), 7)
        _check_floor(SearchTarget.GPRIME, (2, 2, 1, 1, 1), 8)
        _check_floor(SearchTarget.GPRIME, tuple([1] * 9), 92)

    def test_g_floor_is_the_g_table(self):
        # 1/2 < G(1) = 1, 1/4 < G(2) = 1/2 and 7/32 < G(5) = 1/4: each
        # value is refused, and each table value itself passes
        for entries, count in (((1,), 1), ((1, 1), 1), ((1, 1, 1, 1, 1), 7)):
            with pytest.raises(ConjectureFalsified):
                _check_floor(SearchTarget.G, entries, count)
            _check_floor(SearchTarget.G, entries, count + 1)

    def test_out_of_range_dimension_not_checked(self):
        _check_floor(SearchTarget.G, tuple([1] * 8), 51)

    def test_half_mass_floor_checked_in_every_dimension(self):
        # proven for every n, so the gate has no dimension cap
        for n in (10, 40):
            with pytest.raises(ConjectureFalsified):
                _check_floor(SearchTarget.T, tuple([1] * n), (1 << n - 1) - 1)
        _check_floor(SearchTarget.T, tuple([1] * 40), 1 << 39)


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
            assert r.best_value.count <= _score(SearchTarget.T, start.entries)[0]


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

    @pytest.mark.parametrize("predicate", sorted(search.HUNT_PREDICATES))
    def test_predicate_agrees_with_its_checker(self, predicate):
        checker, holds = search.HUNT_PREDICATES[predicate]
        trials = 2000 if predicate == "tomaszewski" else 200
        schedule = KeySchedule(7, "{seed}:{n}:{i}", search.split_runs(trials, range(2, 10)), 0, 20)
        ties = 0
        for _, entries, stream in schedule.draws():
            a = CoeffVec(entries)
            assert holds(entries, stream) == (not CHECKERS[checker](a).violated), a
            counts = tail_counts(a)
            ties += counts.below + counts.at == 1 << (a.n - 1)
        # the sample holds vectors that meet the half-mass floor exactly,
        # where a strict inequality would tell them apart
        assert ties

    def test_zero_draws_are_skipped_not_evaluated(self, monkeypatch):
        # at n = 1 with entries 0..1 about half the draws are (0,), which
        # has no norm: the hunt evaluates exactly the nonzero draws, and
        # its predicate never sees a zero
        monkeypatch.setenv("RADLAB_THREADS", "1")
        seen, merged = [], []
        holds, sharded = search._tomaszewski_holds, search.run_sharded
        monkeypatch.setitem(search.HUNT_PREDICATES, "tomaszewski",
                            ("tomaszewski", lambda entries, stream: seen.append(entries) or holds(entries, stream)))
        monkeypatch.setattr(search, "run_sharded", lambda *args: merged.append(sharded(*args)) or merged[-1])
        assert hunt("tomaszewski", [1], 40, seed=7, entry_bound=1) == []
        nonzero = sum(search.Substream(f"7:1:{i}").draws(1, 0, 1) == [1] for i in range(40))
        assert 0 < nonzero < 40
        assert merged == [((nonzero,), [])] and seen == [(1,)] * nonzero

    def test_budget_split(self):
        # budget smaller than the dimension count still runs something
        assert hunt("tomaszewski", range(2, 10), 3, seed=1) == []


def _literal_draws(key, *requests):
    """The draws of key for each (count, lo, hi) in turn, written out from
    the stream's definition: blocks blake2b(key) and blake2b(key,
    person=c), draws of ceil(k / 8) little-endian bytes cut to k bits,
    kept when below the width.  Also returns the blocks the draws read."""
    stream, pos, out = b"", 0, []
    for count, lo, hi in requests:
        width = hi - lo + 1
        k = width.bit_length()
        size = (k + 7) // 8
        kept = []
        while len(kept) < count:
            while pos + size > len(stream):
                c = len(stream) // 64
                stream += hashlib.blake2b(key.encode(), person=c.to_bytes(16, "little")).digest()
            r = int.from_bytes(stream[pos:pos + size], "little") % 2**k
            pos += size
            if r < width:
                kept.append(lo + r)
        out.append(kept)
    return out, -(-pos // 64)


def test_sampler_matches_literal_draws_for_every_key_shape():
    # the key templates of random_search, hunt and the claim suite
    templates = ["{seed}:{k}", "{seed}:{n}:{i}", "{seed}:dim7:{k}", "{seed}:pair:{n}:{i}",
                 "{seed}:xval:{n}:{k}", "{seed}:comb:{k}", "{seed}:dom:{n}:{i}"]
    # the ranges the code draws from, lo == hi, widths 32 and 33 on either
    # side of a power of two, a width of more than 32 bits, and one byte
    # per draw on either side of 255
    ranges = [(0, 2), (0, 9), (0, 20), (0, 50), (1, 20), (1, 50), (0, 0), (3, 3),
              (0, 31), (0, 32), (1, 32), (1, 33), (0, 2**40), (0, 255), (0, 256)]
    # n = 40 and 63 read past block 0 at one byte per draw and half rejected
    runs = tuple((n, 10) for n in range(1, 10)) + ((40, 1), (63, 1))
    blocks_read = {}
    for template, (lo, hi) in product(templates, ranges):
        def after(n):
            # a dominance key draws its two sign masks after the entries;
            # every other key is checked on the next draw in its range
            return (2, 0, 2**n - 1) if ":dom:" in template else (1, lo, hi)

        schedule = KeySchedule(7, template, runs, lo, hi)
        expected = []
        for k, key, n in schedule.keys():
            (entries, tail), blocks = _literal_draws(key, (n, lo, hi), after(n))
            blocks_read[lo, hi, n] = max(blocks, blocks_read.get((lo, hi, n), 0))
            if any(entries):
                expected.append((k, canonicalize(entries).entries, tail))
        # the yielded substream continues where the entry draws stopped
        got = [(k, a, stream.draws(*after(len(a)))) for k, a, stream in schedule.draws()]
        assert got == expected, (template, lo, hi)
        if (lo, hi) == (0, 2):
            assert len(got) < schedule.size  # all-zero draws occurred and were skipped
    # 41-bit draws, half of them rejected, run past block 0 at n = 9, and
    # one-byte draws at lo == hi run past it at n = 63
    assert blocks_read[0, 2**40, 9] >= 2 and blocks_read[3, 3, 63] >= 2


def test_substream_blocks_and_draws_follow_its_definition():
    key = "7:xval:3:5"
    blocks = [hashlib.blake2b(key.encode(), person=c.to_bytes(16, "little")).digest() for c in range(4)]
    assert blocks[0] == hashlib.blake2b(key.encode()).digest()  # a zero personalization is the plain hash
    data = b"".join(blocks)
    # 1-, 2- and 6-byte draws, in batches whose last draws lie in blocks 0,
    # 1 and 2; the 6-byte draw at bytes 60..65 straddles blocks 0 and 1
    for size, (lo, hi), counts in ((1, (3, 202), (40, 40, 40)), (2, (0, 65_000), (20, 20, 30)),
                                   (6, (1, 2**47 - 1), (5, 10, 10))):
        width = hi - lo + 1
        k = width.bit_length()
        assert (k + 7) // 8 == size
        kept = [lo + r for i in range(0, len(data) - size + 1, size)
                if (r := int.from_bytes(data[i:i + size], "little") % 2**k) < width]
        stream = search.Substream(key)
        got, reached = [], []
        for count in counts:
            got += stream.draws(count, lo, hi)
            reached.append(stream.block)
        assert reached == [0, 1, 2], size
        assert got == kept[:sum(counts)]
        # a batch stops at its last kept draw: the next draw is the next kept
        assert stream.draw(lo, hi) == kept[sum(counts)]
        assert search.Substream(key).draw(lo, hi) == search.Substream(key).draws(1, lo, hi)[0] == kept[0]
    assert search.Substream(key).draw(5, 5) == 5
    for empty in (lambda s: s.draws(3, 3, 2), lambda s: s.draw(3, 2)):
        with pytest.raises(ValueError, match="empty entry range"):
            empty(search.Substream(key))


# a draw's range: lo, and a width of 1, 2, 3 or 6 bytes a draw
draw_ranges = st.tuples(
    st.integers(-5, 5),
    st.sampled_from([1, 2, 3, 6]).flatmap(lambda size: st.integers(1 << 8 * size - 8, (1 << 8 * size) - 1)),
).map(lambda r: (r[0], r[0] + r[1] - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 40), draw_ranges), min_size=1, max_size=12),
       draw_ranges)
@example(7, [(40, (3, 202))] * 4, (0, 20))  # one-byte draws into block 2
@example(7, [(20, (0, 65_000))] * 3, (1, 2**48))  # two-byte draws, then a 7-byte one
@example(7, [(9, (1, 2**47 - 1)), (0, (0, 1)), (11, (1, 2**47 - 1))], (5, 5))  # 6-byte draws straddle blocks
def test_draws_match_the_literal_draws(seed, requests, after):
    # each request's kept draws, and the next draw after the sequence
    key = f"{seed}:{len(requests)}"
    calls = [(count, lo, hi) for count, (lo, hi) in requests] + [(1, *after)]
    expected, blocks = _literal_draws(key, *calls)
    stream = search.Substream(key)
    assert [stream.draws(*call) for call in calls] == expected
    # a block is hashed only when a draw reaches it
    assert stream.block == max(blocks - 1, 0)


def test_sampler_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty entry range"):
        list(KeySchedule(7, "{seed}:{k}", ((3, 1),), 3, 2).draws())


def test_no_module_imports_random():
    # every sampled value is read by Substream.draws
    imported = set()
    for path in Path(search.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module.split(".")[0]))
    assert ("search.py", "hashlib") in imported  # the scan sees imports inside functions
    assert not {name for name in imported if name[1] == "random"}


def test_the_probe_clock_starts_after_hashlib_loads():
    # a cold hashlib import timed as the probe's work would pool small samples
    code = "; ".join([
        "from radlab import search",
        "seen = []",
        "search.perf_counter = lambda: seen.append('hashlib' in sys.modules) or 0.0",
        "search._resolve_workers = lambda: 2",
        "search.random_search(6, search.SearchTarget.T, 100, seed=7)",
        "assert seen and seen[0], seen",
    ])
    src = str(Path(search.__file__).parent.parent)
    subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"], check=True)


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
        # a repeated dimension would draw its keys twice
        lambda: hunt("tomaszewski", [3, 3], 10, seed=7),
        lambda: hunt("pairing", [2, 4, 2], 10, seed=7),
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_the_dimension_rule_runs_before_any_draw(two_cpus, workers):
    # each search refuses a dimension below 1 or above the cap at once,
    # with the type it raised when the draw or the count refused it
    two_cpus.setenv("RADLAB_THREADS", workers)

    def no_draws(key):
        raise AssertionError(f"drew key {key!r}")

    two_cpus.setattr(search, "Substream", no_draws)
    for n, error, message in [(0, SearchInputError, "must be >= 1, got 0"),
                              (64, DimensionError, "^dimension 64 exceeds cap 63$"),
                              (30_000_000, DimensionError, "^dimension 30000000 exceeds cap 63$")]:
        for call in (lambda: random_search(n, SearchTarget.T, 10, seed=7),
                     lambda: hunt("tomaszewski", [n], 10, seed=7),
                     lambda: exhaustive_integer_search(n, SearchTarget.G, 24)):
            with pytest.raises(error, match=message):
                call()
    with pytest.raises(DimensionError, match="^dimension 64 exceeds cap 63$"):
        hunt("tomaszewski", [3, 64], 10, seed=7)


def _zero_draw_seed() -> int:
    return next(s for s in range(100) if search.Substream(f"{s}:1:0").draw(0, 1) == 0)


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


def _even_total(entries, stream):
    """The stand-in checker's predicate."""
    return not sum(entries) % 2


class TestSharded:
    # dimensions 1 and 2 with entries in {0, 1}: many draws are all zero
    SCHEDULE = KeySchedule(7, "{seed}:{n}:{i}", ((1, 9), (2, 4), (1, 8)), 0, 1)

    def zero_keys(self) -> set[int]:
        return {k for k, key, n in self.SCHEDULE.keys()
                if not any(search.Substream(key).draws(n, 0, 1))}

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

    def test_a_refused_tomaszewski_hunt_names_its_table_on_any_worker_count(self, two_cpus):
        # the sampled path refuses as tail_counts does, by the engine rule
        raised = []
        for workers in ("1", "2"):
            two_cpus.setenv("RADLAB_THREADS", workers)
            with pytest.raises(TooLarge, match=r"^n=60 with a \d+-bit entry sum: neither engine's table fits$") as info:
                hunt("tomaszewski", [60], 4, 7, 2**30)
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    def test_a_shard_of_zero_draws_is_no_error(self, two_cpus):
        def zero(seed, i):
            return search.Substream(f"{seed}:{i}").draw(0, 1) == 0

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
        two_cpus.setitem(search.HUNT_PREDICATES, "tomaszewski", ("tomaszewski", _even_total))
        # entries in {0, 1} at n = 1, 2: many draws are all zero and skipped
        schedule = KeySchedule(3, "{seed}:{n}:{i}", ((1, 6), (2, 5)), 0, 1)
        expected = [_odd_total_violates(CoeffVec(a)) for _, a, _ in schedule.draws()]
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
        (7, QUICK_SHA256),
        (20261017, "832181acdde0d20e49dd84ad3efb108890aa999c1e90f73702105e69110a0ef9"),
    ], ids=["7", "20261017"])
    def test_quick_report_does_not_depend_on_the_worker_count(self, two_cpus, seed, digest):
        # every sampled claim runs on two workers, and the report bytes
        # are the ones CI pins for a run on one worker
        two_cpus.setenv("RADLAB_THREADS", "2")
        report = verify.verify_paper(seed=seed)
        assert hashlib.sha256(cli.canonical_json_bytes(report)).hexdigest() == digest
