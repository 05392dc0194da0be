"""Search modes: exhaustive sweeps, random probes, descent, hunts, resume."""

import dataclasses
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from radlab import search
from radlab.core import CoeffVec, canonicalize
from radlab.errors import (
    BudgetExceeded,
    ConjectureFalsified,
    NonPositiveEntry,
    RadlabError,
    SearchInputError,
)
from radlab.search import (
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

    def test_seek_after_cursor_is_the_suffix(self):
        for n in range(1, 6):
            for bound in range(11):
                for m in (0, 1):
                    full = [v.entries for v in canonical_vectors(n, bound, m)]
                    for i, c in enumerate(full):
                        seek = [v.entries for v in canonical_vectors(n, bound, m, after=c)]
                        assert seek == full[i + 1:], (n, bound, m, c)

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

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_integer_search(7, SearchTarget.G, 24, max_vectors=10)

    def test_best_is_true_minimum(self):
        r = exhaustive_integer_search(3, SearchTarget.T, 8)
        from radlab.search import evaluate_target

        values = [
            evaluate_target(v, SearchTarget.T).fraction
            for v in canonical_vectors(3, 8)
        ]
        assert r.best_value.fraction == min(values)
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


class TestRandomSearch:
    def test_deterministic(self):
        a = random_search(6, SearchTarget.G, 300, seed=42, workers=1)
        b = random_search(6, SearchTarget.G, 300, seed=42, workers=1)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        a = random_search(6, SearchTarget.G, 200, seed=7, workers=1)
        b = random_search(6, SearchTarget.G, 200, seed=7, workers=2)
        assert a == b

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

    def test_gprime_start_constraint(self):
        with pytest.raises(NonPositiveEntry):
            local_descent(CoeffVec((1, 1, 0)), SearchTarget.GPRIME, 5)

    def test_monotone_progress(self):
        rng = random.Random(91)
        from radlab.search import evaluate_target

        for _ in range(20):
            n = rng.randint(2, 6)
            start = canonicalize([rng.randint(1, 9) for _ in range(n)])
            r = local_descent(start, SearchTarget.T, 30)
            assert r.best_value.fraction <= evaluate_target(start, SearchTarget.T).fraction


class TestWorkers:
    def test_env_caps_parallelism(self, monkeypatch):
        from radlab.search import _resolve_workers

        monkeypatch.setenv("RADLAB_THREADS", "1")
        assert _resolve_workers(None) == 1
        assert _resolve_workers(8) == 1
        monkeypatch.delenv("RADLAB_THREADS")
        assert _resolve_workers(1) == 1
        assert _resolve_workers(None) >= 1

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
    skipped = 0
    for shape in shapes:
        keys = [(shape.format(i=i), 3) for i in range(200)]
        expected = []
        for key, n in keys:
            rng = random.Random(key)
            entries = [rng.randint(0, 2) for _ in range(n)]
            if any(entries):
                expected.append((canonicalize(entries), rng.random()))
        # the yielded substream continues where the entry draws stopped
        got = [(a, rng.random()) for a, rng in seeded_vectors(keys, 0, 2)]
        assert got == expected
        skipped += len(keys) - len(got)
    assert skipped > 0  # all-zero draws occurred and were skipped


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
