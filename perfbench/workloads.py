"""The four seeded workloads of the radlab benchmark.

Each workload builds a ``Plan``: a fixed list of operations, each one
public radlab call, that the harness runs as one *pass* and repeats until
the run time is spent.  Every pass of one seed does the same work and must
produce the same outputs, so the digest of a pass is a property of the
seed alone.  Inputs are made here, from the seed, before any timing; the
program only ever sees the generated vectors.

All radlab functions are looked up through the module objects at call
time (``rl.tail_counts``, ``rl.cli.main``), so that the traced run's
wrappers, installed at radlab's own import sites, see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 7  # the seed verify-paper uses by default
HELD_OUT_SEED = 20261017  # reserved for confirming a claimed gain

# Paper values the exhaustive sweeps must reproduce (G: P(|a.s| >= ||a||),
# G': P(|a.s| > ||a||) over vectors without zero entries).
G_MIN = {5: Fraction(1, 4), 7: Fraction(7, 32)}
GPRIME_MIN = {5: Fraction(1, 4), 7: Fraction(7, 32)}
HK_FLOOR = Fraction(7, 32)
VSD_FLOOR = 14  # |V_sd(a)| >= 14 for every 7-vector


class OpError:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def _same(x):
    return x


def _holds(_result) -> bool:
    return True


@dataclass
class Op:
    """One public radlab call on prepared inputs.

    ``encode`` turns the result into JSON data for the digest; ``ok``
    returns False when the result itself reports a violation.  Operations
    with ``latency`` set give the op_p50_ms and op_p90_ms samples.
    """

    label: str
    call: Callable[[], object]
    encode: Callable[[object], object] = _same
    ok: Callable[[object], bool] = _holds
    latency: bool = True


@dataclass
class Plan:
    ops: list[Op]
    # coefficient vectors fully processed by one pass, given its results
    vectors: Callable[[list], int]
    # cross-checks made outside the timed region on one pass's results:
    # returns {op index: reason} for every operation whose output is wrong
    gate: Callable[[list], dict[int, str]]
    meta: dict = field(default_factory=dict)
    # a run repeats the pass until it holds this many latency samples
    min_latency_samples: int = 0


def sha256_json(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _counts(c) -> list[int]:
    return [c.below, c.at, c.above]


def _report(r) -> dict:
    return r.to_json_dict()


def _dist(d) -> dict:
    return {"support": len(d.pairs), "pairs_sha256": sha256_json(d.pairs)}


def _counts_from_pairs(pairs, norm_sq: int, rho: Fraction, two_sided: bool) -> list[int]:
    """Classify every sign-sum value against rho*||a|| by exact squares,
    independently of radlab's counting engines."""
    t2 = rho * rho * norm_sq
    below = at = above = 0
    for v, c in pairs:
        if two_sided:
            v = abs(v)
        if v < 0:
            below += c
            continue
        x = v * v
        if x < t2:
            below += c
        elif x == t2:
            at += c
        else:
            above += c
    return [below, at, above]


def _signed_sum(entries: tuple[int, ...], flipped: tuple[int, ...]) -> int:
    return sum(entries) - 2 * sum(entries[i - 1] for i in flipped)


# ---------------------------------------------------------------- hunt-small-n

HUNTS = (  # predicate, n range, vectors, as in verify-paper --full
    ("tomaszewski", (2, 9), 20_000),
    ("delta", (2, 8), 700),
    ("pairing", (2, 9), 5_000),
)
HUNT_ENTRY_BOUND = 20
DIM7_SAMPLES = 5_000
DIM7_ENTRY_BOUND = 50


def build_hunt_small_n(rl, seed: int, workdir: Path, tiny: bool = False) -> Plan:
    ops: list[Op] = []
    ledger = workdir / "hunt-ledger.jsonl"
    hunt_vectors = 0
    hunt_ops: dict[str, int] = {}
    for predicate, (lo, hi), trials in HUNTS:
        if tiny:
            trials //= 100
        hunt_vectors += trials
        out = workdir / f"hunt-{predicate}.jsonl"
        argv = [
            "hunt", "--predicate", predicate, "--n", f"{lo}..{hi}",
            "--trials", str(trials), "--seed", str(seed),
            "--entry-bound", str(HUNT_ENTRY_BOUND),
            "--out", str(out), "--ledger", str(ledger),
        ]

        def encode(rc, out=out):
            data = out.read_bytes() if out.exists() else b""
            return {
                "exit": rc,
                "report_sha256": hashlib.sha256(data).hexdigest(),
                "report": data.decode().splitlines(),
            }

        hunt_ops[str(out)] = len(ops)
        ops.append(Op(
            f"cli hunt {predicate} n={lo}..{hi} trials={trials}",
            lambda argv=argv: rl.cli.main(argv),
            encode,
            ok=lambda rc: rc == 0,
            latency=False,
        ))

    samples = DIM7_SAMPLES // 100 if tiny else DIM7_SAMPLES
    dim7 = []  # (canonical vector, index of its first op)
    for i in range(samples):
        rng = random.Random(f"{seed}:dim7:{i}")
        entries = [rng.randint(0, DIM7_ENTRY_BOUND) for _ in range(7)]
        if not any(entries):
            continue
        a = rl.canonicalize(entries)
        dim7.append((a, len(ops)))
        ops.append(Op(f"canonicalize dim7 {i}", lambda e=entries: rl.canonicalize(e), str))
        ops.append(Op(
            f"tail_counts_threshold two-sided dim7 {i}",
            lambda a=a: rl.tail_counts_threshold(a, 1, rl.TWO_SIDED), _counts,
            ok=lambda c: (c.at + c.above) * HK_FLOOR.denominator
            >= HK_FLOOR.numerator * (1 << c.n),
        ))
        ops.append(Op(
            f"tail_counts_threshold one-sided dim7 {i}",
            lambda a=a: rl.tail_counts_threshold(a, 1, rl.ONE_SIDED), _counts,
            ok=lambda c: c.at + c.above >= VSD_FLOOR,
        ))
        ops.append(Op(f"case_lemma_7 dim7 {i}", lambda a=a: rl.case_lemma_7(a, strict=False), str))
        if a.entries[6] > 0:
            ops.append(Op(
                f"case_lemma_7 strict dim7 {i}",
                lambda a=a: rl.case_lemma_7(a, strict=True), str,
            ))

    def gate(results: list) -> dict[int, str]:
        bad: dict[int, str] = {}
        for entry, ok in rl.cli.verify_ledger(str(ledger)):
            if not ok:
                bad[hunt_ops.get(entry.get("report"), 0)] = "ledger digest mismatch"
        for a, k in dim7:
            if str(results[k]) != str(a):
                bad[k] = "canonical form differs"
            two, one = results[k + 1], results[k + 2]
            if not isinstance(two, OpError) and not isinstance(one, OpError):
                # ||a|| > 0, so |S| reaches it exactly when S or -S does
                if (two.at, two.above) != (2 * one.at, 2 * one.above):
                    bad[k + 1] = "two-sided counts are not twice the one-sided counts"
            strict_ops = [(k + 3, False)] + ([(k + 4, True)] if a.entries[6] > 0 else [])
            for j, strict in strict_ops:
                w = results[j]
                if isinstance(w, OpError):
                    continue
                s = _signed_sum(a.entries, w.indices)
                reaches = s >= 0 and (s * s > a.norm_sq if strict else s * s >= a.norm_sq)
                if not reaches:
                    bad[j] = "witness does not reach the norm"
        return bad

    return Plan(
        ops,
        vectors=lambda _results: hunt_vectors + len(dim7),
        gate=gate,
        meta={
            "hunts": [
                {"predicate": p, "n": f"{lo}..{hi}",
                 "vectors": t // 100 if tiny else t, "entries": f"0..{HUNT_ENTRY_BOUND}"}
                for p, (lo, hi), t in HUNTS
            ],
            "dim7_samples": samples,
            "dim7_vectors": len(dim7),
            "n_range": "2..9",
            "entry_range": f"0..{DIM7_ENTRY_BOUND}",
        },
    )


# ------------------------------------------------------------ sweep-exhaustive

SWEEP_N = 7
G_BOUND = 32
GPRIME_BOUND = 36


def build_sweep_exhaustive(rl, seed: int, workdir: Path, tiny: bool = False) -> Plan:
    search = rl.search
    n = 5 if tiny else SWEEP_N
    g_bound = 12 if tiny else G_BOUND
    gp_bound = 12 if tiny else GPRIME_BOUND
    G, GP = search.SearchTarget.G, search.SearchTarget.GPRIME
    estimate = search.estimate_search_size(n, g_bound, G.min_entry)
    rng = random.Random(f"{seed}:checkpoint")
    # late enough that the resumed run stays the shortest of the three calls
    every = rng.randint(estimate * 6 // 10, estimate * 8 // 10)
    state: dict = {}

    def capture(s) -> None:
        state.setdefault("checkpoint", json.dumps(s.to_json_dict()))

    def full_sweep():
        state.clear()
        return rl.exhaustive_integer_search(
            n, G, g_bound, checkpoint_every=every, on_checkpoint=capture
        )

    def resumed():
        resume = search.SearchState.from_json_dict(json.loads(state["checkpoint"]))
        return rl.exhaustive_integer_search(n, G, g_bound, resume=resume)

    ops = [
        Op(f"exhaustive G n={n} bound={g_bound}", full_sweep,
           lambda r: {"record": r.to_json_dict(), "checkpoint": state.get("checkpoint")}),
        Op(f"exhaustive Gprime n={n} bound={gp_bound}",
           lambda: rl.exhaustive_integer_search(n, GP, gp_bound),
           lambda r: {"record": r.to_json_dict()}),
        Op(f"exhaustive G n={n} bound={g_bound} resumed at {every}", resumed,
           lambda r: {"record": r.to_json_dict()}),
    ]

    def gate(results: list) -> dict[int, str]:
        bad: dict[int, str] = {}
        g, gp, res = results
        if not isinstance(g, OpError) and g.best_value.fraction != G_MIN[n]:
            bad[0] = f"G minimum {g.best_value} != {G_MIN[n]}"
        if not isinstance(gp, OpError) and gp.best_value.fraction != GPRIME_MIN[n]:
            bad[1] = f"G' minimum {gp.best_value} != {GPRIME_MIN[n]}"
        if isinstance(g, OpError) or isinstance(res, OpError):
            return bad
        if res.to_json_dict() != g.to_json_dict():
            bad[2] = "resumed record differs from the uninterrupted one"
        return bad

    def vectors(results: list) -> int:
        g, gp, res = results
        if any(isinstance(r, OpError) for r in results):
            return 0
        return g.vectors_examined + gp.vectors_examined + res.vectors_examined - every

    return Plan(ops, vectors, gate, meta={
        "sweeps": [
            {"target": "G", "n": n, "entry_sum_bound": g_bound},
            {"target": "Gprime", "n": n, "entry_sum_bound": gp_bound},
            {"target": "G", "n": n, "entry_sum_bound": g_bound, "resumed_after": every},
        ],
        "n_range": str(n),
        "entry_range": f"entry sum <= {g_bound} (G), <= {gp_bound} (Gprime)",
    })


# ------------------------------------------------- count-large-n / count-wide

def _square_norm_vector(rl, stream: str, n: int, hi: int):
    """A seeded vector with entries 1..hi whose norm is an integer, so a
    threshold can sit exactly on a realized sign sum."""
    for attempt in range(10_000):
        rng = random.Random(f"{stream}:{attempt}")
        head = [rng.randint(1, hi) for _ in range(n - 1)]
        s = sum(x * x for x in head)
        lasts = [x for x in range(1, hi + 1) if isqrt(s + x * x) ** 2 == s + x * x]
        if lasts:
            a = rl.canonicalize(head + [rng.choice(lasts)])
            flipped = [i for i in range(1, n + 1) if rng.random() < 0.5]
            t = abs(_signed_sum(a.entries, tuple(flipped)))
            return a, Fraction(t, isqrt(a.norm_sq))
    raise RuntimeError(f"no integer-norm vector found for n={n}")


def _count_plan(rl, seed: int, tag: str, direct_ns, mitm_ns, hi: int,
                square_norms: bool) -> Plan:
    ops: list[Op] = []
    checks = []  # (op index, kind, vector, rho)
    vectors = []
    for n in direct_ns:
        i = sum(1 for b in vectors if b.n == n)
        stream = f"{seed}:{tag}:{n}:{i}"
        if square_norms and (n + i) % 2 == 0:
            a, rho = _square_norm_vector(rl, stream, n, hi)
        else:
            rng = random.Random(stream)
            a = rl.canonicalize([rng.randint(1, hi) for _ in range(n)])
            rho = Fraction(rng.randint(1, 16), 8)
        vectors.append(a)
        base = len(ops)
        v = f"n={n} #{i}"
        ops += [
            Op(f"tail_counts two-sided rho=1 {v}",
               lambda a=a: rl.tail_counts(a, 1, rl.TWO_SIDED), _counts),
            Op(f"tail_counts one-sided rho={rho} {v}",
               lambda a=a, rho=rho: rl.tail_counts(a, rho, rl.ONE_SIDED), _counts),
            Op(f"distribution {v}", lambda a=a: rl.distribution(a), _dist),
            Op(f"check_pairing {v}", lambda a=a: rl.check_pairing(a), _report,
               ok=lambda r: not r.violated),
            Op(f"combinatorial_fraction {v}",
               lambda a=a: rl.combinatorial_fraction(a), lambda f: str(f.fraction)),
            Op(f"delta_sweep {v}", lambda a=a: rl.delta_sweep(a), _report,
               ok=lambda r: not r.violated),
        ]
        checks.append((base, "direct", a, rho))
    for n in mitm_ns:
        rng = random.Random(f"{seed}:{'mitm' if tag == 'large' else tag + '-mitm'}:{n}")
        a = rl.canonicalize([rng.randint(1, hi) for _ in range(n)])
        vectors.append(a)
        checks.append((len(ops), "mitm", a, Fraction(1)))
        ops.append(Op(f"tail_counts two-sided rho=1 n={n} (meet-in-the-middle)",
                      lambda a=a: rl.tail_counts(a, 1, rl.TWO_SIDED), _counts))

    def gate(results: list) -> dict[int, str]:
        bad: dict[int, str] = {}
        for k, kind, a, rho in checks:
            if kind == "mitm":
                two = results[k]
                if isinstance(two, OpError):
                    continue
                one = rl.tail_counts_mitm(a, rho, rl.ONE_SIDED)
                if (two.at, two.above) != (2 * one.at, 2 * one.above):
                    bad[k] = "two-sided counts are not twice the one-sided counts"
                continue
            two, one, dist, _pairing, comb, _sweep = results[k:k + 6]
            if not isinstance(two, OpError):
                if _counts(two) != _counts(rl.tail_counts_mitm(a, 1, rl.TWO_SIDED)):
                    bad[k] = "two-sided counts differ from meet-in-the-middle"
                if not isinstance(comb, OpError) and comb.fraction != Fraction(
                        two.below + two.at, 1 << a.n):
                    bad[k + 4] = "subset fraction differs from P(|a.s| <= ||a||)"
            if not isinstance(one, OpError):
                if _counts(one) != _counts(rl.tail_counts_mitm(a, rho, rl.ONE_SIDED)):
                    bad[k + 1] = "one-sided counts differ from meet-in-the-middle"
            if not isinstance(dist, OpError):
                for j, c, r, two_sided in ((k, two, 1, True), (k + 1, one, rho, False)):
                    if isinstance(c, OpError):
                        continue
                    if _counts_from_pairs(dist.pairs, a.norm_sq, Fraction(r), two_sided) != _counts(c):
                        bad[k + 2] = f"distribution disagrees with op {j}"
        return bad

    return Plan(ops, vectors=lambda _results: len(vectors), gate=gate, min_latency_samples=100, meta={
        "direct_n": f"{min(direct_ns)}..{max(direct_ns)}",
        "mitm_n": f"{min(mitm_ns)}..{max(mitm_ns)}",
        "n_range": f"{min(direct_ns)}..{max(mitm_ns)}",
        "entry_range": f"1..{hi}",
        "direct_vectors_per_n": {n: direct_ns.count(n) for n in sorted(set(direct_ns))},
        "integer_norm_vectors": "n + index even" if square_norms else "none",
    })


def build_count_large_n(rl, seed: int, workdir: Path, tiny: bool = False) -> Plan:
    if tiny:
        return _count_plan(rl, seed, "large", [6, 6, 7, 8], range(9, 11), 50, True)
    # three vectors per n where calls are cheap, so that the median call
    # is not one seed-dependent operation, and two at n=20, whose
    # entry-independent calls then straddle the 90th percentile
    direct = [n for n in range(14, 19) for _ in range(3)] + [19, 20, 20, 21, 22]
    return _count_plan(rl, seed, "large", direct, range(31, 37), 50, True)


def build_count_wide_entries(rl, seed: int, workdir: Path, tiny: bool = False) -> Plan:
    if tiny:
        return _count_plan(rl, seed, "wide", [5, 6], range(9, 11), 1 << 20, False)
    return _count_plan(rl, seed, "wide", list(range(10, 15)), range(32, 37), 1 << 20, False)


BUILDERS = {
    "hunt-small-n": build_hunt_small_n,
    "sweep-exhaustive": build_sweep_exhaustive,
    "count-large-n": build_count_large_n,
    "count-wide-entries": build_count_wide_entries,
}


def warm_up(rl, workload: str) -> None:
    """First calls a user pays before real work: one small call per
    operation kind the workload times (and, for hunts, the CLI)."""
    a = rl.canonicalize([3, 2, 2, 1, 1, 1, 1])
    if workload == "hunt-small-n":
        import radlab.cli

        radlab.cli.build_parser().parse_args(["hunt", "--predicate", "delta", "--n", "3"])
        for predicate in ("tomaszewski", "delta", "pairing"):
            rl.hunt(predicate, [3], 1, 0)
        rl.tail_counts_threshold(a, 1, rl.ONE_SIDED)
        rl.case_lemma_7(a, strict=True)
    elif workload == "sweep-exhaustive":
        rl.exhaustive_integer_search(3, rl.SearchTarget.G, 4)
    else:
        rl.tail_counts(a, 1, rl.TWO_SIDED)
        rl.tail_counts_mitm(a, 1, rl.TWO_SIDED)
        rl.distribution(a)
        rl.check_pairing(a)
        rl.combinatorial_fraction(a)
        rl.delta_sweep(a)
