"""Command-line front end: vector evaluation, predicate checks, searches,
hunts, the claim suite, and the append-only run ledger.

Exit codes: 0 all checks hold, 1 a violation was found (report written),
2 usage or input error, 3 internal error (traceback printed), 141
(128 + SIGPIPE) the reader of a pipe on standard output closed it early,
as ``| head`` does.  All serialized rationals are exact "p/q" strings;
no floating point appears in any report.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import select
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from .conjectures import CHECKERS, CheckReport
from .core import parse_vector
from .counting import distribution, tail_count_engine, tail_counts
from .errors import ConjectureFalsified, RadlabError, SearchInputError
from .search import (
    DEFAULT_ENTRY_BOUND,
    HUNT_PREDICATES,
    SearchRecord,
    SearchState,
    SearchTarget,
    exhaustive_integer_search,
    hunt,
    local_descent,
    random_search,
)
from .verify import verify_paper

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPT = 130


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def append_ledger(ledger: str, command: str, arguments: list[str], digest: str, report: str | None) -> None:
    entry = {
        "timestamp": _utc_now(),
        "command": command,
        "arguments": arguments,
        "digest": digest,
        "report": report,
    }
    _write(ledger, (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8"), "ab")


def _write(path: str, data: bytes, mode: str = "wb") -> None:
    """Write (mode "wb") or append ("ab") data to path; a path that cannot
    be written is a usage error, not a bug."""
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        raise RadlabError(f"cannot write {path}: {exc.strerror or exc}") from exc


def verify_ledger(ledger: str) -> list[tuple[dict, bool]]:
    """Recompute the digest of every stored report file, byte for byte."""
    out = []
    with open(ledger, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            entry = json.loads(line)
            ok = True
            if entry.get("report"):
                path = Path(entry["report"])
                ok = path.exists() and _digest(path.read_bytes()) == entry["digest"]
            out.append((entry, ok))
    return out


def _finish(data: bytes, args) -> None:
    """Write the report artifact and the ledger entry, if requested."""
    if args.out:
        _write(args.out, data)
    if args.ledger:
        append_ledger(args.ledger, args.command, args.argv, _digest(data), args.out)


def _emit_jsonl(line_obj, sink) -> None:
    sink.append(canonical_json_bytes(line_obj).decode("utf-8"))
    print(sink[-1], flush=True)


def _jsonl_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def cmd_eval(args) -> int:
    vec = parse_vector(args.vector)
    counts = tail_counts(vec)
    report = {
        "vector": args.vector,
        "canonical": str(vec),
        "n": vec.n,
        "norm_sq": vec.norm_sq,
        "counts": {"below": counts.below, "at": counts.at, "above": counts.above},
        "p_lt_norm": str(counts.p_lt),
        "p_le_norm": str(counts.p_le),
        "p_eq_norm": str(counts.p_eq),
        "p_ge_norm": str(counts.p_ge),
        "p_gt_norm": str(counts.p_gt),
        "class": "B" if counts.at else "A",
        "engine": tail_count_engine(vec),
    }
    if args.stats == "all":
        report["distribution"] = [[v, c] for v, c in distribution(vec).pairs]
    print(json.dumps(report, indent=2))
    _finish(canonical_json_bytes(report), args)
    return EXIT_OK


def _run_check(args) -> CheckReport:
    vec = parse_vector(args.vector)
    name = args.predicate
    if name not in ("delta", "delta-alt"):
        if args.delta is not None:
            raise RadlabError(f"predicate {name!r} takes no --delta")
        return CHECKERS[name](vec)
    if args.delta is None:
        raise RadlabError(f"predicate {name!r} needs --delta P/Q")
    return CHECKERS[name](vec, _parse_fraction(args.delta))


def cmd_check(args) -> int:
    report = _run_check(args)
    obj = report.to_json_dict()
    print(json.dumps(obj, indent=2))
    _finish(canonical_json_bytes(obj), args)
    return EXIT_VIOLATION if report.violated else EXIT_OK


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise RadlabError(f"cannot parse {text!r} as P/Q") from exc


def _parse_n_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise RadlabError(f"cannot parse dimension range {text!r}") from exc
    if not ns:
        raise RadlabError(f"empty dimension range {text!r}")
    return ns


def cmd_search(args) -> int:
    lines: list[str] = []
    saved = False  # only a sweep writes checkpoints

    def checkpoint(state: SearchState) -> None:
        nonlocal saved
        _write(args.checkpoint, json.dumps(state.to_json_dict(), indent=2).encode("utf-8"))
        saved = True
        if args.progress_every:
            _emit_jsonl({"kind": "progress", **state.to_json_dict()}, lines)

    def sweep(n: int, target: SearchTarget, bound: int, resume: SearchState | None = None) -> SearchRecord:
        if args.progress_every is not None and args.progress_every < 1:
            raise SearchInputError(f"--progress-every must be >= 1, got {args.progress_every}")
        return exhaustive_integer_search(
            n, target, bound,
            resume=resume,
            checkpoint_every=args.progress_every or 0,
            on_checkpoint=checkpoint,
        )

    try:
        record = args.search(args, sweep)
    except KeyboardInterrupt:
        print("interrupted" + (f"; checkpoint written to {args.checkpoint}" if saved else ""), file=sys.stderr)
        _finish(_jsonl_bytes(lines), args)
        return EXIT_INTERRUPT
    _emit_jsonl({"kind": "final", **record.to_json_dict()}, lines)
    _finish(_jsonl_bytes(lines), args)
    return EXIT_OK


def _resume_sweep(args, sweep) -> SearchRecord:
    try:
        state = SearchState.from_json_dict(json.loads(Path(args.file).read_text()))
    except (OSError, ValueError) as exc:
        raise RadlabError(f"cannot read checkpoint {args.file}: {exc}") from exc
    return sweep(state.n, state.target, state.bound, state)


def cmd_hunt(args) -> int:
    lines: list[str] = []
    ns = _parse_n_range(args.n)
    violations = hunt(args.predicate, ns, args.trials, args.seed, args.entry_bound)
    for rep in violations:
        _emit_jsonl({"kind": "violation", **rep.to_json_dict()}, lines)
    _emit_jsonl(
        {"kind": "summary", "predicate": args.predicate, "n": ns,
         "trials": args.trials, "violations": len(violations)},
        lines,
    )
    _finish(_jsonl_bytes(lines), args)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_verify_paper(args) -> int:
    report = verify_paper(full=args.full, log=print, seed=args.seed)
    print()
    total = len(report["claims"])
    passed = sum(1 for c in report["claims"] if c["passed"])
    print(f"{passed}/{total} claims passed")
    _finish(canonical_json_bytes(report), args)
    return EXIT_OK if report["all_passed"] else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radlab",
        description="Exact desk-scale verification of sign-sum tail claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report artifact to this path")
        p.add_argument("--ledger", help="append a run entry to this ledger file")
        p.set_defaults(parser=p)

    p = sub.add_parser("eval", help="tail counts, probabilities and class of one vector")
    p.add_argument("--vector", required=True, help='e.g. "2,2,1,1,1" or "1/2,1/2,1/2,1/2"')
    p.add_argument("--stats", choices=["tails", "all"], default="tails")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run one predicate on one vector")
    p.add_argument("predicate", choices=list(CHECKERS))
    p.add_argument("--vector", required=True)
    p.add_argument("--delta", help="threshold ratio P/Q for the delta predicates")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", help="minimize a tail probability over integer vectors")
    modes = p.add_subparsers(dest="mode", required=True)

    def search_mode(name, help, search, checkpoints=False):
        p = modes.add_parser(name, help=help)
        if checkpoints:
            p.add_argument("--checkpoint", default="radlab-checkpoint.json", help="checkpoint file to write")
            p.add_argument("--progress-every", type=int, help="emit a progress record every N >= 1 vectors")
        common(p)
        p.set_defaults(fn=cmd_search, search=search)
        return p

    p = search_mode("exhaustive", "every canonical vector, entry sum <= --bound", lambda a, sweep: sweep(
        a.n, SearchTarget.parse(a.target), a.bound), checkpoints=True)
    p.add_argument("--target", required=True, help="T, G or Gprime")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True, help="entry-sum bound")

    p = search_mode("resume", "continue a sweep from its checkpoint", _resume_sweep, checkpoints=True)
    p.add_argument("file", help="checkpoint file; it fixes target, n and bound")

    p = search_mode("random", "seeded random vectors, entries <= --entry-bound", lambda a, _: random_search(
        a.n, SearchTarget.parse(a.target), a.trials, a.seed, a.entry_bound))
    p.add_argument("--target", required=True, help="T, G or Gprime")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=int, default=DEFAULT_ENTRY_BOUND)

    p = search_mode("descent", "greedy +-1 descent from --start", lambda a, _: local_descent(
        parse_vector(a.start), SearchTarget.parse(a.target), a.steps))
    p.add_argument("--target", required=True, help="T, G or Gprime")
    p.add_argument("--start", required=True, help="start vector; its length is n")
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("hunt", help="random falsification sweep of a predicate")
    p.add_argument("--predicate", required=True, choices=list(HUNT_PREDICATES))
    p.add_argument("--n", required=True, help='dimension range, e.g. "2..9" or "7"')
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-bound", type=int, default=DEFAULT_ENTRY_BOUND)
    common(p)
    p.set_defaults(fn=cmd_hunt)

    p = sub.add_parser("verify-paper", help="run the full claim suite")
    p.add_argument("--full", action="store_true", help="acceptance-scale budgets (minutes)")
    p.add_argument("--seed", type=int, default=7)
    common(p)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # leftovers after the command name belong to the command's own parser
        owner = args.parser if argv.index(extra[0]) > argv.index(args.command) else parser
        owner.error(f"unrecognized arguments: {' '.join(extra)}")
    args.argv = argv  # what the ledger records
    try:
        return args.fn(args)
    except ConjectureFalsified as exc:
        print(json.dumps({"kind": "falsified", "detail": exc.args[0]}), file=sys.stderr)
        return EXIT_VIOLATION
    except RadlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            return 141  # 128 + SIGPIPE, as a shell reports a reader's early exit
        # anything else is a bug, not a usage error
        traceback.print_exc()
        return EXIT_INTERNAL


def _stdout_closed() -> bool:
    """Whether stdout is a pipe its reader closed, as ``| head`` does; if
    so, it now writes to devnull, so that the flush at exit cannot fail."""
    try:
        poll = select.poll()
        poll.register(sys.stdout, select.POLLOUT)
    except (AttributeError, OSError, TypeError, ValueError):  # no descriptor, or no poll here
        return False
    closed = any(events & select.POLLERR for _, events in poll.poll(0))
    if closed:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return closed


if __name__ == "__main__":
    sys.exit(main())
