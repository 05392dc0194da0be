#!/usr/bin/env python3
"""radlab benchmark: run one seeded workload and report its metrics.

    python3 perfbench/run.py --workload hunt-small-n --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; radlab is imported from ``src/``
there and nowhere else.  One run repeats the workload's pass (see
workloads.py) in a closed loop, one call at a time in this one process,
until ``--seconds`` have passed, then checks every output outside the
timed region.  End-to-end times are corrected for the machine's speed
drift (see speed.py).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` is a separate run
that reports the per-layer metrics and the tracing overhead.  Lines
before it give the run's metadata, the failed ratio and the
``outputs_sha256`` digest of every count, fraction, verdict and witness
of one pass, which must not change between runs of one seed.
"""

from __future__ import annotations

import argparse
from array import array
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads
from workloads import OpError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (for example, no radlab source)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {BENCH_DIR.name}/")
    spec = json.loads(path.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(workloads.BUILDERS):
        raise BenchError(f"workloads in BENCHMARK.json {sorted(names)} != "
                         f"{sorted(workloads.BUILDERS)}")
    return spec


def import_radlab():
    src = ROOT / "src"
    if not (src / "radlab" / "__init__.py").is_file():
        raise BenchError(f"no radlab source under {src}")
    sys.path.insert(0, str(src))
    rl = importlib.import_module("radlab")
    importlib.import_module("radlab.cli")
    if Path(rl.__file__).resolve().parent != (src / "radlab").resolve():
        raise BenchError(f"imported radlab from {rl.__file__}, not from {src}")
    return rl


def run_metadata(args, plan) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    sources = sorted((ROOT / "src" / "radlab").glob("*.py"))
    digest = hashlib.sha256()
    for p in sources:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "RADLAB_THREADS": os.environ.get("RADLAB_THREADS"),
        "ops_per_pass": len(plan.ops),
        "latency_ops_per_pass": sum(op.latency for op in plan.ops),
        **plan.meta,
    }


# ------------------------------------------------------------------ passes

def run_pass(plan, probe: speed.SpeedProbe) -> tuple[list, array, array]:
    """Run every operation once; time each call and nothing else.  Returns
    the results, the wall times and the speed-corrected times."""
    results: list = [None] * len(plan.ops)
    times = array("d", bytes(8 * len(plan.ops)))
    scaled = array("d", times)
    for i, op in enumerate(plan.ops):
        factor = probe.scale()
        start = perf_counter()
        try:
            results[i] = op.call()
        except Exception as exc:  # an op that raises is a counted failure
            results[i] = OpError(exc)
        times[i] = perf_counter() - start
        if times[i] > speed.PROBE_EVERY_S:  # the speed may have moved meanwhile
            factor = (factor + probe.scale()) / 2
        scaled[i] = times[i] * factor
    return results, times, scaled


def encode_pass(plan, results) -> tuple[list, set[int]]:
    """The outputs of one pass as JSON data, and the ops that failed."""
    encoded, failed = [], set()
    for i, (op, r) in enumerate(zip(plan.ops, results)):
        if isinstance(r, OpError):
            encoded.append({"error": r.text})
            failed.add(i)
            continue
        try:
            encoded.append(op.encode(r))
            if not op.ok(r):
                failed.add(i)
        except Exception as exc:
            encoded.append({"error": f"{type(exc).__name__}: {exc}"})
            failed.add(i)
    return encoded, failed


class Runner:
    """Repeats passes, keeps per-op times, compares every pass's outputs
    with the first pass's and gates the first pass."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.probe = speed.SpeedProbe()
        self.times: list[array] = []  # wall time of each op, per pass
        self.scaled: list[array] = []  # the same, speed-corrected
        self.walls: list[float] = []
        self.failed = 0
        self.first_results: list | None = None
        self.first_encoded: list | None = None
        self.failures: dict[str, int] = {}
        self.peak_rss_mb = 0.0

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.failures[why] = self.failures.get(why, 0) + n

    def one_pass(self) -> None:
        gc.collect()
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            results, times, scaled = run_pass(self.plan, self.probe)
        self.walls.append(perf_counter() - start)
        self.times.append(times)
        self.scaled.append(scaled)
        encoded, failed = encode_pass(self.plan, results)
        if self.first_encoded is None:
            self.first_results, self.first_encoded = results, encoded
            # the workload's peak: later passes only add their timings
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            failed |= {i for i, (x, y) in enumerate(zip(encoded, self.first_encoded)) if x != y}
        self.fail(len(failed), "raised, violated or differed from the first pass")

    def loop(self, seconds: float, min_passes: int) -> None:
        """Repeat passes while the next one, as long as the last, still
        ends within ``seconds``; run at least ``min_passes``."""
        start = perf_counter()
        while (len(self.times) < min_passes
               or perf_counter() - start + self.walls[-1] <= seconds):
            self.one_pass()

    def gate(self) -> None:
        self.fail(len(self.plan.gate(self.first_results)), "failed the exact-output gate")

    @property
    def attempted(self) -> int:
        return len(self.times) * len(self.plan.ops)

    def digest(self) -> str:
        labelled = [[op.label, out] for op, out in zip(self.plan.ops, self.first_encoded)]
        return workloads.sha256_json(labelled)


def min_passes(plan) -> int:
    """Two passes at least, so that every run compares a repeat with the
    first pass; more where the plan asks for a latency sample count."""
    per_pass = sum(op.latency for op in plan.ops)
    return max(2, -(-plan.min_latency_samples // max(per_pass, 1)))


# ----------------------------------------------------------------- metrics

SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed, workloads
kernel = sorted(speed.reference_kernel() for _ in range(3))[1]
start = time.perf_counter()
import radlab
workloads.warm_up(radlab, sys.argv[3])
print(time.perf_counter() - start, kernel)
"""


def measure_setup(workload: str) -> tuple[list, list]:
    """Import radlab and make the workload's first calls in fresh
    interpreters; the interpreter's own start-up is not counted.  Returns
    the wall times and the speed-corrected times."""
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"), str(BENCH_DIR), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall, kernel = map(float, proc.stdout.split())
        walls.append(wall)
        scaled.append(wall * speed.REFERENCE_S / kernel)
    return walls, scaled


def _metrics(runner: Runner, times: list[array], setup: list[float]) -> dict:
    plan = runner.plan
    # each op's median over passes, so a burst of load on the machine
    # during one pass moves no op's time
    per_op = [statistics.median(ts) for ts in zip(*times)]
    latency = [t * 1000 for ts in times for op, t in zip(plan.ops, ts) if op.latency]
    return {
        "vectors_per_s": plan.vectors(runner.first_results) / sum(per_op),
        "op_p50_ms": statistics.median(latency),
        "op_p90_ms": statistics.quantiles(latency, n=10, method="inclusive")[8],
        "peak_rss_mb": runner.peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def end_to_end(runner: Runner, setup: tuple[list, list]) -> tuple[dict, dict]:
    """Speed-corrected metrics, with the wall-clock ones in the details."""
    setup_walls, setup_scaled = setup
    info = {
        "passes": len(runner.times),
        "vectors_per_pass": runner.plan.vectors(runner.first_results),
        "latency_samples": sum(op.latency for op in runner.plan.ops) * len(runner.times),
        "pass_wall_s": runner.walls,
        "reference_kernel_s": statistics.median(runner.probe.samples),
        "wall_clock": _metrics(runner, runner.times, setup_walls),
    }
    return _metrics(runner, runner.scaled, setup_scaled), info


def traced_loop(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, so that both see the same
    machine load, and take each per-layer metric's median over the traced
    passes.  Times are speed-corrected with each pass's mean factor.
    Removes every wrapper after each traced pass."""
    tracer = spans.Tracer()
    traced, left = [], []
    start = perf_counter()
    while not traced or perf_counter() - start + sum(runner.walls[-2:]) <= seconds:
        runner.one_pass()
        tracer.reset()
        tracer.install()
        try:
            runner.one_pass()
        finally:
            tracer.uninstall()
        left += spans.installed_wrappers()
        factor = sum(runner.scaled[-1]) / sum(runner.times[-1])
        stats = {k: v * factor if k.endswith("_s") else v
                 for k, v in tracer.layer_stats().items()}
        stats["top_level_busy_s"] = tracer.top_level_busy() * factor
        traced.append(stats)
    runner.fail(len(left), "wrapper left installed")
    walls = [w * sum(s) / sum(t) for w, s, t in zip(runner.walls, runner.scaled, runner.times)]
    untraced = statistics.median(walls[0::2])
    metrics = {k: statistics.median(d[k] for d in traced) for k in traced[0]}
    metrics["trace.overhead_ratio"] = statistics.median(walls[1::2]) / untraced - 1
    # the top-level spans' busy time (the sum of all self times) against
    # the untraced pass: 1 plus the tracing overhead when nothing is missed
    metrics["trace.top_level_share"] = metrics.pop("top_level_busy_s") / untraced
    info = {
        "passes": len(walls),
        "untraced_pass_s": walls[0::2],
        "traced_pass_s": walls[1::2],
        "wrappers_left": left,
        "spans": tracer.dump(),
    }
    return metrics, info


# -------------------------------------------------------------------- main

def run_workload(rl, args, workdir: Path) -> tuple[Runner, dict, dict]:
    """One benchmark run: the metric values and the report details."""
    plan = workloads.BUILDERS[args.workload](rl, args.seed, workdir)
    runner = Runner(plan)
    if args.trace:
        values, info = traced_loop(runner, args.seconds)
    else:
        setup = measure_setup(args.workload)
        runner.loop(args.seconds, min_passes(plan))
        values, info = end_to_end(runner, setup)
    runner.gate()
    return runner, values, info


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help=f"default {workloads.DEFAULT_SEED}; {workloads.HELD_OUT_SEED} "
                        "is held out for confirming claims")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        rl = import_radlab()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        runner, values, info = run_workload(rl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}
    if args.trace:  # the last traced pass; one file per workload
        (OUT_DIR / f"{args.workload}-spans.json").write_text(json.dumps(info.pop("spans")))
    report = {
        "meta": run_metadata(args, runner.plan),
        "outputs_sha256": runner.digest(),
        "failed_ratio": runner.failed / runner.attempted,
        "failures": runner.failures,
        **info,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**report, **line}, indent=1))

    meta = report["meta"]
    notes = {
        "vectors_per_s": f"({info.get('vectors_per_pass')} vectors per pass)",
        "op_p50_ms": f"({info.get('latency_samples')} samples)",
        "op_p90_ms": f"({info.get('latency_samples')} samples)",
        "setup_s": f"(median of {SETUP_REPEATS})",
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"n={meta['n_range']} entries={meta['entry_range']} passes={info['passes']}")
    for name, m in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"  {name:<44} {m['value']:<12.6g} {m['unit']:<6} {note}")
    print(f"  {'failed_ratio':<44} {report['failed_ratio']:<12.6g} "
          f"{'':<6} ({runner.failed} of {runner.attempted} ops)")
    print(f"  {'outputs_sha256':<44} {report['outputs_sha256']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
