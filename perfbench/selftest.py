#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

For every workload it checks that the outputs digest reproduces across
passes and across fresh runs, that a deliberately corrupted engine (off
by one in ``tail_counts_threshold``) is counted as failed operations,
and that the traced run reports every per-layer metric of BENCHMARK.json
and leaves no wrapper installed.  Last, it checks that the benchmark
exits with an error, printing no result, where there is no radlab source.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def tiny_run(rl, name: str, workdir: Path, trace: bool = False) -> tuple[run.Runner, dict]:
    workdir = Path(tempfile.mkdtemp(dir=workdir))  # a fresh ledger per run
    runner = run.Runner(workloads.BUILDERS[name](rl, workloads.DEFAULT_SEED, workdir, tiny=True))
    metrics: dict = {}
    if trace:
        metrics, _info = run.traced_loop(runner, 0)
    else:
        runner.loop(0, run.min_passes(runner.plan))
    runner.gate()
    return runner, metrics


def off_by_one(original):
    def tail_counts_threshold(*args, **kwargs):
        c = original(*args, **kwargs)
        return type(c)(c.n, c.below - 1, c.at, c.above + 1) if c.below else c
    return tail_counts_threshold


def main() -> int:
    spec = run.load_spec()
    rl = run.import_radlab()
    layer_names = {m["name"] for m in spec["per_layer"]}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT_DIR) as tmp:
        workdir = Path(tmp)
        for name in workloads.BUILDERS:
            first, _ = tiny_run(rl, name, workdir)
            again, _ = tiny_run(rl, name, workdir)
            check(first.failed == 0 and len(first.times) >= 2,
                  f"{name}: {len(first.times)} passes agree and pass the gate")
            check(first.digest() == again.digest(), f"{name}: digest reproduces in a fresh run")

            original = rl.counting.tail_counts_threshold
            patches = spans.replace_everywhere({id(original): off_by_one(original)})
            try:
                broken, _ = tiny_run(rl, name, workdir)
            finally:
                spans.restore(patches)
            check(broken.failed > 0,
                  f"{name}: corrupted counts fail {broken.failed} of {broken.attempted} ops")

            traced, layer_metrics = tiny_run(rl, name, workdir, trace=True)
            check(traced.failed == 0 and not spans.installed_wrappers(),
                  f"{name}: traced run passes and leaves no wrapper installed")
            check(layer_names <= set(layer_metrics),
                  f"{name}: traced run reports every per-layer metric")
            check(traced.digest() == first.digest(), f"{name}: tracing leaves outputs unchanged")

        bare = workdir / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "count-large-n",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        check(proc.returncode != 0 and not printed_result,
              "without radlab source the benchmark exits "
              f"{proc.returncode} and prints no result")
    print(json.dumps({"selftest_failures": FAILURES}))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
