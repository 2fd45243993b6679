#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

Run from the root of the checkout:
    python3 perfbench/selftest.py

For each workload, with ``--tiny`` and both ``--trace 0`` and ``--trace 1``,
it checks that the last line is the result object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; that every metric
named in ``BENCHMARK.json`` for that mode is printed, with its unit; and
that ``ok_ratio`` equals (attempted - failed) / attempted.  Last it checks
that the benchmark exits nonzero without a result in a directory that holds
only ``BENCHMARK.json`` and ``perfbench/``.  It takes about half a minute
and is not part of the test suite under ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']!r}")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        problems.append(f"{where}: attempted {attempted!r}, failed {failed!r}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {m['name']} printed as {got!r}, unit should be {m['unit']}")
    if not trace and metrics["ok_ratio"]["value"] != (attempted - failed) / attempted:
        problems.append(f"{where}: ok_ratio {metrics['ok_ratio']['value']} not from counts {attempted}, {failed}")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "figure_sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_bare_directory()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
