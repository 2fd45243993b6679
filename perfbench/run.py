#!/usr/bin/env python3
"""Benchmark of the secrecy_outage package.

Runs one workload against the package sources under ``src/`` of the
checkout it sits in, checks every result, and prints one JSON object as
the last line of standard output.  With ``--trace 0`` it holds the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics.  The line before it records the environment and the
details behind the numbers.  See ``perfbench/README.md``.

Usage, from the root of the checkout:
    python3 perfbench/run.py --workload validate_grid --seed 1 --seconds 40 --trace 0

Every op runs in a child interpreter (``child.py``), one child at a time,
with single-threaded BLAS and one Monte Carlo worker, so the load never
exceeds one core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from child import series_terms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("validate_grid", "closed_form_scaling", "figure_sweep")
CFS_POINTS = [(K, M) for K in (2, 5, 10, 20) for M in (4, 6, 10)]
TINY_CFS_POINTS = [(2, 4), (5, 6)]
# Address-space cap of each closed_form_scaling child.  K=10 M=10 passes
# under it; K=20 M=10 raises MemoryError instead of being OOM-killed.
MEM_CAP_BYTES = 3 * 2**29  # 1.5 GiB
# The op child stops this many times, evenly spread over its ops, while a
# set-up-only child is timed, so the set-up samples span the whole run.
SETUP_PAUSES = 23
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10


class ChildError(RuntimeError):
    pass


def spawn(spec: dict, on_pause=None) -> dict:
    """Run one child to completion and return the JSON record it printed.

    Each time the child prints ``pause`` it waits: ``on_pause()`` runs, and
    then the child is told to go on.
    """
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    spec = dict(spec, spawn_t=time.monotonic())
    lines = []
    with tempfile.TemporaryFile("w+", dir=OUT) as stderr, subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
    ) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line == "pause\n":
                    on_pause()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
        stderr.seek(0)
        err = stderr.read().strip()
    if time.monotonic() - spec["spawn_t"] >= CHILD_TIMEOUT_S:
        raise ChildError(f"child {spec['mode']} {spec.get('point')} ran over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited {proc.returncode}: {err[-2000:]}")
    return json.loads(lines[-1])


def run_workload(args, trace: bool, seconds: int) -> dict:
    """Run every child of one workload, its ops sized for ``seconds``, and merge their records."""
    base = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "tiny": args.tiny, "trace": trace, "out_dir": str(OUT), "point": None, "mem_cap": None,
        "pauses": 0,
    }
    if args.workload == "closed_form_scaling":
        points = TINY_CFS_POINTS if args.tiny else CFS_POINTS
        records = [spawn(dict(base, mode="run", point=p, mem_cap=MEM_CAP_BYTES)) for p in points]
        setups = [r["setup_s"] for r in records]
    else:
        setups = []

        def time_setup():
            setups.append(spawn(dict(base, mode="setup"))["setup_s"])

        pauses = 0 if trace else (1 if args.tiny else SETUP_PAUSES)
        records = [spawn(dict(base, mode="run", pauses=pauses), on_pause=time_setup)]
        setups.append(records[0]["setup_s"])

    merged = {
        "setups": setups,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "wrong": [w for r in records for w in r["wrong"]],
        "errors": {},
        "latencies_ms": [x for r in records for x in r["latencies_ms"]],
        "wall_s": sum(r["wall_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    for r in records:
        for error, count in r["errors"].items():
            merged["errors"][error] = merged["errors"].get(error, 0) + count
    if trace:
        sums: dict[str, float] = {}
        lists: dict[str, list] = {}
        points: set[tuple] = set()
        for r in records:
            for name, value in r["layers"]["sums"].items():
                sums[name] = sums.get(name, 0.0) + value
            for name, values in r["layers"]["lists"].items():
                lists.setdefault(name, []).extend(values)
            points.update(tuple(p) for p in r["layers"]["series_points"])
        merged["layers"] = {"sums": sums, "lists": lists, "series_points": sorted(points)}
    return merged


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def end_to_end(result: dict) -> tuple[dict, dict]:
    if not result["latencies_ms"]:
        raise ChildError(f"no op succeeded: {result['errors']}")
    tail_ms, percentile, beyond = tail(result["latencies_ms"])
    ok = result["attempted"] - result["failed"]
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "op_p50_ms": statistics.median(result["latencies_ms"]),
        "op_tail_ms": tail_ms,
        "wall_s": result["wall_s"],
        "ok_ratio": ok / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {
        "ops_ok": ok,
        "tail_percentile": percentile,
        "tail_ops_beyond": beyond,
        "failed_ratio": result["failed"] / result["attempted"],
        "setup_samples_s": result["setups"],
    }
    return metrics, detail


def per_layer(args, untraced: dict, traced: dict) -> tuple[dict, dict]:
    layers = traced["layers"]
    s, lists = layers["sums"], layers["lists"]
    metrics = dict(s)
    mc_s = s["montecarlo.self_s"]
    metrics["channel.draw_share"] = s["channel.draw_s"] / mc_s if mc_s else 0.0
    metrics["montecarlo.samples_per_s"] = s["montecarlo.samples"] / mc_s if mc_s else 0.0
    metrics["montecarlo.select_count_s"] = mc_s - s["channel.rng_s"] - s["channel.draw_s"]
    metrics["analytic.cold_ms"] = median_ms(lists.get("analytic.cold", []))
    metrics["analytic.warm_ms"] = median_ms(lists.get("analytic.warm", []))
    metrics["quadrature.p50_ms"] = median_ms(lists.get("quadrature.latency", []))
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]

    # tracemalloc in a fresh child, at the largest series point that succeeded
    peak_point = None
    metrics["analytic.peak_alloc_mb"] = 0.0
    if layers["series_points"]:
        peak_point = max(layers["series_points"], key=lambda p: series_terms(*p))
        spec = {
            "workload": args.workload, "mode": "peak_alloc", "point": list(peak_point),
            "mem_cap": MEM_CAP_BYTES, "out_dir": str(OUT),
        }
        metrics["analytic.peak_alloc_mb"] = spawn(spec)["peak_alloc_mb"]
    detail = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "peak_alloc_point": peak_point,
        "spans": f"{OUT.relative_to(ROOT)}/spans-{args.workload}*.jsonl",
    }
    return metrics, detail


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "mem_cap_bytes": MEM_CAP_BYTES if args.workload == "closed_form_scaling" else None,
        "threads": THREAD_ENV,
        "mc_workers": 1,
    }


def labelled(names: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "secrecy_outage" / "__init__.py").is_file():
        print(f"error: no secrecy_outage sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            # both halves of a traced run do the work of half a timed run
            half = max(1, args.seconds // 2)
            untraced = run_workload(args, trace=False, seconds=half)
            traced = run_workload(args, trace=True, seconds=half)
            values, detail = per_layer(args, untraced, traced)
            metrics = labelled(spec["per_layer"], values)
        else:
            untraced = run_workload(args, trace=False, seconds=args.seconds)
            values, detail = end_to_end(untraced)
            metrics = labelled(spec["end_to_end"], values)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = traced if args.trace else untraced
    detail = {
        "workload": args.workload,
        "env": environment(args),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "wrong": result["wrong"][:5],
    } | detail
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
