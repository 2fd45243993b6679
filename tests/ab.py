"""Op-level A/B timing of two source trees in one process.

Each tree's ``src/secrecy_outage`` is loaded as its own set of modules,
under its own top-level name, so both run side by side in one process on
the same numpy.  Every op runs on both sides back to back, and the side
that goes first alternates from pair to pair, so slow drift in the
machine's speed lands on both sides of a pair alike; the pair's ratio
(change over parent) keeps that pairing, which whole runs minutes apart
lose (Kalibera & Jones, ISMM 2013).  With one tree both sides are that
tree: an A/A run, whose interval shows the method's own noise.

The side loaded second ran about 0.2-0.3% faster, so the rounds are split
between two child processes, one per load order: the first loads the
parent first and runs half the rounds, rounded up, and the second loads
the change first and runs the rest.  Their pairs are pooled, and each
order's ratio is printed too; with one round only the first child runs.

Workloads (all three unless ``--workload`` names one):

- ``figure``: the benchmark's figure op, one per figure job (4 presets x
  {ku, ka}), each with closed form, floor and quadrature, its CSV and plot
  JSON written to a temporary directory;
- ``lone``: ``analytic_sop`` plus ``quadrature_sop`` on each cell of the
  144-cell validation grid, a validate_grid op without its Monte Carlo;
- ``mc``: a lone ``simulate_sop`` on each grid cell at the validation
  settings (10^6 samples, their seed), the Monte Carlo of a validate_grid op.

A round runs every op of the workload once as a pair.  Per workload it
prints each side's median op time, the median of the per-pair ratios with
a 95% bootstrap interval (fixed seed), the pair count, each load order's
pair count and ratio interval, and the largest absolute difference between
the values the two sides return (for ``mc``, the largest p-hat
difference).  It is run by hand, with numpy and the standard library only:

    python tests/ab.py PARENT [CHANGE] [--rounds N] [--workload figure|lone|mc] [--cells N]

where PARENT and CHANGE are the roots of two checkouts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BOOTSTRAP_DRAWS = 2000
BOOTSTRAP_SEED = 20131014


def load_tree(root: Path, name: str):
    """The package ``src/secrecy_outage`` of the tree at ``root``, loaded as the top-level module ``name``."""
    package = root / "src" / "secrecy_outage"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def figure_ops(so, out: Path) -> list:
    """One op per figure job, writing into the new directory ``out``; each returns the job's values in row order."""
    out.mkdir()
    methods = (so.EvalMethod.ANALYTIC, so.EvalMethod.ASYMPTOTIC, so.EvalMethod.QUADRATURE)
    jobs = [(name, s) for name in sorted(so.FIGURE_PRESETS) for s in (so.Scenario.KU, so.Scenario.KA)]

    def op(i, name, scenario):
        result = so.run_figure(name, scenario=scenario, methods=methods)
        so.figures.write_figure_csv(result, out / f"{i}.csv")
        so.figures.write_plot_description(so.figures.plot_description(result), out / f"{i}.json")
        return [row.sop for _, sweep in result.per_variant for row in sweep.rows]

    return [lambda i=i, name=name, s=s: op(i, name, s) for i, (name, s) in enumerate(jobs)]


def _grid_queries(so, cells: int | None) -> list:
    """The validation grid's cells, or the first ``cells`` of them."""
    return [
        so.SopQuery(cfg, scheme, scenario)
        for cfg in so.ValidationSettings().grid_configs()
        for scheme in (so.Scheme.SS, so.Scheme.OS)
        for scenario in (so.Scenario.KU, so.Scenario.KA)
    ][:cells]


def lone_ops(so, cells: int | None) -> list:
    """One op per grid cell: its closed form and its quadrature, each a lone call."""
    return [lambda q=q: [so.analytic_sop(q).value, so.quadrature_sop(q)] for q in _grid_queries(so, cells)]


def mc_ops(so, cells: int | None) -> list:
    """One op per grid cell: its lone ``simulate_sop`` at the validation settings."""
    mc = so.ValidationSettings().mc_settings()
    return [lambda q=q: [so.simulate_sop(q, mc).p_hat] for q in _grid_queries(so, cells)]


def _timed(op):
    start = time.perf_counter()
    values = op()
    return time.perf_counter() - start, values


def pairs(parent_ops: list, change_ops: list, rounds: int):
    """Per pair, the parent's and the change's op time, and the largest value difference of all pairs."""
    parent_ops[0](), change_ops[0]()  # warm both sides once, untimed
    times, gap = [], 0.0
    for r in range(rounds):
        for i, (a, b) in enumerate(zip(parent_ops, change_ops)):
            if (r * len(parent_ops) + i) % 2:
                (t_b, v_b), (t_a, v_a) = _timed(b), _timed(a)
            else:
                (t_a, v_a), (t_b, v_b) = _timed(a), _timed(b)
            times.append((t_a, t_b))
            gap = max(gap, float(np.max(np.abs(np.subtract(v_a, v_b)), initial=0.0)))
    return np.array(times), gap


def ratio_interval(ratios: np.ndarray) -> tuple[float, float, float]:
    """The median ratio and a 95% percentile-bootstrap interval of it."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    draws = np.median(rng.choice(ratios, size=(BOOTSTRAP_DRAWS, ratios.size)), axis=1)
    low, high = np.percentile(draws, [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


ORDERS = ("parent", "change")  # the side each child loads first
WORKLOADS = ("figure", "lone", "mc")


def report(workload: str, times: dict[str, np.ndarray], gap: float) -> None:
    """The pooled pairs of both load orders, then each order's ratio on its own."""
    pooled = np.concatenate(list(times.values()))
    parent_ms, change_ms = 1e3 * np.median(pooled, axis=0)
    median, low, high = ratio_interval(pooled[:, 1] / pooled[:, 0])
    print(f"{workload}: {len(pooled)} pairs")
    print(f"  median op: parent {parent_ms:.3f} ms, change {change_ms:.3f} ms")
    print(f"  change/parent ratio: median {median:.4f}, 95% interval [{low:.4f}, {high:.4f}] (width {high - low:.4f})")
    for first, taken in times.items():
        if len(taken):
            median, low, high = ratio_interval(taken[:, 1] / taken[:, 0])
            print(f"  {first} loaded first: {len(taken)} pairs, ratio median {median:.4f}, 95% interval [{low:.4f}, {high:.4f}]")
        else:
            print(f"  {first} loaded first: no pairs")
    print(f"  largest value difference: {gap:.3g}")


def run_order(args, change: Path) -> dict:
    """Every chosen workload's pairs in this process, the two trees loaded in ``args.first``'s order."""
    roots = {"parent": (args.parent, "ab_parent"), "change": (change, "ab_change")}
    loaded = {side: load_tree(*roots[side]) for side in sorted(roots, key=lambda side: side != args.first)}
    parent_pkg, change_pkg = loaded["parent"], loaded["change"]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in [args.workload] if args.workload else WORKLOADS:
            if workload == "figure":
                sides = [figure_ops(parent_pkg, Path(tmp) / "parent"), figure_ops(change_pkg, Path(tmp) / "change")]
            elif workload == "lone":
                sides = [lone_ops(so, args.cells) for so in (parent_pkg, change_pkg)]
            else:
                sides = [mc_ops(so, args.cells) for so in (parent_pkg, change_pkg)]
            times, gap = pairs(*sides, args.rounds)
            out[workload] = {"times": times.tolist(), "gap": gap}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, nargs="?", help="root of the changed tree (default: the parent, A/A)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="passes over each workload's ops, split between the two load orders (default 10)")
    parser.add_argument("--workload", choices=WORKLOADS, help="run only this workload")
    parser.add_argument("--cells", type=int, help="lone and mc: only the first this many grid cells (default all 144)")
    parser.add_argument("--first", choices=ORDERS, help=argparse.SUPPRESS)  # a child: run one load order
    args = parser.parse_args(argv)
    change = args.change or args.parent
    if args.first:
        print(json.dumps(run_order(args, change)))
        return 0
    print(f"parent {args.parent.resolve()}, change {change.resolve()}{' (A/A)' if args.change is None else ''}")
    results = {}
    for k, first in enumerate(ORDERS):
        rounds = (args.rounds + 1 - k) // 2
        if rounds:  # the child's options repeat these, and its later --rounds overrides the earlier
            child = [sys.executable, __file__, *argv, "--rounds", str(rounds), "--first", first]
            done = subprocess.run(child, capture_output=True, text=True, check=True)
            results[first] = json.loads(done.stdout.splitlines()[-1])
    for workload in next(iter(results.values())):
        times = {first: np.array(results[first][workload]["times"]) if first in results else np.empty((0, 2))
                 for first in ORDERS}
        report(workload, times, max(result[workload]["gap"] for result in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
