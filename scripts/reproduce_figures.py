#!/usr/bin/env python3
"""Run every preset parameter study and write CSVs plus plot descriptions.

By default uses 100k simulation samples per point (about a minute for all
four studies); pass --samples to trade time for tighter intervals, or
--analytic-only to skip simulation entirely.  With --render and matplotlib
installed, also draws PNGs from the declarative plot descriptions to show
one way of consuming them.

Exit codes: 0 on success, 2 on a usage error, an invalid parameter or a
typed numerical error, the last two printed as one ``error: ...`` line.
An invalid parameter is found before the output directory is made.

Usage:
    python3 scripts/reproduce_figures.py --outdir out/figures
    python3 scripts/reproduce_figures.py --analytic-only --render
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from secrecy_outage import McSettings, NumericalIntegrityError, QuadratureConvergenceError
from secrecy_outage.figures import (
    available_presets,
    plot_description,
    run_figure,
    write_figure_csv,
    write_plot_description,
)
from secrecy_outage.sweep import EvalMethod


def render_png(description: dict, target: Path) -> bool:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False

    fig, ax = plt.subplots(figsize=(7.0, 5.0))
    for series in description["series"]:
        xs = [p["x"] for p in series["points"]]
        ys = [p["y"] for p in series["points"]]
        style = {"analytic": "-", "asymptotic": ":", "quadrature": "--"}.get(
            series["method"]
        )
        if series["method"] == "mc":
            ax.plot(xs, ys, "o", markersize=3.5, label=series["label"])
        else:
            ax.plot(xs, ys, style, label=series["label"])
    ax.set_xlabel(description["x_axis"]["label"])
    ax.set_ylabel(description["y_axis"]["label"])
    ax.set_yscale(description["y_axis"]["scale"])
    ax.set_title(description["title"], fontsize=9)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend(fontsize=6)
    fig.tight_layout()
    fig.savefig(target, dpi=150)
    plt.close(fig)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out/figures", help="output directory")
    parser.add_argument("--samples", type=int, default=100_000,
                        help="simulation samples per point")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--analytic-only", action="store_true",
                        help="skip simulation points")
    parser.add_argument("--render", action="store_true",
                        help="also draw PNGs (requires matplotlib)")
    parser.add_argument("--preset", action="append", choices=available_presets(),
                        help="limit to specific presets; repeatable")
    args = parser.parse_args()

    mc = McSettings(n_samples=args.samples, seed=args.seed)
    if args.analytic_only:
        methods = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC)
    else:
        methods = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.MC)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in args.preset or available_presets():
        start = time.perf_counter()
        result = run_figure(name, mc=mc, methods=methods)
        description = plot_description(result)
        csv_path = outdir / f"{name}.csv"
        json_path = outdir / f"{name}.json"
        write_figure_csv(result, csv_path)
        write_plot_description(description, json_path)
        made_png = args.render and render_png(description, outdir / f"{name}.png")
        elapsed = time.perf_counter() - start
        extras = " + png" if made_png else ""
        print(f"{name}: {csv_path} + {json_path}{extras} ({elapsed:.1f}s)")
        if args.render and not made_png:
            print("  (matplotlib not installed; skipped rendering)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, NumericalIntegrityError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
