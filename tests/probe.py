"""The extreme-domain probe: where the closed form and quadrature disagree, and which of them is wrong.

It draws seeded queries far outside the validation grid: K in {1, 2, 3, 5,
8, 13, 20, 30}, M and N in {1, 2, 4, 8, 16, 24}, a and b log-uniform on
[1e-4, 1e4], zeta in {1e-6, 0.3, 0.9, 1}, r_th in {0, 0.01, 1, 5, 12, 30},
the SNR uniform on [-80, 120] dB and the case uniform over the four.  The
queries are planned once (``analytic.CasePlan``), and each distinct inner
key is evaluated by the closed form's own series (one batch, without the
quadrature fallback that ``analytic_inner`` gives flagged keys) and by
tight quadrature (rel 1e-12), one lone row per key so that a row which does not
converge is counted, not fatal.  Where the two differ by more than 1e-9
relative, the 60-digit series (``oracles.selection_series_mp``) settles
which route is wrong, unless its own rounding (``ORACLE_DIGITS`` times the
sum of its terms' sizes) could decide it: the one farther from it, and the
nearer one too where that is off by more than 1e-9 relative and more than
ten times the rounding, so a quadrature miss beside a worse closed form
still counts.
``probe`` returns the counts: how many keys the closed form flags and how
many do not converge, how many keys disagree, and per route which of those
it got wrong; ``main`` prints them, with each route's worst key, the
closed form's wrong keys split by the case rule's power L (L = 1, a single
link's law, or L > 1, the selection series proper), and every key the
closed form gets wrong without flagging it, each at full precision.
The tight tolerance is set for the quadrature rows only and restored
after.  At 400 queries it takes about 5 s and is run by hand:

    PYTHONPATH=src python tests/probe.py [--queries 400] [--seed 12]

``tests/test_probe.py`` runs 120 queries of seed 12 in the tier-1 suite.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from oracles import ORACLE_DIGITS, selection_series_mp
from secrecy_outage import SystemConfig
from secrecy_outage import quadrature
from secrecy_outage.analytic import CASES, CasePlan, Scenario, Scheme, SopQuery, _grouped_inner
from secrecy_outage.sweep import db_to_linear

KS = (1, 2, 3, 5, 8, 13, 20, 30)
PATHS = (1, 2, 4, 8, 16, 24)
ZETAS = (1e-6, 0.3, 0.9, 1.0)
THRESHOLDS = (0.0, 0.01, 1.0, 5.0, 12.0, 30.0)
DISAGREE = 1e-9  # relative gap between the two routes that calls for the oracle


def draw_queries(n: int, seed: int) -> list[SopQuery]:
    """``n`` seeded queries over the extreme domain."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n):
        a, b = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
        cfg = SystemConfig(
            K=int(rng.choice(KS)),
            zeta=float(rng.choice(ZETAS)),
            r_th=float(rng.choice(THRESHOLDS)),
            snr=db_to_linear(float(rng.uniform(-80.0, 120.0))),
            M=int(rng.choice(PATHS)),
            N=int(rng.choice(PATHS)),
            a=float(a),
            b=float(b),
        )
        queries.append(SopQuery(cfg, *CASES[rng.integers(len(CASES))]))
    return queries


def _law(cell) -> tuple[int, float]:
    """A cell's (L, w) by the case table: L = K under ss, else 1; w = zeta under ka, else 1."""
    cfg, scheme, scenario = cell
    return (cfg.K if scheme is Scheme.SS else 1, cfg.zeta if scenario is Scenario.KA else 1.0)


def _describe(cells, err: float, at: int, exact: float) -> str:
    """A wrong key: its error against the 60-digit series, and the key, exactly enough to rebuild it."""
    cfg = cells[at][0]
    L, w = _law(cells[at])
    return (
        f"error {err:.2g} (relative {err / abs(exact):.2g}, exact {exact:.11g}) at K={cfg.K} M={cfg.M} "
        f"N={cfg.N} a={cfg.a!r} b={cfg.b!r} r_th={cfg.r_th:g} snr={cfg.snr!r} "
        f"({10.0 * math.log10(cfg.snr):.2f} dB) (L, w)=({L}, {w:g})"
    )


def probe(n: int, seed: int) -> dict:
    """The probe over ``n`` queries drawn at ``seed``: its distinct keys, flags, failures and wrong keys.

    ``wrong`` maps each route to the (error, key index, 60-digit value) of
    the settled keys it got wrong; ``seconds`` times the three stages.
    """
    plan = CasePlan.of(draw_queries(n, seed))
    cells = [plan.cells[first] for first in plan.first]
    start = time.perf_counter()
    closed, flags = _grouped_inner(plan, floor=False)
    closed_s = time.perf_counter() - start
    quad, failed = [], 0
    tolerance, quadrature.REL_TOL = quadrature.REL_TOL, 1e-12
    start = time.perf_counter()
    try:
        for cell in cells:
            try:
                (value,), _ = quadrature.quadrature_inner(CasePlan([cell]))
            except quadrature.QuadratureConvergenceError as exc:
                value, failed = exc.value, failed + 1
            quad.append(value)
    finally:
        quadrature.REL_TOL = tolerance
    quad_s = time.perf_counter() - start
    wrong, unsettled = {"closed form": [], "quadrature": []}, 0
    disagree = [
        at for at, (c, q) in enumerate(zip(closed, quad)) if not abs(c - q) <= DISAGREE * max(abs(c), abs(q))
    ]
    start = time.perf_counter()
    for at in disagree:
        cfg = cells[at][0]
        exact, size = selection_series_mp(cfg.M, cfg.N, cfg.a, cfg.b, cfg.rho, cfg.snr, *_law(cells[at]))
        if ORACLE_DIGITS * size > abs(closed[at] - quad[at]) / 10.0:
            unsettled += 1  # the 60-digit sum's own rounding could decide it
            continue
        errors = {"closed form": abs(closed[at] - exact), "quadrature": abs(quad[at] - exact)}
        farther = max(errors, key=errors.get)
        for route, error in errors.items():
            if route == farther or error > max(DISAGREE * abs(exact), 10.0 * ORACLE_DIGITS * size):
                wrong[route].append((error, at, exact))
    seconds = (closed_s, quad_s, time.perf_counter() - start)
    return {
        "cells": cells, "flags": flags, "failed": failed, "disagree": len(disagree),
        "unsettled": unsettled, "wrong": wrong, "seconds": seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Probe the closed form against quadrature on an extreme domain.")
    parser.add_argument("--queries", type=int, default=400, help="number of seeded queries (default 400)")
    parser.add_argument("--seed", type=int, default=12, help="seed of the query draw (default 12)")
    args = parser.parse_args(argv)
    counts = probe(args.queries, args.seed)
    cells, flags = counts["cells"], counts["flags"]
    closed_s, quad_s, oracle_s = counts["seconds"]
    print(
        f"{args.queries} queries (seed {args.seed}), {len(cells)} distinct keys: "
        f"closed form {closed_s:.1f} s, quadrature (rel 1e-12) {quad_s:.1f} s"
    )
    print(f"closed form flagged: {sum(flags)} keys; quadrature did not converge: {counts['failed']} keys")
    print(
        f"closed form and quadrature disagree by more than {DISAGREE:g} relative: {counts['disagree']} keys; "
        f"the 60-digit series ({oracle_s:.1f} s) is short of digits on {counts['unsettled']}"
    )
    for route, errors in counts["wrong"].items():
        lines = [f"  wrong on the {route}: {len(errors)} keys"]
        if errors:
            lines.append(f"    worst {_describe(cells, *max(errors))}")
        if route == "closed form":
            unflagged = sorted((e for e in errors if not flags[e[1]]), reverse=True)
            single = sum(_law(cells[at])[0] == 1 for _, at, _ in errors)
            lines[0] += f" ({len(errors) - len(unflagged)} flagged)"
            lines.insert(1, (
                f"    {single} with L = 1 (best-ratio keys, and ss at K = 1), which a finite positive sum "
                f"can take; {len(errors) - single} with L > 1"
            ))
            lines += [f"    unflagged {_describe(cells, *miss)}" for miss in unflagged]
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
