#!/usr/bin/env python3
"""Tabulate how much each selection scheme gains from knowing the active backhaul links.

The paper concludes that the optimal scheme (os) gains more than the
strongest-link scheme (ss) from active-set knowledge.  "Gains" has two
readings: the drop in outage, ku - ka, and the ratio ku / ka.  This table
gives both, per scheme, over transmitter counts K, reliabilities zeta and
path counts (M, N), once at a given SNR and once at the high-SNR floor, and
names the scheme that gains more under each reading.  At the reference
point the drop form fails at K = 2 while the ratio form holds.

All closed forms come from one ``analytic_sops`` batch and all floors from
one ``asymptotic_sops`` batch.  A ratio over a ka outage that underflowed to 0 reads inf, or nan when ku is 0 too;
such a ratio names no winner where it is nan or both schemes' are inf.

Exit codes: 0 on success, 2 on a usage error, an invalid parameter or a
typed numerical error, the last two printed as one ``error: ...`` line.

Usage:
    python3 scripts/knowledge_benefit.py
    python3 scripts/knowledge_benefit.py --snr-db 30 --K 2 --K 8 --zeta 0.7 --MN 6,4 --MN 2,6
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from secrecy_outage import (
    REFERENCE_CONFIG,
    NumericalIntegrityError,
    QuadratureConvergenceError,
    Scenario,
    Scheme,
    SopQuery,
    analytic_sops,
    asymptotic_sops,
    db_to_linear,
)

SCHEMES = (Scheme.SS, Scheme.OS)
SCENARIOS = (Scenario.KU, Scenario.KA)


def _path_counts(text: str) -> tuple[int, int]:
    M, N = text.split(",")
    return int(M), int(N)


def _ratio(ku: float, ka: float) -> float:
    """ku / ka, reading inf over a ka that underflowed to 0, or nan when both did."""
    if ka:
        return ku / ka
    return math.copysign(math.inf, ku) if ku else math.nan


def _winner(ss: float, os: float) -> str:
    """The scheme with the larger gain; a nan gain, or two infinite ones, names none."""
    if math.isnan(os - ss):
        return "n/a"
    return "os" if os > ss else "ss" if ss > os else "tie"


def _table(title: str, points, values) -> list[str]:
    """One row per (K, zeta, M, N): each scheme's drop and ratio, and who gains more by each."""
    header = (
        f"{'K':>3} {'zeta':>6} {'M':>3} {'N':>3} | {'ss drop':>12} {'os drop':>12} | "
        f"{'ss ratio':>11} {'os ratio':>11} | {'drop':>5} {'ratio':>6}"
    )
    lines = [title, header, "-" * len(header)]
    for (K, zeta, M, N), cells in zip(points, values):
        (ss_ku, ss_ka, os_ku, os_ka) = (cell.value for cell in cells)
        ss_drop, os_drop = ss_ku - ss_ka, os_ku - os_ka
        ss_ratio, os_ratio = _ratio(ss_ku, ss_ka), _ratio(os_ku, os_ka)
        lines.append(
            f"{K:>3} {zeta:>6.2f} {M:>3} {N:>3} | {ss_drop:>12.4e} {os_drop:>12.4e} | "
            f"{ss_ratio:>11.5g} {os_ratio:>11.5g} | {_winner(ss_drop, os_drop):>5} {_winner(ss_ratio, os_ratio):>6}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--K", type=int, action="append",
                        help="transmitter counts; repeatable (default 2 3 5)")
    parser.add_argument("--zeta", type=float, action="append",
                        help="reliabilities; repeatable (default 0.9 0.99)")
    parser.add_argument("--MN", type=_path_counts, action="append", metavar="M,N",
                        help="destination and eavesdropper path counts; repeatable (default 6,4 2,4 6,2)")
    ref = REFERENCE_CONFIG
    parser.add_argument("--snr-db", type=float, default=10.0, help="SNR of the first table in dB (default 10)")
    parser.add_argument("--rth", type=float, default=ref.r_th)
    parser.add_argument("--a", type=float, default=ref.a)
    parser.add_argument("--b", type=float, default=ref.b)
    args = parser.parse_args()

    base = replace(ref, snr=db_to_linear(args.snr_db), r_th=args.rth, a=args.a, b=args.b)
    points = [
        (K, zeta, M, N)
        for M, N in args.MN or [(6, 4), (2, 4), (6, 2)]
        for K in args.K or [2, 3, 5]
        for zeta in args.zeta or [0.9, 0.99]
    ]
    # per point: ss/ku, ss/ka, os/ku, os/ka
    queries = [
        SopQuery(replace(base, K=K, zeta=zeta, M=M, N=N), scheme, scenario)
        for K, zeta, M, N in points
        for scheme in SCHEMES
        for scenario in SCENARIOS
    ]
    per_point = len(SCHEMES) * len(SCENARIOS)
    for title, values in (
        (f"at {args.snr_db} dB", analytic_sops(queries)),
        ("at the high-SNR floor", asymptotic_sops(queries)),
    ):
        rows = [values[i : i + per_point] for i in range(0, len(values), per_point)]
        print("\n".join(_table(f"knowledge benefit ku - ka and ku / ka {title} "
                               f"(r_th={args.rth}, a={args.a}, b={args.b})", points, rows)))
        print()
    print("drop/ratio: the scheme whose outage falls more from ku to ka (n/a where a ratio is nan or both are inf);")
    print("a ratio over an outage that underflowed to 0 reads inf, or nan if ku did too")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, NumericalIntegrityError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
