#!/usr/bin/env python3
"""Tabulate the high-SNR outage floors against backhaul reliability.

The floors tell the design story in one table: blind selection is pinned at
1 - zeta no matter how many transmitters are added, while active-set
selection drives the floor down like (1 - zeta)^K.  Adding a transmitter is
worth another factor of (1 - zeta) only when the selector knows which
backhaul links are up.

A floor whose alternating series loses significance holds quadrature's
value at alpha = 0.  The last column, os ku / ka, reads inf over an os/ka floor that
underflowed to 0, or nan when os/ku is 0 too.

Exit codes: 0 on success, 2 on a usage error, an invalid parameter or a
typed numerical error, the last two printed as one ``error: ...`` line.

Usage:
    python3 scripts/floor_sensitivity.py
    python3 scripts/floor_sensitivity.py --zeta 0.8 --zeta 0.95 --K 1 --K 4
"""

from __future__ import annotations

import argparse
import math
import sys

from secrecy_outage import (
    REFERENCE_CONFIG,
    NumericalIntegrityError,
    QuadratureConvergenceError,
    Scenario,
    Scheme,
    SopQuery,
    SystemConfig,
    asymptotic_sops,
)


def _ratio(ku: float, ka: float) -> float:
    """ku / ka, reading inf over a ka floor that underflowed to 0, or nan when both did."""
    if ka:
        return ku / ka
    return math.copysign(math.inf, ku) if ku else math.nan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--K", type=int, action="append",
                        help="transmitter counts; repeatable (default 1 2 3 5)")
    parser.add_argument("--zeta", type=float, action="append",
                        help="reliabilities; repeatable (default 0.9 0.99)")
    ref = REFERENCE_CONFIG
    parser.add_argument("--rth", type=float, default=ref.r_th)
    parser.add_argument("--M", type=int, default=ref.M)
    parser.add_argument("--N", type=int, default=ref.N)
    parser.add_argument("--a", type=float, default=ref.a)
    parser.add_argument("--b", type=float, default=ref.b)
    args = parser.parse_args()

    ks = args.K or [1, 2, 3, 5]
    zetas = args.zeta or [0.9, 0.99]

    # in column order: ss/ku, os/ku, ss/ka, os/ka
    cases = [(scheme, scenario) for scenario in (Scenario.KU, Scenario.KA) for scheme in (Scheme.SS, Scheme.OS)]
    queries = [
        SopQuery(SystemConfig(K=K, zeta=zeta, r_th=args.rth, snr=1.0, M=args.M, N=args.N, a=args.a, b=args.b),
                 scheme, scenario)
        for zeta in zetas
        for K in ks
        for scheme, scenario in cases
    ]
    values = iter(asymptotic_sops(queries))  # one batch, read back in the same order

    header = f"{'K':>3} {'zeta':>6} | {'ss/ku':>12} {'os/ku':>12} {'ss/ka':>12} {'os/ka':>12} | {'os ku/ka':>10}"
    print(header)
    print("-" * len(header))
    for zeta in zetas:
        for K in ks:
            floors = {case: next(values) for case in cases}
            os_ku, os_ka = floors[(Scheme.OS, Scenario.KU)], floors[(Scheme.OS, Scenario.KA)]
            gain = _ratio(os_ku.value, os_ka.value)
            print(
                f"{K:>3} {zeta:>6.2f} | "
                + " ".join(f"{floors[case].value:>12.4e}" for case in cases)
                + f" | {gain:>10.5g}"
            )
        print()
    print("blind floors are capped by 1 - zeta; active-set floors keep "
          "falling with K")
    print("os ku/ka reads inf over an os/ka floor that underflowed to 0, or nan if os/ku did too")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, NumericalIntegrityError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
