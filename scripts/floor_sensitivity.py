#!/usr/bin/env python3
"""Tabulate the high-SNR outage floors against backhaul reliability.

The floors tell the design story in one table: blind selection is pinned at
1 - zeta no matter how many transmitters are added, while active-set
selection drives the floor down like (1 - zeta)^K.  Adding a transmitter is
worth another factor of (1 - zeta) only when the selector knows which
backhaul links are up.

Usage:
    python3 scripts/floor_sensitivity.py
    python3 scripts/floor_sensitivity.py --zeta 0.8 --zeta 0.95 --K 1 --K 4
"""

from __future__ import annotations

import argparse
import sys

from secrecy_outage import REFERENCE_CONFIG, Scenario, Scheme, SopQuery, SystemConfig, asymptotic_sops


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

    cases = [(scheme, scenario) for scheme in (Scheme.SS, Scheme.OS) for scenario in (Scenario.KU, Scenario.KA)]
    queries = [
        SopQuery(SystemConfig(K=K, zeta=zeta, r_th=args.rth, snr=1.0, M=args.M, N=args.N, a=args.a, b=args.b),
                 scheme, scenario)
        for zeta in zetas
        for K in ks
        for scheme, scenario in cases
    ]
    values = iter(asymptotic_sops(queries))  # one batch, read back in the same order

    header = f"{'K':>3} {'zeta':>6} | {'ss/ku':>11} {'os/ku':>11} {'ss/ka':>11} {'os/ka':>11} | {'ka gain':>8}"
    print(header)
    print("-" * len(header))
    for zeta in zetas:
        for K in ks:
            floors = {case: next(values).value for case in cases}
            gain = floors[(Scheme.OS, Scenario.KU)] / floors[(Scheme.OS, Scenario.KA)]
            print(
                f"{K:>3} {zeta:>6.2f} | "
                f"{floors[(Scheme.SS, Scenario.KU)]:>11.4e} "
                f"{floors[(Scheme.OS, Scenario.KU)]:>11.4e} "
                f"{floors[(Scheme.SS, Scenario.KA)]:>11.4e} "
                f"{floors[(Scheme.OS, Scenario.KA)]:>11.4e} | "
                f"{gain:>8.1f}x"
            )
        print()
    print("blind floors are capped by 1 - zeta; active-set floors keep "
          "falling with K")
    return 0


if __name__ == "__main__":
    sys.exit(main())
