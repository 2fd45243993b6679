"""The regression oracle: every route's values on a fixed set of cases.

``reference_values()`` evaluates
  - the closed form, floor and quadrature rows of the 8 figure jobs (each
    preset under ku and under ka);
  - the closed form, floor and quadrature (one stack, then each cell alone)
    of the 144 validation-grid cells;
  - fig2 by Monte Carlo at 2048 samples, seed 5;
  - the three ``EDGE_BASES`` sweeps of test_sweep.py with all four methods
    at 1024 samples, seed 3.

Monte Carlo values are stored as outage counts.  The stored file,
``reference_values.json``, was written by an earlier revision of the
package; ``test_reference.py`` checks the current one against it, each
route within its own relative tolerance and the counts exactly.
To see how far the current package moves each route, without touching
the file:

    PYTHONPATH=src python tests/reference.py --check

It prints each route's largest relative move against the stored values,
with the (section, cell) it came from, and exits non-zero if any move
exceeds that route's entry in ``TOLERANCES``.
A change meant to keep values runs this and leaves the file as it is.
Regenerate the file only when a change is meant to move values, and say by
how much:

    PYTHONPATH=src python tests/reference.py

That prints the same moves, then rewrites the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from secrecy_outage import (
    McSettings,
    Scenario,
    Scheme,
    ValidationSettings,
    analytic_sops,
    asymptotic_sops,
    quadrature_sop,
    quadrature_sops,
    run_figure,
    run_sweep,
)
from secrecy_outage.figures import FIGURE_PRESETS
from secrecy_outage.sweep import EvalMethod, SweepSpec
from secrecy_outage.validation import _case_queries

from test_sweep import EDGE_BASES

PATH = Path(__file__).with_name("reference_values.json")

# The largest relative move each route may make against the stored values,
# set from the largest move a value-preserving change has made: closed forms
# and floors when the incomplete gamma moved into numpy, quadrature when its
# levels were batched.  Monte Carlo counts must match exactly.
TOLERANCES = {"analytic": 3.0e-11, "asymptotic": 3.9e-12, "quadrature": 5.6e-15, "mc": 0}

_DETERMINISTIC = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE)


def _rows(section: str, labelled_rows, out: dict) -> None:
    """File sweep rows under (section, method), labelled by cell; Monte Carlo rows as outage counts."""
    for label, row, mc in labelled_rows:
        value = row.sop if row.method is not EvalMethod.MC else round(row.sop * mc.n_samples)
        key = f"{label} {row.snr_db} dB {row.scheme.value}/{row.scenario.value}"
        out.setdefault(f"{section} {row.method.value}", []).append((key, value))


def reference_values() -> dict[str, list[tuple[str, float]]]:
    """Every (section, route) list of (cell label, value), in a fixed order."""
    out: dict[str, list] = {}
    for name in sorted(FIGURE_PRESETS):
        for scenario in (Scenario.KU, Scenario.KA):
            result = run_figure(name, scenario=scenario, methods=_DETERMINISTIC)
            _rows("figures", (
                (f"{name} {cfg}", row, None) for cfg, sweep in result.per_variant for row in sweep.rows
            ), out)
    mc = McSettings(n_samples=2048, seed=5)
    result = run_figure("fig2", mc=mc, methods=(EvalMethod.MC,))
    _rows("fig2", ((f"fig2 {cfg}", row, mc) for cfg, sweep in result.per_variant for row in sweep.rows), out)
    mc = McSettings(n_samples=1024, seed=3)
    spec = SweepSpec(
        bases=tuple(EDGE_BASES.values()), snr_db_start=-10.0, snr_db_stop=40.0, snr_db_step=10.0,
        schemes=(Scheme.SS, Scheme.OS), scenarios=(Scenario.KU, Scenario.KA),
        methods=tuple(EvalMethod), mc=mc,
    )
    for name, result in zip(EDGE_BASES, run_sweep(spec)):
        _rows("edges", ((name, row, mc) for row in result.rows), out)
    queries = _case_queries(ValidationSettings().grid_configs())
    labels = [f"{q.cfg} {q.scheme.value}/{q.scenario.value}" for q in queries]
    routes = {
        "analytic": [value.value for value in analytic_sops(queries)],
        "asymptotic": [value.value for value in asymptotic_sops(queries)],
        "quadrature": quadrature_sops(queries),
        "quadrature lone": [quadrature_sop(query) for query in queries],
    }
    for name, values in routes.items():
        out[f"grid {name}"] = list(zip(labels, values))
    return out


def route(key: str) -> str:
    """The route whose tolerance a (section, method) key takes."""
    return key.split()[1]


def _move(value: float, expected: float) -> float:
    """The relative move of ``value`` from ``expected``; an infinite one off a stored 0."""
    if value == expected:
        return 0.0
    return abs(value - expected) / abs(expected) if expected else math.inf


def largest_moves(stored: dict, pairs: dict) -> dict[str, tuple[float, str]]:
    """Per route, the largest relative move of a value against the stored one, and where it is.

    ``pairs`` maps each (section, method) key to its (cell label, value)
    pairs; a move is placed as "key | cell label".  A list that is new, gone
    or of another length counts as an infinite move, placed at its key.
    Ties keep the first place in key order.
    """
    moves = {name: (0.0, "") for name in TOLERANCES}
    for key in sorted(stored.keys() | pairs.keys()):
        old, new = stored.get(key), pairs.get(key)
        if old is None or new is None or len(old) != len(new):
            found = (math.inf, key)
        else:
            found = max(
                ((_move(value, expected), f"{key} | {label}") for (label, value), expected in zip(new, old)),
                key=lambda move_where: move_where[0],
                default=(0.0, ""),
            )
        if found[0] > moves[route(key)][0]:
            moves[route(key)] = found
    return moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print every route's move against the stored reference values.")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero past TOLERANCES and leave the stored file unchanged",
    )
    args = parser.parse_args(argv)
    pairs = reference_values()
    values = {key: [value for _, value in entries] for key, entries in pairs.items()}
    moves = {}
    if PATH.exists():
        stored = json.loads(PATH.read_text(encoding="utf-8"))["values"]
        moves = largest_moves(stored, pairs)
        for name, (move, where) in moves.items():
            print(f"{name}: largest relative move {move:.3g}" + (f" at {where}" if move else ""))
    elif args.check:
        print(f"no stored values at {PATH}")
        return 1
    if args.check:
        over = [name for name, (move, _) in moves.items() if move > TOLERANCES[name]]
        for name in over:
            print(f"{name}: move exceeds its tolerance {TOLERANCES[name]:.3g}")
        return 1 if over else 0
    PATH.write_text(json.dumps({"tolerances": TOLERANCES, "values": values}) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, values.values()))} values to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
