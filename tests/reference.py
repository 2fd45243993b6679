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
Regenerate it only when a change is meant to move values, and say by how
much:

    PYTHONPATH=src python tests/reference.py

Before it rewrites the file, the script prints each route's largest relative
move against the values stored there.
"""

from __future__ import annotations

import json
import math
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
    run_sweeps,
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
    specs = [
        SweepSpec(
            base=base, snr_db_start=-10.0, snr_db_stop=40.0, snr_db_step=10.0,
            schemes=(Scheme.SS, Scheme.OS), scenarios=(Scenario.KU, Scenario.KA),
            methods=tuple(EvalMethod), mc=mc,
        )
        for base in EDGE_BASES.values()
    ]
    for name, result in zip(EDGE_BASES, run_sweeps(specs)):
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


def largest_moves(stored: dict, values: dict) -> dict[str, float]:
    """Per route, the largest relative move of a value against the stored one.

    A (section, method) list that is new, gone or of another length counts
    as an infinite move.
    """
    moves = dict.fromkeys(TOLERANCES, 0.0)
    for key in stored.keys() | values.keys():
        old, new = stored.get(key), values.get(key)
        if old is None or new is None or len(old) != len(new):
            move = math.inf
        else:
            move = max(map(_move, new, old), default=0.0)
        moves[route(key)] = max(moves[route(key)], move)
    return moves


if __name__ == "__main__":
    values = {key: [value for _, value in pairs] for key, pairs in reference_values().items()}
    if PATH.exists():
        stored = json.loads(PATH.read_text(encoding="utf-8"))["values"]
        for name, move in largest_moves(stored, values).items():
            print(f"{name}: largest relative move {move:.3g}")
    PATH.write_text(json.dumps({"tolerances": TOLERANCES, "values": values}) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, values.values()))} values to {PATH}")
