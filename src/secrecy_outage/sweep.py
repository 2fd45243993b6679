"""SNR sweeps and their CSV serialization.

The CSV format is a contract: header ``snr_db,scheme,scenario,method,sop,
ci_half_width,flags``, UTF-8, LF line endings, no trailing delimiter, rows
sorted lexicographically by (snr_db, scheme, scenario, method), floats in
shortest round-trip form.  When simulation rows are present the seed and
sample count are recorded in a trailing comment line so any file can be
reproduced exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path

import numpy as np

from .analytic import CasePlan, EvalMethod, SopQuery, Scenario, Scheme, analytic_inner, asymptotic_inner, case_sop
from .channel import SystemConfig, _at_snr
from .montecarlo import McSettings, simulate_sop
from .quadrature import quadrature_inner

# Bound though unused here: perfbench/child.py's traced_api rebinds these names.
from .analytic import analytic_sop, asymptotic_sop  # noqa: F401
from .quadrature import quadrature_sop  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "EvalMethod",
    "MAX_SNR_POINTS",
    "SweepRow",
    "SweepResult",
    "SweepSpec",
    "db_to_linear",
    "evaluate_cell",
    "read_sweep_csv",
    "run_sweep",
    "run_sweeps",
    "snr_grid",
    "write_sweep_csv",
]

CSV_HEADER = ("snr_db", "scheme", "scenario", "method", "sop", "ci_half_width", "flags")

# A sweep longer than this is a mistyped step, not a study; it is refused
# before any grid list is built.
MAX_SNR_POINTS = 100_000

FLAG_SIGNIFICANCE = "significance_loss"
FLAG_LOW_CONFIDENCE = "low_confidence"


def db_to_linear(snr_db: float) -> float:
    """Decibel to linear power ratio; the only place dB enters the library."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"{snr_db} dB is too large for a linear power ratio") from None


@dataclass(frozen=True, slots=True)
class SweepRow:
    snr_db: float
    scheme: Scheme
    scenario: Scenario
    method: EvalMethod
    sop: float
    ci_half_width: float | None
    flags: str


@dataclass(frozen=True)
class SweepSpec:
    """An SNR grid crossed with scheme/scenario/method sets.

    ``base.snr`` is a placeholder; each grid point overrides it with the
    linear equivalent of its dB value.  Scheme, scenario and method strings
    become their enums, as in ``SopQuery``; an unknown or repeated one
    raises ``ValueError``.
    """

    base: SystemConfig
    snr_db_start: float
    snr_db_stop: float
    snr_db_step: float
    schemes: tuple[Scheme, ...] = (Scheme.SS,)
    scenarios: tuple[Scenario, ...] = (Scenario.KU,)
    methods: tuple[EvalMethod, ...] = (EvalMethod.ANALYTIC,)
    mc: McSettings = field(default_factory=McSettings)

    def __post_init__(self):
        grid = (self.snr_db_start, self.snr_db_stop, self.snr_db_step)
        if not all(map(math.isfinite, grid)):
            raise ValueError(f"SNR start, stop and step must be finite, got {grid!r}")
        if self.snr_db_step <= 0.0:
            raise ValueError(f"snr_db_step must be > 0, got {self.snr_db_step!r}")
        if self.snr_db_stop < self.snr_db_start:
            raise ValueError("snr_db_stop must be >= snr_db_start")
        db_to_linear(self.snr_db_stop)  # raises ValueError past the largest linear ratio
        if db_to_linear(self.snr_db_start) == 0.0:
            raise ValueError(f"snr_db_start {self.snr_db_start!r} dB is 0 on the linear scale")
        if _steps(self) >= MAX_SNR_POINTS:  # a float, so a huge or infinite count compares too
            raise ValueError(f"SNR start, stop and step {grid!r} give more than {MAX_SNR_POINTS} points")
        points = snr_grid(self)  # never decreasing, so a repeated point is a neighbour's
        if len(set(points)) < len(points):
            raise ValueError(f"SNR step {self.snr_db_step!r} is below the float spacing: the grid repeats points")
        for name, enum in (("schemes", Scheme), ("scenarios", Scenario), ("methods", EvalMethod)):
            members = tuple(map(enum, getattr(self, name)))
            if not members or len(set(members)) < len(members):
                raise ValueError(f"{name} must be distinct and non-empty, got {[m.value for m in members]}")
            object.__setattr__(self, name, members)


def _steps(spec: SweepSpec) -> float:
    """Whole steps from start to stop, before flooring; a small slack absorbs binary step representation."""
    return (spec.snr_db_stop - spec.snr_db_start) / spec.snr_db_step + 1e-9


def snr_grid(spec: SweepSpec) -> list[float]:
    """Inclusive dB grid of ``int(_steps(spec)) + 1`` points."""
    count = int(_steps(spec)) + 1
    return [spec.snr_db_start + i * spec.snr_db_step for i in range(count)]


# Every enum member's string, read by the CSV writer instead of ``Enum.value``.
_NAMES = {member: member.value for enum in (Scheme, Scenario, EvalMethod) for member in enum}

# A cell's flag is stored as its index here: a closed form's significance
# flag is its code, and a low-confidence estimate is code 2.
_FLAGS = ("", FLAG_SIGNIFICANCE, FLAG_LOW_CONFIDENCE)


def _case_route(inner, method: EvalMethod):
    """A deterministic route's cells: the case rule over ``inner``'s values of the plan's distinct keys; no CI."""

    def route(plan: CasePlan, mc):
        values, flags = case_sop(plan, inner, method)
        return values, None, flags

    return route


def _mc_route(cells, mc: McSettings):
    """One ``simulate_sop`` per cell, in cell order: Monte Carlo has no batch entry yet, and reads no plan."""
    estimates = [simulate_sop(SopQuery(*cell), mc) for cell in cells]
    return (
        [estimate.p_hat for estimate in estimates],
        [estimate.ci_half_width for estimate in estimates],
        [2 if estimate.low_confidence else 0 for estimate in estimates],
    )


# Every route's values of a batch's cells, as (batch, mc) -> (sops, cis or None, flag codes), in cell
# order; a batch is its cells' ``CasePlan`` for the planned routes and the cell list for Monte Carlo.
_ROUTES = {
    EvalMethod.ANALYTIC: _case_route(analytic_inner, EvalMethod.ANALYTIC),
    EvalMethod.ASYMPTOTIC: _case_route(asymptotic_inner, EvalMethod.ASYMPTOTIC),
    EvalMethod.QUADRATURE: _case_route(quadrature_inner, EvalMethod.QUADRATURE),
    EvalMethod.MC: _mc_route,
}


def evaluate_cell(
    cfg: SystemConfig,
    scheme: Scheme,
    scenario: Scenario,
    method: EvalMethod,
    mc: McSettings,
) -> tuple[float, float | None, str]:
    """Evaluate one (config, case, method) cell as a batch of one; returns (sop, ci, flags)."""
    method, cells = EvalMethod(method), [(cfg, Scheme(scheme), Scenario(scenario))]
    (sop,), cis, (flag,) = _ROUTES[method](cells if method is EvalMethod.MC else CasePlan(cells), mc)
    return sop, None if cis is None else cis[0], _FLAGS[flag]


@dataclass(eq=False, slots=True)
class SweepResult:
    """A sweep's cells as a table: one row per SNR grid point, one column per case.

    ``snr_db`` is the grid and ``cases`` the (scheme, scenario, method)
    columns, sorted by their strings, so the table read point by point, then
    column by column, is the CSV contract's row order.  ``sop`` and
    ``ci_half_width`` are (points, cases) float64 arrays, the latter NaN
    where a cell has no confidence interval, and ``flag`` holds each cell's
    index into the flag strings ("", significance loss, low confidence).
    ``rows`` is a view: a new ``SweepRow`` list on each access, never kept.
    """

    snr_db: np.ndarray
    cases: tuple[tuple[Scheme, Scenario, EvalMethod], ...]
    sop: np.ndarray
    ci_half_width: np.ndarray
    flag: np.ndarray
    mc: McSettings | None = None

    def _points(self):
        """Per grid point, as Python numbers: its snr_db and its lists of sop, ci_half_width and flag."""
        return zip(self.snr_db.tolist(), self.sop.tolist(), self.ci_half_width.tolist(), self.flag.tolist())

    @property
    def rows(self) -> list[SweepRow]:
        """A new ``SweepRow`` list built from the table; ``None`` where a cell has no CI."""
        return [
            SweepRow(snr_db, *case, sop, None if math.isnan(ci) else ci, _FLAGS[flag])
            for snr_db, sops, cis, flags in self._points()
            for case, sop, ci, flag in zip(self.cases, sops, cis, flags)
        ]


def run_sweeps(specs) -> list[SweepResult]:
    """Evaluate every grid cell of sweeps that differ only in their base; one result per spec, in input order.

    Every spec must equal the first in all but ``base`` (its grid, cases,
    methods and ``McSettings``); any other raises ``ValueError`` before any
    route runs.  The cells are the specs' grid points crossed with their
    (scheme, scenario) pairs, spec by spec, point by point, the pairs in
    column order.  One ``CasePlan`` of them serves every deterministic
    method, so each distinct inner quantity is evaluated once per route.
    ``_ROUTES`` maps each method to its route's values, which fill the
    method's columns of one (specs, points, cases) table; each result is
    its spec's slice.  Monte Carlo reads no plan, so a config that no plan
    accepts can still be simulated; it runs last, its cells one at a time.
    Every value equals its cell's lone call, bit for bit.
    """
    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    for i, spec in enumerate(specs):
        differ = [f.name for f in fields(spec) if f.name != "base" and getattr(spec, f.name) != getattr(first, f.name)]
        if differ:
            raise ValueError(f"spec {i} differs from the first in {', '.join(differ)}: run_sweeps varies only the base")
    grid = snr_grid(first)
    cases = tuple(sorted(
        product(first.schemes, first.scenarios, first.methods), key=lambda case: [_NAMES[m] for m in case]
    ))
    pairs = list(dict.fromkeys(case[:2] for case in cases))
    snrs = [db_to_linear(snr_db) for snr_db in grid]
    # the bases are validated; only snr is new
    configs = [_at_snr(spec.base, snr) for spec in specs for snr in snrs]
    cells = [(cfg, *pair) for cfg in configs for pair in pairs]
    shape = (len(specs), len(grid), len(cases))
    sops, cis, flags = np.empty(shape), np.full(shape, math.nan), np.empty(shape, dtype=np.uint8)
    plan = CasePlan(cells) if set(first.methods) - {EvalMethod.MC} else None
    # Monte Carlo last: a config that no plan accepts is refused before any simulation
    for method in sorted(first.methods, key=lambda method: method is EvalMethod.MC):
        values, intervals, codes = _ROUTES[method](cells if method is EvalMethod.MC else plan, first.mc)
        columns = [j for j, case in enumerate(cases) if case[2] is method]
        block = (len(specs), len(grid), len(columns))
        sops[..., columns] = np.reshape(values, block)
        flags[..., columns] = np.reshape(codes, block)
        if intervals is not None:
            cis[..., columns] = np.reshape(intervals, block)
    mc = first.mc if EvalMethod.MC in first.methods else None
    return [
        SweepResult(np.array(grid, dtype=np.float64), cases, sop, ci_half_width, flag, mc)
        for sop, ci_half_width, flag in zip(sops, cis, flags)
    ]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid cell; the one-spec call of ``run_sweeps``."""
    return run_sweeps([spec])[0]


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_csv(target, header, parts, mc: McSettings | None) -> None:
    """Write (SweepResult, suffix) parts under ``header`` to a path or text file.

    The rows are read from each result's table, point by point and column
    by column.  Each row is written as one joined line: the seven sweep
    columns, then ``suffix``, the extra columns of its part with their
    leading commas ("" for none); ``mc`` goes in the trailing comment.  No
    field can hold a comma, a quote or a line break, so none is ever quoted
    and the bytes are those ``csv.writer`` would write.  A grid point's snr
    text is formatted once, for all its rows.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, header, parts, mc)
        return
    target.write(",".join(header) + "\n")
    for result, suffix in parts:
        cases = [",".join(_NAMES[member] for member in case) for case in result.cases]
        endings = [f"{flag}{suffix}\n" for flag in _FLAGS]
        for snr_db, sops, cis, flags in result._points():
            snr_text = _format_float(snr_db)
            for case, sop, ci, flag in zip(cases, sops, cis, flags):
                ci_text = "" if math.isnan(ci) else _format_float(ci)
                target.write(f"{snr_text},{case},{_format_float(sop)},{ci_text},{endings[flag]}")
    if mc is not None:
        target.write(
            f"# mc seed={mc.seed} samples={mc.n_samples} "
            f"confidence={_format_float(mc.confidence)}\n"
        )


def write_sweep_csv(result: SweepResult, target) -> None:
    """Write the sweep CSV contract to a path or text file object."""
    _write_csv(target, CSV_HEADER, [(result, "")], result.mc)


def read_sweep_csv(path) -> list[dict]:
    """Parse the sweep CSV at ``path`` back into typed dicts, skipping comment lines."""
    import csv  # only parsing reads it; the writer joins its own lines
    import io

    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return [
        {
            "snr_db": float(record["snr_db"]),
            "scheme": Scheme(record["scheme"]),
            "scenario": Scenario(record["scenario"]),
            "method": EvalMethod(record["method"]),
            "sop": float(record["sop"]),
            "ci_half_width": float(record["ci_half_width"]) if record["ci_half_width"] else None,
            "flags": record["flags"],
        }
        for record in reader
    ]
