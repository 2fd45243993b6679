"""SNR sweeps and their CSV serialization.

The CSV format is a contract: header ``snr_db,scheme,scenario,method,sop,
ci_half_width,flags``, UTF-8, LF line endings, no trailing delimiter, rows
sorted lexicographically by (snr_db, scheme, scenario, method), floats in
shortest round-trip form.  When simulation rows are present the seed and
sample count are recorded in a trailing comment line so any file can be
reproduced exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .analytic import EvalMethod, SopQuery, SopValue, Scenario, Scheme, analytic_sops, asymptotic_sops
from .channel import SystemConfig, _at_snr
from .montecarlo import McSettings, SopEstimate, simulate_sop
from .quadrature import quadrature_sops

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


def _closed_form_cell(value: SopValue) -> tuple[float, None, str]:
    return value.value, None, FLAG_SIGNIFICANCE if value.significance_flag else ""


def _mc_cell(estimate: SopEstimate) -> tuple[float, float, str]:
    return estimate.p_hat, estimate.ci_half_width, FLAG_LOW_CONFIDENCE if estimate.low_confidence else ""


# Every route's batch entry, as (queries, mc) -> [(sop, ci, flags)] in query order.
# Monte Carlo runs one simulate_sop per query: it has no batch entry yet.
_ROUTES = {
    EvalMethod.ANALYTIC: lambda queries, mc: list(map(_closed_form_cell, analytic_sops(queries))),
    EvalMethod.ASYMPTOTIC: lambda queries, mc: list(map(_closed_form_cell, asymptotic_sops(queries))),
    EvalMethod.QUADRATURE: lambda queries, mc: [(sop, None, "") for sop in quadrature_sops(queries)],
    EvalMethod.MC: lambda queries, mc: [_mc_cell(simulate_sop(query, mc)) for query in queries],
}


def evaluate_cell(
    cfg: SystemConfig,
    scheme: Scheme,
    scenario: Scenario,
    method: EvalMethod,
    mc: McSettings,
) -> tuple[float, float | None, str]:
    """Evaluate one (config, case, method) cell as a batch of one; returns (sop, ci, flags)."""
    return _ROUTES[EvalMethod(method)]([SopQuery(cfg, scheme, scenario)], mc)[0]


@dataclass
class SweepResult:
    rows: list[SweepRow]
    mc: McSettings | None = None


# Every enum member's string, read by the sort key and the CSV writer instead of ``Enum.value``.
_NAMES = {member: member.value for enum in (Scheme, Scenario, EvalMethod) for member in enum}


def run_sweeps(specs) -> list[SweepResult]:
    """Evaluate every grid cell of every spec; one result per spec, in input order.

    ``_ROUTES`` maps each method to its route's batch entry.  The cells of
    all the specs that share a (method, ``spec.mc``) pair go to that entry
    in one call, so a figure job, whose specs share one ``McSettings``,
    refines all its quadrature rows in one stack; Monte Carlo's entry runs
    its cells one at a time, spec by spec in row order.  The queries of one
    (configuration, scheme, scenario) are one ``SopQuery``, shared by its
    methods.  Every result equals its spec's own ``run_sweep``.
    """
    specs = list(specs)
    # per spec: its cells in row order, as (snr_db, case and method strings,
    # query, method)
    tables = []
    batches: dict[tuple[EvalMethod, McSettings], list[SopQuery]] = {}
    for spec in specs:
        cases = [
            (scheme, scenario, [(m, (_NAMES[scheme], _NAMES[scenario], _NAMES[m])) for m in spec.methods])
            for scheme in spec.schemes
            for scenario in spec.scenarios
        ]
        cells = []
        for snr_db in snr_grid(spec):
            cfg = _at_snr(spec.base, db_to_linear(snr_db))  # the base is validated; only snr is new
            for scheme, scenario, named_methods in cases:
                query = SopQuery(cfg, scheme, scenario)
                cells += [(snr_db, names, query, method) for method, names in named_methods]
        cells.sort(key=itemgetter(0, 1))
        queries = {method: batches.setdefault((method, spec.mc), []) for method in spec.methods}
        for _, _, query, method in cells:
            queries[method].append(query)
        tables.append(cells)
    evaluated = {(method, mc): iter(_ROUTES[method](queries, mc)) for (method, mc), queries in batches.items()}
    results = []
    for spec, cells in zip(specs, tables):
        batch = {method: evaluated[method, spec.mc] for method in spec.methods}
        rows = [
            SweepRow(snr_db, query.scheme, query.scenario, method, *next(batch[method]))
            for snr_db, _, query, method in cells
        ]
        results.append(SweepResult(rows=rows, mc=spec.mc if EvalMethod.MC in spec.methods else None))
    return results


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid cell; the one-spec call of ``run_sweeps``."""
    return run_sweeps([spec])[0]


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_csv(target, header, records, mc: McSettings | None) -> None:
    """Write (SweepRow, suffix) records under ``header`` to a path or text file.

    Each row is written as one joined line: the seven sweep columns, then
    ``suffix``, the extra columns with their leading commas ("" for none);
    ``mc`` goes in the trailing comment.  No field can hold a comma, a quote
    or a line break, so none is ever quoted and the bytes are those
    ``csv.writer`` would write.  Rows of one grid point share their snr
    float, so its text is formatted once per point.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, header, records, mc)
        return
    target.write(",".join(header) + "\n")
    snr_db = snr_text = None
    for row, suffix in records:
        if row.snr_db is not snr_db:
            snr_db, snr_text = row.snr_db, _format_float(row.snr_db)
        ci = "" if row.ci_half_width is None else _format_float(row.ci_half_width)
        target.write(
            f"{snr_text},{_NAMES[row.scheme]},{_NAMES[row.scenario]},{_NAMES[row.method]},"
            f"{_format_float(row.sop)},{ci},{row.flags}{suffix}\n"
        )
    if mc is not None:
        target.write(
            f"# mc seed={mc.seed} samples={mc.n_samples} "
            f"confidence={_format_float(mc.confidence)}\n"
        )


def write_sweep_csv(result: SweepResult, target) -> None:
    """Write the sweep CSV contract to a path or text file object."""
    _write_csv(target, CSV_HEADER, ((row, "") for row in result.rows), result.mc)


def read_sweep_csv(source) -> list[dict]:
    """Parse a sweep CSV back into typed dicts, skipping comment lines."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
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
