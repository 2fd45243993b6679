"""Preset parameter studies and their plot descriptions.

Each preset fixes a base configuration and varies one quantity: transmitter
count and backhaul reliability, destination path count, eavesdropper path
count, or the destination power-gain coefficient.  Presets produce an
extended CSV (the sweep columns plus all seven configuration columns
``K,zeta,rth,M,N,a,b`` of each variant) and a declarative plot description
as JSON; rendering is left to the caller.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .analytic import Scenario, Scheme
from .channel import REFERENCE_CONFIG, SystemConfig
from .montecarlo import McSettings
from .sweep import (
    CSV_HEADER,
    EvalMethod,
    SweepResult,
    SweepSpec,
    _format_float,
    _write_csv,
    run_sweep,
)

__all__ = [
    "FIGURE_PRESETS",
    "FigurePreset",
    "FigureResult",
    "available_presets",
    "plot_description",
    "run_figure",
    "sweep_plot_description",
    "write_figure_csv",
    "write_plot_description",
]

# (CSV column and plot config key, SystemConfig field) of every variant, in column order
_CONFIG_COLUMNS = (
    ("K", "K"), ("zeta", "zeta"), ("rth", "r_th"), ("M", "M"), ("N", "N"), ("a", "a"), ("b", "b"),
)
FIGURE_CSV_HEADER = CSV_HEADER + tuple(column for column, _ in _CONFIG_COLUMNS)

_SNR_START, _SNR_STOP, _SNR_STEP = -10.0, 40.0, 2.0

_METHODS = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.MC)

# Every preset compares both schemes, under blind selection unless overridden.
_SCHEMES, _SCENARIOS = (Scheme.SS, Scheme.OS), (Scenario.KU,)


@dataclass(frozen=True)
class FigurePreset:
    """One study: a list of config variants swept over the common SNR grid."""

    description: str
    variants: tuple[SystemConfig, ...]
    varied: tuple[str, ...]


def _preset(description: str, base: SystemConfig, **values) -> FigurePreset:
    """The variants of ``base`` over every combination of the named fields' values, the first field outermost."""
    combos = itertools.product(*values.values())
    variants = tuple(replace(base, **dict(zip(values, combo))) for combo in combos)
    return FigurePreset(description, variants, tuple(values))


# five transmitters at backhaul reliability 0.9: the base of fig3 to fig5
_FIVE_AT_0_9 = replace(REFERENCE_CONFIG, K=5, zeta=0.9)

FIGURE_PRESETS: dict[str, FigurePreset] = {
    "fig2": _preset(
        "Outage vs SNR for transmitter counts 2 and 5 at backhaul "
        "reliability 0.99 and 0.9, both selection schemes",
        REFERENCE_CONFIG, K=(2, 5), zeta=(0.99, 0.9),
    ),
    "fig3": _preset(
        "Outage vs SNR as the destination path count grows "
        "(2, 4, 6) with 4 eavesdropper paths",
        _FIVE_AT_0_9, M=(2, 4, 6),
    ),
    "fig4": _preset(
        "Outage vs SNR as the eavesdropper path count grows "
        "(2, 4, 6) with 4 destination paths",
        replace(_FIVE_AT_0_9, M=4), N=(2, 4, 6),
    ),
    "fig5": _preset(
        "Outage vs SNR for destination gain coefficients 0.2, "
        "0.5, 1.0 against a 0.2 eavesdropper coefficient",
        _FIVE_AT_0_9, a=(0.2, 0.5, 1.0),
    ),
}


def available_presets() -> list[str]:
    return sorted(FIGURE_PRESETS)


@dataclass(eq=False)
class FigureResult:
    preset: FigurePreset
    per_variant: list[tuple[SystemConfig, SweepResult]]


def run_figure(
    name: str,
    mc: McSettings | None = None,
    scenario: Scenario | None = None,
    methods: tuple[EvalMethod, ...] = _METHODS,
) -> FigureResult:
    """Run one preset study: one sweep over all its variants."""
    try:
        preset = FIGURE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        ) from None
    spec = SweepSpec(
        bases=preset.variants,
        snr_db_start=_SNR_START,
        snr_db_stop=_SNR_STOP,
        snr_db_step=_SNR_STEP,
        schemes=_SCHEMES,
        scenarios=_SCENARIOS if scenario is None else (scenario,),
        methods=methods,
        mc=mc if mc is not None else McSettings(),
    )
    per_variant = list(zip(preset.variants, run_sweep(spec)))
    return FigureResult(preset=preset, per_variant=per_variant)


def _config_columns(cfg: SystemConfig) -> str:
    """The configuration columns of a variant's rows, each after its comma: counts as integers, the rest as floats."""
    values = (getattr(cfg, field) for _, field in _CONFIG_COLUMNS)
    return "".join(f",{v}" if isinstance(v, int) else f",{_format_float(v)}" for v in values)


def write_figure_csv(result: FigureResult, target) -> None:
    """Extended sweep CSV with the per-variant configuration columns, ended by the job's simulation settings if any."""
    parts = [(sweep_result, _config_columns(cfg)) for cfg, sweep_result in result.per_variant]
    _write_csv(target, FIGURE_CSV_HEADER, parts, result.per_variant[0][1].mc)


def _variant_label(cfg: SystemConfig, varied: tuple[str, ...]) -> str:
    parts = [f"{name}={getattr(cfg, name)}" for name in varied]
    return ", ".join(parts)


def _series_points(snr_db: list[float], sop: list[float], ci_half_width: list[float]) -> list[dict]:
    return [
        {"x": x, "y": y} if math.isnan(ci) else {"x": x, "y": y, "ci": ci}
        for x, y, ci in zip(snr_db, sop, ci_half_width)
    ]


def _grouped_series(cfg: SystemConfig, result: SweepResult, prefix: str) -> list[dict]:
    """One series per column of the table, in the sweep contract's case order, its points by ascending SNR."""
    series = []
    snr_db = result.snr_db.tolist()
    for (scheme, scenario, method), sop, ci_half_width in zip(
        result.cases, result.sop.T.tolist(), result.ci_half_width.T.tolist()
    ):
        label = f"{scheme.value}/{scenario.value} [{method.value}]"
        series.append(
            {
                "label": f"{prefix} {label}".strip(),
                "scheme": scheme.value,
                "scenario": scenario.value,
                "method": method.value,
                "config": {column: getattr(cfg, field) for column, field in _CONFIG_COLUMNS},
                "points": _series_points(snr_db, sop, ci_half_width),
            }
        )
    return series


def _plot_skeleton(title: str, series: list[dict]) -> dict:
    return {
        "kind": "line-plot",
        "title": title,
        "x_axis": {"label": "SNR (dB)", "scale": "linear"},
        "y_axis": {"label": "secrecy outage probability", "scale": "log"},
        "series": series,
    }


def plot_description(result: FigureResult) -> dict:
    """Declarative figure layout: axes, scales and one series per line.

    The output is renderer-agnostic; scripts/reproduce_figures.py shows a
    matplotlib interpretation.
    """
    series = []
    for cfg, sweep_result in result.per_variant:
        prefix = _variant_label(cfg, result.preset.varied)
        series.extend(_grouped_series(cfg, sweep_result, prefix))
    return _plot_skeleton(result.preset.description, series)


def sweep_plot_description(base: SystemConfig, result: SweepResult) -> dict:
    """Plot description for a single-configuration sweep."""
    return _plot_skeleton("outage vs SNR", _grouped_series(base, result, ""))


def write_plot_description(description: dict, path) -> None:
    """Write a plot description (see plot_description) to ``path`` as one line of compact JSON.

    ``json.dumps`` with default separators runs the C encoder; ``indent``
    or ``json.dump`` would run the pure-Python one.
    """
    Path(path).write_text(json.dumps(description) + "\n", encoding="utf-8")
