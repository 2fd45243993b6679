"""Preset parameter studies and their plot descriptions.

Each preset fixes a base configuration and varies one quantity: transmitter
count and backhaul reliability, destination path count, eavesdropper path
count, or the destination power-gain coefficient.  Presets produce an
extended CSV (the sweep columns plus the varied parameters) and a
declarative plot description as JSON; rendering is left to the caller.
"""

from __future__ import annotations

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
    run_sweeps,
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

FIGURE_CSV_HEADER = CSV_HEADER + ("K", "zeta", "rth", "M", "N", "a", "b")

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


def _fig2_variants() -> tuple[SystemConfig, ...]:
    return tuple(
        replace(REFERENCE_CONFIG, K=k, zeta=z) for k in (2, 5) for z in (0.99, 0.9)
    )


def _fig3_variants() -> tuple[SystemConfig, ...]:
    base = replace(REFERENCE_CONFIG, K=5, zeta=0.9)
    return tuple(replace(base, M=m) for m in (2, 4, 6))


def _fig4_variants() -> tuple[SystemConfig, ...]:
    base = replace(REFERENCE_CONFIG, K=5, zeta=0.9, M=4)
    return tuple(replace(base, N=n) for n in (2, 4, 6))


def _fig5_variants() -> tuple[SystemConfig, ...]:
    base = replace(REFERENCE_CONFIG, K=5, zeta=0.9)
    return tuple(replace(base, a=a) for a in (0.2, 0.5, 1.0))


FIGURE_PRESETS: dict[str, FigurePreset] = {
    "fig2": FigurePreset(
        description="Outage vs SNR for transmitter counts 2 and 5 at backhaul "
                    "reliability 0.99 and 0.9, both selection schemes",
        variants=_fig2_variants(),
        varied=("K", "zeta"),
    ),
    "fig3": FigurePreset(
        description="Outage vs SNR as the destination path count grows "
                    "(2, 4, 6) with 4 eavesdropper paths",
        variants=_fig3_variants(),
        varied=("M",),
    ),
    "fig4": FigurePreset(
        description="Outage vs SNR as the eavesdropper path count grows "
                    "(2, 4, 6) with 4 destination paths",
        variants=_fig4_variants(),
        varied=("N",),
    ),
    "fig5": FigurePreset(
        description="Outage vs SNR for destination gain coefficients 0.2, "
                    "0.5, 1.0 against a 0.2 eavesdropper coefficient",
        variants=_fig5_variants(),
        varied=("a",),
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
    """Run one preset study: the cells of all its variants go to one ``run_sweeps`` call."""
    try:
        preset = FIGURE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        ) from None
    mc = mc if mc is not None else McSettings()
    scenarios = _SCENARIOS if scenario is None else (scenario,)
    specs = [
        SweepSpec(
            base=cfg,
            snr_db_start=_SNR_START,
            snr_db_stop=_SNR_STOP,
            snr_db_step=_SNR_STEP,
            schemes=_SCHEMES,
            scenarios=scenarios,
            methods=methods,
            mc=mc,
        )
        for cfg in preset.variants
    ]
    per_variant = list(zip(preset.variants, run_sweeps(specs)))
    return FigureResult(preset=preset, per_variant=per_variant)


def _config_columns(cfg: SystemConfig) -> str:
    """The configuration columns of a variant's rows, each after its comma."""
    return (
        f",{cfg.K},{_format_float(cfg.zeta)},{_format_float(cfg.r_th)},{cfg.M},{cfg.N},"
        f"{_format_float(cfg.a)},{_format_float(cfg.b)}"
    )


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
                "config": {
                    "K": cfg.K, "zeta": cfg.zeta, "rth": cfg.r_th,
                    "M": cfg.M, "N": cfg.N, "a": cfg.a, "b": cfg.b,
                },
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
