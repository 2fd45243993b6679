"""Command line interface.

Subcommands:

* ``sop``      evaluate one operating point, key=value output
* ``sweep``    evaluate an SNR sweep and emit the CSV contract
* ``figure``   run a preset parameter study (CSV plus plot description)
* ``validate`` run the cross-validation checks

Exit codes: 0 on success, 1 when validation checks fail, 2 on usage errors.
SNR is accepted in dB and converted to linear scale here, at the boundary;
the library itself works in linear units throughout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .analytic import Scenario, Scheme
from .channel import REFERENCE_CONFIG, SystemConfig
from .figures import (
    FIGURE_PRESETS,
    available_presets,
    plot_description,
    run_figure,
    sweep_plot_description,
    write_figure_csv,
    write_plot_description,
)
from .montecarlo import McSettings
from .sweep import (
    EvalMethod,
    SweepSpec,
    db_to_linear,
    evaluate_cell,
    run_sweep,
    write_sweep_csv,
)
from .validation import CHECKS, ValidationSettings, run_validation

__all__ = ["build_parser", "entrypoint", "main"]

_SCHEMES = tuple(s.value for s in Scheme)
_SCENARIOS = tuple(s.value for s in Scenario)
_METHODS = tuple(m.value for m in EvalMethod)


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    ref = REFERENCE_CONFIG
    group = parser.add_argument_group("system")
    group.add_argument("--K", type=int, default=ref.K, help="number of transmitters")
    group.add_argument("--zeta", type=float, default=ref.zeta,
                       help="per-link backhaul reliability in [0, 1]")
    group.add_argument("--rth", type=float, default=ref.r_th,
                       help="secrecy rate threshold in bits/s/Hz")
    group.add_argument("--M", type=int, default=ref.M,
                       help="destination channel path count")
    group.add_argument("--N", type=int, default=ref.N,
                       help="eavesdropper channel path count")
    group.add_argument("--a", type=float, default=ref.a,
                       help="destination power gain coefficient")
    group.add_argument("--b", type=float, default=ref.b,
                       help="eavesdropper power gain coefficient")


def _add_case_flags(parser: argparse.ArgumentParser, multi: bool) -> None:
    group = parser.add_argument_group("case")
    action = "append" if multi else "store"
    default_note = "; repeatable" if multi else ""
    group.add_argument("--scheme", choices=_SCHEMES, action=action, default=None,
                       help=f"selection scheme (default ss{default_note})")
    group.add_argument("--scenario", choices=_SCENARIOS, action=action, default=None,
                       help=f"backhaul knowledge scenario (default ku{default_note})")
    group.add_argument("--method", choices=_METHODS, action=action, default=None,
                       help=f"evaluation method (default analytic{default_note})")


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    defaults = McSettings()
    group = parser.add_argument_group("simulation")
    group.add_argument("--samples", type=int, default=defaults.n_samples,
                       help="simulation sample count")
    group.add_argument("--seed", type=int, default=defaults.seed, help="simulation seed")
    group.add_argument("--confidence", type=float, default=defaults.confidence,
                       help="confidence level for the reported interval")


def _system_config(args: argparse.Namespace, snr_db: float) -> SystemConfig:
    return SystemConfig(
        K=args.K,
        zeta=args.zeta,
        r_th=args.rth,
        snr=db_to_linear(snr_db),
        M=args.M,
        N=args.N,
        a=args.a,
        b=args.b,
    )


def _mc_settings(args: argparse.Namespace) -> McSettings:
    return McSettings(
        n_samples=args.samples, seed=args.seed, confidence=args.confidence
    )


def _cmd_sop(args: argparse.Namespace) -> int:
    cfg = _system_config(args, args.snr_db)
    scheme = Scheme(args.scheme or "ss")
    scenario = Scenario(args.scenario or "ku")
    method = EvalMethod(args.method or "analytic")
    sop, ci, flags = evaluate_cell(cfg, scheme, scenario, method, _mc_settings(args))
    print(f"snr_db={args.snr_db!r}")
    print(f"scheme={scheme.value}")
    print(f"scenario={scenario.value}")
    print(f"method={method.value}")
    print(f"sop={sop!r}")
    if ci is not None:
        print(f"ci_half_width={ci!r}")
        print(f"samples={args.samples}")
        print(f"seed={args.seed}")
    if flags:
        print(f"flags={flags}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _system_config(args, args.snr_start)
    spec = SweepSpec(
        base=base,
        snr_db_start=args.snr_start,
        snr_db_stop=args.snr_stop,
        snr_db_step=args.snr_step,
        schemes=tuple(args.scheme or (Scheme.SS,)),
        scenarios=tuple(args.scenario or (Scenario.KU,)),
        methods=tuple(args.method or (EvalMethod.ANALYTIC,)),
        mc=_mc_settings(args),
    )
    result = run_sweep(spec)
    write_sweep_csv(result, args.out or sys.stdout)
    if args.plot:
        write_plot_description(sweep_plot_description(base, result), args.plot)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.list:
        for name in available_presets():
            print(f"{name}: {FIGURE_PRESETS[name].description}")
        return 0
    if args.preset is None:
        print("error: a preset name (or --list) is required", file=sys.stderr)
        return 2
    override = {"methods": tuple(args.method)} if args.method else {}
    scenario = Scenario(args.scenario) if args.scenario else None
    result = run_figure(args.preset, mc=_mc_settings(args), scenario=scenario, **override)
    write_figure_csv(result, args.out or sys.stdout)
    if args.plot:
        write_plot_description(plot_description(result), args.plot)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    settings = ValidationSettings.smoke() if args.smoke else ValidationSettings()
    overrides = {}
    if args.samples is not None:
        overrides["mc_samples"] = args.samples
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        settings = replace(settings, **overrides)
    names = tuple(args.check) if args.check else None
    results = run_validation(settings, names=names, report=print)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sop",
        description="Secrecy outage probability for multi-transmitter "
                    "networks with unreliable backhaul",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sop = sub.add_parser("sop", help="evaluate one operating point")
    _add_system_flags(p_sop)
    p_sop.add_argument("--snr-db", type=float, default=10.0,
                       help="transmit SNR in dB")
    _add_case_flags(p_sop, multi=False)
    _add_mc_flags(p_sop)
    p_sop.set_defaults(func=_cmd_sop)

    p_sweep = sub.add_parser("sweep", help="evaluate an SNR sweep to CSV")
    _add_system_flags(p_sweep)
    p_sweep.add_argument("--snr-start", type=float, required=True,
                         help="first SNR point in dB")
    p_sweep.add_argument("--snr-stop", type=float, required=True,
                         help="last SNR point in dB (inclusive)")
    p_sweep.add_argument("--snr-step", type=float, default=2.0,
                         help="SNR step in dB")
    _add_case_flags(p_sweep, multi=True)
    _add_mc_flags(p_sweep)
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.add_argument("--plot", help="plot description JSON output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="run a preset parameter study")
    p_fig.add_argument("preset", nargs="?", choices=available_presets(),
                       help="preset name")
    p_fig.add_argument("--list", action="store_true", help="list presets")
    p_fig.add_argument("--scenario", choices=_SCENARIOS, default=None,
                       help="override the preset scenario")
    p_fig.add_argument("--method", choices=_METHODS, action="append", default=None,
                       help="override preset methods; repeatable")
    _add_mc_flags(p_fig)
    p_fig.add_argument("--out", help="CSV output path (default stdout)")
    p_fig.add_argument("--plot", help="plot description JSON output path")
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate", help="run the cross-validation checks")
    p_val.add_argument("--smoke", action="store_true",
                       help="reduced grid for a quick pass")
    p_val.add_argument("--samples", type=int, default=None,
                       help="override the simulation sample count")
    p_val.add_argument("--seed", type=int, default=None,
                       help="override the simulation seed")
    p_val.add_argument("--check", action="append", choices=sorted(CHECKS),
                       default=None, help="run a subset of checks; repeatable")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
