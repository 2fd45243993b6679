import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from secrecy_outage import (
    REFERENCE_CONFIG,
    McSettings,
    Scenario,
    Scheme,
    SopEstimate,
    SopQuery,
    SystemConfig,
    ValidationSettings,
    analytic_sop,
    asymptotic_sop,
    quadrature_sop,
    simulate_sop,
)
from secrecy_outage.cli import build_parser, main
from secrecy_outage import analytic, sweep, validation

BASE_ARGS = [
    "--K", "2", "--zeta", "0.9", "--rth", "1", "--M", "6", "--N", "4",
    "--a", "0.5", "--b", "0.2",
]


def _parse_kv(output: str) -> dict:
    pairs = dict(line.split("=", 1) for line in output.strip().splitlines())
    return pairs


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_sop_analytic_point(capsys):
    rc = main(["sop", *BASE_ARGS, "--snr-db", "10"])
    assert rc == 0
    pairs = _parse_kv(capsys.readouterr().out)
    cfg = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=6, N=4, a=0.5, b=0.2)
    expected = analytic_sop(SopQuery(cfg=cfg, scheme=Scheme.SS, scenario=Scenario.KU)).value
    assert float(pairs["sop"]) == expected
    assert pairs["method"] == "analytic"
    assert "ci_half_width" not in pairs


def test_sop_huge_snr_db_is_usage_error(capsys):
    assert main(["sop", *BASE_ARGS, "--snr-db", "4000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4000" in err


@pytest.mark.parametrize("command, message", [
    # a * snr underflows to 0 at a = 1e-200 and -2000 dB
    (["sop", "--a", "1e-200", "--snr-db", "-2000"], "a*snr"),
    (["sweep", "--a", "1e-200", "--snr-start", "-2000", "--snr-stop", "-1990", "--snr-step", "10"], "a*snr"),
    # beta = rho b / a underflows to 0 at a = 1e300, b = 1e-300
    (["sop", "--a", "1e300", "--b", "1e-300", "--snr-db", "0"], "outage boundary"),
])
def test_out_of_float_range_is_usage_error(capsys, command, message):
    assert main([command[0], *BASE_ARGS, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_mc_evaluates_a_config_the_planned_routes_refuse(capsys):
    # beta = rho b / a underflows to 0 at a = 1e300, b = 1e-300: the routes
    # that plan refuse the config, and Monte Carlo, which reads no plan,
    # evaluates it
    args = ["--a", "1e300", "--b", "1e-300", "--samples", "2000"]
    assert main(["sop", *args, "--method", "mc"]) == 0
    pairs = _parse_kv(capsys.readouterr().out)
    cfg = replace(REFERENCE_CONFIG, snr=10.0, a=1e300, b=1e-300)
    assert float(pairs["sop"]) == simulate_sop(SopQuery(cfg, Scheme.SS, Scenario.KU), McSettings(2000)).p_hat
    assert main(["sweep", *args, "--snr-start", "0", "--snr-stop", "4", "--method", "mc"]) == 0
    capsys.readouterr()
    for method in ("analytic", "asymptotic", "quadrature"):
        assert main(["sop", *args, "--method", method]) == 2
        assert "outage boundary" in capsys.readouterr().err


def test_sweep_refuses_before_it_simulates(monkeypatch, capsys):
    # a sweep that also asks a planned route of a config no plan accepts is
    # refused before its Monte Carlo cells run, whatever the method order
    def simulate(query, mc):
        raise AssertionError("simulated before the refusal")

    monkeypatch.setattr(sweep, "simulate_sop", simulate)
    args = ["--a", "1e300", "--b", "1e-300", "--snr-start", "0", "--snr-stop", "4", "--samples", "2000"]
    assert main(["sweep", *args, "--method", "mc", "--method", "analytic"]) == 2
    assert "outage boundary" in capsys.readouterr().err


def test_sop_mc_point_reports_interval(capsys):
    rc = main(["sop", *BASE_ARGS, "--snr-db", "10", "--method", "mc",
               "--samples", "5000", "--seed", "42"])
    assert rc == 0
    pairs = _parse_kv(capsys.readouterr().out)
    cfg = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=6, N=4, a=0.5, b=0.2)
    expected = simulate_sop(SopQuery(cfg, Scheme.SS, Scenario.KU), McSettings(5000, 42))
    assert float(pairs["sop"]) == expected.p_hat
    assert float(pairs["ci_half_width"]) == expected.ci_half_width > 0.0
    assert pairs["seed"] == "42"
    assert pairs["samples"] == "5000"


def test_sop_quadrature_and_asymptotic_methods(capsys):
    cfg = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=100.0, M=6, N=4, a=0.5, b=0.2)
    query = SopQuery(cfg, Scheme.SS, Scenario.KU)
    expected = {"quadrature": quadrature_sop(query), "asymptotic": asymptotic_sop(query).value}
    for method, value in expected.items():
        assert main(["sop", *BASE_ARGS, "--snr-db", "20", "--method", method]) == 0
        pairs = _parse_kv(capsys.readouterr().out)
        assert pairs["method"] == method
        assert float(pairs["sop"]) == value


def test_bad_parameter_value_is_usage_error(capsys):
    assert main(["sop", "--zeta", "1.5"]) == 2
    assert "zeta" in capsys.readouterr().err


def test_unknown_choice_is_usage_error(capsys):
    assert main(["sop", "--method", "telepathy"]) == 2
    capsys.readouterr()


def test_sweep_requires_range(capsys):
    assert main(["sweep", "--snr-start", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("stop,step", [("inf", "5"), ("10", "nan")])
def test_sweep_non_finite_grid_is_usage_error(stop, step, capsys):
    assert main(["sweep", *BASE_ARGS, "--snr-start", "0",
                 "--snr-stop", stop, "--snr-step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_sweep_repeated_grid_point_is_usage_error(capsys):
    # a step below the float spacing would write repeated rows
    assert main(["sweep", *BASE_ARGS, "--snr-start", "3000", "--snr-stop", "3000.00000000001",
                 "--snr-step", "1e-13", "--method", "asymptotic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeats points" in err


def test_sweep_huge_grid_is_usage_error(capsys):
    # the stop has no linear ratio, so the spec fails before building 1e10 points
    assert main(["sweep", *BASE_ARGS, "--snr-start", "0", "--snr-stop", "1e10",
                 "--snr-step", "1", "--method", "asymptotic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large" in err


def test_sweep_too_many_points_is_usage_error(capsys):
    # a valid range with a tiny step is refused by its 3e9-point count
    assert main(["sweep", *BASE_ARGS, "--snr-start", "0", "--snr-stop", "3000",
                 "--snr-step", "1e-6", "--method", "asymptotic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "100000 points" in err


def test_sweep_repeated_scheme_is_usage_error(capsys):
    # a repeated case flag would write every row twice
    assert main(["sweep", *BASE_ARGS, "--snr-start", "0", "--snr-stop", "10",
                 "--scheme", "ss", "--scheme", "ss"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "schemes must be distinct" in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", *BASE_ARGS, "--snr-start", "0", "--snr-stop", "2", "--out", "{missing}"],
    ["figure", "fig4", "--method", "analytic", "--out", "{written}", "--plot", "{missing}"],
])
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    # the values are computed, then the output path cannot be opened
    missing, written = tmp_path / "missing" / "out", tmp_path / "out.csv"
    argv = [arg.format(missing=missing, written=written) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


def test_sweep_writes_contract_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", *BASE_ARGS,
        "--snr-start", "0", "--snr-stop", "10", "--snr-step", "5",
        "--scheme", "ss", "--scheme", "os",
        "--method", "analytic",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "snr_db,scheme,scenario,method,sop,ci_half_width,flags"
    assert len(lines) == 1 + 3 * 2
    capsys.readouterr()


def test_sweep_stdout_and_plot(tmp_path, capsys):
    plot = tmp_path / "sweep.json"
    rc = main([
        "sweep", *BASE_ARGS,
        "--snr-start", "0", "--snr-stop", "4", "--snr-step", "2",
        "--plot", str(plot),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("snr_db,scheme,scenario,method,")
    description = json.loads(plot.read_text(encoding="utf-8"))
    assert description["kind"] == "line-plot"
    assert len(description["series"][0]["points"]) == 3


def test_sweep_reruns_identically(tmp_path):
    args = [
        "sweep", *BASE_ARGS,
        "--snr-start", "0", "--snr-stop", "6", "--snr-step", "3",
        "--method", "analytic", "--method", "mc", "--samples", "4096", "--seed", "9",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(first)]) == 0
    assert main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_figure_list(capsys):
    assert main(["figure", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig3", "fig4", "fig5"):
        assert name in out


def test_figure_requires_preset(capsys):
    assert main(["figure"]) == 2
    capsys.readouterr()


def test_figure_run_analytic(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    plot = tmp_path / "fig4.json"
    rc = main(["figure", "fig4", "--method", "analytic",
               "--out", str(out), "--plot", str(plot)])
    assert rc == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith(",K,zeta,rth,M,N,a,b")
    description = json.loads(plot.read_text(encoding="utf-8"))
    eave_paths = {s["config"]["N"] for s in description["series"]}
    assert eave_paths == {2, 4, 6}
    capsys.readouterr()


def test_validate_subset_passes(capsys):
    rc = main(["validate", "--smoke", "--check", "identities", "--check", "orderings"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS identities" in out
    assert "PASS orderings" in out
    assert "2/2 checks passed" in out


def test_validate_detects_a_corrupted_formula(monkeypatch, capsys):
    # sabotage the best-ratio scheme: inflate the outage of a batch's os rows
    # so the scheme ordering inverts; the harness must notice and fail the run
    real = validation.analytic_sops

    def corrupted(queries):
        queries = list(queries)
        return [
            replace(value, value=min(1.0, value.value + 0.05)) if Scheme(query.scheme) is Scheme.OS else value
            for query, value in zip(queries, real(queries))
        ]

    monkeypatch.setattr(validation, "analytic_sops", corrupted)
    rc = main(["validate", "--smoke", "--check", "orderings"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL orderings" in out


@pytest.mark.parametrize("check", [
    "triple_agreement", "asymptotic_floors", "orderings",
    "floors", "multipath_effect", "gain_ratio_effect",
])
def test_validate_fails_when_the_closed_form_reads_zero(check, monkeypatch, capsys):
    # every check that reads the closed form must notice when every row of
    # its batch is zeroed
    real = validation.analytic_sops
    monkeypatch.setattr(
        validation, "analytic_sops", lambda queries: [replace(v, value=0.0) for v in real(queries)]
    )
    rc = main(["validate", "--smoke", "--check", check])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"FAIL {check}" in out


def test_triple_agreement_reports_gaps_the_floor_hides(monkeypatch, capsys):
    # every estimate sits 2 x 3 CI off the closed form, far inside the 1e-3
    # floor: the check passes, and the summary shows the gap in CI units; it
    # also gives the closed-quadrature gap relative to the larger value, which
    # on outages at most 1 is no smaller than the absolute gap
    def offset(query, mc):
        return SopEstimate(
            p_hat=analytic_sop(query).value + 6e-5, ci_half_width=1e-5, n_samples=mc.n_samples
        )

    monkeypatch.setattr(validation, "simulate_sop", offset)
    rc = main(["validate", "--smoke", "--check", "triple_agreement"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "worst mc gap 0.06x allowance, 2.00x 3 CI without the floor" in out
    gap, relative = map(float, re.search(r"max \|closed-quad\| (\S+) \((\S+) relative\)", out).groups())
    assert gap <= relative <= 1e-12


def test_validate_gates_the_relative_closed_quadrature_gap(monkeypatch, capsys):
    # the closed form at b (1 + 1e-9): a few 1e-10 absolute off quadrature,
    # inside the 1e-8 absolute gate, but 1e-9 or more relative, above the
    # 1e-10 relative one
    real = validation.analytic_sops
    monkeypatch.setattr(
        validation,
        "analytic_sops",
        lambda queries: real([replace(q, cfg=replace(q.cfg, b=q.cfg.b * (1.0 + 1e-9))) for q in queries]),
    )
    rc = main(["validate", "--smoke", "--check", "triple_agreement"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL triple_agreement" in out
    assert "quad rel gap" in out
    assert "quad gap" not in out and "allowed" not in out  # the absolute and Monte Carlo gates pass


def test_validate_detects_a_floor_that_moves_with_snr(monkeypatch, capsys):
    # the closed form in place of the floor: at 200 dB it lands on the
    # closed form and on quadrature, so only the floors' finite-SNR twins
    # can see that it moves with the SNR
    monkeypatch.setattr(validation, "asymptotic_sops", validation.analytic_sops)
    rc = main(["validate", "--smoke", "--check", "asymptotic_floors"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL asymptotic_floors" in out
    assert "floor off its 200 dB twin" in out
    assert "rel gap" not in out


def test_validate_detects_a_floor_at_the_groups_smallest_alpha(monkeypatch, capsys):
    # each series group's floor taken at its smallest alpha instead of 0:
    # about 0 at 200 dB, so the 200 dB comparisons pass, while the twins'
    # own batch puts it at the grid's highest SNR
    def smallest_alpha_inner(plan):
        raws, flags = [0.0] * len(plan.first), [False] * len(plan.first)
        for (M, N, beta, L, w), (ats, alphas) in plan.groups.items():
            ((raw, flag),) = analytic._selection_series(M, N, beta, L, w, [min(alphas)])
            for at in ats:
                raws[at], flags[at] = raw, flag
        return raws, flags

    monkeypatch.setattr(analytic, "asymptotic_inner", smallest_alpha_inner)
    rc = main(["validate", "--smoke", "--check", "asymptotic_floors"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL asymptotic_floors" in out
    assert "floor off its 200 dB twin" in out
    assert "rel gap" not in out


def test_validate_fails_when_the_floors_are_doubled(monkeypatch, capsys):
    # the floor route is checked too: doubling every floor must fail the run
    real = validation.asymptotic_sops
    monkeypatch.setattr(
        validation, "asymptotic_sops", lambda queries: [replace(v, value=2.0 * v.value) for v in real(queries)]
    )
    rc = main(["validate", "--smoke", "--check", "asymptotic_floors"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL asymptotic_floors" in out


def test_validate_detects_a_shifted_cdf(monkeypatch, capsys):
    # a CDF shifted by 1e-9 must fail on its integrated density and on the
    # series base, whose reference is the survival function 1 - snr_cdf
    real_cdf = validation.snr_cdf
    monkeypatch.setattr(validation, "snr_cdf", lambda dist, x: real_cdf(dist, x) + 1e-9 * (x > 0))
    rc = main(["validate", "--smoke", "--check", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL identities" in out
    assert "cdf off its integrated density" in out
    assert "series base off the survival function" in out


def test_validate_detects_a_corrupted_power_table(monkeypatch, capsys):
    # the x^25 coefficient of (sum_{m<6} x^m / m!)^5, the floor's power p_0^5
    # at M = 6, shifted by 1e-9 in log space: it carries about 4e-6 of the
    # power at x = 2.7, so the direct power cannot see the shift and the
    # exact rational power must
    real = validation._log_powers

    def corrupted(M, K, alphas):
        for k, power in enumerate(real(M, K, alphas), 1):
            if (k, M) == (5, 6):
                power = power.copy()
                power[:, -1] += 1e-9
            yield power

    monkeypatch.setattr(validation, "_log_powers", corrupted)
    rc = main(["validate", "--smoke", "--check", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL identities" in out
    assert "power-series table off the exact power by 1.000e-09" in out
    assert "off the direct power" not in out
    assert "series base off" not in out


def test_validate_detects_a_corrupted_series_base(monkeypatch, capsys):
    # the constant coefficient of p_alpha at alpha > 0, e^-alpha times a
    # Poisson CDF, shifted by 1e-9 in log space: the floor's alpha = 0 rows
    # stay intact, so only the survival-function identity can see it
    real = validation._log_powers

    def corrupted(M, K, alphas):
        positive = np.asarray(alphas) > 0.0
        for power in real(M, K, alphas):
            power = power.copy()
            power[positive, 0] += 1e-9
            yield power

    monkeypatch.setattr(validation, "_log_powers", corrupted)
    rc = main(["validate", "--smoke", "--check", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL identities" in out
    assert "series base off the survival function by" in out
    assert "power-series table off" not in out


def test_validate_detects_a_corrupted_floor_base(monkeypatch, capsys):
    # the constant coefficient of p_0, the floor's base and the closed form's
    # finite sum, shifted by 1e-9 in log space at alpha = 0 only: the power
    # table reads the same rows, but the series base must name the shift too
    real = validation._log_powers

    def corrupted(M, K, alphas):
        zero = np.asarray(alphas) == 0.0
        for power in real(M, K, alphas):
            power = power.copy()
            power[zero, 0] += 1e-9
            yield power

    monkeypatch.setattr(validation, "_log_powers", corrupted)
    rc = main(["validate", "--smoke", "--check", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL identities" in out
    assert "series base off the survival function by" in out


def test_validate_detects_a_floor_shared_with_the_closed_form(monkeypatch, capsys):
    # a 1e-3 relative defect in the series wherever every alpha is below
    # 1e-10: the floor and the closed form at 200 dB both carry it, so only
    # quadrature, which shares no kernel with them, can see it
    real = analytic._selection_series

    def corrupted(M, N, beta, K, weight, alphas):
        values = real(M, N, beta, K, weight, alphas)
        if max(alphas) < 1e-10:
            return [(raw * (1.0 + 1e-3), flag) for raw, flag in values]
        return values

    monkeypatch.setattr(analytic, "_selection_series", corrupted)
    rc = main(["validate", "--smoke", "--check", "asymptotic_floors"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL asymptotic_floors" in out
    assert "quadrature rel gap" in out
    assert "closed form rel gap" not in out


def test_validate_runs_a_repeated_check_once(capsys):
    rc = main(["validate", "--smoke", "--check", "orderings", "--check", "orderings"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS orderings") == 1
    assert "1/1 checks passed" in out


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "secrecy_outage", "sop", "--snr-db", "10"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "sop=" in proc.stdout


def test_simulation_defaults_are_mc_settings_defaults():
    # the CLI flags and the validation grid read McSettings' budget, seed
    # and confidence rather than repeating them
    defaults = McSettings()
    parser = build_parser()
    for argv in (["sop"], ["sweep", "--snr-start", "0", "--snr-stop", "10"], ["figure", "fig2"]):
        args = parser.parse_args(argv)
        assert (args.samples, args.seed, args.confidence) == (
            defaults.n_samples, defaults.seed, defaults.confidence
        ), argv
    assert ValidationSettings().mc_settings() == defaults
