import json
import subprocess
import sys
from dataclasses import replace

import pytest

from secrecy_outage import (
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
from secrecy_outage import validation

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
    # floor: the check passes, and the summary shows the gap in CI units
    def offset(query, mc):
        return SopEstimate(
            p_hat=analytic_sop(query).value + 6e-5, ci_half_width=1e-5, n_samples=mc.n_samples, seed=mc.seed
        )

    monkeypatch.setattr(validation, "simulate_sop", offset)
    rc = main(["validate", "--smoke", "--check", "triple_agreement"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "worst mc gap 0.06x allowance, 2.00x 3 CI without the floor" in out


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


def test_validate_detects_a_cdf_its_finite_sum_repeats(monkeypatch, capsys):
    # the finite-sum reference reads the CDF's own upper-branch formula, so a
    # shift shared by both must still fail on the integrated density
    real_cdf, real_sum = validation.snr_cdf, validation.snr_cdf_finite_sum
    monkeypatch.setattr(validation, "snr_cdf", lambda dist, x: real_cdf(dist, x) + 1e-9 * (x > 0))
    monkeypatch.setattr(validation, "snr_cdf_finite_sum", lambda dist, x: real_sum(dist, x) + 1e-9 * (x > 0))
    rc = main(["validate", "--smoke", "--check", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL identities" in out
    assert "cdf off its integrated density" in out
    assert "cdf forms disagree" not in out


def test_validate_detects_a_corrupted_power_table(monkeypatch, capsys):
    # the x^25 coefficient of (sum_{m<6} x^m / m!)^5 shifted by 1e-9 in log
    # space: it carries about 4e-6 of the power at x = 2.7, so the direct
    # power cannot see the shift and the exact rational power must (rows are
    # cached read-only, so the shift works on a copy)
    real = validation.log_power_coefficients

    def corrupted(k, num_parts):
        row = real(k, num_parts)
        if (k, num_parts) == (5, 6):
            row = row.copy()
            row[-1] += 1e-9
        return row

    monkeypatch.setattr(validation, "log_power_coefficients", corrupted)
    rc = main(["validate", "--smoke", "--check", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL identities" in out
    assert "power-series table off the exact power by 1.000e-09" in out
    assert "off the direct power" not in out


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
