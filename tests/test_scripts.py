"""Smoke tests of the command-line scripts under scripts/, run as a user would."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from secrecy_outage import FIGURE_PRESETS, REFERENCE_CONFIG, Scenario, Scheme, SopQuery, SystemConfig, asymptotic_sops
from secrecy_outage import EvalMethod, quadrature_sops
from secrecy_outage.sweep import read_sweep_csv

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_reproduce_figures_analytic_only(tmp_path):
    done = _run_script("reproduce_figures.py", "--analytic-only", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name, preset in FIGURE_PRESETS.items():
        # 26 SNR points x 2 schemes x (analytic, asymptotic) per variant
        rows = read_sweep_csv(tmp_path / f"{name}.csv")
        assert len(rows) == 26 * 2 * 2 * len(preset.variants), name
        description = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
        assert len(description["series"]) == 2 * 2 * len(preset.variants), name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.{ext}" for name in FIGURE_PRESETS for ext in ("csv", "json")
    )


def test_reproduce_figures_rejects_an_invalid_value_before_writing(tmp_path):
    # one error line on stderr and exit 2, not a traceback with exit 1, and no output directory
    outdir = tmp_path / "figures"
    done = _run_script("reproduce_figures.py", "--samples", "0", "--outdir", str(outdir))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: n_samples must be an integer >= 1, got 0") and done.stderr.count("\n") == 1
    assert not outdir.exists()


def test_floor_sensitivity_table():
    done = _run_script("floor_sensitivity.py")
    assert done.returncode == 0, done.stderr
    # header, rule, 4 K rows per zeta and a blank line after each of 2 zetas, two closing notes
    lines = done.stdout.splitlines()
    assert len(lines) == 2 + 2 * (4 + 1) + 2
    assert lines[0].split()[:2] == ["K", "zeta"]
    assert "*" not in done.stdout  # no value is marked


def test_floor_sensitivity_floors_fall_back_to_quadrature_at_alpha_zero():
    # at K = 200 and 60 every ss floor series loses significance (it read 0
    # or 1): each holds quadrature's value at alpha = 0, the point at
    # r_th = 0 with b scaled by rho (the same beta), bit for bit, and the
    # table prints it with no mark
    ks, zetas = (200, 60), (1.0, 0.9)
    done = _run_script("floor_sensitivity.py", "--K", "200", "--K", "60", "--zeta", "1", "--zeta", "0.9")
    assert done.returncode == 0, done.stderr
    assert "*" not in done.stdout
    ref = REFERENCE_CONFIG
    configs = [SystemConfig(K=K, zeta=zeta, r_th=ref.r_th, snr=1.0, M=ref.M, N=ref.N, a=ref.a, b=ref.b)
               for zeta in zetas for K in ks]
    queries = [SopQuery(cfg, Scheme.SS, scenario) for cfg in configs for scenario in Scenario]
    twins = [SopQuery(replace(q.cfg, r_th=0.0, b=q.cfg.rho * q.cfg.b), q.scheme, q.scenario) for q in queries]
    floors, expected = asymptotic_sops(queries), quadrature_sops(twins)
    assert [(floor.value, floor.method) for floor in floors] == [(x, EvalMethod.QUADRATURE) for x in expected]
    rows = [line.replace("|", " ").split() for line in done.stdout.splitlines()[2:] if line.strip()][: len(configs)]
    # per row: ss/ku is column 2 and ss/ka column 4; the queries alternate ku, ka
    printed = [(f"{ku:.4e}", f"{ka:.4e}") for ku, ka in zip(expected[0::2], expected[1::2])]
    assert [(row[2], row[4]) for row in rows] == printed


def test_floor_sensitivity_reads_a_ratio_over_zero():
    # both os floors underflow to 0 at K = 500 with reliable backhaul: their ratio prints nan
    done = _run_script("floor_sensitivity.py", "--K", "500", "--zeta", "1.0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[2].split()[-1] == "nan"


def _benefit_rows(stdout: str) -> list[dict[tuple, list[str]]]:
    """Per table of knowledge_benefit.py, its rows keyed by (K, zeta, M, N)."""
    tables = []
    for line in stdout.splitlines():
        if line.startswith("knowledge benefit"):
            tables.append({})
        elif tables and "|" in line and not line.lstrip().startswith("K"):
            fields = line.replace("|", " ").split()
            K, zeta, M, N = fields[:4]
            tables[-1][(int(K), float(zeta), int(M), int(N))] = fields[4:]
    return tables


def test_knowledge_benefit_table():
    done = _run_script("knowledge_benefit.py")
    assert done.returncode == 0, done.stderr
    at_snr, floor = _benefit_rows(done.stdout)
    # 3 (M, N) pairs x 3 K x 2 zetas, at 10 dB and at the floor
    assert len(at_snr) == len(floor) == 18
    assert "*" not in done.stdout  # no value or winner is marked
    # the drop-form counterexample of the headline claim: K=2, zeta=0.9, 10 dB
    ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = at_snr[(2, 0.9, 6, 4)]
    assert float(os_drop) == pytest.approx(0.0610, abs=5e-5)
    assert float(ss_drop) == pytest.approx(0.0646, abs=5e-5)
    assert float(os_ratio) == pytest.approx(1.91, abs=5e-3)
    assert float(ss_ratio) == pytest.approx(1.65, abs=5e-3)
    assert (by_drop, by_ratio) == ("ss", "os")
    # and the claim in both forms at K = 3 and 5
    for K in (3, 5):
        for zeta in (0.9, 0.99):
            assert at_snr[(K, zeta, 6, 4)][4:] == ["os", "os"], (K, zeta)


def test_knowledge_benefit_floors_fall_back_where_the_series_cancels():
    # at K = 500 the ss series cancels at 10 dB and at the floor; both fall
    # back to quadrature, so the ss ratios are finite (the floor's read inf
    # when it kept its series) and os gains more by either reading
    done = _run_script("knowledge_benefit.py", "--K", "500", "--zeta", "0.9", "--MN", "6,4")
    assert done.returncode == 0, done.stderr
    assert "*" not in done.stdout
    for table in _benefit_rows(done.stdout):
        ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = table[(500, 0.9, 6, 4)]
        assert float(ss_drop) == pytest.approx(0.1, abs=5e-5) and 1.0 < float(ss_ratio) < 1e5
        assert (by_drop, by_ratio) == ("os", "os")


def test_knowledge_benefit_reads_a_ratio_over_zero():
    # both os outages underflow to 0 at K = 500 with reliable backhaul, at
    # 10 dB and at the floor: the os ratio prints nan and the ratio names
    # no winner; ku = ka for ss there, a tie by the drop
    done = _run_script("knowledge_benefit.py", "--K", "500", "--zeta", "1.0", "--MN", "6,4")
    assert done.returncode == 0, done.stderr
    for table in _benefit_rows(done.stdout):
        ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = table[(500, 1.0, 6, 4)]
        assert (ss_ratio, os_ratio, by_drop, by_ratio) == ("1", "nan", "tie", "n/a")


# at K = 200 with 24 paths each, one value leaves [0, 1] past the integrity
# band: a floor in the first table, a closed form at 30 dB in the second;
# K = 0 is an invalid parameter
@pytest.mark.parametrize("script, args, message", [
    ("floor_sensitivity.py", ("--K", "200", "--M", "24", "--N", "24", "--a", "0.001", "--b", "0.1", "--zeta", "1"),
     "asymptotic outage probability 1.0003546512356276 leaves [0, 1]"),
    ("knowledge_benefit.py", ("--K", "200", "--MN", "24,24", "--a", "0.001", "--b", "0.1", "--zeta", "1",
                              "--snr-db", "30"),
     "analytic outage probability 1.0000332977472277 leaves [0, 1]"),
    ("floor_sensitivity.py", ("--K", "0"), "K must be a positive integer, got 0"),
    ("knowledge_benefit.py", ("--K", "0"), "K must be a positive integer, got 0"),
])
def test_table_scripts_report_errors_as_sop_does(script, args, message):
    # one error line on stderr, no table and exit 2, not a traceback with exit 1
    done = _run_script(script, *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {message}") and done.stderr.count("\n") == 1
