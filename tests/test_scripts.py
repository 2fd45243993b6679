"""Smoke tests of the command-line scripts under scripts/, run as a user would."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from secrecy_outage import FIGURE_PRESETS
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


def test_floor_sensitivity_table():
    done = _run_script("floor_sensitivity.py")
    assert done.returncode == 0, done.stderr
    # header, rule, 4 K rows per zeta and a blank line after each of 2 zetas, two closing notes
    lines = done.stdout.splitlines()
    assert len(lines) == 2 + 2 * (4 + 1) + 2
    assert lines[0].split()[:2] == ["K", "zeta"]
    assert "*" not in "".join(lines[:-2])  # nothing flagged at these points


def test_floor_sensitivity_marks_flagged_floors():
    # at K = 200 with reliable backhaul both ss floors lose significance and
    # read 0; each is marked, and the os columns are not
    done = _run_script("floor_sensitivity.py", "--K", "200", "--zeta", "1.0")
    assert done.returncode == 0, done.stderr
    K, zeta, ss_ku, os_ku, ss_ka, os_ka, gain = done.stdout.splitlines()[2].replace("|", " ").split()
    assert (ss_ku, ss_ka) == ("0.0000e+00*", "0.0000e+00*")
    assert "*" not in os_ku + os_ka + gain
    assert "* marks a flagged floor" in done.stdout


def test_floor_sensitivity_reads_a_ratio_over_zero():
    # both os floors underflow to 0 at K = 500 with reliable backhaul: their ratio prints nan
    done = _run_script("floor_sensitivity.py", "--K", "500", "--zeta", "1.0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[2].split()[-1] == "nan"


def _benefit_rows(stdout: str) -> list[dict[tuple, list[str]]]:
    """Per table of knowledge_benefit.py, its rows keyed by (K, zeta, M, N), flag marks dropped."""
    tables = []
    for line in stdout.splitlines():
        if line.startswith("knowledge benefit"):
            tables.append({})
        elif tables and "|" in line and not line.lstrip().startswith("K"):
            fields = line.replace("|", " ").replace("*", " ").split()
            K, zeta, M, N = fields[:4]
            tables[-1][(int(K), float(zeta), int(M), int(N))] = fields[4:]
    return tables


def test_knowledge_benefit_table():
    done = _run_script("knowledge_benefit.py")
    assert done.returncode == 0, done.stderr
    at_snr, floor = _benefit_rows(done.stdout)
    # 3 (M, N) pairs x 3 K x 2 zetas, at 10 dB and at the floor
    assert len(at_snr) == len(floor) == 18
    tables = done.stdout.split("\n\n")[:2]
    assert "*" not in "".join(tables)  # nothing flagged at these points, no value or winner marked
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


def test_knowledge_benefit_marks_a_winner_named_from_flagged_values():
    # at K = 500 the ss floors are flagged (the ss ratio reads inf*), so both
    # winner cells of the floor table carry the mark; the ss closed forms
    # lose significance too, but fall back to quadrature, unmarked
    done = _run_script("knowledge_benefit.py", "--K", "500", "--zeta", "0.9", "--MN", "6,4")
    assert done.returncode == 0, done.stderr
    at_snr, floor = [line for line in done.stdout.splitlines() if line.startswith("500")]
    assert "*" not in at_snr
    ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = at_snr.replace("|", " ").split()[4:]
    assert float(ss_drop) == pytest.approx(0.1, abs=5e-5) and float(ss_ratio) > 1.0
    ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = floor.replace("|", " ").split()[4:]
    assert ss_ratio == "inf*" and not os_ratio.endswith("*")
    assert (by_drop, by_ratio) == ("ss*", "ss*")
    assert "a winner named from one" in done.stdout


def test_knowledge_benefit_reads_a_ratio_over_zero():
    # both ss floors underflow to 0 at K = 200 with reliable backhaul: the
    # ss ratio prints nan, and the ratio names no winner; at 10 dB the
    # flagged ss closed forms fall back to quadrature, and ku = ka there
    done = _run_script("knowledge_benefit.py", "--K", "200", "--zeta", "1.0", "--MN", "6,4")
    assert done.returncode == 0, done.stderr
    at_snr, floor = _benefit_rows(done.stdout)
    ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = floor[(200, 1.0, 6, 4)]
    assert (ss_ratio, by_ratio) == ("nan", "n/a")
    ss_drop, os_drop, ss_ratio, os_ratio, by_drop, by_ratio = at_snr[(200, 1.0, 6, 4)]
    assert (ss_ratio, os_ratio, by_ratio) == ("1", "1", "tie")
