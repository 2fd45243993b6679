"""Smoke tests of the command-line scripts under scripts/, run as a user would."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    # header, rule, 4 K rows per zeta and a blank line after each of 2 zetas, closing note
    assert len(done.stdout.splitlines()) == 2 + 2 * (4 + 1) + 1
    assert done.stdout.splitlines()[0].split()[:2] == ["K", "zeta"]
