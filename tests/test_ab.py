"""The op-level A/B tool ``tests/ab.py`` runs A/A on this tree; the timings themselves are taken by hand."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_runs_a_over_a_on_a_few_lone_cells():
    # in a subprocess: the tool loads the package twice under names of its own
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab.py"), str(ROOT), *"--rounds 1 --workload lone --cells 4".split()],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "(A/A)" in out
    assert re.search(r"^lone: 4 pairs$", out, re.MULTILINE)
    assert re.search(r"^  median op: parent [0-9.]+ ms, change [0-9.]+ ms$", out, re.MULTILINE)
    assert re.search(r"^  change/parent ratio: median [0-9.]+, 95% interval \[[0-9.]+, [0-9.]+\]", out, re.MULTILINE)
    assert re.search(r"^  largest value difference: 0$", out, re.MULTILINE)
    assert "figure:" not in out


def test_ab_runs_a_over_a_on_two_monte_carlo_cells():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab.py"), str(ROOT),
         *"--rounds 1 --workload mc --cells 2".split()],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert re.search(r"^mc: 2 pairs$", out, re.MULTILINE)
    assert re.search(r"^  largest value difference: 0$", out, re.MULTILINE)
    assert "lone:" not in out and "figure:" not in out
