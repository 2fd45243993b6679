"""The mutant catalogue: which checks see a small wrong change to ``src/``.

Each entry is one hand-made one-line mutant of the program, as (file under
``src/secrecy_outage``, old text, new text, what it models).  For each
mutant the script copies the tree to a temporary directory, replaces the
old text by the new one there, and runs ``sop validate`` and the tier-1
suite on the copy; it prints the checks and tests that fail, which are the
ones that kill the mutant.  A mutant that nothing kills shows a wrong
program that every check passes.

The suite runs without ``tests/test_reference.py``, whose stored values
catch any mutant that moves a value, and without ``tests/test_mutants.py``,
which fails on every copy since the old text is gone from it.  A mutant
takes about half a minute on a 2-core machine, the catalogue about ten
minutes.  It is run by hand, with no argument for every mutant or with the
names of some:

    python tests/mutants.py [name ...]

``tests/test_mutants.py`` checks, in the tier-1 suite, that each entry's
old text occurs exactly once in its file, so that the catalogue cannot rot;
it does not run the mutants.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "secrecy_outage"
LEFT_OUT = ("tests/test_reference.py", "tests/test_mutants.py")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    models: str


MUTANTS = (
    Mutant(
        "beta-moment",
        "analytic.py",
        "log_eve = log_rising - log_rising[0] + j * math.log(beta)",
        "log_eve = log_rising - log_rising[0] + j * math.log(beta * (1 + 1e-9))",
        "the eavesdropper moments at a beta off by 1e-9 relative",
    ),
    Mutant(
        "guard-ratio",
        "analytic.py",
        "SIGNIFICANCE_LOSS_RATIO = 1e-10",
        "SIGNIFICANCE_LOSS_RATIO = 1e-14",
        "a cancellation guard 4 digits too lenient",
    ),
    Mutant(
        "guard-always",
        "analytic.py",
        "SIGNIFICANCE_LOSS_RATIO = 1e-10",
        "SIGNIFICANCE_LOSS_RATIO = 1e10",
        "a cancellation guard that fires on every key: every series value is quadrature's",
    ),
    Mutant(
        "fallback-off",
        "analytic.py",
        "lost = [at for at, flag in enumerate(flags) if flag]",
        "lost = []",
        "the series' quadrature fallback turned off: the closed form's and floor's lost keys keep the series value",
    ),
    Mutant(
        "floor-fallback-at-alpha",
        "analytic.py",
        "sub = CasePlan([plan.cells[plan.first[at]] for at in lost], floor)",
        "sub = CasePlan([plan.cells[plan.first[at]] for at in lost])",
        "the floor's lost keys integrated at their own alpha instead of 0",
    ),
    Mutant(
        "floor-alpha",
        "analytic.py",
        "[0.0] if floor else alphas",
        "[min(alphas)] if floor else alphas",
        "the floor taken at each group's smallest alpha instead of 0",
    ),
    Mutant(
        "series-scale-1e-8",
        "analytic.py",
        "(N + j[:n]) * math.log1p(k * beta)",
        "(N + j[:n]) * math.log1p(k * beta) * (1 + 1e-8)",
        "the series' log1p(k beta) scaled by 1 + 1e-8",
    ),
    Mutant(
        "series-scale-1e-6",
        "analytic.py",
        "(N + j[:n]) * math.log1p(k * beta)",
        "(N + j[:n]) * math.log1p(k * beta) * (1 + 1e-6)",
        "the series' log1p(k beta) scaled by 1 + 1e-6",
    ),
    Mutant(
        "cdf-series-cut",
        "channel.py",
        "_SERIES_CUT = 2.0**-54",
        "_SERIES_CUT = 2.0**-30",
        "the incomplete-gamma series cut at 2^-30 of its first term",
    ),
    Mutant(
        "copied-partners",
        "channel.py",
        "np.add(row[: size - drawn], _ULP, out=row[drawn:])",
        "np.subtract(1.0, row[: size - drawn], out=row[drawn:])",
        "reflected partners copied: the mean kept, the variance about doubled",
    ),
    Mutant(
        "dispersion-bound-x10",
        "validation.py",
        "bound = (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3",
        "bound = 10.0 * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3",
        "the Monte Carlo dispersion bound loosened tenfold",
    ),
    Mutant(
        "eve-scale-os",
        "montecarlo.py",
        "threshold = _side(rng, cfg.N, cfg.a_e, scratch[1, :on], scratch[2])",
        "threshold = _side(rng, cfg.N, cfg.a_e * 1.01, scratch[1, :on], scratch[2])",
        "a 1% eavesdropper scale in the os simulation",
    ),
    Mutant(
        "eve-scale-ss",
        "montecarlo.py",
        "threshold = _side(rng, cfg.N, cfg.a_e, scratch[1, :on_new], scratch[2])",
        "threshold = _side(rng, cfg.N, cfg.a_e * 1.01, scratch[1, :on_new], scratch[2])",
        "a 1% eavesdropper scale in the ss simulation",
    ),
    Mutant(
        "os-held-always-on",
        "montecarlo.py",
        "on_held = _on_count(rng, held, cfg.zeta) if ka else held",
        "on_held = held",
        "under os/ka, held survivors' backhaul always on",
    ),
    Mutant(
        "ss-held-always-on",
        "montecarlo.py",
        "on = rng.random(held.size) < cfg.zeta if ka and cfg.zeta != 1.0 and held.size else None",
        "on = None",
        "under ss/ka, held survivors' backhaul always on",
    ),
    Mutant(
        "ss-first-link-threshold",
        "montecarlo.py",
        "new = destination[tested.size :] < threshold",
        "new = destination[tested.size :] <= threshold * 1.001",
        "under ss, each newly active sample's threshold raised by 0.1%, and <= for <",
    ),
    Mutant(
        "quad-rel-tol",
        "quadrature.py",
        "REL_TOL = 1e-10",
        "REL_TOL = 1e-6",
        "quadrature's tolerance at 1e-6",
    ),
    Mutant(
        "quad-density-scale",
        "quadrature.py",
        "density[at] = (pdf(s) / dt_ds)[where]",
        "density[at] = (pdf(s) / dt_ds * (1 + 1e-7))[where]",
        "the quadrature's eavesdropper density scaled by 1 + 1e-7",
    ),
    Mutant(
        "quad-backhaul-off-mass",
        "quadrature.py",
        "((1.0 - weight) + weight * fx)",
        "(weight * fx)",
        "the quadrature's law without the backhaul-off mass 1 - w",
    ),
    Mutant(
        "quad-power-before-mix",
        "quadrature.py",
        "fx = ((1.0 - weight) + weight * fx) ** power_of[rows, None]",
        "fx = (1.0 - weight) + weight * fx ** power_of[rows, None]",
        "the quadrature's power L taken before the backhaul mix: (1 - w) + w P^L",
    ),
    Mutant(
        "preset-order-reversed",
        "figures.py",
        "combos = itertools.product(*values.values())",
        "combos = reversed(list(itertools.product(*values.values())))",
        "every preset's variants in reverse order: the last field's last value first",
    ),
    Mutant(
        "config-column-neighbour",
        "figures.py",
        '("N", "N")',
        '("N", "M")',
        "the N column of figure CSVs and plot configs read from the destination path count M",
    ),
)


def _copy(mutant: Mutant, into: Path) -> None:
    """The tree at ``into``, with the mutant's edit applied to its file."""
    shutil.copytree(
        ROOT, into, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    )
    path = into / "src" / "secrecy_outage" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run(args: list[str], tree: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def kills(mutant: Mutant) -> tuple[list[str], list[str]]:
    """The ``sop validate`` checks and the tier-1 tests that fail on the mutant's copy of the tree.

    A run that fails with no failing check or test named (a crash) reads
    as killed by "exit <code>".
    """
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        _copy(mutant, tree)
        code, validate = _run([sys.executable, "-m", "secrecy_outage", "validate"], tree)
        checks = re.findall(r"^FAIL (\w+)", validate, re.MULTILINE) or ([f"exit {code}"] if code else [])
        suite_args = ["-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", "--continue-on-collection-errors"]
        ignore = [f"--ignore={path}" for path in LEFT_OUT]
        code, suite = _run([sys.executable, "-m", "pytest", *suite_args, *ignore], tree)
        tests = re.findall(r"^(?:FAILED|ERROR) (\S+)", suite, re.MULTILINE) or ([f"exit {code}"] if code else [])
    return checks, tests


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}; known: {', '.join(m.name for m in MUTANTS)}", flush=True)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    passes = {"sop validate": [], "tier-1": []}
    for mutant in chosen:
        start = time.perf_counter()
        checks, tests = kills(mutant)
        print(f"{mutant.name} ({mutant.file}): {mutant.models}  [{time.perf_counter() - start:.0f} s]", flush=True)
        print(f"  sop validate: {'killed by ' + ', '.join(checks) if checks else 'passes'}", flush=True)
        print(f"  tier-1: {f'killed by {len(tests)}' if tests else 'passes'}", flush=True)
        for test in tests:
            print(f"    {test}", flush=True)
        for kind, killers in (("sop validate", checks), ("tier-1", tests)):
            if not killers:
                passes[kind].append(mutant.name)
    for kind, passed in passes.items():
        print(f"{kind} passes {len(passed)} of {len(chosen)} mutants: {', '.join(passed) or 'none'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
