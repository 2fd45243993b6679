"""The program's traffic under a line trace: which lines of ``src/`` its real commands never run.

It runs a fixed list of commands in this process, under the standard
library's ``trace`` module (worker threads included), and prints, per
module of ``src/secrecy_outage``, the executable lines that none of them
ran.  The list is what the program is for: ``sop validate --smoke``,
``sop sop`` by each method, a sweep with Monte Carlo, each figure preset
under ku and ka without Monte Carlo, one Monte Carlo figure at a small
sample count, and the two table scripts.  A line it lists is run by no
command, only by tests or the benchmark, and is a candidate for deletion.
Files go to a temporary directory; each command's standard output is
swallowed.  It takes a few seconds and is run by hand:

    PYTHONPATH=src python tests/traffic.py

The package must not be imported before the trace starts, or its
module-level lines would read as never run; so nothing here imports it at
the top.
"""

from __future__ import annotations

import contextlib
import dis
import io
import runpy
import sys
import tempfile
import threading
import time
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "secrecy_outage"
SCRIPTS = ("floor_sensitivity.py", "knowledge_benefit.py")
DETERMINISTIC = ["--method", "analytic", "--method", "asymptotic", "--method", "quadrature"]


def commands(out: Path) -> list[list[str]]:
    """The fixed traffic: ``sop`` argument lists, then the scripts by file name."""
    cli = [["validate", "--smoke"]]
    cli += [["sop", "--method", method, "--samples", "20000"] for method in ("analytic", "asymptotic", "quadrature", "mc")]
    cli.append([
        "sweep", "--snr-start", "0", "--snr-stop", "20", "--scheme", "ss", "--scheme", "os",
        "--scenario", "ku", "--scenario", "ka", "--method", "analytic", "--method", "mc",
        "--samples", "2000", "--out", str(out / "sweep.csv"), "--plot", str(out / "sweep.json"),
    ])
    for name in ("fig2", "fig3", "fig4", "fig5"):
        for scenario in ("ku", "ka"):
            stem = str(out / f"{name}-{scenario}")
            cli.append(["figure", name, "--scenario", scenario, *DETERMINISTIC,
                        "--out", stem + ".csv", "--plot", stem + ".json"])
    cli.append(["figure", "fig2", "--samples", "2000", "--out", str(out / "mc.csv"), "--plot", str(out / "mc.json")])
    return cli + [[script] for script in SCRIPTS]


def run_traffic(out: Path) -> list[tuple[str, int, float]]:
    """Run every command, writing files under ``out``; per command its text, its exit code and its seconds."""
    from secrecy_outage.cli import main

    report = []
    for command in commands(out):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if command[0] in SCRIPTS:
                argv, sys.argv = sys.argv, [command[0]]
                try:
                    runpy.run_path(str(ROOT / "scripts" / command[0]), run_name="__main__")
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
                finally:
                    sys.argv = argv
            else:
                code = main(command)
        report.append((" ".join(command).replace(str(out), "$OUT"), code, time.perf_counter() - start))
    return report


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that start an instruction, in the module and every code object inside it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as ``12-14, 20``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    if "secrecy_outage" in sys.modules:
        raise RuntimeError("secrecy_outage was imported before the trace started")
    tracer = trace.Trace(count=1, trace=0)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        threading.settrace(tracer.globaltrace)
        try:
            report = tracer.runfunc(run_traffic, Path(out))
        finally:
            threading.settrace(None)
    seconds = time.perf_counter() - start
    for command, code, took in report:
        print(f"exit {code}  {took:6.2f} s  {command}")
    ran: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    total = 0
    print(f"\nexecutable lines of src/ that no command ran ({seconds:.1f} s traced):")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.name}: {len(missed)}" + (f"  ({spans(missed)})" if missed else ""))
    print(f"total: {total}")
    return 0 if all(code == 0 for _, code, _ in report) else 1


if __name__ == "__main__":
    sys.exit(main())
