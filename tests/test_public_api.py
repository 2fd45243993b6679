import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

import secrecy_outage
from secrecy_outage import REFERENCE_CONFIG, Scenario, SopQuery, SystemConfig, ValidationSettings
from secrecy_outage import analytic, montecarlo, quadrature, sweep
from secrecy_outage.analytic import CASES
from secrecy_outage.figures import FigureResult

# The per-case closed-form wrappers folded into analytic_sop / asymptotic_sop.
REMOVED = ("sop_ss_ku", "sop_ss_ka", "sop_os_ku", "sop_os_ka", "sop_single", "asymptotic_single")


def test_every_exported_name_resolves():
    # the package and each of its modules: a name left in __all__ after its
    # definition goes must fail here
    modules = [secrecy_outage] + [
        importlib.import_module(f"secrecy_outage.{info.name}")
        for info in pkgutil.iter_modules(secrecy_outage.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) == 9
    for module in modules:
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_one_closed_form_entry_per_route():
    for module in (secrecy_outage, analytic):
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__


# The ValidationSettings fields that the benchmark (perfbench/child.py) reads.
BENCHMARK_SETTINGS = (
    "ks", "mc_samples", "confidence", "analytic_quadrature_tol", "mc_tolerance_floor",
    "determinism_workers",
)


def test_traced_benchmark_seams_exist(monkeypatch):
    # the benchmark (perfbench/child.py) rebinds these module names and reads
    # the names below; a refactor that drops one must fail here, not silently
    # in a benchmark run
    seams = {
        quadrature: ("build_integrand",),
        sweep: ("evaluate_cell", "analytic_sop", "asymptotic_sop", "quadrature_sop"),
        montecarlo: ("make_rng", "sample_channel_block", "secrecy_outage_indicator"),
    }
    for module, names in seams.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for settings in (ValidationSettings(), ValidationSettings.smoke()):
        for name in BENCHMARK_SETTINGS:
            assert hasattr(settings, name), name
        assert all(isinstance(cfg, SystemConfig) for cfg in settings.grid_configs())
        assert replace(settings, determinism_workers=(1,)).determinism_workers == (1,)
    assert callable(secrecy_outage.enumerate_weak_compositions)
    assert "workers" in inspect.signature(secrecy_outage.simulate_sop).parameters
    assert "per_variant" in {f.name for f in fields(FigureResult)}
    # the benchmark counts quadrature work through a build_integrand that
    # replaces the destination CDF; a batch must still call the replacement
    build, nodes = quadrature.build_integrand, []

    def counting_build_integrand(query):
        integrand = build(query)

        def destination_cdf(u):
            nodes.append(np.size(u))
            return integrand.destination_cdf(u)

        return replace(integrand, destination_cdf=destination_cdf)

    monkeypatch.setattr(quadrature, "build_integrand", counting_build_integrand)
    quadrature.quadrature_sops([SopQuery(REFERENCE_CONFIG, scheme, scenario) for scheme, scenario in CASES])
    assert nodes and all(nodes)


def test_settable_values_are_pinned():
    # the quadrature budget, first level and outage-integral tolerances, the
    # composition cap, the simulation confidence and the triple-agreement
    # tolerances are constants; a new setting or result field must be added here
    assert [f.name for f in fields(ValidationSettings)] == [
        "ks", "zetas", "snr_dbs", "mc_samples", "seed", "determinism_samples", "determinism_workers",
    ]
    assert [f.name for f in fields(FigureResult)] == ["preset", "per_variant"]
    assert [f.name for f in fields(analytic.SopValue)] == ["value", "method", "significance_flag"]
    assert [f.name for f in fields(montecarlo.SopEstimate)] == [
        "p_hat", "ci_half_width", "n_samples", "low_confidence", "empty_active_set_rate",
    ]
    entries = {
        quadrature.adaptive_integral: ["f", "hi", "rel_tol"],
        quadrature.quadrature_sop: ["query"],
        quadrature.quadrature_sops: ["queries"],
        analytic.enumerate_weak_compositions: ["k", "num_parts"],
    }
    for entry, parameters in entries.items():
        assert list(inspect.signature(entry).parameters) == parameters, entry.__name__
    assert (quadrature.INITIAL_SUBDIVISIONS, quadrature.MAX_PANELS) == (8, 4096)
    assert quadrature.REL_TOL == 1e-10
    assert analytic.DEFAULT_COMPOSITION_CAP == 10_000_000
    settings = ValidationSettings()
    assert (settings.confidence, settings.analytic_quadrature_tol, settings.mc_tolerance_floor) == (
        0.99, 1e-8, 1e-3
    )


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_runs_and_restores(monkeypatch, tmp_path):
    # the benchmark's own seam code: perfbench/child.py's traced_api over its
    # plain_api runs one fig2/ku figure job (closed form, floor, quadrature)
    # and one small-sample validate cell, each passing the benchmark's own
    # check; restore() must then put every rebound module attribute back
    tracing = _load_by_path("tracing", PERFBENCH / "tracing.py")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # child.py imports it by this name
    child = _load_by_path("perfbench_child", PERFBENCH / "child.py")
    modules = (montecarlo, quadrature, sweep)
    before = {module: dict(vars(module)) for module in modules}
    tracer = tracing.Tracer()
    spec = {"tiny": True, "seconds": 1, "seed": 7, "out_dir": str(tmp_path)}
    figures = child.FigureSweep(spec)
    try:
        api = child.traced_api(tracer, child.plain_api())
        rebound = {
            (module.__name__.rsplit(".", 1)[1], name)
            for module in modules
            for name, value in before[module].items()
            if vars(module)[name] is not value
        }
        assert {
            ("sweep", "evaluate_cell"), ("sweep", "analytic_sop"), ("sweep", "asymptotic_sop"),
            ("sweep", "quadrature_sop"), ("quadrature", "build_integrand"), ("montecarlo", "make_rng"),
        } <= rebound
        index, job = next((i, op) for i, op in enumerate(figures.ops) if op[1:] == ("fig2", Scenario.KU))
        assert figures.check(index, figures.call(api, job)) is None
        grid = child.ValidateGrid(spec)
        assert grid.check(0, grid.call(api, grid.ops[0])) is None
        assert tracer.count("figures.run_figure") == tracer.count("montecarlo.simulate_sop") == 1
        assert child.layer_totals(tracer)["sums"]["montecarlo.samples"] == grid.mc.n_samples
    finally:
        tracer.restore()
        figures.close()
    for module in modules:
        for name, value in before[module].items():
            assert vars(module)[name] is value, f"{module.__name__}.{name}"


# Standard-library modules that only some calls need, imported where they are
# used: the thread pool (with logging and queue) for more than one Monte Carlo
# worker, statistics (with fractions and decimal) in simulate_sop, csv for
# parsing a sweep CSV, and fractions in the identity check.
LAZY_MODULES = ("concurrent.futures", "logging", "queue", "statistics", "fractions", "decimal", "csv")

# Run in a fresh interpreter; at exit it prints every loaded scipy module,
# then every loaded module of LAZY_MODULES, as its last two lines (exit
# handlers run last registered first).
_SCIPY_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("lazy modules:", sorted(m for m in {lazy!r} if m in sys.modules)))
atexit.register(lambda: print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
{body}
"""


def _probe(body: str) -> tuple[str, str]:
    """The scipy line and the lazy-module line of the probe after ``body``."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE.format(body=body, lazy=LAZY_MODULES)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    scipy, lazy = proc.stdout.splitlines()[-2:]
    return scipy, lazy


def _scipy_modules_after(body: str) -> str:
    return _probe(body)[0]


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; importing it would cost the package's
    # start-up about 300 ms.  The lazily imported standard-library modules
    # cost another 8-12 ms and stay unloaded too.
    assert _probe("import secrecy_outage, secrecy_outage.cli") == ("scipy modules: []", "lazy modules: []")


def test_cli_loads_no_scipy():
    for argv in (
        ["sop", "--method", "quadrature"],
        ["validate", "--smoke", "--check", "identities"],
    ):
        body = f"sys.argv = ['secrecy_outage', *{argv!r}]\nrunpy.run_module('secrecy_outage', run_name='__main__')"
        assert _scipy_modules_after(body) == "scipy modules: []", argv
