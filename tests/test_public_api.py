import inspect
from dataclasses import fields, replace

import numpy as np

import secrecy_outage
from secrecy_outage import REFERENCE_CONFIG, SopQuery, SystemConfig, ValidationSettings
from secrecy_outage import analytic, montecarlo, quadrature, sweep
from secrecy_outage.analytic import CASES
from secrecy_outage.figures import FigureResult

# The per-case closed-form wrappers folded into analytic_sop / asymptotic_sop.
REMOVED = ("sop_ss_ku", "sop_ss_ka", "sop_os_ku", "sop_os_ka", "sop_single", "asymptotic_single")


def test_every_exported_name_resolves():
    for name in secrecy_outage.__all__:
        assert getattr(secrecy_outage, name) is not None, name


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
