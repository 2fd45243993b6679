"""Secrecy outage probability of multi-transmitter networks with
unreliable wireless backhaul.

The destination and eavesdropper see frequency-selective Rayleigh fading
with single-carrier cyclic-prefix reception, so their SNRs are Gamma
distributed with integer shape.  Each transmitter's backhaul succeeds
independently with a fixed reliability; a transmitter whose backhaul failed
sends nothing.  The library evaluates the secrecy outage probability of the
best-transmitter selection schemes by four independent routes: exact closed
form, high-SNR asymptote, adaptive quadrature on the defining integral, and
Monte Carlo simulation.
"""

from .analytic import (
    EvalMethod,
    NumericalIntegrityError,
    Scenario,
    Scheme,
    SopQuery,
    SopValue,
    analytic_sop,
    analytic_sops,
    asymptotic_sop,
    asymptotic_sops,
)
from .channel import REFERENCE_CONFIG, GammaSnr, SystemConfig, snr_cdf, snr_pdf
from .montecarlo import McSettings, SopEstimate, simulate_sop
from .numerics import CompositionCapError, enumerate_weak_compositions
from .quadrature import QuadratureConvergenceError, adaptive_integral, quadrature_sop, quadrature_sops
from .sweep import (
    SweepResult,
    SweepRow,
    SweepSpec,
    db_to_linear,
    run_sweep,
    run_sweeps,
    write_sweep_csv,
)
from .figures import FIGURE_PRESETS, run_figure
from .validation import CheckResult, ValidationSettings, run_validation

__version__ = "0.1.0"

__all__ = [
    "CompositionCapError",
    "CheckResult",
    "EvalMethod",
    "FIGURE_PRESETS",
    "GammaSnr",
    "McSettings",
    "NumericalIntegrityError",
    "QuadratureConvergenceError",
    "REFERENCE_CONFIG",
    "Scenario",
    "Scheme",
    "SopEstimate",
    "SopQuery",
    "SopValue",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "ValidationSettings",
    "adaptive_integral",
    "analytic_sop",
    "analytic_sops",
    "asymptotic_sop",
    "asymptotic_sops",
    "db_to_linear",
    "enumerate_weak_compositions",
    "quadrature_sop",
    "quadrature_sops",
    "run_figure",
    "run_sweep",
    "run_sweeps",
    "run_validation",
    "simulate_sop",
    "snr_cdf",
    "snr_pdf",
    "write_sweep_csv",
    "__version__",
]
