"""Direct numerical evaluation of the defining outage integral.

Every outage probability in this package is, underneath, the expectation of
a destination CDF evaluated at the outage boundary lambda(y) = (1 + y) * rho
- 1 over the eavesdropper SNR density.  This module computes that integral
from the distribution functions themselves, with none of the series algebra
used by the closed forms, so the two routes can cross-validate each other.
It does share the closed forms' case rule (``analytic.case_sop``): quadrature
supplies only the inner quantity E_y[((1 - w) + w F_d(lambda(y)))^L], so the
Monte Carlo route and the test oracles are the independent checks of how the
four (scheme, scenario) cases are composed.

The half line is mapped to (0, 1) through y = scale_e * t / (1 - t), which
puts the bulk of the eavesdropper mass at moderate t for any SNR.  The
integrator is adaptive interval halving with an embedded higher-order rule
(15-point Kronrod extension of 7-point Gauss), refined a level at a time:
every panel above its share of the tolerance is halved, all in one
vectorised call, until the global estimate meets tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import SopQuery, case_sop, inner_args
from .channel import GammaSnr, mixture_cdf, snr_cdf, snr_pdf

__all__ = [
    "Integrand",
    "QuadratureConvergenceError",
    "adaptive_integral",
    "build_integrand",
    "quadrature_sop",
]

# 15-point Kronrod nodes on [-1, 1] with Kronrod weights and the embedded
# 7-point Gauss weights (zero on Kronrod-only nodes).
_NODES_POS = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WEIGHTS_K_POS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WEIGHTS_G_POS = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)

_NODES = np.array([-x for x in _NODES_POS[:-1]] + list(_NODES_POS[::-1]))
_WEIGHTS_K = np.array(list(_WEIGHTS_K_POS[:-1]) + list(_WEIGHTS_K_POS[::-1]))
_WEIGHTS_G = np.array(list(_WEIGHTS_G_POS[:-1]) + list(_WEIGHTS_G_POS[::-1]))


class QuadratureConvergenceError(RuntimeError):
    """Panel budget exhausted before the error estimate met tolerance."""

    def __init__(self, value: float, achieved: float, tol: float):
        self.value = value
        self.achieved = achieved
        self.tol = tol
        super().__init__(
            f"quadrature failed to converge: achieved error estimate {achieved:.3e} "
            f"above tolerance {tol:.3e} (partial value {value!r})"
        )


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates (200 |K - G|)^1.5 of panels [lo_i, hi_i], one f call."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = f(mid[:, None] + half[:, None] * _NODES)
    value_k = half * (fx @ _WEIGHTS_K)
    diff = np.abs(value_k - half * (fx @ _WEIGHTS_G))
    return value_k, np.where(diff > 0.0, (200.0 * diff) ** 1.5, 0.0)


def adaptive_integral(
    f: Callable,
    lo: float = 0.0,
    hi: float = 1.0,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    initial_subdivisions: int = 8,
    max_panels: int = 4096,
) -> float:
    """Adaptive Gauss-Kronrod integral of a vectorized integrand over [lo, hi].

    ``f`` receives one array of nodes per refinement level.  Every panel
    whose error estimate exceeds its width's share of the tolerance is
    halved (the worst one if none does), and only the halves are evaluated
    anew.  The effective tolerance is the looser of ``abs_tol`` and
    ``rel_tol * |integral|``.  Refinement never takes the evaluated panels,
    the first level's included, past ``max_panels``; if that budget is spent
    first, ``QuadratureConvergenceError`` carries the achieved estimate.
    """
    if initial_subdivisions < 1:
        raise ValueError("initial_subdivisions must be >= 1")
    edges = np.linspace(lo, hi, initial_subdivisions + 1)
    p_lo, p_hi = edges[:-1], edges[1:]
    values, errs = _panels(f, p_lo, p_hi)
    evaluated = initial_subdivisions
    while True:
        total = float(values.sum())
        total_err = float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return total
        room = (max_panels - evaluated) // 2
        if room < 1:
            raise QuadratureConvergenceError(total, total_err, tol)
        split = errs > tol * (p_hi - p_lo) / (hi - lo)
        if np.count_nonzero(split) > room:  # the budget fits the `room` worst of them
            split[np.argsort(np.where(split, errs, -1.0))[:-room]] = False
        elif not split.any():
            split[np.argmax(errs)] = True
        mid = 0.5 * (p_lo[split] + p_hi[split])
        c_lo, c_hi = np.concatenate((p_lo[split], mid)), np.concatenate((mid, p_hi[split]))
        c_val, c_err = _panels(f, c_lo, c_hi)
        keep = ~split
        p_lo, p_hi = np.concatenate((p_lo[keep], c_lo)), np.concatenate((p_hi[keep], c_hi))
        values, errs = np.concatenate((values[keep], c_val)), np.concatenate((errs[keep], c_err))
        evaluated += c_lo.size


@dataclass(frozen=True)
class Integrand:
    """The two distribution callables and threshold defining one outage integral."""

    destination_cdf: Callable
    eavesdropper_pdf: Callable
    rho: float


def build_integrand(query: SopQuery) -> Integrand:
    """Assemble the integrand of one case's inner quantity from raw distribution functions.

    The destination CDF is the backhaul mixture at weight w raised to the L,
    with (L, w) from ``inner_args``; w = 1 is the bare Gamma CDF and L = 1
    needs no power.
    """
    cfg = query.cfg
    dest = GammaSnr(cfg.M, cfg.a_d)
    eave = GammaSnr(cfg.N, cfg.a_e)
    power, weight = inner_args(query)

    if weight == 1.0:
        single_cdf = lambda x: snr_cdf(dest, x)
    else:
        single_cdf = lambda x: mixture_cdf(dest, weight, x)
    if power == 1:
        destination_cdf = single_cdf
    else:
        destination_cdf = lambda x: single_cdf(x) ** power

    return Integrand(
        destination_cdf=destination_cdf,
        eavesdropper_pdf=lambda y: snr_pdf(eave, y),
        rho=cfg.rho,
    )


def _boundary_expectation(integrand: Integrand, scale_e: float, **quad_kwargs) -> float:
    """Integral of destination_cdf(lambda(y)) * eavesdropper_pdf(y) over y >= 0."""
    rho = integrand.rho

    def transformed(t):
        y = scale_e * t / (1.0 - t)
        boundary = (1.0 + y) * rho - 1.0
        jacobian = scale_e / (1.0 - t) ** 2
        return integrand.destination_cdf(boundary) * integrand.eavesdropper_pdf(y) * jacobian

    return adaptive_integral(transformed, 0.0, 1.0, **quad_kwargs)


def quadrature_sop(query: SopQuery, **quad_kwargs) -> float:
    """Outage probability by direct quadrature of the defining integral.

    The value passes the closed forms' integrity check: NaN, or a value
    outside [0, 1] by more than ``INTEGRITY_BAND``, raises
    ``NumericalIntegrityError``; otherwise it is clamped to [0, 1].
    """

    def inner(power, weight):
        # build_integrand reads the same (L, w) off the query
        return _boundary_expectation(build_integrand(query), query.cfg.a_e, **quad_kwargs), False

    return case_sop(query, inner, "quadrature").value
