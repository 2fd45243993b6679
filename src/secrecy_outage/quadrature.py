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
vectorised call, until the global estimate meets tolerance.  Many integrals
refine as rows of one stack: each row keeps its own tolerance, budget and
panels, leaves when it converges, and every level evaluates the panels of
all remaining rows together, one call per group of rows sharing their
unit-scale laws (``quadrature_sops``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    "quadrature_sops",
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
_WEIGHTS = np.stack((_WEIGHTS_K, _WEIGHTS_G))


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


def _panels(evaluate: Callable, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Kronrod values and error estimates (200 |K - G|)^1.5 of panels [lo_i, hi_i], one call.

    ``einsum`` sums each panel's 15 products on their own, for both rules
    in one call, so a panel's numbers do not depend on which other panels
    share the call (a BLAS product's can, by an ulp).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = evaluate(rows, mid[:, None] + half[:, None] * _NODES)
    value_k, value_g = half * np.einsum("ij,kj->ki", fx, _WEIGHTS)
    diff = np.abs(value_k - value_g)
    return value_k, np.where(diff > 0.0, (200.0 * diff) ** 1.5, 0.0)


@lru_cache(maxsize=8)
def _edges(lo: float, hi: float, subdivisions: int) -> np.ndarray:
    """The first level's panel edges, cached read-only: ``linspace`` costs like a level's bookkeeping."""
    edges = np.linspace(lo, hi, subdivisions + 1)
    edges.flags.writeable = False
    return edges


def _stacked_integrals(
    evaluate: Callable,
    n_rows: int,
    lo: float,
    hi: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    initial_subdivisions: int = 8,
    max_panels: int = 4096,
) -> list:
    """Adaptive integrals of ``n_rows`` integrands over [lo, hi], refined level by level together.

    ``evaluate(rows, x)`` returns the integrand values at the (P, 15) node
    array ``x``, whose panel i belongs to row ``rows[i]``; it is called once
    per level for every row still refining.  Each row follows
    ``adaptive_integral``'s rule with its own tolerance and budget, keeps its
    panels in the same order, and leaves when it converges or runs out of
    budget, so its value and panel count are those of its one-row call.
    Returns one float or one ``QuadratureConvergenceError`` per row.
    """
    if initial_subdivisions < 1:
        raise ValueError("initial_subdivisions must be >= 1")
    edges = _edges(lo, hi, initial_subdivisions)
    # the rows still refining, ascending, and their panels as the columns
    # (lo, hi, value, error estimate) of one array; each row's are contiguous.
    # Array methods stand in for their numpy functions: a lone row's level is
    # a few dozen calls on tiny arrays, so per-call overhead is its cost.
    ids = np.arange(n_rows)
    sizes = evaluated = np.full(n_rows, initial_subdivisions)
    panels = np.empty((4, n_rows, initial_subdivisions))
    panels[0], panels[1] = edges[:-1], edges[1:]
    panels = panels.reshape(4, -1)
    panels[2:] = _panels(evaluate, ids.repeat(sizes), panels[0], panels[1])
    results: list = [None] * n_rows
    while True:
        p_lo, p_hi, values, errs = panels
        starts = sizes.cumsum() - sizes
        totals = np.add.reduceat(values, starts)
        total_errs = np.add.reduceat(errs, starts)
        tols = np.fmax(abs_tol, rel_tol * abs(totals))
        rooms = (max_panels - evaluated) // 2
        done = total_errs <= tols
        refine = ~done & (rooms >= 1)
        for i in (~refine).nonzero()[0]:
            total = float(totals[i])
            results[ids[i]] = total if done[i] else QuadratureConvergenceError(
                total, float(total_errs[i]), float(tols[i])
            )
        next_ids = ids[refine]
        if not next_ids.size:
            return results
        seg = np.arange(ids.size).repeat(sizes)
        live = refine[seg]
        split = live & (errs > tols[seg] * (p_hi - p_lo) / (hi - lo))
        counts = np.bincount(seg[split], minlength=ids.size)
        for i in (refine & ((counts > rooms) | (counts == 0))).nonzero()[0]:
            own = slice(starts[i], starts[i] + sizes[i])
            own_split, own_errs = split[own], errs[own]
            if counts[i]:  # the budget fits the `room` worst of them
                own_split[np.where(own_split, own_errs, -1.0).argsort()[: -rooms[i]]] = False
                counts[i] = rooms[i]
            else:
                own_split[own_errs.argmax()] = True
                counts[i] = 1
        keep = live & ~split
        s_seg, s_lo, s_hi = seg[split], p_lo[split], p_hi[split]
        mid = 0.5 * (s_lo + s_hi)
        c_seg = np.concatenate((s_seg, s_seg))
        c_lo, c_hi = np.concatenate((s_lo, mid)), np.concatenate((mid, s_hi))
        c_val, c_err = _panels(evaluate, ids[c_seg], c_lo, c_hi)
        # a stable sort by row keeps each row's kept panels, then its left halves, then its right halves
        order = np.concatenate((seg[keep], c_seg)).argsort(kind="stable")
        panels = np.concatenate((panels[:, keep], (c_lo, c_hi, c_val, c_err)), axis=1)[:, order]
        ids, sizes, evaluated = next_ids, (sizes + counts)[refine], (evaluated + 2 * counts)[refine]


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
    This is the one-row case of the row-stacked integrator.
    """
    (result,) = _stacked_integrals(
        lambda rows, x: f(x), 1, lo, hi, abs_tol, rel_tol, initial_subdivisions, max_panels
    )
    if isinstance(result, QuadratureConvergenceError):
        raise result
    return result


@dataclass(frozen=True)
class Integrand:
    """The unit-scale laws of one (M, N, L, w) group of outage integrals.

    ``destination_cdf(u) = ((1 - w) + w P(M, u))^L`` at destination SNR
    u * a_d, and ``eavesdropper_pdf`` is the Gamma(N) density at scale 1.
    """

    destination_cdf: Callable
    eavesdropper_pdf: Callable


def build_integrand(query: SopQuery) -> Integrand:
    """Assemble the unit-scale laws of one case's inner quantity from raw distribution functions.

    The destination CDF is the backhaul mixture at weight w raised to the L,
    with (L, w) from ``inner_args``; w = 1 is the bare Gamma CDF and L = 1
    needs no power.  Every query with the same (M, N, L, w) gets the same laws.
    """
    cfg = query.cfg
    dest = GammaSnr(cfg.M, 1.0)
    eave = GammaSnr(cfg.N, 1.0)
    power, weight = inner_args(query)

    if weight == 1.0:
        single_cdf = lambda u: snr_cdf(dest, u)
    else:
        single_cdf = lambda u: mixture_cdf(dest, weight, u)
    if power == 1:
        destination_cdf = single_cdf
    else:
        destination_cdf = lambda u: single_cdf(u) ** power

    return Integrand(destination_cdf=destination_cdf, eavesdropper_pdf=lambda v: snr_pdf(eave, v))


def _boundary_expectations(keys: list, **quad_kwargs) -> list[float]:
    """E_y[destination_cdf(lambda(y) / a_d)] of every (query, L, w) key, as one row-stacked integral.

    Row r substitutes y = a_e t / (1 - t) with its own a_e, and reads the
    boundary lambda(y) = (1 + y) rho - 1 with its own rho and a_d.  The rows
    of an (M, N, L, w) group share one ``build_integrand``, looked up at call
    time, and each level calls each group's laws once on all of its panels.
    """
    groups: dict[tuple, list[int]] = {}
    for r, (query, power, weight) in enumerate(keys):
        groups.setdefault((query.cfg.M, query.cfg.N, power, weight), []).append(r)
    integrands = [build_integrand(keys[members[0]][0]) for members in groups.values()]
    group_of = np.empty(len(keys), dtype=np.intp)
    for g, members in enumerate(groups.values()):
        group_of[members] = g
    rho, a_d, a_e = (
        np.array([getattr(query.cfg, name) for query, _, _ in keys]) for name in ("rho", "a_d", "a_e")
    )

    def evaluate(rows, t):
        fx = np.empty_like(t)
        panel_group = group_of[rows]
        for g, integrand in enumerate(integrands):
            at = (panel_group == g).nonzero()[0]
            if at.size:
                r, t_g = rows[at, None], t[at]
                odds = t_g / (1.0 - t_g)  # y / a_e
                u = ((1.0 + a_e[r] * odds) * rho[r] - 1.0) / a_d[r]
                density = integrand.eavesdropper_pdf(odds) / (1.0 - t_g) ** 2
                fx[at] = integrand.destination_cdf(u) * density
        return fx

    results = _stacked_integrals(evaluate, len(keys), 0.0, 1.0, **quad_kwargs)
    for result in results:
        if isinstance(result, QuadratureConvergenceError):
            raise result
    return results


def quadrature_sops(queries, **quad_kwargs) -> list[float]:
    """Outage probabilities of many queries by one row-stacked quadrature.

    Each query's inner quantity is one row, keyed by (query, L, w); a query
    over dead backhaul reads none.  All rows refine together, and every
    value equals that query's ``quadrature_sop``.
    """

    def inner(reading, args):
        keys = [(query, power, weight) for query, (power, weight) in zip(reading, args)]
        return _boundary_expectations(keys, **quad_kwargs), [False] * len(keys)

    return [value.value for value in case_sop(queries, inner, "quadrature")]


def quadrature_sop(query: SopQuery, **quad_kwargs) -> float:
    """Outage probability by direct quadrature of the defining integral.

    The value passes the closed forms' integrity check: NaN, or a value
    outside [0, 1] by more than ``INTEGRITY_BAND``, raises
    ``NumericalIntegrityError``; otherwise it is clamped to [0, 1].
    """
    return quadrature_sops([query], **quad_kwargs)[0]
