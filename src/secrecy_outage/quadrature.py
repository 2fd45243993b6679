"""Direct numerical evaluation of the defining outage integral.

Every outage probability in this package is, underneath, the expectation of
a destination CDF evaluated at the outage boundary over the eavesdropper
SNR density; at unit scale the boundary is u = alpha + beta s for the unit
eavesdropper SNR s, with the batch plan's alpha and beta.  This module
computes that integral from the distribution functions themselves, with
none of the series algebra used by the closed forms, so the two routes can
cross-validate each other.  It does share the closed forms' case rule
(``analytic.case_sop``): quadrature supplies only the inner quantity
E_s[((1 - w) + w P(M, u))^L], so the Monte Carlo route and the test oracles
are the independent checks of how the four (scheme, scenario) cases are
composed.

Each row maps the half line to (0, 1) through s = N t / (1 - t), N its
eavesdropper path count, so the mean N of the unit Gamma(N) law sits at
t = 1/2 and the first level's uniform panels cover its bulk.  The integrator
is adaptive interval halving with an embedded higher-order rule (15-point
Kronrod extension of 7-point Gauss), refined a level at a time: every panel
above its share of the tolerance is halved, all in one vectorised call,
until the global estimate meets tolerance.  Many integrals refine as rows
of one stack (``quadrature_sops``), one row per distinct inner quantity of
the batch: each row keeps its own budget and panels, leaves when it
converges, and every level evaluates the panels of all remaining rows
together.  A level calls the destination CDF once per M, on the distinct
(alpha, beta, node) points of its rows, and the eavesdropper density once
per N, on its rows' distinct panels; rows that differ only in the case
rule's (L, w) share those values, and each row applies its own law to them.
A row whose destination law bends inside the first uniform panel gets an
extra first-level edge at the bend.  The first level's panel count and the
panel budget, ``INITIAL_SUBDIVISIONS`` and ``MAX_PANELS``, and the one
tolerance, ``REL_TOL``, are module constants.  It is relative alone: a row
converges at ``REL_TOL`` times its own magnitude, however small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import CasePlan, EvalMethod, SopQuery, case_sop
from .channel import GammaSnr, snr_cdf, snr_pdf

__all__ = [
    "Integrand",
    "QuadratureConvergenceError",
    "adaptive_integral",
    "build_integrand",
    "quadrature_inner",
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

# Panels of the first level, the most panels one integral may evaluate, and the
# outage integrals' relative tolerance (``adaptive_integral``'s default), read at call time.
INITIAL_SUBDIVISIONS = 8
MAX_PANELS = 4096
REL_TOL = 1e-10


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
    """Kronrod values and QUADPACK's error estimates of panels [lo_i, hi_i], one call.

    A panel's estimate is resasc min(1, (200 |K - G| / resasc)^1.5), where
    resasc is the Kronrod rule's integral of |f - mean f| over the panel
    (Piessens et al., 1983, QK15), so it scales with the integrand: a panel
    of size 1e-28 is judged as one of size 1.  A panel whose integrand the
    rule sees as constant (resasc = 0) keeps |K - G|.  ``einsum`` sums each
    panel's 15 products on their own, for both rules in one call, so a
    panel's numbers do not depend on which other panels share the call (a
    BLAS product's can, by an ulp).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = evaluate(rows, mid[:, None] + half[:, None] * _NODES)
    sum_k, sum_g = np.einsum("ij,kj->ki", fx, _WEIGHTS)
    resasc = half * np.einsum("ij,j->i", np.abs(fx - 0.5 * sum_k[:, None]), _WEIGHTS_K)
    value_k = half * sum_k
    diff = np.abs(value_k - half * sum_g)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    return value_k, np.where(resasc > 0.0, scaled, diff)


def _stacked_integrals(
    evaluate: Callable,
    n_rows: int,
    hi: float,
    rel_tol: float,
    breaks: np.ndarray,
) -> list:
    """Adaptive integrals of ``n_rows`` integrands over [0, hi], refined level by level together.

    ``evaluate(rows, x)`` returns the integrand values at the (P, 15) node
    array ``x``, whose panel i belongs to row ``rows[i]``; it is called once
    per level for every row still refining.  ``breaks`` holds each row's
    extra first-level edges inside (0, hi), padded with NaN; it may have
    no columns.  Each row follows ``adaptive_integral``'s rule with its own
    first level, tolerance and budget, extra panels included, and leaves
    when it converges or runs out of budget.  Panels stay in evaluation order, tagged with their row,
    and per-row sums come from ``np.bincount``; it adds a row's panels in
    the order of its one-row call (kept panels, then left halves, then right
    halves), so the row's value and panel count are those of that call.
    Returns one float or one ``QuadratureConvergenceError`` per row.
    """
    edges = np.linspace(0.0, hi, INITIAL_SUBDIVISIONS + 1)
    # the panels as the columns (lo, hi, value, error estimate) of one array,
    # each tagged with its row in ``seg``; ``active`` marks the rows still
    # refining.  Array methods stand in for their numpy functions: a lone
    # row's level is a few dozen calls on tiny arrays.
    # NaN pads sort last, so each row's edges run in order, then its pads
    bounds = np.sort(np.hstack((np.broadcast_to(edges, (n_rows, edges.size)), breaks)), axis=1)
    real = ~np.isnan(bounds[:, 1:])
    evaluated = real.sum(axis=1)
    panels = np.empty((4, evaluated.sum()))
    panels[0], panels[1] = bounds[:, :-1][real], bounds[:, 1:][real]
    seg = np.arange(n_rows).repeat(evaluated)
    panels[2:] = _panels(evaluate, seg, panels[0], panels[1])
    results: list = [None] * n_rows
    active = np.ones(n_rows, dtype=bool)
    while True:
        p_lo, p_hi, values, errs = panels
        totals = np.bincount(seg, values, n_rows)
        total_errs = np.bincount(seg, errs, n_rows)
        tols = rel_tol * abs(totals)
        rooms = (MAX_PANELS - evaluated) // 2
        done = total_errs <= tols
        leaving = active & (done | (rooms < 1))
        for i in leaving.nonzero()[0]:
            total = float(totals[i])
            results[i] = total if done[i] else QuadratureConvergenceError(
                total, float(total_errs[i]), float(tols[i])
            )
        active &= ~leaving
        if not active.any():
            return results
        live = active[seg]
        split = live & (errs > tols[seg] * (p_hi - p_lo) / hi)
        counts = np.bincount(seg[split], minlength=n_rows)
        for i in (active & ((counts > rooms) | (counts == 0))).nonzero()[0]:
            own = (seg == i).nonzero()[0]
            if counts[i]:  # the budget fits the `room` worst of them
                split[own[np.where(split[own], errs[own], -1.0).argsort()[: -rooms[i]]]] = False
                counts[i] = rooms[i]
            else:
                split[own[errs[own].argmax()]] = True
                counts[i] = 1
        keep = live & ~split
        s_seg, s_lo, s_hi = seg[split], p_lo[split], p_hi[split]
        mid = 0.5 * (s_lo + s_hi)
        c_seg = np.concatenate((s_seg, s_seg))
        c_lo, c_hi = np.concatenate((s_lo, mid)), np.concatenate((mid, s_hi))
        c_val, c_err = _panels(evaluate, c_seg, c_lo, c_hi)
        panels = np.concatenate((panels[:, keep], (c_lo, c_hi, c_val, c_err)), axis=1)
        seg = np.concatenate((seg[keep], c_seg))
        evaluated += 2 * counts


def adaptive_integral(f: Callable, hi: float = 1.0, rel_tol: float = REL_TOL) -> float:
    """Adaptive Gauss-Kronrod integral of a vectorized integrand over [0, hi].

    ``f`` receives one array of nodes per refinement level.  Every panel
    whose error estimate exceeds its width's share of the tolerance is
    halved (the worst one if none does), and only the halves are evaluated
    anew.  The tolerance is ``rel_tol * |integral|``, with no absolute
    part: an integral that is exactly 0 converges only once every panel's
    two rules agree exactly.  Refinement never takes the evaluated panels,
    the first level's included, past ``MAX_PANELS``; if that budget is spent
    first, ``QuadratureConvergenceError`` carries the achieved estimate.
    This is the one-row case of the row-stacked integrator.
    """
    (result,) = _stacked_integrals(lambda rows, x: f(x), 1, hi, rel_tol, np.empty((1, 0)))
    if isinstance(result, QuadratureConvergenceError):
        raise result
    return result


@dataclass(frozen=True)
class Integrand:
    """The unit-scale laws of a query's outage integral.

    ``destination_cdf(u)`` is the single-link Gamma(M) CDF P(M, u) at
    destination SNR u * a_d, and ``eavesdropper_pdf`` is the Gamma(N)
    density at scale 1.  Each row applies its own (L, w) law to the CDF.
    """

    destination_cdf: Callable
    eavesdropper_pdf: Callable


def build_integrand(query: SopQuery) -> Integrand:
    """Assemble the unit-scale laws of a query from raw distribution functions.

    The destination CDF depends on M alone and the density on N alone; the
    backhaul mixture and the power of the case rule's (L, w) are applied per row.
    """
    dest = GammaSnr(query.cfg.M, 1.0)
    eave = GammaSnr(query.cfg.N, 1.0)
    return Integrand(destination_cdf=lambda u: snr_cdf(dest, u), eavesdropper_pdf=lambda v: snr_pdf(eave, v))


def _distinct(*keys):
    """The index of one element per distinct key tuple, and each element's position among those.

    Keys are ordered as for ``np.lexsort``: the last one is the primary one.
    """
    order = np.lexsort(keys)
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    new[1:] = np.logical_or.reduce([key[order[1:]] != key[order[:-1]] for key in keys])
    where = np.empty(order.size, dtype=np.intp)
    where[order] = new.cumsum() - 1
    return order[new], where


def _members(of: np.ndarray, rows: np.ndarray, value: int, count: int):
    """The panels whose row's entry of ``of`` is ``value``; every panel when ``of`` holds ``count`` = 1 value."""
    return (of[rows] == value).nonzero()[0] if count > 1 else slice(None)


def _half_line(t, N):
    """The unit eavesdropper SNR s = N t / (1 - t) at nodes t of (0, 1), and dt/ds = (1 - t)^2 / N.

    The map puts the Gamma(N) law's mean N at t = 1/2; its inverse is
    t = s / (N + s).  At N = 1 it is s = t / (1 - t) to the bit.
    """
    gap = 1.0 - t
    return N * t / gap, gap**2 / N


def _boundary_expectations(plan: CasePlan) -> list[float]:
    """E_s[((1 - w) + w P(M, alpha + beta s))^L] of every distinct key of ``plan``, as one row-stacked integral.

    Each distinct inner key (M, N, beta, alpha, L, w) of ``plan.groups`` is
    one row, however many cells read it, at its law point (alpha, beta).
    The rows sharing M share one destination CDF and the rows sharing N one
    eavesdropper density, each from ``build_integrand`` (called with the
    first cell of a group that brings a new M or N), looked up at call time.
    Each level calls an M's CDF once, on the distinct (alpha, beta, node)
    points of its rows, and an N's density once, on its rows' distinct
    panels: rows that differ only in (L, w) share a panel's law values until
    their refinements part.  One elementwise expression then applies each
    panel's ((1 - w) + w P)^L, with its row's w and L, and the density
    multiplies every panel once after, so every value is that of the row's
    ``quadrature_sop``.  Every node t reads s = N t / (1 - t) and the
    Jacobian N / (1 - t)^2 (``_half_line``), so the CDF's points are
    distinct in (alpha, beta, N, node).  P(M, u) bends at u_b in {M/10, M,
    10 M + 10}, so at t_b = s_b / (N + s_b), s_b = (u_b - alpha) / beta; a
    t_b inside the first uniform panel (s_b < N / 7), where a narrow bend
    can fall between the first level's nodes, is an extra edge of the row's
    first level.
    """
    cdfs: dict[int, Callable] = {}  # per M
    pdfs: dict[int, Callable] = {}  # per N
    points: dict[tuple, int] = {}  # per law point (alpha, beta): its index
    of = [None] * len(plan.first)  # per row: its M, its N, its law point's index and its L
    weight_of = np.empty(len(plan.first))  # per row: its w
    for (M, N, beta, power, weight), (ats, alphas) in plan.groups.items():
        if M not in cdfs or N not in pdfs:
            integrand = build_integrand(SopQuery(*plan.cells[plan.first[ats[0]]]))
            cdfs.setdefault(M, integrand.destination_cdf)
            pdfs.setdefault(N, integrand.eavesdropper_pdf)
        weight_of[ats] = weight
        for at, alpha in zip(ats, alphas):
            of[at] = (M, N, points.setdefault((alpha, beta), len(points)), power)
    m_of, n_of, point_of, power_of = np.array(of, dtype=np.intp).T
    alpha, beta = np.array(list(points)).T.copy()

    s_b = (np.array((m_of / 10, m_of, 10 * m_of + 10)) - alpha[point_of]) / beta[point_of]
    t_b = s_b / (n_of + np.abs(s_b))  # _half_line's inverse where s_b > 0, and not positive elsewhere
    inside = (t_b > 0.0) & (t_b < 1.0 / INITIAL_SUBDIVISIONS)
    breaks = np.where(inside, t_b, np.nan).T

    def evaluate(rows, t):
        # a panel is known by its first and last node, which fix its ends
        first, last = t[:, 0], t[:, -1]
        fx = np.empty_like(t)
        for M, cdf in cdfs.items():
            at = _members(m_of, rows, M, len(cdfs))
            point, n = point_of[rows[at]], n_of[rows[at]]
            if point.size:
                pick, where = _distinct(last[at], first[at], n, point)
                p, (s, _) = point[pick, None], _half_line(t[at][pick], n[pick, None])
                fx[at] = cdf(alpha[p] + beta[p] * s)[where]
        density = np.empty_like(t)
        for N, pdf in pdfs.items():
            at = _members(n_of, rows, N, len(pdfs))
            t_n = t[at]
            if t_n.size:
                pick, where = _distinct(last[at], first[at])
                s, dt_ds = _half_line(t_n[pick], N)
                density[at] = (pdf(s) / dt_ds)[where]
        weight = weight_of[rows, None]
        fx = ((1.0 - weight) + weight * fx) ** power_of[rows, None]
        fx *= density
        return fx

    results = _stacked_integrals(evaluate, len(plan.first), 1.0, REL_TOL, breaks)
    for result in results:
        if isinstance(result, QuadratureConvergenceError):
            raise result
    return results


def quadrature_inner(plan: CasePlan) -> tuple[list[float], list[int]]:
    """The boundary expectation of every distinct key of ``plan``, one stacked row each; never flagged."""
    values = _boundary_expectations(plan)
    return values, [0] * len(values)


def quadrature_sops(queries) -> list[float]:
    """Outage probabilities of many queries by one row-stacked quadrature.

    Each distinct inner quantity (M, N, beta, alpha, L, w) is one row,
    however many queries read it; a query over dead backhaul reads none.
    All rows refine together, each to ``REL_TOL`` of its own magnitude by
    ``adaptive_integral``'s rule, so a small outage keeps its relative
    accuracy, and every value equals that query's ``quadrature_sop``.
    """
    return case_sop(CasePlan.of(queries), quadrature_inner, EvalMethod.QUADRATURE)[0]


def quadrature_sop(query: SopQuery) -> float:
    """Outage probability by direct quadrature of the defining integral.

    The value passes the closed forms' integrity check: NaN, or a value
    outside [0, 1] by more than ``INTEGRITY_BAND``, raises
    ``NumericalIntegrityError``; otherwise it is clamped to [0, 1].
    """
    return quadrature_sops([query])[0]
