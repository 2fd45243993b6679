"""Closed-form and high-SNR secrecy outage probabilities.

Secrecy outage means the instantaneous ratio (1 + gamma_d) / (1 + gamma_e)
of the selected link falls below rho = 2**r_th.  Four cases are covered,
from the two selection rules (``ss`` picks the strongest destination SNR,
``os`` picks the best secrecy ratio) crossed with the two backhaul
knowledge scenarios (``ku`` selects blindly across all K transmitters,
``ka`` selects only within the active set).

The expressions expand a K-fold CDF product binomially, read each CDF power
k off the cached coefficient table of (sum_{m<M} x^m / m!)^k
(``numerics.log_power_coefficients``), and integrate term by term against
the eavesdropper density.  One kernel per route serves every case: the
exact series and its high-SNR floor, each behind one public entry
(``analytic_sop``, ``asymptotic_sop``).  One case rule (``case_sop``)
composes the four (scheme, scenario) cases from either kernel, or from
quadrature's integral.
Every per-term product is assembled in log space and exponentiated once; only the top-level
alternating sum over the binomial index runs in linear space, exactly rounded
(``math.fsum``) and behind a loss-of-significance guard.  Results outside [0, 1] by more than a 1e-9
round-off band raise ``NumericalIntegrityError`` rather than being clamped,
so formula bugs cannot hide behind clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from scipy.special import gammaln

from .channel import SystemConfig
from .numerics import log_power_coefficients, significance_lost

__all__ = [
    "CASES",
    "NumericalIntegrityError",
    "Scenario",
    "Scheme",
    "SopQuery",
    "SopValue",
    "analytic_sop",
    "asymptotic_sop",
    "case_sop",
    "inner_args",
    "reads_inner",
]

# Round-off tolerance band for the integrity check; values further outside
# [0, 1] than this indicate a formula or assembly bug, not round-off.
INTEGRITY_BAND = 1e-9

METHOD_ANALYTIC = "analytic"
METHOD_ASYMPTOTIC = "asymptotic"


class Scheme(str, Enum):
    """Transmitter selection rule."""

    SS = "ss"  # strongest destination SNR
    OS = "os"  # best secrecy ratio


class Scenario(str, Enum):
    """Backhaul knowledge available to the selector."""

    KU = "ku"  # backhaul states unknown, selection over all K
    KA = "ka"  # selection restricted to the active set


class NumericalIntegrityError(ArithmeticError):
    """A probability came out of assembly too far outside [0, 1]."""


# The four (scheme, scenario) cases, in the order reports list them.
CASES = tuple((scheme, scenario) for scheme in Scheme for scenario in Scenario)


@dataclass(frozen=True)
class SopQuery:
    """One outage-probability question: operating point plus case selection.

    Scheme and scenario strings become the enums; unknown ones raise ``ValueError``.
    """

    cfg: SystemConfig
    scheme: Scheme
    scenario: Scenario

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "scenario", Scenario(self.scenario))


@dataclass(frozen=True)
class SopValue:
    """Evaluated outage probability.

    ``value`` is clamped to [0, 1]; ``raw_value`` keeps the pre-clamp number
    for diagnostics.  ``significance_flag`` is set when the alternating-sum
    cancellation guard fired, in which case ``value`` is bounded but not
    trustworthy to full precision.
    """

    value: float
    method: str
    significance_flag: bool
    raw_value: float


def _finalize(raw: float, flag: bool, method: str) -> SopValue:
    if not flag:
        # NaN fails this check too and is reported rather than clamped.
        if not (-INTEGRITY_BAND <= raw <= 1.0 + INTEGRITY_BAND):
            raise NumericalIntegrityError(
                f"{method} outage probability {raw!r} leaves [0, 1] by more than {INTEGRITY_BAND}"
            )
    return SopValue(
        value=min(max(raw, 0.0), 1.0),
        method=method,
        significance_flag=flag,
        raw_value=raw,
    )


def inner_args(query: SopQuery) -> tuple[int, float]:
    """(L, w) of the inner quantity ``case_sop`` asks for."""
    cfg = query.cfg
    return (
        cfg.K if query.scheme is Scheme.SS else 1,
        cfg.zeta if query.scenario is Scenario.KA else 1.0,
    )


def reads_inner(query: SopQuery) -> bool:
    """False over dead backhaul, an outage that ``case_sop`` evaluates nothing for."""
    return query.cfg.zeta > 0.0


def case_sop(query: SopQuery, inner, method: str) -> SopValue:
    """The case rule: one (scheme, scenario) outage from its inner quantity.

    ``inner(L, w) -> (raw, flag)`` evaluates x = E_y[((1 - w) + w F_d(lambda(y)))^L]
    with lambda(y) = (1 + y) rho - 1.  Per case:

        case   (L, w)     outage                 because
        ss/ku  (K, 1)     (1 - zeta) + zeta x    the strongest link may turn out silenced
        ss/ka  (K, zeta)  x                      zeta weights each factor of the K-fold CDF
                                                 product; an empty active set is the point
                                                 mass at zero, so no outer floor term
        os/ku  (1, 1)     (1 - zeta) + zeta x^K  the K secrecy outcomes are independent, so
                                                 a live pick fails only when all K fail
        os/ka  (1, zeta)  x^K                    each link is silenced or fails secrecy on
                                                 its own; all-silenced gives (1 - zeta)^K

    Strongest-destination selection powers the CDF inside the eavesdropper
    integral; best-ratio selection powers the single-link value outside it,
    after its integrity check.  Dead backhaul (zeta = 0) silences every
    link: an outage in every case, without evaluating anything.  At K = 1
    and zeta = 1 every case returns the single-transmitter outage x itself.
    """
    cfg = query.cfg
    if not reads_inner(query):
        return _finalize(1.0, False, method)
    blind = query.scenario is Scenario.KU
    raw, flag = inner(*inner_args(query))
    if query.scheme is Scheme.OS:
        raw = _finalize(raw, flag, method).value ** cfg.K
    if blind:
        raw = (1.0 - cfg.zeta) + cfg.zeta * raw
    return _finalize(raw, flag, method)


def _alternating_series(K, weight, magnitude):
    """1 + sum_{k=1..K} (-1)^k magnitude(k, ln(C(K,k) weight^k)): the K-fold product.

    ``weight`` is 1 for the blind-selection series and zeta > 0 when the
    backhaul mixture sits inside each factor.  ``magnitude`` returns the
    positive size of term k with the given log prefactor folded in before
    exponentiation.  Returns (raw, flag).
    """
    log_weight = math.log(weight)
    terms = [1.0]
    for k in range(1, K + 1):
        term = magnitude(k, math.log(math.comb(K, k)) + k * log_weight)
        terms.append(-term if k % 2 else term)
    total = math.fsum(terms)
    return total, significance_lost(total, max(abs(t) for t in terms))


def _log_boundary_kernel(size: int, rho: float) -> np.ndarray:
    """ln[C(j, q) (rho - 1)^(j - q)] for 0 <= j, q < size; -inf where q > j."""
    j = np.arange(size)
    gap = j[:, None] - j[None, :]
    if rho == 1.0:
        # the outage boundary is lambda = y, so only the q == j power
        # survives (0**0 = 1 convention at r_th = 0)
        return np.where(gap == 0, 0.0, -np.inf)
    log_fact = gammaln(j + 1)
    kept = np.maximum(gap, 0)
    log_terms = (
        log_fact[:, None] - log_fact[None, :] - log_fact[kept] + kept * math.log(rho - 1.0)
    )
    return np.where(gap >= 0, log_terms, -np.inf)


def _selection_series(cfg: SystemConfig, K: int, weight: float):
    """Exact CDF-product series of the strongest of K links at the outage boundary.

    Term k expands the k-th CDF power through ``log_power_coefficients``
    (power j of the destination SNR) and the boundary power through the
    inner index q <= j, then integrates against the eavesdropper density.
    It is the inner quantity of ``case_sop`` at (L, w) = (K, weight); with
    K = 1 and weight 1 it is the single-transmitter outage.
    """
    M, N, a_d, rho = cfg.M, cfg.N, cfg.a_d, cfg.rho
    j = np.arange(K * (M - 1) + 1)
    boundary = _log_boundary_kernel(j.size, rho)
    log_eve = j * math.log(rho) + gammaln(N + j) - math.lgamma(N) - N * math.log(cfg.a_e)

    def magnitude(k, log_pref):
        n = k * (M - 1) + 1
        log_denom = math.log(k * rho / a_d + 1.0 / cfg.a_e)
        rows = log_pref - k * (rho - 1.0) / a_d + log_power_coefficients(k, M) - j[:n] * math.log(a_d)
        cols = log_eve[:n] - (N + j[:n]) * log_denom
        return float(np.exp(rows[:, None] + boundary[:n, :n] + cols).sum())

    return _alternating_series(K, weight, magnitude)


def _selection_floor_series(cfg: SystemConfig, K: int, weight: float):
    """High-SNR limit of ``_selection_series``; depends only on a, b, rho, M, N."""
    M, N, a, rho_b = cfg.M, cfg.N, cfg.a, cfg.rho * cfg.b
    j = np.arange(K * (M - 1) + 1)
    log_j = j * math.log(rho_b) + gammaln(N + j) + N * math.log(a) - math.lgamma(N)

    def magnitude(k, log_pref):
        n = k * (M - 1) + 1
        log_terms = (
            log_pref
            + log_power_coefficients(k, M)
            + log_j[:n]
            - (N + j[:n]) * math.log(k * rho_b + a)
        )
        return float(np.exp(log_terms).sum())

    return _alternating_series(K, weight, magnitude)


# ---------------------------------------------------------------------------
# public closed forms and high-SNR floors
# ---------------------------------------------------------------------------

def analytic_sop(query: SopQuery) -> SopValue:
    """Exact outage probability of any of the four cases."""
    return case_sop(query, partial(_selection_series, query.cfg), METHOD_ANALYTIC)


def asymptotic_sop(query: SopQuery) -> SopValue:
    """High-SNR outage floor of any of the four cases.

    Independent of snr: both link scales grow together, leaving the ratio
    law a/b and the threshold rho in control.
    """
    return case_sop(query, partial(_selection_floor_series, query.cfg), METHOD_ASYMPTOTIC)
