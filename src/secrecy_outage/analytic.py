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
exact series and its high-SNR floor, each behind one batch entry
(``analytic_sops``, ``asymptotic_sops``) whose one-query call is the
lone entry (``analytic_sop``, ``asymptotic_sop``).  A batch is planned
once (``CasePlan``), so each distinct inner quantity is evaluated once: the
exact series once per group of keys that differ only in snr, as one tensor
over the group's SNR points, and the snr-free floor once per group.  One
case rule (``case_sop``) composes the four (scheme, scenario) cases from
either kernel, or from quadrature's integral, once per query.
Every per-term product is assembled in log space, its factorials read from
the exact log-factorial table (``numerics.log_factorials``), and
exponentiated once; only the top-level
alternating sum over the binomial index runs in linear space, exactly rounded
(``math.fsum``) and behind a loss-of-significance guard.  Results outside [0, 1] by more than a 1e-9
round-off band raise ``NumericalIntegrityError`` rather than being clamped,
so formula bugs cannot hide behind clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .channel import SystemConfig
from .numerics import log_factorials, log_power_coefficients, significance_lost

__all__ = [
    "CASES",
    "CasePlan",
    "EvalMethod",
    "NumericalIntegrityError",
    "Scenario",
    "Scheme",
    "SopQuery",
    "SopValue",
    "analytic_inner",
    "analytic_sop",
    "analytic_sops",
    "asymptotic_inner",
    "asymptotic_sop",
    "asymptotic_sops",
    "case_sop",
]

# Round-off tolerance band for the integrity check; values further outside
# [0, 1] than this indicate a formula or assembly bug, not round-off.
INTEGRITY_BAND = 1e-9


class Scheme(str, Enum):
    """Transmitter selection rule."""

    SS = "ss"  # strongest destination SNR
    OS = "os"  # best secrecy ratio


class Scenario(str, Enum):
    """Backhaul knowledge available to the selector."""

    KU = "ku"  # backhaul states unknown, selection over all K
    KA = "ka"  # selection restricted to the active set


class EvalMethod(str, Enum):
    """Evaluation route: closed form, high-SNR floor, Monte Carlo or quadrature."""

    ANALYTIC = "analytic"
    ASYMPTOTIC = "asymptotic"
    MC = "mc"
    QUADRATURE = "quadrature"


class NumericalIntegrityError(ArithmeticError):
    """A probability came out of assembly too far outside [0, 1]."""


# The four (scheme, scenario) cases, in the order reports list them.
CASES = tuple((scheme, scenario) for scheme in Scheme for scenario in Scenario)


@dataclass(frozen=True)
class SopQuery:
    """One outage-probability question: operating point plus case selection.

    Scheme and scenario strings become the enums; unknown ones raise
    ``ValueError``.  Members pass through unparsed.
    """

    cfg: SystemConfig
    scheme: Scheme
    scenario: Scenario

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not isinstance(self.scenario, Scenario):
            object.__setattr__(self, "scenario", Scenario(self.scenario))


@dataclass(frozen=True, slots=True)
class SopValue:
    """Evaluated outage probability.

    ``method`` is the route that produced it.  ``value`` is clamped to
    [0, 1]; ``raw_value`` keeps the pre-clamp number for diagnostics.
    ``significance_flag`` is set when the alternating-sum cancellation
    guard fired, in which case ``value`` is bounded but not trustworthy to
    full precision.
    """

    value: float
    method: EvalMethod
    significance_flag: bool
    raw_value: float


def _integrity_error(raw: float, method: EvalMethod) -> NumericalIntegrityError:
    return NumericalIntegrityError(
        f"{method.value} outage probability {raw!r} leaves [0, 1] by more than {INTEGRITY_BAND}"
    )


class CasePlan:
    """A batch's case rule, planned once: each cell's distinct inner key and its outer step.

    ``cells`` are (cfg, scheme, scenario) triples with the enums, as in a
    ``SopQuery``.  ``keys`` lists the distinct inner keys (M, N, a, b, rho,
    snr, L, w) in order of first use, where (L, w) is the cell's column of
    ``case_sop``'s table; ``first`` holds, per key, the position of the
    first cell that reads it.  ``rows`` holds, per cell, (the index of its
    key, the outer power K under best-ratio selection or 0, zeta under
    blind selection or None); a cell over dead backhaul (zeta = 0) reads
    no key and has index -1.  Cells that differ only where the inner
    quantity does not look (K and scheme under best-ratio selection, zeta
    under blind selection, the scenario at zeta = 1) share a key.
    """

    __slots__ = ("cells", "keys", "first", "rows")

    def __init__(self, cells):
        cells, keys, first, rows = list(cells), [], [], []
        self.cells, self.keys, self.first, self.rows = cells, keys, first, rows
        index: dict[tuple, int] = {}
        ss, ku, dead = Scheme.SS, Scenario.KU, (-1, 0, None)
        last = None
        for position, (cfg, scheme, scenario) in enumerate(cells):
            if cfg is not last:  # a grid point's cells share its config
                last, K, zeta = cfg, cfg.K, cfg.zeta
                head = (cfg.M, cfg.N, cfg.a, cfg.b, cfg.rho, cfg.snr)
            if not zeta > 0.0:
                rows.append(dead)
                continue
            key = (*head, K if scheme is ss else 1, 1.0 if scenario is ku else zeta)
            at = index.setdefault(key, len(keys))
            if at == len(keys):
                keys.append(key)
                first.append(position)
            rows.append((at, 0 if scheme is ss else K, zeta if scenario is ku else None))

    @classmethod
    def of(cls, queries) -> "CasePlan":
        """The plan of a list of ``SopQuery``."""
        return cls([(query.cfg, query.scheme, query.scenario) for query in queries])


def case_sop(plan: CasePlan, inner, method: EvalMethod) -> tuple[list[float], list[bool], list[float]]:
    """The case rule: every cell's (scheme, scenario) outage from its inner quantity, in cell order.

    ``inner(plan)`` returns (raws, flags), one per distinct key of the
    plan: x = E_y[((1 - w) + w F_d(lambda(y)))^L] with lambda(y) = (1 + y)
    rho - 1, and whether its series lost significance.  Per case:

        case   (L, w)     outage                 because
        ss/ku  (K, 1)     (1 - zeta) + zeta x    the strongest link may turn out silenced
        ss/ka  (K, zeta)  x                      zeta weights each factor of the K-fold CDF
                                                 product; an empty active set is the point
                                                 mass at zero, so no outer floor term
        os/ku  (1, 1)     (1 - zeta) + zeta x^K  the K secrecy outcomes are independent, so
                                                 a live pick fails only when all K fail
        os/ka  (1, zeta)  x^K                    each link is silenced or fails secrecy on
                                                 its own; all-silenced gives (1 - zeta)^K

    The plan is built once per batch, so each distinct inner quantity is
    evaluated once however many cells read it, and this composition runs
    once per cell.  Every unflagged inner value passes the integrity check
    before it is composed, and every composed outage passes it again.
    Strongest-destination selection powers the CDF inside the eavesdropper
    integral and composes from the unclamped x; best-ratio selection powers
    the clamped single-link value outside it, with Python's float power
    (``np.power`` can differ from it by an ulp).  Dead backhaul (zeta = 0)
    silences every link: an outage in every case, with no key, and a plan
    without keys never calls ``inner``.  At K = 1 and zeta = 1 every case
    returns the single-transmitter outage x itself.  The composition is one
    pass over plain floats, so a lone cell pays no array set-up, and a
    batch's values equal its cells' lone calls bit for bit.  An unflagged
    NaN or out-of-band value anywhere in the batch raises
    ``NumericalIntegrityError``, named by ``method``, a route or its string.
    Returns the clamped outages, their flags and the unclamped outages, per
    cell.
    """
    method = EvalMethod(method)
    raws, flags = inner(plan) if plan.keys else ((), ())
    low, high = -INTEGRITY_BAND, 1.0 + INTEGRITY_BAND
    # the inner value is checked before composing: a blind-selection mix
    # (1 - zeta) + zeta x can land in band from an x far outside it
    for raw, flag in zip(raws, flags):
        if not (flag or low <= raw <= high):
            raise _integrity_error(raw, method)
    values, cell_flags, cell_raws = [], [], []
    for at, power, zeta in plan.rows:
        if at < 0:
            raw, flag = 1.0, False
        else:
            raw, flag = raws[at], flags[at]
            if power:
                raw = (0.0 if raw < 0.0 else 1.0 if raw > 1.0 else raw) ** power
            if zeta is not None:
                raw = (1.0 - zeta) + zeta * raw
            if not (flag or low <= raw <= high):
                raise _integrity_error(raw, method)
        values.append(0.0 if raw < 0.0 else 1.0 if raw > 1.0 else raw)
        cell_flags.append(flag)
        cell_raws.append(raw)
    return values, cell_flags, cell_raws


def _alternating_series(K, weight, magnitudes):
    """1 + sum_{k=1..K} (-1)^k magnitude(k, ln(C(K,k) weight^k)): the K-fold product, per point.

    ``weight`` is 1 for the blind-selection series and zeta > 0 when the
    backhaul mixture sits inside each factor.  ``magnitudes`` returns the
    positive size of term k at every point, as a list, with the given log
    prefactor folded in before exponentiation.  Each point sums on its own,
    exactly rounded, behind its own guard.  Returns one (raw, flag) per point.
    """
    log_weight = math.log(weight)
    table = [magnitudes(k, math.log(math.comb(K, k)) + k * log_weight) for k in range(1, K + 1)]
    out = []
    for sizes in zip(*table):
        terms = [1.0, *(-size if k % 2 else size for k, size in enumerate(sizes, 1))]
        total = math.fsum(terms)
        out.append((total, significance_lost(total, max(map(abs, terms)))))
    return out


@lru_cache(maxsize=16)
def _log_boundary_kernel(size: int, rho: float) -> np.ndarray:
    """ln[C(j, q) (rho - 1)^(j - q)] for 0 <= j, q < size; -inf where q > j.

    Cached (size**2 floats each, at most 16 kept) and read-only, so lone
    calls at one operating point build it once.
    """
    j = np.arange(size)
    gap = j[:, None] - j[None, :]
    if rho == 1.0:
        # the outage boundary is lambda = y, so only the q == j power
        # survives (0**0 = 1 convention at r_th = 0)
        out = np.where(gap == 0, 0.0, -np.inf)
    else:
        log_fact = log_factorials(size)
        kept = np.maximum(gap, 0)
        log_terms = (
            log_fact[:, None] - log_fact[None, :] - log_fact[kept] + kept * math.log(rho - 1.0)
        )
        out = np.where(gap >= 0, log_terms, -np.inf)
    out.flags.writeable = False
    return out


# Largest number of floats in one exact-series term tensor; points beyond it
# go to further slabs.  A figure preset's 26 points fit in one.
_SLAB_FLOATS = 1 << 20


def _selection_series(M: int, N: int, a: float, b: float, rho: float, K: int, weight: float, snrs):
    """Exact CDF-product series of the strongest of K links at the outage boundary, at every snr.

    Point s has destination and eavesdropper scales a snrs[s] and b snrs[s].
    Term k expands the k-th CDF power through ``log_power_coefficients``
    (power j of the destination SNR) and the boundary power through the
    inner index q <= j, then integrates against the eavesdropper density:
    one (S, n, n) log-space tensor for the S points, on one boundary kernel.
    The per-point scalars are plain float arithmetic, so every point's
    numbers are those of its lone call.  It is the inner quantity of
    ``case_sop`` at (L, w) = (K, weight); with K = 1 and weight 1 it is the
    single-transmitter outage.  Returns one (raw, flag) per point.
    """
    j = np.arange(K * (M - 1) + 1)
    boundary = _log_boundary_kernel(j.size, rho)
    log_rising = log_factorials(N + j.size - 1)[N - 1 :]  # ln (N + j - 1)!
    log_eve_unit = j * math.log(rho) + log_rising - log_rising[0]
    step = max(1, _SLAB_FLOATS // j.size**2)
    out = []
    for start in range(0, len(snrs), step):
        slab = snrs[start : start + step]
        a_d, a_e = [a * snr for snr in slab], [b * snr for snr in slab]
        log_d = np.array([math.log(x) for x in a_d])[:, None]
        log_eve = log_eve_unit - np.array([N * math.log(y) for y in a_e])[:, None]
        # per (k, point): the exponent k (rho - 1) / a_d and ln(k rho / a_d + 1 / a_e)
        ks = range(1, K + 1)
        shift = np.array([k * (rho - 1.0) / x for k in ks for x in a_d]).reshape(K, -1, 1)
        log_denom = np.array(
            [math.log(k * rho / x + 1.0 / y) for k in ks for x, y in zip(a_d, a_e)]
        ).reshape(K, -1, 1)

        def magnitudes(k, log_pref):
            n = k * (M - 1) + 1
            rows = log_pref - shift[k - 1] + log_power_coefficients(k, M) - j[:n] * log_d
            cols = log_eve[:, :n] - (N + j[:n]) * log_denom[k - 1]
            terms = np.exp(rows[:, :, None] + boundary[:n, :n] + cols[:, None, :])
            return terms.sum(axis=(1, 2)).tolist()

        out += _alternating_series(K, weight, magnitudes)
    return out


def _selection_floor_series(M: int, N: int, a: float, b: float, rho: float, K: int, weight: float):
    """High-SNR limit of ``_selection_series``; depends only on a, b, rho, M, N.  Returns (raw, flag)."""
    rho_b = rho * b
    j = np.arange(K * (M - 1) + 1)
    log_rising = log_factorials(N + j.size - 1)[N - 1 :]  # ln (N + j - 1)!
    log_j = j * math.log(rho_b) + log_rising + N * math.log(a) - log_rising[0]

    def magnitudes(k, log_pref):
        n = k * (M - 1) + 1
        log_terms = (
            log_pref
            + log_power_coefficients(k, M)
            + log_j[:n]
            - (N + j[:n]) * math.log(k * rho_b + a)
        )
        return [np.exp(log_terms).sum().item()]

    (result,) = _alternating_series(K, weight, magnitudes)
    return result


# ---------------------------------------------------------------------------
# public closed forms and high-SNR floors
# ---------------------------------------------------------------------------

def _grouped_inner(plan: CasePlan, group_values) -> tuple[list[float], list[bool]]:
    """(raws, flags) of every distinct key of ``plan``, evaluated one group at a time.

    Keys that differ only in snr, sharing (M, N, a, b, rho, L, w), form a
    group; ``group_values(M, N, a, b, rho, L, w, snrs)`` returns one
    (raw, flag) per snr of the group, and the snrs of a group are distinct.
    """
    groups: dict[tuple, tuple[list[int], list[float]]] = {}
    for at, (M, N, a, b, rho, snr, power, weight) in enumerate(plan.keys):
        ats, snrs = groups.setdefault((M, N, a, b, rho, power, weight), ([], []))
        ats.append(at)
        snrs.append(snr)
    raws, flags = [0.0] * len(plan.keys), [False] * len(plan.keys)
    for group, (ats, snrs) in groups.items():
        for at, (raw, flag) in zip(ats, group_values(*group, snrs)):
            raws[at], flags[at] = raw, flag
    return raws, flags


def _floor_values(M, N, a, b, rho, K, weight, snrs):
    """The group's one snr-free floor, at each of its SNR points."""
    return [_selection_floor_series(M, N, a, b, rho, K, weight)] * len(snrs)


def analytic_inner(plan: CasePlan) -> tuple[list[float], list[bool]]:
    """The exact series of every distinct key of ``plan``: one tensor per group over its SNR points."""
    return _grouped_inner(plan, _selection_series)


def asymptotic_inner(plan: CasePlan) -> tuple[list[float], list[bool]]:
    """The high-SNR floor series of every distinct key of ``plan``: one floor per group."""
    return _grouped_inner(plan, _floor_values)


def _sop_values(queries, inner, method: EvalMethod) -> list[SopValue]:
    """One ``SopValue`` per query: the case rule over one plan of the batch."""
    values, flags, raws = case_sop(CasePlan.of(queries), inner, method)
    return [SopValue(value, method, flag, raw) for value, flag, raw in zip(values, flags, raws)]


def analytic_sops(queries) -> list[SopValue]:
    """Exact outage probabilities of many queries, in input order.

    Each distinct inner quantity is evaluated once, and the queries of one
    (M, N, a, b, rho, L, w) group share one series evaluation over their
    SNR points; every value equals that query's ``analytic_sop``.
    """
    return _sop_values(queries, analytic_inner, EvalMethod.ANALYTIC)


def asymptotic_sops(queries) -> list[SopValue]:
    """High-SNR outage floors of many queries, in input order; one floor series per group."""
    return _sop_values(queries, asymptotic_inner, EvalMethod.ASYMPTOTIC)


def analytic_sop(query: SopQuery) -> SopValue:
    """Exact outage probability of any of the four cases."""
    return analytic_sops([query])[0]


def asymptotic_sop(query: SopQuery) -> SopValue:
    """High-SNR outage floor of any of the four cases.

    Independent of snr: both link scales grow together, leaving the ratio
    law a/b and the threshold rho in control.
    """
    return asymptotic_sops([query])[0]
