"""Closed-form and high-SNR secrecy outage probabilities.

Secrecy outage means the instantaneous ratio (1 + gamma_d) / (1 + gamma_e)
of the selected link falls below rho = 2**r_th.  Four cases are covered,
from the two selection rules (``ss`` picks the strongest destination SNR,
``os`` picks the best secrecy ratio) crossed with the two backhaul
knowledge scenarios (``ku`` selects blindly across all K transmitters,
``ka`` selects only within the active set).

The expressions expand a K-fold CDF product binomially, write each CDF
power k through a polynomial power p_alpha^k whose one SNR-dependent number
is alpha = (rho - 1) / a_d, and integrate term by term against the
eavesdropper density.  One kernel serves every case and both routes: the
exact series at one alpha per SNR point, and the high-SNR floor as its
alpha = 0 case, both building their powers by one per-point log-space
convolution (``_log_powers``), each behind one batch entry
(``analytic_sops``, ``asymptotic_sops``) whose one-query call is the lone
entry (``analytic_sop``, ``asymptotic_sop``).  A batch is planned once
(``CasePlan``), the one place that computes alpha and beta = rho b / a, so
each distinct inner quantity is evaluated once: the series once per group
of keys that differ only in alpha.  At r_th = 0 alpha is 0 at every SNR, so
a sweep's points share one key per case.  One case rule (``case_sop``)
composes the four (scheme, scenario) cases from either route, or from
quadrature's integral, once per query.

Every per-term product is assembled in log space (factorials from
``log_factorials``, power series multiplied by ``_log_convolve``) and
exponentiated once per term; only the top-level alternating sum over the
binomial index runs in linear space, exactly rounded (``math.fsum``), and
``significance_lost`` flags a sum that cancelled far below its largest term
instead of returning quiet noise.  Results outside [0, 1] by more than a
1e-9 round-off band raise ``NumericalIntegrityError`` rather than being
clamped, so formula bugs cannot hide behind clamping.
``enumerate_weak_compositions`` lists the multinomial expansion of p_0^k
that the power rows replaced; no route or check reads it, and the
benchmark times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np

from .channel import SystemConfig

__all__ = [
    "CASES",
    "CasePlan",
    "CompositionCapError",
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
    "enumerate_weak_compositions",
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
    [0, 1].  ``significance_flag`` is set when the alternating-sum cancellation
    guard fired, in which case ``value`` is bounded but not trustworthy to
    full precision.
    """

    value: float
    method: EvalMethod
    significance_flag: bool


def _integrity_error(raw: float, method: EvalMethod) -> NumericalIntegrityError:
    return NumericalIntegrityError(
        f"{method.value} outage probability {raw!r} leaves [0, 1] by more than {INTEGRITY_BAND}"
    )


class CasePlan:
    """A batch's case rule, planned once: each cell's distinct inner key and its outer step.

    ``cells`` are (cfg, scheme, scenario) triples with the enums, as in a
    ``SopQuery``.  A cell's link enters its inner quantity only through the
    unit-scale outage boundary alpha + beta s, with alpha = (rho - 1) / a_d
    and beta = rho b / a, computed here and nowhere else.  Its key is
    (M, N, beta, alpha, L, w), with (L, w) its column of ``case_sop``'s
    table.  ``groups``, the only store of keys, maps each (M, N, beta, L, w)
    to (the indices of its keys, their alphas); keys are numbered in order
    of first use, and ``first`` holds, per key, its first cell's position.
    ``rows`` holds, per cell, (the index of its key, the outer power K under
    best-ratio selection or 0, zeta under blind selection or None); a cell
    over dead backhaul (zeta = 0) reads no key and has index -1.  Cells that
    differ only where the inner quantity does not look (K and scheme under
    best-ratio selection, zeta under blind selection, the scenario at
    zeta = 1, snr at r_th = 0, where alpha is 0) share a key.  A config
    whose beta underflows to 0 or overflows, or whose alpha overflows,
    raises ``ValueError``, as a link scale out of the float range does.
    """

    __slots__ = ("cells", "first", "rows", "groups")

    def __init__(self, cells):
        cells, first, rows, groups = list(cells), [], [], {}
        self.cells, self.first, self.rows, self.groups = cells, first, rows, groups
        index: dict[tuple, int] = {}
        ss, ku, dead = Scheme.SS, Scenario.KU, (-1, 0, None)
        last = None
        for position, (cfg, scheme, scenario) in enumerate(cells):
            if cfg is not last:  # a grid point's cells share its config
                last, K, zeta, rho = cfg, cfg.K, cfg.zeta, cfg.rho
                link, alpha = (cfg.M, cfg.N, rho * cfg.b / cfg.a), (rho - 1.0) / (cfg.a * cfg.snr)
                if not (0.0 < link[2] < math.inf and alpha < math.inf):
                    raise ValueError(f"outage boundary alpha={alpha!r}, beta={link[2]!r} must be finite, beta > 0")
            if not zeta > 0.0:
                rows.append(dead)
                continue
            law = (K if scheme is ss else 1, 1.0 if scenario is ku else zeta)
            at = index.setdefault((*link, alpha, *law), len(first))
            if at == len(first):
                first.append(position)
                ats, alphas = groups.setdefault((*link, *law), ([], []))
                ats.append(at)
                alphas.append(alpha)
            rows.append((at, 0 if scheme is ss else K, zeta if scenario is ku else None))

    @classmethod
    def of(cls, queries) -> "CasePlan":
        """The plan of a list of ``SopQuery``."""
        return cls([(query.cfg, query.scheme, query.scenario) for query in queries])


def case_sop(plan: CasePlan, inner, method: EvalMethod) -> tuple[list[float], list[bool]]:
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
    Returns the clamped outages and their flags, per cell.
    """
    method = EvalMethod(method)
    raws, flags = inner(plan) if plan.first else ((), ())
    low, high = -INTEGRITY_BAND, 1.0 + INTEGRITY_BAND
    # the inner value is checked before composing: a blind-selection mix
    # (1 - zeta) + zeta x can land in band from an x far outside it
    for raw, flag in zip(raws, flags):
        if not (flag or low <= raw <= high):
            raise _integrity_error(raw, method)
    values, cell_flags = [], []
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
    return values, cell_flags


# ---------------------------------------------------------------------------
# series kernels: log-space power series and the cancellation guard
# ---------------------------------------------------------------------------

# |sum| / max|term| below this ratio means the cancellation ate more than
# roughly 50 bits of the terms; callers surface that as a significance flag.
SIGNIFICANCE_LOSS_RATIO = 1e-10


def significance_lost(total: float, largest: float) -> bool:
    """True when an alternating sum cancelled below the trust threshold."""
    return largest > 0.0 and abs(total) < SIGNIFICANCE_LOSS_RATIO * largest


def _log_convolve(log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """ln of the coefficients of the product of two positive power series, along the last axis.

    ``log_q``'s leading axes broadcast against ``log_p``'s, so one call
    serves one row or a row per point, each entry with the same arithmetic.
    Each shift adds in through ``np.logaddexp``, so nothing cancels.
    """
    span = log_p.shape[-1]
    out = np.full((*log_p.shape[:-1], span + log_q.shape[-1] - 1), -np.inf)
    for m in range(log_q.shape[-1]):
        window = out[..., m : m + span]
        np.logaddexp(window, log_p + log_q[..., m, None], out=window)
    return out


@lru_cache(maxsize=None)
def log_factorials(count: int) -> np.ndarray:
    """ln j! for j = 0 .. count - 1, each the logarithm of the exact integer j!.

    Cached and read-only.
    """
    out = np.empty(count)
    factorial = 1
    for j in range(count):
        factorial *= max(j, 1)
        out[j] = math.log(factorial)
    out.flags.writeable = False
    return out


def _log_powers(M: int, K: int, alphas):
    """ln [x^q] p_alpha(x)^k at every alpha, for k = 1 .. K in turn: one (points, k (M - 1) + 1) array each.

    p_alpha(x) = sum_{q<M} Pois_cdf(M - 1 - q; alpha) x^q / q!, so e^-x
    p_alpha(x) is the unit-scale Gamma(M) survival function at alpha + x.
    Each power is the last convolved with p_alpha.  At alpha = 0 the base is
    -ln q!, so p_0 is the truncated exponential sum_{q<M} x^q / q! and the
    floor's rows are its powers, the same numbers beside any other alpha.
    """
    log_fact = log_factorials(M)
    # ln alpha^i / i!, accumulated into ln Pois_cdf(n; alpha) for n < M
    log_alpha = np.array([[math.log(x) if x > 0.0 else -math.inf] for x in alphas])
    terms = np.zeros((len(alphas), M))
    terms[:, 1:] = np.arange(1, M) * log_alpha - log_fact[1:]
    log_cdf = np.logaddexp.accumulate(terms, axis=1) - np.array(alphas)[:, None]
    base = log_cdf[:, ::-1] - log_fact
    power = base
    for k in range(1, K + 1):
        yield power
        if k < K:
            power = _log_convolve(power, base)


# Largest points x (K(M - 1) + 1) coefficients in one slab's power arrays
# (0.5 MiB each); a figure preset's 26 points fit in one even at K=200 M=10.
_SLAB_FLOATS = 1 << 16


def _selection_series(M: int, N: int, beta: float, K: int, weight: float, alphas):
    """CDF-product series of the strongest of K links at the outage boundary, at every alpha.

    The destination survival function at the boundary is Q(alpha + beta s)
    for the unit Gamma(N) eavesdropper SNR s, and Q(alpha + beta s)^k =
    e^(-k beta s) p_alpha(beta s)^k (``_log_powers``), so term k is the
    positive sum

        E Q^k = (1 + k beta)^-N sum_j [x^j] p_alpha^k (N)_j (beta / (1 + k beta))^j,

    assembled in log space with ln(C(K, k) weight^k) for a slab of points at
    once, each point with the numbers of its lone call, and each point's
    1 + sum_k (-1)^k E Q^k is summed exactly rounded behind its own guard.
    The floor is the alpha = 0 case.  It is the inner quantity of
    ``case_sop`` at (L, w) = (K, weight); with K = 1 and weight 1 it is the
    single-transmitter outage.  Returns one (raw, flag) per alpha.
    """
    j = np.arange(K * (M - 1) + 1)
    log_rising = log_factorials(N + j.size - 1)[N - 1 :]  # ln (N + j - 1)!
    log_eve = log_rising - log_rising[0] + j * math.log(beta)  # ln (N)_j beta^j
    log_weight = math.log(weight)
    step = max(1, _SLAB_FLOATS // j.size)
    out = []
    for start in range(0, len(alphas), step):
        slab = alphas[start : start + step]
        table = [[1.0] * len(slab)]  # per k, term k at every point of the slab
        for k, power in enumerate(_log_powers(M, K, slab), 1):
            n = k * (M - 1) + 1
            log_scale = math.log(math.comb(K, k)) + k * log_weight + log_eve[:n] - (N + j[:n]) * math.log1p(k * beta)
            table.append((np.exp(power + log_scale).sum(axis=1) * (-1.0 if k % 2 else 1.0)).tolist())
        for terms in zip(*table):
            total = math.fsum(terms)
            out.append((total, significance_lost(total, max(map(abs, terms)))))
    return out


# ---------------------------------------------------------------------------
# public closed forms and high-SNR floors
# ---------------------------------------------------------------------------

def _grouped_inner(plan: CasePlan, floor: bool) -> tuple[list[float], list[bool]]:
    """(raws, flags) of every distinct key of ``plan``: one series per group, at its alphas or the ``floor``'s 0."""
    raws, flags = [0.0] * len(plan.first), [False] * len(plan.first)
    for (M, N, beta, L, w), (ats, alphas) in plan.groups.items():
        values = _selection_series(M, N, beta, L, w, [0.0] if floor else alphas)
        for at, (raw, flag) in zip(ats, values * (len(ats) // len(values))):
            raws[at], flags[at] = raw, flag
    return raws, flags


def analytic_inner(plan: CasePlan) -> tuple[list[float], list[bool]]:
    """The exact series of every distinct key of ``plan``: one series per group over its alphas."""
    return _grouped_inner(plan, floor=False)


def asymptotic_inner(plan: CasePlan) -> tuple[list[float], list[bool]]:
    """The high-SNR floor of every distinct key of ``plan``: the series at alpha = 0, once per group."""
    return _grouped_inner(plan, floor=True)


def _sop_values(queries, inner, method: EvalMethod) -> list[SopValue]:
    """One ``SopValue`` per query: the case rule over one plan of the batch."""
    values, flags = case_sop(CasePlan.of(queries), inner, method)
    return [SopValue(value, method, flag) for value, flag in zip(values, flags)]


def analytic_sops(queries) -> list[SopValue]:
    """Exact outage probabilities of many queries, in input order.

    Each distinct inner quantity is evaluated once, and the queries of one
    (M, N, beta, L, w) group share one series evaluation over their alphas;
    every value equals that query's ``analytic_sop``.
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


# ---------------------------------------------------------------------------
# the multinomial expansion of p_0^k that the power rows replaced
# ---------------------------------------------------------------------------

DEFAULT_COMPOSITION_CAP = 10_000_000


class CompositionCapError(ValueError):
    """Requested composition enumeration is too large to run."""

    def __init__(self, k: int, num_parts: int, count: int, cap: int):
        self.k = k
        self.num_parts = num_parts
        self.count = count
        self.cap = cap
        super().__init__(
            f"enumerating weak compositions of k={k} into num_parts={num_parts} "
            f"parts would yield {count} terms, above the cap of {cap}"
        )


def enumerate_weak_compositions(k: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all weak compositions of ``k`` into ``num_parts`` ordered parts.

    The order is deterministic: lexicographically decreasing, starting at
    (k, 0, ..., 0) and ending at (0, ..., 0, k).  The expected number of
    compositions C(k + num_parts - 1, num_parts - 1) is checked against
    ``DEFAULT_COMPOSITION_CAP``, read at call time, before any is produced.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    count = math.comb(k + num_parts - 1, num_parts - 1)
    if count > DEFAULT_COMPOSITION_CAP:
        raise CompositionCapError(k, num_parts, count, DEFAULT_COMPOSITION_CAP)
    return _generate_compositions(k, num_parts)


def _generate_compositions(k: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    parts = [0] * num_parts
    parts[0] = k
    while True:
        yield tuple(parts)
        if parts[-1] == k:
            return
        # Move one unit right of the rightmost positive entry before the last
        # slot, folding whatever sits in the last slot back in with it.
        j = num_parts - 2
        while parts[j] == 0:
            j -= 1
        tail = parts[-1]
        parts[-1] = 0
        parts[j] -= 1
        parts[j + 1] = tail + 1
