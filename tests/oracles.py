"""Reference values computed through an independent route, and the one-integral loop.

The helper here evaluates the defining outage integral with scipy's QUADPACK
integrator and scipy.stats distribution objects.  It shares no code with the
library's series expansion or its hand-rolled Gauss-Kronrod rule, so
agreement between the two is evidence, not tautology.  The frozen constants
sprinkled through the test modules were produced by this helper and
spot-checked at 50-digit precision with mpmath before being committed.
``adaptive_integral_loop`` is the plain one-integral refinement loop that the
row-stacked integrator generalises; tests compare the two call by call.
``exact_power_coefficients`` is the truncated-exponential power in exact
rational arithmetic, by integer square-and-multiply.  ``selection_series_mp``
sums the closed form's alternating series in 60-digit ``mpmath``, in linear
space and from the defining expansion, so its gap to the double-precision
series is that series' rounding error alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate, stats

from secrecy_outage import Scenario, Scheme, SystemConfig


def sop_quadpack(cfg: SystemConfig, scheme: Scheme, scenario: Scenario) -> float:
    """Outage probability via scipy.integrate.quad on the boundary integral.

    Maps the half line through y = a_e t / (1 - t) in SNR units, at the
    eavesdropper's mean SNR per path, because QUADPACK misses the tail mass
    on a raw semi-infinite range at high SNR; the library maps the unit SNR
    s = y / a_e through s = N t / (1 - t), at the unit law's mean N, so the
    two rules see different nodes.  Everything else (CDF, PDF, the adaptive
    integrator itself) is scipy's.  Wherever the destination law bends, at
    y with (1 + y) rho - 1 = u_b a_d for u_b in {M/10, M, 10 M + 10},
    QUADPACK gets that t in (0, 1) as a break point: an adaptive rule cannot
    see a bend narrower than the spacing of its first nodes.  The library
    takes only the bends of its first uniform panel, so the oracle's rule is
    the stricter one.
    """
    scheme, scenario = Scheme(scheme), Scenario(scenario)
    rho = cfg.rho
    dest = stats.gamma(a=cfg.M, scale=cfg.a_d)
    eave = stats.gamma(a=cfg.N, scale=cfg.a_e)
    zeta = cfg.zeta

    if scenario is Scenario.KU:
        single_cdf = dest.cdf
    else:
        def single_cdf(x):
            return (1.0 - zeta) + zeta * dest.cdf(x)

    if scheme is Scheme.SS:
        def inner(y):
            return single_cdf((1.0 + y) * rho - 1.0) ** cfg.K
    else:
        def inner(y):
            return single_cdf((1.0 + y) * rho - 1.0)

    scale = cfg.a_e

    def integrand(t):
        y = scale * t / (1.0 - t)
        return inner(y) * eave.pdf(y) * scale / (1.0 - t) ** 2

    alpha, beta = (rho - 1.0) / cfg.a_d, rho * cfg.b / cfg.a
    bends = [(u - alpha) / beta for u in (cfg.M / 10, cfg.M, 10 * cfg.M + 10)]
    points = [t for t in (s / (1.0 + s) for s in bends if s > 0.0) if t < 1.0]
    value, _ = integrate.quad(
        integrand, 0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-13, points=points or None
    )

    if scheme is Scheme.SS:
        if scenario is Scenario.KU:
            return (1.0 - zeta) + zeta * value
        return value
    if scenario is Scenario.KU:
        return (1.0 - zeta) + zeta * value**cfg.K
    return value**cfg.K


def adaptive_integral_loop(f, lo, hi, rel_tol=1e-10, initial_subdivisions=8, max_panels=4096):
    """One integral refined level by level: the rule each row of the stacked integrator follows.

    Every panel whose error estimate exceeds its width's share of the
    tolerance is halved, or the worst panel if none does; a level that would
    take the evaluated panels past ``max_panels`` halves only the worst that
    fit, and an exhausted budget raises ``QuadratureConvergenceError``.
    """
    from secrecy_outage.quadrature import (
        _NODES, _WEIGHTS_G, _WEIGHTS_K, QuadratureConvergenceError,
    )

    def panels(p_lo, p_hi):
        mid, half = 0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)
        fx = f(mid[:, None] + half[:, None] * _NODES)
        value_k = half * (fx @ _WEIGHTS_K)
        diff = np.abs(value_k - half * (fx @ _WEIGHTS_G))
        # QUADPACK's QK15 estimate, resasc * min(1, (200 |K - G| / resasc)^1.5)
        resasc = half * (np.abs(fx - (fx @ _WEIGHTS_K)[:, None] / 2.0) @ _WEIGHTS_K)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
        return value_k, np.where(resasc > 0.0, scaled, diff)

    edges = np.linspace(lo, hi, initial_subdivisions + 1)
    p_lo, p_hi = edges[:-1], edges[1:]
    values, errs = panels(p_lo, p_hi)
    evaluated = initial_subdivisions
    while True:
        total, total_err = float(values.sum()), float(errs.sum())
        tol = rel_tol * abs(total)
        if total_err <= tol:
            return total
        room = (max_panels - evaluated) // 2
        if room < 1:
            raise QuadratureConvergenceError(total, total_err, tol)
        split = errs > tol * (p_hi - p_lo) / (hi - lo)
        if np.count_nonzero(split) > room:
            split[np.argsort(np.where(split, errs, -1.0))[:-room]] = False
        elif not split.any():
            split[np.argmax(errs)] = True
        mid = 0.5 * (p_lo[split] + p_hi[split])
        c_lo, c_hi = np.concatenate((p_lo[split], mid)), np.concatenate((mid, p_hi[split]))
        c_val, c_err = panels(c_lo, c_hi)
        keep = ~split
        p_lo, p_hi = np.concatenate((p_lo[keep], c_lo)), np.concatenate((p_hi[keep], c_hi))
        values, errs = np.concatenate((values[keep], c_val)), np.concatenate((errs[keep], c_err))
        evaluated += c_lo.size


def exact_power_coefficients(k: int, num_terms: int) -> list[Fraction]:
    """[x^j] (sum_{m<num_terms} x^m / m!)^k for j = 0 .. k (num_terms - 1), exactly.

    The base polynomial is scaled by (num_terms - 1)! to integer
    coefficients, raised to the k-th power by repeated squaring in integer
    arithmetic, and divided by (num_terms - 1)!^k at the end.
    """
    scale = math.factorial(num_terms - 1)

    def times(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    base, power, left = [scale // math.factorial(m) for m in range(num_terms)], [1], k
    while left:
        if left & 1:
            power = times(power, base)
        base, left = times(base, base), left >> 1
    return [Fraction(c, scale**k) for c in power]


# The rounding of ``selection_series_mp``'s 60-digit sum, relative to the sum
# of its terms' sizes; a gap below this times that size decides nothing.
ORACLE_DIGITS = 1e-57


def selection_series_mp(M, N, a, b, rho, snr, L, w) -> tuple[float, float]:
    """The inner quantity E_y[((1 - w) + w F_d(lambda(y)))^L] as its alternating series, at 60 digits.

    The arguments are a cell's link (M, N, a, b, rho, snr) and its case
    rule's (L, w), read as exact binary numbers.  With alpha = (rho - 1) /
    (a snr), beta = rho b / a and the unit Gamma(N) eavesdropper SNR s, the
    destination survival function at the boundary is e^(-alpha - beta s)
    sum_{m<M} (alpha + beta s)^m / m!; its k-th power is expanded
    binomially in beta s by polynomial multiplication and integrated term by
    term, E s^j e^(-k beta s) = (N)_j / (1 + k beta)^(N + j).  Returns the sum 1 + sum_k (-1)^k C(L, k)
    w^k E Q^k and the sum of its terms' sizes, both rounded to floats.  The
    sum is only good to ``ORACLE_DIGITS`` times that size: below it the
    value, its sign included, is rounding (-3.1e-61 at a size of 2 for
    M=24 N=8 a=37.597 b=0.051553 r_th=0 at -0.85 dB), so a caller comparing
    at tiny outages bounds the gap it trusts by it.
    """
    with mpmath.workdps(60):
        rho, a, b, snr, w = (mpmath.mpf(x) for x in (rho, a, b, snr, w))
        alpha, beta = (rho - 1) / (a * snr), rho * b / a
        # [x^q] e^-alpha sum_m (alpha + x)^m / m!
        base = [
            mpmath.exp(-alpha) * mpmath.fsum(
                mpmath.binomial(m, q) * alpha ** (m - q) / mpmath.factorial(m) for m in range(q, M)
            )
            for q in range(M)
        ]
        power, terms = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for k in range(1, L + 1):
            product = [mpmath.mpf(0)] * (len(power) + M - 1)
            for i, p in enumerate(power):
                for q, c in enumerate(base):
                    product[i + q] += p * c
            power, spread = product, 1 + k * beta
            expectation = mpmath.fsum(
                c * mpmath.rf(N, j) * (beta / spread) ** j for j, c in enumerate(power)
            ) / spread**N
            terms.append((-1) ** k * mpmath.binomial(L, k) * w**k * expectation)
        return float(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))
