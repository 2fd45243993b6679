"""Cross-validation harness.

Eight checks compare the evaluation routes (closed form, asymptote,
quadrature, simulation) and assert the structural properties the
model must satisfy: scheme and scenario orderings, outage floors, multipath
and gain monotonicity, algebraic identities, and bit-level simulation
determinism with a simulation variance no larger than binomial.  The CLI
``validate`` subcommand runs all of them.

``ValidationSettings`` holds only what callers vary: the grid, the
simulation budgets, seed and worker counts.  Its class constants, readable
on every instance, are the simulation confidence and the triple-agreement
tolerances.  Every other acceptance tolerance and operating point is a
literal in the one check that uses it; the round-off allowance and the
strict ordering margin, which several checks share, are module constants.  Every configuration is the
reference operating point ``channel.REFERENCE_CONFIG`` with K, zeta and the
SNR (and, in the effect checks, one more parameter) set per check.

Every closed form, floor and quadrature value comes from one call per check
to a batch entry: ``analytic_sops``, ``asymptotic_sops`` or
``quadrature_sops`` (the floor check makes a second ``asymptotic_sops``
call, for its finite-SNR twins).  Checks resolve these, and
``simulate_sop``, through this module's globals, so a test can swap one out
(to confirm the harness actually detects a corrupted formula) without
touching the underlying modules.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .analytic import CASES, EvalMethod, Scenario, Scheme, SopQuery, _log_powers, analytic_sops, asymptotic_sops
from .channel import REFERENCE_CONFIG, GammaSnr, SystemConfig, snr_cdf, snr_pdf
from .montecarlo import McSettings, simulate_sop
from .quadrature import adaptive_integral, quadrature_sops
from .sweep import db_to_linear

__all__ = [
    "CHECKS",
    "CheckResult",
    "ValidationSettings",
    "run_validation",
]

# Round-off allowance of every comparison that holds exactly in exact
# arithmetic, and the least separation the orderings must show at interior
# points (zeta < 1, K >= 2).
ROUNDOFF_SLACK = 1e-12
STRICT_MARGIN = 1e-12


def _config(K: int, zeta: float, snr_db: float) -> SystemConfig:
    """The reference operating point at K transmitters, reliability zeta and snr_db."""
    return replace(REFERENCE_CONFIG, K=K, zeta=zeta, snr=db_to_linear(snr_db))


# Base point of the multipath and gain-ratio effect checks.
_EFFECT_BASE = _config(5, 0.9, 20.0)

# The library's simulation budget, seed and confidence, which the grid run keeps.
_MC_DEFAULTS = McSettings()


@dataclass(frozen=True)
class ValidationSettings:
    """Grid, simulation budgets and worker counts; the confidence and triple-agreement tolerances are fixed."""

    confidence: ClassVar[float] = _MC_DEFAULTS.confidence
    analytic_quadrature_tol: ClassVar[float] = 1e-8
    mc_tolerance_floor: ClassVar[float] = 1e-3

    ks: tuple[int, ...] = (1, 2, 5)
    zetas: tuple[float, ...] = (0.9, 0.99, 1.0)
    snr_dbs: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0)

    mc_samples: int = _MC_DEFAULTS.n_samples
    seed: int = _MC_DEFAULTS.seed
    determinism_samples: int = 200_001
    determinism_workers: tuple[int, ...] = (1, 2, 4)

    @classmethod
    def smoke(cls) -> "ValidationSettings":
        """Reduced grid for fast test runs; same tolerances."""
        return cls(
            ks=(1, 2),
            zetas=(0.9, 1.0),
            snr_dbs=(0.0, 10.0),
            mc_samples=40_000,
            determinism_samples=70_000,
        )

    def grid_configs(self) -> list[SystemConfig]:
        return [
            _config(K, zeta, snr_db)
            for K, zeta, snr_db in itertools.product(self.ks, self.zetas, self.snr_dbs)
        ]

    def mc_settings(self) -> McSettings:
        return McSettings(
            n_samples=self.mc_samples, seed=self.seed, confidence=self.confidence
        )


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    duration_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.duration_s:.1f}s)"


def _report(name: str, summary: str, failures: list[str]) -> CheckResult:
    """The one reporting rule: what the check measured, then its first four failures."""
    return CheckResult(name, not failures, "; ".join([summary, *failures[:4]]))


def _case_queries(configs) -> list[SopQuery]:
    """The four (scheme, scenario) queries of each config, config by config."""
    return [SopQuery(cfg, scheme, scenario) for cfg in configs for scheme, scenario in CASES]


def _analytic_grid(configs) -> dict[SystemConfig, dict[tuple, float]]:
    """Closed-form values of the four (scheme, scenario) cases, per config, from one batch."""
    grid: dict[SystemConfig, dict[tuple, float]] = {}
    queries = _case_queries(configs)
    for query, closed in zip(queries, analytic_sops(queries)):
        grid.setdefault(query.cfg, {})[(query.scheme, query.scenario)] = closed.value
    return grid


def _where(cfg: SystemConfig) -> str:
    return f"K={cfg.K} zeta={cfg.zeta} snr={cfg.snr:.4g}"


def _case(query: SopQuery) -> str:
    return f"{_where(query.cfg)} {query.scheme.value}/{query.scenario.value}"


def _fallbacks(route: str, queries, values) -> list[str]:
    """A failure per value that holds quadrature's value, since quadrature cannot check itself."""
    fell = [query for query, value in zip(queries, values) if value.method is EvalMethod.QUADRATURE]
    return [f"{route} fell back to quadrature at {_case(query)}" for query in fell]


def check_triple_agreement(settings: ValidationSettings) -> CheckResult:
    """Closed form vs quadrature vs simulation on the full grid."""
    mc = settings.mc_settings()
    worst_quad = worst_quad_rel = 0.0
    quad_rel_tol = 1e-10  # quadrature's own REL_TOL
    worst_mc = worst_mc_ci = 0.0
    queries = _case_queries(settings.grid_configs())
    closed_values = analytic_sops(queries)
    failures = _fallbacks("closed form", queries, closed_values)
    fallbacks = len(failures)
    closed_forms = [value.value for value in closed_values]
    for query, closed, quad in zip(queries, closed_forms, quadrature_sops(queries)):
        case = _case(query)
        quad_err = abs(closed - quad)
        worst_quad = max(worst_quad, quad_err)
        # the same gap relative to the larger value, where a small outage cannot hide it
        quad_rel = quad_err / max(abs(closed), abs(quad)) if quad_err > 0.0 else 0.0
        worst_quad_rel = max(worst_quad_rel, quad_rel)
        if quad_err > settings.analytic_quadrature_tol:
            failures.append(f"quad gap {quad_err:.3e} at {case}")
        if quad_rel > quad_rel_tol:
            failures.append(f"quad rel gap {quad_rel:.3e} at {case}")
        estimate = simulate_sop(query, mc)
        allowed = max(3.0 * estimate.ci_half_width, settings.mc_tolerance_floor)
        mc_err = abs(closed - estimate.p_hat)
        worst_mc = max(worst_mc, mc_err / allowed)
        # the same gap in units of 3 CI, where the floor cannot hide it; reported, never failed
        three_ci = 3.0 * estimate.ci_half_width
        if mc_err > 0.0:
            worst_mc_ci = max(worst_mc_ci, mc_err / three_ci if three_ci > 0.0 else math.inf)
        if mc_err > allowed:
            failures.append(f"mc gap {mc_err:.3e} (allowed {allowed:.3e}) at {case}")
    summary = (
        f"{len(closed_forms)} cells, {fallbacks} fallen back to quadrature; "
        f"max |closed-quad| {worst_quad:.2e} ({worst_quad_rel:.2e} relative) "
        f"within {settings.analytic_quadrature_tol:.0e} and {quad_rel_tol:.0e} relative; "
        f"worst mc gap {worst_mc:.2f}x allowance, {worst_mc_ci:.2f}x 3 CI without the floor"
    )
    return _report("triple_agreement", summary, failures)


def check_asymptotic_floors(settings: ValidationSettings) -> CheckResult:
    """High-SNR closed form and quadrature must land on the saturation floor, which no SNR moves.

    Quadrature shares no kernel with the floor, which is the closed form's
    own alpha = 0 case, so a closed form or floor that fell back to it
    fails.  Every case is also evaluated at the grid's SNRs, and each of
    those floors must equal its 200 dB twin.  The twins are a
    batch of their own: in one batch with the 200 dB cases they would share
    a series group with them, so a floor taken at any one alpha of its group
    (the smallest, about 0 at 200 dB) would read the same at every SNR.
    """
    snr_db, rel_tol = 200.0, 1e-4
    points = list(itertools.product((1, 2, 3, 5), (0.9, 0.99)))
    queries = _case_queries(_config(K, zeta, snr_db) for K, zeta in points)
    floor_values, closed_values = asymptotic_sops(queries), analytic_sops(queries)
    failures = _fallbacks("floor", queries, floor_values) + _fallbacks("closed form", queries, closed_values)
    fallbacks = len(failures)
    floors = [floor.value for floor in floor_values]
    routes = {
        "closed form": [closed.value for closed in closed_values],
        "quadrature": quadrature_sops(queries),
    }
    worst = dict.fromkeys(routes, 0.0)
    for route, values in routes.items():
        for query, value, floor in zip(queries, values, floors):
            rel = abs(value - floor) / floor
            worst[route] = max(worst[route], rel)
            if rel > rel_tol:
                failures.append(f"{route} rel gap {rel:.3e} at {_case(query)}")
    worst_twin = 0.0
    twins = _case_queries(_config(K, zeta, db) for db in settings.snr_dbs for K, zeta in points)
    for query, twin, floor in zip(twins, asymptotic_sops(twins), itertools.cycle(floors)):
        gap = abs(twin.value - floor)
        worst_twin = max(worst_twin, gap)
        if gap > ROUNDOFF_SLACK:
            failures.append(f"floor off its {snr_db:.0f} dB twin by {gap:.3e} at {_case(query)}")
    gaps = "/".join(f"{gap:.2e} ({route})" for route, gap in worst.items())
    summary = (
        f"worst relative gap {gaps} at {snr_db:.0f} dB, {fallbacks} fallen back to quadrature; "
        f"cross-SNR floor gap {worst_twin:.1e} over {len(twins)} cases at {len(settings.snr_dbs)} grid SNRs"
    )
    return _report("asymptotic_floors", summary, failures)


def check_orderings(settings: ValidationSettings) -> CheckResult:
    """Optimal <= sub-optimal and knowledge-available <= unavailable."""
    failures = []
    min_gaps = {"scheme": math.inf, "scenario": math.inf}
    for cfg, row in _analytic_grid(settings.grid_configs()).items():
        interior = cfg.zeta < 1.0 and cfg.K >= 2
        gaps = [
            ("scheme", scenario.value, row[(Scheme.SS, scenario)] - row[(Scheme.OS, scenario)])
            for scenario in Scenario
        ] + [
            ("scenario", scheme.value, row[(scheme, Scenario.KU)] - row[(scheme, Scenario.KA)])
            for scheme in Scheme
        ]
        for kind, held, gap in gaps:
            if interior:
                min_gaps[kind] = min(min_gaps[kind], gap)
            if gap < -ROUNDOFF_SLACK or (interior and gap < STRICT_MARGIN):
                failures.append(f"{kind} gap {gap:.3e} at {_where(cfg)} {held}")
    summary = (
        f"min interior scheme gap {min_gaps['scheme']:.2e}; "
        f"min interior scenario gap {min_gaps['scenario']:.2e}"
    )
    return _report("orderings", summary, failures)


def check_floors(settings: ValidationSettings) -> CheckResult:
    """Backhaul-imposed lower bounds, plus the simulated inactive-set rate."""
    failures = []
    min_margin = math.inf
    for cfg, row in _analytic_grid(settings.grid_configs()).items():
        for scheme, scenario in CASES:
            bound = 1.0 - cfg.zeta if scenario is Scenario.KU else (1.0 - cfg.zeta) ** cfg.K
            margin = row[(scheme, scenario)] - bound
            min_margin = min(min_margin, margin)
            if margin < -ROUNDOFF_SLACK:
                failures.append(f"{scenario.value} floor breach at {_where(cfg)} {scheme.value}")
    mc = settings.mc_settings()
    worst_sigma = 0.0
    for K, zeta in ((2, 0.9), (5, 0.9)):
        cfg = _config(K, zeta, 10.0)
        estimate = simulate_sop(SopQuery(cfg, Scheme.SS, Scenario.KA), mc)
        expected = (1.0 - zeta) ** K
        sigma = math.sqrt(expected * (1.0 - expected) / mc.n_samples)
        gap_sigmas = abs(estimate.empty_active_set_rate - expected) / sigma
        worst_sigma = max(worst_sigma, gap_sigmas)
        if gap_sigmas > 3.0:
            failures.append(
                f"inactive-set rate {estimate.empty_active_set_rate:.3e} vs "
                f"{expected:.3e} ({gap_sigmas:.1f} sigma) at K={K} zeta={zeta}"
            )
    summary = (
        f"min margin above the backhaul floors {min_margin:.2e}; "
        f"inactive-set rate worst gap {worst_sigma:.2f} sigma"
    )
    return _report("floors", summary, failures)


def _strictly_monotone(base: SystemConfig, field: str, values, rising: bool):
    """Smallest closed-form outage step as ``field`` walks ``values``, in all four cases.

    Steps are signed so that a positive one goes the expected way (up when
    ``rising``); returns (smallest step, failures).
    """
    smallest = math.inf
    failures = []
    queries = [
        SopQuery(replace(base, **{field: v}), scheme, scenario)
        for scheme, scenario in CASES
        for v in values
    ]
    closed = iter(analytic_sops(queries))
    for scheme, scenario in CASES:
        series = [next(closed).value for _ in values]
        step = min(b - a if rising else a - b for a, b in zip(series, series[1:]))
        smallest = min(smallest, step)
        if not step > 0.0:
            failures.append(
                f"outage not strictly {'rising' if rising else 'falling'} in {field} "
                f"for {scheme.value}/{scenario.value}: {series}"
            )
    return smallest, failures


def check_multipath_effect(settings: ValidationSettings) -> CheckResult:
    """More destination paths help; more eavesdropper paths hurt."""
    base = replace(_EFFECT_BASE, M=4)
    fall, dest_failures = _strictly_monotone(base, "M", (2, 4, 6), rising=False)
    rise, eave_failures = _strictly_monotone(base, "N", (2, 4, 6), rising=True)
    summary = (
        f"smallest outage drop over M (2,4,6) {fall:.2e}, smallest rise over "
        f"N (2,4,6) {rise:.2e}, in all four cases"
    )
    return _report("multipath_effect", summary, dest_failures + eave_failures)


def check_gain_ratio_effect(settings: ValidationSettings) -> CheckResult:
    """Raising the destination/eavesdropper gain ratio lowers outage."""
    fall, failures = _strictly_monotone(_EFFECT_BASE, "a", (0.2, 0.5, 1.0), rising=False)
    summary = f"smallest outage drop as a/b goes 1, 2.5, 5: {fall:.2e}, in all four cases"
    return _report("gain_ratio_effect", summary, failures)


def _power_table_gaps(k: int, num_parts: int, xs) -> tuple[float, float]:
    """Relative gaps of the closed forms' power p_0^k, the floor's row k of ``_log_powers`` at alpha = 0.

    First against the direct power (sum_{m<M} x^m / m!)^k at each x, then
    coefficient by coefficient against the exact rational power, built by
    k polynomial multiplications with the 1/m! weights as fractions.
    """
    from fractions import Fraction  # only this check runs exact arithmetic

    row = np.zeros(1)  # p_0^0 = 1
    for power in _log_powers(num_parts, k, [0.0]):
        row = power[0]
    coeffs = np.exp(row)
    worst_power = 0.0
    for x in xs:
        total = sum(c * x**j for j, c in enumerate(coeffs))
        direct = sum(x**m / math.factorial(m) for m in range(num_parts)) ** k
        worst_power = max(worst_power, abs(total - direct) / max(abs(direct), 1.0))
    weights = [Fraction(1, math.factorial(m)) for m in range(num_parts)]
    exact = [Fraction(1)]
    for _ in range(k):
        product = [Fraction(0)] * (len(exact) + num_parts - 1)
        for j, c in enumerate(exact):
            for m, w in enumerate(weights):
                product[j + m] += c * w
        exact = product
    worst_exact = max(abs(Fraction(c) - e) / e for c, e in zip(coeffs.tolist(), exact, strict=True))
    return worst_power, float(worst_exact)


def check_identities(settings: ValidationSettings) -> CheckResult:
    """Algebraic self-consistency of the building blocks."""
    failures = []

    # The CDF against its density integrated by quadrature, a reference that
    # shares no formula with it.
    worst_integral = 0.0
    scales = [REFERENCE_CONFIG.a * db_to_linear(db) for db in settings.snr_dbs]
    xs = [0.0, 0.05, 0.5, 1.0, 5.0, 25.0, 200.0]
    shapes = (1, 2, 3, 4, 6, 8)
    for shape in shapes:
        for scale in scales:
            dist = GammaSnr(shape=shape, scale=scale)
            for x in xs:
                integral = adaptive_integral(lambda y: snr_pdf(dist, y), x, rel_tol=1e-14)
                worst_integral = max(worst_integral, abs(integral - snr_cdf(dist, x)))
    if worst_integral > ROUNDOFF_SLACK:
        failures.append(f"cdf off its integrated density by {worst_integral:.3e}")

    # The exact series' base: e^-u p_alpha(u) is the unit Gamma(M) survival
    # function at alpha + u.  At alpha = 0, the floor's base, it is the
    # finite sum e^-u sum_{q<M} u^q / q!, checked at every u = x / scale;
    # at the grid's alpha = (rho - 1) / a_d it is checked at each x.
    worst_base = 0.0
    points = [(0.0, [x / scale for scale in scales for x in xs])]
    points += [((REFERENCE_CONFIG.rho - 1.0) / scale, xs) for scale in scales]
    for shape in shapes:
        bases = np.exp(next(_log_powers(shape, 1, [alpha for alpha, _ in points])))
        unit = GammaSnr(shape=shape, scale=1.0)
        for (alpha, us), coeffs in zip(points, bases):
            for u in us:
                series = math.exp(-u) * sum(c * u**q for q, c in enumerate(coeffs))
                worst_base = max(worst_base, abs(series - (1.0 - snr_cdf(unit, alpha + u))))
    if worst_base > ROUNDOFF_SLACK:
        failures.append(f"series base off the survival function by {worst_base:.3e}")

    worst_power = worst_exact = 0.0
    for k in range(6):
        for num_parts in (1, 2, 3, 6):
            power, exact = _power_table_gaps(k, num_parts, (0.3, 1.0, 2.7))
            worst_power = max(worst_power, power)
            worst_exact = max(worst_exact, exact)
    table_tol = 1e-10
    if worst_power > table_tol:
        failures.append(f"power-series table off the direct power by {worst_power:.3e}")
    if worst_exact > table_tol:
        failures.append(f"power-series table off the exact power by {worst_exact:.3e}")

    always_active = _analytic_grid(
        _config(K, 1.0, snr_db) for K in settings.ks for snr_db in settings.snr_dbs
    )
    worst_known = max(
        (abs(row[(s, Scenario.KU)] - row[(s, Scenario.KA)])
         for row in always_active.values() for s in Scheme),
        default=0.0,
    )
    if worst_known > ROUNDOFF_SLACK:
        failures.append(f"always-active scenarios disagree by {worst_known:.3e}")

    single = _analytic_grid(
        _config(1, zeta, snr_db) for zeta in settings.zetas for snr_db in settings.snr_dbs
    )
    worst_single = max(
        (max(row.values()) - min(row.values()) for row in single.values()), default=0.0
    )
    if worst_single > ROUNDOFF_SLACK:
        failures.append(f"single-transmitter cases spread by {worst_single:.3e}")

    summary = (
        f"cdf gap {worst_integral:.1e} (integrated density); "
        f"series-base gap {worst_base:.1e} (survival function, alpha = 0 and grid alphas); "
        f"power-table gaps {worst_power:.1e} (direct power)/{worst_exact:.1e} (exact power); "
        f"always-active gap {worst_known:.1e}; single-transmitter spread {worst_single:.1e}"
    )
    return _report("identities", summary, failures)


def _dispersion() -> tuple[str, list[str]]:
    """Replicate Monte Carlo estimates against the binomial variance p(1 - p)/n of their closed form p.

    ``montecarlo`` argues that its paired estimator's variance is at most
    binomial, which the Wald interval's stated conservatism rests on.  Here
    R = 100 estimates at n = 8192 samples on each of three K = 5, 0 dB cells
    (zeta = 0.9 os/ka and ss/ka, zeta = 1 ss/ku) give a sample variance
    whose ratio to p(1 - p)/n must stay below the chi^2(R - 1) quantile at
    1 - 1e-3, over R - 1 (Wilson and Hilferty's cube-root form, about
    1.50): under independent binomial replicates each cell exceeds it with
    probability 1e-3, and the paired sampler's read 0.72-0.80 here.  The
    replicate seeds, 90000 to 90099, are fixed, apart from the grid's seed
    (0 by default).  The pooled mean's gap from p, in standard errors of
    the R n samples, is reported, never failed.
    """
    from statistics import NormalDist  # only a simulation needs it

    replicates, n, false_alarm = 100, 8192, 1e-3
    dof = replicates - 1
    z = NormalDist().inv_cdf(1.0 - false_alarm)
    bound = (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    cells = ((0.9, Scheme.OS, Scenario.KA), (0.9, Scheme.SS, Scenario.KA), (1.0, Scheme.SS, Scenario.KU))
    queries = [SopQuery(_config(5, zeta, 0.0), scheme, scenario) for zeta, scheme, scenario in cells]
    ratios, gaps, failures = [], [], []
    for query, closed in zip(queries, analytic_sops(queries)):
        p = closed.value
        estimates = np.array([
            simulate_sop(query, McSettings(n_samples=n, seed=seed)).p_hat
            for seed in range(90_000, 90_000 + replicates)
        ])
        binomial = p * (1.0 - p) / n
        ratio = estimates.var(ddof=1) / binomial if binomial > 0.0 else math.inf
        case = f"zeta={query.cfg.zeta} {query.scheme.value}/{query.scenario.value}"
        ratios.append(f"{ratio:.2f} ({case})")
        gaps.append(f"{(estimates.mean() - p) / math.sqrt(binomial / replicates):+.2f}" if binomial > 0.0 else "inf")
        if not ratio <= bound:
            failures.append(f"mc variance {ratio:.2f}x binomial, above {bound:.2f}, at K=5 0 dB {case}")
    summary = (
        f"mc variance over binomial, {replicates} replicates of {n} samples at K=5 0 dB: {', '.join(ratios)} "
        f"within {bound:.2f} (chi2({dof}) at {false_alarm:g} false alarm); pooled mean gap {'/'.join(gaps)} se"
    )
    return summary, failures


def check_determinism(settings: ValidationSettings) -> CheckResult:
    """Identical seed and sample count must be bit-stable across workers, and replicates no wider than binomial."""
    mc = replace(settings.mc_settings(), n_samples=settings.determinism_samples)
    cfg = _config(3, 0.95, 15.0)
    failures = []
    distinct = []
    for scheme, scenario in ((Scheme.SS, Scenario.KU), (Scheme.OS, Scenario.KA)):
        query = SopQuery(cfg, scheme, scenario)
        reprs = {
            repr(simulate_sop(query, mc, workers=w).p_hat)
            for w in (*settings.determinism_workers, 1)
        }
        distinct.append(f"{len(reprs)} for {scheme.value}/{scenario.value}")
        if len(reprs) != 1:
            failures.append(
                f"worker counts disagree for {scheme.value}/{scenario.value}: {sorted(reprs)}"
            )
    dispersion, dispersion_failures = _dispersion()
    summary = (
        f"distinct estimates across workers {settings.determinism_workers} "
        f"and a rerun: {', '.join(distinct)}; {dispersion}"
    )
    return _report("determinism", summary, failures + dispersion_failures)


CHECKS = {
    "triple_agreement": check_triple_agreement,
    "asymptotic_floors": check_asymptotic_floors,
    "orderings": check_orderings,
    "floors": check_floors,
    "multipath_effect": check_multipath_effect,
    "gain_ratio_effect": check_gain_ratio_effect,
    "identities": check_identities,
    "determinism": check_determinism,
}


def run_validation(
    settings: ValidationSettings | None = None,
    names: tuple[str, ...] | None = None,
    report=None,
) -> list[CheckResult]:
    """Run the named checks (all by default), each once in order of first naming, and return their results."""
    settings = settings if settings is not None else ValidationSettings()
    selected = tuple(dict.fromkeys(names)) if names is not None else tuple(CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name in selected:
        start = time.perf_counter()
        result = CHECKS[name](settings)
        result.duration_s = time.perf_counter() - start
        results.append(result)
        if report is not None:
            report(result.line())
    return results
