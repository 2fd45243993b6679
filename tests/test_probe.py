"""The extreme-domain probe as a gate: quadrature is never the wrong route, and every row converges."""

import pytest

from oracles import selection_series_mp
from probe import DISAGREE, probe
from secrecy_outage import SystemConfig, quadrature
from secrecy_outage.analytic import (
    CasePlan,
    NumericalIntegrityError,
    Scenario,
    Scheme,
    SopQuery,
    analytic_inner,
    analytic_sop,
    asymptotic_sop,
)


def test_quadrature_is_right_on_every_settled_key_of_the_extreme_domain():
    # 120 seeded queries far outside the validation grid; where the closed
    # form and tight quadrature disagree, the 60-digit series settles it
    tolerance = quadrature.REL_TOL
    counts = probe(120, 12)
    assert quadrature.REL_TOL == tolerance
    assert counts["failed"] == 0
    assert counts["wrong"]["quadrature"] == []
    assert counts["disagree"] > 0  # the gate has keys to settle


# The probe's unflagged closed-form misses at seed 12 (400 queries), each at
# zeta = 1 under ku, where the key does not depend on the scenario:
# (K, M, N, a, b, r_th, snr, scheme), with the relative error measured.
SILENT_MISSES = [
    (30, 16, 24, 91.30280302720492, 0.01799180538447707, 12.0, 2744709.8120672638, Scheme.SS),  # 9.5e-7
    (8, 4, 24, 479.23958058064534, 12.376458807276078, 1.0, 57.43342216004695, Scheme.SS),  # 8.8e-7
    (13, 4, 2, 33.58036660293227, 0.03497419538370087, 0.01, 0.041063326791760044, Scheme.OS),  # 6.9e-7
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the significance guard misses these keys; an error bound that flags them or a fallback "
    "that fixes them (ROADMAP item 3) must remove this marker",
)
@pytest.mark.parametrize("K, M, N, a, b, r_th, snr, scheme", SILENT_MISSES, ids=["K30-ss", "K8-ss", "K13-os"])
def test_closed_form_flags_or_meets_the_60_digit_series(K, M, N, a, b, r_th, snr, scheme):
    cfg = SystemConfig(K=K, zeta=1.0, r_th=r_th, snr=snr, M=M, N=N, a=a, b=b)
    (raw,), (flag,) = analytic_inner(CasePlan([(cfg, scheme, Scenario.KU)]))
    exact, _ = selection_series_mp(M, N, a, b, cfg.rho, snr, K if scheme is Scheme.SS else 1, 1.0)
    assert flag or abs(raw - exact) <= DISAGREE * abs(exact)


@pytest.mark.xfail(
    strict=True,
    raises=NumericalIntegrityError,
    reason="the ss series and floor cancel past the integrity band (1.0000333 and 1.00035) without firing "
    "the significance guard; an error bound that catches them (ROADMAP item 3) must remove this marker",
)
def test_series_and_floor_meet_quadrature_at_K200_M24_N24():
    cfg = SystemConfig(K=200, zeta=1.0, r_th=1.0, snr=1000.0, M=24, N=24, a=0.001, b=0.1)
    query = SopQuery(cfg, Scheme.SS, Scenario.KU)
    exact = quadrature.quadrature_sop(query)
    assert exact == 0.9999999999999962  # 40-digit mpmath.quad: 1 - 8.1e-41, so rounding within 4e-15
    for route in (analytic_sop, asymptotic_sop):
        assert abs(route(query).value - exact) <= 1e-9, route.__name__
