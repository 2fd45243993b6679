import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from oracles import sop_quadpack
from secrecy_outage import (
    NumericalIntegrityError,
    QuadratureConvergenceError,
    Scenario,
    Scheme,
    SopQuery,
    SystemConfig,
    adaptive_integral,
    analytic_sop,
    asymptotic_sop,
    quadrature_sop,
)
from secrecy_outage import quadrature
from secrecy_outage.quadrature import _NODES, _WEIGHTS_G, _WEIGHTS_K

CASES = [(s, c) for s in (Scheme.SS, Scheme.OS) for c in (Scenario.KU, Scenario.KA)]


def _spike(x):
    # width 1e-3 around 0.37: forces actual adaptivity
    return np.exp(-((x - 0.37) / 1e-3) ** 2)


def _needle(x):
    return 1.0 / (1e-12 + (x - 0.123456789) ** 2)


class CountingIntegrand:
    """Wraps an integrand and records the node-array shape of every call."""

    def __init__(self, f):
        self.f = f
        self.shapes = []

    def __call__(self, x):
        assert isinstance(x, np.ndarray)
        self.shapes.append(x.shape)
        return self.f(x)

    @property
    def panels(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes) // 15


def test_rule_constants_are_a_quadrature_rule():
    # both rules integrate 1 exactly on [-1, 1], nodes are symmetric and
    # the Gauss weights vanish on the Kronrod-only nodes
    assert _WEIGHTS_K.sum() == pytest.approx(2.0, abs=1e-14)
    assert _WEIGHTS_G.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(_NODES, -_NODES[::-1])
    assert np.count_nonzero(_WEIGHTS_G) == 7
    # degree check: the 15-point rule is exact for x^22
    for power in (2, 10, 22):
        value = float((_NODES**power) @ _WEIGHTS_K)
        assert value == pytest.approx(2.0 / (power + 1), abs=1e-13)


def test_adaptive_integral_polynomial():
    assert adaptive_integral(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_adaptive_integral_transcendental():
    assert adaptive_integral(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_adaptive_integral_narrow_peak():
    expected = 1e-3 * math.sqrt(math.pi)
    assert adaptive_integral(_spike, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-12) == pytest.approx(
        expected, rel=1e-10
    )


def test_integrand_called_once_per_level():
    # every call receives a (panels, 15) node array: the first level's 8
    # panels, then only the halves of the panels that were split
    f = CountingIntegrand(_spike)
    adaptive_integral(f, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-12)
    assert f.shapes[0] == (8, 15)
    assert all(len(shape) == 2 and shape[1] == 15 and shape[0] % 2 == 0 for shape in f.shapes[1:])
    assert 3 * len(f.shapes) < f.panels


def test_results_are_plain_floats(base_cfg):
    assert type(adaptive_integral(np.sin, 0.0, math.pi)) is float
    for scheme, scenario in CASES:
        query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
        assert type(quadrature_sop(query)) is float


@pytest.mark.parametrize(
    "f,points,kwargs,tol",
    [
        (lambda x: np.abs(x - 0.3), [0.3], {}, dict(abs=1e-10)),
        (np.sqrt, None, {}, dict(abs=1e-10)),
        (_spike, [0.37], dict(abs_tol=1e-14, rel_tol=1e-12), dict(rel=1e-10)),
    ],
    ids=["kink", "sqrt", "spike"],
)
def test_adaptive_integral_matches_quadpack(f, points, kwargs, tol):
    reference, _ = integrate.quad(f, 0.0, 1.0, points=points, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert adaptive_integral(f, 0.0, 1.0, **kwargs) == pytest.approx(reference, **tol)


def test_adaptive_integral_zero_width():
    assert adaptive_integral(lambda x: np.ones_like(x), 0.5, 0.5) == 0.0


def test_adaptive_integral_rejects_bad_subdivisions():
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: x, 0.0, 1.0, initial_subdivisions=0)


def test_nonconvergence_reports_partial_value():
    f = CountingIntegrand(_needle)
    with pytest.raises(QuadratureConvergenceError) as err:
        adaptive_integral(f, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-15, max_panels=16)
    assert err.value.achieved > err.value.tol
    assert math.isfinite(err.value.value)
    assert "tolerance" in str(err.value)
    assert f.panels <= 16


def test_panel_budget_spent_mid_level():
    # a budget that ends halfway through a level splits only the panels
    # that fit, evaluates the same levels up to there, then raises
    free = CountingIntegrand(_needle)
    adaptive_integral(free, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-15)
    sizes = [shape[0] for shape in free.shapes]
    level = next(i for i, size in enumerate(sizes) if i > 1 and size >= 4)
    budget = sum(sizes[:level]) + sizes[level] // 2 + 1
    f = CountingIntegrand(_needle)
    with pytest.raises(QuadratureConvergenceError):
        adaptive_integral(f, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-15, max_panels=budget)
    assert budget - 1 <= f.panels <= budget
    assert f.shapes[:level] == free.shapes[:level]
    assert 0 < f.shapes[level][0] < sizes[level]


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_quadrature_matches_closed_form(scheme, scenario, base_cfg):
    query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
    assert quadrature_sop(query) == pytest.approx(analytic_sop(query).value, abs=1e-8)


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_quadrature_matches_quadpack(scheme, scenario, base_cfg):
    query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
    assert quadrature_sop(query) == pytest.approx(
        sop_quadpack(base_cfg, scheme, scenario), abs=1e-10
    )


def test_initial_subdivision_doubling_is_stable(base_cfg):
    # halving the starting panel width must not move the answer
    for scheme, scenario in CASES:
        query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
        eight = quadrature_sop(query, initial_subdivisions=8)
        sixteen = quadrature_sop(query, initial_subdivisions=16)
        assert abs(eight - sixteen) <= 1e-10


def test_dead_backhaul_shortcuts():
    cfg = SystemConfig(K=2, zeta=0.0, r_th=1.0, snr=10.0, M=2, N=2, a=0.5, b=0.5)
    for scheme, scenario in CASES:
        assert quadrature_sop(SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)) == 1.0


def test_quadrature_reads_build_integrand_at_call_time(monkeypatch, base_cfg):
    # a replacement installed on the module after import must be the one used
    query = SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KA)
    expected = quadrature_sop(query)
    build = quadrature.build_integrand
    calls = []

    def counting_build_integrand(q):
        integrand = build(q)

        def destination_cdf(x):
            calls.append(x.shape)
            return integrand.destination_cdf(x)

        return replace(integrand, destination_cdf=destination_cdf)

    monkeypatch.setattr(quadrature, "build_integrand", counting_build_integrand)
    assert quadrature_sop(query) == expected
    assert len(calls) > 0


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_integrity_check_rejects_bad_integral(monkeypatch, bad):
    # every case assembles its value from the boundary expectation, so a NaN
    # or a value far outside [0, 1] must raise instead of being clamped
    monkeypatch.setattr(quadrature, "_boundary_expectation", lambda *args, **kwargs: bad)
    cfg = SystemConfig(K=2, zeta=1.0, r_th=1.0, snr=10.0, M=2, N=2, a=0.5, b=0.5)
    for scheme, scenario in CASES:
        with pytest.raises(NumericalIntegrityError):
            quadrature_sop(SopQuery(cfg=cfg, scheme=scheme, scenario=scenario))


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_high_snr_tail_not_lost(scheme, scenario):
    # at 200 dB the eavesdropper mass sits near 1e19; the substitution must
    # still capture it and land on the saturation floor
    cfg = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=1e20, M=6, N=4, a=0.5, b=0.2)
    query = SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)
    floor = asymptotic_sop(query).value
    assert quadrature_sop(query) == pytest.approx(floor, rel=1e-8)
