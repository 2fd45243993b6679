import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from secrecy_outage import McSettings, SopQuery, analytic_sop, asymptotic_sop, quadrature_sop, simulate_sop
from secrecy_outage.analytic import CASES, _log_powers
from secrecy_outage.channel import (
    GammaSnr,
    SystemConfig,
    _unit_gamma,
    make_rng,
    sample_channel_block,
    snr_cdf,
    snr_pdf,
)


def test_config_derived_quantities(base_cfg):
    assert base_cfg.rho == 2.0
    assert base_cfg.a_d == pytest.approx(5.0)
    assert base_cfg.a_e == pytest.approx(2.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("K", 0),
        ("K", 1.5),
        ("K", True),
        ("K", np.True_),
        ("zeta", -0.1),
        ("zeta", 1.1),
        ("r_th", -1.0),
        ("r_th", math.nan),
        ("r_th", math.inf),
        ("r_th", 1024.0),
        ("r_th", 1024.5),
        ("r_th", 1e6),
        ("snr", 0.0),
        ("snr", -3.0),
        ("snr", math.nan),
        ("snr", math.inf),
        ("M", 0),
        ("M", True),
        ("N", 0),
        ("N", True),
        ("a", 0.0),
        ("a", math.nan),
        ("a", math.inf),
        ("b", -0.2),
        ("b", math.nan),
        ("b", math.inf),
        ("snr", 5e-324),  # a * snr and b * snr underflow to 0
        ("a", 1e308),  # a * snr overflows
        ("b", 1e308),  # b * snr overflows
    ],
)
def test_config_rejects_bad_values(field, value):
    kwargs = dict(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=2, N=2, a=0.5, b=0.5)
    kwargs[field] = value
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_numpy_integer_counts_match_python_ints(base_cfg):
    # numpy integers are counts like Python ints and are stored as int, so
    # every route returns exactly the value the Python ints give
    numpy_cfg = replace(base_cfg, K=np.int64(base_cfg.K), M=np.int32(base_cfg.M), N=np.int64(base_cfg.N))
    assert [type(getattr(numpy_cfg, name)) for name in "KMN"] == [int, int, int]
    assert numpy_cfg == base_cfg
    mc = McSettings(n_samples=np.int64(20_000), seed=np.int64(3))
    for scheme, scenario in CASES:
        python_query, numpy_query = (SopQuery(cfg, scheme, scenario) for cfg in (base_cfg, numpy_cfg))
        for route in (analytic_sop, asymptotic_sop, quadrature_sop):
            assert route(numpy_query) == route(python_query), route.__name__
        assert simulate_sop(numpy_query, mc).p_hat == simulate_sop(python_query, mc).p_hat
    assert GammaSnr(shape=np.int64(3), scale=1.0) == GammaSnr(shape=3, scale=1.0)


def test_config_allows_zero_rate_threshold():
    cfg = SystemConfig(K=1, zeta=0.9, r_th=0.0, snr=10.0, M=2, N=2, a=0.5, b=0.5)
    assert cfg.rho == 1.0


def test_config_accepts_ratio_threshold_just_below_overflow():
    cfg = SystemConfig(K=1, zeta=0.9, r_th=1023.5, snr=10.0, M=2, N=2, a=0.5, b=0.5)
    assert math.isfinite(cfg.rho)


def test_gamma_snr_validation():
    with pytest.raises(ValueError):
        GammaSnr(shape=0, scale=1.0)
    with pytest.raises(ValueError):
        GammaSnr(shape=True, scale=1.0)
    with pytest.raises(ValueError):
        GammaSnr(shape=2, scale=0.0)
    with pytest.raises(ValueError):
        GammaSnr(shape=2, scale=math.inf)
    with pytest.raises(ValueError):
        GammaSnr(shape=2, scale=math.nan)


def test_pdf_normalizes():
    dist = GammaSnr(shape=4, scale=2.5)
    total, _ = integrate.quad(lambda x: snr_pdf(dist, x), 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_at_origin():
    assert snr_pdf(GammaSnr(shape=1, scale=2.0), 0.0) == pytest.approx(0.5)
    assert snr_pdf(GammaSnr(shape=3, scale=2.0), 0.0) == 0.0


def test_pdf_rejects_negative():
    with pytest.raises(ValueError):
        snr_pdf(GammaSnr(shape=2, scale=1.0), -0.5)


def test_snr_cdf_integer_shape_series():
    # for integer shape the regularized lower incomplete gamma has the closed
    # finite form 1 - exp(-u) * sum_{m<shape} u^m / m!, with u = x / scale
    for shape in (1, 2, 6):
        for u in (0.0, 0.5, 6.0, 30.0):
            expected = 1.0 - math.exp(-u) * sum(u**m / math.factorial(m) for m in range(shape))
            assert snr_cdf(GammaSnr(shape, 2.0), 2.0 * u) == pytest.approx(expected, abs=1e-12)


def test_snr_cdf_frozen_value():
    # independently computed with mpmath.gammainc(6, 0, 6) / gamma(6)
    assert snr_cdf(GammaSnr(6, 1.0), 6.0) == pytest.approx(0.5543203586353888, abs=1e-14)
    assert snr_cdf(GammaSnr(6, 2.0), 12.0) == pytest.approx(0.5543203586353888, abs=1e-14)


def test_snr_cdf_domain():
    dist = GammaSnr(shape=2, scale=1.0)
    with pytest.raises(ValueError, match="x >= 0"):
        snr_cdf(dist, -1.0)
    with pytest.raises(ValueError, match="x >= 0"):
        snr_cdf(dist, np.array([1.0, -1e-300]))


def test_snr_cdf_array_and_scalar_return():
    dist = GammaSnr(shape=3, scale=1.0)
    out = snr_cdf(dist, np.array([0.0, 1.0, 10.0]))
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert 0.0 < out[1] < out[2] <= 1.0
    assert isinstance(snr_cdf(dist, 1.0), float)


def test_cdf_endpoints():
    dist = GammaSnr(shape=3, scale=1.5)
    assert snr_cdf(dist, 0.0) == 0.0
    assert snr_cdf(dist, 1e9) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.integers(min_value=1, max_value=10),
    scale=st.floats(min_value=1e-3, max_value=1e4),
    x=st.floats(min_value=0.0, max_value=1e5),
)
def test_cdf_forms_agree(shape, scale, x):
    # the closed form's own finite sum, 1 - e^-u p_0(u) with p_0 the alpha = 0
    # base of its powers, must match the regularized incomplete gamma that
    # quadrature and the channel read, everywhere
    u = x / scale
    coeffs = np.exp(next(_log_powers(shape, 1, [0.0]))[0])
    finite_sum = 1.0 - math.exp(-u) * sum(c * u**q for q, c in enumerate(coeffs))
    assert finite_sum == pytest.approx(snr_cdf(GammaSnr(shape=shape, scale=scale), x), abs=1e-12)


# Integer shapes and arguments for the incomplete-gamma oracles: the edges
# (zero, subnormals, the u = shape branch point, beyond any float) and a
# log-spaced sweep between them.
CDF_SHAPES = [*range(1, 13), 20, 40, 100, 1000]


def _cdf_arguments(shape: int) -> np.ndarray:
    return np.array([
        0.0, 5e-324, 1e-310, *np.logspace(-12, 4, 161),
        shape * (1 - 1e-12), float(shape), shape * (1 + 1e-12), 1e5, np.inf,
    ])


def _mpmath_cdf(shape: int, u: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.gammainc(shape, 0, mpmath.mpf(u), regularized=True))


@pytest.mark.parametrize("shape", CDF_SHAPES)
def test_snr_cdf_matches_scipy_gammainc(shape):
    u = _cdf_arguments(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = snr_cdf(GammaSnr(shape, 1.0), u)
    reference = special.gammainc(shape, u)
    checked = reference > 1e-290
    gap = np.abs(ours[checked] / reference[checked] - 1.0)
    # scipy's own prefactor a ln u - u - ln Gamma(a) loses about 1e-12 at
    # shape 1000 for u between 300 and 600; there 40-digit mpmath decides
    disputed = gap > 2e-13
    assert shape == 1000 or not disputed.any()
    for x, value in zip(u[checked][disputed], ours[checked][disputed]):
        assert value == pytest.approx(_mpmath_cdf(shape, x), rel=2e-13, abs=0.0)


@pytest.mark.parametrize("shape", [6, 12, 40])
def test_snr_cdf_matches_mpmath(shape):
    u = _cdf_arguments(shape)[:-1]
    ours = snr_cdf(GammaSnr(shape, 1.0), u)
    for x, value in zip(u, ours):
        exact = _mpmath_cdf(shape, x)
        if exact > 1e-290:
            assert value == pytest.approx(exact, rel=2e-13, abs=0.0), x


@pytest.mark.parametrize("shape", CDF_SHAPES)
def test_snr_cdf_edges(shape):
    dist = GammaSnr(shape, 1.0)
    assert snr_cdf(dist, 0.0) == 0.0
    assert snr_cdf(dist, np.inf) == 1.0
    assert math.isnan(snr_cdf(dist, math.nan))
    out = snr_cdf(dist, np.array([[math.nan, 0.0], [np.inf, math.nan]]))
    assert np.isnan(out[0, 0]) and np.isnan(out[1, 1])
    assert out[0, 1] == 0.0 and out[1, 0] == 1.0
    for tiny in (5e-324, 1e-310):
        assert 0.0 <= snr_cdf(dist, tiny) <= tiny


@pytest.mark.parametrize("shape", [1, 2, 4])
@pytest.mark.parametrize("scale", [0.5, 1.0])
def test_laws_at_infinity(shape, scale):
    # the density reads 0 and the CDF reads 1 at x = inf, with no warning
    dist = GammaSnr(shape, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert snr_pdf(dist, math.inf) == 0.0
        assert snr_cdf(dist, math.inf) == 1.0
        x = np.array([0.0, 1.0, np.inf])
        pdf, cdf = snr_pdf(dist, x), snr_cdf(dist, x)
    assert pdf[2] == 0.0 and cdf[2] == 1.0
    assert np.all(np.isfinite(pdf)) and cdf[0] == 0.0


@pytest.mark.parametrize("shape", [1, 2, 6, 40])
def test_snr_cdf_of_a_batch_equals_each_point(shape):
    # the series are cut per call by their largest argument; a point's value
    # must not depend on the batch it sits in beyond the 2^-54 cut
    u = _cdf_arguments(shape)[1:-1]
    batch = snr_cdf(GammaSnr(shape, 1.0), u)
    for x, value in zip(u, batch):
        assert value == pytest.approx(snr_cdf(GammaSnr(shape, 1.0), x), rel=1e-15, abs=0.0)


def test_cdf_array_shapes():
    dist = GammaSnr(shape=2, scale=1.0)
    xs = np.linspace(0.0, 5.0, 7)
    out = snr_cdf(dist, xs)
    assert out.shape == xs.shape
    assert np.all(np.diff(out) >= 0.0)


def _mixture_cdf(dist: GammaSnr, zeta: float, x):
    """CDF of a backhaul-gated SNR: point mass 1 - zeta at zero, Gamma body."""
    return (1.0 - zeta) + zeta * snr_cdf(dist, x)


def test_mixture_cdf_floor_and_body():
    # a silenced transmitter's SNR is the point mass at zero, so the gated
    # destination SNR of a block draw follows (1 - zeta) + zeta F(x)
    cfg = SystemConfig(K=3, zeta=0.7, r_th=1.0, snr=2.0, M=2, N=2, a=0.5, b=0.5)
    gamma_d, _, active = sample_channel_block(cfg, make_rng(11, 0), 40_000)
    gated = np.where(active, gamma_d, 0.0).ravel()
    law = GammaSnr(cfg.M, cfg.a_d)
    assert _mixture_cdf(law, cfg.zeta, 0.0) == pytest.approx(0.3)
    assert _mixture_cdf(law, cfg.zeta, 1e9) == pytest.approx(1.0, abs=1e-12)
    for x in (0.0, 0.5, 1.0, 2.0, 5.0):
        p = _mixture_cdf(law, cfg.zeta, x)
        sigma = math.sqrt(p * (1.0 - p) / gated.size)
        assert abs(np.mean(gated <= x) - p) <= 5.0 * sigma, x


def test_make_rng_streams_are_deterministic_and_distinct():
    a1 = make_rng(7, 0).standard_normal(4)
    a2 = make_rng(7, 0).standard_normal(4)
    b = make_rng(7, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_sample_block_shapes_and_order(base_cfg):
    K, n = base_cfg.K, 5
    rng = make_rng(0, 0)
    gamma_d, gamma_e, active = sample_channel_block(base_cfg, rng, n)
    assert gamma_d.shape == gamma_e.shape == active.shape == (K, n)
    assert active.dtype == np.bool_
    assert np.all(gamma_d > 0.0) and np.all(gamma_e > 0.0)
    # contract: draw order is the K destination Gamma(M) rows, the K
    # eavesdropper Gamma(N) rows, then the backhaul uniforms, so a fresh
    # generator in the same state reproduces the block piecewise, each
    # link's row as its own paired ``_unit_gamma`` draw of n values
    rng2 = make_rng(0, 0)
    d2 = np.stack([base_cfg.a_d * _unit_gamma(rng2, base_cfg.M, np.empty(n), np.empty(n)) for _ in range(K)])
    e2 = np.stack([base_cfg.a_e * _unit_gamma(rng2, base_cfg.N, np.empty(n), np.empty(n)) for _ in range(K)])
    act2 = rng2.random((K, n)) < base_cfg.zeta
    assert np.array_equal(gamma_d, d2)
    assert np.array_equal(gamma_e, e2)
    assert np.array_equal(active, act2)
    # and the block consumed exactly those draws
    assert rng.random() == rng2.random()


class _ConstantUniforms:
    """A generator stub whose j-th fill is the constant ``constants[j]``; it records each fill's size."""

    def __init__(self, constants):
        self.constants = iter(constants)
        self.sizes = []

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = next(self.constants)
        self.sizes.append(out.size)
        return out


def test_sample_block_pairs_within_rows_only():
    # every Gamma row reads its own fill per path, ceil(n / 2) uniforms
    # long: its first half takes the factors 1 - u and its second half
    # their reflections u + 2**-53, so partners are two samples of one
    # link, and with a distinct constant per fill no two rows share a
    # uniform; the backhaul uniforms come last
    cfg = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=2, N=3, a=0.5, b=0.2)
    n, half = 5, 3
    fills = 2 * (cfg.M + cfg.N)
    constants = [j / 64 for j in range(1, fills + 1)] + [0.5]
    stub = _ConstantUniforms(constants)
    gamma_d, gamma_e, active = sample_channel_block(cfg, stub, n)
    assert stub.sizes == [half] * fills + [cfg.K * n]
    assert np.all(active)  # the last fill, 0.5 < zeta
    uniforms = iter(constants)
    for rows, shape, scale in ((gamma_d, cfg.M, cfg.a_d), (gamma_e, cfg.N, cfg.a_e)):
        for row in rows:
            u = np.array([next(uniforms) for _ in range(shape)])
            np.testing.assert_allclose(row[:half], -scale * np.log(np.prod(1.0 - u)), rtol=1e-15)
            np.testing.assert_allclose(row[half:], -scale * np.log(np.prod(u + 2.0**-53)), rtol=1e-15)
    # each row holds two values, both distinct from every other row's
    rows = np.concatenate((gamma_d / cfg.a_d, gamma_e / cfg.a_e))
    values = {float(v) for row in rows for v in np.unique(row)}
    assert all(np.unique(row).size == 2 for row in rows) and len(values) == 2 * len(rows)


def test_sample_block_moments(base_cfg):
    n = 200_000
    mean_d = base_cfg.M * base_cfg.a_d
    mean_e = base_cfg.N * base_cfg.a_e
    gamma_d, gamma_e, active = sample_channel_block(base_cfg, make_rng(3, 0), n)
    assert gamma_d.mean() == pytest.approx(mean_d, rel=0.01)
    assert gamma_e.mean() == pytest.approx(mean_e, rel=0.01)
    assert gamma_d.var() == pytest.approx(base_cfg.M * base_cfg.a_d**2, rel=0.03)
    assert active.mean() == pytest.approx(base_cfg.zeta, abs=0.005)
    # each row is one link's law on its own
    for row in gamma_d:
        assert row.mean() == pytest.approx(mean_d, rel=0.02)
    for row in gamma_e:
        assert row.mean() == pytest.approx(mean_e, rel=0.02)
    for row in active:
        assert row.mean() == pytest.approx(base_cfg.zeta, abs=0.005)


# A Kolmogorov-Smirnov p-value below this floor rejects the Gamma law.  The
# seed is fixed, so the test is deterministic.  Here the correct draws give
# p-values of 0.10-0.97, while a shape off by one, swapped links or a missing
# snr factor give p-values below 1e-200.
KS_P_FLOOR = 1e-3


@pytest.mark.parametrize("M,N", [(1, 10), (6, 1), (10, 6)])
def test_sample_block_follows_gamma_law(M, N):
    # every shape in {1, 6, 10} appears on both links, with distinct shapes
    # and scales per block so a swapped link cannot pass; every row must
    # follow its link's law on its own
    cfg = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=M, N=N, a=0.5, b=0.2)
    gamma_d, gamma_e, _ = sample_channel_block(cfg, make_rng(11, 0), 10_000)
    assert gamma_e.shape == (cfg.K, 10_000)
    for draws, law in ((gamma_d, GammaSnr(M, cfg.a_d)), (gamma_e, GammaSnr(N, cfg.a_e))):
        for row in (draws.ravel(), *draws):
            result = stats.kstest(row, lambda x: snr_cdf(law, x))
            assert result.pvalue > KS_P_FLOOR, (law, result)


def test_zeta_edge_sampling():
    for zeta, expect_on in ((0.0, False), (1.0, True)):
        cfg = SystemConfig(K=3, zeta=zeta, r_th=1.0, snr=10.0, M=2, N=2, a=0.5, b=0.5)
        _, _, active = sample_channel_block(cfg, make_rng(0, 0), 100)
        assert active.shape == (cfg.K, 100)
        assert np.all(active == expect_on)
