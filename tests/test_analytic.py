import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import selection_series_mp, sop_quadpack
from secrecy_outage import (
    FIGURE_PRESETS,
    McSettings,
    NumericalIntegrityError,
    Scenario,
    Scheme,
    SopQuery,
    SystemConfig,
    analytic_sop,
    analytic_sops,
    asymptotic_sop,
    asymptotic_sops,
    quadrature_sop,
    quadrature_sops,
    simulate_sop,
)
from secrecy_outage import analytic
from secrecy_outage.analytic import CasePlan, EvalMethod, SopValue, _log_convolve, analytic_inner, case_sop, log_factorials
from secrecy_outage.sweep import db_to_linear

CASES = [(s, c) for s in (Scheme.SS, Scheme.OS) for c in (Scenario.KU, Scenario.KA)]

# Frozen reference values, produced by the independent scipy.integrate.quad
# route in oracles.py and confirmed at 50-digit precision with mpmath before
# being committed.  Configuration: r_th=1, snr=10 (10 dB), M=6, N=4, a=0.5,
# b=0.2 throughout.
SINGLE_AT_10DB = 0.17661284307081648          # one always-active transmitter
SS_KU_K2_Z99 = 0.08031107218078354            # K=2, zeta=0.99
SS_KA_K2_Z90 = 0.09931755262793347            # K=2, zeta=0.9
ASYM_SINGLE = 0.15736097013702355             # snr-independent floor, same M/N/a/b


def _cfg(**overrides):
    base = dict(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=6, N=4, a=0.5, b=0.2)
    base.update(overrides)
    return SystemConfig(**base)


def _value(cfg, scheme, scenario):
    return analytic_sop(SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)).value


def _single(cfg):
    """The ss/ku query at K=1, zeta=1: (1 - 1) + 1 x is the single-link outage x."""
    return SopQuery(replace(cfg, K=1, zeta=1.0), Scheme.SS, Scenario.KU)


def test_single_outage_frozen_oracle():
    assert analytic_sop(_single(_cfg())).value == pytest.approx(SINGLE_AT_10DB, abs=2e-14)


def test_ss_ku_frozen_oracle():
    value = analytic_sop(SopQuery(_cfg(zeta=0.99), Scheme.SS, Scenario.KU))
    assert value.value == pytest.approx(SS_KU_K2_Z99, abs=2e-14)
    assert not value.significance_flag


def test_ss_ka_frozen_oracle():
    assert _value(_cfg(), Scheme.SS, Scenario.KA) == pytest.approx(SS_KA_K2_Z90, abs=2e-14)


def test_asymptotic_single_frozen_oracle():
    assert asymptotic_sop(_single(_cfg())).value == pytest.approx(ASYM_SINGLE, abs=2e-14)


@pytest.mark.parametrize("scheme,scenario", CASES)
@pytest.mark.parametrize("K,zeta", [(1, 0.9), (2, 0.9), (3, 0.99), (5, 0.8)])
def test_closed_forms_match_quadpack(scheme, scenario, K, zeta):
    cfg = _cfg(K=K, zeta=zeta)
    assert _value(cfg, scheme, scenario) == pytest.approx(
        sop_quadpack(cfg, scheme, scenario), abs=1e-10
    )


@pytest.mark.parametrize("K", [10, 20])
def test_large_selection_series_matches_quadpack(K):
    # C(k+9, 9) weak compositions per term would not fit in memory at K=20;
    # the power-series coefficient table has k*9+1 entries.  K=20 raises
    # the significance flag, so only the value is checked here.
    cfg = _cfg(K=K, M=10)
    assert _value(cfg, Scheme.SS, Scenario.KU) == pytest.approx(
        sop_quadpack(cfg, Scheme.SS, Scenario.KU), abs=1e-8
    )


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_unit_rate_threshold_edge(scheme, scenario):
    # r_th = 0 puts the outage boundary at rho = 1, the degenerate corner of
    # the inner power expansion
    cfg = _cfg(r_th=0.0, K=2)
    assert _value(cfg, scheme, scenario) == pytest.approx(
        sop_quadpack(cfg, scheme, scenario), abs=1e-10
    )
    # there the series' one SNR-dependent number, alpha = (rho - 1) / a_d,
    # is 0 at every SNR, so the exact series is its own high-SNR floor
    for snr in FIGURE_SNRS:
        query = SopQuery(replace(cfg, snr=snr), scheme, scenario)
        exact, floor = analytic_sop(query), asymptotic_sop(query)
        assert (exact.value.hex(), exact.significance_flag) == (floor.value.hex(), floor.significance_flag), snr


def test_per_point_powers_at_alpha_zero_are_the_truncated_exponential_powers():
    # p_0 is the truncated exponential: its base is -ln m!, and each power is
    # the last convolved with it; a zero alpha beside a positive one gives
    # the lone alpha = 0 rows bit for bit
    for M, K in ((1, 3), (6, 5), (10, 4)):
        row = np.zeros(1)
        lone = analytic._log_powers(M, K, [0.0])
        for k, rows in enumerate(analytic._log_powers(M, K, [0.0, 0.5]), 1):
            row = _log_convolve(row, -log_factorials(M))
            assert rows[0].tolist() == next(lone)[0].tolist() == row.tolist()


def test_large_selection_series_memory():
    # a cold ss/ku closed form at K=200, M=10 builds one power row of
    # K(M-1)+1 = 1801 coefficients at a time; its value is still flagged,
    # since the series cancels completely at this K
    query = SopQuery(_cfg(K=200, M=10), Scheme.SS, Scenario.KU)
    tracemalloc.start()
    try:
        analytic_sop(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _series_points(count, seed=5):
    """Fixed points of the closed form's domain, from a seeded generator.

    Each is (K, M, N, a, b, w, snr_db, r_th): K 1-12, M and N 1-10, a and b
    log-uniform in 0.05-2, w in (0, 1], -10 to 40 dB and r_th 0-3.
    """
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        K, M, N = (int(n) for n in rng.integers((1, 1, 1), (13, 11, 11)))
        a, b = np.exp(rng.uniform(math.log(0.05), math.log(2.0), 2)).tolist()
        w = 1.0 - rng.random()
        points.append((K, M, N, a, b, w, rng.uniform(-10.0, 40.0), rng.uniform(0.0, 3.0)))
    return points


# The exact series may miss its 60-digit sum by at most this many units of
# 2^-53 times the sum of its terms' sizes.  The largest measured is 5.4 over
# the test's 100 points, and 25 over 1200 more (_series_points seeds 1-4).
SERIES_ROUNDING_C = 32


def test_series_rounding_error_against_60_digit_sum():
    for K, M, N, a, b, w, snr_db, r_th in _series_points(100):
        cfg = SystemConfig(K=K, zeta=w, r_th=r_th, snr=db_to_linear(snr_db), M=M, N=N, a=a, b=b)
        # ss/ka reads the inner series at (L, w) = (K, zeta), unclamped here
        (x,), _ = analytic_inner(CasePlan.of([SopQuery(cfg, Scheme.SS, Scenario.KA)]))
        exact, size = selection_series_mp(M, N, a, b, cfg.rho, cfg.snr, K, w)
        assert abs(x - exact) <= SERIES_ROUNDING_C * 2.0**-53 * size, (cfg, x, exact, size)


def test_dead_backhaul_edge():
    cfg = _cfg(zeta=0.0)
    for scheme, scenario in CASES:
        assert _value(cfg, scheme, scenario) == 1.0


def test_mc_cross_check_medium_budget():
    mc = McSettings(n_samples=2_000_000, seed=11)
    for scheme, scenario in ((Scheme.OS, Scenario.KU), (Scheme.SS, Scenario.KA)):
        cfg = _cfg(K=3, zeta=0.95, snr=10.0 ** 1.5)
        query = SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)
        estimate = simulate_sop(query, mc)
        closed = analytic_sop(query).value
        assert abs(closed - estimate.p_hat) <= 3.0 * estimate.ci_half_width


config_strategy = st.builds(
    SystemConfig,
    K=st.integers(min_value=1, max_value=5),
    zeta=st.floats(min_value=0.0, max_value=1.0),
    r_th=st.floats(min_value=0.0, max_value=3.0),
    snr=st.floats(min_value=0.1, max_value=1e4),
    M=st.integers(min_value=1, max_value=7),
    N=st.integers(min_value=1, max_value=7),
    a=st.floats(min_value=0.1, max_value=4.0),
    b=st.floats(min_value=0.1, max_value=4.0),
)


@settings(max_examples=50, deadline=None)
@given(cfg=config_strategy)
def test_probability_bounds_and_orderings(cfg):
    values = {(s, c): _value(cfg, s, c) for s, c in CASES}
    for v in values.values():
        assert 0.0 <= v <= 1.0
    for scenario in (Scenario.KU, Scenario.KA):
        assert values[(Scheme.OS, scenario)] <= values[(Scheme.SS, scenario)] + 1e-12
    for scheme in (Scheme.SS, Scheme.OS):
        assert values[(scheme, Scenario.KA)] <= values[(scheme, Scenario.KU)] + 1e-12
    for scheme in (Scheme.SS, Scheme.OS):
        assert values[(scheme, Scenario.KU)] >= (1.0 - cfg.zeta) - 1e-12
        assert values[(scheme, Scenario.KA)] >= (1.0 - cfg.zeta) ** cfg.K - 1e-12


@settings(max_examples=30, deadline=None)
@given(cfg=config_strategy)
def test_reliable_backhaul_erases_scenario_split(cfg):
    cfg = replace(cfg, zeta=1.0)
    for scheme in (Scheme.SS, Scheme.OS):
        ku = _value(cfg, scheme, Scenario.KU)
        ka = _value(cfg, scheme, Scenario.KA)
        assert ku == pytest.approx(ka, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(cfg=config_strategy)
def test_single_transmitter_collapses_cases(cfg):
    cfg = replace(cfg, K=1)
    values = [_value(cfg, s, c) for s, c in CASES]
    spread = max(values) - min(values)
    assert spread <= 1e-12
    expected = (1.0 - cfg.zeta) + cfg.zeta * analytic_sop(_single(cfg)).value
    assert values[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_monotone_in_snr(scheme, scenario):
    values = [_value(_cfg(snr=10.0**e), scheme, scenario) for e in (0.0, 1.0, 2.0, 3.0)]
    assert all(hi >= lo - 1e-12 for hi, lo in zip(values, values[1:]))
    assert values[0] > values[2]


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_monotone_in_transmitter_count(scheme, scenario):
    values = [_value(_cfg(K=k), scheme, scenario) for k in (1, 2, 4)]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_monotone_in_backhaul_reliability(scheme, scenario):
    values = [_value(_cfg(zeta=z), scheme, scenario) for z in (0.5, 0.9, 0.99)]
    assert values[0] > values[1] > values[2]


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_monotone_in_path_counts(scheme, scenario):
    dest = [_value(_cfg(M=m), scheme, scenario) for m in (2, 4, 6)]
    assert dest[0] > dest[1] > dest[2]
    eave = [_value(_cfg(N=n), scheme, scenario) for n in (2, 4, 6)]
    assert eave[0] < eave[1] < eave[2]


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_monotone_in_threshold_and_gains(scheme, scenario):
    rth = [_value(_cfg(r_th=r), scheme, scenario) for r in (0.5, 1.0, 2.0)]
    assert rth[0] < rth[1] < rth[2]
    gains = [_value(_cfg(a=a), scheme, scenario) for a in (0.2, 0.5, 1.0)]
    assert gains[0] > gains[1] > gains[2]
    eave_gain = [_value(_cfg(b=b), scheme, scenario) for b in (0.1, 0.2, 0.5)]
    assert eave_gain[0] < eave_gain[1] < eave_gain[2]


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_high_snr_saturation(scheme, scenario):
    cfg_lo = _cfg(K=3, snr=10.0**18.0)
    cfg_hi = _cfg(K=3, snr=10.0**22.0)
    lo = _value(cfg_lo, scheme, scenario)
    hi = _value(cfg_hi, scheme, scenario)
    assert abs(lo - hi) <= 1e-6
    floor = asymptotic_sop(SopQuery(cfg=cfg_hi, scheme=scheme, scenario=scenario)).value
    assert hi == pytest.approx(floor, rel=1e-6)


def test_asymptote_is_snr_free():
    for scheme, scenario in CASES:
        lo = asymptotic_sop(SopQuery(cfg=_cfg(snr=1.0), scheme=scheme, scenario=scenario)).value
        hi = asymptotic_sop(SopQuery(cfg=_cfg(snr=1e6), scheme=scheme, scenario=scenario)).value
        assert lo == hi


def test_integrity_guard_units():
    # at K = 1 and zeta = 1 the ss/ka rule returns the inner value itself,
    # so each raw value meets the guard alone
    query = SopQuery(_cfg(K=1, zeta=1.0), Scheme.SS, Scenario.KA)

    def guarded(raw, flag=False):
        (result,), _ = _rule_with_fake_inner([query], [raw], flags=[flag])
        return result.value

    # inside the tolerance band: clamped quietly
    assert [guarded(raw) for raw in (1.0 + 1e-10, -1e-10, 0.25)] == [1.0, 0.0, 0.25]
    # outside the band without a significance flag: hard error, naming the route
    for bad in (1.0 + 1e-6, -1e-6, float("nan")):
        with pytest.raises(NumericalIntegrityError, match=EvalMethod.ANALYTIC.value):
            guarded(bad)
    # flagged results are clamped instead of raising
    assert [guarded(raw, flag=True) for raw in (1.5, -0.5)] == [1.0, 0.0]


def test_query_normalises_case_names():
    query = SopQuery(_cfg(), "os", "ka")
    assert query.scheme is Scheme.OS
    assert query.scenario is Scenario.KA
    assert SopQuery(_cfg(), Scheme.SS, Scenario.KU) == SopQuery(_cfg(), "ss", "ku")
    with pytest.raises(ValueError):
        SopQuery(_cfg(), "xx", "ku")
    with pytest.raises(ValueError):
        SopQuery(_cfg(), "ss", "xx")


def _rule_with_fake_inner(queries, xs, flags=None, method=EvalMethod.ANALYTIC):
    """The case rule over one plan of ``queries``, with an inner quantity that records its calls.

    The inner quantity returns ``xs`` (and ``flags``, default unflagged) as
    the (raws, flags) of the plan's distinct keys, in key order; each call
    is recorded as the plan it was passed.  Returns every query's
    (value, method, flag) as a ``SopValue``, and the calls.
    """
    calls = []

    def inner(plan):
        calls.append(plan)
        assert len(xs) == len(plan.first)
        return list(xs), list(flags if flags is not None else [False] * len(xs))

    values, value_flags = case_sop(CasePlan.of(queries), inner, method)
    assert len(values) == len(value_flags) == len(queries)
    method = EvalMethod(method)
    return [SopValue(value, method, flag) for value, flag in zip(values, value_flags)], calls


def _key(query, L, w):
    """A query's inner key (M, N, beta, alpha, L, w) for the case rule's (L, w)."""
    cfg = query.cfg
    return (cfg.M, cfg.N, cfg.rho * cfg.b / cfg.a, (cfg.rho - 1.0) / cfg.a_d, L, w)


def _keys(plan):
    """A plan's distinct keys, in key order, read from its groups."""
    keys = [None] * len(plan.first)
    for (M, N, beta, L, w), (ats, alphas) in plan.groups.items():
        for at, alpha in zip(ats, alphas):
            keys[at] = (M, N, beta, alpha, L, w)
    return keys


def _case_key(query):
    """A query's inner key by the case table: (K, 1), (K, zeta), (1, 1) or (1, zeta)."""
    cfg = query.cfg
    return _key(
        query,
        cfg.K if query.scheme is Scheme.SS else 1,
        cfg.zeta if query.scenario is Scenario.KA else 1.0,
    )


def _key_index(queries) -> list[int]:
    """Each query's position among the distinct keys of its batch; -1 over dead backhaul."""
    return [row[0] for row in CasePlan.of(queries).rows]


def test_case_rule_table():
    K, zeta, x = 3, 0.6, 0.2
    cfg = _cfg(K=K, zeta=zeta)
    table = {
        (Scheme.SS, Scenario.KU): ((K, 1.0), (1.0 - zeta) + zeta * x),
        (Scheme.SS, Scenario.KA): ((K, zeta), x),
        (Scheme.OS, Scenario.KU): ((1, 1.0), (1.0 - zeta) + zeta * x ** K),
        (Scheme.OS, Scenario.KA): ((1, zeta), x ** K),
    }
    # each case alone, then all four in one batch
    for (scheme, scenario), (args, outage) in table.items():
        query = SopQuery(cfg, scheme, scenario)
        (result,), calls = _rule_with_fake_inner([query], [x])
        assert [_keys(plan) for plan in calls] == [[_key(query, *args)]]
        assert [row[0] for row in calls[0].rows] == [0]
        assert result.value == outage
        assert not result.significance_flag and result.method is EvalMethod.ANALYTIC
    queries = [SopQuery(cfg, scheme, scenario) for scheme, scenario in table]
    results, calls = _rule_with_fake_inner(queries, [x] * 4)
    assert [_keys(plan) for plan in calls] == [[_key(query, *args) for query, (args, _) in zip(queries, table.values())]]
    assert [row[0] for row in calls[0].rows] == [0, 1, 2, 3]
    assert [r.value for r in results] == [outage for _, outage in table.values()]
    assert not any(r.significance_flag for r in results)


def test_case_rule_edges():
    # a pick over dead backhaul never evaluates the inner quantity
    for scheme, scenario in CASES:
        (result,), calls = _rule_with_fake_inner([SopQuery(_cfg(zeta=0.0), scheme, scenario)], [])
        assert calls == [] and result.value == 1.0
        assert not result.significance_flag
    # the best-ratio single-link value is checked before it is raised to the K
    for scenario in (Scenario.KU, Scenario.KA):
        for bad in (math.nan, -0.5):
            with pytest.raises(NumericalIntegrityError):
                _rule_with_fake_inner([SopQuery(_cfg(K=2, zeta=1.0), Scheme.OS, scenario)], [bad])
    # a flagged single-link value is clamped first and keeps its flag
    (result,), _ = _rule_with_fake_inner(
        [SopQuery(_cfg(K=2), Scheme.OS, Scenario.KA)], [1.2], flags=[True]
    )
    assert result.value == 1.0 and result.significance_flag
    # so is a flagged out-of-band value read without a power
    (result,), _ = _rule_with_fake_inner(
        [SopQuery(_cfg(K=2), Scheme.SS, Scenario.KA)], [1.5], flags=[True]
    )
    assert (result.value, result.significance_flag) == (1.0, True)


def _live_batch():
    """Twelve live queries over the four cases, three operating points each."""
    configs = [_cfg(K=3, zeta=0.6), _cfg(K=2, zeta=1.0), _cfg(K=5, zeta=0.9, M=3)]
    return [SopQuery(cfg, scheme, scenario) for cfg in configs for scheme, scenario in CASES]


@pytest.mark.parametrize("method", ["analytic", "asymptotic", "quadrature"])
@pytest.mark.parametrize("bad", [math.nan, 1.5, -2.0])
def test_batch_case_rule_rejects_one_bad_row(method, bad):
    # one unflagged NaN or out-of-band inner value anywhere in a batch raises,
    # naming the route; every other row is fine
    queries = _live_batch()
    index = _key_index(queries)
    for at in range(len(queries)):
        xs = [0.3] * (max(index) + 1)
        xs[index[at]] = bad
        with pytest.raises(NumericalIntegrityError, match=method):
            _rule_with_fake_inner(queries, xs, method=method)
    values, _ = _rule_with_fake_inner(queries, [0.3] * (max(index) + 1), method=method)
    assert all(0.0 <= v.value <= 1.0 and v.method == method for v in values)


@pytest.mark.parametrize("method", ["analytic", "asymptotic", "quadrature"])
@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
def test_blind_selection_checks_the_inner_value(method, bad):
    # under ku the mix (1 - zeta) + zeta x can land in band (x = -0.5 at
    # zeta = 0.6 gives 0.1), so the inner value itself must be checked
    # (the first batch's two queries share their inner key; in the second a
    # good row comes first)
    query = SopQuery(_cfg(K=3, zeta=0.6), Scheme.SS, Scenario.KU)
    for queries in ([query], _live_batch()[:1] + [query], _live_batch()[1:2] + [query]):
        index = _key_index(queries)
        xs = [0.3] * (max(index) + 1)
        xs[index[-1]] = bad
        with pytest.raises(NumericalIntegrityError, match=method):
            _rule_with_fake_inner(queries, xs, method=method)


def test_batch_case_rule_clamps_flagged_rows():
    # flags and values are set per distinct inner key: query 6's key is
    # also read by queries 2 and 7 (the os links of K=3, zeta=0.6 and of
    # zeta = 1, where ka is ku)
    queries = _live_batch()
    index = _key_index(queries)
    assert index[2] == index[6] == index[7]
    xs = [0.3] * (max(index) + 1)
    flags = [False] * (max(index) + 1)
    for at, x in ((1, 1.5), (3, -0.5), (6, 1.0 + 1e-3), (11, -2.0)):
        xs[index[at]], flags[index[at]] = x, True
    values, _ = _rule_with_fake_inner(queries, xs, flags)
    for query, value, at in zip(queries, values, index):
        x, flag = xs[at], flags[at]
        assert value.significance_flag is flag
        assert 0.0 <= value.value <= 1.0
        if flag and query.scheme is Scheme.SS and query.scenario is Scenario.KA:
            assert value.value == min(max(x, 0.0), 1.0)  # nothing composed on top of it
    # the clamped rows match their lone evaluation
    for at in (1, 2, 3, 6, 7, 11):
        (lone,), _ = _rule_with_fake_inner([queries[at]], [xs[index[at]]], [True])
        assert _fields(lone) == _fields(values[at])


def test_batch_case_rule_skips_dead_backhaul():
    # dead rows are 1.0 and never reach the inner quantity, which sees only
    # the live rows, in order
    live = _live_batch()
    dead = [SopQuery(_cfg(K=k, zeta=0.0), scheme, scenario) for k in (1, 4) for scheme, scenario in CASES]
    queries = [q for pair in zip(live, dead + dead[:4]) for q in pair]
    keys = list(dict.fromkeys(map(_case_key, live)))
    values, calls = _rule_with_fake_inner(queries, [0.3] * len(keys))
    assert len(calls) == 1 and _keys(calls[0]) == keys
    assert [at < 0 for at in _key_index(queries)] == [query.cfg.zeta == 0.0 for query in queries]
    for query, value in zip(queries, values):
        if query.cfg.zeta == 0.0:
            assert (value.value, value.significance_flag) == (1.0, False)
        else:
            assert value.value != 1.0
    values, calls = _rule_with_fake_inner(dead, [])
    assert calls == [] and all(v.value == 1.0 for v in values)


@pytest.mark.parametrize("fields", [
    dict(a=1e300, b=1e-300),  # beta = rho b / a underflows to 0
    dict(a=1e-300, b=1e300),  # beta overflows
    dict(r_th=1000.0, a=1e-4, snr=1e-8),  # alpha = (rho - 1) / a_d overflows
])
def test_plan_rejects_boundary_out_of_float_range(fields):
    # the config itself is valid; its outage boundary is not, on every route
    # that plans (Monte Carlo reads no plan and evaluates it)
    query = SopQuery(_cfg(**fields), Scheme.SS, Scenario.KA)
    for route in (analytic_sop, asymptotic_sop, quadrature_sop):
        with pytest.raises(ValueError, match="outage boundary"):
            route(query)


def test_best_ratio_power_is_python_float_power():
    # the best-ratio outage x^K is Python's float power bit for bit; on
    # machines whose np.power uses a SIMD pow, np.power differs from it by
    # an ulp on a few percent of these inputs
    # (each query has its own snr, so each reads its own inner key)
    xs = np.random.default_rng(2).random(4000).tolist()
    for K in (3, 5, 8):
        configs = [_cfg(K=K, zeta=1.0, snr=1.0 + i) for i in range(len(xs))]
        queries = [SopQuery(cfg, Scheme.OS, Scenario.KA) for cfg in configs]
        values, _ = _rule_with_fake_inner(queries, xs)
        assert [v.value for v in values] == [x ** K for x in xs]
        # blind selection at zeta = 1 adds an exact 0.0 to the same power
        queries = [SopQuery(cfg, Scheme.OS, Scenario.KU) for cfg in configs]
        values, _ = _rule_with_fake_inner(queries, xs)
        assert [v.value for v in values] == [x ** K for x in xs]


# ---------------------------------------------------------------------------
# batch entries: every batch value is its query's one-query call
# ---------------------------------------------------------------------------

FIGURE_SNRS = [db_to_linear(-10.0 + 2.0 * i) for i in range(26)]

BATCH_ROUTES = [(analytic_sops, analytic_sop), (asymptotic_sops, asymptotic_sop)]


def _fields(value):
    return value.value, value.significance_flag, value.method


def _sweep_queries(cfg, snrs=FIGURE_SNRS):
    return [
        SopQuery(replace(cfg, snr=snr), scheme, scenario)
        for snr in snrs
        for scheme, scenario in CASES
    ]


@pytest.mark.parametrize("batch,lone", BATCH_ROUTES)
def test_batch_equals_lone_calls_on_every_figure_point(batch, lone):
    # every figure-preset variant x 26 SNR points x 4 cases, compared by ==
    variants = [cfg for preset in FIGURE_PRESETS.values() for cfg in preset.variants]
    queries = [query for cfg in variants for query in _sweep_queries(cfg)]
    assert len(queries) == 13 * 26 * 4
    for query, value in zip(queries, batch(queries), strict=True):
        assert _fields(value) == _fields(lone(query)), query


@pytest.mark.parametrize("batch,lone", BATCH_ROUTES)
def test_mixed_batch_keeps_input_order(batch, lone):
    queries = [
        SopQuery(_cfg(K=3, zeta=0.9, snr=1.0), Scheme.SS, Scenario.KA),
        SopQuery(_cfg(K=1, M=2, N=6, zeta=0.5, snr=100.0), Scheme.OS, Scenario.KU),
        SopQuery(_cfg(K=2, zeta=0.0), Scheme.SS, Scenario.KU),  # dead backhaul
        SopQuery(_cfg(K=3, zeta=0.9, snr=30.0), Scheme.SS, Scenario.KA),
        SopQuery(_cfg(K=5, M=3, N=2, zeta=1.0), Scheme.OS, Scenario.KA),
        SopQuery(_cfg(K=3, zeta=0.9, snr=1.0), Scheme.SS, Scenario.KA),  # duplicate
        SopQuery(_cfg(K=5, M=3, N=2, zeta=1.0), Scheme.SS, Scenario.KU),
    ]
    values = batch(queries)
    assert [_fields(v) for v in values] == [_fields(lone(q)) for q in queries]
    assert values[2].value == 1.0
    assert _fields(values[0]) == _fields(values[5])
    assert len({v.value for v in values}) >= 5  # distinct values, so a reordering would show


# A mixed batch: one to three links (M, N, a, b, r_th), each query one of
# them at its own SNR, K, zeta (dead backhaul included) and case, and a
# second copy of every other query at the end.  Inner keys repeat across K
# under best-ratio selection, across zeta under blind selection, across the
# scenario at zeta = 1, and across the copies; keys of one link at several
# SNRs form one closed-form group.
_link = st.tuples(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([0.2, 0.5, 1.0]),
    st.sampled_from([0.2, 0.5]),
    st.sampled_from([0.0, 1.0, 2.0]),
)


def _mixed_query(link, snr, K, zeta, case):
    M, N, a, b, r_th = link
    return SopQuery(SystemConfig(K=K, zeta=zeta, r_th=r_th, snr=snr, M=M, N=N, a=a, b=b), *case)


_mixed_batches = st.lists(_link, min_size=1, max_size=3).flatmap(
    lambda links: st.lists(
        st.builds(
            _mixed_query,
            st.sampled_from(links),
            st.sampled_from([0.5, 10.0, 1e3]),
            st.integers(1, 5),
            st.sampled_from([0.0, 0.5, 0.9, 1.0]),
            st.sampled_from(CASES),
        ),
        min_size=1,
        max_size=10,
    ).map(lambda queries: queries + queries[::2])
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(queries=_mixed_batches)
def test_mixed_batches_equal_lone_calls_bit_for_bit(queries):
    # each route plans the batch once and evaluates each distinct inner key
    # once; every value, in input order, is still its query's lone call
    assert len(CasePlan.of(queries).first) < len(queries)
    for batch, lone in BATCH_ROUTES:
        assert [_fields(value) for value in batch(queries)] == [_fields(lone(query)) for query in queries]
    assert [value.hex() for value in quadrature_sops(queries)] == [quadrature_sop(query).hex() for query in queries]


@pytest.mark.parametrize("batch", [analytic_sops, asymptotic_sops])
def test_empty_batch(batch):
    assert batch([]) == []
    assert batch(iter(())) == []


def test_flagged_point_keeps_its_flag_in_a_batch():
    # ss/ku at K=60 M=12 cancels below the guard (its value is not
    # trustworthy); batched with unflagged points it stays flagged
    flagged = SopQuery(_cfg(K=60, M=12, zeta=0.9), Scheme.SS, Scenario.KU)
    queries = [
        SopQuery(_cfg(K=60, M=12, zeta=0.9, snr=1.0), Scheme.OS, Scenario.KU),
        flagged,
        SopQuery(_cfg(K=2, zeta=0.9), Scheme.SS, Scenario.KU),
    ]
    values = analytic_sops(queries)
    assert values[1].significance_flag
    assert not values[0].significance_flag and not values[2].significance_flag
    assert _fields(values[1]) == _fields(analytic_sop(flagged))


def _counting(monkeypatch, name):
    calls = []
    real = getattr(analytic, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analytic, name, counted)
    return calls


def test_floor_runs_once_per_group(monkeypatch):
    # the four cases of a 26-point sweep form four (L, w) groups; each
    # group's floor is the one series kernel at alpha = 0, run once
    calls = _counting(monkeypatch, "_selection_series")
    values = asymptotic_sops(_sweep_queries(_cfg(K=3, zeta=0.9)))
    assert len(calls) == 4
    assert len({args[3:5] for args in calls}) == 4
    assert all(args[-1] == [0.0] for args in calls)
    assert len({v.value for v in values[0::4]}) == 1  # one ss/ku floor at every SNR


def test_series_runs_once_per_group_over_all_snr_points(monkeypatch):
    calls = _counting(monkeypatch, "_selection_series")
    analytic_sops(_sweep_queries(_cfg(K=3, zeta=0.9)))
    assert len(calls) == 4
    assert all(len(args[-1]) == 26 for args in calls)


def test_slabs_split_points_without_changing_values(monkeypatch):
    # a group whose power rows hold more coefficients than the cap is
    # evaluated a slab of SNR points at a time; with a cap below one row
    # every point is its own slab
    queries = _sweep_queries(_cfg(K=3, zeta=0.9), FIGURE_SNRS[::5])
    whole = analytic_sops(queries)
    monkeypatch.setattr(analytic, "_SLAB_FLOATS", 1)
    assert [_fields(v) for v in analytic_sops(queries)] == [_fields(v) for v in whole]
