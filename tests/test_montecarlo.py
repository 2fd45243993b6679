import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from secrecy_outage import (
    McSettings,
    Scenario,
    Scheme,
    SopQuery,
    SystemConfig,
    analytic_sop,
    montecarlo,
    simulate_sop,
)
from secrecy_outage.channel import _PRODUCT_FACTORS, make_rng
from secrecy_outage.montecarlo import (
    CHUNK_SIZE,
    _chunk_counts,
    _destination_sides,
    _unit_gamma,
    secrecy_outage_indicator,
)

CASES = [(s, c) for s in (Scheme.SS, Scheme.OS) for c in (Scenario.KU, Scenario.KA)]


def _with_paths(paths):
    """CASES x (M, N) pairs; the default (6, 4) keeps the plain case id."""
    return [
        pytest.param(s, c, m, n, id=f"{s.value}-{c.value}" + ("" if (m, n) == (6, 4) else f"-{m}-{n}"))
        for m, n in paths
        for s, c in CASES
    ]


def _cfg(**overrides):
    base = dict(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=6, N=4, a=0.5, b=0.2)
    base.update(overrides)
    return SystemConfig(**base)


def test_indicator_basic_points():
    # rho = 2: outage iff 1 + gamma_d < 2 * (1 + gamma_e)
    assert secrecy_outage_indicator(1.0, 1.0, 2.0)
    assert not secrecy_outage_indicator(3.0, 1.0, 2.0)
    # boundary is strict
    assert not secrecy_outage_indicator(3.0, 1.0, 2.0 / 1.0)
    out = secrecy_outage_indicator(np.array([1.0, 9.0]), np.array([1.0, 1.0]), 2.0)
    assert out.tolist() == [True, False]


def test_settings_validation():
    with pytest.raises(ValueError):
        McSettings(n_samples=0)
    with pytest.raises(ValueError):
        McSettings(seed=-1)
    for bad in (1500.5, True, "1000"):
        with pytest.raises(ValueError):
            McSettings(n_samples=bad)
    for bad in (1.7, False, "3"):
        with pytest.raises(ValueError):
            McSettings(seed=bad)
    with pytest.raises(ValueError):
        McSettings(confidence=1.0)
    with pytest.raises(ValueError):
        McSettings(confidence=0.0)


def test_workers_validation(base_cfg):
    query = SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KU)
    for bad in (0, 2.5, True, "2"):
        with pytest.raises(ValueError):
            simulate_sop(query, McSettings(n_samples=1000), workers=bad)
    # the count is checked before the sample-count warning is given
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            simulate_sop(query, McSettings(n_samples=10), workers=2.5)


def test_workers_schedule_no_empty_group(monkeypatch, base_cfg):
    # a stand-in pool runs each group in the calling thread and records the
    # schedule: 70 000 samples are 2 chunks, so more workers than chunks
    # get one chunk each
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers, self.group_sizes = max_workers, None
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups):
            groups = list(groups)
            self.group_sizes = [len(group) for group in groups]
            return map(fn, groups)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    query = SopQuery(cfg=base_cfg, scheme=Scheme.OS, scenario=Scenario.KA)
    for workers in (2, 3, 4, 5):
        simulate_sop(query, McSettings(n_samples=70_000, seed=4), workers=workers)
    assert [(pool.max_workers, pool.group_sizes) for pool in pools] == [(2, [1, 1])] * 4
    # one chunk needs no pool at all
    simulate_sop(query, McSettings(n_samples=CHUNK_SIZE, seed=4), workers=4)
    assert len(pools) == 4


def test_more_workers_than_chunks_cannot_change_the_estimate(base_cfg):
    mc = McSettings(n_samples=70_000, seed=9)
    for scheme, scenario in CASES:
        query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
        estimates = [simulate_sop(query, mc, workers=w) for w in (1, 2, 3, 5)]
        assert len({repr(e.p_hat) for e in estimates}) == 1
        assert all(e == estimates[0] for e in estimates)


def test_dead_backhaul_is_certain_outage():
    cfg = _cfg(zeta=0.0)
    for scheme, scenario in CASES:
        query = SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)
        estimate = simulate_sop(query, McSettings(n_samples=4096, seed=5))
        assert estimate.p_hat == 1.0
        if scenario is Scenario.KA:
            assert estimate.empty_active_set_rate == 1.0


def test_reliable_backhaul_never_empties_the_active_set():
    cfg = _cfg(zeta=1.0)
    for scheme in (Scheme.SS, Scheme.OS):
        query = SopQuery(cfg=cfg, scheme=scheme, scenario=Scenario.KA)
        estimate = simulate_sop(query, McSettings(n_samples=4096, seed=5))
        assert estimate.empty_active_set_rate == 0.0


def test_single_transmitter_schemes_coincide():
    # with one transmitter both selection rules pick it, so identical seeds
    # must give identical counts, not merely close ones
    cfg = _cfg(K=1)
    mc = McSettings(n_samples=100_000, seed=3)
    for scenario in (Scenario.KU, Scenario.KA):
        ss = simulate_sop(SopQuery(cfg=cfg, scheme=Scheme.SS, scenario=scenario), mc)
        os_ = simulate_sop(SopQuery(cfg=cfg, scheme=Scheme.OS, scenario=scenario), mc)
        assert ss.p_hat == os_.p_hat


def test_worker_counts_cannot_change_the_estimate(base_cfg):
    # spans multiple chunks including a ragged tail
    mc = McSettings(n_samples=2 * CHUNK_SIZE + 777, seed=9)
    for scheme, scenario in CASES:
        query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
        one = simulate_sop(query, mc, workers=1)
        two = simulate_sop(query, mc, workers=2)
        four = simulate_sop(query, mc, workers=4)
        assert repr(one.p_hat) == repr(two.p_hat) == repr(four.p_hat)
        assert one.ci_half_width == two.ci_half_width == four.ci_half_width


def test_repeat_runs_are_identical(base_cfg):
    mc = McSettings(n_samples=50_000, seed=21)
    query = SopQuery(cfg=base_cfg, scheme=Scheme.OS, scenario=Scenario.KA)
    first = simulate_sop(query, mc)
    second = simulate_sop(query, mc)
    assert first == second


def test_seed_actually_matters(base_cfg):
    query = SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KU)
    a = simulate_sop(query, McSettings(n_samples=50_000, seed=0))
    b = simulate_sop(query, McSettings(n_samples=50_000, seed=1))
    assert a.p_hat != b.p_hat


# (24, 21) paths go past the product's _PRODUCT_FACTORS uniform factors
@pytest.mark.parametrize("scheme,scenario,M,N", _with_paths([(6, 4), (1, 1), (24, 21)]))
def test_agreement_with_closed_form(scheme, scenario, M, N):
    cfg = _cfg(K=3, zeta=0.95, M=M, N=N)
    query = SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)
    estimate = simulate_sop(query, McSettings(n_samples=400_000, seed=2))
    closed = analytic_sop(query).value
    assert abs(estimate.p_hat - closed) <= 3.0 * estimate.ci_half_width


def test_empty_active_set_rate_matches_binomial():
    cfg = _cfg(K=2, zeta=0.9)
    mc = McSettings(n_samples=500_000, seed=4)
    estimate = simulate_sop(SopQuery(cfg=cfg, scheme=Scheme.SS, scenario=Scenario.KA), mc)
    expected = (1.0 - cfg.zeta) ** cfg.K
    sigma = math.sqrt(expected * (1.0 - expected) / mc.n_samples)
    assert abs(estimate.empty_active_set_rate - expected) <= 3.0 * sigma


def test_empty_active_set_rate_only_for_active_set_scenario(base_cfg):
    mc = McSettings(n_samples=10_000, seed=1)
    ku = simulate_sop(SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KU), mc)
    ka = simulate_sop(SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KA), mc)
    assert ku.empty_active_set_rate is None
    assert ka.empty_active_set_rate is not None


def test_ci_formula_matches_normal_quantile(base_cfg):
    mc = McSettings(n_samples=30_000, seed=6, confidence=0.95)
    estimate = simulate_sop(SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KU), mc)
    z = NormalDist().inv_cdf(0.975)
    expected = z * math.sqrt(estimate.p_hat * (1.0 - estimate.p_hat) / mc.n_samples)
    assert estimate.ci_half_width == pytest.approx(expected, rel=1e-12)
    # count recovery: p_hat times n is an integer
    count = estimate.p_hat * mc.n_samples
    assert count == round(count)


def test_low_confidence_flag_on_rare_events():
    # extreme SNR with a strong destination: outages all but vanish
    cfg = _cfg(K=1, zeta=1.0, snr=1e7, M=6, N=1, a=5.0, b=0.1)
    estimate = simulate_sop(
        SopQuery(cfg=cfg, scheme=Scheme.SS, scenario=Scenario.KU),
        McSettings(n_samples=20_000, seed=0),
    )
    assert estimate.p_hat * estimate.n_samples < 10
    assert estimate.low_confidence


def test_small_sample_warning(base_cfg):
    query = SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KU)
    with pytest.warns(UserWarning, match="1000 samples"):
        simulate_sop(query, McSettings(n_samples=500, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_sop(query, McSettings(n_samples=1000, seed=0))


def test_selection_prefers_merit():
    # with a huge reliability gap between transmitters the best-ratio rule
    # must beat the strongest-destination rule; checks the reduction axis wiring
    cfg = _cfg(K=4, zeta=1.0, snr=10.0, N=4)
    mc = McSettings(n_samples=200_000, seed=8)
    ss = simulate_sop(SopQuery(cfg=cfg, scheme=Scheme.SS, scenario=Scenario.KU), mc)
    os_ = simulate_sop(SopQuery(cfg=cfg, scheme=Scheme.OS, scenario=Scenario.KU), mc)
    assert os_.p_hat < ss.p_hat


def _gamma_row(rng, shape, size):
    """The documented Gamma row, up to ``_PRODUCT_FACTORS`` paths: ``shape`` uniform rows, -ln of the product of 1 - u."""
    assert shape <= _PRODUCT_FACTORS
    product = 1.0 - rng.random(size)
    for _ in range(shape - 1):
        product = product * (1.0 - rng.random(size))
    return -np.log(product)


def _loop_counts(query, seed, chunk_index, n):
    """Per-sample reference for _chunk_counts on the same substream.

    It replays the documented draw order (the ku on-pick count; then per
    link the held samples' backhaul under ka, a uniform each under ss and an
    on-count under os, the fresh samples' on-count under ka, one destination
    SNR per on sample, held before fresh, and one eavesdropper SNR per on
    sample under os, per newly active sample under ss), recording every
    value against its sample.  Each Gamma SNR row is replayed by
    ``_gamma_row``.  A count stands for exchangeable samples, so
    it goes to the first samples of its group in group order; held samples
    keep the chunk's order, those still held first, then the newly held
    fresh ones.  Each sample is then decided on its own: an explicit pick
    among the on links it tested, and an outage test of that pick alone.  A
    sample that left early did so on a passing link, which the pick among
    tested links then finds, so this checks the "every candidate in outage"
    shortcut independently.
    """
    cfg = query.cfg
    ss, ka = query.scheme is Scheme.SS, query.scenario is Scenario.KA
    rng = make_rng(seed, chunk_index)

    def first_on(group):
        count = len(group) if not group or cfg.zeta == 1.0 else int(rng.binomial(len(group), cfg.zeta))
        return [j < count for j in range(len(group))]

    picked_on = n if ka else sum(first_on(range(n)))
    # per sample and link: the destination and eavesdropper SNRs, None where the link was off or untested
    d = [[] for _ in range(n)]
    e = [[] for _ in range(n)]
    fresh, held = list(range(picked_on)), []
    for link in range(cfg.K):
        if not fresh and not held:
            break
        if not ka or cfg.zeta == 1.0 or not held:
            held_on = [True] * len(held)
        elif ss:
            held_on = (rng.random(len(held)) < cfg.zeta).tolist()
        else:
            held_on = first_on(held)
        fresh_on = first_on(fresh) if ka else [True] * len(fresh)
        newly = [i for i, o in zip(fresh, fresh_on) if o]
        tested = [i for i, o in zip(held, held_on) if o] + newly
        d_link = (_gamma_row(rng, cfg.M, len(tested)) * cfg.a_d).tolist()
        drawn = newly if ss else tested
        eve = dict(zip(drawn, (_gamma_row(rng, cfg.N, len(drawn)) * cfg.a_e).tolist()))
        for i in held + fresh:
            d[i].append(None)
            e[i].append(None)
        for j, i in enumerate(tested):
            d[i][link] = d_link[j]
            # under ss a sample keeps the eavesdropper SNR of its first active link
            e[i][link] = eve[i] if i in eve else next(x for x in e[i] if x is not None)

        def fails(i):
            return 1.0 + d[i][link] < cfg.rho * (1.0 + e[i][link])

        held = [i for i, o in zip(held, held_on) if not o or fails(i)] + [i for i in newly if fails(i)]
        fresh = [i for i, o in zip(fresh, fresh_on) if not o]
    outages = empties = 0
    for i in range(n):
        if i >= picked_on:
            outages += 1
            continue
        candidates = [k for k, x in enumerate(d[i]) if x is not None]
        if not candidates:
            empties += 1
            outages += 1
            continue
        if ss:
            best = max(candidates, key=lambda k: d[i][k])
        else:
            best = max(candidates, key=lambda k: (1.0 + d[i][k]) / (1.0 + e[i][k]))
        if 1.0 + d[i][best] < cfg.rho * (1.0 + e[i][best]):
            outages += 1
    return outages, empties


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_chunk_counts_match_per_sample_loop(scheme, scenario):
    # zeta = 0.6 with K = 3 leaves the active set empty in ~6% of draws, so
    # the mask, the pick and the silenced-pick rule are all exercised
    query = SopQuery(cfg=_cfg(K=3, zeta=0.6), scheme=scheme, scenario=scenario)
    seed, chunk_index, n = 12, 3, 4000
    expected = _loop_counts(query, seed, chunk_index, n)
    assert _chunk_counts(query, seed, chunk_index, n, np.empty((3, n))) == expected
    if scenario is Scenario.KA:
        assert expected[1] > 100
    else:
        assert expected[1] == 0


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("scheme,scenario", CASES)
def test_chunk_counts_ignore_what_the_scratch_held(K, scheme, scenario):
    # the chunks of one worker share a scratch: a chunk reads only what it wrote
    query = SopQuery(cfg=_cfg(K=K, zeta=0.6), scheme=scheme, scenario=scenario)
    n = 4000
    clean = _chunk_counts(query, 12, 3, n, np.zeros((3, n)))
    assert _chunk_counts(query, 12, 3, n, np.full((3, CHUNK_SIZE), np.nan)) == clean


class _CountingRng:
    """Generator wrapper that counts the variates drawn, by kind.

    A binomial count is not a variate per sample, so it is recorded apart:
    ``binomials`` holds (trials, p, result) per call, and ``uniforms`` every
    backhaul uniform row drawn.  Gamma SNRs are counted by
    ``_counting_generator`` at the ``_unit_gamma`` seam, keyed
    ("gamma", shape), and drawn from the wrapped generator, so the uniforms
    behind them are not counted as backhaul uniforms.
    """

    def __init__(self, rng):
        self.rng = rng
        self.counts = {}
        self.binomials = []
        self.uniforms = []

    def _add(self, kind, size):
        self.counts[kind] = self.counts.get(kind, 0) + int(np.prod(size))

    def random(self, size):
        self._add("uniform", size)
        self.uniforms.append(self.rng.random(size))
        return self.uniforms[-1]

    def binomial(self, n, p):
        out = self.rng.binomial(n, p)
        self.binomials.append((n, p, int(out)))
        return out


def _counting_generator(monkeypatch, query, n):
    generators = []

    def counting_make_rng(seed, stream=0):
        generators.append(_CountingRng(make_rng(seed, stream)))
        return generators[-1]

    def counting_unit_gamma(rng, shape, out, tmp):
        rng._add(("gamma", shape), out.shape)
        return unit_gamma(rng.rng, shape, out, tmp)

    unit_gamma = montecarlo._unit_gamma
    monkeypatch.setattr(montecarlo, "make_rng", counting_make_rng)
    monkeypatch.setattr(montecarlo, "_unit_gamma", counting_unit_gamma)
    _chunk_counts(query, 5, 0, n, np.empty((3, n)))
    assert len(generators) == 1
    return generators[0]


def _counted_draws(monkeypatch, query, n):
    return _counting_generator(monkeypatch, query, n).counts


def test_survivor_draws_stop_at_the_first_passing_link(monkeypatch):
    # at 30 dB nearly every sample passes on its first link, so the
    # destination draws stay close to n instead of K * n
    cfg = _cfg(K=5, snr=1000.0)
    n = 20_000
    counts = _counted_draws(monkeypatch, SopQuery(cfg=cfg, scheme=Scheme.OS, scenario=Scenario.KU), n)
    assert counts[("gamma", cfg.M)] < 2 * n


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("scheme,scenario", CASES)
def test_survivor_draws_never_exceed_the_full_block(monkeypatch, K, scheme, scenario):
    # the full block: K destination rows, K eavesdropper rows for os and one
    # for ss, K backhaul rows for ka and one for ku
    cfg = _cfg(K=K)
    n = 20_000
    counts = _counted_draws(monkeypatch, SopQuery(cfg=cfg, scheme=scheme, scenario=scenario), n)
    full = {
        ("gamma", cfg.M): K * n,
        ("gamma", cfg.N): (K if scheme is Scheme.OS else 1) * n,
        "uniform": (K if scenario is Scenario.KA else 1) * n,
    }
    assert set(counts) <= set(full)
    for kind, drawn in counts.items():
        assert drawn <= full[kind], kind


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_reliable_backhaul_draws_no_backhaul_variate(monkeypatch, scheme, scenario):
    query = SopQuery(cfg=_cfg(K=3, zeta=1.0), scheme=scheme, scenario=scenario)
    generator = _counting_generator(monkeypatch, query, 20_000)
    assert "uniform" not in generator.counts
    assert generator.binomials == []


@pytest.mark.parametrize("scheme", [Scheme.SS, Scheme.OS])
def test_blind_pick_is_one_binomial(monkeypatch, scheme):
    # ku draws one on-count for the picks and no backhaul variate per sample
    cfg, n = _cfg(K=3, zeta=0.6), 20_000
    generator = _counting_generator(monkeypatch, SopQuery(cfg=cfg, scheme=scheme, scenario=Scenario.KU), n)
    assert "uniform" not in generator.counts
    assert [call[:2] for call in generator.binomials] == [(n, cfg.zeta)]


@pytest.mark.parametrize("zeta", [0.0, 0.6])
@pytest.mark.parametrize("scheme", [Scheme.SS, Scheme.OS])
def test_active_set_draws_no_gamma_for_an_off_link(monkeypatch, scheme, zeta):
    # every destination SNR belongs to an on link: an on-count's share, or a
    # held ss survivor whose uniform fell below zeta
    cfg = _cfg(K=3, zeta=zeta)
    generator = _counting_generator(monkeypatch, SopQuery(cfg=cfg, scheme=scheme, scenario=Scenario.KA), 20_000)
    counted_on = sum(result for _, _, result in generator.binomials)
    uniform_on = sum(int(np.count_nonzero(row < zeta)) for row in generator.uniforms)
    assert generator.counts.get(("gamma", cfg.M), 0) == counted_on + uniform_on
    # eavesdropper SNRs: every on link under os, a sample's first on link under ss
    eve_on = counted_on + uniform_on if scheme is Scheme.OS else counted_on
    assert generator.counts.get(("gamma", cfg.N), 0) == eve_on
    if zeta == 0.0:
        assert counted_on + uniform_on == 0


@pytest.mark.parametrize("zeta", [0.99, 1.0])
@pytest.mark.parametrize("scheme,scenario", CASES)
def test_count_paths_agree_with_closed_form(scheme, scenario, zeta):
    # the on-counts, the lazy ss eavesdropper draw and the no-draw path at zeta = 1
    query = SopQuery(cfg=_cfg(K=3, zeta=zeta), scheme=scheme, scenario=scenario)
    estimate = simulate_sop(query, McSettings(n_samples=400_000, seed=25))
    closed = analytic_sop(query).value
    assert abs(estimate.p_hat - closed) <= 3.0 * estimate.ci_half_width


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_agreement_with_closed_form_on_unreliable_backhaul(scheme, scenario):
    # many links and frequent silencing keep the survivor bookkeeping busy
    cfg = _cfg(K=5, zeta=0.6)
    query = SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)
    estimate = simulate_sop(query, McSettings(n_samples=400_000, seed=23))
    closed = analytic_sop(query).value
    assert abs(estimate.p_hat - closed) <= 3.0 * estimate.ci_half_width


@pytest.mark.parametrize("scheme", [Scheme.SS, Scheme.OS])
def test_empty_active_set_rate_with_frequent_silencing(scheme):
    cfg = _cfg(K=3, zeta=0.6)
    mc = McSettings(n_samples=300_000, seed=24)
    estimate = simulate_sop(SopQuery(cfg=cfg, scheme=scheme, scenario=Scenario.KA), mc)
    expected = (1.0 - cfg.zeta) ** cfg.K
    sigma = math.sqrt(expected * (1.0 - expected) / mc.n_samples)
    assert abs(estimate.empty_active_set_rate - expected) <= 3.0 * sigma


# a product of every factor up to _PRODUCT_FACTORS, one log per factor past it
_SHAPES = [*range(1, 9), 19, 20, 25]


@pytest.mark.parametrize("shape", _SHAPES)
def test_unit_gamma_law(shape):
    n = 200_000
    draws = _unit_gamma(make_rng(31, shape), shape, np.empty(n), np.empty(n))
    assert stats.kstest(draws, stats.gamma(shape).cdf).pvalue > 1e-3
    # the mean and variance of Gamma(k) are both k; the standard error of
    # the sample variance is sqrt((2 k^2 + 6 k) / n)
    assert abs(draws.mean() - shape) <= 5.0 * math.sqrt(shape / n)
    assert abs(draws.var() - shape) <= 5.0 * math.sqrt((2 * shape**2 + 6 * shape) / n)


class _ConstantUniforms:
    """A generator stub whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        out[...] = self.u
        return out


@pytest.mark.parametrize("shape", [1, 2, 6, 19, 20, 40])
def test_unit_gamma_extreme_uniforms_stay_finite(shape):
    # u = 0 enters as a factor of 1, the largest u below 1 as 2**-53: no
    # factor is 0 and no product leaves the normal range, so no SNR is
    # infinite and every destination side is positive
    n = 5
    for u, expected in ((0.0, 0.0), (1.0 - 2.0**-53, shape * 53 * math.log(2.0))):
        draws = _unit_gamma(_ConstantUniforms(u), shape, np.empty(n), np.full(n, np.nan))
        assert np.all(np.isfinite(draws)) and np.all(draws >= 0.0)
        np.testing.assert_allclose(draws, expected, rtol=1e-14)
        cfg = _cfg(M=shape)
        sides = _destination_sides(_ConstantUniforms(u), cfg, np.empty(n), np.empty(n))
        assert np.all(np.isfinite(sides)) and np.all(sides >= 1.0)


@pytest.mark.parametrize("shape", _SHAPES)
def test_unit_gamma_of_nothing_draws_nothing(shape):
    rng = make_rng(7)
    assert _unit_gamma(rng, shape, np.empty(0), np.empty(0)).size == 0
    # the stream is where a fresh one starts
    assert np.array_equal(rng.random(4), make_rng(7).random(4))
