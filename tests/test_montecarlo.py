import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

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
from secrecy_outage.channel import make_rng
from secrecy_outage.montecarlo import CHUNK_SIZE, _chunk_counts, secrecy_outage_indicator

CASES = [(s, c) for s in (Scheme.SS, Scheme.OS) for c in (Scenario.KU, Scenario.KA)]


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
    with pytest.raises(ValueError):
        simulate_sop(query, McSettings(n_samples=1000), workers=0)


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


@pytest.mark.parametrize("scheme,scenario", CASES)
def test_agreement_with_closed_form(scheme, scenario):
    cfg = _cfg(K=3, zeta=0.95)
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


def _loop_counts(query, seed, chunk_index, n):
    """Per-sample reference for _chunk_counts on the same substream.

    It replays the documented draw order (the ku pick's backhaul uniform,
    then per link one backhaul uniform for ka, one destination and one
    eavesdropper SNR per sample still in outage, the ss eavesdropper SNR
    only at the first link), recording every value against its sample.
    Each sample is then decided on its own: an explicit pick among the
    links it tested, and an outage test of that pick alone.  A sample that
    left early did so on a passing link, which the pick among tested links
    then finds, so this checks the "every candidate in outage" shortcut
    independently.
    """
    cfg = query.cfg
    ss, ka = query.scheme is Scheme.SS, query.scenario is Scenario.KA
    rng = make_rng(seed, chunk_index)
    pick_on = [True] * n if ka else (rng.random(n) < cfg.zeta).tolist()
    d = [[] for _ in range(n)]
    e = [[] for _ in range(n)]
    on = [[] for _ in range(n)]
    alive = [i for i in range(n) if pick_on[i]]
    for link in range(cfg.K):
        if not alive:
            break
        size = len(alive)
        on_link = (rng.random(size) < cfg.zeta).tolist() if ka else [True] * size
        d_link = (rng.standard_gamma(cfg.M, size) * cfg.a_d).tolist()
        if link == 0 or not ss:
            e_link = (rng.standard_gamma(cfg.N, size) * cfg.a_e).tolist()
        else:
            e_link = [e[i][0] for i in alive]
        for j, i in enumerate(alive):
            d[i].append(d_link[j])
            e[i].append(e_link[j])
            on[i].append(on_link[j])
        alive = [
            i for i in alive
            if not on[i][link] or 1.0 + d[i][link] < cfg.rho * (1.0 + e[i][link])
        ]
    outages = empties = 0
    for i in range(n):
        if not pick_on[i]:
            outages += 1
            continue
        candidates = [k for k in range(len(d[i])) if on[i][k]]
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
    assert _chunk_counts(query, seed, chunk_index, n) == expected
    if scenario is Scenario.KA:
        assert expected[1] > 100
    else:
        assert expected[1] == 0


class _CountingRng:
    """Generator wrapper that counts the variates drawn, by kind."""

    def __init__(self, rng):
        self.rng = rng
        self.counts = {}

    def _add(self, kind, size):
        self.counts[kind] = self.counts.get(kind, 0) + int(np.prod(size))

    def random(self, size):
        self._add("uniform", size)
        return self.rng.random(size)

    def standard_gamma(self, shape, size):
        self._add(("gamma", shape), size)
        return self.rng.standard_gamma(shape, size)


def _counted_draws(monkeypatch, query, n):
    generators = []

    def counting_make_rng(seed, stream=0):
        generators.append(_CountingRng(make_rng(seed, stream)))
        return generators[-1]

    monkeypatch.setattr(montecarlo, "make_rng", counting_make_rng)
    _chunk_counts(query, 5, 0, n)
    assert len(generators) == 1
    return generators[0].counts


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
