import math
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from oracles import adaptive_integral_loop, selection_series_mp, sop_quadpack
from secrecy_outage import (
    FIGURE_PRESETS,
    NumericalIntegrityError,
    QuadratureConvergenceError,
    Scenario,
    Scheme,
    SopQuery,
    SystemConfig,
    ValidationSettings,
    adaptive_integral,
    analytic_sop,
    asymptotic_sop,
    quadrature_sop,
    run_figure,
)
from secrecy_outage import quadrature
from secrecy_outage.analytic import CasePlan
from secrecy_outage.quadrature import _NODES, _WEIGHTS_G, _WEIGHTS_K, quadrature_sops
from secrecy_outage.sweep import EvalMethod, SweepSpec, db_to_linear, run_sweep, snr_grid

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
    assert adaptive_integral(lambda x: x**2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_adaptive_integral_transcendental():
    assert adaptive_integral(np.sin, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_adaptive_integral_narrow_peak():
    expected = 1e-3 * math.sqrt(math.pi)
    assert adaptive_integral(_spike, 1.0, rel_tol=1e-12) == pytest.approx(
        expected, rel=1e-10
    )


def test_integrand_called_once_per_level():
    # every call receives a (panels, 15) node array: the first level's 8
    # panels, then only the halves of the panels that were split
    f = CountingIntegrand(_spike)
    adaptive_integral(f, 1.0, rel_tol=1e-12)
    assert f.shapes[0] == (8, 15)
    assert all(len(shape) == 2 and shape[1] == 15 and shape[0] % 2 == 0 for shape in f.shapes[1:])
    assert 3 * len(f.shapes) < f.panels


def test_results_are_plain_floats(base_cfg):
    assert type(adaptive_integral(np.sin, math.pi)) is float
    for scheme, scenario in CASES:
        query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
        assert type(quadrature_sop(query)) is float


@pytest.mark.parametrize(
    "f,points,kwargs,tol",
    [
        (lambda x: np.abs(x - 0.3), [0.3], {}, dict(abs=1e-10)),
        (np.sqrt, None, {}, dict(abs=1e-10)),
        (_spike, [0.37], dict(rel_tol=1e-12), dict(rel=1e-10)),
    ],
    ids=["kink", "sqrt", "spike"],
)
def test_adaptive_integral_matches_quadpack(f, points, kwargs, tol):
    reference, _ = integrate.quad(f, 0.0, 1.0, points=points, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert adaptive_integral(f, 1.0, **kwargs) == pytest.approx(reference, **tol)


@pytest.mark.parametrize(
    "f,kwargs,max_panels",
    [
        (np.sin, {}, 4096),
        (np.sqrt, {}, 4096),
        (lambda x: np.abs(x - 0.3), {}, 4096),
        (_spike, dict(rel_tol=1e-12), 4096),
        (_needle, dict(rel_tol=1e-15), 100),
    ],
    ids=["sin", "sqrt", "kink", "spike", "needle-budget"],
)
def test_stacked_rule_matches_the_one_integral_loop(monkeypatch, f, kwargs, max_panels):
    # the same node arrays, call by call, and the same value up to summation order
    monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    results = []
    for integrate_ in (partial(adaptive_integral_loop, lo=0.0, max_panels=max_panels), adaptive_integral):
        counting = CountingIntegrand(f)
        try:
            value, raised = integrate_(counting, hi=1.0, **kwargs), False
        except QuadratureConvergenceError as exc:
            value, raised = exc.value, True
        results.append((counting.shapes, raised, value))
    (loop_shapes, loop_raised, loop_value), (shapes, raised, value) = results
    assert (shapes, raised) == (loop_shapes, loop_raised)
    assert value == pytest.approx(loop_value, rel=64 * np.finfo(float).eps)


def test_adaptive_integral_zero_width():
    assert adaptive_integral(lambda x: np.ones_like(x), 0.0) == 0.0


def test_nonconvergence_reports_partial_value(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 16)
    f = CountingIntegrand(_needle)
    with pytest.raises(QuadratureConvergenceError) as err:
        adaptive_integral(f, 1.0, rel_tol=1e-15)
    assert err.value.achieved > err.value.tol
    assert math.isfinite(err.value.value)
    assert "tolerance" in str(err.value)
    assert f.panels <= 16


def test_panel_budget_spent_mid_level(monkeypatch):
    # a budget that ends halfway through a level splits only the panels
    # that fit, evaluates the same levels up to there, then raises
    free = CountingIntegrand(_needle)
    adaptive_integral(free, 1.0, rel_tol=1e-15)
    sizes = [shape[0] for shape in free.shapes]
    level = next(i for i, size in enumerate(sizes) if i > 1 and size >= 4)
    budget = sum(sizes[:level]) + sizes[level] // 2 + 1
    monkeypatch.setattr(quadrature, "MAX_PANELS", budget)
    f = CountingIntegrand(_needle)
    with pytest.raises(QuadratureConvergenceError):
        adaptive_integral(f, 1.0, rel_tol=1e-15)
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


def test_initial_subdivision_doubling_is_stable(monkeypatch, base_cfg):
    # halving the starting panel width (8 panels) must not move the answer
    for scheme, scenario in CASES:
        query = SopQuery(cfg=base_cfg, scheme=scheme, scenario=scenario)
        eight = quadrature_sop(query)
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "INITIAL_SUBDIVISIONS", 16)
            sixteen = quadrature_sop(query)
        assert abs(eight - sixteen) <= 1e-10


def test_tightened_tolerances_refine_further(monkeypatch):
    # the module's relative tolerance, read at call time, can be tightened
    # for a tight oracle: at this probe key (seed 12) the default 1e-10
    # stops 2.8e-12 relative off the 60-digit series, while 1e-13 refines
    # past the default panels and meets it to the last bit
    cfg = SystemConfig(
        K=13, zeta=1.0, r_th=0.0, snr=32852.98503688137, M=1, N=1, a=0.8971875757389569, b=5220.964308646576
    )
    query = SopQuery(cfg, Scheme.SS, Scenario.KU)
    reference, _ = selection_series_mp(cfg.M, cfg.N, cfg.a, cfg.b, cfg.rho, cfg.snr, cfg.K, 1.0)
    runs = []
    for rel_tol in (1e-10, 1e-13):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "REL_TOL", rel_tol)
            counters = _counting_build_integrand(patch)
            value = quadrature_sop(query)
        runs.append((counters[cfg.M, cfg.N].panels, abs(value - reference)))
    (default_panels, default_gap), (tight_panels, tight_gap) = runs
    assert tight_panels > default_panels
    assert default_gap > 1e-12 * reference
    assert tight_gap <= default_gap / 100


# Keys whose outage is far below the old 1e-10 absolute tolerance, all at
# zeta = 1 under ku: K, M, N, a, b, r_th, SNR and scheme.  With that absolute
# floor quadrature stopped 1.2e-4 and 3.5e-9 relative off the first two.
SMALL_OUTAGE_KEYS = [
    (8, 4, 24, 479.23958058064534, 12.376458807276078, 1.0, 57.43342216004695, Scheme.SS),  # p = 6.0e-9
    (13, 4, 2, 33.58036660293227, 0.03497419538370087, 0.01, 0.041063326791760044, Scheme.OS),  # p = 9.7e-129
    (5, 6, 2, 0.5, 0.05, 1.0, 1e4, Scheme.OS),  # p = 3.5e-20
]


@pytest.mark.parametrize("K, M, N, a, b, r_th, snr, scheme", SMALL_OUTAGE_KEYS, ids=["K8-ss", "K13-os", "K5-os"])
def test_small_outage_is_accurate_in_relative_terms(K, M, N, a, b, r_th, snr, scheme):
    cfg = SystemConfig(K=K, zeta=1.0, r_th=r_th, snr=snr, M=M, N=N, a=a, b=b)
    inner, _ = selection_series_mp(M, N, a, b, cfg.rho, snr, K if scheme is Scheme.SS else 1, 1.0)
    exact = inner if scheme is Scheme.SS else inner**K
    assert abs(quadrature_sop(SopQuery(cfg, scheme, Scenario.KU)) - exact) <= 1e-10 * exact


# Keys whose integrand is tiny everywhere, both at r_th = 0 under ku: K, M, N,
# a, b, SNR, zeta and scheme.  With the bare panel estimate (200 |K - G|)^1.5,
# which shrinks as the integrand's size to the 1.5, quadrature stopped 3.5e-4
# and 0.19 relative off their inner values (the second hidden in p = 1 - zeta).
TINY_INTEGRAND_KEYS = [
    (1, 16, 1, 0.10562697989790293, 0.0019317742240722217, 117.78576754806313, 1.0, Scheme.OS),  # t^16 = 1.2e-28
    (30, 1, 24, 2596.818634041927, 9.51714989990269, 20.828827501457457, 1e-6, Scheme.SS),  # 8.0e-28
]


@pytest.mark.parametrize("K, M, N, a, b, snr, zeta, scheme", TINY_INTEGRAND_KEYS, ids=["K1-os", "K30-ss"])
def test_panel_error_estimate_is_scale_invariant(K, M, N, a, b, snr, zeta, scheme):
    cfg = SystemConfig(K=K, zeta=zeta, r_th=0.0, snr=snr, M=M, N=N, a=a, b=b)
    (inner,), _ = quadrature.quadrature_inner(CasePlan([(cfg, scheme, Scenario.KU)]))
    exact, _ = selection_series_mp(M, N, a, b, cfg.rho, snr, K if scheme is Scheme.SS else 1, 1.0)
    assert abs(inner - exact) <= quadrature.REL_TOL * exact


@pytest.mark.parametrize("snr, expected", [(1e10, 6.0e-316), (3e10, 0.0)])
def test_underflowing_rows_converge(snr, expected):
    # the integrand underflows to subnormals, then to 0: a tolerance relative
    # to a total that small, or to 0, must still be met, not raise
    cfg = SystemConfig(K=1, zeta=1.0, r_th=0.01, snr=snr, M=24, N=2, a=1.0, b=1e-14)
    value = quadrature_sop(SopQuery(cfg, Scheme.OS, Scenario.KU))
    assert value == pytest.approx(expected, rel=1e-2, abs=0.0)


def test_dead_backhaul_shortcuts():
    cfg = SystemConfig(K=2, zeta=0.0, r_th=1.0, snr=10.0, M=2, N=2, a=0.5, b=0.5)
    for scheme, scenario in CASES:
        assert quadrature_sop(SopQuery(cfg=cfg, scheme=scheme, scenario=scenario)) == 1.0


def _counting_build_integrand(monkeypatch) -> dict:
    """Install a build_integrand whose destination CDF counts its calls.

    Returns the map from each built (M, N) group to one ``CountingIntegrand``
    that counts every call of that group's law, however many times it is built.
    """
    build = quadrature.build_integrand
    counters = {}

    def counting_build_integrand(q):
        integrand = build(q)
        group = (q.cfg.M, q.cfg.N)
        counter = counters.setdefault(group, CountingIntegrand(integrand.destination_cdf))
        return replace(integrand, destination_cdf=counter)

    monkeypatch.setattr(quadrature, "build_integrand", counting_build_integrand)
    return counters


def _figure_like_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        base=SystemConfig(K=5, zeta=0.9, r_th=1.0, snr=1.0, M=6, N=4, a=0.5, b=0.2),
        snr_db_start=-10.0,
        snr_db_stop=40.0,
        snr_db_step=2.0,
        schemes=(Scheme.SS, Scheme.OS),
        scenarios=(Scenario.KU, Scenario.KA),
        methods=(EvalMethod.QUADRATURE,),
    )
    return SweepSpec(**(kwargs | overrides))


def test_quadrature_reads_build_integrand_at_call_time(monkeypatch, base_cfg):
    # a replacement installed on the module after import must be the one used,
    # by a single query and by a sweep's row-stacked quadrature
    query = SopQuery(cfg=base_cfg, scheme=Scheme.SS, scenario=Scenario.KA)
    expected = quadrature_sop(query)
    spec = _figure_like_spec(snr_db_stop=10.0)
    expected_rows = run_sweep(spec).rows
    counters = _counting_build_integrand(monkeypatch)
    assert quadrature_sop(query) == expected
    assert len(counters) == 1 and next(iter(counters.values())).shapes
    counters.clear()
    assert run_sweep(spec).rows == expected_rows
    # the four cases of one (M, N) share its laws
    assert len(counters) == 1 and next(iter(counters.values())).shapes


def _counting_rows(monkeypatch) -> list[int]:
    """Record the row count of every row-stacked quadrature."""
    stack, rows = quadrature._stacked_integrals, []

    def counting_stack(evaluate, n_rows, *args):
        rows.append(n_rows)
        return stack(evaluate, n_rows, *args)

    monkeypatch.setattr(quadrature, "_stacked_integrals", counting_stack)
    return rows


def test_one_stacked_row_per_distinct_inner_key(monkeypatch):
    # fig2/ku's 208 quadrature cells read 78 inner keys: (K, 1) at K = 2 and 5,
    # and (1, 1), at 26 SNR points each; with ka they read 156.  The 144 cells
    # of the validate grid read 36.  Each job is one stack, with or without
    # the other deterministic routes, and the build_integrand installed on
    # the module after import is the one the stack's laws come from.
    rows = _counting_rows(monkeypatch)
    counters = _counting_build_integrand(monkeypatch)
    deterministic = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE)
    for scenario, expected in ((Scenario.KU, 78), (Scenario.KA, 156)):
        for methods in ((EvalMethod.QUADRATURE,), deterministic):
            rows.clear()
            counters.clear()
            result = run_figure("fig2", scenario=scenario, methods=methods)
            cells = sum(len(sweep.rows) for _, sweep in result.per_variant) // len(methods)
            assert (cells, rows) == (208, [expected])
            assert list(counters) == [(6, 4)] and counters[6, 4].shapes
    rows.clear()
    grid = [SopQuery(cfg, *case) for cfg in ValidationSettings().grid_configs() for case in CASES]
    assert len(quadrature_sops(grid)) == 144
    assert rows == [36]


def _mixed_queries() -> list[SopQuery]:
    # no two configurations share an (M, N, L, w) group except the last two,
    # which share theirs at different SNR and threshold
    configs = [
        SystemConfig(K=1, zeta=1.0, r_th=0.0, snr=0.1, M=1, N=1, a=0.5, b=0.2),
        SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=10.0, M=6, N=4, a=0.5, b=0.2),
        SystemConfig(K=5, zeta=0.99, r_th=2.0, snr=1e3, M=3, N=6, a=1.0, b=0.2),
        SystemConfig(K=3, zeta=0.5, r_th=0.5, snr=1e20, M=4, N=2, a=0.2, b=0.5),
        SystemConfig(K=4, zeta=0.7, r_th=1.0, snr=1e20, M=2, N=3, a=0.5, b=0.2),
        SystemConfig(K=4, zeta=0.7, r_th=3.0, snr=1.0, M=2, N=3, a=0.5, b=0.2),
    ]
    return [SopQuery(cfg, scheme, scenario) for cfg in configs for scheme, scenario in CASES]


def _record_levels(monkeypatch) -> SimpleNamespace:
    """Record every level of the row-stacked quadrature and the nodes its laws see.

    ``levels`` holds each ``evaluate(rows, x)`` call of ``_stacked_integrals``;
    ``cdf`` and ``pdf`` hold (level, (M, N), nodes) for each call of a built
    destination CDF and eavesdropper density, the level being the index of the
    ``evaluate`` call it is made from.
    """
    record = SimpleNamespace(levels=[], cdf=[], pdf=[])
    build, stack = quadrature.build_integrand, quadrature._stacked_integrals

    def recording_build_integrand(q):
        integrand = build(q)
        group = (q.cfg.M, q.cfg.N)

        def destination_cdf(u):
            record.cdf.append((len(record.levels) - 1, group, u.copy()))
            return integrand.destination_cdf(u)

        def eavesdropper_pdf(v):
            record.pdf.append((len(record.levels) - 1, group, v.copy()))
            return integrand.eavesdropper_pdf(v)

        return replace(integrand, destination_cdf=destination_cdf, eavesdropper_pdf=eavesdropper_pdf)

    def recording_stack(evaluate, *args, **kwargs):
        def recording_evaluate(rows, x):
            record.levels.append((rows.copy(), x.copy()))
            return evaluate(rows, x)

        return stack(recording_evaluate, *args, **kwargs)

    monkeypatch.setattr(quadrature, "build_integrand", recording_build_integrand)
    monkeypatch.setattr(quadrature, "_stacked_integrals", recording_stack)
    return record


def _row_panels(record, n_rows: int) -> list[list[np.ndarray]]:
    """Per row, the node array of its panels at each level it takes part in."""
    panels = [[] for _ in range(n_rows)]
    for rows, x in record.levels:
        for r in np.unique(rows):
            panels[r].append(x[rows == r])
    return panels


def _law_point(cfg):
    """A config's (alpha, beta): its outage boundary at unit scale is u = alpha + beta s."""
    return (cfg.rho - 1.0) / cfg.a_d, cfg.rho * cfg.b / cfg.a


def _boundary_node(cfg, t):
    alpha, beta = _law_point(cfg)
    return alpha + beta * (t / (1.0 - t))


def _check_laws_see_distinct_points(record, queries):
    """At each level, an M's CDF sees each distinct (alpha, beta, node) of its rows once.

    Likewise an N's density sees each distinct node of its rows once; each law
    is called at most once per level.  Row r of a level is ``queries[r]``.
    """
    laws = (
        (record.cdf, 0, lambda cfg: cfg.M, _law_point, _boundary_node),
        (record.pdf, 1, lambda cfg: cfg.N, lambda cfg: (), lambda cfg, t: t / (1.0 - t)),
    )
    for level, (rows, x) in enumerate(record.levels):
        for calls, at_group, law_of, point_of, node_of in laws:
            seen = {}
            for at, group, nodes in calls:
                if at == level:
                    assert group[at_group] not in seen, "a law called twice in one level"
                    seen[group[at_group]] = np.sort(nodes.ravel())
            expected = {}
            for r in np.unique(rows):
                cfg = queries[r].cfg
                points = expected.setdefault(law_of(cfg), {})
                for t in x[rows == r].ravel().tolist():
                    points[point_of(cfg) + (t,)] = node_of(cfg, t)
            assert seen.keys() == expected.keys()
            for law, points in expected.items():
                assert np.array_equal(seen[law], np.sort(list(points.values())))


def test_batch_matches_each_query_and_its_panels(monkeypatch):
    # every row refines exactly the panels of its one-row call, level by level,
    # and every law sees each distinct law point of a level once
    queries = _mixed_queries()
    record = _record_levels(monkeypatch)
    expected, lone_panels = [], []
    for query in queries:
        record.levels.clear()
        expected.append(quadrature_sop(query))
        (panels,) = _row_panels(record, 1)
        lone_panels.append(panels)
    record.levels.clear()
    record.cdf.clear()
    record.pdf.clear()
    values = quadrature_sops(queries)
    assert [value.hex() for value in values] == [value.hex() for value in expected]
    assert all(type(value) is float for value in values)
    # one row per distinct inner key; each query's row refines its lone panels
    plan = CasePlan.of(queries)
    rows = _row_panels(record, len(plan.first))
    for (at, _, _), lone in zip(plan.rows, lone_panels, strict=True):
        assert len(rows[at]) == len(lone)
        assert all(np.array_equal(level, lone_level) for level, lone_level in zip(rows[at], lone))
    _check_laws_see_distinct_points(record, [queries[first] for first in plan.first])


def _shared_law_queries(kind: str) -> list[SopQuery]:
    cfg = SystemConfig(K=3, zeta=0.9, r_th=1.0, snr=10.0, M=6, N=4, a=0.5, b=0.2)
    if kind == "zeta-ku":
        return [SopQuery(replace(cfg, zeta=z), Scheme.SS, Scenario.KU) for z in (0.99, 0.9, 0.5)]
    if kind == "K-os-ku":
        return [SopQuery(replace(cfg, K=k), Scheme.OS, Scenario.KU) for k in (2, 3, 5)]
    return [SopQuery(cfg, scheme, scenario) for scheme, scenario in CASES]


@pytest.mark.parametrize("kind", ["zeta-ku", "K-os-ku", "scheme"])
def test_rows_sharing_a_law_point_evaluate_it_once(monkeypatch, kind):
    # rows at one operating point differ only in zeta under ku, only in K under
    # os/ku, or only in scheme and scenario: the batch is bit-identical to the
    # lone calls, and the CDF sees fewer nodes than the rows' panels add up to
    queries = _shared_law_queries(kind)
    record = _record_levels(monkeypatch)
    expected, lone_nodes = [], []
    for query in queries:
        record.cdf.clear()
        expected.append(quadrature_sop(query))
        lone_nodes.append(sum(nodes.size for _, _, nodes in record.cdf))
    record.levels.clear()
    record.cdf.clear()
    record.pdf.clear()
    values = quadrature_sops(queries)
    assert [value.hex() for value in values] == [value.hex() for value in expected]
    nodes = sum(nodes.size for _, _, nodes in record.cdf)
    assert nodes < sum(lone_nodes)
    if kind != "scheme":  # the rows' integrals are the same one: evaluated once
        assert nodes == lone_nodes[0] == max(lone_nodes)
    _check_laws_see_distinct_points(record, [queries[first] for first in CasePlan.of(queries).first])


def _rows_of(fs):
    """A stacked integrand whose row r is ``fs[r]``."""

    def evaluate(rows, x):
        out = np.empty_like(x)
        for r, f in enumerate(fs):
            if np.any(rows == r):
                out[rows == r] = f(x[rows == r])
        return out

    return evaluate


def test_needle_row_fails_alone(monkeypatch):
    # the needle exhausts its budget; the other rows keep their one-row panels and values
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    fs = [_spike, _needle, np.sin, lambda x: x**2]
    kwargs = dict(rel_tol=1e-12)
    alone = []
    for f in fs:
        counting = CountingIntegrand(f)
        try:
            value = adaptive_integral(counting, 1.0, **kwargs)
        except QuadratureConvergenceError as exc:
            value = exc
        alone.append((value, counting.panels))
    assert isinstance(alone[1][0], QuadratureConvergenceError)
    stacked = [CountingIntegrand(f) for f in fs]
    no_edges = np.empty((len(fs), 0))
    results = quadrature._stacked_integrals(_rows_of(stacked), len(fs), 1.0, breaks=no_edges, **kwargs)
    assert isinstance(results[1], QuadratureConvergenceError)
    assert results[1].value == alone[1][0].value
    for r in (0, 2, 3):
        assert results[r] == alone[r][0]
    assert [f.panels for f in stacked] == [panels for _, panels in alone]
    # a batch with a row that cannot converge raises
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureConvergenceError):
        quadrature_sops(_mixed_queries()[:4])


def test_sweep_calls_each_group_once_per_level(monkeypatch):
    spec = _figure_like_spec()
    counters = _counting_build_integrand(monkeypatch)
    levels = {}  # per group, the levels of each query's one-row call
    for snr_db in snr_grid(spec):
        cfg = replace(spec.base, snr=db_to_linear(snr_db))
        for scheme, scenario in CASES:
            counters.clear()
            quadrature_sop(SopQuery(cfg, scheme, scenario))
            ((group, counter),) = counters.items()
            levels.setdefault(group, []).append(len(counter.shapes))
    counters.clear()
    run_sweep(spec)
    calls = {group: len(counter.shapes) for group, counter in counters.items()}
    assert calls == {group: max(counts) for group, counts in levels.items()}
    assert 10 * sum(calls.values()) < sum(map(sum, levels.values()))


@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_figure_job_calls_each_group_once_per_level(monkeypatch, name):
    # a figure job stacks the quadrature rows of all its variants: each
    # (M, N, L, w) group's law is called once per level of its slowest row,
    # across variants, and fewer times than one sweep per variant would call it
    variants = FIGURE_PRESETS[name].variants
    spec = _figure_like_spec(scenarios=(Scenario.KA,))
    counters = _counting_build_integrand(monkeypatch)
    levels, per_variant_calls = {}, 0
    for cfg in variants:
        for snr_db in snr_grid(spec):
            point = replace(cfg, snr=db_to_linear(snr_db))
            for scheme in (Scheme.SS, Scheme.OS):
                counters.clear()
                quadrature_sop(SopQuery(point, scheme, Scenario.KA))
                ((group, counter),) = counters.items()
                levels.setdefault(group, []).append(len(counter.shapes))
        counters.clear()
        run_sweep(replace(spec, base=cfg, schemes=(Scheme.SS, Scheme.OS)))
        per_variant_calls += sum(len(counter.shapes) for counter in counters.values())
    counters.clear()
    run_figure(name, scenario=Scenario.KA, methods=(EvalMethod.QUADRATURE,))
    calls = {group: len(counter.shapes) for group, counter in counters.items()}
    assert calls == {group: max(counts) for group, counts in levels.items()}
    assert sum(calls.values()) < per_variant_calls


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_integrity_check_rejects_bad_integral(monkeypatch, bad):
    # every case assembles its value from the boundary expectation, so a NaN
    # or a value far outside [0, 1] must raise instead of being clamped
    monkeypatch.setattr(
        quadrature, "_boundary_expectations", lambda plan: [bad] * len(plan.first)
    )
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


# Keys whose destination law bends inside the first uniform panel, each with
# the value that quadrature missed without an edge there: K, M, N, a, b, r_th,
# SNR in dB, zeta and case.  The first two returned 1.0 against 0.99998877844
# and 0.99999063861; the third 0.9999999999999998 against 0.9999999956429.
BEND_KEYS = [
    (30, 24, 1, 0.24468, 186.95, 12.0, 83.97, 1.0, (Scheme.SS, Scenario.KA)),
    (5, 4, 1, 71.357, 7443.7, 12.0, 61.38, 1.0, (Scheme.OS, Scenario.KA)),
    (2, 24, 2, 3.1269, 4.1777e-4, 30.0, 98.88, 0.3, (Scheme.OS, Scenario.KA)),
]


def _bend_query(K, M, N, a, b, r_th, snr_db, zeta, case) -> SopQuery:
    return SopQuery(SystemConfig(K=K, zeta=zeta, r_th=r_th, snr=db_to_linear(snr_db), M=M, N=N, a=a, b=b), *case)


@pytest.mark.parametrize("key", BEND_KEYS)
def test_bend_in_first_panel_is_an_edge(key):
    # the destination law bends between the first level's nodes, so the rule
    # saw a flat integrand there; an edge at the bend finds it, and so does
    # QUADPACK with a break point there
    query = _bend_query(*key)
    cfg = query.cfg
    L = cfg.K if query.scheme is Scheme.SS else 1
    (value,), _ = quadrature.quadrature_inner(CasePlan.of([query]))
    exact, _ = selection_series_mp(cfg.M, cfg.N, cfg.a, cfg.b, cfg.rho, cfg.snr, L, cfg.zeta)
    assert abs(value - exact) <= 1e-10
    outage = exact if query.scheme is Scheme.SS else exact**cfg.K  # both cases are ka
    assert abs(sop_quadpack(cfg, query.scheme, query.scenario) - outage) <= 1e-10


def _recording_stacks(monkeypatch) -> list:
    """Record each ``_stacked_integrals`` call's row count and first-level extra edges."""
    calls, stack = [], quadrature._stacked_integrals

    def recording(evaluate, n_rows, *args):
        calls.append((n_rows, *args[2:]))
        return stack(evaluate, n_rows, *args)

    monkeypatch.setattr(quadrature, "_stacked_integrals", recording)
    return calls


def test_mixed_batch_with_and_without_edges_equals_lone_calls(monkeypatch):
    queries = _mixed_queries() + [_bend_query(*key) for key in BEND_KEYS]
    calls = _recording_stacks(monkeypatch)
    values = quadrature_sops(queries)
    ((n_rows, breaks),) = calls
    assert 0 < (~np.isnan(breaks)).any(axis=1).sum() < n_rows
    assert [value.hex() for value in values] == [quadrature_sop(query).hex() for query in queries]


def test_first_level_edges_count_against_the_budget(monkeypatch):
    # a row with two extra edges evaluates ten first-level panels; at a budget
    # of eleven it has no room to refine, while its edgeless twin halves one
    monkeypatch.setattr(quadrature, "MAX_PANELS", 11)
    counting = [CountingIntegrand(_spike), CountingIntegrand(_spike)]
    breaks = np.array([[math.nan, math.nan], [0.05, 0.01]])
    plain, edged = quadrature._stacked_integrals(_rows_of(counting), 2, 1.0, 1e-12, breaks)
    assert isinstance(plain, QuadratureConvergenceError) and isinstance(edged, QuadratureConvergenceError)
    assert counting[0].shapes == [(8, 15), (2, 15)]
    assert counting[1].shapes == [(10, 15)]


def test_zero_threshold_sweep_stacks_one_row_per_case(monkeypatch):
    # at r_th = 0 alpha is 0 at every SNR: a 26-point sweep's cells of one case
    # share one key, so one row, and read one value
    cfg = SystemConfig(K=3, zeta=0.9, r_th=0.0, snr=1.0, M=6, N=4, a=0.5, b=0.2)
    queries = [
        SopQuery(replace(cfg, snr=db_to_linear(-10.0 + 2.0 * i)), scheme, scenario)
        for i in range(26)
        for scheme, scenario in CASES
    ]
    calls = _recording_stacks(monkeypatch)
    values = quadrature_sops(queries)
    assert [n_rows for n_rows, _ in calls] == [len(CASES)]
    assert all(len(set(values[case :: len(CASES)])) == 1 for case in range(len(CASES)))
