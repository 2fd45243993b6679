import gc
import io
import tracemalloc
from dataclasses import replace

import pytest

from secrecy_outage import (
    McSettings,
    Scenario,
    Scheme,
    SopQuery,
    SystemConfig,
    analytic_sop,
    quadrature_sop,
)
from secrecy_outage import sweep as sweep_module
from secrecy_outage.figures import FIGURE_PRESETS, run_figure
from secrecy_outage.sweep import (
    CSV_HEADER,
    MAX_SNR_POINTS,
    EvalMethod,
    SweepSpec,
    db_to_linear,
    evaluate_cell,
    read_sweep_csv,
    run_sweep,
    snr_grid,
    write_sweep_csv,
)


def _spec(**overrides):
    base = SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=1.0, M=6, N=4, a=0.5, b=0.2)
    kwargs = dict(
        bases=(base,),
        snr_db_start=0.0,
        snr_db_stop=10.0,
        snr_db_step=5.0,
        schemes=(Scheme.SS,),
        scenarios=(Scenario.KU,),
        methods=(EvalMethod.ANALYTIC,),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_db_conversion_round_trip():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(-10.0) == pytest.approx(0.1)


def test_db_conversion_rejects_overflow():
    assert db_to_linear(3000.0) == pytest.approx(1e300)
    with pytest.raises(ValueError, match="4000"):
        db_to_linear(4000.0)


def test_snr_grid_inclusive_endpoints():
    assert snr_grid(_spec()) == [0.0, 5.0, 10.0]
    assert snr_grid(_spec(snr_db_start=-10.0, snr_db_stop=40.0, snr_db_step=2.0))[::13] == [-10.0, 16.0]
    grid = snr_grid(_spec(snr_db_start=-10.0, snr_db_stop=40.0, snr_db_step=2.0))
    assert len(grid) == 26
    assert grid[0] == -10.0 and grid[-1] == 40.0


def test_snr_grid_fractional_step():
    grid = snr_grid(_spec(snr_db_start=0.0, snr_db_stop=1.0, snr_db_step=0.1))
    assert len(grid) == 11
    assert grid[-1] == pytest.approx(1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(snr_db_step=0.0)
    with pytest.raises(ValueError):
        _spec(snr_db_stop=-1.0)
    with pytest.raises(ValueError):
        _spec(methods=())
    with pytest.raises(ValueError, match="bases must be non-empty"):
        _spec(bases=())
    # case and method strings become their enums, as in SopQuery; a repeated
    # scheme, scenario or method would write every row twice
    parsed = _spec(schemes=("os", Scheme.SS), scenarios=("ka",), methods=("quadrature", "mc"))
    assert (parsed.schemes, parsed.scenarios, parsed.methods) == (
        (Scheme.OS, Scheme.SS), (Scenario.KA,), (EvalMethod.QUADRATURE, EvalMethod.MC)
    )
    assert all(type(m) is EvalMethod for m in parsed.methods)
    for field, repeated in (
        ("schemes", (Scheme.SS, "ss")),
        ("scenarios", (Scenario.KA, Scenario.KU, Scenario.KA)),
        ("methods", (EvalMethod.QUADRATURE, EvalMethod.QUADRATURE)),
    ):
        with pytest.raises(ValueError, match=f"{field} must be distinct"):
            _spec(**{field: repeated})
    for bound in ("snr_db_start", "snr_db_stop", "snr_db_step"):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                _spec(**{bound: bad})
    # a stop past the largest linear ratio, and a start that is 0 on the
    # linear scale, are rejected before any grid is built
    with pytest.raises(ValueError, match="too large"):
        _spec(snr_db_stop=1e10, snr_db_step=1.0)
    with pytest.raises(ValueError, match="linear scale"):
        _spec(snr_db_start=-4000.0)
    # a valid range with a tiny step is refused by its point count, before
    # the 3e9-point grid list is built; the limit itself is allowed
    with pytest.raises(ValueError, match="100000 points"):
        _spec(snr_db_stop=3000.0, snr_db_step=1e-6)
    with pytest.raises(ValueError, match="100000 points"):
        _spec(snr_db_stop=3000.0, snr_db_step=5e-324)  # the count overflows to inf
    assert len(snr_grid(_spec(snr_db_stop=99_999.0 / 1024, snr_db_step=1.0 / 1024))) == MAX_SNR_POINTS
    with pytest.raises(ValueError, match="100000 points"):
        _spec(snr_db_stop=100_000.0 / 1024, snr_db_step=1.0 / 1024)
    # a step below the float spacing of the SNR values repeats grid points:
    # 101 points, 23 of them distinct
    with pytest.raises(ValueError, match="repeats points"):
        _spec(snr_db_start=3000.0, snr_db_stop=3000.0 + 1e-11, snr_db_step=1e-13,
              methods=(EvalMethod.ASYMPTOTIC,))


def test_rows_are_lexicographically_sorted():
    spec = _spec(
        schemes=(Scheme.SS, Scheme.OS),
        scenarios=(Scenario.KU, Scenario.KA),
        methods=(EvalMethod.ANALYTIC, EvalMethod.QUADRATURE),
    )
    (result,) = run_sweep(spec)
    # a table of grid points by cases, the cases sorted by their strings
    assert result.sop.shape == result.ci_half_width.shape == result.flag.shape == (len(snr_grid(spec)), 8)
    assert len(result.cases) == 8
    names = [[member.value for member in case] for case in result.cases]
    assert names == sorted(names)
    rows = result.rows
    keys = [(r.snr_db, r.scheme.value, r.scenario.value, r.method.value) for r in rows]
    assert all(key < after for key, after in zip(keys, keys[1:]))
    assert len(rows) == 3 * 2 * 2 * 2


def test_csv_format_contract():
    (result,) = run_sweep(_spec())
    buffer = io.StringIO()
    write_sweep_csv(result, buffer)
    text = buffer.getvalue()

    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert "\r" not in text
    assert text.endswith("\n")
    for line in lines[1:-1]:
        assert not line.endswith(",") or line.count(",") == 6  # empty trailing fields only
    # analytic-only sweeps carry no simulation provenance comment
    assert "#" not in text

    expected_first = analytic_sop(
        SopQuery(
            cfg=SystemConfig(K=2, zeta=0.9, r_th=1.0, snr=1.0, M=6, N=4, a=0.5, b=0.2),
            scheme=Scheme.SS,
            scenario=Scenario.KU,
        )
    ).value
    assert lines[1] == f"0.0,ss,ku,analytic,{expected_first!r},,"


def test_csv_mc_provenance_comment():
    spec = _spec(methods=(EvalMethod.MC,), mc=McSettings(n_samples=4096, seed=7, confidence=0.9))
    buffer = io.StringIO()
    write_sweep_csv(*run_sweep(spec), buffer)
    last_line = buffer.getvalue().rstrip("\n").split("\n")[-1]
    assert last_line == "# mc seed=7 samples=4096 confidence=0.9"


def test_csv_round_trip(tmp_path):
    spec = _spec(
        methods=(EvalMethod.ANALYTIC, EvalMethod.MC),
        mc=McSettings(n_samples=4096, seed=3),
    )
    (result,) = run_sweep(spec)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)

    parsed = read_sweep_csv(path)
    assert len(parsed) == len(result.rows)
    for row, record in zip(result.rows, parsed):
        assert record["snr_db"] == row.snr_db
        assert record["scheme"] is row.scheme
        assert record["scenario"] is row.scenario
        assert record["method"] is row.method
        assert record["sop"] == row.sop  # repr round-trip is exact
        assert record["ci_half_width"] == row.ci_half_width
        assert record["flags"] == row.flags


def test_rerun_reproduces_csv_bytes(tmp_path):
    spec = _spec(
        schemes=(Scheme.SS, Scheme.OS),
        methods=(EvalMethod.ANALYTIC, EvalMethod.MC),
        mc=McSettings(n_samples=8192, seed=12),
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(*run_sweep(spec), first)
    write_sweep_csv(*run_sweep(spec), second)
    assert first.read_bytes() == second.read_bytes()


def test_asymptotic_rows_are_snr_free():
    spec = _spec(methods=(EvalMethod.ASYMPTOTIC,))
    (result,) = run_sweep(spec)
    rows = result.rows
    assert len({r.sop for r in rows}) == 1


def test_batched_sweep_equals_cell_by_cell_evaluation():
    # run_sweep sends its closed-form, floor and quadrature cells to the batch
    # entries; every row must be that cell's own evaluate_cell result
    spec = _spec(
        bases=(SystemConfig(K=3, zeta=0.9, r_th=1.0, snr=1.0, M=4, N=3, a=0.5, b=0.2),),
        snr_db_start=-10.0,
        snr_db_stop=40.0,
        snr_db_step=10.0,
        schemes=(Scheme.SS, Scheme.OS),
        scenarios=(Scenario.KU, Scenario.KA),
        methods=(EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE),
    )
    (result,) = run_sweep(spec)
    rows = result.rows
    assert len(rows) == 6 * 2 * 2 * 3
    for row in rows:
        cfg = SystemConfig(K=3, zeta=0.9, r_th=1.0, snr=db_to_linear(row.snr_db), M=4, N=3, a=0.5, b=0.2)
        cell = evaluate_cell(cfg, row.scheme, row.scenario, row.method, spec.mc)
        assert (row.sop, row.ci_half_width, row.flags) == cell, row


EDGE_BASES = {
    "dead backhaul": SystemConfig(K=3, zeta=0.0, r_th=1.0, snr=1.0, M=4, N=3, a=0.5, b=0.2),
    "one live transmitter": SystemConfig(K=1, zeta=1.0, r_th=1.0, snr=1.0, M=6, N=4, a=0.5, b=0.2),
    "flagged series": SystemConfig(K=20, zeta=0.9, r_th=1.0, snr=1.0, M=10, N=4, a=0.5, b=0.2),
}


def test_edge_sweeps_batched_together_equal_each_alone():
    # zeta = 0 reads no inner value, K = 1 at zeta = 1 collapses the four
    # cases, and K = 20 M = 10 fires the cancellation guard, whose keys the
    # closed form and the floor hand to quadrature; swept as the bases of one spec, each
    # base keeps its own rows, and each row is its cell's own evaluation
    # (the simulation cells too, at a fixed seed)
    spec = _spec(
        bases=tuple(EDGE_BASES.values()),
        snr_db_start=-10.0,
        snr_db_stop=40.0,
        snr_db_step=10.0,
        schemes=(Scheme.SS, Scheme.OS),
        scenarios=(Scenario.KU, Scenario.KA),
        methods=tuple(EvalMethod),
        mc=McSettings(n_samples=1024, seed=3),
    )
    results = run_sweep(spec)
    assert len(results) == len(spec.bases)
    assert [r.rows for r in results] == [run_sweep(replace(spec, bases=(base,)))[0].rows for base in spec.bases]
    for base, result in zip(spec.bases, results):
        assert result.mc == spec.mc
        for row in result.rows:
            cfg = replace(base, snr=db_to_linear(row.snr_db))
            cell = evaluate_cell(cfg, row.scheme, row.scenario, row.method, spec.mc)
            assert (row.sop, row.ci_half_width, row.flags) == cell, row
    dead, single, flagged = results
    assert all(row.sop == 1.0 for row in dead.rows if row.method is not EvalMethod.MC)
    by_point = {}
    for row in single.rows:
        if row.method is EvalMethod.ANALYTIC:
            by_point.setdefault(row.snr_db, set()).add(row.sop)
    assert all(len(values) == 1 for values in by_point.values())
    # a closed-form fallback cell holds its quadrature row's value and names
    # the fallback; a floor fallback cell holds quadrature's value at
    # alpha = 0, the base at r_th = 0 with b scaled by rho (the same beta)
    quadrature = {
        (row.snr_db, row.scheme, row.scenario): row.sop for row in flagged.rows if row.method is EvalMethod.QUADRATURE
    }
    deterministic = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE)
    fallback = {method: [row for row in flagged.rows if row.flags and row.method is method] for method in deterministic}
    assert fallback[EvalMethod.ANALYTIC] and fallback[EvalMethod.ASYMPTOTIC]
    assert not fallback[EvalMethod.QUADRATURE]
    assert all(row.flags == "quadrature_fallback" for rows in fallback.values() for row in rows)
    assert all(row.sop == quadrature[(row.snr_db, row.scheme, row.scenario)] for row in fallback[EvalMethod.ANALYTIC])
    base = EDGE_BASES["flagged series"]
    at_alpha_zero = replace(base, r_th=0.0, b=base.rho * base.b)
    for row in fallback[EvalMethod.ASYMPTOTIC]:
        assert row.sop == quadrature_sop(SopQuery(at_alpha_zero, row.scheme, row.scenario)), row


def test_held_figure_result_keeps_few_bytes_per_row():
    # a held result keeps its cells as a table: 17 bytes of values and codes
    # per row, plus the grid and the arrays' headers; rows are rebuilt on
    # each access
    methods = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE)
    run_figure("fig2", methods=methods)  # fill the caches the measured run reads
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_figure("fig2", methods=methods)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    n_rows = sum(len(sweep.rows) for _, sweep in result.per_variant)
    assert n_rows == 4 * 26 * 2 * 3
    assert held <= 32 * n_rows, held / n_rows
    for _, sweep in result.per_variant:
        assert sweep.rows is not sweep.rows
        assert sweep.rows == sweep.rows


def _recording_routes(monkeypatch) -> list:
    """Replace every route by one that records its batch's (cfg, scheme, scenario) cells and returns each cell's index as its sop.

    Monte Carlo's batch is its cell list, every other route's a ``CasePlan`` of it.
    """
    seen = []

    def recorder(method):
        def record(batch, mc):
            cells = batch if method is EvalMethod.MC else batch.cells
            start = len(seen)
            seen.extend(cells)
            return [float(start + i) for i in range(len(cells))], None, [0] * len(cells)

        return record

    for method in EvalMethod:
        monkeypatch.setitem(sweep_module._ROUTES, method, recorder(method))
    return seen


def _assert_cells_at_grid_points(pairs, seen):
    """Every row's cell holds its spec's base at the row's snr, field for field, and the row's enums."""
    for base, result in pairs:
        for row in result.rows:
            cfg, scheme, scenario = seen[int(row.sop)]
            expected = replace(base, snr=db_to_linear(row.snr_db))
            assert (type(scheme), type(scenario)) == (Scheme, Scenario)
            assert (scheme, scenario) == (row.scheme, row.scenario)
            assert type(cfg) is SystemConfig and cfg == expected
            assert {k: (type(v), v) for k, v in vars(cfg).items()} == {
                k: (type(v), v) for k, v in vars(expected).items()
            }


@pytest.mark.parametrize("scenario", [Scenario.KU, Scenario.KA])
@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_grid_point_configs_equal_a_replaced_base_on_every_preset(monkeypatch, name, scenario):
    # run_sweep skips re-checking the validated bases at each grid point; the
    # config it builds must still be the one replace() builds
    seen = _recording_routes(monkeypatch)
    result = run_figure(name, scenario=scenario, methods=tuple(EvalMethod))
    assert len(seen) == sum(len(r.rows) for _, r in result.per_variant)
    _assert_cells_at_grid_points(result.per_variant, seen)


def test_grid_point_configs_equal_a_replaced_base_on_edge_bases(monkeypatch):
    seen = _recording_routes(monkeypatch)
    spec = _spec(
        bases=tuple(EDGE_BASES.values()),
        snr_db_start=-10.0,
        snr_db_stop=40.0,
        snr_db_step=2.5,
        schemes=(Scheme.SS, Scheme.OS),
        scenarios=(Scenario.KU, Scenario.KA),
        methods=tuple(EvalMethod),
    )
    _assert_cells_at_grid_points(zip(spec.bases, run_sweep(spec)), seen)
