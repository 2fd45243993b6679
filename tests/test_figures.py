import csv
import io
import json
from dataclasses import replace

import pytest

from secrecy_outage import McSettings, Scenario, Scheme
from secrecy_outage import sweep as sweep_module
from secrecy_outage.figures import (
    FIGURE_CSV_HEADER,
    FIGURE_PRESETS,
    available_presets,
    plot_description,
    run_figure,
    sweep_plot_description,
    write_figure_csv,
    write_plot_description,
)
from secrecy_outage.sweep import (
    CSV_HEADER,
    EvalMethod,
    SweepRow,
    SweepSpec,
    db_to_linear,
    evaluate_cell,
    run_sweep,
    write_sweep_csv,
)


def test_closed_form_matches_quadrature_on_every_preset():
    # every analytic row of every preset, in both scenarios, within 1e-8 of
    # the quadrature row at the same variant, SNR and case
    methods = (EvalMethod.ANALYTIC, EvalMethod.QUADRATURE)
    for name in available_presets():
        for scenario in (Scenario.KU, Scenario.KA):
            result = run_figure(name, scenario=scenario, methods=methods)
            for cfg, sweep in result.per_variant:
                by_method = {method: {} for method in methods}
                for row in sweep.rows:
                    by_method[row.method][(row.snr_db, row.scheme, row.scenario)] = row.sop
                quad = by_method[EvalMethod.QUADRATURE]
                assert by_method[EvalMethod.ANALYTIC].keys() == quad.keys()
                for key, value in by_method[EvalMethod.ANALYTIC].items():
                    assert value == pytest.approx(quad[key], abs=1e-8), (name, cfg, key)


def test_preset_catalog():
    assert available_presets() == ["fig2", "fig3", "fig4", "fig5"]


def test_preset_variants_vary_the_named_parameter():
    fig2 = FIGURE_PRESETS["fig2"]
    assert sorted({(c.K, c.zeta) for c in fig2.variants}) == [
        (2, 0.9), (2, 0.99), (5, 0.9), (5, 0.99),
    ]
    assert {(c.M, c.N, c.a, c.b, c.r_th) for c in fig2.variants} == {
        (6, 4, 0.5, 0.2, 1.0)
    }
    fig3 = FIGURE_PRESETS["fig3"]
    assert [c.M for c in fig3.variants] == [2, 4, 6]
    assert {(c.K, c.zeta, c.N, c.a, c.b) for c in fig3.variants} == {
        (5, 0.9, 4, 0.5, 0.2)
    }
    fig4 = FIGURE_PRESETS["fig4"]
    assert [c.N for c in fig4.variants] == [2, 4, 6]
    assert {(c.K, c.zeta, c.M, c.a, c.b) for c in fig4.variants} == {
        (5, 0.9, 4, 0.5, 0.2)
    }
    fig5 = FIGURE_PRESETS["fig5"]
    assert [c.a for c in fig5.variants] == [0.2, 0.5, 1.0]
    assert {(c.K, c.zeta, c.M, c.N, c.b) for c in fig5.variants} == {
        (5, 0.9, 6, 4, 0.2)
    }


def test_unknown_preset():
    with pytest.raises(KeyError, match="fig9"):
        run_figure("fig9")


@pytest.fixture(scope="module")
def fig5_analytic():
    return run_figure("fig5", methods=(EvalMethod.ANALYTIC,))


def test_figure_rows_cover_the_preset_grid(fig5_analytic):
    assert len(fig5_analytic.per_variant) == 3
    for cfg, sweep_result in fig5_analytic.per_variant:
        snrs = sorted({r.snr_db for r in sweep_result.rows})
        assert snrs[0] == -10.0 and snrs[-1] == 40.0 and len(snrs) == 26
        assert {r.scheme for r in sweep_result.rows} == {Scheme.SS, Scheme.OS}


def test_figure_monotone_in_gain_ratio(fig5_analytic):
    # at each SNR point the outage must drop as the destination gain grows
    for scheme in (Scheme.SS, Scheme.OS):
        curves = []
        for cfg, sweep_result in fig5_analytic.per_variant:
            rows = {r.snr_db: r.sop for r in sweep_result.rows if r.scheme is scheme}
            curves.append(rows)
        for snr_db in (0.0, 20.0, 40.0):
            assert curves[0][snr_db] > curves[1][snr_db] > curves[2][snr_db]


def test_figure_csv_header_and_config_columns(fig5_analytic, tmp_path):
    path = tmp_path / "fig5.csv"
    write_figure_csv(fig5_analytic, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(FIGURE_CSV_HEADER)
    gains = {line.split(",")[12] for line in lines[1:] if line and not line.startswith("#")}
    assert gains == {"0.2", "0.5", "1.0"}
    assert "#" not in lines[-1]  # analytic only: no simulation comment
    # the first seven columns are each variant's own sweep CSV, row for row
    sweep_lines = []
    for _, sweep_result in fig5_analytic.per_variant:
        buffer = io.StringIO()
        write_sweep_csv(sweep_result, buffer)
        sweep_lines.extend(buffer.getvalue().splitlines()[1:])
    assert [",".join(line.split(",")[:7]) for line in lines[1:]] == sweep_lines


def test_figure_csv_mc_comment(tmp_path):
    result = run_figure("fig2", mc=McSettings(n_samples=2048, seed=5),
                        methods=(EvalMethod.MC,))
    path = tmp_path / "fig2.csv"
    write_figure_csv(result, path)
    assert path.read_text(encoding="utf-8").rstrip("\n").splitlines()[-1] == (
        "# mc seed=5 samples=2048 confidence=0.99"
    )


def test_scenario_override():
    result = run_figure("fig3", methods=(EvalMethod.ANALYTIC,), scenario=Scenario.KA)
    scenarios = {
        r.scenario for _, sweep_result in result.per_variant for r in sweep_result.rows
    }
    assert scenarios == {Scenario.KA}


def test_plot_description_structure(fig5_analytic, tmp_path):
    description = plot_description(fig5_analytic)
    assert description["kind"] == "line-plot"
    assert description["y_axis"]["scale"] == "log"
    # 3 variants x 2 schemes x 1 scenario x 1 method
    assert len(description["series"]) == 6
    first = description["series"][0]
    assert first["config"]["b"] == 0.2
    assert len(first["points"]) == 26
    assert set(first["points"][0]) == {"x", "y"}

    target = tmp_path / "fig5.json"
    write_plot_description(description, target)
    assert json.loads(target.read_text(encoding="utf-8")) == description


@pytest.mark.parametrize("scenario", [Scenario.KU, Scenario.KA])
@pytest.mark.parametrize("name", available_presets())
def test_plot_json_is_compact_and_the_same_for_both_targets(name, scenario, tmp_path):
    # the plot file, the one target, holds one line of compact JSON, which
    # parses back to the description
    result = run_figure(
        name, scenario=scenario, mc=McSettings(n_samples=1024, seed=3),
        methods=(EvalMethod.ANALYTIC, EvalMethod.MC),
    )
    description = plot_description(result)
    path = tmp_path / "plot.json"
    write_plot_description(description, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(description) + "\n"
    assert json.loads(text) == plot_description(result)


def test_mc_points_carry_ci():
    result = run_figure("fig2", mc=McSettings(n_samples=2048, seed=5),
                        methods=(EvalMethod.MC,))
    description = plot_description(result)
    assert all(
        set(point) == {"x", "y", "ci"}
        for series in description["series"]
        for point in series["points"]
    )


def test_sweep_plot_description_labels(fig5_analytic):
    cfg, sweep_result = fig5_analytic.per_variant[0]
    description = sweep_plot_description(cfg, sweep_result)
    assert [s["label"] for s in description["series"]] == [
        "os/ku [analytic]",
        "ss/ku [analytic]",
    ]


# ---------------------------------------------------------------------------
# one batch per figure job: the same rows as one sweep per variant
# ---------------------------------------------------------------------------

DETERMINISTIC = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE)


def _variant_spec(cfg, scenario, methods, mc=None):
    # the grid, schemes and scenarios run_figure gives each variant
    return SweepSpec(
        bases=(cfg,),
        snr_db_start=-10.0,
        snr_db_stop=40.0,
        snr_db_step=2.0,
        schemes=(Scheme.SS, Scheme.OS),
        scenarios=(scenario,),
        methods=methods,
        mc=mc if mc is not None else McSettings(),
    )


@pytest.mark.parametrize("scenario", [Scenario.KU, Scenario.KA])
@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
def test_figure_job_equals_sweeps_per_variant(name, scenario):
    # a job evaluates all its variants' cells in one batch per route; its
    # rows are each variant's own run_sweep rows, bit for bit
    result = run_figure(name, scenario=scenario, methods=DETERMINISTIC)
    variants = FIGURE_PRESETS[name].variants
    assert [cfg for cfg, _ in result.per_variant] == list(variants)
    for cfg, sweep in result.per_variant:
        (alone,) = run_sweep(_variant_spec(cfg, scenario, DETERMINISTIC))
        assert sweep.rows == alone.rows and sweep.mc is None is alone.mc
        # and a spread of them against the one-cell evaluation
        for row in sweep.rows[::29]:
            cell = evaluate_cell(
                replace(cfg, snr=db_to_linear(row.snr_db)), row.scheme, row.scenario, row.method, McSettings()
            )
            assert (row.sop, row.ci_half_width, row.flags) == cell, (name, cfg, row)


def test_mc_figure_cells_run_one_by_one_in_row_order(monkeypatch):
    # simulation cells run one simulate_sop each, variant by variant in row
    # order, and reproduce each variant's own sweep at a fixed seed
    mc = McSettings(n_samples=1024, seed=5)
    methods = (EvalMethod.ANALYTIC, EvalMethod.MC)
    expected = [
        run_sweep(_variant_spec(cfg, Scenario.KU, methods, mc))[0].rows
        for cfg in FIGURE_PRESETS["fig2"].variants
    ]
    calls = []
    real = sweep_module.simulate_sop

    def recording(query, settings, *args, **kwargs):
        calls.append((query, settings))
        return real(query, settings, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "simulate_sop", recording)
    result = run_figure("fig2", mc=mc, methods=methods)
    assert [sweep.rows for _, sweep in result.per_variant] == expected
    assert all(sweep.mc == mc for _, sweep in result.per_variant)
    mc_rows = [
        (cfg, row) for cfg, sweep in result.per_variant for row in sweep.rows if row.method is EvalMethod.MC
    ]
    assert [(q.cfg.K, q.cfg.zeta, q.cfg.snr, q.scheme, q.scenario, settings) for q, settings in calls] == [
        (cfg.K, cfg.zeta, db_to_linear(row.snr_db), row.scheme, row.scenario, mc)
        for cfg, row in mc_rows
    ]


_QUOTED = set(',"\r\n')  # characters that make csv.writer quote a field


def _csv_module_rendering(header, records, mc) -> str:
    """The same (SweepRow, extra fields) records through ``csv.writer``; no field may need quoting."""
    fields = [list(header)]
    for row, extra in records:
        ci = "" if row.ci_half_width is None else repr(float(row.ci_half_width))
        fields.append(
            [repr(float(row.snr_db)), row.scheme.value, row.scenario.value, row.method.value,
             repr(float(row.sop)), ci, row.flags, *extra]
        )
    for line in fields:
        for field in line:
            assert not _QUOTED & set(field), f"field {field!r} would be quoted"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(fields)
    if mc is not None:
        buffer.write(f"# mc seed={mc.seed} samples={mc.n_samples} confidence={mc.confidence!r}\n")
    return buffer.getvalue()


def _config_fields(cfg) -> list[str]:
    return [str(cfg.K), repr(cfg.zeta), repr(cfg.r_th), str(cfg.M), str(cfg.N), repr(cfg.a), repr(cfg.b)]


@pytest.mark.parametrize("scenario", [Scenario.KU, Scenario.KA])
@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_joined_csv_lines_equal_the_csv_module(name, scenario):
    # every route, Monte Carlo included (its CI, low-confidence flags and the
    # trailing comment), written as joined lines, reads as csv.writer writes it
    mc = McSettings(n_samples=1024, seed=9)
    result = run_figure(name, mc=mc, scenario=scenario, methods=tuple(EvalMethod))
    rows = [row for _, sweep_result in result.per_variant for row in sweep_result.rows]
    assert any(row.ci_half_width is not None for row in rows)
    assert any(row.flags == "low_confidence" for row in rows)
    buffer = io.StringIO()
    write_figure_csv(result, buffer)
    records = [
        (row, _config_fields(cfg)) for cfg, sweep_result in result.per_variant for row in sweep_result.rows
    ]
    assert buffer.getvalue() == _csv_module_rendering(FIGURE_CSV_HEADER, records, mc)
    for _, sweep_result in result.per_variant:
        buffer = io.StringIO()
        write_sweep_csv(sweep_result, buffer)
        records = [(row, []) for row in sweep_result.rows]
        assert buffer.getvalue() == _csv_module_rendering(CSV_HEADER, records, mc)


def test_csv_comparison_refuses_a_field_that_needs_quoting():
    row = SweepRow(0.0, Scheme.SS, Scenario.KU, EvalMethod.ANALYTIC, 0.5, None, "a,b")
    with pytest.raises(AssertionError, match="would be quoted"):
        _csv_module_rendering(CSV_HEADER, [(row, [])], None)
