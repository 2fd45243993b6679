"""One benchmark child process: set up, run a workload's ops, print one JSON line.

``run.py`` starts this file with a JSON spec as its only argument:

- ``workload``: ``validate_grid``, ``closed_form_scaling`` or ``figure_sweep``
- ``mode``: ``setup`` (import and build the inputs, then stop), ``run``, or
  ``peak_alloc`` (one cold closed-form call under ``tracemalloc``)
- ``spawn_t``: ``time.monotonic()`` in the parent just before the start
- ``seed``, ``seconds``, ``tiny``, ``trace``, ``out_dir``
- ``pauses``: how many times the ``run`` mode stops between ops, evenly
  spread, so that ``run.py`` can time a set-up-only child meanwhile: it
  prints ``pause`` and goes on when it reads ``go``
- ``point``: ``[K, M]`` for ``closed_form_scaling`` and ``peak_alloc``
- ``mem_cap``: address-space cap in bytes for this process, or null

Each op is timed on its own.  Reference values and correctness checks run
after the timed phase, so none of them is inside any timing.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer

# Nominal costs on the 2-core reference machine.  They size the op lists so
# that a run measures about ``--seconds``; the same ``--seconds`` always
# gives the same ops.
NOMINAL_VALIDATE_TRIPLE_S = 1.35  # one K=1, one K=2 and one K=5 cell
NOMINAL_FIGURE_PASS_S = 1.8  # the 8 figure jobs

# Cells are taken from each 48-cell K stratum with stride 29, which is
# coprime with 48: any prefix spreads over zeta, SNR and case.
STRATUM_STRIDE = 29

CFS_SNR_DBS = (0.0, 10.0, 20.0, 30.0)
FLOOR_REFERENCE_SNR_DB = 200.0
FLOOR_REL_TOL = 1e-4
ANALYTIC_QUADRATURE_TOL = 1e-8


def series_terms(K: int, M: int) -> int:
    """Computed composition x q terms of one strongest-destination series:
    C(k+M-1, M-1) compositions times the k(M-1)+1 values of q, for k <= K."""
    return sum(math.comb(k + M - 1, M - 1) * (k * (M - 1) + 1) for k in range(1, K + 1))


class Workload:
    """An op list with a call, reference values and a check per op."""

    ops: list

    def references(self, api) -> None:
        """Compute reference values, after the timed phase."""

    def close(self) -> None:
        """Release what the inputs hold."""


class ValidateGrid(Workload):
    """Triple-agreement cells of the ``sop validate`` grid, interleaving the K strata."""

    def __init__(self, spec: dict):
        from secrecy_outage import McSettings, Scenario, Scheme, SopQuery, ValidationSettings

        self.settings = ValidationSettings()
        strata: dict[int, list] = {}
        for cfg in self.settings.grid_configs():
            for scheme in (Scheme.SS, Scheme.OS):
                for scenario in (Scenario.KU, Scenario.KA):
                    strata.setdefault(cfg.K, []).append(SopQuery(cfg, scheme, scenario))
        size = len(strata[self.settings.ks[0]])
        order = [(p * STRATUM_STRIDE) % size for p in range(size)]
        if spec["tiny"]:
            triples, samples = 1, 1 << 16
        else:
            triples = min(size, max(1, round(spec["seconds"] / NOMINAL_VALIDATE_TRIPLE_S)))
            samples = self.settings.mc_samples
        self.ops = [strata[K][j] for j in order[:triples] for K in self.settings.ks]
        self.mc = McSettings(n_samples=samples, seed=spec["seed"], confidence=self.settings.confidence)

    def call(self, api, query):
        closed = api.analytic_sop(query).value
        quad = api.quadrature_sop(query)
        return closed, quad, api.simulate_sop(query, self.mc, workers=1)

    def check(self, index: int, out) -> str | None:
        """The three routes of a cell are each other's references."""
        closed, quad, estimate = out
        if abs(closed - quad) > self.settings.analytic_quadrature_tol:
            return f"|closed-quad| {abs(closed - quad):.3e}"
        allowed = max(3.0 * estimate.ci_half_width, self.settings.mc_tolerance_floor)
        if abs(closed - estimate.p_hat) > allowed:
            return f"|closed-mc| {abs(closed - estimate.p_hat):.3e} > {allowed:.3e}"
        return None


class SeriesNotRun(Exception):
    """An op that needs a composition series whose build raised earlier."""


class ClosedFormPoint(Workload):
    """Every closed-form and floor op of one (K, M) point, in a fixed order.

    Strongest-destination ops share the point's composition series; once
    one of them raises, the rest fail with ``SeriesNotRun`` without being run.
    """

    def __init__(self, spec: dict):
        from secrecy_outage import Scenario, Scheme, SopQuery, SystemConfig
        from secrecy_outage.sweep import db_to_linear

        K, M = spec["point"]
        self.ops = []
        for scheme in (Scheme.SS, Scheme.OS):
            for scenario in (Scenario.KU, Scenario.KA):
                for snr_db in CFS_SNR_DBS:
                    cfg = SystemConfig(
                        K=K, zeta=0.9, r_th=1.0, snr=db_to_linear(snr_db), M=M, N=4, a=0.5, b=0.2
                    )
                    query = SopQuery(cfg, scheme, scenario)
                    for method in ("analytic", "asymptotic"):
                        self.ops.append((method, query))
        self.reference: list[float] = []
        self.floor_snr = db_to_linear(FLOOR_REFERENCE_SNR_DB)
        self.series_error: str | None = None

    def call(self, api, op):
        from secrecy_outage import Scheme

        method, query = op
        series = query.scheme is Scheme.SS
        if series and self.series_error:
            raise SeriesNotRun(self.series_error)
        fn = api.analytic_sop if method == "analytic" else api.asymptotic_sop
        try:
            return fn(query).value
        except Exception as exc:
            if series:
                self.series_error = type(exc).__name__
            raise

    def references(self, api) -> None:
        """Quadrature at the op's SNR for the closed form, at 200 dB for the floor."""
        cache: dict = {}
        for method, query in self.ops:
            if method == "asymptotic":
                query = replace(query, cfg=replace(query.cfg, snr=self.floor_snr))
            if query not in cache:
                cache[query] = api.quadrature_sop(query)
            self.reference.append(cache[query])

    def check(self, index: int, out) -> str | None:
        method = self.ops[index][0]
        ref = self.reference[index]
        tol = ANALYTIC_QUADRATURE_TOL if method == "analytic" else FLOOR_REL_TOL * ref
        if not 0.0 <= out <= 1.0 or abs(out - ref) > tol:
            return f"{method} {out!r} vs quadrature {ref!r} (tolerance {tol:.3e})"
        return None


class FigureSweep(Workload):
    """Repeated passes over the 4 presets x {ku, ka} figure jobs without simulation."""

    def __init__(self, spec: dict):
        from secrecy_outage import FIGURE_PRESETS, EvalMethod, Scenario

        self.methods = (EvalMethod.ANALYTIC, EvalMethod.ASYMPTOTIC, EvalMethod.QUADRATURE)
        jobs = [(name, s) for name in sorted(FIGURE_PRESETS) for s in (Scenario.KU, Scenario.KA)]
        if spec["tiny"]:
            jobs, passes = jobs[:2], 1
        else:
            passes = max(1, round(spec["seconds"] / NOMINAL_FIGURE_PASS_S))
        self.ops = [(i, name, s) for i, (name, s) in enumerate(jobs * passes)]
        self.dir = Path(tempfile.mkdtemp(prefix="figures-", dir=spec["out_dir"]))

    def paths(self, i: int) -> tuple[Path, Path]:
        return self.dir / f"{i}.csv", self.dir / f"{i}.json"

    def call(self, api, op):
        i, name, scenario = op
        result = api.run_figure(name, scenario=scenario, methods=self.methods)
        csv_path, json_path = self.paths(i)
        api.write_figure_csv(result, csv_path)
        api.write_plot_description(api.plot_description(result), json_path)
        return result

    def check(self, index: int, result) -> str | None:
        """Quadrature rows in each job's own output are the references."""
        from secrecy_outage import EvalMethod
        from secrecy_outage.sweep import read_sweep_csv

        rows = [(cfg, row) for cfg, sweep in result.per_variant for row in sweep.rows]
        quad = {
            (cfg, row.snr_db, row.scheme, row.scenario): row.sop
            for cfg, row in rows
            if row.method is EvalMethod.QUADRATURE
        }
        for cfg, row in rows:
            if not (math.isfinite(row.sop) and 0.0 <= row.sop <= 1.0):
                return f"{row.method.value} value {row.sop!r} outside [0, 1]"
            if row.method is EvalMethod.ANALYTIC:
                gap = abs(row.sop - quad[(cfg, row.snr_db, row.scheme, row.scenario)])
                if gap > ANALYTIC_QUADRATURE_TOL:
                    return f"|analytic-quadrature| {gap:.3e} at {row.snr_db} dB"
        parsed = read_sweep_csv(self.paths(self.ops[index][0])[0])
        if len(parsed) != len(rows):
            return f"csv has {len(parsed)} rows, result has {len(rows)}"
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "validate_grid": ValidateGrid,
    "closed_form_scaling": ClosedFormPoint,
    "figure_sweep": FigureSweep,
}


def plain_api():
    import secrecy_outage as so
    from secrecy_outage import figures

    return SimpleNamespace(
        analytic_sop=so.analytic_sop,
        asymptotic_sop=so.asymptotic_sop,
        quadrature_sop=so.quadrature_sop,
        simulate_sop=so.simulate_sop,
        run_figure=so.run_figure,
        write_figure_csv=figures.write_figure_csv,
        plot_description=figures.plot_description,
        write_plot_description=figures.write_plot_description,
    )


def traced_api(tracer: Tracer, api):
    """Timing wrappers on the public calls, plus rebinds of names the package imports."""
    from secrecy_outage import Scheme, montecarlo, quadrature, sweep

    counters, values = tracer.counters, tracer.values
    cached: set[tuple[int, int]] = set()  # (k, M) pairs the composition cache holds

    def series_call(query) -> bool:
        """Count a strongest-destination call's series work; True if it had to build."""
        cfg = query.cfg
        new = [k for k in range(1, cfg.K + 1) if (k, cfg.M) not in cached]
        cached.update((k, cfg.M) for k in new)
        counters["numerics.compositions"] += sum(math.comb(k + cfg.M - 1, cfg.M - 1) for k in new)
        return bool(new)

    def on_analytic(value, args, seconds):
        query = args[0]
        counters["analytic.flagged"] += value.significance_flag
        cold = False
        if Scheme(query.scheme) is Scheme.SS:
            cold = series_call(query)
            counters["numerics.series_terms"] += series_terms(query.cfg.K, query.cfg.M)
            values["series_points"].append((query.cfg.K, query.cfg.M))
        values["analytic.cold" if cold else "analytic.warm"].append(seconds)

    def on_asymptotic(value, args, seconds):
        counters["analytic.flagged"] += value.significance_flag
        if Scheme(args[0].scheme) is Scheme.SS:
            series_call(args[0])

    def on_simulate(estimate, args, seconds):
        counters["montecarlo.samples"] += estimate.n_samples
        counters["montecarlo.outage_count"] += round(estimate.p_hat * estimate.n_samples)

    def on_draw(result, args, seconds):
        cfg, _, n = args
        # exponential path energies, backhaul uniforms, then the three outputs
        counters["channel.draw_bytes"] += 8 * n * cfg.K * (cfg.M + cfg.N) + 8 * n * cfg.K + n * cfg.K * 17

    def on_csv(result, args, seconds):
        counters["figures.csv_bytes"] += Path(args[1]).stat().st_size

    build_integrand = quadrature.build_integrand

    def counting_build_integrand(query):
        integrand = build_integrand(query)

        def destination_cdf(x):
            counters["quadrature.panels"] += 1  # one vectorised call per panel
            return integrand.destination_cdf(x)

        return replace(integrand, destination_cdf=destination_cdf)

    wrap = tracer.wrap
    traced = SimpleNamespace(
        analytic_sop=wrap("analytic.analytic_sop", api.analytic_sop, on_analytic),
        asymptotic_sop=wrap("analytic.asymptotic_sop", api.asymptotic_sop, on_asymptotic),
        quadrature_sop=wrap(
            "quadrature.quadrature_sop", api.quadrature_sop,
            lambda value, args, seconds: values["quadrature.latency"].append(seconds),
        ),
        simulate_sop=wrap("montecarlo.simulate_sop", api.simulate_sop, on_simulate),
        run_figure=wrap("figures.run_figure", api.run_figure),
        write_figure_csv=wrap("figures.write_figure_csv", api.write_figure_csv, on_csv),
        plot_description=wrap("figures.plot_description", api.plot_description),
        write_plot_description=wrap("figures.write_plot_description", api.write_plot_description),
    )
    tracer.rebind(montecarlo, "make_rng", wrap("channel.make_rng", montecarlo.make_rng))
    tracer.rebind(
        montecarlo, "sample_channel_block",
        wrap("channel.sample_channel_block", montecarlo.sample_channel_block, on_draw),
    )
    tracer.rebind(
        montecarlo, "secrecy_outage_indicator",
        wrap("montecarlo.secrecy_outage_indicator", montecarlo.secrecy_outage_indicator),
    )
    tracer.rebind(sweep, "evaluate_cell", wrap("sweep.evaluate_cell", sweep.evaluate_cell))
    tracer.rebind(sweep, "analytic_sop", traced.analytic_sop)
    tracer.rebind(sweep, "asymptotic_sop", traced.asymptotic_sop)
    tracer.rebind(sweep, "quadrature_sop", traced.quadrature_sop)
    tracer.rebind(quadrature, "build_integrand", counting_build_integrand)
    return traced


def layer_totals(tracer: Tracer) -> dict:
    """Additive per-layer sums and the raw latency lists; run.py derives the rest."""
    c = tracer.counters
    sums = {
        "channel.rng_s": tracer.inclusive("channel.make_rng"),
        "channel.draw_s": tracer.inclusive("channel.sample_channel_block"),
        "channel.draw_bytes": c["channel.draw_bytes"],
        "montecarlo.calls": tracer.count("montecarlo.simulate_sop"),
        "montecarlo.self_s": tracer.inclusive("montecarlo.simulate_sop"),
        "montecarlo.samples": c["montecarlo.samples"],
        "montecarlo.chunks": tracer.count("channel.make_rng"),
        "montecarlo.outage_count": c["montecarlo.outage_count"],
        "numerics.compositions": c["numerics.compositions"],
        "numerics.series_terms": c["numerics.series_terms"],
        "analytic.calls": tracer.count("analytic.analytic_sop") + tracer.count("analytic.asymptotic_sop"),
        "analytic.self_s": tracer.self_time("analytic.analytic_sop") + tracer.self_time("analytic.asymptotic_sop"),
        "analytic.flagged": c["analytic.flagged"],
        "quadrature.calls": tracer.count("quadrature.quadrature_sop"),
        "quadrature.self_s": tracer.self_time("quadrature.quadrature_sop"),
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.failed": c["quadrature.quadrature_sop.raised"],
        "sweep.rows": tracer.count("sweep.evaluate_cell"),
        "sweep.evaluate_cell_s": tracer.inclusive("sweep.evaluate_cell"),
        "figures.run_figure_s": tracer.inclusive("figures.run_figure"),
        "figures.write_s": sum(
            tracer.inclusive(name)
            for name in ("figures.write_figure_csv", "figures.plot_description", "figures.write_plot_description")
        ),
        "figures.csv_bytes": c["figures.csv_bytes"],
    }
    lists = {name: tracer.values[name] for name in ("analytic.cold", "analytic.warm", "quadrature.latency")}
    return {"sums": sums, "lists": lists}


def enumerate_seconds(points) -> float:
    """Time to list the weak compositions of every k <= K, per distinct (K, M)."""
    from secrecy_outage import enumerate_weak_compositions

    total = 0.0
    for K, M in sorted(set(points)):
        start = time.perf_counter()
        for k in range(1, K + 1):
            list(enumerate_weak_compositions(k, M))
        total += time.perf_counter() - start
    return total


def other_checks_seconds(tiny: bool) -> float:
    """``run_validation`` over every check except the triple agreement."""
    import os

    from secrecy_outage import ValidationSettings, run_validation
    from secrecy_outage.validation import CHECKS

    nproc = len(os.sched_getaffinity(0))
    settings = ValidationSettings.smoke() if tiny else ValidationSettings()
    settings = replace(
        settings, determinism_workers=tuple(w for w in settings.determinism_workers if w <= nproc)
    )
    names = tuple(name for name in CHECKS if name != "triple_agreement")
    start = time.perf_counter()
    results = run_validation(settings, names)
    seconds = time.perf_counter() - start
    failed = [r.line() for r in results if not r.passed]
    if failed:
        raise RuntimeError("validation checks failed: " + "; ".join(failed))
    return seconds


def peak_alloc_mb(K: int, M: int) -> float:
    """Peak traced allocation of one cold strongest-destination closed form."""
    from secrecy_outage import Scenario, Scheme, SopQuery, SystemConfig, analytic_sop

    query = SopQuery(SystemConfig(K=K, zeta=0.9, r_th=1.0, snr=1.0, M=M, N=4, a=0.5, b=0.2),
                     Scheme.SS, Scenario.KU)
    tracemalloc.start()
    try:
        analytic_sop(query)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def pause() -> float:
    """Wait while run.py times a set-up-only child; return the seconds waited."""
    start = time.perf_counter()
    print("pause", flush=True)
    if sys.stdin.readline() != "go\n":
        raise RuntimeError("run.py did not say go")
    return time.perf_counter() - start


def run(spec: dict, workload) -> dict:
    api = plain_api()
    tracer = Tracer() if spec["trace"] else None
    timed_api = traced_api(tracer, api) if tracer else api
    outputs: list = []  # (output, error, seconds) per op, in order
    n, pauses = len(workload.ops), spec["pauses"]
    pause_before = {round(i * n / (pauses + 1)) for i in range(1, pauses + 1)}
    paused_s = 0.0
    start_phase = time.perf_counter()
    for index, op in enumerate(workload.ops):
        if index in pause_before:
            paused_s += pause()
        if tracer:
            tracer.op = index
        start = time.perf_counter()
        try:
            if tracer:
                out = tracer.span("op", workload.call, timed_api, op)
            else:
                out = workload.call(timed_api, op)
        except Exception as exc:  # counted as a failed op; the run goes on
            outputs.append((None, type(exc).__name__, time.perf_counter() - start))
            continue
        outputs.append((out, None, time.perf_counter() - start))
    wall_s = time.perf_counter() - start_phase - paused_s
    if tracer:
        tracer.restore()
        tracer.op = None

    workload.references(api)
    latencies, errors, wrong = [], {}, []
    for index, (out, error, seconds) in enumerate(outputs):
        if error is None:
            error = workload.check(index, out)
            if error is not None:
                wrong.append(f"op {index}: {error}")
                error = "outside tolerance"
        if error is None:
            latencies.append(seconds * 1e3)
        else:
            errors[error] = errors.get(error, 0) + 1
    record = {
        "attempted": len(outputs),
        "failed": len(outputs) - len(latencies),
        "wrong": wrong,
        "errors": errors,
        "latencies_ms": latencies,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers = layer_totals(tracer)
        series_points = tracer.values["series_points"]
        layers["series_points"] = sorted(set(series_points))
        layers["sums"]["numerics.enumerate_s"] = enumerate_seconds(series_points)
        layers["sums"]["validation.other_checks_s"] = (
            other_checks_seconds(spec["tiny"]) if spec["workload"] == "validate_grid" else 0.0
        )
        name = f"spans-{spec['workload']}"
        if spec["workload"] == "closed_form_scaling":
            name += "-K{}-M{}".format(*spec["point"])
        tracer.write(Path(spec["out_dir"]) / f"{name}.jsonl")
        record["layers"] = layers
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("mem_cap"):
        resource.setrlimit(resource.RLIMIT_AS, (spec["mem_cap"], spec["mem_cap"]))
    import secrecy_outage  # noqa: F401  (part of setup_s)

    if spec["mode"] == "peak_alloc":
        print(json.dumps({"peak_alloc_mb": peak_alloc_mb(*spec["point"])}))
        return 0
    workload = WORKLOADS[spec["workload"]](spec)
    setup_s = time.monotonic() - spec["spawn_t"]
    try:
        record = {"setup_s": setup_s}
        if spec["mode"] == "run":
            record |= run(spec, workload)
    finally:
        workload.close()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
