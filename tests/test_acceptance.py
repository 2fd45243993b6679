"""Acceptance gate: one test per advertised guarantee, full tolerances.

Each test drives the corresponding validation check at its acceptance-grade
settings (full grid, one million simulation samples, fixed seed zero) so the
pytest report carries one pass/fail line per guarantee.  The first and last
tests read one run of the public ``validate`` subcommand end to end, whose
triple agreement is the full-grid check.
"""

import contextlib
import io
import re

import pytest

from secrecy_outage.cli import main
from secrecy_outage.validation import (
    ValidationSettings,
    check_asymptotic_floors,
    check_determinism,
    check_floors,
    check_gain_ratio_effect,
    check_identities,
    check_multipath_effect,
    check_orderings,
)


@pytest.fixture(scope="module")
def settings():
    return ValidationSettings()


@pytest.fixture(scope="module")
def validate_run():
    """The return code and printed report of one ``sop validate`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["validate"])
    return rc, out.getvalue()


@pytest.mark.slow
def test_criterion_1_triple_agreement_on_full_grid(validate_run):
    # 144 cells: 2 schemes x 2 scenarios x K in {1,2,5} x zeta in
    # {0.9,0.99,1} x SNR in {0,10,20,30} dB; closed form within 1e-8 of
    # quadrature and within max(3 CI, 1e-3) of a 1e6-sample simulation,
    # all inside the five-minute budget
    _, out = validate_run
    line = re.search(r"^PASS triple_agreement: .* \(([0-9.]+)s\)$", out, re.MULTILINE)
    assert line, out
    assert float(line[1]) < 300.0, f"triple agreement took {line[1]}s"


def test_criterion_2_asymptotic_floors(settings):
    # closed form at 200 dB within 1e-4 relative of the saturation floor
    # for all four cases, K in {1,2,3,5}, zeta in {0.9,0.99}
    result = check_asymptotic_floors(settings)
    assert result.passed, result.detail


def test_criterion_3_scheme_and_scenario_orderings(settings):
    # best-ratio never above strongest-destination, active-set knowledge
    # never above blind selection; strict separation at interior points
    result = check_orderings(settings)
    assert result.passed, result.detail


def test_criterion_4_backhaul_floors_and_empty_set_rate(settings):
    # blind selection floors at 1 - zeta, active-set selection at
    # (1 - zeta)^K; simulated all-silenced frequency within 3 sigma
    result = check_floors(settings)
    assert result.passed, result.detail


def test_criterion_5_multipath_monotonicity(settings):
    # more destination paths strictly help, more eavesdropper paths
    # strictly hurt, at 20 dB in all four cases
    result = check_multipath_effect(settings)
    assert result.passed, result.detail


def test_criterion_6_gain_ratio_monotonicity(settings):
    # outage strictly falls as the destination/eavesdropper gain ratio
    # moves through 1, 2.5, 5 at 20 dB
    result = check_gain_ratio_effect(settings)
    assert result.passed, result.detail


def test_criterion_7_identity_suite(settings):
    # finite-sum CDF vs regularized gamma to 1e-12, on the sum the closed
    # form builds (the series base e^-u p_0(u) at alpha = 0 against the
    # survival function); power-series coefficient table vs the direct power
    # and vs the exact rational power to 1e-10;
    # fully reliable backhaul collapses the scenarios to 1e-12; a single
    # transmitter collapses all four cases to 1e-12
    result = check_identities(settings)
    assert result.passed, result.detail


def test_criterion_8_simulation_determinism(settings):
    # identical seed and sample count give bit-identical estimates for
    # worker counts 1, 2 and 4
    result = check_determinism(settings)
    assert result.passed, result.detail


@pytest.mark.slow
def test_criterion_9_validate_subcommand_exits_zero(validate_run):
    rc, out = validate_run
    assert rc == 0, out
    assert out.count("PASS") == 8
    assert "8/8 checks passed" in out
