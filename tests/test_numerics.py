import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exact_power_coefficients

from secrecy_outage import analytic
from secrecy_outage.analytic import (
    CompositionCapError,
    _log_powers,
    enumerate_weak_compositions,
    log_factorials,
    significance_lost,
)


def test_log_factorials_are_logs_of_exact_factorials():
    table = log_factorials(2500)
    assert not table.flags.writeable
    assert table[0] == table[1] == 0.0
    for j in (2, 3, 10, 20, 21, 170, 171, 1000, 2499):
        assert table[j] == math.log(math.factorial(j))
        with mpmath.workdps(40):
            assert table[j] == pytest.approx(float(mpmath.loggamma(j + 1)), rel=4e-16, abs=0.0)
    assert log_factorials(7).tolist() == table[:7].tolist()


def test_composition_enumeration_order_and_count():
    parts = list(enumerate_weak_compositions(3, 3))
    assert parts[0] == (3, 0, 0)
    assert parts[-1] == (0, 0, 3)
    assert parts == sorted(parts, reverse=True)
    assert len(parts) == math.comb(3 + 3 - 1, 3 - 1)
    assert all(sum(p) == 3 for p in parts)
    assert len(set(parts)) == len(parts)


def test_composition_k_zero():
    assert list(enumerate_weak_compositions(0, 4)) == [(0, 0, 0, 0)]


def test_composition_single_part():
    assert list(enumerate_weak_compositions(5, 1)) == [(5,)]


def test_composition_cap_is_eager_and_named(monkeypatch):
    # C(29, 9) = 10 015 005 compositions at k = 20, M = 10: above the default
    # cap, refused before the first is listed
    with pytest.raises(CompositionCapError):
        enumerate_weak_compositions(20, 10)
    monkeypatch.setattr(analytic, "DEFAULT_COMPOSITION_CAP", 1000)
    with pytest.raises(CompositionCapError) as err:
        enumerate_weak_compositions(40, 10)
    assert err.value.cap == 1000
    assert err.value.k == 40
    assert err.value.num_parts == 10
    assert err.value.count == math.comb(49, 9)
    assert "k=40" in str(err.value)
    assert "num_parts=10" in str(err.value)


def test_composition_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_weak_compositions(-1, 3)
    with pytest.raises(ValueError):
        enumerate_weak_compositions(2, 0)


def _alpha_zero_row(k: int, num_parts: int) -> list[float]:
    """Row k of the closed forms' powers at alpha = 0: ln [x^j] (sum_{m<num_parts} x^m / m!)^k."""
    rows = [[0.0], *(power[0].tolist() for power in _log_powers(num_parts, k, [0.0]))]
    return rows[k]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=6),
    num_parts=st.integers(min_value=1, max_value=6),
    x=st.floats(min_value=0.05, max_value=3.0),
)
def test_composition_expansion_identity(k, num_parts, x):
    # the floor's power p_0^k is the truncated-exponential power: coefficient
    # by coefficient against the exact rational power, and summed at x
    # against the direct power
    exact = exact_power_coefficients(k, num_parts)
    coeffs = [math.exp(c) for c in _alpha_zero_row(k, num_parts)]
    assert coeffs == pytest.approx([float(c) for c in exact], rel=1e-10)
    assert sum(exact) == sum(Fraction(1, math.factorial(m)) for m in range(num_parts)) ** k
    direct = sum(x**m / math.factorial(m) for m in range(num_parts)) ** k
    assert sum(c * x**j for j, c in enumerate(coeffs)) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("k, num_parts", [(20, 6), (20, 10), (20, 12)])
def test_power_table_matches_exact_power_at_large_k(k, num_parts):
    # the high-SNR floor reads these rows at K = 20; their coefficients span
    # hundreds of decades, so the comparison is in log space
    exact = exact_power_coefficients(k, num_parts)
    logs = [math.log(c.numerator) - math.log(c.denominator) for c in exact]
    table = _alpha_zero_row(k, num_parts)
    assert len(table) == len(logs) == k * (num_parts - 1) + 1
    assert max(abs(t - e) for t, e in zip(table, logs)) <= 1e-12


def test_significance_lost_threshold():
    assert significance_lost(1e-11, 1.0)
    assert not significance_lost(1e-9, 1.0)
    assert not significance_lost(0.5, 1.0)
    assert not significance_lost(0.0, 0.0)
