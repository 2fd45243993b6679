import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_outage.numerics import (
    CompositionCapError,
    enumerate_weak_compositions,
    log_factorials,
    log_power_coefficients,
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
    comps = list(enumerate_weak_compositions(3, 3))
    parts = [c.parts for c in comps]
    assert parts[0] == (3, 0, 0)
    assert parts[-1] == (0, 0, 3)
    assert parts == sorted(parts, reverse=True)
    assert len(parts) == math.comb(3 + 3 - 1, 3 - 1)
    assert all(sum(p) == 3 for p in parts)
    assert len(set(parts)) == len(parts)


def test_composition_k_zero():
    comps = list(enumerate_weak_compositions(0, 4))
    assert len(comps) == 1
    assert comps[0].parts == (0, 0, 0, 0)
    assert comps[0].multinomial_coeff == 1
    assert comps[0].beta1 == 0


def test_composition_single_part():
    comps = list(enumerate_weak_compositions(5, 1))
    assert [c.parts for c in comps] == [(5,)]


def test_composition_multinomial_total():
    # summing the bare multinomial coefficients over all weak compositions
    # of k into M parts gives M**k
    for k, m in [(2, 3), (4, 2), (5, 4)]:
        total = sum(c.multinomial_coeff for c in enumerate_weak_compositions(k, m))
        assert total == m**k


def test_composition_cap_is_eager_and_named():
    with pytest.raises(CompositionCapError) as err:
        enumerate_weak_compositions(40, 10, cap=1000)
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
    with pytest.raises(ValueError):
        log_power_coefficients(-1, 3)
    with pytest.raises(ValueError):
        log_power_coefficients(2, 0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=6),
    num_parts=st.integers(min_value=1, max_value=6),
    x=st.floats(min_value=0.05, max_value=3.0),
)
def test_composition_expansion_identity(k, num_parts, x):
    # the whole point of the enumeration: it expands a truncated-exponential
    # power term by term, and the coefficient table is that expansion
    # grouped by the power beta1
    comps = list(enumerate_weak_compositions(k, num_parts))
    total = sum(c.multinomial_coeff * c.inv_factorial_product * x**c.beta1 for c in comps)
    direct = sum(x**m / math.factorial(m) for m in range(num_parts)) ** k
    assert total == pytest.approx(direct, rel=1e-10)
    coeffs = [math.exp(c) for c in log_power_coefficients(k, num_parts)]
    assert sum(c * x**j for j, c in enumerate(coeffs)) == pytest.approx(direct, rel=1e-10)
    grouped = [0.0] * len(coeffs)
    for c in comps:
        grouped[c.beta1] += c.multinomial_coeff * c.inv_factorial_product
    assert coeffs == pytest.approx(grouped, rel=1e-10)


def test_significance_lost_threshold():
    assert significance_lost(1e-11, 1.0)
    assert not significance_lost(1e-9, 1.0)
    assert not significance_lost(0.5, 1.0)
    assert not significance_lost(0.0, 0.0)
