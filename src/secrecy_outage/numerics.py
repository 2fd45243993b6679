"""Combinatorial kernels for the outage closed forms.

Two ingredients recur in every closed form of this package: the
coefficients of the truncated-exponential power (sum_{m<M} x^m / m!)^k (the
expansion of a K-fold CDF product), and alternating sums whose terms span
many orders of magnitude.  The convention throughout the package is that
per-term products are assembled in log space and exponentiated once per
term, while top-level alternating sums run in linear space through
``math.fsum``; ``significance_lost`` compares the sum with its largest term
so that callers detect a loss of significance instead of returning quiet
noise.

``log_power_coefficients`` builds the power coefficients one log-space
convolution per power, and ``log_factorials`` tabulates ln j! from the exact
integers j!.  ``enumerate_weak_compositions`` lists the same
expansion term by term; no closed form calls it, it is the independent
reference that the identity checks compare the coefficient table against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_COMPOSITION_CAP",
    "SIGNIFICANCE_LOSS_RATIO",
    "CompositionCapError",
    "WeakComposition",
    "enumerate_weak_compositions",
    "log_factorials",
    "log_power_coefficients",
    "significance_lost",
]

DEFAULT_COMPOSITION_CAP = 10_000_000

# |sum| / max|term| below this ratio means the cancellation ate more than
# roughly 50 bits of the terms; callers surface that as a significance flag.
SIGNIFICANCE_LOSS_RATIO = 1e-10


class CompositionCapError(ValueError):
    """Requested composition enumeration is too large to run."""

    def __init__(self, k: int, num_parts: int, count: int, cap: int):
        self.k = k
        self.num_parts = num_parts
        self.count = count
        self.cap = cap
        super().__init__(
            f"enumerating weak compositions of k={k} into num_parts={num_parts} "
            f"parts would yield {count} terms, above the cap of {cap}"
        )


@lru_cache(maxsize=None)
def log_power_coefficients(k: int, num_terms: int) -> np.ndarray:
    """ln [x^j] (sum_{m<num_terms} x^m / m!)^k for j = 0 .. k (num_terms - 1).

    Row k is row k - 1 convolved with the 1/m! weights, in log space through
    ``np.logaddexp`` over the ``num_terms`` shifts.  Every coefficient is
    positive, so nothing cancels.  Rows are cached and read-only; building
    k in increasing order keeps the recursion one level deep.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms}")
    if k == 0:
        out = np.zeros(1)
    else:
        prev = log_power_coefficients(k - 1, num_terms)
        out = np.full(prev.size + num_terms - 1, -np.inf)
        for m in range(num_terms):
            window = out[m : m + prev.size]
            np.logaddexp(window, prev - math.lgamma(m + 1), out=window)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def log_factorials(count: int) -> np.ndarray:
    """ln j! for j = 0 .. count - 1, each the logarithm of the exact integer j!.

    Cached and read-only.
    """
    out = np.empty(count)
    factorial = 1
    for j in range(count):
        factorial *= max(j, 1)
        out[j] = math.log(factorial)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WeakComposition:
    """One term of the multinomial expansion of (sum_{m<M} x^m / m!)^k.

    ``parts[m]`` counts how many of the k factors contributed the x^m / m!
    monomial.  ``beta1`` is the resulting power of x and ``beta2`` the number
    of factors (always k).
    """

    parts: tuple[int, ...]
    multinomial_coeff: int
    inv_factorial_product: float
    beta1: int
    beta2: int


def enumerate_weak_compositions(
    k: int, num_parts: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> Iterator[WeakComposition]:
    """Yield all weak compositions of ``k`` into ``num_parts`` ordered parts.

    Reference enumeration for the identity checks; the closed forms read
    the aggregated ``log_power_coefficients`` instead.

    The order is deterministic: lexicographically decreasing, starting at
    (k, 0, ..., 0) and ending at (0, ..., 0, k).  The expected number of
    compositions C(k + num_parts - 1, num_parts - 1) is checked against
    ``cap`` before any term is produced.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    count = math.comb(k + num_parts - 1, num_parts - 1)
    if count > cap:
        raise CompositionCapError(k, num_parts, count, cap)
    return _generate_compositions(k, num_parts)


def _generate_compositions(k: int, num_parts: int) -> Iterator[WeakComposition]:
    k_factorial = math.factorial(k)
    parts = [0] * num_parts
    parts[0] = k
    while True:
        coeff = k_factorial
        inv_fact = 1.0
        beta1 = 0
        for m, p in enumerate(parts):
            if p:
                coeff //= math.factorial(p)
                inv_fact *= (1.0 / math.factorial(m)) ** p
                beta1 += m * p
        yield WeakComposition(
            parts=tuple(parts),
            multinomial_coeff=coeff,
            inv_factorial_product=inv_fact,
            beta1=beta1,
            beta2=k,
        )
        if parts[-1] == k:
            return
        # Move one unit right of the rightmost positive entry before the last
        # slot, folding whatever sits in the last slot back in with it.
        j = num_parts - 2
        while parts[j] == 0:
            j -= 1
        tail = parts[-1]
        parts[-1] = 0
        parts[j] -= 1
        parts[j + 1] = tail + 1


def significance_lost(total: float, largest: float) -> bool:
    """True when an alternating sum cancelled below the trust threshold."""
    return largest > 0.0 and abs(total) < SIGNIFICANCE_LOSS_RATIO * largest
