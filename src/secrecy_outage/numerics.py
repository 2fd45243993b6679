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

``_log_convolve`` multiplies positive power series in log space; the closed
forms build their per-point powers with it (``analytic._log_powers``), the
high-SNR floor's among them.  ``log_factorials`` tabulates ln j! from the
exact integers j!.  ``enumerate_weak_compositions`` lists the weak
compositions of k as tuples behind an eager size cap; no closed form or
check reads it, and the benchmark times it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_COMPOSITION_CAP",
    "SIGNIFICANCE_LOSS_RATIO",
    "CompositionCapError",
    "enumerate_weak_compositions",
    "log_factorials",
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


def _log_convolve(log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """ln of the coefficients of the product of two positive power series, along the last axis.

    ``log_q``'s leading axes broadcast against ``log_p``'s, so one call
    serves one row or a row per point, each entry with the same arithmetic.
    Each shift adds in through ``np.logaddexp``, so nothing cancels.
    """
    span = log_p.shape[-1]
    out = np.full((*log_p.shape[:-1], span + log_q.shape[-1] - 1), -np.inf)
    for m in range(log_q.shape[-1]):
        window = out[..., m : m + span]
        np.logaddexp(window, log_p + log_q[..., m, None], out=window)
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


def enumerate_weak_compositions(k: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all weak compositions of ``k`` into ``num_parts`` ordered parts.

    The order is deterministic: lexicographically decreasing, starting at
    (k, 0, ..., 0) and ending at (0, ..., 0, k).  The expected number of
    compositions C(k + num_parts - 1, num_parts - 1) is checked against
    ``DEFAULT_COMPOSITION_CAP``, read at call time, before any is produced.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    count = math.comb(k + num_parts - 1, num_parts - 1)
    if count > DEFAULT_COMPOSITION_CAP:
        raise CompositionCapError(k, num_parts, count, DEFAULT_COMPOSITION_CAP)
    return _generate_compositions(k, num_parts)


def _generate_compositions(k: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    parts = [0] * num_parts
    parts[0] = k
    while True:
        yield tuple(parts)
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
