"""Monte Carlo estimation of the secrecy outage probability.

The sample index space is split into fixed-size chunks; each chunk draws
from its own substream keyed by (seed, chunk index), and the reduction is
plain integer counting.  Results are therefore bit-reproducible for a given
(seed, n_samples) no matter how many workers execute the chunks, and chunk
results can be computed in any order.

A chunk draws only the quantities its case reads (see ``_chunk_counts``),
so the per-seed estimate depends on the case's draw shapes; changing those
shapes changes per-seed estimates but not their distribution.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analytic import Scenario, Scheme, SopQuery
from .channel import _is_int, make_rng, sample_channel_block

__all__ = [
    "CHUNK_SIZE",
    "McSettings",
    "SopEstimate",
    "secrecy_outage_indicator",
    "simulate_sop",
]

# Fixed by design: chunk substreams are keyed (seed, chunk index), so the
# chunk size is part of the reproducibility contract, not a tunable.
CHUNK_SIZE = 1 << 16

# Normal-approximation CIs need both outcome counts at least this large.
_MIN_EVENTS = 10


@dataclass(frozen=True)
class McSettings:
    """Sampling budget and randomness for one estimate."""

    n_samples: int = 1_000_000
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self):
        if not _is_int(self.n_samples) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence!r}")


@dataclass(frozen=True)
class SopEstimate:
    """Estimated outage probability with a normal-approximation CI.

    ``p_hat * n_samples`` is an exact integer count.  ``low_confidence`` is
    set when either outcome was observed fewer than 10 times, where the
    normal approximation is not trustworthy.  ``empty_active_set_rate`` is
    the observed frequency of an all-silenced draw (active-set scenarios
    only, None otherwise).
    """

    p_hat: float
    ci_half_width: float
    n_samples: int
    seed: int
    low_confidence: bool = False
    empty_active_set_rate: float | None = None


def secrecy_outage_indicator(gamma_d, gamma_e, rho):
    """True where the secrecy ratio (1 + gamma_d) / (1 + gamma_e) is below rho.

    Strict inequality; accepts scalars or arrays.
    """
    out = (1.0 + np.asarray(gamma_d)) < rho * (1.0 + np.asarray(gamma_e))
    return bool(out) if np.ndim(out) == 0 else out


def _chunk_counts(query: SopQuery, seed: int, chunk_index: int, n: int) -> tuple[int, int]:
    """Outage and empty-active-set counts for one substream chunk.

    Only the draws the case reads are made: strongest-destination selection
    never looks at eavesdropper SNRs and blind selection never looks at
    backhaul states, so each gets one row standing for the selected link.
    No pick is made either.  The outage test is monotone in the destination
    SNR, so the strongest link fails against the one shared eavesdropper row
    exactly when every link does, and the best secrecy ratio is in outage
    exactly when every candidate link is.
    """
    cfg = query.cfg
    ka = query.scenario is Scenario.KA
    gamma_d, gamma_e, active = sample_channel_block(
        cfg, make_rng(seed, chunk_index), n,
        eve_per_link=query.scheme is Scheme.OS, backhaul_per_link=ka,
    )
    link_out = secrecy_outage_indicator(gamma_d, gamma_e, cfg.rho)
    if ka:
        # a silenced transmitter is never picked; an empty active set is an outage
        link_out |= ~active
    outage = link_out.all(axis=0)
    if ka:
        empty = int(n - np.count_nonzero(active.any(axis=0)))
    else:
        # a silenced pick is an outage by itself
        outage |= ~active[0]
        empty = 0
    return int(np.count_nonzero(outage)), empty


def simulate_sop(query: SopQuery, mc: McSettings = McSettings(), workers: int = 1) -> SopEstimate:
    """Estimate the outage probability of one case by simulation.

    ``workers`` only schedules chunks; it cannot change the estimate.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if mc.n_samples < 1000:
        warnings.warn(
            "normal-approximation confidence intervals are unreliable below 1000 samples",
            stacklevel=2,
        )
    n = mc.n_samples
    chunks = [
        (index, min(CHUNK_SIZE, n - start))
        for index, start in enumerate(range(0, n, CHUNK_SIZE))
    ]

    def run(chunk):
        index, size = chunk
        return _chunk_counts(query, mc.seed, index, size)

    if workers == 1:
        counts = [run(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run, chunks))

    outage_count = sum(c[0] for c in counts)
    empty_count = sum(c[1] for c in counts)
    p_hat = outage_count / n
    z = NormalDist().inv_cdf(0.5 * (1.0 + mc.confidence))
    ci_half_width = z * math.sqrt(p_hat * (1.0 - p_hat) / n)
    low_confidence = min(outage_count, n - outage_count) < _MIN_EVENTS
    return SopEstimate(
        p_hat=p_hat,
        ci_half_width=ci_half_width,
        n_samples=n,
        seed=mc.seed,
        low_confidence=low_confidence,
        empty_active_set_rate=(empty_count / n) if query.scenario is Scenario.KA else None,
    )
