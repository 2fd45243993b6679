"""Monte Carlo estimation of the secrecy outage probability.

The sample index space is split into fixed-size chunks; each chunk draws
from its own substream keyed by (seed, chunk index), and the reduction is
plain integer counting.  Results are therefore bit-reproducible for a given
(seed, n_samples) no matter how many workers execute the chunks, and chunk
results can be computed in any order.

A chunk draws link by link and only for the samples still in outage (see
``_chunk_counts``), so the per-seed estimate depends on that draw order;
changing the order changes per-seed estimates but not their distribution.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analytic import Scenario, Scheme, SopQuery
# ``sample_channel_block`` is no longer called here, but the traced benchmark
# mode rebinds it on this module, so the name stays bound.
from .channel import _is_int, make_rng, sample_channel_block  # noqa: F401

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

    Under both rules a sample is in outage exactly when every candidate
    link fails: the outage test is monotone in the destination SNR, so the
    strongest link fails against the one eavesdropper SNR exactly when every
    link does, and the best secrecy ratio fails exactly when every ratio
    does.  One passing link settles a sample, so the chunk tests link k only
    on its survivors, the samples every earlier link left in outage.

    Draw order: under ``ku`` first one uniform per sample for the selected
    link's backhaul (the rule never reads it, so it is independent of the
    pick); a silenced pick is an outage at once and leaves the survivors.
    Then, for each link while survivors remain, one value per survivor of:
    the backhaul uniform (``ka`` only), the Gamma(M) destination SNR and the
    Gamma(N) eavesdropper SNR.  ``os`` draws eavesdropper SNRs at every link;
    ``ss`` draws them at the first link only and keeps them as the shared
    eavesdropper SNR of the later ones.  A survivor stays while its link is
    silenced (``ka``) or in outage.  Survivors are exchangeable, so no sample
    index is kept: only their count, their ``ss`` eavesdropper SNRs and
    their ``ka`` "no active link yet" flags, compressed at every link, so
    chunk memory is O(n).  With one link both rules read the same stream.
    """
    cfg = query.cfg
    ka = query.scenario is Scenario.KA
    shared_eve = query.scheme is Scheme.SS
    rng = make_rng(seed, chunk_index)
    silenced = 0 if ka else int(np.count_nonzero(rng.random(n) >= cfg.zeta))
    survivors = n - silenced
    gamma_e = never_active = None
    for link in range(cfg.K):
        if survivors == 0:
            break
        if ka:
            off = rng.random(survivors) >= cfg.zeta
        gamma_d = rng.standard_gamma(cfg.M, survivors)
        gamma_d *= cfg.a_d
        if gamma_e is None or not shared_eve:
            gamma_e = rng.standard_gamma(cfg.N, survivors)
            gamma_e *= cfg.a_e
        stay = secrecy_outage_indicator(gamma_d, gamma_e, cfg.rho)
        if ka:
            # a silenced transmitter is never picked; an empty active set is an outage
            stay |= off
            never_active = off if never_active is None else never_active & off
        survivors = int(np.count_nonzero(stay))
        if link + 1 < cfg.K:
            if shared_eve:
                gamma_e = gamma_e[stay]
            if ka:
                never_active = never_active[stay]
    # at the last link every never-active survivor is silenced, so it stayed
    empty = int(np.count_nonzero(never_active)) if ka else 0
    return silenced + survivors, empty


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
