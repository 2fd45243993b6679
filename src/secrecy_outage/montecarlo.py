"""Monte Carlo estimation of the secrecy outage probability.

The sample index space is split into fixed-size chunks; each chunk draws
from its own substream ``make_rng(seed, chunk index)`` (an SFC64 generator),
and the reduction is plain integer counting.  Results are therefore
bit-reproducible for a given (seed, n_samples) no matter how many workers
execute the chunks, and chunk results can be computed in any order.

A chunk draws link by link, only for the samples still in outage, and only
what decides them: one count where the samples it stands for are
exchangeable (the backhaul states of the ``ku`` picks and of every survivor
that carries no SNR), a Gamma SNR only for a link that is on, and an ``ss``
eavesdropper SNR only at a sample's first active link (see
``_chunk_counts``).  Each Gamma SNR is the total energy of its unit
exponential path energies, drawn as exactly that: -ln of a product of one
(0, 1] uniform per path, one log per draw (``channel._unit_gamma``).

A chunk first draws its fresh on-counts, how many samples meet their first
active link at each link, so its all-silenced count depends on (seed,
chunk) alone.  Every Gamma row is drawn in reflected pairs, the sampler's
one rule: one uniform u serves a sample as the factor 1 - u and its
partner as u + 2**-53.  Given everything drawn before a row, that link's
backhaul included, each sample's expected final outage is monotone in its
own uniforms of that row, and the partners move in opposite directions, so
by Harris's inequality the row's conditional variance is at most the
independent one.  Each sample keeps its marginal law, so by the martingale
variance decomposition the estimate stays unbiased, its variance is at most
binomial, and the Wald interval, whose stated coverage assumes independent
samples, can only be conservative.  A shared-draw batch, one draw serving
many queries, must pair every row the same way to match a lone call in
law; ``channel.sample_channel_block`` already draws its rows so.  The
per-seed estimate depends on the draw order, on the sampler and on the
generator; changing any of them changes per-seed estimates, and pairing
changes their spread but not their mean.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import Scenario, Scheme, SopQuery
# ``sample_channel_block`` is unused here, but the traced benchmark rebinds it
# on this module; the chunks look ``_unit_gamma`` up here, the seam tests wrap.
from .channel import SystemConfig, _is_int, _unit_gamma, make_rng, sample_channel_block  # noqa: F401

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
    low_confidence: bool = False
    empty_active_set_rate: float | None = None


def secrecy_outage_indicator(gamma_d, gamma_e, rho):
    """True where the secrecy ratio (1 + gamma_d) / (1 + gamma_e) is below rho.

    Strict inequality; accepts scalars or arrays.
    """
    out = (1.0 + np.asarray(gamma_d)) < rho * (1.0 + np.asarray(gamma_e))
    return bool(out) if np.ndim(out) == 0 else out


def _on_count(rng: np.random.Generator, n: int, zeta: float) -> int:
    """How many of ``n`` exchangeable backhaul links are on: one Binomial(n, zeta), none if n = 0 or zeta = 1."""
    if n == 0 or zeta == 1.0:
        return n
    return int(rng.binomial(n, zeta))


def _fresh_on_counts(rng: np.random.Generator, cfg: SystemConfig, ka: bool, n: int) -> list[int]:
    """How many of the chunk's ``n`` samples meet their first active link at each of the K links.

    Under ``ku`` one Binomial(n, zeta) count of picks whose backhaul is on,
    all at the first link.  Under ``ka`` the chain of K on-counts, each a
    Binomial of the samples every earlier link left silenced.  They are the
    chunk's first draws, so the samples never met, the all-silenced count
    under ``ka``, depend on (seed, chunk) alone.
    """
    counts = [_on_count(rng, n, cfg.zeta)]
    for _ in range(cfg.K - 1):
        n -= counts[-1]
        counts.append(_on_count(rng, n, cfg.zeta) if ka else 0)
    return counts


def _destination_sides(rng: np.random.Generator, cfg: SystemConfig, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """1 + a_d gamma_d for ``out.size`` Gamma(M) draws in reflected pairs, in place."""
    side = _unit_gamma(rng, cfg.M, out, tmp)
    side *= cfg.a_d
    side += 1.0
    return side


def _thresholds(rng: np.random.Generator, cfg: SystemConfig, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """rho (1 + a_e gamma_e) for ``out.size`` Gamma(N) draws in reflected pairs, in place.

    A sample is in outage on a link where its destination side is below its
    threshold: the float operations of ``secrecy_outage_indicator``.
    """
    threshold = _unit_gamma(rng, cfg.N, out, tmp)
    threshold *= cfg.a_e
    threshold += 1.0
    threshold *= cfg.rho
    return threshold


def _os_survivors(
    rng: np.random.Generator, cfg: SystemConfig, ka: bool, on_fresh: list[int], scratch: np.ndarray
) -> int:
    """Held survivors after every link under ``os``, given each link's newly active count.

    An ``os`` survivor carries no state, only whether it has met an active
    link, so the held ones are a count and their backhaul is an on-count.
    """
    held, fresh = 0, sum(on_fresh)
    for on_new in on_fresh:
        if fresh == 0 and held == 0:
            break
        on_held = _on_count(rng, held, cfg.zeta) if ka else held
        on = on_held + on_new
        destination = _destination_sides(rng, cfg, scratch[0, :on], scratch[2])
        threshold = _thresholds(rng, cfg, scratch[1, :on], scratch[2])
        held += int(np.count_nonzero(destination < threshold)) - on_held
        fresh -= on_new
    return held


def _ss_survivors(
    rng: np.random.Generator, cfg: SystemConfig, ka: bool, on_fresh: list[int], scratch: np.ndarray
) -> int:
    """Held survivors after every link under ``ss``, given each link's newly active count.

    A held survivor carries its threshold rho (1 + a_e gamma_e), so its
    backhaul is one uniform per survivor.  The last link only counts, so no
    threshold is compressed there.
    """
    held, fresh = np.empty(0), sum(on_fresh)
    for link, on_new in enumerate(on_fresh):
        if fresh == 0 and held.size == 0:
            break
        on = rng.random(held.size) < cfg.zeta if ka and cfg.zeta != 1.0 and held.size else None
        tested = held if on is None else held.compress(on)
        fresh -= on_new
        destination = _destination_sides(rng, cfg, scratch[0, : tested.size + on_new], scratch[2])
        threshold = _thresholds(rng, cfg, scratch[1, :on_new], scratch[2])
        keep = destination[: tested.size] < tested
        if on is not None:
            on_fails = keep
            keep = ~on  # a survivor whose link is off stays held
            keep[on] = on_fails
        new = destination[tested.size :] < threshold
        if link + 1 == cfg.K:
            return int(np.count_nonzero(keep)) + int(np.count_nonzero(new))
        # ``compress`` is about twice as fast as boolean indexing here
        held = np.concatenate((held.compress(keep), threshold.compress(new)))
    return held.size


def _chunk_counts(
    query: SopQuery, seed: int, chunk_index: int, n: int, scratch: np.ndarray
) -> tuple[int, int]:
    """Outage and empty-active-set counts for one substream chunk.

    Under both rules a sample is in outage exactly when every candidate
    link fails: the outage test is monotone in the destination SNR, so the
    strongest link fails against the one eavesdropper SNR exactly when every
    link does, and the best secrecy ratio fails exactly when every ratio
    does.  One passing link settles a sample, so the chunk tests link k only
    on its survivors, the samples every earlier link left in outage.

    Survivors are exchangeable, so no sample index is kept.  A survivor is
    fresh until its first active link and held after it, while it stays in
    outage.  Fresh survivors are a count; held ones are a count under
    ``os`` and, under ``ss``, an array of their thresholds
    rho (1 + a_e gamma_e), formed once and compressed at every link.  Chunk
    memory is O(n).

    Draw order: first the fresh on-counts of ``_fresh_on_counts`` (under
    ``ku`` one count of picks whose backhaul is on, since the rule never
    reads backhaul and the pick's state is independent of the pick; the
    other picks are silenced, in outage at once, and every link of a
    survivor is on; under ``ka`` one count per link).  Then, for each link
    while survivors remain: under ``ka`` the held survivors' backhaul (an
    on-count under ``os``, one uniform per survivor under ``ss``); the
    Gamma(M) destination SNRs of the on held survivors, then of the newly
    active ones; and the Gamma(N) eavesdropper SNRs of every on survivor
    under ``os``, of the newly active ones only under ``ss``, whose
    eavesdropper SNR is shared by all links.  No Gamma is drawn for a link
    that is off, and no backhaul variate at zeta = 1.  A survivor stays
    while its link is off (``ka``) or in outage; samples that never met an
    active link had an empty active set.  With one link both rules read the
    same stream and make the same float operations.

    Each row of Gamma(k) SNRs is k rows of uniforms in turn, one per path
    energy, which ``_unit_gamma`` turns into -ln of their product of 1 - u
    (past ``channel._PRODUCT_FACTORS`` paths, one log per further path).
    Every row is drawn in reflected pairs: sample h + i of a row of m
    (h = ceil(m / 2)) reflects the uniforms of sample i, so its outage
    moves against its partner's (see the module docstring).  Pairs never
    cross a chunk.

    The destination SNRs are written into the first row of ``scratch`` (3
    rows of at least n columns), the eavesdropper SNRs into the second, and
    the uniform factors after the first into the third.  The chunks of one
    worker share the scratch: a chunk reads only what it has written there,
    so the counts do not depend on what the scratch held before.
    """
    cfg = query.cfg
    ka = query.scenario is Scenario.KA
    rng = make_rng(seed, chunk_index)
    on_fresh = _fresh_on_counts(rng, cfg, ka, n)
    never_active = n - sum(on_fresh)  # the silenced picks under ku
    survivors = _ss_survivors if query.scheme is Scheme.SS else _os_survivors
    held = survivors(rng, cfg, ka, on_fresh, scratch)
    return never_active + held, never_active if ka else 0


def simulate_sop(query: SopQuery, mc: McSettings = McSettings(), workers: int = 1) -> SopEstimate:
    """Estimate the outage probability of one case by simulation.

    ``workers`` only schedules chunks, at most one group per chunk; it
    cannot change the estimate.
    """
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
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
    workers = min(workers, len(chunks))

    def run(group):
        # the Gamma draws of a worker's chunks reuse one scratch: a fresh
        # large array per draw costs its page faults again
        scratch = np.empty((3, CHUNK_SIZE))
        return [_chunk_counts(query, mc.seed, index, size, scratch) for index, size in group]

    if workers == 1:
        counts = run(chunks)
    else:
        # imported here: the thread pool (with the logging and queue it
        # imports) costs start-up time that a single worker never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = pool.map(run, [chunks[w::workers] for w in range(workers)])
            counts = [c for group in groups for c in group]

    # imported here, as statistics imports fractions and decimal: start-up
    # time that only a simulation needs
    from statistics import NormalDist

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
        low_confidence=low_confidence,
        empty_active_set_rate=(empty_count / n) if query.scenario is Scenario.KA else None,
    )
