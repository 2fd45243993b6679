"""System model: received-SNR laws and backhaul gating.

Each of the K single-antenna transmitters reaches the destination over an
M-path Rayleigh faded link.  With single-carrier cyclic-prefix reception the
post-processing SNR is proportional to the total path energy, so it follows
a Gamma law with integer shape M and scale a * snr; the eavesdropper sees
the same structure with N paths and scale b * snr.  Backhaul links are
independent Bernoulli(zeta): an inactive link silences its transmitter,
which manifests as a point mass at zero SNR.  Distribution helpers here
accept scalars or numpy arrays in the evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

__all__ = [
    "GammaSnr",
    "REFERENCE_CONFIG",
    "SystemConfig",
    "make_rng",
    "mixture_cdf",
    "sample_channel_block",
    "snr_cdf",
    "snr_cdf_finite_sum",
    "snr_pdf",
]


def _is_int(value) -> bool:
    """A Python or numpy integer; ``bool`` is an int subclass but never a count or seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SystemConfig:
    """Operating point of the network.

    ``snr`` is the linear transmit-power to noise-power ratio; decibel
    conversion belongs to front ends.  The secrecy threshold ``r_th`` is in
    bits per channel use.  ``rho``, ``a_d`` and ``a_e`` are recomputed on
    access so they can never go stale.  The counts K, M and N may be Python
    or numpy integers; they are stored as ``int``.
    """

    K: int
    zeta: float
    r_th: float
    snr: float
    M: int
    N: int
    a: float
    b: float

    def __post_init__(self):
        for name in ("K", "M", "N"):
            count = getattr(self, name)
            if not (_is_int(count) and count >= 1):
                raise ValueError(f"{name} must be a positive integer, got {count!r}")
            object.__setattr__(self, name, int(count))
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta!r}")
        if not (math.isfinite(self.r_th) and self.r_th >= 0.0):
            raise ValueError(f"r_th must be finite and >= 0, got {self.r_th!r}")
        try:
            2.0 ** self.r_th
        except OverflowError:
            raise ValueError(f"r_th too large: 2**r_th overflows, got {self.r_th!r}") from None
        if not (math.isfinite(self.snr) and self.snr > 0.0):
            raise ValueError(f"snr must be finite and > 0 on the linear scale, got {self.snr!r}")
        if not all(math.isfinite(g) and g > 0.0 for g in (self.a, self.b)):
            raise ValueError(
                f"path gain factors a, b must be finite and > 0, got a={self.a!r} b={self.b!r}"
            )

    @property
    def rho(self) -> float:
        """Outage ratio threshold 2**r_th."""
        return 2.0 ** self.r_th

    @property
    def a_d(self) -> float:
        """Destination-link SNR scale a * snr."""
        return self.a * self.snr

    @property
    def a_e(self) -> float:
        """Eavesdropper-link SNR scale b * snr."""
        return self.b * self.snr


# The reference operating point of the figure presets, the CLI defaults and
# the validation grid; each of them sets its own snr (and K, zeta where varied).
REFERENCE_CONFIG = SystemConfig(K=2, zeta=0.99, r_th=1.0, snr=1.0, M=6, N=4, a=0.5, b=0.2)


@dataclass(frozen=True)
class GammaSnr:
    """Received-SNR law: Gamma with integer shape (path count) and linear scale."""

    shape: int
    scale: float

    def __post_init__(self):
        if not (_is_int(self.shape) and self.shape >= 1):
            raise ValueError(f"shape must be a positive integer, got {self.shape!r}")
        object.__setattr__(self, "shape", int(self.shape))
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {self.scale!r}")


def snr_pdf(dist: GammaSnr, x):
    """Density of the Gamma SNR law; assembled in log space to avoid inf*0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_pdf requires x >= 0")
    k, theta = dist.shape, dist.scale
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (k - 1) * np.log(x_arr) - x_arr / theta - math.lgamma(k) - k * math.log(theta)
        out = np.exp(log_pdf)
    at_zero = 1.0 / theta if k == 1 else 0.0
    out = np.where(x_arr == 0.0, at_zero, out)
    return float(out) if np.ndim(x) == 0 else out


def snr_cdf(dist: GammaSnr, x):
    """CDF of the Gamma SNR law: the regularized lower incomplete gamma P(shape, x / scale)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf requires x >= 0")
    out = _special.gammainc(dist.shape, x_arr / dist.scale)
    return float(out) if np.ndim(x) == 0 else out


def snr_cdf_finite_sum(dist: GammaSnr, x):
    """Same CDF through the finite sum 1 - e^-u sum_{m<shape} u^m / m!.

    Valid because the shape is a positive integer.  This is the algebraic
    form the closed-form outage expressions are built from; it must agree
    with ``snr_cdf`` to within 1e-12 absolute everywhere.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_finite_sum requires x >= 0")
    u = x_arr / dist.scale
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    partial = np.exp(-u)
    for m in range(1, dist.shape):
        partial = partial + np.exp(-u + m * log_u - math.lgamma(m + 1))
    out = np.clip(1.0 - partial, 0.0, 1.0)
    return float(out) if np.ndim(x) == 0 else out


def mixture_cdf(dist: GammaSnr, zeta: float, x):
    """CDF of the backhaul-gated SNR: point mass 1 - zeta at zero, Gamma body.

    Equals (1 - zeta) + zeta * snr_cdf(dist, x) for x >= 0.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta!r}")
    return (1.0 - zeta) + zeta * snr_cdf(dist, x)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Reproducible substream generator: (seed, stream) fully determines output."""
    return np.random.default_rng([int(seed), int(stream)])


def sample_channel_block(
    cfg: SystemConfig,
    rng: np.random.Generator,
    n: int,
    *,
    eve_per_link: bool = True,
    backhaul_per_link: bool = True,
):
    """Draw ``n`` independent channel states as (gamma_d, gamma_e, backhaul) arrays.

    This is the full-block draw: every link for every sample.  The Monte
    Carlo estimator does not use it (it draws link by link, only for the
    samples still in outage; see ``montecarlo._chunk_counts``); the tests
    of the channel laws and the benchmark's channel-draw seam do.

    Arrays are laid out (rows, n) so that a reduction over transmitters runs
    over contiguous rows.  ``gamma_d`` always has K rows, one per link.
    ``gamma_e`` has K per-link rows, or with ``eve_per_link=False`` a single
    row that stands for the selected link's eavesdropper SNR; likewise
    ``backhaul`` with ``backhaul_per_link``.  One row has the same law as the
    selected link's entry whenever the selection rule never reads that
    quantity: the selected link's value is then independent of the pick and
    distributed like any one link's.

    The draw order is a contract (destination Gamma(M) SNRs, then
    eavesdropper Gamma(N) SNRs, then backhaul uniforms) so that a stream
    position identifies a sample.  A Gamma draw with integer shape has
    exactly the law of that many summed unit exponential path energies, so
    no per-path array is materialised.
    """
    gamma_d = rng.standard_gamma(cfg.M, (cfg.K, n))
    gamma_d *= cfg.a_d
    gamma_e = rng.standard_gamma(cfg.N, (cfg.K if eve_per_link else 1, n))
    gamma_e *= cfg.a_e
    backhaul = rng.random((cfg.K if backhaul_per_link else 1, n)) < cfg.zeta
    return gamma_d, gamma_e, backhaul
