"""System model: received-SNR laws and backhaul gating.

Each of the K single-antenna transmitters reaches the destination over an
M-path Rayleigh faded link.  With single-carrier cyclic-prefix reception the
post-processing SNR is proportional to the total path energy, so it follows
a Gamma law with integer shape M and scale a * snr; the eavesdropper sees
the same structure with N paths and scale b * snr.  Backhaul links are
independent Bernoulli(zeta): an inactive link silences its transmitter,
which manifests as a point mass at zero SNR.  Distribution helpers here
accept scalars or numpy arrays in the evaluation point.  Gamma SNRs have one
sampler, ``_gamma``, shared by ``sample_channel_block`` and the Monte
Carlo: -scale times the log of a product of one (0, 1] uniform per path.
It draws every row in reflected pairs, two values from each uniform, one
rising and one falling with it, each with the same law; there is no
unpaired mode.

Because every shape is an integer, the CDF is the regularized lower
incomplete gamma P(M, u) at integer M, evaluated here in numpy alone (DLMF
8.4, 8.7).  Below u = M it is the all-positive series
e^-u u^M / M! sum_k u^k / ((M+1)...(M+k)); at and above it, one minus the
Poisson finite sum e^-u u^(M-1) / (M-1)! sum_j (M-1)! / (M-1-j)! u^-j.
Both prefactors are formed in log space, and each series is cut per call
where its remainder at the extreme argument falls below 2^-54.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GammaSnr",
    "REFERENCE_CONFIG",
    "SystemConfig",
    "make_rng",
    "sample_channel_block",
    "snr_cdf",
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
        if not all(math.isfinite(g) and g > 0.0 for g in (self.a, self.b)):
            raise ValueError(
                f"path gain factors a, b must be finite and > 0, got a={self.a!r} b={self.b!r}"
            )
        _check_snr(self.snr, self.a, self.b)

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


def _check_snr(snr: float, a: float, b: float) -> None:
    """snr, and the link scales a * snr and b * snr as a ``GammaSnr`` scale, must be finite and > 0."""
    if not (math.isfinite(snr) and snr > 0.0):
        raise ValueError(f"snr must be finite and > 0 on the linear scale, got {snr!r}")
    if not (0.0 < a * snr < math.inf and 0.0 < b * snr < math.inf):
        raise ValueError(f"link SNR scales a*snr={a * snr!r}, b*snr={b * snr!r} must be finite and > 0")


def _at_snr(cfg: SystemConfig, snr: float) -> SystemConfig:
    """``replace(cfg, snr=snr)`` for an already validated ``cfg``: only the new snr is checked."""
    _check_snr(snr, cfg.a, cfg.b)
    out = object.__new__(type(cfg))
    vars(out).update(vars(cfg), snr=snr)
    return out


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
    # x = inf reads as 1e300, where the density has long underflowed
    x_arr = np.minimum(x_arr, 1e300)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    u = x_arr / dist.scale
    out = _lower_gamma_regularized(dist.shape, u.ravel()).reshape(u.shape)
    return float(out) if np.ndim(x) == 0 else out


# Bernoulli-number coefficients B_2i / (2i (2i - 1)) of Stirling's series for
# ln m!; seven of them reach double precision from m = 10 on.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

# A remainder below this share of a series' first term is dropped.
_SERIES_CUT = 2.0**-54

# Powers per block of the series evaluation: z^0 .. z^8 come from one
# product per doubling, and the blocks combine by Horner's rule in z^8.
_BLOCK = 8


@lru_cache(maxsize=None)
def _poisson_offset(m: int) -> float:
    """m ln m - m - ln m!, the log Poisson(m) probability of m, without cancelling m ln m against ln m!."""
    if m < 10:
        return math.log(m**m / math.factorial(m)) - m
    return -0.5 * math.log(2.0 * math.pi * m) - sum(c / m ** (2 * i + 1) for i, c in enumerate(_STIRLING))


def _rows(coefficients: list) -> tuple[np.ndarray, tuple]:
    """A series' coefficients as read-only rows of _BLOCK (the last one zero-padded), and the first two of each row."""
    count = -(-len(coefficients) // _BLOCK)
    rows = np.zeros(count * _BLOCK)
    rows[: len(coefficients)] = coefficients
    rows = rows.reshape(count, _BLOCK)
    rows.flags.writeable = False
    return rows, tuple(map(tuple, rows[:, :2].tolist()))


@lru_cache(maxsize=None)
def _lower_series(shape: int) -> tuple[np.ndarray, tuple]:
    """prod_(i<=k) shape / (shape + i): the series below u = shape, in z = u / shape, long enough for z = 1."""
    out = [1.0]
    while out[-1] * (shape + len(out)) > _SERIES_CUT * len(out):
        out.append(out[-1] * shape / (shape + len(out)))
    return _rows(out)


@lru_cache(maxsize=None)
def _upper_series(shape: int) -> tuple[np.ndarray, tuple]:
    """prod_(i<=j) (shape - i) / (shape - 1), j < shape: the finite sum at and above u = shape, in z = (shape - 1) / u."""
    out = [1.0]
    for j in range(1, shape):
        out.append(out[-1] * (shape - j) / (shape - 1))
    return _rows(out)


def _series(series: tuple[np.ndarray, tuple], z: np.ndarray) -> np.ndarray:
    """sum_k c_k z^k at every 0 <= z <= 1 of a flat array, cut where the largest z needs it.

    The terms fall at a non-increasing ratio, so the remainder from term k
    on is at most t_k / (1 - t_(k+1) / t_k); blocks stop where that falls
    below _SERIES_CUT, or where the coefficients have underflowed to 0 (a
    NaN keeps every block).  Each block is one
    product with z^0 .. z^(_BLOCK - 1), and the blocks combine by Horner's
    rule in z^_BLOCK.
    """
    rows, heads = series
    top = float(z.max())
    count = 1
    for first, second in heads[1:]:
        k = count * _BLOCK
        if first == 0.0 or first * top**k <= _SERIES_CUT * (1.0 - top * second / first):
            break
        count += 1
    powers = np.empty((_BLOCK + 1, z.size))
    powers[0] = 1.0
    powers[1] = z
    for half in (1, 2, 4):
        np.multiply(powers[1 : half + 1], powers[half], out=powers[half + 1 : 2 * half + 1])
    blocks = rows[:count] @ powers[:-1]
    total = blocks[-1]
    for block in blocks[-2::-1]:
        total *= powers[-1]
        total += block
    return total


def _log_poisson(m: int, t: np.ndarray) -> np.ndarray:
    """ln(e^-u u^m / m!) at u = m t, for m >= 1.

    Written as m (ln t - (t - 1)) plus its value at t = 1, so that the large
    terms m ln u, u and ln m! cancel before anything is rounded.
    """
    return m * (np.log(t) - (t - 1.0)) + _poisson_offset(m)


def _lower_gamma_regularized(shape: int, u: np.ndarray) -> np.ndarray:
    """P(shape, u) at integer shape >= 1 for a flat float array u >= 0; NaN propagates."""
    if shape == 1:
        return -np.expm1(-u)
    out = np.empty_like(u)
    below = u < shape
    t = u[below] / shape
    if t.size:
        with np.errstate(divide="ignore"):  # ln 0 = -inf reads as P = 0
            poisson = np.exp(_log_poisson(shape, t))
        out[below] = poisson * _series(_lower_series(shape), t)
    above = ~below
    # u = inf reads as 1e300, where the tail has long underflowed
    t = np.minimum(u[above], 1e300) / (shape - 1)
    if t.size:
        poisson = np.exp(_log_poisson(shape - 1, t))
        out[above] = 1.0 - poisson * _series(_upper_series(shape), 1.0 / t)
    return out


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Reproducible substream generator: (seed, stream) fully determines output.

    The bit generator is SFC64, seeded through ``SeedSequence([seed,
    stream])``, so distinct pairs get independent streams.  The Monte Carlo
    chunks draw mostly uniform rows (their Gamma SNRs are products of
    uniforms).  On a 2-core Xeon with numpy 2.4, SFC64 fills a 65536-sample
    uniform row in 0.19–0.23 ms, against 0.27–0.28 ms for numpy's default
    PCG64, and costs the same to create.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([int(seed), int(stream)])))


# Each uniform factor 1 - u is at least 2**-53, so a product of this many is
# at least 2**-1007, a normal double whose log keeps full precision.
_PRODUCT_FACTORS = 19

# numpy's uniforms are the multiples of 2**-53 in [0, 1): both 1 - u and
# u + 2**-53 map them exactly onto the multiples in (0, 1], in opposite order.
_ULP = 2.0**-53


def _gamma(rng: np.random.Generator, shape: int, scale: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the flat ``out`` with Gamma(shape) draws of scale ``scale``; ``tmp``, at least as long, is scratch.

    A draw is the sum of ``shape`` unit exponential path energies, -ln of
    the product of ``shape`` uniform factors.  A row of m draws reads one
    uniform row of h = ceil(m / 2) per path: the first h draws take the
    factors 1 - u, and the last m - h take u + 2**-53 of the first m - h
    uniforms.  Both maps are exact and send numpy's uniform lattice on
    [0, 1) onto the same (0, 1] lattice, so no draw is infinite and every
    draw has the Gamma(shape) law; draw i rises with its uniforms and draw
    h + i falls with them.  With m odd, draw h - 1 has no partner.  Past
    ``_PRODUCT_FACTORS`` paths, where a product could leave the normal
    range, each further path energy is added as its own -ln of its factor.
    The log is multiplied by -scale in one pass: negation is exact, so a
    draw is bit for bit ``scale`` times the unit-scale one.
    """
    size = out.size
    drawn = -(-size // 2)

    def factors(row: np.ndarray) -> np.ndarray:
        """One path's factors into ``row``: the partners first, read before 1 - u overwrites their uniforms."""
        rng.random(out=row[:drawn])
        np.add(row[: size - drawn], _ULP, out=row[drawn:])
        np.subtract(1.0, row[:drawn], out=row[:drawn])
        return row

    factor = tmp[:size]
    factors(out)
    for _ in range(min(shape, _PRODUCT_FACTORS) - 1):
        out *= factors(factor)
    np.log(out, out=out)
    for _ in range(shape - _PRODUCT_FACTORS):
        out += np.log(factors(factor), out=factor)
    np.multiply(out, -scale, out=out)
    return out


def sample_channel_block(cfg: SystemConfig, rng: np.random.Generator, n: int):
    """Draw ``n`` channel states as (gamma_d, gamma_e, backhaul) arrays.

    This is the full-block draw: every link for every sample.  The Monte
    Carlo estimator does not use it (it draws link by link, only for the
    samples still in outage; see ``montecarlo._chunk_counts``); the tests
    of the channel laws and the benchmark's channel-draw seam do.  Each
    array has shape (K, n), one row per link, so that a reduction over
    transmitters runs over contiguous rows.

    The draw order is a contract so that a stream position identifies a
    sample: the K destination Gamma(M) rows, then the K eavesdropper
    Gamma(N) rows, each one ``_gamma`` call of n draws, then the
    backhaul uniforms.  Every Gamma row is drawn in reflected pairs, as in
    the Monte Carlo: sample h + i of a link (h = ceil(n / 2)) reflects the
    uniforms of its sample i.  Partners are two samples of one link, never
    two links of one sample, so each sample has the model's joint law, with
    its links and backhaul independent; the samples are not independent of
    each other.
    """
    gamma_d, gamma_e, uniforms = np.empty((cfg.K, n)), np.empty((cfg.K, n)), np.empty((cfg.K, n))
    for gamma, shape, scale in ((gamma_d, cfg.M, cfg.a_d), (gamma_e, cfg.N, cfg.a_e)):
        for row in gamma:
            _gamma(rng, shape, scale, row, uniforms[0])
    backhaul = rng.random(out=uniforms) < cfg.zeta
    return gamma_d, gamma_e, backhaul
