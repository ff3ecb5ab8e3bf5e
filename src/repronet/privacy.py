"""Local randomizer, shuffling, and privacy-amplification arithmetic.

The local randomizer perturbs a non-negative report vector entrywise with
truncated Gaussian noise: a positive entry ``v`` with box ``[l, u]`` becomes
a draw from ``TrunG(v, sigma, l, u)`` supported on ``(l, u]``, while an
exactly-zero entry stays exactly zero, so absent interactions are never
fabricated.  The noise scale is calibrated against an L2 adjacency relation
(vectors within distance ``k`` must be rendered indistinguishable, which
also makes ``k`` the L2 sensitivity of the identity query): ``sigma`` is the
smallest value satisfying

    sigma^2 >= k * (k/2 + sqrt(sum_active (u - l)^2))
               / (epsilon0 - log DeltaC(sigma, c))

where the sum ranges over the positive ("active") entries and ``DeltaC`` is
a product of truncated-normalization ratios, evaluated at the worst-case
offset vector ``c`` over ``{c >= 0, ||c||_2 <= k}``.  Every entry shares one
noise box ``[l, u]``, and for equal widths that worst case has a closed
form (see :func:`worst_case_offset`): each factor of ``DeltaC`` is
log-concave in its coordinate and peaks at ``c = (u - l)/2``, so by
permutation symmetry the maximizer is ``min(k/sqrt(d), (u - l)/2)`` in every
one of the ``d`` active coordinates.  The offset is exact, not searched, so
the calibrated ``sigma`` never rests on an under-estimated ``DeltaC``.

Shuffling a cluster's randomized reports through a uniform permutation
amplifies the per-report guarantee ``epsilon0`` to

    eps <= ln(1 + (e^eps0 - 1) * (4 sqrt(2 ln(4/delta)) /
           sqrt((e^eps0 + 1) n) + 4/n))

for a cluster of size ``n``, valid while
``eps0 <= ln(n / (8 ln(2/delta)) - 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    DegenerateTruncationError,
    PrivacyBoundsError,
)

__all__ = [
    "TruncGaussParams",
    "PrivacySpec",
    "CalibratedMechanism",
    "trunc_gauss_sample",
    "trunc_gauss_moments",
    "delta_c",
    "worst_case_offset",
    "sigma_inequality_holds",
    "calibrate_sigma",
    "bounded_gaussian_randomize",
    "shuffle",
    "amplified_epsilon",
]

# Below this acceptance probability the sampler switches from rejection
# sampling to the inverse-CDF transform.
_MIN_REJECTION_MASS = 0.05
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _std_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


@dataclass(frozen=True)
class TruncGaussParams:
    """Parameters of a truncated Gaussian on the interval (lower, upper].

    The center must satisfy ``lower < mu <= upper``.  ``alpha`` and ``beta``
    are the standardized bounds ``(lower - mu) / sigma`` and
    ``(upper - mu) / sigma``.
    """

    mu: float
    sigma: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigError("truncated Gaussian parameters must be finite")
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if not self.lower < self.upper:
            raise ConfigError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not (self.lower < self.mu <= self.upper):
            raise ConfigError(
                f"center {self.mu} must lie in ({self.lower}, {self.upper}]"
            )

    @property
    def alpha(self) -> float:
        return (self.lower - self.mu) / self.sigma

    @property
    def beta(self) -> float:
        return (self.upper - self.mu) / self.sigma

    def pdf(self, z):
        """Density; zero outside (lower, upper]."""
        z = np.asarray(z, dtype=float)
        mass = ndtr(self.beta) - ndtr(self.alpha)
        inside = (z > self.lower) & (z <= self.upper)
        values = _std_pdf((z - self.mu) / self.sigma) / (self.sigma * mass)
        return np.where(inside, values, 0.0)


def _sample_box_truncated(
    mu: np.ndarray,
    sigma: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vector of truncated-Gaussian draws with per-element parameters."""
    n = mu.size
    out = np.empty(n)
    alpha = (lower - mu) / sigma
    beta = (upper - mu) / sigma
    mass = ndtr(beta) - ndtr(alpha)

    inverse = mass < _MIN_REJECTION_MASS
    if np.any(inverse):
        lo = ndtr(alpha[inverse])
        hi = ndtr(beta[inverse])
        u = rng.uniform(lo, hi)
        out[inverse] = mu[inverse] + sigma[inverse] * ndtri(u)

    pending = np.nonzero(~inverse)[0]
    rounds = 0
    while pending.size:
        draw = mu[pending] + sigma[pending] * rng.standard_normal(pending.size)
        ok = (draw > lower[pending]) & (draw <= upper[pending])
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
        rounds += 1
        if rounds > 1000 and pending.size:  # acceptance >= 0.05 makes this unreachable
            lo = ndtr(alpha[pending])
            hi = ndtr(beta[pending])
            u = rng.uniform(lo, hi)
            out[pending] = mu[pending] + sigma[pending] * ndtri(u)
            break

    # Keep the support half-open despite round-off at the edges.
    open_lower = np.nextafter(lower, upper)
    return np.minimum(np.maximum(out, open_lower), upper)


def trunc_gauss_sample(
    params: TruncGaussParams,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw from the truncated Gaussian; scalar unless ``size`` is given.

    Rejection sampling against the untruncated Gaussian, switching to the
    inverse-CDF transform when the window mass drops below 5%.
    """
    n = 1 if size is None else int(size)
    mu = np.full(n, params.mu)
    sigma = np.full(n, params.sigma)
    lower = np.full(n, params.lower)
    upper = np.full(n, params.upper)
    draws = _sample_box_truncated(mu, sigma, lower, upper, rng)
    return float(draws[0]) if size is None else draws


def trunc_gauss_moments(params: TruncGaussParams) -> tuple[float, float]:
    """Closed-form (mean, variance) of the truncated Gaussian."""
    alpha, beta = params.alpha, params.beta
    mass = float(ndtr(beta) - ndtr(alpha))
    if mass < 1e-15:
        raise DegenerateTruncationError(
            f"truncation window [{params.lower}, {params.upper}] has mass {mass:.3e} "
            f"around mu={params.mu}"
        )
    phi_a = float(_std_pdf(alpha))
    phi_b = float(_std_pdf(beta))
    ratio = (phi_a - phi_b) / mass
    mean = params.mu + params.sigma * ratio
    variance = params.sigma**2 * (1.0 - (beta * phi_b - alpha * phi_a) / mass - ratio**2)
    return mean, variance


def delta_c(sigma: float, widths: np.ndarray, offset: np.ndarray) -> float:
    """Normalization-shift product for active window widths at offset c.

    Each factor is ``(Phi((w - c)/sigma) - Phi(-c/sigma)) /
    (Phi(w/sigma) - Phi(0))``; the product runs over active entries only
    (inactive entries are untouched by the randomizer and contribute no
    factor).
    """
    widths = np.asarray(widths, dtype=float)
    offset = np.asarray(offset, dtype=float)
    numerator = ndtr((widths - offset) / sigma) - ndtr(-offset / sigma)
    denominator = ndtr(widths / sigma) - 0.5
    # For sigma >> width both tails collapse; the ratio limit is 1.
    safe = denominator > 0.0
    ratios = np.where(safe, numerator / np.where(safe, denominator, 1.0), 1.0)
    return float(np.prod(ratios))


def worst_case_offset(sigma: float, widths: np.ndarray, k: float) -> tuple[np.ndarray, float]:
    """Exact maximizer of delta_c over {c >= 0, ||c||_2 <= k}, and its value.

    Each factor of delta_c is the mass of N(0, sigma^2) on the window
    ``[-c, w - c]``: the convolution of an interval indicator with a
    Gaussian, hence log-concave in ``c`` (Prekopa 1973), symmetric about
    ``w/2`` and increasing on ``[0, w/2]``.  With one width ``w`` for every
    active entry, ``log delta_c`` is concave and invariant under permuting
    the coordinates, and so is the feasible set; averaging a maximizer over
    all permutations therefore gives a maximizer with equal coordinates.
    Along that diagonal each factor grows until ``c = w/2``, so the
    maximizer is ``min(k/sqrt(d), w/2)`` in every one of the ``d``
    coordinates.  Widths that differ raise ``ConfigError``.
    """
    widths = np.asarray(widths, dtype=float)
    if np.any(widths != widths[0]):
        raise ConfigError(
            "the worst-case offset needs one noise-box width for every active "
            f"entry, got widths {widths.tolist()}"
        )
    offset = np.full(widths.size, min(k / math.sqrt(widths.size), 0.5 * widths[0]))
    return offset, delta_c(sigma, widths, offset)


def sigma_inequality_holds(
    sigma: float,
    epsilon0: float,
    k: float,
    widths_active: np.ndarray,
) -> bool:
    """Does sigma satisfy the calibration inequality at the worst-case c?"""
    _, dc = worst_case_offset(sigma, widths_active, k)
    slack = epsilon0 - math.log(dc)
    if slack <= 0.0:
        return False
    needed = k * (k / 2.0 + math.sqrt(float(np.sum(np.square(widths_active)))))
    return sigma * sigma * slack >= needed


def calibrate_sigma(
    epsilon0: float,
    k: float,
    lower: np.ndarray,
    upper: np.ndarray,
    support_mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Smallest noise scale satisfying the privacy inequality, plus offset.

    Bisects sigma to relative precision 1e-6 over the bracket
    ``[1e-8 k, 10 max(u - l)]``; inactive entries (mask false) contribute
    nothing to the width sum.  The active entries must share one box width
    (``ConfigError`` otherwise), which is what makes the worst-case offset
    exact.  Raises ``CalibrationInfeasibleError`` when no sigma in the
    bracket works.
    """
    if epsilon0 <= 0.0:
        raise ConfigError(f"epsilon0 must be positive, got {epsilon0}")
    if k <= 0.0:
        raise ConfigError(f"adjacency radius k must be positive, got {k}")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    mask = np.asarray(support_mask, dtype=bool)
    if lower.shape != upper.shape or lower.shape != mask.shape:
        raise ConfigError("bounds and support mask must have matching shapes")
    if np.any(lower >= upper):
        raise ConfigError("every bound pair must satisfy lower < upper")
    if not np.any(mask):
        raise ConfigError("at least one entry must be active for calibration")

    widths_active = (upper - lower)[mask]
    lo = 1e-8 * k
    hi = 10.0 * float(np.max(upper - lower))

    def feasible(sigma: float) -> bool:
        return sigma_inequality_holds(sigma, epsilon0, k, widths_active)

    if not feasible(hi):
        raise CalibrationInfeasibleError(
            f"no noise scale in [{lo:.3e}, {hi:.3e}] satisfies the privacy "
            f"inequality for epsilon0={epsilon0}, k={k}; increase epsilon0 "
            "or decrease k"
        )
    if not feasible(lo):
        while (hi - lo) > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        sigma = hi
    else:
        sigma = lo

    if not feasible(sigma):
        raise CalibrationInfeasibleError(
            "re-substitution check failed after bisection; inputs are at the "
            "edge of feasibility"
        )
    offset = np.zeros(mask.size)
    offset[mask] = worst_case_offset(sigma, widths_active, k)[0]
    return sigma, offset


@dataclass(frozen=True)
class PrivacySpec:
    """Local-randomizer configuration shared by every authority.

    ``bounds`` is one ``(lower, upper)`` noise box shared by every entry.
    ``k`` is both the adjacency radius and the L2 sensitivity of the
    identity query being privatized.  The derived noise scale and offset
    depend on which entries of a report are positive, so they live on the
    ``CalibratedMechanism`` produced by :meth:`calibrate`.
    """

    epsilon0: float
    delta: float = 0.01
    k: float = 1e-5
    bounds: tuple = (0.0, 14.0)

    def __post_init__(self):
        if self.epsilon0 <= 0.0:
            raise ConfigError(f"epsilon0 must be positive, got {self.epsilon0}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.k <= 0.0:
            raise ConfigError(f"adjacency radius k must be positive, got {self.k}")
        bounds = tuple(self.bounds)
        if len(bounds) != 2 or not all(isinstance(v, (int, float)) for v in bounds):
            raise ConfigError(f"bounds must be one (lower, upper) pair, got {self.bounds!r}")
        lo, hi = float(bounds[0]), float(bounds[1])
        if not lo < hi:
            raise ConfigError(f"need lower < upper in bounds, got [{lo}, {hi}]")
        object.__setattr__(self, "bounds", (lo, hi))

    @property
    def sensitivity(self) -> float:
        """L2 sensitivity of the identity query under the adjacency relation."""
        return self.k

    def bounds_arrays(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.bounds
        return np.full(m, lo), np.full(m, hi)

    def calibrate(self, support_mask) -> "CalibratedMechanism":
        mask = tuple(bool(v) for v in support_mask)
        return _calibrate_cached(self, mask)


@dataclass(frozen=True)
class CalibratedMechanism:
    """A privacy spec with sigma and offset derived for one support pattern."""

    spec: PrivacySpec
    support: tuple[bool, ...]
    sigma: float
    offset: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.support)

    def inequality_holds(self, sigma: float | None = None) -> bool:
        """Re-evaluate the calibration inequality (at ``sigma`` if given)."""
        widths = (np.array(self.upper) - np.array(self.lower))[np.array(self.support)]
        return sigma_inequality_holds(
            self.sigma if sigma is None else sigma, self.spec.epsilon0, self.spec.k, widths
        )


@lru_cache(maxsize=512)
def _calibrate_cached(spec: PrivacySpec, mask: tuple) -> CalibratedMechanism:
    lower, upper = spec.bounds_arrays(len(mask))
    sigma, offset = calibrate_sigma(spec.epsilon0, spec.k, lower, upper, np.array(mask))
    return CalibratedMechanism(
        spec=spec,
        support=mask,
        sigma=sigma,
        offset=tuple(offset.tolist()),
        lower=tuple(lower.tolist()),
        upper=tuple(upper.tolist()),
    )


def bounded_gaussian_randomize(
    zeta: np.ndarray,
    mechanism: CalibratedMechanism,
    rng: np.random.Generator,
) -> np.ndarray:
    """Privatize a non-negative vector entrywise.

    Positive entries become truncated-Gaussian draws centered at the true
    value inside their boxes; zero entries are returned exactly zero.  An
    active entry outside its box (or sitting exactly on the open lower
    edge) is an error: the caller is expected to clamp values into the box
    before randomizing.
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (mechanism.m,):
        raise ConfigError(f"expected vector of length {mechanism.m}, got shape {zeta.shape}")
    if np.any(zeta < 0.0):
        raise ConfigError("report vectors must be non-negative")
    positive = zeta > 0.0
    if tuple(bool(v) for v in positive) != mechanism.support:
        raise PrivacyBoundsError(
            "support pattern of the vector differs from the calibrated pattern"
        )
    out = np.zeros_like(zeta)
    if not np.any(positive):
        return out
    lower = np.array(mechanism.lower)[positive]
    upper = np.array(mechanism.upper)[positive]
    values = zeta[positive]
    if np.any(values <= lower) or np.any(values > upper):
        bad = int(np.nonzero((values <= lower) | (values > upper))[0][0])
        raise PrivacyBoundsError(
            f"entry value {values[bad]} lies outside its noise box "
            f"({lower[bad]}, {upper[bad]}]; clamp reports before randomizing"
        )
    sigma = np.full(values.size, mechanism.sigma)
    out[positive] = _sample_box_truncated(values, sigma, lower, upper, rng)
    return out


def shuffle(items: Sequence, rng: np.random.Generator) -> list:
    """Uniformly random permutation (Fisher-Yates) of a non-empty batch.

    Items exposing an ``anonymized()`` method (report vectors carry their
    sender id) are anonymized before permuting.
    """
    if len(items) == 0:
        raise ConfigError("cannot shuffle an empty batch")
    out = [item.anonymized() if hasattr(item, "anonymized") else item for item in items]
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def amplified_epsilon(epsilon0: float, delta: float, cluster_size: int) -> float:
    """Shuffle-amplified privacy level for one cluster.

    Requires the validity condition
    ``epsilon0 <= ln(cluster_size / (8 ln(2/delta)) - 1)``; violations raise
    instead of clamping.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if epsilon0 < 0.0:
        raise ConfigError(f"epsilon0 must be non-negative, got {epsilon0}")
    if cluster_size < 1:
        raise ConfigError(f"cluster size must be >= 1, got {cluster_size}")
    headroom = cluster_size / (8.0 * math.log(2.0 / delta)) - 1.0
    if headroom <= 0.0 or epsilon0 > math.log(headroom):
        raise ConfigError(
            f"validity condition epsilon0 <= ln(n/(8 ln(2/delta)) - 1) fails for "
            f"epsilon0={epsilon0}, delta={delta}, cluster size {cluster_size}"
        )
    term = (
        4.0 * math.sqrt(2.0 * math.log(4.0 / delta))
        / math.sqrt((math.exp(epsilon0) + 1.0) * cluster_size)
        + 4.0 / cluster_size
    )
    return math.log1p(math.expm1(epsilon0) * term)
