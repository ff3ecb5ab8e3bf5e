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

The normal CDF ``ndtr`` and its inverse ``ndtri`` are a port of Stephen
L. Moshier's Cephes Math Library (``ndtr.c``, ``ndtri.c``), the routines
that ``scipy.special`` ships, and return the same bits as scipy's on every
double: ``ndtr`` through Cephes' ``erf`` and ``erfc`` rational
approximations, ``ndtri`` through its three (the centre, and the tails
below and above ``sqrt(-2 log y) = 8``).  Each value is computed by scalar
Python float code whose ``exp``, ``log`` and ``sqrt`` are the C library's,
as in the compiled Cephes.  A whole-array port over ``np.exp`` would be
faster per value but not exact: numpy's SIMD ``exp`` is not libm's, and on
x86-64 with numpy 2.4 it rounds about one argument in 20 in ``[-708, 0]``
differently.  The noise path calls these on few values, where the scalar
code costs little and scipy's import would cost more than the rest of the
package: calibration's ``delta_c`` evaluates three per active entry, and the
sampler evaluates a window's mass only where no bound already decides its
branch (see ``_sample_box_truncated``), which on typical noise boxes is
nowhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    DegenerateTruncationError,
    PrivacyBoundsError,
)

__all__ = [
    "ndtr",
    "ndtri",
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
# Where max(beta, -alpha) reaches this, the mass exceeds Phi(0.2) - 1/2 > 0.079.
_REJECTION_DECIDED = 0.2
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Cephes constants: 1/sqrt(2), log(DBL_MAX) (erfc underflows past it), exp(-2), and
# sqrt(2 pi) rounded correctly, one ulp above _SQRT_2PI
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242


def _ndtr1(a: float) -> float:
    """Cephes ``ndtr`` at ``z = |a|/sqrt(2)``: ``(1 + erf)/2`` below ``z = 1/sqrt(2)``, else
    ``erfc(z)/2`` reflected for ``a > 0``, where ``erfc`` is ``1 - erf`` below 1, the P/Q
    approximation below 8 and R/S until ``exp(-z^2)`` underflows."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:  # erf(z) = z T(z^2) / U(z^2)
        s = z * z
        p = (((9.60497373987051638749e0 * s + 9.00260197203842689217e1) * s + 2.23200534594684319226e3) * s
             + 7.00332514112805075473e3) * s + 5.55923013010394962768e4
        q = ((((s + 3.35617141647503099647e1) * s + 5.21357949780152679795e2) * s + 4.59432382970980127987e3) * s
             + 2.26290000613890934246e4) * s + 4.92673942608635921086e4
        if z < _SQRT1_2:
            return 0.5 + 0.5 * (x * p / q)
        y = 0.5 * (1.0 - z * p / q)
    elif z < 8.0:  # erfc(z) = exp(-z^2) P(z) / Q(z)
        p = (((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1) * z + 7.46321056442269912687e0) * z
                 + 4.86371970985681366614e1) * z + 1.96520832956077098242e2) * z + 5.26445194995477358631e2) * z
              + 9.34528527171957607540e2) * z + 1.02755188689515710272e3) * z + 5.57535335369399327526e2
        q = (((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1) * z + 3.54937778887819891062e2) * z
                + 9.75708501743205489753e2) * z + 1.82390916687909736289e3) * z + 2.24633760818710981792e3) * z
             + 1.65666309194161350182e3) * z + 5.57535340817727675546e2
        y = 0.5 * (math.exp(-z * z) * p / q)
    elif z * z <= _MAXLOG:  # erfc(z) = exp(-z^2) R(z) / S(z)
        p = ((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z + 5.01905042251180477414e0) * z
              + 6.16021097993053585195e0) * z + 7.40974269950448939160e0) * z + 2.97886665372100240670e0
        q = (((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0) * z + 1.20489539808096656605e1) * z
              + 1.70814450747565897222e1) * z + 9.60896809063285067018e0) * z + 3.36907645100081516050e0
        y = 0.5 * (math.exp(-z * z) * p / q)
    elif z == z:  # erfc underflows
        y = 0.0
    else:  # NaN; scipy returns a positive one
        return math.nan
    return 1.0 - y if x > 0 else y


def _ndtri1(y0: float) -> float:
    """Cephes ``ndtri``: P0/Q0 for ``exp(-2) < y0 <= 1 - exp(-2)``; otherwise, with ``y`` the
    nearer tail's mass and ``x = sqrt(-2 log y)``, P1/Q1 below ``x = 8`` and P2/Q2 above."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:  # NaN passes, as in Cephes, and comes out NaN
        return math.nan
    y = y0
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        p = (((-5.99633501014107895267e1 * y2 + 9.80010754185999661536e1) * y2 - 5.66762857469070293439e1) * y2
             + 1.39312609387279679503e1) * y2 - 1.23916583867381258016e0
        q = (((((((y2 + 1.95448858338141759834e0) * y2 + 4.67627912898881538453e0) * y2 + 8.63602421390890590575e1) * y2
                 - 2.25462687854119370527e2) * y2 + 2.00260212380060660359e2) * y2 - 8.20372256168333339912e1) * y2
              + 1.59056225126211695515e1) * y2 - 1.18331621121330003142e0
        return (y + y * (y2 * p / q)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        p = (((((((4.05544892305962419923e0 * z + 3.15251094599893866154e1) * z + 5.71628192246421288162e1) * z
                 + 4.40805073893200834700e1) * z + 1.46849561928858024014e1) * z + 2.18663306850790267539e0) * z
              - 1.40256079171354495875e-1) * z - 3.50424626827848203418e-2) * z - 8.57456785154685413611e-4
        q = (((((((z + 1.57799883256466749731e1) * z + 4.53907635128879210584e1) * z + 4.13172038254672030440e1) * z
                + 1.50425385692907503408e1) * z + 2.50464946208309415979e0) * z - 1.42182922854787788574e-1) * z
             - 3.80806407691578277194e-2) * z - 9.33259480895457427372e-4
    else:
        p = (((((((3.23774891776946035970e0 * z + 6.91522889068984211695e0) * z + 3.93881025292474443415e0) * z
                 + 1.33303460815807542389e0) * z + 2.01485389549179081538e-1) * z + 1.23716634817820021358e-2) * z
              + 3.01581553508235416007e-4) * z + 2.65806974686737550832e-6) * z + 6.23974539184983293730e-9
        q = (((((((z + 6.02427039364742014255e0) * z + 3.67983563856160859403e0) * z + 1.37702099489081330271e0) * z
                + 2.16236993594496635890e-1) * z + 1.34204006088543189037e-2) * z + 3.28014464682127739104e-4) * z
             + 2.89247864745380683936e-6) * z + 6.79019408009981274425e-9
    x = x0 - z * p / q
    return -x if negate else x


def ndtr(x):
    """Standard normal CDF, elementwise; bit-identical to ``scipy.special.ndtr``."""
    a = np.asarray(x, dtype=float)
    return np.fromiter(map(_ndtr1, a.ravel().tolist()), float, a.size).reshape(a.shape)[()]


def ndtri(x):
    """Inverse of :func:`ndtr`, elementwise; bit-identical to ``scipy.special.ndtri``."""
    a = np.asarray(x, dtype=float)
    return np.fromiter(map(_ndtri1, a.ravel().tolist()), float, a.size).reshape(a.shape)[()]


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


def _sample_box_truncated(
    mu: np.ndarray,
    sigma: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Rows of truncated-Gaussian draws, row k from ``rngs[k]``.

    ``mu`` holds one centre per column, ``(d,)``, or a row of centres per
    authority, ``(A, d)``, with ``len(rngs) // A`` generators each,
    authority-major; ``sigma``, ``lower`` and ``upper`` hold one value per
    column.  Each generator makes exactly the calls a one-row draw makes:
    the inverse-CDF uniforms, one ``standard_normal`` per rejection round its
    row still needs, then the fallback uniforms.  Only the accept test runs
    over all rows at once, so row k is bit-identical to drawing it alone.

    The branch is chosen once per authority and column.  The centre lies in
    ``(lower, upper]``, so ``alpha < 0 <= beta`` and the window mass is at
    least ``Phi(max(beta, -alpha)) - 1/2``, above 0.079 where
    ``max(beta, -alpha) >= 0.2``: there the rejection branch is taken
    without :func:`ndtr`.
    """
    mu = np.atleast_2d(mu)
    authorities, d = mu.shape
    per_authority = len(rngs) // authorities
    out = np.empty((len(rngs), d))
    alpha = (lower - mu) / sigma
    beta = (upper - mu) / sigma

    undecided = np.maximum(beta, -alpha) < _REJECTION_DECIDED
    lo, hi = np.zeros((2, authorities, d))
    if undecided.any():
        lo[undecided], hi[undecided] = ndtr(np.array([alpha[undecided], beta[undecided]]))
    inverse = undecided & (hi - lo < _MIN_REJECTION_MASS)
    for a in np.flatnonzero(inverse.any(axis=1)):
        cols, rows = inverse[a], range(a * per_authority, (a + 1) * per_authority)
        u = np.stack([rngs[k].uniform(lo[a, cols], hi[a, cols]) for k in rows])
        out[rows.start : rows.stop, cols] = mu[a, cols] + sigma[cols] * ndtri(u)

    flat, centres = out.reshape(-1), mu.reshape(-1)
    pending = np.flatnonzero(np.repeat(~inverse, per_authority, axis=0))  # row-major
    rounds = 0
    while pending.size:
        if len(rngs) == 1:
            z = rngs[0].standard_normal(pending.size)
        else:
            counts = np.bincount(pending // d)
            z = np.concatenate([rngs[k].standard_normal(counts[k]) for k in np.flatnonzero(counts)])
        col = pending % d
        draw = centres[pending // (per_authority * d) * d + col] + sigma[col] * z
        ok = (draw > lower[col]) & (draw <= upper[col])
        flat[pending[ok]] = draw[ok]
        pending = pending[~ok]
        rounds += 1
        if rounds > 1000 and pending.size:  # acceptance >= 0.05 makes this unreachable
            for k in np.flatnonzero(np.bincount(pending // d)):
                a, left = k // per_authority, pending[pending // d == k] % d
                lo, hi = ndtr(np.array([alpha[a, left], beta[a, left]]))
                out[k, left] = mu[a, left] + sigma[left] * ndtri(rngs[k].uniform(lo, hi))
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
    fields = (params.mu, params.sigma, params.lower, params.upper)
    draws = _sample_box_truncated(*(np.full(n, v) for v in fields), [rng])[0]
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
    factor).  ``widths`` and ``offset`` have one length: the three ``Phi``
    arguments go to :func:`ndtr` as one array, in one call.
    """
    widths = np.asarray(widths, dtype=float)
    offset = np.asarray(offset, dtype=float)
    above, below, full = ndtr(np.array([(widths - offset) / sigma, -offset / sigma, widths / sigma]))
    numerator = above - below
    denominator = full - 0.5
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
        """The mechanism of one support pattern, cached per pattern; ``calibrate_sigma``
        runs once per count of active entries."""
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
def _calibrate_count(spec: PrivacySpec, d: int) -> tuple[float, np.ndarray]:
    """``calibrate_sigma`` of ``d`` active entries.  Every entry shares one box, so a
    support mask enters the calibration only through its count of active entries."""
    lower, upper = spec.bounds_arrays(d)
    return calibrate_sigma(spec.epsilon0, spec.k, lower, upper, np.ones(d, dtype=bool))


@lru_cache(maxsize=512)
def _calibrate_cached(spec: PrivacySpec, mask: tuple) -> CalibratedMechanism:
    sigma, active_offset = _calibrate_count(spec, sum(mask))
    lower, upper = spec.bounds_arrays(len(mask))
    offset = np.zeros(len(mask))
    offset[np.array(mask, dtype=bool)] = active_offset
    return CalibratedMechanism(
        spec=spec,
        support=mask,
        sigma=sigma,
        offset=tuple(offset.tolist()),
        lower=tuple(lower.tolist()),
        upper=tuple(upper.tolist()),
    )


def _box_values(zeta, mechanism: CalibratedMechanism) -> tuple[np.ndarray, ...]:
    """The randomizer's checks of one report; its positive-entry mask, and the values and
    box edges of those entries."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (mechanism.m,):
        raise ConfigError(f"expected vector of length {mechanism.m}, got shape {zeta.shape}")
    if (zeta < 0.0).any():
        raise ConfigError("report vectors must be non-negative")
    positive = zeta > 0.0
    if tuple(positive.tolist()) != mechanism.support:
        raise PrivacyBoundsError(
            "support pattern of the vector differs from the calibrated pattern"
        )
    lower = np.array(mechanism.lower)[positive]
    upper = np.array(mechanism.upper)[positive]
    values = zeta[positive]
    outside = (values <= lower) | (values > upper)
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])
        raise PrivacyBoundsError(
            f"entry value {values[bad]} lies outside its noise box "
            f"({lower[bad]}, {upper[bad]}]; clamp reports before randomizing"
        )
    return positive, values, lower, upper


def bounded_gaussian_randomize(
    zeta: np.ndarray,
    mechanism: CalibratedMechanism,
    rngs: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """Privatize a non-negative vector entrywise.

    Positive entries become truncated-Gaussian draws centered at the true
    value inside their boxes; zero entries are returned exactly zero.  An
    active entry outside its box (or sitting exactly on the open lower
    edge) is an error: the caller is expected to clamp values into the box
    before randomizing.  One generator gives one privatized vector; a
    sequence of generators gives one row per generator, each bit-identical
    to a one-generator call, with the checks above run once.
    """
    single = isinstance(rngs, np.random.Generator)
    if single:
        rngs = [rngs]
    positive, values, lower, upper = _box_values(zeta, mechanism)
    out = np.zeros((len(rngs), mechanism.m))
    sigma = np.full(values.size, mechanism.sigma)
    out[:, positive] = _sample_box_truncated(values, sigma, lower, upper, rngs)
    return out[0] if single else out


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
