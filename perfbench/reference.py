"""Reference computations for the output checks, sharing no code with repronet.

Everything here is written from the defining equations with numpy and
scipy only:

* effective(i, j) = clip(s_i b_ij x_j / (gamma_i x_i), lo, hi), x floored;
* the report of entity i for cluster r is gamma_i x_i sum_{k in r} effective(i, k);
* cluster entry (q, r) sums the reports of q's members for r and divides by
  sum_{i in q} gamma_i x_i;
* lern(i) is the row sum of the effective matrix;
* network numbers are spectral radii from ``numpy.linalg.eigvals``;
* trajectories come from a plain fixed-step RK4 loop (to reproduce the
  program's sampled states to round-off) and from ``solve_ivp`` (DOP853,
  rtol 1e-11) as the accuracy reference for both;
* truncated-Gaussian means come from ``scipy.stats.truncnorm`` and the
  calibration factor DeltaC from ``scipy.stats.norm``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.stats import norm, truncnorm


def floored(x, floor):
    return np.maximum(np.asarray(x, dtype=float), floor)


def effective_matrix(b, gamma, s, x, floor, clamp=None):
    x_f = floored(x, floor)
    eff = (s / gamma)[:, None] * b * x_f[None, :] / x_f[:, None]
    return eff if clamp is None else np.clip(eff, *clamp)


def report_matrix(b, gamma, s, x, blocks, floor, clamp):
    """(n, m) matrix of every entity's exact report."""
    eff = effective_matrix(b, gamma, s, x, floor, clamp)
    weight = gamma * floored(x, floor)
    return np.stack([weight * eff[:, list(block)].sum(axis=1) for block in blocks], axis=1)


def cluster_matrix(b, gamma, s, x, blocks, floor, clamp):
    reports = report_matrix(b, gamma, s, x, blocks, floor, clamp)
    weight = gamma * floored(x, floor)
    return np.stack(
        [reports[list(block)].sum(axis=0) / weight[list(block)].sum() for block in blocks]
    )


def lern(b, gamma, s, x, floor, clamp=None):
    return effective_matrix(b, gamma, s, x, floor, clamp).sum(axis=1)


def spectral_radius(matrix) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def network_numbers(b, gamma, s) -> tuple[float, float]:
    """(basic, effective) network reproduction numbers."""
    basic = b / gamma[:, None]
    return spectral_radius(basic), spectral_radius(s[:, None] * basic)


def _vector_field(b, gamma, model):
    n = gamma.size

    def field(_t, y):
        s, x = y[:n], y[n : 2 * n]
        infection = s * (b @ x)
        recovery = gamma * x
        if model == "sis":
            return np.concatenate((recovery - infection, infection - recovery, np.zeros(n)))
        return np.concatenate((-infection, infection - recovery, recovery))

    return field


def rk4_states(b, gamma, x0, model, dt, steps, keep):
    """Classical RK4 with a fixed step; returns {step: (s, x, r)} for `keep`."""
    n = gamma.size
    field = _vector_field(b, gamma, model)
    y = np.concatenate((np.full(n, 1.0 - x0), np.full(n, x0), np.zeros(n)))
    wanted = set(keep)
    out = {}
    for step in range(steps + 1):
        if step in wanted:
            out[step] = (y[:n].copy(), y[n : 2 * n].copy(), y[2 * n :].copy())
        if step == steps:
            break
        k1 = field(0.0, y)
        k2 = field(0.0, y + 0.5 * dt * k1)
        k3 = field(0.0, y + 0.5 * dt * k2)
        k4 = field(0.0, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def ode_states(b, gamma, x0, model, times) -> np.ndarray:
    """solve_ivp (DOP853, rtol 1e-11) states at `times`, shape (T, 3, n)."""
    n = gamma.size
    y0 = np.concatenate((np.full(n, 1.0 - x0), np.full(n, x0), np.zeros(n)))
    sol = solve_ivp(
        _vector_field(b, gamma, model),
        (0.0, float(times[-1])),
        y0,
        method="DOP853",
        t_eval=times,
        rtol=1e-11,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), 3, n)


def trunc_gauss_mean(mu, sigma, lower, upper):
    return truncnorm.mean((lower - mu) / sigma, (upper - mu) / sigma, loc=mu, scale=sigma)


def delta_c(sigma: float, widths, offset) -> float:
    widths = np.asarray(widths, dtype=float)
    offset = np.asarray(offset, dtype=float)
    numerator = norm.cdf((widths - offset) / sigma) - norm.cdf(-offset / sigma)
    denominator = norm.cdf(widths / sigma) - 0.5
    return float(np.prod(numerator / denominator))


def calibration_holds(sigma: float, epsilon0: float, k: float, widths) -> bool:
    """The calibration inequality at the equal-split offset c = k/sqrt(d) 1.

    sigma^2 (epsilon0 - log DeltaC(sigma, c)) >= k (k/2 + ||w||_2)
    """
    widths = np.asarray(widths, dtype=float)
    offset = np.full(widths.size, k / math.sqrt(widths.size))
    slack = epsilon0 - math.log(delta_c(sigma, widths, offset))
    return slack > 0.0 and sigma * sigma * slack >= k * (k / 2.0 + float(np.linalg.norm(widths)))
