"""Independent scalar/dense oracles used only by tests.

Everything here is written as plain loops straight from the defining
equations, deliberately sharing no code with the package's vectorized
kernels.
"""

import math

import numpy as np
from scipy import integrate as scipy_integrate


def strongly_connected(b):
    """Every node reaches every other along positive entries (transitive closure)."""
    n = len(b)
    reach = [[i == j or b[i][j] > 0.0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return all(all(row) for row in reach)


def sir_derivative(b, gamma, s, x):
    n = len(gamma)
    sdot = [0.0] * n
    xdot = [0.0] * n
    rdot = [0.0] * n
    for i in range(n):
        inflow = sum(b[i][j] * x[j] for j in range(n))
        sdot[i] = -s[i] * inflow
        xdot[i] = s[i] * inflow - gamma[i] * x[i]
        rdot[i] = gamma[i] * x[i]
    return sdot, xdot, rdot


def sis_derivative(b, gamma, s, x):
    sdot, xdot, _ = sir_derivative(b, gamma, s, x)
    n = len(gamma)
    return [-(xdot[i]) for i in range(n)], xdot, [0.0] * n


def local_ern(b, gamma, s, x, i, j):
    return s[i] * b[i][j] * x[j] / (gamma[i] * x[i])


def lern(b, gamma, s, x, i):
    return sum(local_ern(b, gamma, s, x, i, j) for j in range(len(gamma)))


def cern(b, gamma, s, x, members):
    num = sum(gamma[i] * x[i] * lern(b, gamma, s, x, i) for i in members)
    den = sum(gamma[i] * x[i] for i in members)
    return num / den


def cluster_entry(b, gamma, s, x, members_q, members_r):
    num = sum(
        gamma[i] * x[i] * sum(local_ern(b, gamma, s, x, i, j) for j in members_r)
        for i in members_q
    )
    den = sum(gamma[i] * x[i] for i in members_q)
    return num / den


def preaggregate(b_row, gamma_i, s_i, x, i, members_r):
    return gamma_i * x[i] * sum(s_i * b_row[j] * x[j] / (gamma_i * x[i]) for j in members_r)


def assemble(entry_values, gamma, x, members_q):
    return sum(entry_values) / sum(gamma[i] * x[i] for i in members_q)


def spectral_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))


def perron_vector(matrix):
    """Right eigenvector of the dominant eigenvalue, made positive."""
    values, vectors = np.linalg.eig(np.asarray(matrix, dtype=float))
    idx = int(np.argmax(np.abs(values)))
    vec = np.real(vectors[:, idx])
    vec = np.abs(vec)
    return vec / np.max(vec)


def normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def truncated_moments_by_quadrature(mu, sigma, lower, upper):
    """Mean and variance from numerical integration of the density."""

    def density(z):
        a = (lower - mu) / sigma
        b = (upper - mu) / sigma
        from scipy.stats import norm

        mass = norm.cdf(b) - norm.cdf(a)
        return normal_pdf((z - mu) / sigma) / (sigma * mass)

    total, _ = scipy_integrate.quad(density, lower, upper)
    mean, _ = scipy_integrate.quad(lambda z: z * density(z), lower, upper)
    second, _ = scipy_integrate.quad(lambda z: z * z * density(z), lower, upper)
    return total, mean, second - mean * mean


def amplified_epsilon(epsilon0, delta, cluster_size):
    """Second, independently written form of the amplification bound."""
    e0 = math.exp(epsilon0)
    inner = 4.0 * math.sqrt(2.0 * math.log(4.0 / delta)) / math.sqrt((e0 + 1.0) * cluster_size)
    inner = inner + 4.0 / cluster_size
    return math.log(1.0 + (e0 - 1.0) * inner)


def delta_c(sigma, widths, offsets):
    value = 1.0
    from scipy.stats import norm

    for w, c in zip(widths, offsets):
        num = norm.cdf((w - c) / sigma) - norm.cdf(-c / sigma)
        den = norm.cdf(w / sigma) - norm.cdf(0.0)
        value *= num / den
    return value


def delta_c_grid_max(sigma, widths, k, steps=9):
    """Brute-force maximum of delta_c over {c >= 0, ||c|| <= k} on a grid."""
    dims = len(widths)
    best = 1.0
    directions = []
    grid = np.linspace(0.0, 1.0, steps)
    if dims == 1:
        directions = [np.array([1.0])]
    elif dims == 2:
        directions = [np.array([math.cos(a), math.sin(a)]) for a in np.linspace(0, math.pi / 2, steps)]
    else:
        rng = np.random.default_rng(7)
        raw = np.abs(rng.standard_normal((60, dims)))
        directions = [row / np.linalg.norm(row) for row in raw]
        directions.append(np.ones(dims) / math.sqrt(dims))
        for r in range(dims):
            e = np.zeros(dims)
            e[r] = 1.0
            directions.append(e)
    for direction in directions:
        for radius in grid:
            value = delta_c(sigma, widths, radius * k * direction)
            best = max(best, value)
    return best


def sigma_inequality(sigma, epsilon0, k, widths, dc):
    lhs = sigma * sigma
    rhs = k * (k / 2.0 + math.sqrt(sum(w * w for w in widths))) / (epsilon0 - math.log(dc))
    return (epsilon0 - math.log(dc)) > 0 and lhs >= rhs
