"""Independent scalar/dense oracles used only by tests.

Everything here is written as plain loops straight from the defining
equations, deliberately sharing no code with the package's vectorized
kernels.  The exceptions are the package's earlier loops, kept as the
references their array versions must reproduce bit for bit:
``rmse_sweep_reference`` (the per-trial pipeline), ``integrate_reference``,
``trichotomy_counts_reference`` and ``threshold_report_reference`` (one
validated state per step), with the per-state ``_rhs`` and ``derivative``
they called, and ``write_states_csv_reference`` and
``write_rn_csv_reference`` (one ``csv.writer`` row per node or record), with
``rn_records_reference``, the CLI's expansion of ``(t, matrix)`` pairs into the
records it wrote before ``csvio.write_rn_csv`` took the matrices.
The per-quantity kernels from before ``lern_vector`` and ``cern_vector``
took trajectories and every cluster average ran through ``member_sums`` are
kept too: ``lern_vector_reference``, ``cern_vector_reference`` (over
``np.bincount``), ``coarsen_reference``, ``network_reproduction_reference``,
and the trajectory kernels ``lerns_reference`` and ``cerns_reference``.
``run_pipeline_reference`` is the aggregation pipeline from when each party
was an actor object (local authority, shuffler, cluster aggregator, data
center) with its own message checks; its matrix and trace are the ones
``protocol.run_pipeline`` must reproduce byte for byte.
``calibrate_sigma_reference`` is the calibration from when every bisection
step evaluated ``sigma_inequality_holds`` on the array of active widths.
The per-entry accuracy functions from before ``analysis.private_moments``
are the references it must reproduce: ``entry_noise_params`` (one
``TruncGaussParams`` per member of a cluster, each member's pattern
calibrated on its own), ``private_entry_moments`` (one entry's closed-form
mean and variance) and ``monte_carlo_entry_stats`` (the same entry's
moments over ``trunc_gauss_sample`` draws), with their list check
``_entry_denominator``.
"""

import csv
import json
import math
import warnings
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import integrate as scipy_integrate
from scipy.special import ndtr, ndtri

from repronet.analysis import (
    THRESHOLD_DEAD_BAND,
    AccuracyReport,
    ClusterThreshold,
    EntryAccuracy,
    EpsilonSummary,
    NodeThreshold,
    ThresholdReport,
)
from repronet.exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    IntegrationError,
    ProtocolError,
)
from repronet.csvio import _data_rows, _parse_float
from repronet.model import (
    _DRIFT_TOL,
    _NEGATIVE_TOL,
    _check_size,
    EpidemicState,
    ModelKind,
    StabilityWarning,
    Trajectory,
    TransmissionNetwork,
    infected_derivative,
    inflow,
)
from repronet.privacy import (
    PrivacySpec,
    TruncGaussParams,
    bounded_gaussian_randomize,
    shuffle,
    sigma_inequality_holds,
    trunc_gauss_moments,
    trunc_gauss_sample,
    worst_case_offset,
)
from repronet.protocol import (
    ClusterVector,
    LocalAggVector,
    MatrixMessage,
    PublicData,
    Report,
    Request,
    ShuffledBatch,
    payload_digest,
)
from repronet.reproduction import (
    DEFAULT_INFECTION_FLOOR,
    ClusterRnMatrix,
    Partition,
    _check_positive_infection,
    assemble as package_assemble,
    cluster_average,
    cluster_matrix,
    cluster_weight_sums,
    floored_infections,
    lern_vector,
    member_sums,
    report_matrix,
    spectral_radius as package_spectral_radius,
)
from repronet.seeding import StreamRole, generators, streams


def _transitive_closure(b):
    """``reach[i][j]``: i == j, or a chain of positive entries ``b[i][k]``, ..., ``b[l][j]`` links them."""
    n = len(b)
    reach = [[i == j or b[i][j] > 0.0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return reach


def strongly_connected(b):
    """Every node reaches every other along positive entries (transitive closure)."""
    return all(all(row) for row in _transitive_closure(b))


def components_reference(b):
    """Strongly connected components from the transitive closure: each a list of
    ascending nodes, the components in order of their lowest node."""
    reach, placed, components = _transitive_closure(b), set(), []
    for i in range(len(b)):
        if i not in placed:
            components.append([j for j in range(len(b)) if reach[i][j] and reach[j][i]])
            placed.update(components[-1])
    return components


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


def truncated_central_moments_by_quadrature(mu, sigma, lower, upper):
    """Mean and variance by integration over the window's share ``u`` in [0, 1], so neither
    the mean nor the central second moment cancels on a narrow window."""
    a, width = (lower - mu) / sigma, (upper - lower) / sigma

    def moment(f):
        return scipy_integrate.quad(lambda u: f(u) * normal_pdf(a + width * u), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]

    mass = moment(lambda u: 1.0)
    share = moment(lambda u: u) / mass
    spread = moment(lambda u: (u - share) ** 2) / mass
    return mu + sigma * (a + width * share), (sigma * width) ** 2 * spread


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


def calibrate_sigma_reference(
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


def rmse_sweep_reference(
    net: TransmissionNetwork,
    trajectory: list[EpidemicState],
    partition: Partition,
    eps_grid,
    trials: int,
    master_seed: int,
    *,
    delta: float = 0.01,
    k: float = 1e-5,
    bounds: tuple = (0.0, 14.0),
    clamp: tuple[float, float] | None = None,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> AccuracyReport:
    """``analysis.rmse_sweep`` as one pipeline run per (epsilon, state, trial).

    The sweep's loop before it was batched, kept unchanged as the reference
    that the batched sweep must match bit for bit.
    """
    if not trajectory:
        raise ConfigError("trajectory must contain at least one state")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    report = AccuracyReport(eps_grid=tuple(float(e) for e in eps_grid))

    exact_matrices = [
        cluster_matrix(net, state, partition, floor, clamp).values for state in trajectory
    ]
    exact_scale = float(np.mean(np.abs(np.stack(exact_matrices))))

    for eps in report.eps_grid:
        spec = PrivacySpec(epsilon0=eps, delta=delta, k=k, bounds=bounds)
        sq_errors = []
        per_entry: dict[tuple[int, int, int], list[float]] = {}
        try:
            for epoch, state in enumerate(trajectory):
                for trial in range(trials):
                    private = run_pipeline_reference(
                        net,
                        state,
                        partition,
                        spec,
                        master_seed=master_seed,
                        epoch=epoch,
                        trial=trial,
                        floor=floor,
                        clamp=clamp,
                    ).values
                    diff = private - exact_matrices[epoch]
                    sq_errors.append(diff**2)
                    for q in range(partition.m):
                        for r in range(partition.m):
                            per_entry.setdefault((epoch, q, r), []).append(
                                float(private[q, r])
                            )
        except CalibrationInfeasibleError as exc:
            report.summaries.append(
                EpsilonSummary(
                    eps=eps,
                    feasible=False,
                    rmse=float("nan"),
                    pct_error=float("nan"),
                    trials=trials,
                    message=str(exc),
                )
            )
            continue

        rmse = float(np.sqrt(np.mean(np.stack(sq_errors))))
        report.summaries.append(
            EpsilonSummary(
                eps=eps,
                feasible=True,
                rmse=rmse,
                pct_error=rmse / exact_scale,
                trials=trials,
            )
        )
        for (epoch, q, r), values in per_entry.items():
            arr = np.array(values)
            exact = float(exact_matrices[epoch][q, r])
            entry_rmse = float(np.sqrt(np.mean((arr - exact) ** 2)))
            report.entries.append(
                EntryAccuracy(
                    epoch=epoch,
                    t=float(trajectory[epoch].t),
                    eps=eps,
                    q=q,
                    r=r,
                    exact=exact,
                    mean_private=float(np.mean(arr)),
                    var_private=float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0,
                    rmse=entry_rmse,
                    pct_error=entry_rmse / exact_scale,
                )
            )
    return report


def sample_box_truncated_one_generator(mu, sigma, lower, upper, rng):
    """Truncated-Gaussian draws from one generator.

    The package's sampler before it took one generator per row, kept
    unchanged as the reference for each of its rows.
    """
    n = mu.size
    out = np.empty(n)
    alpha = (lower - mu) / sigma
    beta = (upper - mu) / sigma
    mass = ndtr(beta) - ndtr(alpha)

    inverse = mass < 0.05
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


def private_reports_reference(reports: np.ndarray, spec: PrivacySpec, words: np.ndarray) -> np.ndarray:
    """Every authority's randomized report in every trial, ``(trials, n, m)``: row i of
    the exact ``(n, m)`` reports under its support pattern's mechanism, trial t drawn
    from the generator seeded with ``words[i, t]`` (``seeding.stream_words``).

    An all-zero report passes through unchanged, as there is nothing to
    calibrate; a draw below zero (a box reaching below it) fails the report check.

    The package's kernel before it grouped the authorities by support count,
    one ``bounded_gaussian_randomize`` call per authority, kept unchanged as
    the reference for its bits and its errors.
    """
    out = np.empty((words.shape[1],) + reports.shape)
    out[:] = reports
    for i, zeta in enumerate(reports):
        if np.any(zeta > 0.0):
            out[:, i] = bounded_gaussian_randomize(zeta, spec.calibrate(zeta > 0.0), generators(words[i]))
    if np.any(out < 0.0):
        raise ConfigError("report entries must be finite and >= 0")
    return out


def _rhs(b: np.ndarray, gamma: np.ndarray, s: np.ndarray, x: np.ndarray, kind: ModelKind):
    """The package's right-hand side on one state's vectors, as three arrays.

    Kept unchanged, with ``derivative`` below, for the references that follow.
    """
    infection = s * (b @ x)
    recovery = gamma * x
    if kind is ModelKind.SIS:
        xdot = infection - recovery
        return -xdot, xdot, np.zeros_like(xdot)
    sdot = -infection
    rdot = recovery
    # Build x' from the other two components so the conservation identity
    # x' + (s' + r') == 0 holds exactly in floating point.
    xdot = -(sdot + rdot)
    return sdot, xdot, rdot


def derivative(net: TransmissionNetwork, state: EpidemicState, kind: ModelKind):
    """``model.derivative`` on one state, through ``_rhs`` above."""
    if state.n != net.n:
        raise ConfigError(f"state has {state.n} entities, network has {net.n}")
    return _rhs(net.b, net.gamma, state.s, state.x, kind)


def integrate_reference(
    net: TransmissionNetwork,
    state0: EpidemicState,
    kind: ModelKind,
    dt: float,
    steps: int,
) -> list[EpidemicState]:
    """``model.integrate`` as a list of validated states, one built per step.

    The integrator before it wrote into trajectory arrays, kept unchanged as
    the reference that the array trajectory must match bit for bit.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    if state0.n != net.n:
        raise ConfigError(f"state has {state0.n} entities, network has {net.n}")

    max_inflow = float(np.max(net.b.sum(axis=1))) if net.n else 0.0
    if max_inflow > 0.0 and dt > 0.1 / max_inflow:
        warnings.warn(
            f"dt={dt} is large for a max transmission row sum of {max_inflow:.3g}; "
            "the fixed-step integration may be inaccurate",
            StabilityWarning,
            stacklevel=2,
        )

    b, gamma = net.b, net.gamma
    out = [state0]
    s, x, r = state0.s.copy(), state0.x.copy(), state0.r.copy()
    t = float(state0.t)
    for _ in range(steps):
        k1 = _rhs(b, gamma, s, x, kind)
        k2 = _rhs(b, gamma, s + 0.5 * dt * k1[0], x + 0.5 * dt * k1[1], kind)
        k3 = _rhs(b, gamma, s + 0.5 * dt * k2[0], x + 0.5 * dt * k2[1], kind)
        k4 = _rhs(b, gamma, s + dt * k3[0], x + dt * k3[1], kind)
        s = s + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x = x + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        r = r + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t += dt

        stacked = np.stack((s, x, r))
        if not np.all(np.isfinite(stacked)):
            raise IntegrationError(
                f"non-finite state at t={t}; reduce dt (currently {dt})"
            )
        if np.any(stacked < -_NEGATIVE_TOL) or np.any(stacked > 1.0 + _NEGATIVE_TOL):
            raise IntegrationError(
                f"state left [0, 1] beyond round-off at t={t}; reduce dt"
            )
        stacked[stacked < 0.0] = 0.0
        stacked[stacked > 1.0] = 1.0
        total = stacked.sum(axis=0)
        drift = np.abs(total - 1.0)
        if np.any(drift > _DRIFT_TOL):
            stacked = stacked / total
        s, x, r = stacked[0], stacked[1], stacked[2]
        out.append(EpidemicState(t=t, s=s, x=x, r=r))
    return out


def trichotomy_counts_reference(
    net: TransmissionNetwork,
    trajectory: list[EpidemicState],
    kind: ModelKind,
    floor: float | np.ndarray = 0.0,
    band: float = THRESHOLD_DEAD_BAND,
) -> tuple[int, int]:
    """``analysis.trichotomy_counts`` as one pass per state.

    The count before it became one expression over trajectory arrays, kept
    unchanged as its bit-for-bit reference.
    """
    floor_arr = np.broadcast_to(np.asarray(floor, dtype=float), (net.n,))
    agree = 0
    total = 0
    for state in trajectory:
        x_f = np.maximum(state.x, floor_arr)
        safe = x_f > 0.0
        if not np.any(safe):
            continue
        gaps = np.full(net.n, np.nan)
        inflow = net.b @ x_f
        gaps[safe] = state.s[safe] * inflow[safe] / (net.gamma[safe] * x_f[safe]) - 1.0
        xdot = derivative(net, state, kind)[1]
        counted = (state.x > floor_arr) & safe & (np.abs(gaps) > band)
        agree += int(np.sum(np.sign(xdot[counted]) == np.sign(gaps[counted])))
        total += int(np.sum(counted))
    return agree, total


def _first_crossing(times: np.ndarray, series: np.ndarray) -> float | None:
    gaps = series - 1.0
    signs = np.sign(gaps)
    for idx in range(1, signs.size):
        if signs[idx] != 0.0 and signs[idx - 1] != 0.0 and signs[idx] != signs[idx - 1]:
            return float(times[idx])
    return None


def threshold_report_reference(
    net: TransmissionNetwork,
    trajectory: list[EpidemicState],
    partition: Partition,
    kind: ModelKind = ModelKind.SIR,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    band: float = THRESHOLD_DEAD_BAND,
) -> ThresholdReport:
    """``analysis.threshold_report`` as stacked per-state vectors and per-column loops.

    The report before it became whole-array expressions over trajectory
    arrays, kept unchanged as its bit-for-bit reference.
    """
    if not trajectory:
        raise ConfigError("trajectory must contain at least one state")
    times = np.array([state.t for state in trajectory])
    n, m = net.n, partition.m

    lerns = np.stack([lern_vector_reference(net, state, floor) for state in trajectory])
    cerns = np.stack([cern_vector_reference(net, state, partition, floor) for state in trajectory])
    xs = np.stack([state.x for state in trajectory])
    xdots = np.stack([derivative(net, state, kind)[1] for state in trajectory])
    floor_arr = np.broadcast_to(np.asarray(floor, dtype=float), (n,))

    nodes = []
    for i in range(n):
        valid = xs[:, i] > floor_arr[i]
        counted = valid & (np.abs(lerns[:, i] - 1.0) > band)
        agreements = np.sign(xdots[counted, i]) == np.sign(lerns[counted, i] - 1.0)
        nodes.append(
            NodeThreshold(
                node=i,
                first_crossing_t=_first_crossing(times, lerns[:, i]),
                peak_t=float(times[int(np.argmax(xs[:, i]))]),
                agreement_rate=float(np.mean(agreements)) if counted.any() else None,
                samples=int(np.sum(counted)),
            )
        )

    clusters = []
    for q in range(m):
        members = partition.members(q)
        totals = xs[:, members].sum(axis=1)
        total_dots = xdots[:, members].sum(axis=1)
        valid = (xs[:, members] > floor_arr[members]).all(axis=1)
        counted = valid & (np.abs(cerns[:, q] - 1.0) > band)
        agreements = np.sign(total_dots[counted]) == np.sign(cerns[counted, q] - 1.0)
        clusters.append(
            ClusterThreshold(
                cluster=q,
                first_crossing_t=_first_crossing(times, cerns[:, q]),
                peak_t=float(times[int(np.argmax(totals))]),
                agreement_rate=float(np.mean(agreements)) if counted.any() else None,
                samples=int(np.sum(counted)),
            )
        )
    return ThresholdReport(nodes=nodes, clusters=clusters)


def _thresholds(times, series, amounts, rates, valid, band):
    """Per column of ``(T, k)`` reproduction numbers, infected amounts, their rates and
    above-floor flags: (first crossing, peak time, agreement rate, samples)."""
    gaps = series - 1.0
    signs = np.sign(gaps)
    crossed = np.zeros(signs.shape, dtype=bool)
    crossed[1:] = (signs[1:] != 0.0) & (signs[:-1] != 0.0) & (signs[1:] != signs[:-1])
    first = np.argmax(crossed, axis=0)
    peaks = times[np.argmax(amounts, axis=0)]
    counted = valid & (np.abs(gaps) > band)
    samples = np.sum(counted, axis=0)
    agreements = np.sum(counted & (np.sign(rates) == signs), axis=0)
    for k, row in enumerate(first):
        rate = float(agreements[k] / samples[k]) if samples[k] else None
        yield float(times[row]) if crossed[row, k] else None, float(peaks[k]), rate, int(samples[k])


def threshold_report_whole_array_reference(
    net: TransmissionNetwork,
    trajectory: Sequence[EpidemicState],
    partition: Partition,
    kind: ModelKind = ModelKind.SIR,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    band: float = THRESHOLD_DEAD_BAND,
) -> ThresholdReport:
    """``analysis.threshold_report`` as whole-array expressions over the trajectory's arrays.

    The report before it ran over row blocks, kept unchanged as its bit-for-bit
    reference: ``lern_vector`` of the trajectory, and the cluster series
    ``cluster_average`` of those lerns, with the bits of ``cern_vector``.
    """
    if not trajectory:
        raise ConfigError("trajectory must contain at least one state")
    trajectory = Trajectory.from_states(trajectory)
    xs, xdots = trajectory.x, infected_derivative(net, trajectory, kind)
    lerns = lern_vector(net, trajectory, floor)
    cerns = cluster_average(lerns, net.gamma * floored_infections(xs, floor), partition)
    above = xs > np.asarray(floor, dtype=float)
    members = [partition.members(q) for q in range(partition.m)]

    def per_cluster(values, reduce):
        return np.stack([reduce(values[:, ms], axis=1) for ms in members], axis=1)

    nodes = _thresholds(trajectory.t, lerns, xs, xdots, above, band)
    clusters = _thresholds(trajectory.t, cerns, per_cluster(xs, np.sum),
                           per_cluster(xdots, np.sum), per_cluster(above, np.all), band)
    return ThresholdReport(
        nodes=[NodeThreshold(i, *row) for i, row in enumerate(nodes)],
        clusters=[ClusterThreshold(q, *row) for q, row in enumerate(clusters)],
    )


def read_matrix_csv_reference(path) -> np.ndarray:
    """``csvio.read_matrix_csv`` as ``csv.reader`` and ``float`` on every cell.

    The reader before plain files went through ``np.loadtxt``, kept unchanged
    as its reference for values and error messages.
    """
    rows = [np.fromiter((_parse_float(cell, where) for cell in row), float, len(row))
            for where, row in _data_rows(path, "matrix")]
    if not rows:
        raise ConfigError(f"{path}: matrix file has a header but no rows")
    return np.stack(rows)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_states_csv_reference(path, states: Sequence[EpidemicState]) -> None:
    trajectory = Trajectory.from_states(states)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "s", "x", "r"])
        for k, t in enumerate(trajectory.t.tolist()):
            t = _fmt(t)
            rows = zip(trajectory.s[k].tolist(), trajectory.x[k].tolist(), trajectory.r[k].tolist())
            writer.writerows([t, i, _fmt(s), _fmt(x), _fmt(r)] for i, (s, x, r) in enumerate(rows))


def rn_records_reference(matrices, kind: str):
    """One (t, row, column, value, kind) record per entry of each (t, matrix values) pair."""
    for t, values in matrices:
        for i, row in enumerate(values):
            yield from zip(repeat(t), repeat(i), range(len(row)), row.tolist(), repeat(kind))


def write_rn_csv_reference(path, records: Iterable[tuple]) -> None:
    """Write (t, i, j, value, kind) records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j", "value", "kind"])
        for t, i, j, value, kind in records:
            writer.writerow([_fmt(t), i, j, _fmt(value), kind])


def lern_vector_reference(
    net: TransmissionNetwork,
    state: EpidemicState,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """``reproduction.lern_vector`` of one state, as it was before it took trajectories."""
    x_f = floored_infections(state.x, floor)
    _check_positive_infection(x_f, np.arange(net.n))
    return state.s * (net.b @ x_f) / (net.gamma * x_f)


def cluster_weight_sums_reference(gamma: np.ndarray, x_f: np.ndarray, partition: Partition) -> np.ndarray:
    """``sum(gamma[i] * x[i])`` over each cluster's members, in ascending member order."""
    weights = np.asarray(gamma, dtype=float) * x_f
    return np.bincount(partition.assignment, weights=weights, minlength=partition.m)


def cern_vector_reference(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """``reproduction.cern_vector`` of one state, over ``np.bincount``."""
    x_f = floored_infections(state.x, floor)
    weighted = net.gamma * x_f * lern_vector_reference(net, state, floor)
    totals = np.bincount(partition.assignment, weights=weighted, minlength=partition.m)
    return totals / cluster_weight_sums_reference(net.gamma, x_f, partition)


def coarsen_reference(
    net: TransmissionNetwork,
    state: EpidemicState,
    fine: Partition,
    mapping: Mapping[int, int] | Sequence[int],
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """``reproduction.coarsen`` over ``np.bincount``."""
    if isinstance(mapping, Mapping):
        missing = sorted(set(range(fine.m)) - set(mapping))
        if missing:
            raise ConfigError(f"mapping does not cover fine clusters {missing}")
        target = np.array([int(mapping[q]) for q in range(fine.m)])
    else:
        target = np.asarray(mapping, dtype=int)
        if target.shape != (fine.m,):
            raise ConfigError(
                f"mapping must assign all {fine.m} fine clusters, got shape {target.shape}"
            )
    if np.any(target < 0):
        raise ConfigError("coarse cluster indices must be >= 0")
    m_coarse = int(target.max()) + 1
    if set(target.tolist()) != set(range(m_coarse)):
        raise ConfigError("mapping must be surjective onto 0..max coarse index")

    fine_weights = cluster_weight_sums_reference(net.gamma, floored_infections(state.x, floor), fine)
    weighted = fine_weights * cern_vector_reference(net, state, fine, floor)
    return np.bincount(target, weights=weighted) / np.bincount(target, weights=fine_weights)


def network_reproduction_reference(net: TransmissionNetwork, state: EpidemicState | None = None) -> float:
    """``reproduction.network_reproduction`` with its own matrix expressions."""
    basic = net.b / net.gamma[:, None]
    if state is None:
        return package_spectral_radius(basic)
    if state.n != net.n:
        raise ConfigError(f"state has {state.n} entities, network has {net.n}")
    return package_spectral_radius(state.s[:, None] * basic)


def lerns_reference(net, trajectory: Trajectory, floor, check: bool) -> np.ndarray:
    """``lern_vector`` at every sample, ``(T, n)``, bit for bit.  A zero floored infection
    raises ``UndefinedRatioError`` if ``check``, else gives a non-finite ratio to mask."""
    x_f = floored_infections(trajectory.x, floor)
    if check:
        _check_positive_infection(x_f, np.arange(net.n))
    with np.errstate(divide="ignore", invalid="ignore"):
        return trajectory.s * inflow(net.b, x_f) / (net.gamma * x_f)


def cerns_reference(net, trajectory: Trajectory, lerns, partition, floor) -> np.ndarray:
    """``cern_vector`` at every sample, ``(T, m)``, bit for bit, from the samples' lerns."""
    weights = net.gamma * floored_infections(trajectory.x, floor)
    return member_sums(weights * lerns, partition) / member_sums(weights, partition)


class LocalAuthorityReference:
    """The pipeline's local authority, kept as the actor pipeline ran it."""

    def __init__(
        self,
        ident: int,
        b_row: np.ndarray,
        gamma_i: float,
        spec: PrivacySpec | None,
        rng: np.random.Generator | None,
        floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
        clamp: tuple[float, float] | None = None,
    ):
        self.ident = ident
        self.rows = np.array([ident])
        self.b_rows = np.asarray(b_row, dtype=float)[None, :]
        self.gamma_rows = np.array([float(gamma_i)])
        self.spec = spec
        self.rng = rng
        self.floor = floor
        self.clamp = clamp

    def handle(self, message) -> Report:
        if not isinstance(message, Request):
            raise ProtocolError(
                f"local authority {self.ident} expected a Request, got {type(message).__name__}"
            )
        public = message.public
        x_f = floored_infections(public.x, self.floor)
        entries = report_matrix(
            self.b_rows, self.gamma_rows, public.s[self.rows], x_f, self.rows, message.partition,
            self.clamp
        )[0]
        private = self.spec is not None
        if private and np.any(entries > 0.0):
            mechanism = self.spec.calibrate(entries > 0.0)
            if self.rng is None:
                raise ProtocolError(f"local authority {self.ident} has no RNG stream")
            entries = bounded_gaussian_randomize(entries, mechanism, self.rng)
        vector = LocalAggVector(
            entries=entries, t=message.t, authority_id=self.ident, private=private
        )
        return Report(vector=vector)


class ShufflerReference:
    """Anonymizes and uniformly permutes its cluster's reports."""

    def __init__(self, cluster: int, rng: np.random.Generator):
        self.cluster = cluster
        self.rng = rng
        self._reports: list[LocalAggVector] = []
        self._t: float | None = None

    def receive(self, message) -> None:
        if not isinstance(message, Report):
            raise ProtocolError(
                f"shuffler {self.cluster} expected a Report, got {type(message).__name__}"
            )
        self._reports.append(message.vector)
        self._t = message.vector.t

    def flush(self) -> ShuffledBatch:
        if not self._reports:
            raise ProtocolError(f"shuffler {self.cluster} has no reports to shuffle")
        batch = ShuffledBatch(
            cluster=self.cluster, t=self._t, vectors=tuple(shuffle(self._reports, self.rng))
        )
        self._reports = []
        return batch


def step6_assemble_reference(batch, partition, gamma, x, q, floor=DEFAULT_INFECTION_FLOOR):
    """Cluster q's vector from its shuffled batch, as the actor pipeline assembled it."""
    members = partition.members(q)
    if len(batch.vectors) != members.size:
        raise ProtocolError(
            f"cluster {q} expected {members.size} reports, got {len(batch.vectors)}"
        )
    x_f = floored_infections(np.asarray(x, dtype=float), floor)
    denom = cluster_weight_sums(gamma, x_f, partition)[q]
    return package_assemble(np.stack([vec.entries for vec in batch.vectors]), denom)


class ClusterAggregatorReference:
    """Assembles the cluster's vector from the shuffled batch."""

    def __init__(self, cluster: int, floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR):
        self.cluster = cluster
        self.floor = floor
        self._request: Request | None = None

    def observe(self, message) -> None:
        if not isinstance(message, Request):
            raise ProtocolError(
                f"aggregator {self.cluster} expected a Request, got {type(message).__name__}"
            )
        self._request = message

    def handle(self, message) -> ClusterVector:
        if not isinstance(message, ShuffledBatch):
            raise ProtocolError(
                f"aggregator {self.cluster} expected a ShuffledBatch, got {type(message).__name__}"
            )
        if message.cluster != self.cluster:
            raise ProtocolError(
                f"aggregator {self.cluster} received a batch for cluster {message.cluster}"
            )
        if self._request is None:
            raise ProtocolError(f"aggregator {self.cluster} has no public data yet")
        req = self._request
        values = step6_assemble_reference(
            message, req.partition, req.public.gamma, req.public.x, self.cluster, self.floor
        )
        return ClusterVector(cluster=self.cluster, t=message.t, values=values)


class DataCenterReference:
    """Stacks cluster vectors into the final matrix."""

    def __init__(self, m: int, private: bool):
        self.m = m
        self.private = private
        self._rows: dict[int, ClusterVector] = {}

    def receive(self, message) -> None:
        if not isinstance(message, ClusterVector):
            raise ProtocolError(
                f"data center expected a ClusterVector, got {type(message).__name__}"
            )
        if message.cluster in self._rows:
            raise ProtocolError(f"duplicate cluster vector for cluster {message.cluster}")
        self._rows[message.cluster] = message

    def flush(self) -> MatrixMessage:
        missing = sorted(set(range(self.m)) - set(self._rows))
        if missing:
            raise ProtocolError(f"missing cluster vectors for clusters {missing}")
        t = self._rows[0].t
        values = np.stack([self._rows[q].values for q in range(self.m)])
        return MatrixMessage(
            matrix=ClusterRnMatrix(values=values, t=t, private=self.private)
        )


def _record_reference(sink, step: int, sender: str, receiver: str, message) -> None:
    if sink is not None:
        line = {"step": step, "from": sender, "to": receiver, "payload_digest": payload_digest(message)}
        sink.write(json.dumps(line) + "\n")


def run_pipeline_reference(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    spec: PrivacySpec | None = None,
    *,
    master_seed: int = 0,
    epoch: int = 0,
    trial: int = 0,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
    trace=None,
) -> ClusterRnMatrix:
    """``protocol.run_pipeline`` as one actor object per party, serviced in ascending order.

    The matrix and the ``trace`` lines that ``run_pipeline`` must reproduce
    byte for byte.
    """
    if state.n != net.n or partition.n != net.n:
        raise ConfigError("network, state, and partition sizes must agree")
    private = spec is not None

    rngs = (
        streams(master_seed, StreamRole.LOCAL_AUTHORITY, range(net.n), epoch, (trial,))
        if private
        else [None] * net.n
    )
    authorities = [
        LocalAuthorityReference(i, net.b[i], float(net.gamma[i]), spec, rng, floor, clamp)
        for i, rng in enumerate(rngs)
    ]
    shuffler_rngs = streams(master_seed, StreamRole.SHUFFLER, range(partition.m), epoch, (trial,))
    shufflers = {q: ShufflerReference(q, rng) for q, rng in enumerate(shuffler_rngs)}
    aggregators = {q: ClusterAggregatorReference(q, floor=floor) for q in range(partition.m)}
    center = DataCenterReference(partition.m, private=private)

    request = Request(
        partition=partition,
        t=float(state.t),
        epoch=epoch,
        public=PublicData(gamma=net.gamma, s=state.s, x=state.x),
    )
    for q in range(partition.m):
        _record_reference(trace, 1, "central_authority", f"cluster_aggregator:{q}", request)
        aggregators[q].observe(request)

    reports: dict[int, Report] = {}
    for i in range(net.n):
        _record_reference(trace, 1, "central_authority", f"local_authority:{i}", request)
        reports[i] = authorities[i].handle(request)

    for i in range(net.n):
        q = int(partition.assignment[i])
        _record_reference(trace, 5, f"local_authority:{i}", f"shuffler:{q}", reports[i])
        shufflers[q].receive(reports[i])

    cluster_vectors: dict[int, ClusterVector] = {}
    for q in range(partition.m):
        batch = shufflers[q].flush()
        _record_reference(trace, 5, f"shuffler:{q}", f"cluster_aggregator:{q}", batch)
        cluster_vectors[q] = aggregators[q].handle(batch)

    for q in range(partition.m):
        _record_reference(trace, 7, f"cluster_aggregator:{q}", "data_center", cluster_vectors[q])
        center.receive(cluster_vectors[q])

    final = center.flush()
    _record_reference(trace, 7, "data_center", "central_authority", final)
    return final.matrix


def entry_noise_params(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    spec: PrivacySpec,
    q: int,
    r: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
) -> list[TruncGaussParams | None]:
    """Noise parameters seen by entry (q, r): one per member of cluster q.

    ``None`` marks a member whose report entry is exactly zero (the
    randomizer passes it through unchanged).  Each member's sigma comes from
    its own calibration, driven by its own report support pattern.
    """
    _check_size(net, state)
    members = partition.members(q)
    x_f = floored_infections(state.x, floor)
    reports = report_matrix(
        net.b[members], net.gamma[members], state.s[members], x_f, members, partition, clamp
    )
    params: list[TruncGaussParams | None] = [None] * len(reports)
    for k, zeta in enumerate(reports):
        if zeta[r] != 0.0:
            mech = spec.calibrate(zeta > 0.0)
            params[k] = TruncGaussParams(float(zeta[r]), mech.sigma, mech.lower[r], mech.upper[r])
    return params


def _entry_denominator(partition, q, gamma, x, member_params, floor) -> float:
    """Cluster q's weight, once ``member_params`` is checked to cover its members."""
    size = partition.members(q).size
    if len(member_params) != size:
        raise ConfigError(
            f"expected {size} parameter entries for cluster {q}, got {len(member_params)}"
        )
    x_f = floored_infections(np.asarray(x, dtype=float), floor)
    return float(cluster_weight_sums(gamma, x_f, partition)[q])


def private_entry_moments(
    partition: Partition,
    q: int,
    gamma: np.ndarray,
    x: np.ndarray,
    member_params: list[TruncGaussParams | None],
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> tuple[float, float]:
    """Closed-form (mean, variance) of one assembled private cluster entry.

    ``member_params`` aligns with ``partition.members(q)`` in ascending
    order and describes the truncated-Gaussian draw of each member's report
    entry for the target cluster (``None`` for exact zeros).
    """
    denom = _entry_denominator(partition, q, gamma, x, member_params, floor)
    moments = [trunc_gauss_moments(params) for params in member_params if params is not None]
    mean_sum = sum((mean for mean, _ in moments), 0.0)
    var_sum = sum((var for _, var in moments), 0.0)
    return mean_sum / denom, var_sum / denom**2


def monte_carlo_entry_stats(
    partition: Partition,
    q: int,
    gamma: np.ndarray,
    x: np.ndarray,
    member_params: list[TruncGaussParams | None],
    trials: int,
    rng: np.random.Generator,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> tuple[float, float]:
    """Empirical (mean, variance) of the same assembled entry.

    Vectorized simulation of the randomize-and-aggregate stages: each
    member's entry is drawn ``trials`` times and the per-trial sums are
    divided by the cluster weight.  Shuffling never changes the aggregate,
    so this matches the distribution of the full pipeline's entry.
    """
    denom = _entry_denominator(partition, q, gamma, x, member_params, floor)
    draws = (trunc_gauss_sample(p, rng, size=trials) for p in member_params if p is not None)
    values = sum(draws, np.zeros(trials)) / denom
    return float(np.mean(values)), float(np.var(values, ddof=1))
