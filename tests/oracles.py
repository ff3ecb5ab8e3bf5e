"""Independent scalar/dense oracles used only by tests.

Everything here is written as plain loops straight from the defining
equations, deliberately sharing no code with the package's vectorized
kernels.  The exceptions are the package's earlier loops, kept as the
references their array versions must reproduce bit for bit:
``rmse_sweep_reference`` (the per-trial pipeline), ``integrate_reference``,
``trichotomy_counts_reference`` and ``threshold_report_reference`` (one
validated state per step), with the per-state ``_rhs`` and ``derivative``
they called, and ``write_states_csv_reference`` and
``write_rn_csv_reference`` (one ``csv.writer`` row per node or record).
"""

import csv
import math
import warnings
from typing import Iterable, Sequence

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
from repronet.exceptions import CalibrationInfeasibleError, ConfigError, IntegrationError
from repronet.model import (
    _DRIFT_TOL,
    _NEGATIVE_TOL,
    EpidemicState,
    ModelKind,
    StabilityWarning,
    Trajectory,
    TransmissionNetwork,
)
from repronet.privacy import PrivacySpec
from repronet.protocol import run_pipeline
from repronet.reproduction import (
    DEFAULT_INFECTION_FLOOR,
    Partition,
    cern_vector,
    cluster_matrix,
    lern_vector,
)


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
    """``analysis.rmse_sweep`` as one ``run_pipeline`` call per (epsilon, state, trial).

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
                    private = run_pipeline(
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

    lerns = np.stack([lern_vector(net, state, floor) for state in trajectory])
    cerns = np.stack([cern_vector(net, state, partition, floor) for state in trajectory])
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


def write_rn_csv_reference(path, records: Iterable[tuple]) -> None:
    """Write (t, i, j, value, kind) records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j", "value", "kind"])
        for t, i, j, value, kind in records:
            writer.writerow([_fmt(t), i, j, _fmt(value), kind])
