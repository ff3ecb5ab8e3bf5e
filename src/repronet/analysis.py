"""Accuracy analysis of the private pipeline and threshold diagnostics.

The assembled private cluster entry is a weighted sum of independent
truncated-Gaussian draws (zero entries pass through unchanged), so its
moments follow by linearity from the closed-form single-draw moments:

    mean(q, r) = sum_k E[draw_k] / sum_k gamma_k x_k
    var(q, r)  = sum_k Var[draw_k] / (sum_k gamma_k x_k)^2

with k ranging over cluster q's members and a zero entry contributing zero
mean and zero variance.  The RMSE harness runs the full pipeline repeatedly
over a privacy-level grid and reports per-entry and aggregate errors; the
percentage error is RMSE over the mean magnitude of the exact entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import CalibrationInfeasibleError, ConfigError
from .model import EpidemicState, ModelKind, TransmissionNetwork, derivative
from .privacy import PrivacySpec, TruncGaussParams, trunc_gauss_moments, trunc_gauss_sample
from .protocol import run_pipeline
from .reproduction import (
    DEFAULT_INFECTION_FLOOR,
    Partition,
    cern_vector,
    cluster_matrix,
    cluster_weight_sums,
    floored_infections,
    lern_vector,
    report_matrix,
)

__all__ = [
    "EntryAccuracy",
    "EpsilonSummary",
    "AccuracyReport",
    "NodeThreshold",
    "ClusterThreshold",
    "ThresholdReport",
    "entry_noise_params",
    "private_entry_moments",
    "monte_carlo_entry_stats",
    "rmse_sweep",
    "trichotomy_counts",
    "threshold_report",
]

# Samples closer to the unit threshold than this are excluded from
# sign-agreement statistics; the derivative sign is numerically meaningless
# there.
THRESHOLD_DEAD_BAND = 1e-6


@dataclass(frozen=True)
class EntryAccuracy:
    epoch: int
    t: float
    eps: float
    q: int
    r: int
    exact: float
    mean_private: float
    var_private: float
    rmse: float
    pct_error: float


@dataclass(frozen=True)
class EpsilonSummary:
    eps: float
    feasible: bool
    rmse: float
    pct_error: float
    trials: int
    message: str = ""


@dataclass
class AccuracyReport:
    eps_grid: tuple
    entries: list[EntryAccuracy] = field(default_factory=list)
    summaries: list[EpsilonSummary] = field(default_factory=list)

    def summary_for(self, eps: float) -> EpsilonSummary:
        for summary in self.summaries:
            if summary.eps == eps:
                return summary
        raise KeyError(f"no summary for eps={eps}")


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
    members = partition.members(q)
    x_f = floored_infections(state.x, floor)
    reports = report_matrix(
        net.b[members], net.gamma[members], state.s[members], x_f, members, partition, clamp
    )
    params: list[TruncGaussParams | None] = []
    for zeta in reports:
        value = float(zeta[r])
        if value == 0.0:
            params.append(None)
            continue
        mech = spec.calibrate(zeta > 0.0)
        params.append(
            TruncGaussParams(
                mu=value, sigma=mech.sigma, lower=mech.lower[r], upper=mech.upper[r]
            )
        )
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
    mean_sum = 0.0
    var_sum = 0.0
    for params in member_params:
        if params is None:
            continue
        mean_k, var_k = trunc_gauss_moments(params)
        mean_sum += mean_k
        var_sum += var_k
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
    totals = np.zeros(trials)
    for params in member_params:
        if params is None:
            continue
        totals += trunc_gauss_sample(params, rng, size=trials)
    values = totals / denom
    return float(np.mean(values)), float(np.var(values, ddof=1))


def rmse_sweep(
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
    """Run the full pipeline over a privacy-level grid and collect errors.

    For every epsilon in the grid, every state in ``trajectory`` is pushed
    through the pipeline ``trials`` times (independent streams per trial);
    exact matrices are computed once per state.  Infeasible calibrations are
    reported per epsilon instead of aborting the sweep.
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


def trichotomy_counts(
    net: TransmissionNetwork,
    trajectory: list[EpidemicState],
    kind: ModelKind,
    floor: float | np.ndarray = 0.0,
    band: float = THRESHOLD_DEAD_BAND,
) -> tuple[int, int]:
    """(agreements, counted samples) of sign(x') versus sign(lern - 1).

    Samples inside the dead band around one, or where the infected fraction
    is not strictly above the floor, are excluded.  ``floor=0`` evaluates
    entity values on the raw trajectory, which is exactly the regime of the
    threshold statement.
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


@dataclass(frozen=True)
class NodeThreshold:
    node: int
    first_crossing_t: float | None
    peak_t: float
    agreement_rate: float | None
    samples: int


@dataclass(frozen=True)
class ClusterThreshold:
    cluster: int
    first_crossing_t: float | None
    peak_t: float
    agreement_rate: float | None
    samples: int


@dataclass
class ThresholdReport:
    nodes: list[NodeThreshold]
    clusters: list[ClusterThreshold]


def _first_crossing(times: np.ndarray, series: np.ndarray) -> float | None:
    gaps = series - 1.0
    signs = np.sign(gaps)
    for idx in range(1, signs.size):
        if signs[idx] != 0.0 and signs[idx - 1] != 0.0 and signs[idx] != signs[idx - 1]:
            return float(times[idx])
    return None


def threshold_report(
    net: TransmissionNetwork,
    trajectory: list[EpidemicState],
    partition: Partition,
    kind: ModelKind = ModelKind.SIR,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    band: float = THRESHOLD_DEAD_BAND,
) -> ThresholdReport:
    """Per-node and per-cluster threshold diagnostics along a trajectory.

    Reports the first time the entity (cluster) effective reproduction
    number crosses one, the time of peak infection, and the rate at which
    the sign of the infection derivative agrees with the sign of the
    reproduction number minus one.  Agreement counts only samples outside
    the dead band whose infected fractions sit strictly above the floor
    (below it, the flooring used for reporting distorts the ratio and the
    threshold statement's premise fails).
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
