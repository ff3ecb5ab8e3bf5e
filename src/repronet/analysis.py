"""Accuracy analysis of the private pipeline and threshold diagnostics.

The assembled private cluster entry is a weighted sum of independent
truncated-Gaussian draws (zero entries pass through unchanged), so its
moments follow by linearity from the closed-form single-draw moments:

    mean(q, r) = sum_k E[draw_k] / sum_k gamma_k x_k
    var(q, r)  = sum_k Var[draw_k] / (sum_k gamma_k x_k)^2

with k ranging over cluster q's members and a zero entry contributing zero
mean and zero variance.  The RMSE harness runs many private pipeline
trials per state over a privacy-level grid and reports per-entry and
aggregate errors; the percentage error is RMSE over the mean magnitude of
the exact entries.  Its trials are the pipeline's own array steps
(``protocol.private_reports``, then ``reproduction.assemble_clusters``), so
each is, bit for bit, a ``protocol.run_pipeline`` call.  Like an untraced
pipeline run it builds no messages and runs no shuffle: assembly sorts
before it sums, so no order of the reports can change the aggregate.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CalibrationInfeasibleError, ConfigError, UndefinedRatioError
from .model import (
    EpidemicState,
    ModelKind,
    Trajectory,
    TransmissionNetwork,
    _check_size,
    infected_derivative,
)
from .privacy import (
    PrivacySpec,
    TruncGaussParams,
    trunc_gauss_moments,
    trunc_gauss_sample,
)
from .protocol import private_reports, run_pipeline  # noqa: F401  (run_pipeline: see below)
from .reproduction import (  # noqa: F401  (cluster_matrix, cern_vector: see below)
    DEFAULT_INFECTION_FLOOR,
    ClusterRnMatrix,
    Partition,
    _lern_ratios,
    assemble_clusters,
    cern_vector,
    cluster_average,
    cluster_matrix,
    cluster_weight_sums,
    floored_infections,
    lern_vector,
    report_matrix,
)
from .seeding import StreamRole, stream_words

# ``run_pipeline``, ``cluster_matrix`` and ``cern_vector`` are not called
# here; they stay bound in this module because perfbench's traced runs wrap
# them by these names.

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


def rmse_sweep(
    net: TransmissionNetwork,
    trajectory: Sequence[EpidemicState],
    partition: Partition,
    eps_grid,
    trials: int,
    master_seed: int,
    *,
    delta: float = PrivacySpec.delta,
    k: float = PrivacySpec.k,
    bounds: tuple = PrivacySpec.bounds,
    clamp: tuple[float, float] | None = None,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> AccuracyReport:
    """Private cluster matrices over a privacy-level grid, and their errors.

    For every epsilon and state (epoch = its index in ``trajectory``) the
    matrices equal, bit for bit, those of ``trials`` runs of
    ``protocol.run_pipeline``, as they are its array steps run over all
    trials at once: exact reports once per state, ``protocol.private_reports``
    (one calibration and box check per count of positive entries and state,
    trial t's noise from the authority's ``(LOCAL_AUTHORITY, i, epoch, t)``
    stream, seeded from words derived once per sweep and drawn through one
    ``seeding.StreamBank`` per epoch and epsilon, with no generator built),
    then ``assemble_clusters``.  As in an untraced pipeline run, no message is
    built and the shuffle, which cannot change a bit, does not run.
    Infeasible calibrations are reported per epsilon instead of aborting the
    sweep; if every exact cluster entry is zero, the percentage error is
    undefined and ``UndefinedRatioError`` is raised before any noise is
    drawn.
    """
    if not trajectory:
        raise ConfigError("trajectory must contain at least one state")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if master_seed < 0:
        raise ConfigError(f"master seed must be non-negative, got {master_seed}")
    report = AccuracyReport(eps_grid=tuple(float(e) for e in eps_grid))

    trajectory = Trajectory.from_states(trajectory)
    epochs = []  # (exact reports, cluster weights) per state
    for s, x in zip(trajectory.s, trajectory.x):
        x_f = floored_infections(x, floor)
        reports = report_matrix(net.b, net.gamma, s, x_f, np.arange(net.n), partition, clamp)
        epochs.append((reports, cluster_weight_sums(net.gamma, x_f, partition)))
    exact = np.stack(
        [ClusterRnMatrix(assemble_clusters(r, w, partition)).values for r, w in epochs]
    )
    exact_scale = float(np.mean(np.abs(exact)))
    if exact_scale == 0.0:
        raise UndefinedRatioError("every exact cluster entry is zero; the percentage error is undefined")
    # seed words of every (LOCAL_AUTHORITY, i, epoch, trial) stream, (n, trials, 4) per epoch
    words = [
        stream_words(master_seed, StreamRole.LOCAL_AUTHORITY, range(net.n), epoch, range(trials))
        for epoch in range(len(epochs))
    ]

    for eps in report.eps_grid:
        spec = PrivacySpec(epsilon0=eps, delta=delta, k=k, bounds=bounds)
        try:
            private = np.stack(  # (epochs, trials, m, m)
                [
                    assemble_clusters(private_reports(reports, spec, w), weights, partition)
                    for (reports, weights), w in zip(epochs, words)
                ]
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

        rmse = float(np.sqrt(np.mean((private - exact[:, None]) ** 2)))
        report.summaries.append(
            EpsilonSummary(
                eps=eps,
                feasible=True,
                rmse=rmse,
                pct_error=rmse / exact_scale,
                trials=trials,
            )
        )
        # each entry's trials contiguous, (epochs, m, m, trials), so the
        # reductions sum in the order of a one-entry array
        values = np.ascontiguousarray(np.moveaxis(private, 1, -1))
        means = np.mean(values, axis=-1)
        variances = np.var(values, axis=-1, ddof=1) if trials > 1 else np.zeros_like(means)
        rmses = np.sqrt(np.mean((values - exact[..., None]) ** 2, axis=-1))
        for epoch, q, r in np.ndindex(exact.shape):
            report.entries.append(
                EntryAccuracy(
                    epoch=epoch,
                    t=float(trajectory.t[epoch]),
                    eps=eps,
                    q=q,
                    r=r,
                    exact=float(exact[epoch, q, r]),
                    mean_private=float(means[epoch, q, r]),
                    var_private=float(variances[epoch, q, r]),
                    rmse=float(rmses[epoch, q, r]),
                    pct_error=float(rmses[epoch, q, r]) / exact_scale,
                )
            )
    return report


def trichotomy_counts(
    net: TransmissionNetwork,
    trajectory: Sequence[EpidemicState],
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
    if not trajectory:
        return 0, 0
    trajectory = Trajectory.from_states(trajectory)
    _check_size(net, trajectory)
    # lern_vector's ratios without its zero-infection check: a zero gives a ratio to mask
    gaps = _lern_ratios(net, trajectory.s, floored_infections(trajectory.x, floor)) - 1.0
    counted = (trajectory.x > np.asarray(floor, dtype=float)) & (np.abs(gaps) > band)
    agree = np.sign(infected_derivative(net, trajectory, kind)) == np.sign(gaps)
    return int(np.sum(agree & counted)), int(np.sum(counted))


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


class _Thresholds:
    """Running per-column threshold statistics over row blocks of ``(rows, k)`` arrays.

    A column crosses where its sign of ``series - 1`` flips between two
    nonzero signs, the first row of a block against the last row of the
    block before; its peak is its first row of largest ``amounts``.  Every
    statistic is the one of the stacked blocks.
    """

    def __init__(self, k: int):
        self.rows = 0
        self.signs = np.zeros(k)  # the last row's signs; a zero never crosses
        self.crossed, self.first = np.zeros(k, dtype=bool), np.zeros(k)  # first crossing times
        self.peak, self.peak_t = np.full(k, -np.inf), np.zeros(k)
        self.samples, self.agreements = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)

    def add(self, times, series, amounts, rates, valid, band):
        """Take the next rows: their times, reproduction numbers, infected amounts, their
        rates and above-floor flags."""
        gaps = series - 1.0
        signs = np.sign(gaps)
        before = np.concatenate([self.signs[None], signs[:-1]])
        crossed = (signs != 0.0) & (before != 0.0) & (signs != before)
        found = ~self.crossed & crossed.any(axis=0)
        self.first[found] = times[np.argmax(crossed[:, found], axis=0)]
        self.crossed |= found
        top = np.argmax(amounts, axis=0)
        higher = amounts[top, np.arange(amounts.shape[1])] > self.peak  # ties keep the earlier row
        self.peak[higher] = amounts[top[higher], higher]
        self.peak_t[higher] = times[top[higher]]
        counted = valid & (np.abs(gaps) > band)
        self.samples += np.sum(counted, axis=0)
        self.agreements += np.sum(counted & (np.sign(rates) == signs), axis=0)
        self.signs = signs[-1]
        self.rows += len(signs)

    def results(self):
        """(first crossing, peak time, agreement rate, samples) per column."""
        for k, samples in enumerate(self.samples):
            rate = float(self.agreements[k] / samples) if samples else None
            crossing = float(self.first[k]) if self.crossed[k] else None
            yield crossing, float(self.peak_t[k]), rate, int(samples)


# Entries per row block of ``threshold_report``: its temporaries stay a few
# blocks in size, whatever the trajectory's length.
_REPORT_BLOCK = 1 << 14


def threshold_report(
    net: TransmissionNetwork,
    trajectory: Sequence[EpidemicState] | Iterator[Trajectory],
    partition: Partition,
    kind: ModelKind = ModelKind.SIR,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    band: float = THRESHOLD_DEAD_BAND,
) -> ThresholdReport:
    """Per-node and per-cluster threshold diagnostics along a trajectory, given as a
    sequence of states or as an iterator of ``Trajectory`` row blocks
    (``model.integrate_blocks``), each reduced as it comes.

    Reports the first time the entity (cluster) effective reproduction
    number crosses one, the time of peak infection, and the rate at which
    the sign of the infection derivative agrees with the sign of the
    reproduction number minus one.  Agreement counts only samples outside
    the dead band whose infected fractions sit strictly above the floor
    (below it, the flooring used for reporting distorts the ratio and the
    threshold statement's premise fails).  It runs over row blocks of about
    ``_REPORT_BLOCK`` entries, reduced by ``_Thresholds``: ``lern_vector`` of
    the block, and the cluster series ``cluster_average`` of those lerns,
    with the bits of ``cern_vector``.  Each kernel computes every row on its
    own, so the report has the bits of a single block of all rows.
    """
    if isinstance(trajectory, Sequence):
        if not trajectory:
            raise ConfigError("trajectory must contain at least one state")
        trajectory = [Trajectory.from_states(trajectory)]
    members = [partition.members(q) for q in range(partition.m)]

    def per_cluster(values, reduce):
        return np.stack([reduce(values[:, ms], axis=1) for ms in members], axis=1)

    nodes, clusters = _Thresholds(net.n), _Thresholds(partition.m)
    for block in _row_blocks(trajectory, max(1, _REPORT_BLOCK // net.n)):
        xs, xdots = block.x, infected_derivative(net, block, kind)
        lerns = lern_vector(net, block, floor)
        cerns = cluster_average(lerns, net.gamma * floored_infections(xs, floor), partition)
        above = xs > np.asarray(floor, dtype=float)
        nodes.add(block.t, lerns, xs, xdots, above, band)
        clusters.add(block.t, cerns, per_cluster(xs, np.sum), per_cluster(xdots, np.sum),
                     per_cluster(above, np.all), band)
    if not nodes.rows:
        raise ConfigError("trajectory must contain at least one state")
    return ThresholdReport(
        nodes=[NodeThreshold(i, *row) for i, row in enumerate(nodes.results())],
        clusters=[ClusterThreshold(q, *row) for q, row in enumerate(clusters.results())],
    )


def _row_blocks(blocks: Iterable[Trajectory], rows: int) -> Iterator[Trajectory]:
    """The rows of ``Trajectory`` blocks of any lengths, in blocks of ``rows`` or a few more
    (the last may have fewer): long blocks are split into views, short ones joined."""
    pending = []
    for block in blocks:
        for start in range(0, len(block), rows):
            pending.append([a[start : start + rows] for a in (block.t, block.s, block.x, block.r)])
            if sum(len(t) for t, *_ in pending) >= rows:
                yield _joined(pending)
                pending = []
    if pending:
        yield _joined(pending)


def _joined(pieces) -> Trajectory:
    """One ``Trajectory`` of consecutive ``(t, s, x, r)`` pieces; a single piece's views are kept."""
    return Trajectory(*(parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in zip(*pieces)))
