"""The private aggregation pipeline, over one epoch or a trajectory's epochs per
``run_pipeline`` call.

The paper's parties are local authorities, one shuffler and one aggregator
per cluster, a data center and the central authority.  Their seven steps
are array computations over every authority at once:

1. the central authority broadcasts the partition and the public data
   (recovery rates and current s/x fractions);
2. each local authority computes its entity-level effective values from its
   own transmission row plus the public data;
3. it pre-aggregates them into a length-m report whose entry r is
   ``gamma_i * x_i * sum_{k in cluster r} effective(i, k)``.  Steps 2 and 3
   are ``reproduction.report_matrix`` over all rows; each row has the bits
   of its authority's one-row call (``step3_preaggregate``);
4. with privacy on, ``private_reports`` randomizes each report with the
   bounded Gaussian local randomizer and its authority's own stream, with
   one calibration and check per count of positive entries and one sampler
   call over every epoch of the call;
5. each cluster's shuffler anonymizes and uniformly permutes its reports;
6. a cluster's vector is the sum of its members' reports over
   ``sum_{k in cluster} gamma_k * x_k`` (``reproduction.assemble_clusters``),
   summed in ascending value order, so no permutation changes a bit;
7. the cluster vectors are stacked into the m-by-m matrix.

With privacy off this is ``reproduction.cluster_matrix``, bit for bit, and
``analysis.rmse_sweep`` runs the same steps over many trials.  The message
dataclasses below exist for the audit trace: with a ``trace`` sink,
``run_pipeline`` builds them from the computed arrays, shuffle included, and
writes one line per message in sending order, epoch by epoch, after every
matrix of the call is computed, so a call that fails writes none.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO

import numpy as np

from .exceptions import CalibrationInfeasibleError, ConfigError, ProtocolError, RepronetError
from .model import EpidemicState, TransmissionNetwork, Trajectory, _check_size
from .privacy import (  # noqa: F401
    PrivacySpec,
    _box_values,
    _sample_box_truncated,
    bounded_gaussian_randomize,
    shuffle,
)
from .reproduction import (
    DEFAULT_INFECTION_FLOOR,
    ClusterRnMatrix,
    Partition,
    _index,
    assemble,
    assemble_clusters,
    cluster_weight_sums,
    floored_infections,
    report_matrix,
)
from .seeding import StreamBank, StreamRole, stream, stream_words, streams  # noqa: F401

# ``stream`` and ``bounded_gaussian_randomize`` are not called here; they stay bound
# because perfbench's traced runs wrap them by these names.

__all__ = [
    "LocalAggVector",
    "PublicData",
    "Request",
    "Report",
    "ShuffledBatch",
    "ClusterVector",
    "MatrixMessage",
    "payload_digest",
    "step3_preaggregate",
    "step6_assemble",
    "LocalAuthority",
    "private_reports",
    "run_pipeline",
]


@dataclass(frozen=True, eq=False)
class LocalAggVector:
    """One authority's pre-aggregated report: entry r targets cluster r."""

    entries: np.ndarray
    t: float
    authority_id: int | None
    private: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 1:
            raise ConfigError("report entries must form a vector")
        if not np.all(np.isfinite(entries)) or np.any(entries < 0.0):
            raise ConfigError("report entries must be finite and >= 0")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def anonymized(self) -> "LocalAggVector":
        return dataclasses.replace(self, authority_id=None)


@dataclass(frozen=True, eq=False)
class PublicData:
    """Publicly available model data shipped with the request."""

    gamma: np.ndarray
    s: np.ndarray
    x: np.ndarray


@dataclass(frozen=True, eq=False)
class Request:
    partition: Partition
    t: float
    epoch: int
    public: PublicData


@dataclass(frozen=True, eq=False)
class Report:
    vector: LocalAggVector


@dataclass(frozen=True, eq=False)
class ShuffledBatch:
    cluster: int
    t: float
    vectors: tuple


@dataclass(frozen=True, eq=False)
class ClusterVector:
    cluster: int
    t: float
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class MatrixMessage:
    matrix: ClusterRnMatrix


def _digest_update(h, value) -> None:
    if value is None:
        h.update(b"\x00")
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    elif isinstance(value, (bool, int, float, str)):
        h.update(repr(value).encode())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest_update(h, item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _digest_update(h, getattr(value, f.name))
    else:
        h.update(repr(value).encode())


def payload_digest(message) -> str:
    """Short stable digest of a protocol message, for audit traces."""
    import hashlib  # only traced runs digest, so untraced ones never import it

    h = hashlib.sha256()
    h.update(type(message).__name__.encode())
    _digest_update(h, message)
    return h.hexdigest()[:16]


def _request(net, state, partition, epoch: int) -> Request:
    """Step 1's broadcast: the partition and the public data of ``state``."""
    public = PublicData(gamma=net.gamma, s=state.s, x=state.x)
    return Request(partition=partition, t=float(state.t), epoch=epoch, public=public)


def step3_preaggregate(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    i: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
) -> LocalAggVector:
    """Exact report vector of authority i, from its ``LocalAuthority``.

    Only row i of the transmission matrix and the public vectors enter.
    """
    _check_size(net, state)
    i = _index(i, net.n, "authority")
    authority = LocalAuthority(i, net.b[i], float(net.gamma[i]), floor, clamp)
    return authority.handle(_request(net, state, partition, epoch=0)).vector


def step6_assemble(
    batch: ShuffledBatch,
    partition: Partition,
    gamma: np.ndarray,
    x: np.ndarray,
    q: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """Cluster q's vector from its shuffled batch and public data.

    ``reproduction.assemble`` of the batch with the cluster weight
    ``sum(gamma * x)`` over members; the result is bit-identical for every
    permutation of the batch.
    """
    if batch.cluster != q:
        raise ProtocolError(f"cluster {q} received the batch of cluster {batch.cluster}")
    members = partition.members(q)
    if len(batch.vectors) != members.size:
        raise ProtocolError(
            f"cluster {q} expected {members.size} reports, got {len(batch.vectors)}"
        )
    x_f = floored_infections(np.asarray(x, dtype=float), floor)
    denom = cluster_weight_sums(gamma, x_f, partition)[q]
    return assemble(np.stack([vec.entries for vec in batch.vectors]), denom)


@dataclass(frozen=True, eq=False)
class LocalAuthority:
    """Holds one transmission row; turns a request into its exact report."""

    ident: int
    b_row: np.ndarray
    gamma_i: float
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR
    clamp: tuple[float, float] | None = None

    def handle(self, message) -> Report:
        if not isinstance(message, Request):
            raise ProtocolError(
                f"local authority {self.ident} expected a Request, got {type(message).__name__}"
            )
        public, rows = message.public, np.array([self.ident])
        x_f = floored_infections(public.x, self.floor)
        entries = report_matrix(
            np.asarray(self.b_row, dtype=float)[None, :], np.array([float(self.gamma_i)]),
            public.s[rows], x_f, rows, message.partition, self.clamp
        )[0]
        return Report(vector=LocalAggVector(entries=entries, t=message.t, authority_id=self.ident))


def _check_sizes(net: TransmissionNetwork, state: EpidemicState | Trajectory, partition: Partition) -> None:
    if state.n != net.n or partition.n != net.n:
        raise ConfigError("network, state, and partition sizes must agree")


def private_reports(reports: np.ndarray, spec: PrivacySpec, words: np.ndarray) -> np.ndarray:
    """Every authority's randomized report in every trial, ``(trials,) + reports.shape``:
    row i of the exact ``(n, m)`` reports, or of each epoch's in an ``(epochs, n, m)``
    stack, under its support pattern's mechanism, trial t drawn from the stream seeded
    with ``words[..., i, t, :]`` (``seeding.stream_words``).

    The rows are grouped by their count of positive entries, which alone sets the noise
    scale: each group is calibrated once and checked in arrays (``_noise_scales``).  Every
    row is then sampled, at its group's scale, in one ``_sample_box_truncated`` call from
    one ``StreamBank`` of all their streams, so no generator is built.  Every row gets the
    bits, and a failing input the error, of a ``bounded_gaussian_randomize`` call per
    authority in order, epoch by epoch: the
    first failing authority raises, its calibration checked before its values, unless an
    earlier epoch drew a value below zero (a box reaching below it), which fails the report
    check.  An all-zero report passes through unchanged, as there is nothing to calibrate.
    """
    trials, m = words.shape[-2], reports.shape[-1]
    flat = reports.reshape(-1, m)
    words = words.reshape(len(flat), trials, 4)
    out = np.empty((trials,) + flat.shape)
    out[:] = flat
    sigma, failed = _noise_scales(flat, spec)
    end = len(flat)  # the rows of the epochs before the first that fails its checks
    if failed.any():
        first = int(np.argmax(failed))
        end = first - first % reports.shape[-2]

    positive = flat > 0.0
    group = np.flatnonzero(positive[:end].any(axis=1))  # each of these rows has a sigma
    if group.size:
        drawn = _sample_box_truncated(
            flat[group], sigma[group, None], *spec.bounds,
            StreamBank(words[group].reshape(-1, 4)), positive[group],
        )
        out[:, group] = drawn.reshape(group.size, trials, m).transpose(1, 0, 2)
    if np.any(out[:, :end] < 0.0):
        raise ConfigError("report entries must be finite and >= 0")
    _reject(flat, spec, failed)
    return out.reshape((trials,) + reports.shape)


def _noise_scales(reports: np.ndarray, spec: PrivacySpec) -> tuple[np.ndarray, np.ndarray]:
    """Each report row's noise scale (0 without a positive entry), calibrated once per count of
    positive entries through ``spec.calibrate`` of its first row's pattern, and which rows
    fail the randomizer's checks (``_reject`` raises their error)."""
    positive = reports > 0.0
    counts = np.count_nonzero(positive, axis=1)
    sigma, failed = np.zeros(len(reports)), np.zeros(len(reports), dtype=bool)
    for d in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():  # each count that occurs, zero aside
        group = counts == d
        try:
            sigma[group] = spec.calibrate(positive[np.argmax(group)]).sigma
        except CalibrationInfeasibleError:
            failed |= group
    lower, upper = spec.bounds
    outside = positive & ((reports <= lower) | (reports > upper))
    failed |= (counts > 0) & np.any((reports < 0.0) | outside, axis=1)
    return sigma, failed


def _reject(reports: np.ndarray, spec: PrivacySpec, failed: np.ndarray) -> None:
    """Raise the error of the first ``failed`` row's ``bounded_gaussian_randomize`` call."""
    for i in np.flatnonzero(failed):  # raises at the first, as its one-row call would
        _box_values(reports[i], spec.calibrate(reports[i] > 0.0))


def _record(sink: IO[str], step: int, sender: str, receiver: str, message) -> None:
    """Write one message's audit line to ``sink``."""
    line = {"step": step, "from": sender, "to": receiver, "payload_digest": payload_digest(message)}
    sink.write(json.dumps(line) + "\n")


def _write_trace(sink, request, reports, matrix, shuffler_rngs) -> None:
    """The epoch's messages, built from its arrays, one audit line each, in sending order."""
    partition, t = request.partition, request.t
    receivers = [f"cluster_aggregator:{q}" for q in range(partition.m)]
    for receiver in receivers + [f"local_authority:{i}" for i in range(len(reports))]:
        _record(sink, 1, "central_authority", receiver, request)

    batches: list[list[LocalAggVector]] = [[] for _ in range(partition.m)]
    for i, entries in enumerate(reports):  # a Python int id and float t: digests hash their repr
        q = int(partition.assignment[i])
        vector = LocalAggVector(entries=entries, t=t, authority_id=i, private=matrix.private)
        _record(sink, 5, f"local_authority:{i}", f"shuffler:{q}", Report(vector=vector))
        batches[q].append(vector)
    for q, rng in enumerate(shuffler_rngs):
        batch = ShuffledBatch(cluster=q, t=t, vectors=tuple(shuffle(batches[q], rng)))
        _record(sink, 5, f"shuffler:{q}", f"cluster_aggregator:{q}", batch)

    for q, row in enumerate(matrix.values):
        _record(sink, 7, f"cluster_aggregator:{q}", "data_center", ClusterVector(q, t, row))
    _record(sink, 7, "data_center", "central_authority", MatrixMessage(matrix=matrix))


def run_pipeline(
    net: TransmissionNetwork,
    state: EpidemicState | Trajectory,
    partition: Partition,
    spec: PrivacySpec | None = None,
    *,
    master_seed: int = 0,
    epoch: int | Sequence[int] = 0,
    trial: int = 0,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
    trace: IO[str] | None = None,
) -> ClusterRnMatrix | list[ClusterRnMatrix]:
    """Execute one epoch of the aggregation pipeline, or one per row of a ``Trajectory``.

    A ``Trajectory`` takes ``epoch`` as one epoch number per row and returns one
    matrix per row.  Its rows get the bits, and a failing run the error, of one
    call per state in order, while the noise of every epoch is drawn in a single
    ``private_reports`` call; the trace lines follow in epoch order.  With
    ``spec=None`` the randomizer step is skipped and each result equals the
    directly computed cluster matrix.
    """
    stacked = isinstance(state, Trajectory)
    times, s_rows, x_rows = (state.t, state.s, state.x) if stacked else ([state.t], [state.s], [state.x])
    epochs = list(epoch) if stacked else [epoch]
    _check_sizes(net, state, partition)
    if len(epochs) != len(times):
        raise ConfigError(f"expected one epoch per state, got {len(epochs)} for {len(times)} states")
    private = spec is not None
    # the authorities' stream seeds; with privacy off there are none, but each key is checked
    authorities = range(net.n if private else 0)
    words, floored, reports, failure = [], [], [], None
    try:  # an epoch that fails here does so after the earlier epochs' noise, as in a loop over epochs
        for e, s, x in zip(epochs, s_rows, x_rows):
            words.append(stream_words(master_seed, StreamRole.LOCAL_AUTHORITY, authorities, e, (trial,)))
            floored.append(floored_infections(x, floor))
            reports.append(report_matrix(net.b, net.gamma, s, floored[-1], np.arange(net.n), partition, clamp))
    except RepronetError as exc:
        failure = exc
    if private and reports:
        reports = private_reports(np.stack(reports), spec, np.stack(words[: len(reports)]))[0]
    if failure is not None:
        raise failure
    matrices = []
    for t, x_f, rows in zip(times, floored, reports):
        weights = cluster_weight_sums(net.gamma, x_f, partition)
        matrices.append(ClusterRnMatrix(assemble_clusters(rows, weights, partition), float(t), private))
    if trace is not None:
        for k, (e, matrix) in enumerate(zip(epochs, matrices)):
            shuffler_rngs = streams(master_seed, StreamRole.SHUFFLER, range(partition.m), e, (trial,))
            request = _request(net, state[k] if stacked else state, partition, e)
            _write_trace(trace, request, reports[k], matrix, shuffler_rngs)
    return matrices if stacked else matrices[0]
