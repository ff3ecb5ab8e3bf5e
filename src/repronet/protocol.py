"""Round-structured actor simulation of the private aggregation pipeline.

One epoch proceeds through seven barrier-synchronized steps:

1. the central authority broadcasts a request carrying the partition and
   the public data (recovery rates and current s/x fractions);
2. each local authority computes its entity-level effective values from its
   own transmission row plus the public data;
3. it pre-aggregates them into a length-m report vector whose entry r is
   ``gamma_i * x_i * sum_{k in cluster r} effective(i, k)`` (steps 2 and 3
   are one single-row ``reproduction.report_matrix`` call);
4. with privacy on, it randomizes the report with the bounded Gaussian
   local randomizer;
5. each cluster's shuffler anonymizes its members' reports and applies a
   uniform random permutation;
6. each cluster aggregator divides the entrywise sum of its shuffled batch
   by ``sum_{k in cluster} gamma_k * x_k`` through ``reproduction.assemble``
   (summing report entries in ascending value order, which makes the result
   bit-identical under any permutation of the batch, and equal to
   ``cluster_matrix`` with privacy off);
7. the data center stacks the cluster vectors into the m-by-m matrix and
   hands it to the central authority.

No fault tolerance is modeled: a missing report is a hard error.  Actors
communicate only through messages; a local authority object is constructed
from its own transmission row, never from the full matrix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from .exceptions import ConfigError, ProtocolError
from .model import EpidemicState, TransmissionNetwork
from .privacy import CalibratedMechanism, PrivacySpec, bounded_gaussian_randomize, shuffle
from .reproduction import (
    DEFAULT_INFECTION_FLOOR,
    ClusterRnMatrix,
    Partition,
    assemble,
    cluster_weight_sums,
    floored_infections,
    report_matrix,
)
from .seeding import StreamRole, stream

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
    "Shuffler",
    "ClusterAggregator",
    "DataCenter",
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
    h = hashlib.sha256()
    h.update(type(message).__name__.encode())
    _digest_update(h, message)
    return h.hexdigest()[:16]


def step3_preaggregate(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    i: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
) -> LocalAggVector:
    """Exact report vector of authority i.

    Thin wrapper over the single-row report kernel: only row i of the
    transmission matrix and the public vectors enter.
    """
    if not 0 <= i < net.n:
        raise ConfigError(f"authority index {i} out of range")
    x_f = floored_infections(state.x, floor)
    rows = np.array([i])
    entries = report_matrix(
        net.b[rows], net.gamma[rows], state.s[rows], x_f, rows, partition, clamp
    )[0]
    return LocalAggVector(entries=entries, t=state.t, authority_id=i, private=False)


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
    members = partition.members(q)
    if len(batch.vectors) != members.size:
        raise ProtocolError(
            f"cluster {q} expected {members.size} reports, got {len(batch.vectors)}"
        )
    x_f = floored_infections(np.asarray(x, dtype=float), floor)
    denom = cluster_weight_sums(gamma, x_f, partition)[q]
    return assemble(np.stack([vec.entries for vec in batch.vectors]), denom)


class LocalAuthority:
    """Holds one transmission row; turns requests into (private) reports."""

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
        # one-row arrays, the shapes ``report_matrix`` takes
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
            # an all-zero report passes through unchanged: the randomizer
            # touches positive entries only, so there is nothing to calibrate
            mechanism: CalibratedMechanism = self.spec.calibrate(entries > 0.0)
            if self.rng is None:
                raise ProtocolError(f"local authority {self.ident} has no RNG stream")
            entries = bounded_gaussian_randomize(entries, mechanism, self.rng)
        vector = LocalAggVector(
            entries=entries, t=message.t, authority_id=self.ident, private=private
        )
        return Report(vector=vector)


class Shuffler:
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


class ClusterAggregator:
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
        values = step6_assemble(
            message, req.partition, req.public.gamma, req.public.x, self.cluster, self.floor
        )
        return ClusterVector(cluster=self.cluster, t=message.t, values=values)


class DataCenter:
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


class _Trace:
    def __init__(self, sink: IO[str] | None):
        self.sink = sink

    def record(self, step: int, sender: str, receiver: str, message) -> None:
        if self.sink is None:
            return
        line = {
            "step": step,
            "from": sender,
            "to": receiver,
            "payload_digest": payload_digest(message),
        }
        self.sink.write(json.dumps(line) + "\n")


def run_pipeline(
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
    trace: IO[str] | None = None,
    scheduler_rng: np.random.Generator | None = None,
) -> ClusterRnMatrix:
    """Execute one epoch of the aggregation pipeline.

    With ``spec=None`` the randomizer step is skipped and the result equals
    the directly computed cluster matrix.  ``scheduler_rng``, when given,
    randomizes the order in which actors are serviced inside each step;
    outputs are independent of that order.
    """
    if state.n != net.n or partition.n != net.n:
        raise ConfigError("network, state, and partition sizes must agree")
    private = spec is not None
    trace_ = _Trace(trace)

    authorities = [
        LocalAuthority(
            ident=i,
            b_row=net.b[i],
            gamma_i=float(net.gamma[i]),
            spec=spec,
            rng=stream(master_seed, StreamRole.LOCAL_AUTHORITY, i, epoch, trial) if private else None,
            floor=floor,
            clamp=clamp,
        )
        for i in range(net.n)
    ]
    shufflers = {
        q: Shuffler(q, stream(master_seed, StreamRole.SHUFFLER, q, epoch, trial))
        for q in range(partition.m)
    }
    aggregators = {q: ClusterAggregator(q, floor=floor) for q in range(partition.m)}
    center = DataCenter(partition.m, private=private)

    def ordering(count: int) -> list[int]:
        order = list(range(count))
        if scheduler_rng is not None:
            scheduler_rng.shuffle(order)
        return order

    request = Request(
        partition=partition,
        t=float(state.t),
        epoch=epoch,
        public=PublicData(gamma=net.gamma, s=state.s, x=state.x),
    )
    for q in range(partition.m):
        trace_.record(1, "central_authority", f"cluster_aggregator:{q}", request)
        aggregators[q].observe(request)

    reports: dict[int, Report] = {}
    for i in ordering(net.n):
        trace_.record(1, "central_authority", f"local_authority:{i}", request)
        reports[i] = authorities[i].handle(request)

    missing = sorted(set(range(net.n)) - set(reports))
    if missing:
        raise ProtocolError(f"missing reports from authorities {missing}")

    for i in ordering(net.n):
        q = int(partition.assignment[i])
        trace_.record(5, f"local_authority:{i}", f"shuffler:{q}", reports[i])
        shufflers[q].receive(reports[i])

    cluster_vectors: dict[int, ClusterVector] = {}
    for q in ordering(partition.m):
        batch = shufflers[q].flush()
        trace_.record(5, f"shuffler:{q}", f"cluster_aggregator:{q}", batch)
        cluster_vectors[q] = aggregators[q].handle(batch)

    for q in ordering(partition.m):
        trace_.record(7, f"cluster_aggregator:{q}", "data_center", cluster_vectors[q])
        center.receive(cluster_vectors[q])

    final = center.flush()
    trace_.record(7, "data_center", "central_authority", final)
    return final.matrix
