"""The private aggregation pipeline, one epoch per ``run_pipeline`` call.

The paper's parties are local authorities, one shuffler and one aggregator
per cluster, a data center and the central authority.  ``run_pipeline``
runs their seven steps itself, in order:

1. the central authority broadcasts a request carrying the partition and
   the public data (recovery rates and current s/x fractions);
2. each local authority computes its entity-level effective values from its
   own transmission row plus the public data;
3. it pre-aggregates them into a length-m report vector whose entry r is
   ``gamma_i * x_i * sum_{k in cluster r} effective(i, k)`` (steps 2 and 3
   are one single-row ``reproduction.report_matrix`` call);
4. with privacy on, it randomizes the report with the bounded Gaussian
   local randomizer;
5. each cluster's reports are anonymized and uniformly permuted with that
   cluster's shuffler stream;
6. ``step6_assemble`` divides the entrywise sum of a cluster's shuffled
   batch by ``sum_{k in cluster} gamma_k * x_k`` through
   ``reproduction.assemble`` (summing report entries in ascending value
   order, which makes the result bit-identical under any permutation of the
   batch, and equal to ``cluster_matrix`` with privacy off);
7. the cluster vectors are stacked into the m-by-m matrix handed to the
   central authority.

A ``LocalAuthority`` is constructed from its own transmission row, never
from the full matrix, and sees only the request.  Every message between
parties is a dataclass below; with a ``trace`` sink, ``run_pipeline``
writes one audit line per message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from .exceptions import ConfigError, ProtocolError
from .model import EpidemicState, TransmissionNetwork, _check_size
from .privacy import CalibratedMechanism, PrivacySpec, bounded_gaussian_randomize, shuffle
from .reproduction import (
    DEFAULT_INFECTION_FLOOR,
    ClusterRnMatrix,
    Partition,
    _index,
    assemble,
    cluster_weight_sums,
    floored_infections,
    report_matrix,
)
from .seeding import StreamRole, stream, streams  # noqa: F401  (stream: see below)

# ``stream`` is not called here; it stays bound because perfbench's traced
# runs wrap it by this name.

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
    """Exact report vector of authority i: its ``LocalAuthority`` without privacy.

    Only row i of the transmission matrix and the public vectors enter.
    """
    _check_size(net, state)
    i = _index(i, net.n, "authority")
    authority = LocalAuthority(i, net.b[i], float(net.gamma[i]), None, None, floor, clamp)
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


def _record(sink: IO[str] | None, step: int, sender: str, receiver: str, message) -> None:
    """Write one message's audit line to ``sink``, if there is one."""
    if sink is not None:
        line = {"step": step, "from": sender, "to": receiver, "payload_digest": payload_digest(message)}
        sink.write(json.dumps(line) + "\n")


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
) -> ClusterRnMatrix:
    """Execute one epoch of the aggregation pipeline.

    With ``spec=None`` the randomizer step is skipped and the result equals
    the directly computed cluster matrix.
    """
    if state.n != net.n or partition.n != net.n:
        raise ConfigError("network, state, and partition sizes must agree")
    private = spec is not None
    rngs = (
        streams(master_seed, StreamRole.LOCAL_AUTHORITY, range(net.n), epoch, (trial,))
        if private
        else [None] * net.n
    )
    request = _request(net, state, partition, epoch)
    t = request.t
    for q in range(partition.m):
        _record(trace, 1, "central_authority", f"cluster_aggregator:{q}", request)

    reports = []
    for i, rng in enumerate(rngs):
        _record(trace, 1, "central_authority", f"local_authority:{i}", request)
        authority = LocalAuthority(i, net.b[i], float(net.gamma[i]), spec, rng, floor, clamp)
        reports.append(authority.handle(request))

    batches: list[list[LocalAggVector]] = [[] for _ in range(partition.m)]
    for i, report in enumerate(reports):
        q = int(partition.assignment[i])
        _record(trace, 5, f"local_authority:{i}", f"shuffler:{q}", report)
        batches[q].append(report.vector)

    shuffler_rngs = streams(master_seed, StreamRole.SHUFFLER, range(partition.m), epoch, (trial,))
    rows = []
    for q, rng in enumerate(shuffler_rngs):
        batch = ShuffledBatch(cluster=q, t=t, vectors=tuple(shuffle(batches[q], rng)))
        _record(trace, 5, f"shuffler:{q}", f"cluster_aggregator:{q}", batch)
        rows.append(step6_assemble(batch, partition, net.gamma, state.x, q, floor))

    for q, row in enumerate(rows):
        _record(trace, 7, f"cluster_aggregator:{q}", "data_center", ClusterVector(q, t, row))

    final = MatrixMessage(matrix=ClusterRnMatrix(values=np.stack(rows), t=t, private=private))
    _record(trace, 7, "data_center", "central_authority", final)
    return final.matrix
