"""Reproduction numbers at entity, cluster, and network scale.

Entity-level quantities, for a network with transmission matrix ``b`` and
recovery rates ``gamma`` at a state ``(s, x)``:

    basic(i, j)            = b[i, j] / gamma[i]
    pseudo_effective(i, j) = s[i] * b[i, j] / gamma[i]
    effective(i, j)        = pseudo_effective(i, j) * x[j] / x[i]
    lern(i)                = sum_j effective(i, j)

The three full matrices are related by ``pseudo = diag(s) @ basic`` and
``effective = diag(x)^-1 @ pseudo @ diag(x)``; the similarity keeps their
spectra equal, so either yields the network-level effective reproduction
number through its spectral radius.

Cluster-level quantities average entity values with weights
``gamma[i] * x[i]`` over the members of each cluster of a partition; row
sums of the cluster matrix recover the cluster effective reproduction
numbers.  One kernel, ``cluster_average``, does every such average: entity
lerns to cerns, and fine cerns to coarse ones (weighted by the fine clusters'
weight sums) without revisiting entity data.  ``lern_vector`` and
``cern_vector`` take a state or a trajectory.  The cluster matrix is
assembled from per-entity reports (``report_matrix``) by ``assemble``, the
same two kernels the aggregation pipeline runs, so both give the same bits.

Infected fractions are floored (default ``1e-9``, standing in for "at least
one infected individual" when populations are unknown) before any effective
quantity is computed, since the definitions require strictly positive
infection everywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import ConfigError, ConvergenceError, UndefinedRatioError
from .model import EpidemicState, Trajectory, TransmissionNetwork, _check_size, _components, inflow

__all__ = [
    "DEFAULT_INFECTION_FLOOR",
    "DEFAULT_CLAMP",
    "MatrixKind",
    "LocalRnMatrix",
    "Partition",
    "ClusterRnMatrix",
    "floored_infections",
    "local_distributed_ern",
    "effective_rows",
    "report_matrix",
    "assemble",
    "assemble_clusters",
    "member_sums",
    "cluster_average",
    "cluster_weight_sums",
    "lern",
    "lern_vector",
    "lbrn",
    "build_matrix",
    "spectral_radius",
    "network_reproduction",
    "cern",
    "cern_vector",
    "cluster_matrix",
    "coarsen",
]

DEFAULT_INFECTION_FLOOR = 1e-9
DEFAULT_CLAMP = (0.0, 14.0)


class MatrixKind(enum.Enum):
    BASIC = "basic"
    PSEUDO_EFFECTIVE = "pseudo_effective"
    EFFECTIVE = "effective"


@dataclass(frozen=True, eq=False)
class LocalRnMatrix:
    """n-by-n entity-level reproduction number matrix of one kind."""

    kind: MatrixKind
    values: np.ndarray
    t: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ConfigError("reproduction matrix entries must be finite and >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _index(value, size: int, name: str) -> int:
    """``value`` as an index into ``range(size)``; any other value is a ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < size:
        raise ConfigError(f"{name} index {value} out of range [0, {size})")
    return int(value)


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint, exhaustive assignment of the n entities to m clusters.

    ``assignment[i]`` is the 0-based cluster index of entity i.  Every
    cluster must be non-empty; a single whole-network cluster is allowed.

    ``member_slots``, derived and kept out of the fields that message digests
    hash, is the ``(m, largest cluster)`` table of each cluster's members in
    ascending order, padded with ``n``.
    """

    m: int
    assignment: np.ndarray

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=int)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ConfigError("partition assignment must be a non-empty 1-d sequence")
        if self.m < 1 or self.m > assignment.size:
            raise ConfigError(f"cluster count {self.m} invalid for {assignment.size} entities")
        if np.any(assignment < 0) or np.any(assignment >= self.m):
            raise ConfigError("cluster indices must lie in [0, m)")
        present, sizes = np.unique(assignment, return_counts=True)
        if present.size != self.m:
            missing = sorted(set(range(self.m)) - set(present.tolist()))
            raise ConfigError(f"empty clusters in partition: {missing}")
        assignment = assignment.copy()
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        order = np.argsort(assignment, kind="stable")
        clusters = assignment[order]
        slots = np.full((self.m, int(sizes.max())), assignment.size)
        slots[clusters, np.arange(assignment.size) - (np.cumsum(sizes) - sizes)[clusters]] = order
        slots.setflags(write=False)
        object.__setattr__(self, "member_slots", slots)

    @property
    def n(self) -> int:
        return self.assignment.size

    def members(self, q: int) -> np.ndarray:
        q = _index(q, self.m, "cluster")
        return np.nonzero(self.assignment == q)[0]

    @classmethod
    def from_blocks(cls, blocks: Sequence[Iterable[int]], n: int | None = None) -> "Partition":
        """Build from explicit member lists, e.g. ``[[0, 1], [2, 3, 4]]``."""
        seen: dict[int, int] = {}
        for q, block in enumerate(blocks):
            block = list(block)
            if not block:
                raise ConfigError(f"cluster {q} is empty")
            for i in block:
                if i in seen:
                    raise ConfigError(f"entity {i} appears in clusters {seen[i]} and {q}")
                seen[i] = q
        if n is None:
            n = len(seen)
        missing = sorted(set(range(n)) - set(seen))
        if missing or len(seen) != n:
            raise ConfigError(f"clusters must cover entities 0..{n - 1} exactly (missing {missing})")
        assignment = np.empty(n, dtype=int)
        for i, q in seen.items():
            if not 0 <= i < n:
                raise ConfigError(f"entity index {i} out of range for n={n}")
            assignment[i] = q
        return cls(m=len(blocks), assignment=assignment)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(m=n, assignment=np.arange(n))

    @classmethod
    def whole(cls, n: int) -> "Partition":
        return cls(m=1, assignment=np.zeros(n, dtype=int))


@dataclass(frozen=True, eq=False)
class ClusterRnMatrix:
    """m-by-m cluster-level effective reproduction number matrix."""

    values: np.ndarray
    t: float | None = None
    private: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ConfigError("cluster matrix entries must be finite and >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]


def floored_infections(x: np.ndarray, floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR) -> np.ndarray:
    """Infected fractions with the positivity floor applied.

    ``floor`` may be a scalar or a per-entity vector (one infected individual
    over each entity's population).  ``floor=0`` disables flooring, in which
    case any exact zero later trips an undefined-ratio error.
    """
    floor_arr = np.asarray(floor, dtype=float)
    if np.any(floor_arr < 0.0):
        raise ConfigError("infection floor must be >= 0")
    return np.maximum(np.asarray(x, dtype=float), floor_arr)


def _check_positive_infection(x_f: np.ndarray, rows: np.ndarray) -> None:
    """Reject a zero among columns ``rows`` of ``x_f``, ``(n,)`` or ``(T, n)``; the first one is named."""
    bad = x_f[..., rows] <= 0.0
    if bad.any():
        raise UndefinedRatioError(
            f"x[{rows[np.argwhere(bad)[0, -1]]}] is zero with flooring disabled; effective RN undefined"
        )


def effective_rows(
    b_rows: np.ndarray,
    gamma_rows: np.ndarray,
    s_rows: np.ndarray,
    x_f: np.ndarray,
    rows: np.ndarray,
    clamp: tuple[float, float] | None = None,
) -> np.ndarray:
    """Rows ``rows`` of the effective matrix from those rows of B and public vectors.

    This is the single source of truth for entity-level effective values:
    entity sums, full matrices and reports all call it, and an entry's bits
    do not depend on which rows are computed together.  The signature is the
    locality statement: row i depends only on that transmission row, the
    entity's own recovery and susceptible values, and the shared infection
    vector (only the requested rows' infections must be positive).
    """
    _check_positive_infection(x_f, rows)
    values = (s_rows / gamma_rows)[:, None] * b_rows * x_f / x_f[rows][:, None]
    if clamp is not None:
        values = np.clip(values, clamp[0], clamp[1])
    return values


# Most elements ``report_matrix`` gathers at once (32 MiB): a partition with
# one large cluster and many small ones would otherwise need rows * m * its
# largest cluster size, which grows as n**3.
_GATHER_BLOCK = 1 << 22


def report_matrix(
    b_rows: np.ndarray,
    gamma_rows: np.ndarray,
    s_rows: np.ndarray,
    x_f: np.ndarray,
    rows: np.ndarray,
    partition: Partition,
    clamp: tuple[float, float] | None = None,
) -> np.ndarray:
    """Pre-aggregated reports of entities ``rows``, shape ``(len(rows), m)``.

    Entry (k, r) is ``gamma_i * x_i * sum_{j in cluster r} effective(i, j)``
    for ``i = rows[k]``.  The cluster sums are ``member_sums``, so an
    authority's single-row call gives the same bits as its row of the full
    matrix.
    """
    effective = effective_rows(b_rows, gamma_rows, s_rows, x_f, rows, clamp)
    return (gamma_rows * x_f[rows])[:, None] * member_sums(effective, partition)


def member_sums(values: np.ndarray, partition: Partition) -> np.ndarray:
    """Sums over each cluster's members, ``(n,)`` to ``(m,)`` or ``(rows, n)`` to ``(rows, m)``,
    added left to right in ascending member order at every cluster size (``np.sum`` adds 8 or
    more pairwise); the padding slot of ``partition.member_slots`` reads a zero column."""
    if values.shape[-1] != partition.n:
        raise ConfigError(f"values have {values.shape[-1]} entities, partition has {partition.n}")
    rows = values.reshape(-1, partition.n)
    padded = np.concatenate([rows, np.zeros((len(rows), 1))], axis=1)
    slots = partition.member_slots
    sums = np.empty((len(padded), partition.m))
    step = max(1, _GATHER_BLOCK // slots.size)
    for k in range(0, len(padded), step):
        sums[k : k + step] = np.add.accumulate(padded[k : k + step, slots], axis=2)[..., -1]
    return sums.reshape(values.shape[:-1] + (partition.m,))


def cluster_average(values: np.ndarray, weights: np.ndarray, partition: Partition) -> np.ndarray:
    """Each cluster's ``weights``-weighted average of its members' ``values``, ``(n,)`` to ``(m,)``
    or ``(T, n)`` to ``(T, m)``: entity lerns to cerns, and fine cerns to coarse ones."""
    return member_sums(weights * values, partition) / member_sums(weights, partition)


def assemble(reports: np.ndarray, denom: float) -> np.ndarray:
    """One cluster's vector: its members' reports summed, over ``denom``.

    ``reports`` has the members on axis -2 and the target clusters on axis
    -1; leading axes (independent trials, say) are kept.  Each column is
    summed in ascending value order, so the result is bit-identical under
    any permutation of the members.
    """
    return np.sum(np.sort(reports, axis=-2), axis=-2) / denom


def assemble_clusters(reports: np.ndarray, denoms: np.ndarray, partition: Partition) -> np.ndarray:
    """Every cluster's vector from all entities' reports: ``(..., n, m)`` to ``(..., m, m)``.

    Row q is ``assemble`` of cluster q's members' reports over ``denoms[q]``.
    ``np.take`` gathers them C-contiguously, as ``reports[members]`` does for
    one trial; the order in which numpy sums depends on the memory layout.
    """
    return np.stack(
        [
            assemble(np.take(reports, partition.members(q), axis=-2), denoms[q])
            for q in range(partition.m)
        ],
        axis=-2,
    )


def cluster_weight_sums(gamma: np.ndarray, x_f: np.ndarray, partition: Partition) -> np.ndarray:
    """``sum(gamma[i] * x[i])`` over each cluster's members, in ascending member order."""
    return member_sums(np.asarray(gamma, dtype=float) * x_f, partition)


def _effective_row(net: TransmissionNetwork, state: EpidemicState, i: int, floor) -> np.ndarray:
    """Row i of the effective matrix, once the state's size and the index are checked."""
    _check_size(net, state)
    rows = np.array([_index(i, net.n, "entity")])
    x_f = floored_infections(state.x, floor)
    return effective_rows(net.b[rows], net.gamma[rows], state.s[rows], x_f, rows)[0]


def local_distributed_ern(
    net: TransmissionNetwork,
    state: EpidemicState,
    i: int,
    j: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> float:
    """Effective reproduction number contributed by entity j to entity i."""
    return float(_effective_row(net, state, i, floor)[_index(j, net.n, "entity")])


def lern(
    net: TransmissionNetwork,
    state: EpidemicState,
    i: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> float:
    """Local effective reproduction number of entity i (row sum)."""
    return float(np.sum(_effective_row(net, state, i, floor)))


def lbrn(net: TransmissionNetwork, i: int) -> float:
    """Local basic reproduction number of entity i."""
    i = _index(i, net.n, "entity")
    return float(np.sum(net.b[i] / net.gamma[i]))


def _lern_ratios(net: TransmissionNetwork, s: np.ndarray, x_f: np.ndarray) -> np.ndarray:
    """``s * (B x_f) / (gamma * x_f)``, ``(n,)`` or ``(T, n)``, with no check for a zero in ``x_f``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return s * inflow(net.b, x_f) / (net.gamma * x_f)


def lern_vector(
    net: TransmissionNetwork,
    state: EpidemicState | Trajectory,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """All local effective reproduction numbers, ``(n,)`` at a state or ``(T, n)`` along a
    trajectory (each row with its state's bits); ``lern`` up to summation-order round-off."""
    _check_size(net, state)
    x_f = floored_infections(state.x, floor)
    _check_positive_infection(x_f, np.arange(net.n))
    return _lern_ratios(net, state.s, x_f)


def build_matrix(
    net: TransmissionNetwork,
    state: EpidemicState | None,
    kind: MatrixKind,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
) -> LocalRnMatrix:
    """Entity-level reproduction matrix of the requested kind.

    ``clamp=(lo, hi)`` projects entries into the given range (the reporting
    pipeline uses ``DEFAULT_CLAMP``); it is off by default for library use.
    """
    if kind is not MatrixKind.BASIC:
        if state is None:
            raise ConfigError(f"{kind.value} matrix requires a state")
        _check_size(net, state)
    if kind is MatrixKind.EFFECTIVE:
        x_f = floored_infections(state.x, floor)
        values = effective_rows(net.b, net.gamma, state.s, x_f, np.arange(net.n), clamp)
    else:
        values = net.b / net.gamma[:, None]
        if kind is MatrixKind.PSEUDO_EFFECTIVE:
            values = state.s[:, None] * values
        if clamp is not None:
            values = np.clip(values, clamp[0], clamp[1])
    return LocalRnMatrix(kind=kind, values=values, t=None if kind is MatrixKind.BASIC else state.t)


def spectral_radius(matrix: np.ndarray, rtol: float = 1e-12, max_iter: int = 10_000) -> float:
    """Perron root of a finite non-negative square matrix, certified by a bracket.

    The root is the largest over the diagonal blocks of the support's strongly
    connected components (the Frobenius normal form; Horn & Johnson, *Matrix
    Analysis*, ch. 8).  A one-node block's root is its diagonal entry, so an
    acyclic support gives exactly 0.  A larger block is irreducible: power
    iteration by ``M + uI`` from the all-ones vector, with ``u`` the tightest
    upper bound so far, brackets its root at every iterate ``v > 0`` by
    ``min_i (Mv)_i/v_i <= rho <= max_i (Mv)_i/v_i`` (Collatz-Wielandt).  The
    shift scales with the block, so it makes the block primitive without
    swamping the spectral gap of a tiny root.  A block's root is its bracket's
    midpoint once the width is at most ``rtol`` times the upper end; a block
    still open after ``max_iter`` iterations raises ``ConvergenceError``.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)) or np.any(mat < 0.0):
        raise ConfigError("spectral radius requires a finite non-negative matrix")
    root = 0.0
    for nodes in _components(mat):
        if nodes.size == 1:
            root = max(root, float(mat[nodes[0], nodes[0]]))
            continue
        block = mat if nodes.size == len(mat) else mat[np.ix_(nodes, nodes)]
        vec, lower, upper = np.ones(nodes.size), 0.0, math.inf
        for _ in range(max_iter):
            product = block @ vec
            ratios = product / vec
            upper = min(upper, float(np.max(ratios)))
            lower = max(lower, float(np.min(ratios)))
            if upper - lower <= rtol * upper:
                break
            vec = product + upper * vec
            # any positive vector gives a valid bracket; the floor keeps v > 0
            vec = np.maximum(vec / np.max(vec), np.finfo(float).tiny)
        else:
            raise ConvergenceError(f"power iteration did not close a spectral bracket in {max_iter} iterations")
        root = max(root, 0.5 * (lower + upper))
    return root


def network_reproduction(net: TransmissionNetwork, state: EpidemicState | None = None) -> float:
    """Network-level reproduction number: basic if no state, else effective (the spectral
    radius of the pseudo-effective matrix, to which the effective one is similar)."""
    kind = MatrixKind.BASIC if state is None else MatrixKind.PSEUDO_EFFECTIVE
    return spectral_radius(build_matrix(net, state, kind).values)


def cern(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    q: int,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> float:
    """Cluster effective reproduction number of cluster q."""
    q = _index(q, partition.m, "cluster")
    return float(cern_vector(net, state, partition, floor)[q])


def cern_vector(
    net: TransmissionNetwork,
    state: EpidemicState | Trajectory,
    partition: Partition,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """All cluster effective reproduction numbers, ``(m,)`` at a state or ``(T, m)`` along a
    trajectory: ``cluster_average`` of the members' lerns with weights ``gamma[i] * x[i]``."""
    lerns = lern_vector(net, state, floor)
    return cluster_average(lerns, net.gamma * floored_infections(state.x, floor), partition)


def cluster_matrix(
    net: TransmissionNetwork,
    state: EpidemicState,
    partition: Partition,
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
    clamp: tuple[float, float] | None = None,
) -> ClusterRnMatrix:
    """Cluster-level effective reproduction matrix over a partition.

    Entry (q, r) averages, with weights ``gamma[i] * x[i]`` over members i of
    cluster q, the effective values from members of cluster r.  It is the
    pipeline's computation without its messages: ``report_matrix`` over all
    entities, then ``assemble`` per cluster, so the privacy-off pipeline
    output is bit-identical.
    """
    _check_size(net, state)
    x_f = floored_infections(state.x, floor)
    reports = report_matrix(net.b, net.gamma, state.s, x_f, np.arange(net.n), partition, clamp)
    values = assemble_clusters(reports, cluster_weight_sums(net.gamma, x_f, partition), partition)
    return ClusterRnMatrix(values=values, t=state.t, private=False)


def coarsen(
    net: TransmissionNetwork,
    state: EpidemicState,
    fine: Partition,
    mapping: Mapping[int, int] | Sequence[int],
    floor: float | np.ndarray = DEFAULT_INFECTION_FLOOR,
) -> np.ndarray:
    """Coarse-cluster effective reproduction numbers from fine-cluster ones.

    ``mapping`` sends each fine cluster index to an integer coarse cluster
    index; its keys (or positions) are exactly the fine clusters, and every
    coarse index must be hit.  The result equals a direct computation on the
    merged clusters: ``cluster_average`` of the fine values over the coarse
    partition, with weights ``sum(gamma[i] * x[i])`` over each fine cluster.
    """
    if isinstance(mapping, Mapping):
        if set(mapping) != set(range(fine.m)):
            raise ConfigError(f"mapping keys {sorted(mapping, key=str)} are not the fine clusters")
        mapping = [mapping[q] for q in range(fine.m)]
    target = np.asarray(mapping)
    if target.shape != (fine.m,):
        raise ConfigError(f"mapping must assign all {fine.m} fine clusters, got shape {target.shape}")
    if target.dtype.kind not in "iu" or np.any(target < 0):
        raise ConfigError(f"coarse cluster indices must be integers >= 0, got {target.tolist()}")
    m_coarse = int(target.max()) + 1
    if set(target.tolist()) != set(range(m_coarse)):
        raise ConfigError("mapping must be surjective onto 0..max coarse index")

    cerns = cern_vector(net, state, fine, floor)
    fine_weights = cluster_weight_sums(net.gamma, floored_infections(state.x, floor), fine)
    return cluster_average(cerns, fine_weights, Partition(m=m_coarse, assignment=target))
