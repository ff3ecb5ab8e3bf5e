"""Networked SIS/SIR compartment dynamics.

A spreading process over ``n`` entities is described by a transmission
matrix ``B`` (entry ``b[i, j]`` is the rate from entity ``j`` into entity
``i``), a per-entity recovery rate vector ``gamma``, and per-entity
fractions ``s`` (susceptible), ``x`` (infected), ``r`` (recovered).

The continuous-time dynamics are

    SIS:  x' = diag(s) B x - diag(gamma) x,   s' = -x'
    SIR:  s' = -diag(s) B x,  x' = diag(s) B x - diag(gamma) x,  r' = diag(gamma) x

and trajectories are produced with a fixed-step classical Runge-Kutta
integrator so that downstream reproduction-number series are uniformly
sampled and runs are reproducible.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, IntegrationError

__all__ = [
    "ModelKind",
    "TransmissionNetwork",
    "EpidemicState",
    "Trajectory",
    "StabilityWarning",
    "check_fractions",
    "derivative",
    "infected_derivative",
    "inflow",
    "integrate",
]

# Fraction triples are renormalized when their sum drifts further than this.
_DRIFT_TOL = 1e-12
# Negative round-off larger than this magnitude is treated as instability.
_NEGATIVE_TOL = 1e-9
# Entries of one block of ``integrate``'s steps with their sums, the size rule
# of ``analysis._REPORT_BLOCK``.
_STEP_BLOCK = 1 << 14
# Any two orders of summing three fractions in [0, 1] differ by less than this,
# so a block check flags every step whose own sum drifts past ``_DRIFT_TOL``.
_SUM_SLACK = 1e-15


class ModelKind(enum.Enum):
    SIS = "sis"
    SIR = "sir"


class StabilityWarning(UserWarning):
    """Emitted when the integration step looks too large for the network."""


def _as_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def _components(adj: np.ndarray):
    """Yield the strongly connected components of the graph of positive entries,
    each as an ascending array of nodes.

    The lowest unplaced node's component is what it reaches among the unplaced
    nodes that reach it, so the forward reach keeps to the backward one's result:
    a node with no in-edge (``s_i = 0`` in an effective matrix) costs one level,
    and each array operation advances a whole breadth-first level.  (scipy's
    ``csgraph`` would add ~10 MiB of resident memory and ~30 ms to each start-up.)
    """
    positive = adj > 0.0
    placed = np.zeros(adj.shape[0], dtype=bool)
    while not placed.all():
        component = ~placed
        # positive[i, j] means an edge j -> i; its transpose reverses every edge
        for mat in (positive.T, positive):
            reached = frontier = np.arange(placed.size) == np.argmin(placed)
            while frontier.any():
                frontier = mat[:, frontier].any(axis=1) & component & ~reached
                reached |= frontier
            component = reached
        placed |= component
        yield np.flatnonzero(component)


@dataclass(frozen=True, eq=False)
class TransmissionNetwork:
    """Directed weighted spreading network.

    ``b[i, j]`` is the transmission rate from entity j into entity i and must
    lie in [0, 1]; ``gamma[i]`` is the recovery rate of entity i in (0, 1].
    The graph induced by positive transmission entries must be strongly
    connected; this is a model precondition, so it is checked once here
    rather than at every operation.  A single-entity network is accepted (it
    is trivially strongly connected) to support scalar reference cases.
    """

    b: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ConfigError(f"transmission matrix must be square, got shape {b.shape}")
        n = b.shape[0]
        if n < 1:
            raise ConfigError("network needs at least one entity")
        if not np.all((b >= 0.0) & (b <= 1.0)):  # NaN fails too
            raise ConfigError("transmission rates must be finite and lie in [0, 1]")
        gamma = _as_vector(self.gamma, n, "gamma")
        if not np.all((gamma > 0.0) & (gamma <= 1.0)):
            raise ConfigError("recovery rates must be finite and lie in (0, 1]")
        if next(_components(b)).size != n:
            raise ConfigError("transmission graph is not strongly connected")
        b.setflags(write=False)
        gamma = gamma.copy()
        gamma.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.b.shape[0]


def check_fractions(s: np.ndarray, x: np.ndarray, r: np.ndarray) -> None:
    """Validate fractions of one shape, ``(n,)`` or ``(T, n)``: each finite and
    in [0, 1], and ``s + x + r`` within 1e-9 of one for every entity."""
    # blocks of ~4k entries (s[:1] is one row, or one entry) keep temporaries small
    step = max(1, (1 << 12) // max(1, s[:1].size))
    for k in range(0, len(s), step):
        block = np.array((s[k : k + step], x[k : k + step], r[k : k + step]))
        if not (block.min(initial=0.0) >= 0.0 and block.max(initial=1.0) <= 1.0):  # NaN fails too
            name = next(v for v, arr in zip("sxr", block) if not (arr.min() >= 0.0 and arr.max() <= 1.0))
            raise ConfigError(f"state vector {name} has non-finite entries or entries outside [0, 1]")
        drift = np.abs(block.sum(axis=0) - 1.0).max(initial=0.0)
        if drift > 1e-9:
            raise ConfigError(f"state fractions must sum to 1 (max drift {drift:.3e})")


@dataclass(frozen=True, eq=False)
class EpidemicState:
    """Per-entity susceptible/infected/recovered fractions at one time.

    ``r`` defaults to zeros; the read-only vectors pass ``check_fractions``.
    A ``Trajectory`` row indexed on its own is one of these.
    """

    t: float
    s: np.ndarray
    x: np.ndarray
    r: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        n = s.shape[0]
        x, s = _as_vector(self.x, n, "x"), _as_vector(s, n, "s")
        r = np.zeros(n) if self.r is None else _as_vector(self.r, n, "r")
        check_fractions(s, x, r)
        for name, vec in (("s", s), ("x", x), ("r", r)):
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)

    @property
    def n(self) -> int:
        return self.s.shape[0]


class Trajectory(Sequence):
    """States at T times as read-only arrays ``t`` (T,) and ``s, x, r`` (T, n).

    Validated once, by ``check_fractions``.  An integer index builds that
    row's ``EpidemicState`` (or returns ``head`` for row 0, when given) and a
    slice is a ``Trajectory`` of copies of those rows, so that sampling a long
    trajectory lets it be freed.
    """

    def __init__(self, t, s, x, r, *, head: EpidemicState | None = None):
        t, s, x, r = (np.asarray(a, dtype=float) for a in (t, s, x, r))
        if t.ndim != 1 or s.ndim != 2 or len(s) != len(t) or not s.shape == x.shape == r.shape:
            raise ConfigError(f"trajectory shapes {t.shape}, {s.shape}, {x.shape}, {r.shape}")
        check_fractions(s, x, r)
        for arr in (t, s, x, r):
            arr.setflags(write=False)
        self.t, self.s, self.x, self.r, self._head = t, s, x, r, head

    @classmethod
    def from_states(cls, states: Sequence[EpidemicState]) -> "Trajectory":
        """Stack a non-empty sequence of states; a ``Trajectory`` is returned as is."""
        if isinstance(states, Trajectory):
            return states
        states = list(states)
        if not states or len({state.n for state in states}) > 1:
            raise ConfigError("a trajectory needs one or more states of one size")
        s, x, r = (np.stack([getattr(state, name) for state in states]) for name in "sxr")
        return cls([state.t for state in states], s, x, r, head=states[0])

    @property
    def n(self) -> int:
        return self.s.shape[1]

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        rows = range(len(self))[key]
        if isinstance(key, slice):
            head = self._head if rows and rows[0] == 0 else None
            return Trajectory(*(a[key].copy() for a in (self.t, self.s, self.x, self.r)), head=head)
        if rows == 0 and self._head is not None:
            return self._head
        return EpidemicState(t=float(self.t[rows]), s=self.s[rows], x=self.x[rows], r=self.r[rows])


def _check_size(net: TransmissionNetwork, state: EpidemicState | Trajectory) -> None:
    if state.n != net.n:
        raise ConfigError(f"state has {state.n} entities, network has {net.n}")


def inflow(b: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``b @ x`` for ``(n,)`` fractions, and one ``b @ row`` per row of ``(T, n)`` ones, since a
    batched ``x @ b.T`` rounds differently from a row on its own; written into ``out`` when given."""
    if x.ndim == 1:
        return np.matmul(b, x, out=out)
    out = np.empty(x.shape) if out is None else out
    for k, row in enumerate(x):
        np.matmul(b, row, out=out[k])
    return out


def _rhs(b: np.ndarray, gamma: np.ndarray, s: np.ndarray, x: np.ndarray, kind: ModelKind, out=None):
    """Right-hand side (s', x', r') stacked on a new axis 0, for ``(n,)`` or ``(T, n)`` arrays.

    Written into ``out``, an array or three arrays that overlap neither ``s``
    nor ``x``, and returned; a new array when ``out`` is None.
    """
    if out is None:
        out = np.empty((3,) + x.shape)
    sdot, xdot, rdot = out
    if kind is ModelKind.SIS:
        infection = np.multiply(s, inflow(b, x, xdot), xdot)
        np.subtract(infection, np.multiply(gamma, x, sdot), xdot)
        np.negative(xdot, sdot)
        rdot.fill(0.0)
        return out
    infection = np.multiply(s, inflow(b, x, sdot), sdot)
    np.negative(infection, sdot)
    np.multiply(gamma, x, rdot)
    # Build x' from the other two components so the conservation identity
    # x' + (s' + r') == 0 holds exactly in floating point.
    np.negative(np.add(sdot, rdot, xdot), xdot)
    return out


def derivative(net: TransmissionNetwork, state: EpidemicState | Trajectory, kind: ModelKind):
    """Time derivative (s', x', r') of the model at `state`, or at every row of a trajectory.

    For SIS the pair satisfies ``s' + x' == 0`` exactly; for SIR the triple
    satisfies ``x' + (s' + r') == 0`` exactly (sum in that association).
    """
    _check_size(net, state)
    return _rhs(net.b, net.gamma, state.s, state.x, kind)


def infected_derivative(net: TransmissionNetwork, state: EpidemicState | Trajectory, kind: ModelKind):
    """x' alone, bit for bit ``derivative(net, state, kind)[1]``, without the s' and r' arrays."""
    _check_size(net, state)
    rate = inflow(net.b, state.x)
    rate *= state.s  # the infection term s * (B x)
    if kind is ModelKind.SIS:
        rate -= net.gamma * state.x
        return rate
    # SIR: -(s' + r') with s' = -infection and r' = gamma x, as ``_rhs`` builds it
    np.negative(rate, out=rate)
    rate += net.gamma * state.x
    return np.negative(rate, out=rate)


def _clean_up(state: np.ndarray, t: float, dt: float) -> None:
    """Clean one stepped (s, x, r) state up for round-off in place, or raise for instability."""
    low, high = state.min(), state.max()  # a NaN fails both tests
    if not (low >= -_NEGATIVE_TOL and high <= 1.0 + _NEGATIVE_TOL):
        if not np.isfinite(state).all():
            raise IntegrationError(f"non-finite state at t={t}; reduce dt (currently {dt})")
        raise IntegrationError(f"state left [0, 1] beyond round-off at t={t}; reduce dt")
    if low < 0.0:
        state[state < 0.0] = 0.0
    if high > 1.0:
        state[state > 1.0] = 1.0
    total = state.sum(axis=0)
    if np.abs(total - 1.0).max() > _DRIFT_TOL:
        state /= total


def integrate(
    net: TransmissionNetwork,
    state0: EpidemicState,
    kind: ModelKind,
    dt: float,
    steps: int,
    every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 ``Trajectory`` of the states at steps ``range(steps + 1)[::every]``;
    its index 0 is ``state0``.

    Time advances by repeated ``t += dt``.  States are cleaned up only for
    round-off: negative components no larger than 1e-9 in magnitude are
    clamped to zero and the triple is renormalized to sum one whenever the
    drift exceeds 1e-12.  Non-finite values or negative components beyond
    round-off abort the run; the caller should reduce ``dt``.

    Steps run in blocks of up to ``_STEP_BLOCK`` entries, each stage written
    into preallocated buffers.  A block is stepped without clean-up, then
    checked as a whole: its steps up to the first one that needs a clean-up
    are kept, that step is cleaned up (or raises), and the next block starts
    from it.  A clean block doubles the next one's length, from 1, and a
    clean-up resets it, so at most twice the steps are computed.  Kept rows
    are copied out of each block, so a kept row has the bits of
    ``integrate(...)[::every]``'s, and memory grows with the rows kept, not
    with ``steps``.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    if every < 1:
        raise ConfigError("every must be >= 1")
    _check_size(net, state0)

    max_inflow = float(np.max(net.b.sum(axis=1))) if net.n else 0.0
    if max_inflow > 0.0 and dt > 0.1 / max_inflow:
        warnings.warn(
            f"dt={dt} is large for a max transmission row sum of {max_inflow:.3g}; "
            "the fixed-step integration may be inaccurate",
            StabilityWarning,
            stacklevel=2,
        )

    b, gamma, n, rhs = net.b, net.gamma, net.n, _rhs
    add, multiply = np.add, np.multiply
    half, sixth = 0.5 * dt, dt / 6.0
    kept = steps // every + 1
    times = np.empty(kept)
    fractions = np.empty((kept, 3, n))  # kept step k's (s, x, r) at row k // every, contiguous
    times[0] = state0.t
    fractions[0] = state0.s, state0.x, state0.r
    # a step takes 3n entries of the block, n of its sums, its time and one entry per check reduction
    cap = max(1, _STEP_BLOCK // (4 * n + 2))
    block, clock = np.empty((cap + 1, 3, n)), np.empty(cap + 1)  # row j: step j of the block
    sums = np.empty((cap, n))  # the block's s + x + r, for its check
    block[0], clock[0] = fractions[0], times[0]
    # views made once: the per-step cost is the ~36 ufunc calls, not their arithmetic
    stages = np.empty((4, 3, n))
    k1, k2, k3, k4 = stages
    outs = [tuple(k) for k in stages]
    doubled = stages[1:3]
    y = np.empty((3, n))  # a stage's state; its r is not read
    ys, yx, _ = y
    done, length = 0, 1
    while done < steps:
        size = min(length, steps - done)
        t = float(clock[0])
        nxt = block[0]
        # a step past one that fails its check is discarded, and may overflow
        with np.errstate(all="ignore"):
            for j in range(1, size + 1):
                prev, nxt = nxt, block[j]
                rhs(b, gamma, prev[0], prev[1], kind, outs[0])
                add(prev, multiply(half, k1, y), y)
                rhs(b, gamma, ys, yx, kind, outs[1])
                add(prev, multiply(half, k2, y), y)
                rhs(b, gamma, ys, yx, kind, outs[2])
                add(prev, multiply(dt, k3, y), y)
                rhs(b, gamma, ys, yx, kind, outs[3])
                # prev + dt / 6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
                multiply(2.0, doubled, doubled)
                add(add(add(k1, k2, k1), k3, k1), k4, k1)
                add(prev, multiply(sixth, k1, k1), nxt)
                t += dt
                clock[j] = t
        stepped = block[1 : size + 1]
        clean = (stepped.min(axis=(1, 2)) >= 0.0) & (stepped.max(axis=(1, 2)) <= 1.0)  # NaN fails
        drift = np.sum(stepped, axis=1, out=sums[:size])
        drift -= 1.0
        clean &= np.abs(drift, out=drift).max(axis=1) <= _DRIFT_TOL - _SUM_SLACK
        if clean.all():
            used, length = size, min(2 * length, cap)
        else:  # keep the steps before the first unclean one, and clean that one up
            used, length = int(clean.argmin()) + 1, 1
            _clean_up(block[used], float(clock[used]), dt)
        first = -(-(done + 1) // every) * every  # the block's first kept step
        rows = slice(first // every, (done + used) // every + 1)
        fractions[rows] = block[first - done : used + 1 : every]
        times[rows] = clock[first - done : used + 1 : every]
        block[0], clock[0] = block[used], clock[used]
        done += used
    return Trajectory(times, *fractions.transpose(1, 0, 2), head=state0)
