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
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, IntegrationError

__all__ = [
    "ModelKind",
    "TransmissionNetwork",
    "EpidemicState",
    "StabilityWarning",
    "derivative",
    "integrate",
]

# Fraction triples are renormalized when their sum drifts further than this.
_DRIFT_TOL = 1e-12
# Negative round-off larger than this magnitude is treated as instability.
_NEGATIVE_TOL = 1e-9


class ModelKind(enum.Enum):
    SIS = "sis"
    SIR = "sir"


class StabilityWarning(UserWarning):
    """Emitted when the integration step looks too large for the network."""


def _as_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite values")
    return arr


def _strongly_connected(adj: np.ndarray) -> bool:
    """Check strong connectivity of the graph induced by positive entries.

    Node 0 must reach, and be reached from, every node; each array operation
    advances a whole breadth-first level.  (``scipy.sparse.csgraph`` would
    add ~10 MiB of resident memory and ~30 ms to every command's start-up.)
    """
    positive = adj > 0.0
    # positive[i, j] means an edge j -> i; its transpose reverses every edge
    for mat in (positive, positive.T):
        reached = np.zeros(adj.shape[0], dtype=bool)
        frontier = ~reached
        frontier[1:] = False
        while frontier.any():
            reached |= frontier
            frontier = mat[:, frontier].any(axis=1) & ~reached
        if not reached.all():
            return False
    return True


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
        if not np.all(np.isfinite(b)):
            raise ConfigError("transmission matrix contains non-finite values")
        if np.any(b < 0.0) or np.any(b > 1.0):
            raise ConfigError("transmission rates must lie in [0, 1]")
        gamma = _as_vector(self.gamma, n, "gamma")
        if np.any(gamma <= 0.0) or np.any(gamma > 1.0):
            raise ConfigError("recovery rates must lie in (0, 1]")
        if not _strongly_connected(b):
            raise ConfigError("transmission graph is not strongly connected")
        b.setflags(write=False)
        gamma = gamma.copy()
        gamma.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True, eq=False)
class EpidemicState:
    """Per-entity susceptible/infected/recovered fractions at one time."""

    t: float
    s: np.ndarray
    x: np.ndarray
    r: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        n = s.shape[0]
        x = _as_vector(self.x, n, "x")
        s = _as_vector(s, n, "s")
        r = np.zeros(n) if self.r is None else _as_vector(self.r, n, "r")
        for name, vec in (("s", s), ("x", x), ("r", r)):
            if np.any(vec < 0.0) or np.any(vec > 1.0):
                raise ConfigError(f"state vector {name} has entries outside [0, 1]")
        total = s + x + r
        if np.any(np.abs(total - 1.0) > 1e-9):
            worst = float(np.max(np.abs(total - 1.0)))
            raise ConfigError(f"state fractions must sum to 1 (max drift {worst:.3e})")
        for vec in (s, x, r):
            vec.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.s.shape[0]


def _rhs(b: np.ndarray, gamma: np.ndarray, s: np.ndarray, x: np.ndarray, kind: ModelKind):
    """Raw right-hand side on plain arrays (used by the RK4 stages)."""
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
    """Time derivative (s', x', r') of the model at `state`.

    For SIS the pair satisfies ``s' + x' == 0`` exactly; for SIR the triple
    satisfies ``x' + (s' + r') == 0`` exactly (sum in that association).
    """
    if state.n != net.n:
        raise ConfigError(f"state has {state.n} entities, network has {net.n}")
    return _rhs(net.b, net.gamma, state.s, state.x, kind)


def integrate(
    net: TransmissionNetwork,
    state0: EpidemicState,
    kind: ModelKind,
    dt: float,
    steps: int,
) -> list[EpidemicState]:
    """Fixed-step RK4 trajectory of length ``steps + 1`` starting at state0.

    Emitted states are cleaned up only for round-off: negative components no
    larger than 1e-9 in magnitude are clamped to zero and the triple is
    renormalized to sum one whenever the drift exceeds 1e-12.  Non-finite
    values or negative components beyond round-off abort the run; the caller
    should reduce ``dt``.
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
