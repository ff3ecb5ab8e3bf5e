"""Workload definitions: generated scenario inputs and the commands of one round.

The benchmark writes every input the program reads (transmission matrix,
recovery rates and scenario file), so the reference checks know the exact
network without calling into repronet.  Floats are written with 17
significant digits, which the program parses back bit for bit.

Seeding.  The edge pattern of each workload's graph comes from a fixed
per-workload structure seed; the transmission rates, recovery rates and the
master seed of the pipeline's noise and shuffle streams come from
``--seed``.  The pattern is held fixed because it alone decides how much
work the privacy calibration does: each distinct support pattern of a report
costs one cold calibration, and on the 60-node graph a random pattern swings
that count from 26 to 33 (6.3 s to 7.9 s) between seeds, on top of the
machine's own run-to-run noise that the bounds must absorb.  The rates and
the streams change every value the program computes and every random draw
it makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml
from scipy.sparse.csgraph import connected_components

CLAMP = (0.0, 14.0)
FLOOR = 1e-9


@dataclass(frozen=True)
class Instance:
    """One generated scenario: the network, the run settings and their files."""

    name: str
    b: np.ndarray
    gamma: np.ndarray
    x0: float
    model: str
    dt: float
    steps: int
    rn_interval: int
    blocks: tuple
    master_seed: int
    privacy: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.gamma.size

    @property
    def sampled_epochs(self) -> list[int]:
        return list(range(0, self.steps + 1, self.rn_interval))

    def write(self, directory: Path) -> None:
        """Write b.csv, gamma.csv and scenario.yaml into `directory`."""
        directory.mkdir(parents=True, exist_ok=True)
        _write_matrix(directory / "b.csv", self.b)
        _write_matrix(directory / "gamma.csv", self.gamma[None, :])
        scenario = {
            "network": {"matrix_csv": "b.csv", "gamma_csv": "gamma.csv"},
            "initial": {"x": self.x0},
            "model": self.model,
            "dt": self.dt,
            "steps": self.steps,
            "rn_interval": self.rn_interval,
            "partition": [list(block) for block in self.blocks],
            "privacy": self.privacy or {"enabled": False},
            "infection_floor": FLOOR,
            "output_dir": "out",
            "seed": self.master_seed,
        }
        (directory / "scenario.yaml").write_text(
            yaml.safe_dump(scenario, default_flow_style=None, sort_keys=False)
        )


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a round.

    ``timed`` commands make up ``command_s``.  ``identical_to`` names an
    earlier command of the round whose output files this one must reproduce
    byte for byte; the command counts as failed when they differ.
    ``sigma_eps`` lists the privacy levels whose calibrated noise scales the
    checks read back from the command's calibration cache.
    """

    label: str  # the subcommand
    args: tuple  # arguments after the subcommand, before --config
    instance: Instance
    timed: bool = True
    identical_to: str | None = None
    sigma_eps: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Command]]  # seed -> the commands of a round


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    header = ",".join(f"j{j + 1}" for j in range(matrix.shape[1]))
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def _generator_stream(seed: int, attempt: int) -> np.random.Generator:
    # The key of repronet's own ``network.random`` generator (scenario role 5),
    # so a pattern drawn here equals the one the CLI draws from that seed.
    return np.random.default_rng(np.random.SeedSequence([seed, 5, attempt, 0, 0]))


def _network(n, density, beta_range, gamma_range, structure_seed, rate_seed, ring=False):
    """Random network: edge pattern from structure_seed, rates from rate_seed.

    The draws follow the order of the CLI's ``network.random`` generator, so
    with ``rate_seed == structure_seed`` and no ring this is the network the
    CLI would generate from that seed.
    """
    for attempt in range(100):
        mask = _generator_stream(structure_seed, attempt).random((n, n)) < density
        if ring:
            # the shape of scripts/synthetic_sweep.py: a ring plus self-loops
            mask[np.arange(n), (np.arange(n) + 1) % n] = True
            np.fill_diagonal(mask, True)
        count, _ = connected_components(mask, directed=True, connection="strong")
        if count == 1:
            break
    else:
        raise RuntimeError(f"no strongly connected pattern for n={n}, density={density}")
    rng = _generator_stream(rate_seed, attempt)
    rng.random((n, n))  # the pattern draw, skipped so the rate draws line up
    b = np.where(mask, rng.uniform(*beta_range, (n, n)), 0.0)
    gamma = rng.uniform(*gamma_range, n)
    return b, gamma


def _blocks(n: int, size: int) -> tuple:
    return tuple(tuple(range(q * size, (q + 1) * size)) for q in range(n // size))


PRIVATE = {
    "enabled": True,
    "epsilon0": 1.0,
    "delta": 0.01,
    "k": 1e-5,
    "bounds": list(CLAMP),
    "clamp": list(CLAMP),
}


def private_pipeline(seed: int) -> list[Command]:
    b, gamma = _network(60, 0.12, (0.05, 0.3), (0.1, 0.5), structure_seed=11, rate_seed=seed)
    inst = Instance(
        "private", b, gamma, x0=0.3, model="sis", dt=0.02, steps=500, rn_interval=100,
        blocks=_blocks(60, 10), master_seed=seed, privacy=PRIVATE,
    )
    return [Command("pipeline", (), inst, sigma_eps=(PRIVATE["epsilon0"],))]


ACCURACY_EPS = (1.0, 2.0, 3.0)
ACCURACY_TRIALS = 200


def accuracy_sweep(seed: int) -> list[Command]:
    b, gamma = _network(20, 0.6, (0.1, 0.3), (0.5, 0.8), structure_seed=707, rate_seed=seed, ring=True)
    inst = Instance(
        "accuracy", b, gamma, x0=0.3, model="sis", dt=0.025, steps=320, rn_interval=160,
        blocks=_blocks(20, 5), master_seed=seed, privacy=PRIVATE,
    )
    eps = ",".join(f"{e:g}" for e in ACCURACY_EPS)
    return [Command("accuracy", ("--eps", eps, "--trials", str(ACCURACY_TRIALS)), inst, sigma_eps=ACCURACY_EPS)]


# compute-rn fails on this fixed instance (see README); its inputs do not
# depend on --seed, so the failure counts the same in every run.  It is left
# out of command_s: once mended it writes a 960k-row local_rn.csv, and that
# new work would read as a slowdown of the change that mends it.  The fault
# shows at sampled epoch 900, once the epidemic has burnt out, so this
# instance keeps 1,500 steps; the timed instance runs 500, which gives a run
# several rounds to time.
COMPUTE_RN_SEED = 5


def _sir_instance(name: str, rate_seed: int, steps: int, rn_interval: int) -> Instance:
    b, gamma = _network(400, 0.1, (0.02, 0.2), (0.2, 0.6), structure_seed=5, rate_seed=rate_seed)
    return Instance(
        name, b, gamma, x0=0.01, model="sir", dt=0.01, steps=steps, rn_interval=rn_interval,
        blocks=_blocks(400, 40), master_seed=rate_seed,
    )


def sir_scan(seed: int) -> list[Command]:
    inst = _sir_instance("sir", seed, steps=500, rn_interval=100)
    fixed = _sir_instance("sir-fixed", COMPUTE_RN_SEED, steps=1500, rn_interval=300)
    return [
        Command("simulate", (), inst),
        Command("compute-rn", (), fixed, timed=False),
        Command("cluster-rn", (), inst),
        Command("pipeline", ("--no-privacy",), inst, identical_to="cluster-rn"),
        Command("report", (), inst),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "private-pipeline",
            "cold privacy calibration of 29 support patterns is ~97% of the work",
            private_pipeline,
        ),
        Workload(
            "accuracy-sweep",
            "1800 warm-cache pipeline runs: actor set-up, RNG streams, randomizer and shuffle",
            accuracy_sweep,
        ),
        Workload(
            "sir-scan",
            "n=400 SIR, privacy off: RK4, entity/cluster/network kernels and CSV writing",
            sir_scan,
        ),
    )
}
