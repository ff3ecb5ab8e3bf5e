#!/usr/bin/env python3
"""Per-layer timings of repronet on random networks, printed as JSON.

    PYTHONPATH=src python scripts/layers.py [--sizes 8,50,200,1000]

Each size n draws, from seed n, a strongly connected network (a ring plus
random edges of the density below) with rates ``b`` in [0.05, 0.3] and
``gamma`` in [0.1, 0.5], split into m contiguous clusters.  The state is the
SIR state after 200 RK4 steps of ``dt = 0.01`` from ``x = 0.01``, and the
private pipeline uses ``epsilon0 = 1`` and the clamp (0, 14).

A timing is the best of 5 in-process runs.  A cold pipeline run is the best of
3, each after clearing both calibration caches.  ``write_states_ns_per_value``
times ``csvio.write_states_csv`` on the whole trajectory, per fraction written
(three per row), and ``write_states_fallback_share`` is the share of those
fractions that its kernel hands to Python's ``%``.  ``write_rn_ns_per_value`` and
``write_rn_fallback_share`` are the same for ``csvio.write_rn_csv`` on the
effective matrix at the state, clamped to (0, 14), which is what ``compute-rn``
writes per sampled epoch.  ``calibrate_sigma_us`` times
one uncached ``privacy.calibrate_sigma`` at ``epsilon0 = 1``, ``k = 1e-5`` and the
box (0, 14), with one active entry per cluster.  ``ndtr_ns_per_value`` times
``privacy.ndtr`` on the arrays that a cold private pipeline run passes it, per
value, call overhead included: two per calibration, its certificate's and its
offset's ``delta_c`` evaluations, as the bisection evaluates its CDF values one
by one and the sampler calls ``ndtr`` only where no bound decides its branch.
``rmse_sweep_ms`` times ``analysis.rmse_sweep`` over ``epsilon0`` in {1, 2, 3}
with 50 trials on the states after 0, 100 and 200 steps, its calibrations cached.
``private_moments_ms`` times one ``analysis.private_moments`` call at the state, the
closed-form mean and variance of every private cluster entry at ``epsilon0 = 1``, its
calibrations cached.
``spectral_radius_ms`` times ``spectral_radius`` on the pseudo-effective matrix
at the state, and ``spectral_radius_reducible_ms`` on the same matrix with the
edges from the second half of the nodes into the first removed: the halves are
then joined in one direction only, and the root comes from more than one
strongly connected component.  ``spectral_radius_zero_rows_ms`` times it on the
pseudo-effective matrix with ``s = 0`` on the first half of the nodes, as for
vaccinated nodes: their rows are zero, and each of them is its own component.

The ``_peak_mib`` rows are ``tracemalloc`` peaks of one call, in MiB: ``integrate``
keeping every state and keeping every 100th (as a command with ``rn_interval: 100``
does), ``analysis.threshold_report`` on the whole trajectory,
``csvio.write_rn_csv`` on the effective matrix, and ``cluster_matrix`` at the state.
``simulate_peak_mib`` is ``simulate``'s path, ``csvio.write_states_csv`` of
``integrate_blocks`` over the 200 steps, and ``compute_rn_epoch_peak_mib`` one
``compute-rn`` epoch at the state: ``network_reproduction``, then the effective
matrix built as ``csvio.write_rn_csv`` reads it.
"""

import argparse
import functools
import json
import os
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repronet as rn
from repronet import analysis, csvio, privacy
from repronet.reproduction import (
    MatrixKind,
    Partition,
    build_matrix,
    cern_vector,
    cluster_matrix,
    network_reproduction,
    spectral_radius,
)

# n -> (clusters, edge density)
SIZES = {8: (3, 0.5), 50: (5, 0.3), 200: (10, 0.1), 1000: (20, 0.02)}
STEPS, DT, CLAMP = 200, 0.01, (0.0, 14.0)
RMSE_EPS, RMSE_TRIALS, RMSE_EVERY = (1.0, 2.0, 3.0), 50, 100


def instance(n: int):
    m, density = SIZES[n]
    rng = np.random.default_rng(n)
    b = np.where(rng.random((n, n)) < density, rng.uniform(0.05, 0.3, (n, n)), 0.0)
    b[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.05, 0.3, n)
    net = rn.TransmissionNetwork(b=b, gamma=rng.uniform(0.1, 0.5, n))
    x0 = np.full(n, 0.01)
    return net, rn.EpidemicState(t=0.0, s=1.0 - x0, x=x0), Partition(m, np.arange(n) * m // n)


def best(run, repeat=5, before=lambda: None) -> float:
    """Shortest wall time of ``repeat`` calls of ``run``, in seconds."""
    times = []
    for _ in range(repeat):
        before()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def peak_mib(run) -> float:
    """Peak of the memory that ``run`` allocates and ``tracemalloc`` traces, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def percent(values: np.ndarray) -> np.ndarray:
    """Where ``csvio._g17`` hands a value to Python's ``%``: neither its fast path nor ``+0.0``."""
    return ~(csvio._fast(values) | csvio._zero(values))


def clear_calibrations() -> None:
    privacy._calibrate_cached.cache_clear()
    privacy._calibrate_count.cache_clear()


def ndtr_arguments(run) -> list:
    """The arrays that ``run`` passes to ``privacy.ndtr``."""
    seen, ndtr = [], privacy.ndtr
    privacy.ndtr = lambda a: seen.append(a) or ndtr(a)
    try:
        run()
    finally:
        privacy.ndtr = ndtr
    return seen


def layers(n: int, scratch: Path) -> dict:
    net, state0, partition = instance(n)
    trajectory = rn.integrate(net, state0, rn.ModelKind.SIR, DT, STEPS)
    state, spec = trajectory[STEPS], rn.PrivacySpec(epsilon0=1.0)
    pseudo = build_matrix(net, state, MatrixKind.PSEUDO_EFFECTIVE).values
    effective = build_matrix(net, state, MatrixKind.EFFECTIVE, clamp=CLAMP).values
    write_rn = functools.partial(csvio.write_rn_csv, scratch / "rn.csv", [(state.t, effective)], "effective")

    def simulate():
        blocks = rn.integrate_blocks(net, state0, rn.ModelKind.SIR, DT, STEPS)
        csvio.write_states_csv(scratch / "states.csv", blocks)

    def compute_rn_epoch():
        network_reproduction(net, state)
        matrices = ((s.t, build_matrix(net, s, MatrixKind.EFFECTIVE, clamp=CLAMP).values) for s in [state])
        csvio.write_rn_csv(scratch / "rn.csv", matrices, "effective")

    reducible = pseudo.copy()
    reducible[: n // 2, n // 2 :] = 0.0  # no edge from the second half into the first
    zero_rows = pseudo.copy()
    zero_rows[: n // 2] = 0.0  # s = 0 on the first half
    fractions = np.stack([trajectory.s, trajectory.x, trajectory.r])
    box = (np.full(partition.m, CLAMP[0]), np.full(partition.m, CLAMP[1]), np.ones(partition.m, dtype=bool))
    private = functools.partial(rn.run_pipeline, net, state, partition, spec, clamp=CLAMP)
    clear_calibrations()
    sampled = ndtr_arguments(private)
    return {
        "clusters": partition.m,
        "edge_density": SIZES[n][1],
        "integrate_step_us": best(lambda: rn.integrate(net, state0, rn.ModelKind.SIR, DT, STEPS)) / STEPS * 1e6,
        "integrate_peak_mib": peak_mib(lambda: rn.integrate(net, state0, rn.ModelKind.SIR, DT, STEPS)),
        "integrate_every_100_peak_mib": peak_mib(
            lambda: rn.integrate(net, state0, rn.ModelKind.SIR, DT, STEPS, every=RMSE_EVERY)
        ),
        "threshold_report_peak_mib": peak_mib(
            lambda: analysis.threshold_report(net, trajectory, partition, rn.ModelKind.SIR)
        ),
        "simulate_peak_mib": peak_mib(simulate),
        "compute_rn_epoch_peak_mib": peak_mib(compute_rn_epoch),
        "cluster_matrix_ms": best(lambda: cluster_matrix(net, state, partition, clamp=CLAMP)) * 1e3,
        "cluster_matrix_peak_mib": peak_mib(lambda: cluster_matrix(net, state, partition, clamp=CLAMP)),
        "run_pipeline_off_ms": best(lambda: rn.run_pipeline(net, state, partition, clamp=CLAMP)) * 1e3,
        "run_pipeline_warm_ms": best(private) * 1e3,
        "run_pipeline_cold_ms": best(private, 3, clear_calibrations) * 1e3,
        "cern_vector_ms": best(lambda: cern_vector(net, state, partition)) * 1e3,
        "spectral_radius_ms": best(lambda: spectral_radius(pseudo)) * 1e3,
        "spectral_radius_reducible_ms": best(lambda: spectral_radius(reducible)) * 1e3,
        "spectral_radius_zero_rows_ms": best(lambda: spectral_radius(zero_rows)) * 1e3,
        "write_states_ns_per_value": best(lambda: csvio.write_states_csv(scratch / "states.csv", trajectory))
        / fractions.size * 1e9,
        "write_states_fallback_share": float(np.mean(percent(fractions))),
        "write_rn_ns_per_value": best(write_rn) / effective.size * 1e9,
        "write_rn_fallback_share": float(np.mean(percent(effective))),
        "write_rn_peak_mib": peak_mib(write_rn),
        "calibrate_sigma_us": best(lambda: privacy.calibrate_sigma(1.0, 1e-5, *box)) * 1e6,
        "ndtr_ns_per_value": best(lambda: [privacy.ndtr(a) for a in sampled]) / sum(a.size for a in sampled) * 1e9,
        "rmse_sweep_ms": best(
            lambda: analysis.rmse_sweep(
                net, trajectory[::RMSE_EVERY], partition, RMSE_EPS, RMSE_TRIALS, 0, clamp=CLAMP
            )
        ) * 1e3,
        "private_moments_ms": best(lambda: analysis.private_moments(net, state, partition, spec, clamp=CLAMP)) * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="8,50,200,1000", help="comma-separated subset of 8,50,200,1000")
    args = parser.parse_args()
    sizes = [int(v) for v in args.sizes.split(",")]
    if not set(sizes) <= set(SIZES):
        parser.error(f"--sizes must be drawn from {sorted(SIZES)}")
    with tempfile.TemporaryDirectory() as scratch:
        table = {str(n): layers(n, Path(scratch)) for n in sizes}
    host = f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__}"
    print(json.dumps({"host": host, "sizes": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
