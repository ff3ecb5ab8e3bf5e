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
fractions that its kernel hands to Python's ``%``.  ``ndtr_ns_per_value`` times
``privacy.ndtr`` on the arrays that a cold private pipeline run passes it, per
value, call overhead included: its calibrations' ``delta_c`` evaluations, as the
sampler calls ``ndtr`` only where no bound decides its branch.  ``rmse_sweep_ms``
times ``analysis.rmse_sweep`` over ``epsilon0`` in {1, 2, 3} with 50 trials on
the states after 0, 100 and 200 steps, its calibrations cached.

The ``_peak_mib`` rows are ``tracemalloc`` peaks of one call, in MiB: ``integrate``
keeping every state and keeping every 100th (as a command with ``rn_interval: 100``
does), and ``analysis.threshold_report`` on the whole trajectory.
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
from repronet.reproduction import MatrixKind, Partition, build_matrix, cern_vector, cluster_matrix, spectral_radius

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
    fractions = np.stack([trajectory.s, trajectory.x, trajectory.r])
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
        "cluster_matrix_ms": best(lambda: cluster_matrix(net, state, partition, clamp=CLAMP)) * 1e3,
        "run_pipeline_off_ms": best(lambda: rn.run_pipeline(net, state, partition, clamp=CLAMP)) * 1e3,
        "run_pipeline_warm_ms": best(private) * 1e3,
        "run_pipeline_cold_ms": best(private, 3, clear_calibrations) * 1e3,
        "cern_vector_ms": best(lambda: cern_vector(net, state, partition)) * 1e3,
        "spectral_radius_ms": best(lambda: spectral_radius(pseudo)) * 1e3,
        "write_states_ns_per_value": best(lambda: csvio.write_states_csv(scratch / "states.csv", trajectory))
        / fractions.size * 1e9,
        "write_states_fallback_share": float(1.0 - np.mean(csvio._fast(fractions))),
        "ndtr_ns_per_value": best(lambda: [privacy.ndtr(a) for a in sampled]) / sum(a.size for a in sampled) * 1e9,
        "rmse_sweep_ms": best(
            lambda: analysis.rmse_sweep(
                net, trajectory[::RMSE_EVERY], partition, RMSE_EPS, RMSE_TRIALS, 0, clamp=CLAMP
            )
        ) * 1e3,
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
