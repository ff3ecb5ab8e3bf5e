#!/usr/bin/env python3
"""End-to-end synthetic experiment: simulate, aggregate, and sweep privacy.

Builds a 20-node SIS scenario split into 4 clusters, runs the epidemic
forward, compares the exact cluster matrix with the private pipeline over a
privacy-level grid, and prints the resulting error table.  Beside each
sweep RMSE it prints the expected one, ``sqrt(mean(var + (mean - exact)^2))``
from the closed-form moments of ``analysis.private_moments``.  All outputs
land in the chosen working directory as CSVs.
"""

import argparse
from pathlib import Path

import numpy as np

import repronet as rn
from repronet import csvio
from repronet.analysis import private_moments, rmse_sweep
from repronet.reproduction import Partition, cluster_matrix


def build_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = 20
    b = np.where(rng.random((n, n)) < 0.6, rng.uniform(0.1, 0.3, (n, n)), 0.0)
    for i in range(n):
        b[i, (i + 1) % n] = rng.uniform(0.1, 0.3)
    np.fill_diagonal(b, rng.uniform(0.1, 0.3, n))
    net = rn.TransmissionNetwork(b=b, gamma=rng.uniform(0.5, 0.8, n))
    x0 = np.full(n, 0.3)
    state0 = rn.EpidemicState(t=0.0, s=1.0 - x0, x=x0)
    partition = Partition.from_blocks([list(range(5 * q, 5 * q + 5)) for q in range(4)])
    return net, state0, partition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=707)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--eps", default="1,2,3")
    parser.add_argument("--out", default="sweep_out")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    eps_grid = [float(v) for v in args.eps.split(",")]

    net, state0, partition = build_instance(args.seed)
    trajectory = rn.integrate(net, state0, rn.ModelKind.SIS, 0.025, 320)
    csvio.write_states_csv(out / "states.csv", trajectory[::40])
    epochs = [trajectory[160], trajectory[320]]

    matrices = [(state.t, cluster_matrix(net, state, partition, clamp=(0.0, 14.0)).values) for state in epochs]
    exact, sampled = np.stack([values for _, values in matrices]), rn.Trajectory.from_states(epochs)
    csvio.write_rn_csv(out / "cluster_rn.csv", matrices, "cluster")

    report = rmse_sweep(
        net,
        epochs,
        partition,
        eps_grid,
        trials=args.trials,
        master_seed=args.seed,
        clamp=(0.0, 14.0),
    )
    csvio.write_accuracy_csv(out / "accuracy.csv", report)
    csvio.write_accuracy_summary_csv(out / "accuracy_summary.csv", report)

    print(f"{'eps':>6}  {'rmse':>10}  {'expected':>10}  {'pct_error':>9}")
    for summary in report.summaries:
        if summary.feasible:
            spec = rn.PrivacySpec(epsilon0=summary.eps)
            mean, var = private_moments(net, sampled, partition, spec, clamp=(0.0, 14.0))
            expected = np.sqrt(np.mean(var + (mean - exact) ** 2))
            print(f"{summary.eps:>6g}  {summary.rmse:>10.5f}  {expected:>10.5f}  {100 * summary.pct_error:>8.2f}%")
        else:
            print(f"{summary.eps:>6g}  infeasible: {summary.message}")
    print(f"CSVs written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
