"""Command-line interface.

Subcommands read a scenario file (``--config``), honor ``--seed``, and
write CSVs into the scenario's output directory:

* ``simulate``      integrate the model and write ``states.csv``
* ``compute-rn``    entity-level RN matrices (``local_rn.csv``) and the
                    network-level series (``network_rn.csv``)
* ``cluster-rn``    cluster matrices per sampled epoch (``cluster_rn.csv``)
* ``pipeline``      the aggregation pipeline per sampled epoch; with
                    ``--no-privacy`` its ``cluster_rn.csv`` is byte-identical
                    to ``cluster-rn``'s
* ``accuracy``      RMSE sweep over a privacy-level grid
* ``report``        threshold diagnostics per node and cluster

Exit codes: 0 success, 2 configuration error, 3 numeric error, 4 privacy
calibration infeasible.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from pathlib import Path

from . import analysis, csvio, protocol, reproduction
from .exceptions import ConfigError, RepronetError
from .model import integrate
from .reproduction import MatrixKind, build_matrix, network_reproduction
from .scenario import (
    build_initial_state,
    build_network,
    build_partition,
    build_privacy_spec,
    load_scenario,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repronet")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--output-dir", default=None, help="override the output directory")

    common(sub.add_parser("simulate", help="integrate the epidemic model"))
    common(sub.add_parser("compute-rn", help="entity-level reproduction numbers"))
    common(sub.add_parser("cluster-rn", help="cluster-level reproduction matrices"))
    pipeline = sub.add_parser("pipeline", help="run the aggregation pipeline")
    common(pipeline)
    pipeline.add_argument("--no-privacy", action="store_true", help="skip the randomizer")
    pipeline.add_argument("--trace", default=None, help="write a message trace (JSON lines)")
    accuracy = sub.add_parser("accuracy", help="privacy/accuracy sweep")
    common(accuracy)
    accuracy.add_argument("--eps", default="1,2,3", help="comma-separated epsilon grid")
    accuracy.add_argument("--trials", type=int, default=100, help="pipeline runs per epoch")
    common(sub.add_parser("report", help="threshold diagnostics"))
    return parser


class _Context:
    def __init__(self, args):
        scenario = load_scenario(args.config)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        if args.output_dir is not None:
            scenario = dataclasses.replace(scenario, output_dir=args.output_dir)
        self.scenario = scenario
        self.base_dir = Path(args.config).parent
        self.out = Path(scenario.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.net = build_network(scenario, self.base_dir)
        self.state0 = build_initial_state(scenario, self.net)
        self.partition = build_partition(scenario, self.net)

    def trajectory(self, every: int = 1):
        """The states at every ``every``-th step; a sampling command keeps only those rows."""
        s = self.scenario
        return integrate(self.net, self.state0, s.model_kind, s.dt, s.steps, every=every)


def _cmd_simulate(args) -> int:
    ctx = _Context(args)
    trajectory = ctx.trajectory()
    csvio.write_states_csv(ctx.out / "states.csv", trajectory)
    final = trajectory[-1]
    print(f"simulated {len(trajectory) - 1} steps to t={final.t:g}; wrote {ctx.out / 'states.csv'}")
    print(f"final infected fraction range: [{final.x.min():.6g}, {final.x.max():.6g}]")
    return 0


def _cmd_compute_rn(args) -> int:
    ctx = _Context(args)
    scenario = ctx.scenario
    floor, clamp = scenario.infection_floor, scenario.privacy.clamp
    states = ctx.trajectory(scenario.rn_interval)
    r0 = network_reproduction(ctx.net)
    network_rows = [(state.t, network_reproduction(ctx.net, state)) for state in states]
    # built one at a time, as the writer reads them
    matrices = (
        (state.t, build_matrix(ctx.net, state, MatrixKind.EFFECTIVE, floor, clamp).values)
        for state in states
    )
    local_rn = ctx.out / "local_rn.csv"
    try:
        csvio.write_rn_csv(local_rn, matrices, "effective")
    except RepronetError:  # a failed command leaves no truncated file that reads as complete
        local_rn.unlink(missing_ok=True)
        raise
    with open(ctx.out / "network_rn.csv", "w", newline="") as fh:
        fh.write("t,r0,rt\n")
        for t, rt in network_rows:
            fh.write(f"{t:.17g},{r0:.17g},{rt:.17g}\n")
    print(f"wrote {local_rn} and {ctx.out / 'network_rn.csv'}")
    return 0


def _cmd_cluster_rn(args) -> int:
    ctx = _Context(args)
    scenario = ctx.scenario
    floor, clamp = scenario.infection_floor, scenario.privacy.clamp
    matrices = [
        (state.t, reproduction.cluster_matrix(ctx.net, state, ctx.partition, floor, clamp).values)
        for state in ctx.trajectory(scenario.rn_interval)
    ]
    csvio.write_rn_csv(ctx.out / "cluster_rn.csv", matrices, "cluster")
    print(f"wrote {ctx.out / 'cluster_rn.csv'} ({len(matrices)} epochs)")
    return 0


def _cmd_pipeline(args) -> int:
    # opened before _Context makes the output directory: an unusable path fails first
    trace = open(args.trace, "w") if args.trace else contextlib.nullcontext()
    try:
        with trace as trace_fh:
            ctx = _Context(args)
            scenario = ctx.scenario
            spec = None if args.no_privacy else build_privacy_spec(scenario, ctx.partition)
            matrices = protocol.run_pipeline(
                ctx.net,
                ctx.trajectory(scenario.rn_interval),
                ctx.partition,
                spec,
                master_seed=scenario.seed,
                epoch=scenario.sampled_epochs(),
                floor=scenario.infection_floor,
                clamp=scenario.privacy.clamp,
                trace=trace_fh,
            )
    except (RepronetError, OSError):  # an empty trace would read as a run that sent no messages
        if args.trace:
            Path(args.trace).unlink(missing_ok=True)
        raise
    kind = "cluster" if spec is None else "cluster_private"
    csvio.write_rn_csv(ctx.out / "cluster_rn.csv", ((m.t, m.values) for m in matrices), kind)
    mode = "no privacy" if spec is None else f"epsilon0={spec.epsilon0:g}"
    print(f"pipeline ({mode}) wrote {ctx.out / 'cluster_rn.csv'} ({len(matrices)} epochs)")
    return 0


def _cmd_accuracy(args) -> int:
    try:
        eps_grid = [float(v) for v in args.eps.split(",") if v.strip()]
    except ValueError:
        eps_grid = []
    if not eps_grid or not all(map(math.isfinite, eps_grid)):
        raise ConfigError(f"invalid --eps grid: {args.eps!r} (expected comma-separated finite numbers)")
    ctx = _Context(args)
    scenario = ctx.scenario
    report = analysis.rmse_sweep(
        ctx.net,
        ctx.trajectory(scenario.rn_interval),
        ctx.partition,
        eps_grid,
        trials=args.trials,
        master_seed=scenario.seed,
        delta=scenario.privacy.delta,
        k=scenario.privacy.k,
        bounds=scenario.privacy.bounds,
        clamp=scenario.privacy.clamp,
        floor=scenario.infection_floor,
    )
    csvio.write_accuracy_csv(ctx.out / "accuracy.csv", report)
    csvio.write_accuracy_summary_csv(ctx.out / "accuracy_summary.csv", report)
    for summary in report.summaries:
        if summary.feasible:
            print(
                f"eps={summary.eps:g}: rmse={summary.rmse:.6g} "
                f"({100 * summary.pct_error:.2f}% of mean exact magnitude)"
            )
        else:
            print(f"eps={summary.eps:g}: infeasible ({summary.message})")
    print(f"wrote {ctx.out / 'accuracy.csv'} and {ctx.out / 'accuracy_summary.csv'}")
    return 0


def _cmd_report(args) -> int:
    ctx = _Context(args)
    scenario = ctx.scenario
    trajectory = ctx.trajectory()
    report = analysis.threshold_report(
        ctx.net,
        trajectory,
        ctx.partition,
        scenario.model_kind,
        scenario.infection_floor,
    )
    csvio.write_threshold_csvs(
        ctx.out / "threshold_nodes.csv", ctx.out / "threshold_clusters.csv", report
    )
    print(f"wrote {ctx.out / 'threshold_nodes.csv'} and {ctx.out / 'threshold_clusters.csv'}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compute-rn": _cmd_compute_rn,
    "cluster-rn": _cmd_cluster_rn,
    "pipeline": _cmd_pipeline,
    "accuracy": _cmd_accuracy,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RepronetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)
    except OSError as exc:  # a path named on the command line or in the scenario is unusable
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
