#!/usr/bin/env python3
"""End-to-end benchmark of the repronet CLI on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: every command runs the package
under ``src/`` in a fresh interpreter (``perfbench/launch.py``), one at a
time, with BLAS pinned to one thread, so each starts with an empty privacy
calibration cache as every CLI user does.  A round runs the workload's
commands once; rounds repeat while the next one is expected to end within
``--seconds`` (at least one untraced round, and with ``--trace 1`` one traced
round after it).  The first round's outputs are checked against independent
reference computations (``checks.py``) after the timed rounds, and every
later round must write byte-identical files.

With ``--trace 0`` the last line holds the end-to-end metrics:

* ``setup_s``: median time from starting an interpreter until the command's
  set-up is done (importing repronet, loading the scenario, building the
  network, initial state and partition), over every untraced command of the
  run;
* ``command_s``: median over rounds of the round's time after set-up,
  summed over the commands that succeeded;
* ``peak_rss_mib``: the largest peak resident set of any command.

With ``--trace 1`` a first untraced round is followed by traced rounds, and
the last line holds the per-layer metrics of ``layers.py`` (medians over
traced rounds) plus ``trace.overhead_s``, the traced minus the untraced
round time.  The lines before the last are a readable report: per-command
times, failures with their exit codes and last error lines, output digests
and check results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Command

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mib": "MiB"}
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Invocation:
    command: Command
    code: int
    setup_s: float | None
    work_s: float | None
    error: str
    record: dict
    out: Path

    @property
    def failure(self) -> str | None:
        if self.code != 0:
            return f"exit code {self.code}: {self.error}"
        return self.error or None


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def _invoke(command, run_dir, tag, env, trace_id=None, sigmas=None) -> Invocation:
    base = run_dir / tag
    base.mkdir(parents=True, exist_ok=True)
    out = base / command.label
    record_path = base / f"{command.label}.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(record_path)]
    if trace_id is not None:
        argv += ["--trace", trace_id]
    if sigmas is not None:
        argv += ["--sigmas", str(sigmas)]
    scenario = run_dir / command.instance.name / "scenario.yaml"
    argv += ["--", command.label, *command.args, "--config", str(scenario), "--output-dir", str(out)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = -9, f"timed out after {COMMAND_TIMEOUT_S} s"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    lines = [line for line in stderr.splitlines() if line.strip()]
    setup = record["setup_done"] - start if "setup_done" in record else None
    work = record["done"] - record["setup_done"] if code == 0 and setup is not None else None
    error = (lines[-1] if lines else "") if code != 0 else ""
    return Invocation(command, code, setup, work, error, record, out)


def _compare_outputs(invocations) -> None:
    """Fail a command whose files differ from those of its ``identical_to``."""
    by_label = {inv.command.label: inv for inv in invocations}
    for inv in invocations:
        other = by_label.get(inv.command.identical_to)
        if other is None or inv.code != 0:
            continue
        for path in sorted(other.out.glob("*.csv")):
            mine = inv.out / path.name
            if not mine.exists():
                inv.error = f"{path.name} missing"
                break
            a, b = path.read_text().splitlines(), mine.read_text().splitlines()
            differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            if differ:
                inv.error = (f"{path.name} differs from {other.command.label}'s "
                             f"in {differ} of {len(a)} lines")
                break


def _digests(invocations) -> dict:
    out = {}
    for inv in invocations:
        if inv.out.is_dir():
            for path in sorted(inv.out.iterdir()):
                out[f"{inv.command.label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _check(workload: str, commands, invocations) -> list:
    outs = {inv.command.label: inv.out for inv in invocations}
    codes = {inv.command.label: inv.code for inv in invocations}
    sigmas = {inv.command.label: inv.record["sigmas"] for inv in invocations if "sigmas" in inv.record}
    try:
        return checks.CHECKS[workload](commands, outs, codes, sigmas)
    except Exception as exc:  # a missing or malformed output fails the checks
        return [("outputs readable", False, f"{type(exc).__name__}: {exc}")]


def _command_time(invocations) -> float:
    """A round's time after set-up over its timed commands that ran to the end."""
    return sum(inv.work_s for inv in invocations if inv.command.timed and inv.code == 0)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repronet" / "cli.py").is_file():
        print(f"error: no repronet sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    commands = workload.build(args.seed)
    run_dir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    for inst in {c.instance.name: c.instance for c in commands}.values():
        inst.write(run_dir / inst.name)
    for cmd in commands:
        if cmd.sigma_eps:
            (run_dir / f"{cmd.label}-sigmas.json").write_text(json.dumps(checks.sigma_queries(cmd)))
    env = _environment(root)

    try:
        return _run(args, workload, commands, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, workload, commands, run_dir, env) -> int:
    rounds: list[tuple[bool, list[Invocation]]] = []
    layer_rounds, breakdown = [], None
    results, reference_digests, mismatches = [], None, []
    start = time.monotonic()
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k > 0
        round_start = time.monotonic()
        invocations = [
            _invoke(
                cmd, run_dir, f"round{k}", env,
                trace_id=f"{workload.name}/{args.seed}/round{k}/{cmd.label}" if traced else None,
                sigmas=run_dir / f"{cmd.label}-sigmas.json" if k == 0 and cmd.sigma_eps else None,
            )
            for cmd in commands
        ]
        round_s = time.monotonic() - round_start
        _compare_outputs(invocations)
        rounds.append((traced, invocations))
        digests = _digests(invocations)
        if reference_digests is None:
            reference_digests = digests
        elif digests != reference_digests:
            mismatches.append(k)
        if traced:
            metrics, totals = layers.round_metrics(
                [(inv.command.instance, inv.record) for inv in invocations], [inv.out for inv in invocations]
            )
            layer_rounds.append(metrics)
            breakdown = breakdown or (totals, _command_time(invocations))
        if k > 0:  # round 0's outputs are checked after the timed rounds
            shutil.rmtree(run_dir / f"round{k}", ignore_errors=True)
        # another round only if it is expected to end within --seconds
        if time.monotonic() - start + round_s > args.seconds and (not args.trace or layer_rounds):
            break
    results = _check(workload.name, commands, rounds[0][1])

    all_invocations = [inv for _, invs in rounds for inv in invs]
    attempted = len(all_invocations)
    failed = sum(1 for inv in all_invocations if inv.failure)
    untraced_work = [_command_time(invs) for traced, invs in rounds if not traced]
    correct = all(passed for _, passed, _ in results) and not mismatches

    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} commands attempted, {failed} failed")
    failures: dict[tuple, int] = {}
    for inv in all_invocations:
        if inv.failure:
            key = (inv.command.label, inv.failure)
            failures[key] = failures.get(key, 0) + 1
    for (label, failure), count in failures.items():
        print(f"  failed: {label} x{count}, {failure}")
    for label in dict.fromkeys(c.label for c in commands):
        times = [inv.work_s for traced, invs in rounds if not traced for inv in invs
                 if inv.command.label == label and inv.code == 0]
        name = label.replace("-", "_") + "_s"
        if times:
            lo, hi = _quartiles(times)
            print(f"  {name:<14} {statistics.median(times):9.4f} s  (median of {len(times)}, quartiles {lo:.4f}..{hi:.4f})")
        else:
            print(f"  {name:<14}        -    (no successful run)")
    for name, passed, detail in results:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if mismatches:
        print(f"  check FAIL rounds {mismatches} wrote different bytes than round 0")
    for name, digest in (reference_digests or {}).items():
        print(f"  output {digest[:16]} {name}")

    if args.trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds) for name in layer_rounds[0]}
        traced_work = [_command_time(invs) for traced, invs in rounds if traced]
        metrics["trace.overhead_s"] = statistics.median(traced_work) - statistics.median(untraced_work)
        units = layers.METRICS
        totals, work = breakdown
        print(f"  breakdown of the first traced round: cold calibration {totals['cold_calibration_s']:.3f} s "
              f"({100 * totals['cold_calibration_s'] / work:.1f}%), run_pipeline {totals['run_pipeline_s']:.3f} s "
              f"({100 * totals['run_pipeline_s'] / work:.1f}%) of {work:.3f} s after set-up; "
              f"calibrate/randomize/delta_c calls {totals['privacy_calls']}")
    else:
        setup_samples = [inv.setup_s for traced, invs in rounds if not traced
                         for inv in invs if inv.setup_s is not None]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "command_s": statistics.median(untraced_work),
            "peak_rss_mib": max(inv.record["peak_rss_kib"] for inv in all_invocations if "peak_rss_kib" in inv.record) / 1024.0,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<38} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
