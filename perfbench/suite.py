#!/usr/bin/env python3
"""Run every workload, once or as two sets of runs to measure steadiness.

    python3 perfbench/suite.py                       # one run per workload
    python3 perfbench/suite.py --trace 1             # the traced breakdown
    python3 perfbench/suite.py --sets 2 --runs 10    # steadiness

Run it from the root of a source checkout.  Each run is
``perfbench/run.py`` in its own process with the settings of
BENCHMARK.json; run i of every set uses the i-th seed, so the sets see the
same inputs.  For each workload and end-to-end metric it prints each set's
median and quartiles, the spread (distance between the quartiles over the
median), and whether the two sets agree: each set's spread within the
metric's bound, and the two medians apart by at most the bound, in either
direction.  The per-command times of the report are summarised the same
way.  It also checks that every run of one seed wrote byte-identical files
and that each set failed the same share of operations.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (11, 707, 5, 1, 2, 3, 4, 6, 8, 9, 10, 12)
# lines of run.py's report: per-command medians and output digests
COMMAND_LINE = re.compile(r"^\s+(\w+_s)\s+([0-9.]+) s\s+\(median")
OUTPUT_LINE = re.compile(r"^\s+output ([0-9a-f]+) (\S+)$")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    result["commands"] = {m[1]: float(m[2]) for m in map(COMMAND_LINE.match, lines) if m}
    result["outputs"] = {m[2]: m[1] for m in map(OUTPUT_LINE.match, lines) if m}
    return result


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1, choices=range(1, len(SEEDS) + 1),
                        metavar=f"1..{len(SEEDS)}", help="runs per workload and set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seeds = SEEDS[: args.runs]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    results: dict = {name: [[] for _ in range(args.sets)] for name in names}
    for k in range(args.sets):
        for seed in seeds:
            for name in names:
                started = time.monotonic()
                result = _run(name, seed, bench["run_seconds"], args.trace)
                result["took_s"] = time.monotonic() - started
                result["seed"] = seed
                results[name][k].append(result)
                if args.sets == 1 and args.runs == 1:
                    print("\n".join(result["report"]))
                print(f"set {k + 1} {name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} took={result['took_s']:.1f}s "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
                      flush=True)

    steady = True
    for name in names:
        sets = results[name]
        print(f"\n{name}")
        for metric in metrics:
            rows = [[r["metrics"][metric["name"]]["value"] for r in runs] for runs in sets]
            stats = [_summary(values) for values in rows]
            line = f"  {metric['name']:<36}" + "  ".join(
                f"set{k + 1} {m:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                for k, (m, q1, q3, sp) in enumerate(stats)
            )
            if "bound" in metric and len(stats) == 2:
                moved = (stats[1][0] - stats[0][0]) / stats[0][0]
                agree = abs(moved) <= metric["bound"]
                inside = all(sp <= metric["bound"] for _, _, _, sp in stats)
                steady &= agree and inside
                line += f"  moved {moved:+.3f} (bound {metric['bound']}) {'ok' if agree and inside else 'NOT STEADY'}"
            print(line + f" {metric['unit']}")
        for command in sorted({c for runs in sets for r in runs for c in r["commands"]}):
            rows = [[r["commands"][command] for r in runs if command in r["commands"]] for runs in sets]
            print(f"  {command:<36}" + "  ".join(
                "set{} {:.5g} [{:.5g}, {:.5g}] spread {:.3f}".format(k + 1, *_summary(values))
                for k, values in enumerate(rows) if values) + " s")
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        share_set = {f / a for f, a in shares}
        identical = all(
            len({json.dumps(r["outputs"], sort_keys=True) for runs in sets for r in runs if r["seed"] == seed}) == 1
            for seed in seeds
        )
        correct = all(r["correct"] for runs in sets for r in runs)
        steady &= len(share_set) == 1 and identical and correct
        print(f"  failed share {sorted(share_set)}; outputs byte-identical across runs of a seed: "
              f"{identical}; all correct: {correct}")
    if args.sets == 2:
        print(f"\n{'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
