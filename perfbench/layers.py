"""Per-layer metrics of one traced round, computed from the recorded spans.

A span's self time is its duration minus the durations of its direct
children (calls are nested, so children never overlap).  Suffixes say how a
metric aggregates over the round's commands:

* ``_calls``, ``_evals``, ``_rows``, ``_steps``, ``bytes_written`` and the
  calibration counts are totals;
* ``_us`` and ``_ms`` are means per call (per RK4 step for ``step_us``);
* ``_s`` are totals over the round, except ``scenario.load_s`` and
  ``scenario.build_network_s``, which are means per command, like ``setup_s``.

A layer that made no call in the round reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# name -> unit, in the order they are printed and listed in BENCHMARK.json
METRICS = {
    "scenario.load_s": "s",
    "scenario.build_network_s": "s",
    "model.integrate_s": "s",
    "model.rk4_steps": "count",
    "model.step_us": "us",
    "reproduction.cluster_matrix_ms": "ms",
    "reproduction.cluster_matrix_calls": "count",
    "reproduction.cern_vector_ms": "ms",
    "reproduction.cern_vector_calls": "count",
    "reproduction.lern_vector_us": "us",
    "reproduction.build_matrix_ms": "ms",
    "reproduction.spectral_radius_ms": "ms",
    "reproduction.spectral_radius_calls": "count",
    "reproduction.spectral_radius_failures": "count",
    "privacy.calibrations_cold": "count",
    "privacy.calibrate_cold_ms": "ms",
    "privacy.delta_c_evals": "count",
    "privacy.calibrations_warm": "count",
    "privacy.calibrate_warm_us": "us",
    "privacy.randomize_calls": "count",
    "privacy.randomize_us": "us",
    "privacy.shuffle_us": "us",
    "seeding.stream_calls": "count",
    "seeding.stream_us": "us",
    "protocol.run_pipeline_calls": "count",
    "protocol.run_pipeline_ms": "ms",
    "protocol.run_pipeline_self_ms": "ms",
    "protocol.authority_handle_self_us": "us",
    "protocol.assemble_us": "us",
    "analysis.rmse_sweep_self_s": "s",
    "analysis.threshold_report_self_s": "s",
    "csvio.write_states_s": "s",
    "csvio.state_rows": "count",
    "csvio.write_rn_s": "s",
    "csvio.rn_rows": "count",
    "csvio.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Files written through repronet.csvio (network_rn.csv is written by the CLI).
CSVIO_FILES = (
    "states.csv",
    "local_rn.csv",
    "cluster_rn.csv",
    "accuracy.csv",
    "accuracy_summary.csv",
    "threshold_nodes.csv",
    "threshold_clusters.csv",
)


@dataclass
class _Calls:
    """Inclusive and self seconds of every span with one name."""

    total: np.ndarray
    self: np.ndarray
    failed: np.ndarray

    @property
    def count(self) -> int:
        return int(self.total.size)

    def mean(self, scale: float) -> float:
        return float(self.total.mean() * scale) if self.total.size else 0.0


def _spans_by_name(traces: list[dict]) -> tuple[dict[str, _Calls], dict[str, int], list]:
    """Group the spans of a round by name; also return counters and cold flags."""
    totals: dict[str, list] = {}
    counters: dict[str, int] = {}
    cold_flags = []
    for trace in traces:
        names = trace["names"]
        rows = np.asarray(trace["spans"], dtype=np.int64).reshape(-1, 5)
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if rows.size == 0:
            continue
        parent, index, start, end, failed = rows.T
        duration = (end - start) / 1e9
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(rows))
        own = duration - child_time
        name_of = np.asarray(names, dtype=object)[index]
        sigma_index = names.index("privacy.calibrate_sigma")
        has_sigma_child = np.zeros(len(rows), dtype=bool)
        has_sigma_child[parent[nested & (index == sigma_index)]] = True
        for name in set(name_of):
            sel = name_of == name
            entry = totals.setdefault(name, [[], [], []])
            entry[0].append(duration[sel])
            entry[1].append(own[sel])
            entry[2].append(failed[sel])
            if name == "privacy.calibrate":
                cold_flags.append(has_sigma_child[sel])
    calls = {
        name: _Calls(*(np.concatenate(part) for part in parts)) for name, parts in totals.items()
    }
    return calls, counters, cold_flags


def round_metrics(invocations, out_dirs: list[Path]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and the totals the breakdown uses.

    ``invocations`` pairs each command's Instance with its launch record.
    """
    traces = [record["trace"] for _, record in invocations if "trace" in record]
    calls, counters, cold_flags = _spans_by_name(traces)
    empty = _Calls(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64))

    def get(name: str) -> _Calls:
        return calls.get(name, empty)

    commands = max(len(invocations), 1)
    integrate = get("model.integrate")
    steps = sum(
        inst.steps * _integrate_count(record["trace"])
        for inst, record in invocations
        if "trace" in record
    )
    calibrate = get("privacy.calibrate")
    cold = np.concatenate(cold_flags) if cold_flags else np.zeros(0, dtype=bool)
    cold_time, warm_time = calibrate.total[cold], calibrate.total[~cold]
    spectral = get("reproduction.spectral_radius")
    state_rows = rn_rows = written = 0
    for directory in out_dirs:
        for name in CSVIO_FILES:
            path = directory / name
            if not path.exists():
                continue
            written += path.stat().st_size
            if name == "states.csv":
                state_rows += _count_lines(path) - 1
            elif name.endswith("_rn.csv"):
                rn_rows += _count_lines(path) - 1

    totals = {
        "cold_calibration_s": float(cold_time.sum()),
        "run_pipeline_s": float(get("protocol.run_pipeline").total.sum()),
        "privacy_calls": calibrate.count
        + get("privacy.calibrate_sigma").count
        + get("privacy.randomize").count
        + counters.get("privacy.delta_c", 0),
    }
    metrics = {
        "scenario.load_s": float(get("scenario.load").total.sum()) / commands,
        "scenario.build_network_s": float(get("scenario.build_network").total.sum()) / commands,
        "model.integrate_s": float(integrate.total.sum()),
        "model.rk4_steps": steps,
        "model.step_us": float(integrate.total.sum()) / steps * 1e6 if steps else 0.0,
        "reproduction.cluster_matrix_ms": get("reproduction.cluster_matrix").mean(1e3),
        "reproduction.cluster_matrix_calls": get("reproduction.cluster_matrix").count,
        "reproduction.cern_vector_ms": get("reproduction.cern_vector").mean(1e3),
        "reproduction.cern_vector_calls": get("reproduction.cern_vector").count,
        "reproduction.lern_vector_us": get("reproduction.lern_vector").mean(1e6),
        "reproduction.build_matrix_ms": get("reproduction.build_matrix").mean(1e3),
        "reproduction.spectral_radius_ms": spectral.mean(1e3),
        "reproduction.spectral_radius_calls": spectral.count,
        "reproduction.spectral_radius_failures": int(spectral.failed.sum()),
        "privacy.calibrations_cold": int(cold_time.size),
        "privacy.calibrate_cold_ms": float(cold_time.mean() * 1e3) if cold_time.size else 0.0,
        "privacy.delta_c_evals": counters.get("privacy.delta_c", 0),
        "privacy.calibrations_warm": int(warm_time.size),
        "privacy.calibrate_warm_us": float(warm_time.mean() * 1e6) if warm_time.size else 0.0,
        "privacy.randomize_calls": get("privacy.randomize").count,
        "privacy.randomize_us": get("privacy.randomize").mean(1e6),
        "privacy.shuffle_us": get("privacy.shuffle").mean(1e6),
        "seeding.stream_calls": get("seeding.stream").count,
        "seeding.stream_us": get("seeding.stream").mean(1e6),
        "protocol.run_pipeline_calls": get("protocol.run_pipeline").count,
        "protocol.run_pipeline_ms": get("protocol.run_pipeline").mean(1e3),
        "protocol.run_pipeline_self_ms": _mean_self(get("protocol.run_pipeline"), 1e3),
        "protocol.authority_handle_self_us": _mean_self(get("protocol.authority_handle"), 1e6),
        "protocol.assemble_us": get("protocol.assemble").mean(1e6),
        "analysis.rmse_sweep_self_s": float(get("analysis.rmse_sweep").self.sum()),
        "analysis.threshold_report_self_s": float(get("analysis.threshold_report").self.sum()),
        "csvio.write_states_s": float(get("csvio.write_states").total.sum()),
        "csvio.state_rows": state_rows,
        "csvio.write_rn_s": float(get("csvio.write_rn").total.sum()),
        "csvio.rn_rows": rn_rows,
        "csvio.bytes_written": written,
        "cli.self_s": float(get("cli.main").self.sum()),
    }
    return metrics, totals


def _integrate_count(trace: dict) -> int:
    index = trace["names"].index("model.integrate")
    return sum(1 for row in trace["spans"] if row[1] == index and not row[4])


def _mean_self(calls: _Calls, scale: float) -> float:
    return float(calls.self.mean() * scale) if calls.count else 0.0


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
