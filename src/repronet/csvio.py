"""CSV reading and writing for matrices, trajectories and RN series, in these formats:

* matrix CSV: header ``j1,...,jn``, one row per source row i;
* state CSV: columns ``t,node,s,x,r``, one row per (time, node);
* rn CSV: columns ``t,i,j,value,kind``.

Rows end in ``\\r\\n``, as ``csv.writer`` ends them (the CLI writes ``network_rn.csv``
itself, with ``\\n``), and floats are written as ``%.17g``, so a write/read round
trip is bit-exact.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import AccuracyReport, ThresholdReport
from .exceptions import ConfigError
from .model import EpidemicState, Trajectory

__all__ = [
    "write_matrix_csv",
    "read_matrix_csv",
    "write_states_csv",
    "read_states_csv",
    "write_rn_csv",
    "read_rn_csv",
    "write_accuracy_csv",
    "write_accuracy_summary_csv",
    "write_threshold_csvs",
]


def _parse_float(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ConfigError(f"{where}: non-numeric cell {cell!r}") from None


def _parse_int(cell: str, where: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ConfigError(f"{where}: non-integer cell {cell!r}") from None


def _data_rows(path, kind: str, header: list[str] | None = None):
    """``(where, cells)`` of each row after the header of the ``kind`` CSV at ``path``.

    The header must equal ``header`` when one is given; every row must have as
    many cells as the header.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{kind} file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None and header is None:
            raise ConfigError(f"{path}: empty {kind} file")
        if header is not None and first != header:
            raise ConfigError(f"{path}: expected header {','.join(header)}, got {first}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(first):
                raise ConfigError(f"{path}:{lineno}: ragged row ({len(row)} cells, expected {len(first)})")
            yield f"{path}:{lineno}", row


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"j{j + 1}" for j in range(n)])
        for row in matrix:
            writer.writerow(["%.17g" % v for v in row])


def read_matrix_csv(path) -> np.ndarray:
    rows = [np.fromiter((_parse_float(cell, where) for cell in row), float, len(row))
            for where, row in _data_rows(path, "matrix")]
    if not rows:
        raise ConfigError(f"{path}: matrix file has a header but no rows")
    return np.stack(rows)


def write_states_csv(path, states: Sequence[EpidemicState]) -> None:
    trajectory = Trajectory.from_states(states)
    template = "".join(f"%s,{i},%.17g,%.17g,%.17g\r\n" for i in range(trajectory.n))
    cells = [None] * (4 * trajectory.n)  # t, s, x, r of node 0, then of node 1, ...
    with open(path, "w", newline="") as fh:
        fh.write("t,node,s,x,r\r\n")
        for t, s, x, r in zip(trajectory.t.tolist(), trajectory.s, trajectory.x, trajectory.r):
            cells[0::4] = ["%.17g" % t] * len(s)
            cells[1::4], cells[2::4], cells[3::4] = s.tolist(), x.tolist(), r.tolist()
            fh.write(template % tuple(cells))


def read_states_csv(path) -> Trajectory:
    """Read a state CSV; every time must list the same nodes 0..n-1, each once."""
    times, nodes, values = [], [], []
    for where, row in _data_rows(path, "state", ["t", "node", "s", "x", "r"]):
        times.append(_parse_float(row[0], where))
        nodes.append(_parse_int(row[1], where))
        values.append([_parse_float(cell, where) for cell in row[2:]])
        for value in values[-1]:
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{where}: fraction {value} outside [0, 1]")
    if not times:
        raise ConfigError(f"{path}: state file contains no rows")
    # samples in the order their times first appear
    distinct, first, inverse = np.unique(times, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    t, sample = distinct[appearance], np.argsort(appearance)[inverse]
    counts = np.bincount(sample)
    n = int(counts[0])
    if np.any(counts != n):
        k = int(np.argmax(counts != n))
        raise ConfigError(f"{path}: {counts[k]} nodes at t={t[k]}, but {n} at t={t[0]}")
    order = np.lexsort((nodes, sample))  # valid rows sort to nodes 0..n-1 at every time
    misplaced = np.array(nodes)[order] != np.tile(np.arange(n), len(t))
    if np.any(misplaced):
        k = sample[order][np.argmax(misplaced)]
        raise ConfigError(f"{path}: nodes at t={t[k]} must be exactly 0..{n - 1}, each once")
    fractions = np.array(values)[order].T.reshape(3, len(t), n)
    return Trajectory(t, *fractions)


def write_rn_csv(path, records: Iterable[tuple]) -> None:
    """Write (t, i, j, value, kind) records: integer i, j, and a kind ``csv.writer`` leaves as is."""
    records = iter(records)
    with open(path, "w", newline="") as fh:
        fh.write("t,i,j,value,kind\r\n")
        while chunk := list(itertools.islice(records, 8192)):
            cells = list(itertools.chain.from_iterable(chunk))
            for kind in set(cells[4::5]):
                csv.writer(line := io.StringIO()).writerow(["", kind])
                if line.getvalue() != f",{kind}\r\n":
                    raise ConfigError(f"rn kind {kind!r} is not plain CSV text")
            fh.write("%.17g,%d,%d,%.17g,%s\r\n" * len(chunk) % tuple(cells))


def read_rn_csv(path) -> list[tuple[float, int, int, float, str]]:
    return [
        (_parse_float(t, where), _parse_int(i, where), _parse_int(j, where), _parse_float(v, where), kind)
        for where, (t, i, j, v, kind) in _data_rows(path, "rn", ["t", "i", "j", "value", "kind"])
    ]


def _cells(record, skip=()) -> list:
    """A record's fields as CSV cells: floats in full precision, flags as 0/1."""
    fields = [f for f in dataclasses.fields(record) if f.name not in skip]
    values = [getattr(record, f.name) for f in fields]
    return [int(v) if isinstance(v, bool) else "%.17g" % v if isinstance(v, float) else v for v in values]


def write_accuracy_csv(path, report: AccuracyReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "eps", "q", "r", "exact", "mean_private", "var_private", "rmse", "pct_error"]
        )
        writer.writerows(_cells(e, skip=("t",)) for e in report.entries)


def write_accuracy_summary_csv(path, report: AccuracyReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "feasible", "rmse", "pct_error", "trials", "message"])
        writer.writerows(_cells(s) for s in report.summaries)


def write_threshold_csvs(node_path, cluster_path, report: ThresholdReport) -> None:
    for path, rows, key in ((node_path, report.nodes, "node"), (cluster_path, report.clusters, "cluster")):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([key, "first_crossing_t", "peak_t", "agreement_rate", "samples"])
            writer.writerows(["" if v is None else v for v in _cells(row)] for row in rows)
