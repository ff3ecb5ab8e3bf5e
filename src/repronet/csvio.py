"""CSV reading and writing for matrices, trajectories and RN series, in these formats:

* matrix CSV: header ``j1,...,jn``, one row per source row i;
* state CSV: columns ``t,node,s,x,r``, one row per (time, node);
* rn CSV: columns ``t,i,j,value,kind``.

Rows end in ``\\r\\n``, as ``csv.writer`` ends them (the CLI writes ``network_rn.csv``
itself, with ``\\n``), and floats are written as ``%.17g``, so a write/read round
trip is bit-exact.

The state and rn writers take arrays and share one row writer, ``_write_rows``, which
joins blocks of NUL-padded numpy cells.  Their floats go through ``_g17``, which writes
the same bytes as Python's ``%``.  A finite ``v`` in ``[1e-4, 1)`` takes an exact fast path:

* its decimal exponent ``X`` in ``-1..-4`` comes from three comparisons, exact
  because ``fl(10**-k)`` lies above ``10**-k`` for ``k = 1..4``;
* ``v * 10**p`` with ``p = 16 - X`` (``10**p`` is exact in binary64 for ``p <= 22``)
  is Dekker's two-product ``prod + err`` without rounding.  ``prod >= 2**53`` is an
  integer, so the 17 digits ``D`` are ``prod + floor(err)``, rounded half-even on the
  remainder.  ``D`` cannot round up to ``10**17``: the nearest double below a power
  of ten lies further from it than half a unit of the 17th digit;
* the digits are five table lookups, of ``"0."``, the leading zeros and the first
  digit, then of four four-digit groups.  A group whose right-hand groups are all
  zero is looked up in a copy of the table without trailing zeros.

Every other value (zeros, ``t >= 1``, tiny values, negatives, inf and NaN) is
formatted by ``%``, batched into one array.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import AccuracyReport, ClusterThreshold, EntryAccuracy, EpsilonSummary, NodeThreshold, ThresholdReport
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"j{j + 1}" for j in range(matrix.shape[1])])
        writer.writerows(["%.17g" % v for v in row] for row in matrix.tolist())


def read_matrix_csv(path) -> np.ndarray:
    """A matrix CSV's values, each cell as ``float`` reads it.  A plain file goes through
    ``np.loadtxt`` (``_plain_matrix``); any other is read cell by cell, which raises the errors."""
    values = _plain_matrix(path)
    if values is not None:
        return values
    rows = [np.fromiter((_parse_float(cell, where) for cell in row), float, len(row))
            for where, row in _data_rows(path, "matrix")]
    if not rows:
        raise ConfigError(f"{path}: matrix file has a header but no rows")
    return np.stack(rows)


# Every byte of a plain matrix file's rows.  Cells of these bytes that ``np.loadtxt``
# accepts, ``float`` accepts too and reads as the same double; outside them the two
# differ (``1_0``, non-ASCII digits, the separators \x1c-\x1f).
_PLAIN = b"0123456789.eE+- \t\n,nNaAiIfFtTyY"


def _plain_matrix(path) -> np.ndarray | None:
    """``np.loadtxt``'s reading of a matrix file whose rows are ``_PLAIN`` bytes, none blank,
    under an unquoted header of their width: where the cell parser reads such a file, it
    reads the same values.  ``None`` for any other file, and wherever loadtxt fails."""
    try:
        with open(path, newline="") as fh:  # lines end as csv.reader ends them
            header, body = fh.readline().rstrip("\r\n"), fh.read()
    except (OSError, ValueError):
        return None
    if "\r" in body:
        body = body.replace("\r\n", "\n")
    plain = header and body and body.isascii() and not body.encode().translate(None, _PLAIN)
    if not plain or '"' in header:
        return None
    lines = body.split("\n")
    if not lines[-1]:
        lines.pop()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lines it skips, blank ones say, show in the shape
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(lines), header.count(",") + 1) else None


_CELL = 24  # bytes of the longest %.17g cell, "-4.9406564584124654e-324"
_BLOCK_ROWS = 4096  # larger blocks lift simulate's peak memory above report's


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Four-digit groups as uint32 words of ASCII, untrimmed then trimmed, and the
    8-byte words ``"0."``, ``k`` zeros and a digit ``d`` at ``10 * k + d``; NUL pads both."""
    groups = np.empty((2, 10, 10, 10, 10, 4), np.uint8)  # groups[:, a, b, c, d] spells "abcd"
    for k in range(4):  # slices, no arithmetic: every command that writes a float builds the tables
        groups[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
        groups[(1,) + (slice(None),) * k + (0,) * (4 - k) + (k,)] = 0  # trimmed: no 0 followed by 0s only
    prefix = np.zeros((4, 10, 8), np.uint8)
    prefix[:, :, :2] = np.frombuffer(b"0.", np.uint8)
    for k in range(4):
        prefix[k, :, 2:2 + k] = ord("0")
        prefix[k, :, 2 + k] = np.arange(10) + ord("0")
    return groups.view(np.uint32).ravel(), prefix.view(np.uint64).ravel()


_SCALE = np.array([1e17, 1e18, 1e19, 1e20])  # 10**p, p = 16 - X, at index -X - 1


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``prod, err`` with ``prod + err == a * b`` exactly (Dekker; needs no FMA)."""
    prod = a * b
    c = 134217729.0 * a  # 2**27 + 1 splits a double into two 26-bit halves
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return prod, ((ah * bh - prod) + ah * bl + al * bh) + al * bl


def _fast(v: np.ndarray) -> np.ndarray:
    """Where ``_g17`` formats a value itself: finite values in ``[1e-4, 1)``."""
    return (v >= 1e-4) & (v < 1.0)


def _g17(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` of each value, as ``_CELL`` bytes padded with NULs anywhere."""
    groups, prefix = _digit_tables()
    v = np.asarray(values, dtype=float)
    fast = _fast(v)
    w = np.where(fast, v, 0.5)
    k = 3 - (w >= 1e-3).astype(np.intp) - (w >= 1e-2) - (w >= 1e-1)  # zeros after "0."
    prod, err = _two_product(w, _SCALE[k])
    floor = np.floor(err)
    d = prod.astype(np.int64) + floor.astype(np.int64)
    d += (err > floor + 0.5) | ((err == floor + 0.5) & (d % 2 == 1))
    hi, lo = np.divmod(d, 100_000_000)
    first, rest = np.divmod(hi, 100_000_000)
    g1, g2 = np.divmod(rest, 10_000)
    g3, g4 = np.divmod(lo, 10_000)
    out = np.empty(v.shape + (_CELL,), np.uint8)
    out.view(np.uint64)[..., 0] = prefix[10 * k + first]
    words = out.view(np.uint32)
    words[..., 2] = groups[g1 + 10_000 * ((g2 == 0) & (lo == 0))]
    words[..., 3] = groups[g2 + 10_000 * (lo == 0)]
    words[..., 4] = groups[g3 + 10_000 * (g4 == 0)]
    words[..., 5] = groups[g4 + 10_000]
    if not fast.all():
        slow = [b"%.17g" % x for x in v[~fast].tolist()]
        out[~fast] = np.array(slow, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return out


def _write_rows(fh, *fields: np.ndarray) -> None:
    """Write a row per element of the fields' broadcast shape, the last axis aside: their NUL-padded
    cells, held on that axis, joined by ``,`` and ended by ``\\r\\n``, without the NULs."""
    ends = np.cumsum([cells.shape[-1] + 1 for cells in fields])
    buf = np.zeros(np.broadcast_shapes(*(cells.shape[:-1] for cells in fields)) + (ends[-1] + 1,), np.uint8)
    for cells, end in zip(fields, ends):
        buf[..., end - 1 - cells.shape[-1]:end - 1] = cells
        buf[..., end - 1] = ord(",")
    buf[..., -2:] = np.frombuffer(b"\r\n", np.uint8)
    fh.write(buf[buf != 0])


def _int_cells(n: int) -> np.ndarray:
    """``b"%d" % i`` of ``i = 0..n-1``, as NUL-padded cells as wide as ``n``'s."""
    return np.array([b"%d" % i for i in range(n)], f"S{len(str(n))}").view(np.uint8).reshape(-1, len(str(n)))


def write_states_csv(path, states: Sequence[EpidemicState]) -> None:
    trajectory = Trajectory.from_states(states)
    per_block, nodes = max(1, _BLOCK_ROWS // max(trajectory.n, 1)), _int_cells(trajectory.n)
    with open(path, "wb") as fh:
        fh.write(b"t,node,s,x,r\r\n")
        for start in range(0, len(trajectory), per_block):
            rows = slice(start, start + per_block)
            fractions = (_g17(values[rows]) for values in (trajectory.s, trajectory.x, trajectory.r))
            _write_rows(fh, _g17(trajectory.t[rows])[:, None], nodes, *fractions)


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


def write_rn_csv(path, matrices, kind: str) -> None:
    """Write rows ``t, i, j, values[i, j], kind`` of each ``(t, values)`` pair of a float and a 2-D array, read
    as the blocks need them.  ``kind`` must be text that ``csv.writer`` writes as is, without a NUL."""
    if not isinstance(kind, str) or any(c in kind for c in ',"\r\n\0'):
        raise ConfigError(f"rn kind {kind!r} is not plain CSV text")
    kind_cell = np.frombuffer(kind.encode(), np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"t,i,j,value,kind\r\n")
        # a block is rows of one matrix, or whole matrices of one shape, so small ones share its numpy calls
        for (rows, cols), group in itertools.groupby(matrices, lambda pair: pair[1].shape):
            index, per_block = _int_cells(max(rows, cols)), max(1, _BLOCK_ROWS // max(cols, 1))
            while batch := list(itertools.islice(group, max(1, per_block // max(rows, 1)))):
                t_cells = _g17(np.array([t for t, _ in batch]))[:, None, None]
                for start in range(0, rows, per_block):
                    block = _g17(np.stack([values[start:start + per_block] for _, values in batch]))
                    _write_rows(fh, t_cells, index[start:start + block.shape[1], None], index[:cols], block, kind_cell)


def read_rn_csv(path) -> list[tuple[float, int, int, float, str]]:
    return [
        (_parse_float(t, where), _parse_int(i, where), _parse_int(j, where), _parse_float(v, where), kind)
        for where, (t, i, j, v, kind) in _data_rows(path, "rn", ["t", "i", "j", "value", "kind"])
    ]


def _write_records(path, record_type: type, records, skip=()) -> None:
    """Write dataclass ``records`` under a header of their type's fields: floats as ``%.17g``, flags as 0/1."""
    names = [f.name for f in dataclasses.fields(record_type) if f.name not in skip]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for record in records:
            values = [getattr(record, name) for name in names]
            writer.writerow([int(v) if isinstance(v, bool) else "%.17g" % v if isinstance(v, float) else v
                             for v in values])


def write_accuracy_csv(path, report: AccuracyReport) -> None:
    _write_records(path, EntryAccuracy, report.entries, skip=("t",))


def write_accuracy_summary_csv(path, report: AccuracyReport) -> None:
    _write_records(path, EpsilonSummary, report.summaries)


def write_threshold_csvs(node_path, cluster_path, report: ThresholdReport) -> None:
    _write_records(node_path, NodeThreshold, report.nodes)
    _write_records(cluster_path, ClusterThreshold, report.clusters)
