import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet import csvio
from repronet.exceptions import ConfigError


def test_matrix_round_trip_bitwise(tmp_path, rng):
    matrix = rng.uniform(0.0, 1.0, (5, 5))
    path = tmp_path / "b.csv"
    csvio.write_matrix_csv(path, matrix)
    back = csvio.read_matrix_csv(path)
    np.testing.assert_array_equal(back, matrix)


def test_matrix_header_names(tmp_path):
    path = tmp_path / "b.csv"
    csvio.write_matrix_csv(path, np.eye(3))
    assert path.read_text().splitlines()[0] == "j1,j2,j3"


def test_matrix_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("j1,j2\n0.1,0.2\n0.3\n")
    with pytest.raises(ConfigError, match="ragged"):
        csvio.read_matrix_csv(path)
    path.write_text("j1,j2\n0.1,zebra\n")
    with pytest.raises(ConfigError, match="non-numeric"):
        csvio.read_matrix_csv(path)
    path.write_text("j1,j2\n")
    with pytest.raises(ConfigError, match="no rows"):
        csvio.read_matrix_csv(path)
    with pytest.raises(ConfigError, match="not found"):
        csvio.read_matrix_csv(tmp_path / "missing.csv")


def _read_outcome(read, path):
    """``read(path)``'s shape and bits, or the type and message of its package error."""
    try:
        values = read(path)
    except ConfigError as exc:
        return type(exc), str(exc)
    return values.shape, [v.hex() for v in values.ravel().tolist()]


# (file text, whether np.loadtxt reads it): every case reads as csv.reader and float read it
MATRIX_FILES = {
    "plain": ("j1,j2\n0.1,0.2\n0.3,0.4\n", True),
    "crlf": ("j1,j2\r\n0.1,0.2\r\n0.3,0.4\r\n", True),
    "no final newline": ("j1,j2\n0.1,0.2\n0.3,0.4", True),
    "one cell": ("j1\n0.5\n", True),
    "surrounding spaces": ("j1,j2\n 0.1 ,\t0.2\n", True),
    "nan and inf": ("j1,j2,j3,j4\nnan,inf,-Infinity,+NaN\n", True),
    "subnormal and overflow": ("j1,j2,j3\n5e-324,1e-400,1e400\n", True),
    "underscore": ("j1,j2\n1_0,0.2\n", False),
    "quoted cells": ('j1,j2\n"0.1",0.2\n', False),
    "quoted header": ('"j1,j2",j3\n0.1,0.2\n', False),
    "quoted header, split as wide as the rows": ('"j1,j2",j3\n0.1,0.2,0.3\n', False),
    "non-ascii digits": ("j1\n\u0661\u0662\n", False),
    "file separator": ("j1,j2\n\x1c0.1,0.2\n", False),
    "lone cr": ("j1,j2\r0.1,0.2\r", False),
    "blank line": ("j1,j2\n0.1,0.2\n\n0.3,0.4\n", False),
    "blank line after header": ("j1,j2\n\n0.1,0.2\n", False),
    "blank line at end": ("j1,j2\n0.1,0.2\n\n", False),
    "blank header": ("\n0.1,0.2\n", False),
    "spaces-only line": ("j1\n0.5\n  \n", False),
    "trailing comma": ("j1,j2\n0.1,0.2,\n", False),
    "empty cell": ("j1,j2,j3\n0.1,,0.2\n", False),
    "header wider than rows": ("j1,j2,j3\n0.1,0.2\n0.3,0.4\n", False),
    "header narrower than rows": ("j1\n0.1,0.2\n", False),
    "ragged rows": ("j1,j2\n0.1,0.2\n0.3\n", False),
    "non-numeric": ("j1,j2\n0.1,zebra\n", False),
    "header only": ("j1,j2\n", False),
    "empty": ("", False),
}


@pytest.mark.parametrize("text, plain", MATRIX_FILES.values(), ids=MATRIX_FILES)
def test_matrix_reader_matches_cell_parser(tmp_path, text, plain):
    path = tmp_path / "b.csv"
    path.write_bytes(text.encode())
    assert (csvio._plain_matrix(path) is not None) == plain
    assert _read_outcome(csvio.read_matrix_csv, path) == _read_outcome(
        oracles.read_matrix_csv_reference, path
    )


def test_matrix_reader_reads_written_matrices_with_loadtxt(tmp_path, rng):
    for shape in ((1, 1), (1, 7), (7, 1), (40, 40)):
        matrix = rng.uniform(0.0, 1.0, shape) ** 9  # down to ~1e-20: every exponent form
        path = tmp_path / "b.csv"
        csvio.write_matrix_csv(path, matrix)
        assert csvio._plain_matrix(path) is not None
        assert _read_outcome(csvio.read_matrix_csv, path) == _read_outcome(
            oracles.read_matrix_csv_reference, path
        )


def test_states_round_trip(tmp_path, rng):
    net = make_network(rng, 4)
    traj = rn.integrate(net, make_state(rng, 4, with_r=True), rn.ModelKind.SIR, 0.1, 20)
    path = tmp_path / "states.csv"
    csvio.write_states_csv(path, traj)
    back = csvio.read_states_csv(path)
    assert len(back) == len(traj)
    for a, b in zip(traj, back):
        assert a.t == b.t
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.r, b.r)


def test_states_errors(tmp_path):
    path = tmp_path / "states.csv"
    path.write_text("t,node,s,x,r\n")
    with pytest.raises(ConfigError, match="no rows"):
        csvio.read_states_csv(path)
    path.write_text("t,node,s,x,r\n0.0,0,0.5,1.5,0.0\n")
    with pytest.raises(ConfigError, match="outside"):
        csvio.read_states_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(ConfigError, match="header"):
        csvio.read_states_csv(path)
    path.write_text("t,node,s,x,r\n0.0,1,0.9,0.1,0.0\n")
    with pytest.raises(ConfigError, match="nodes"):
        csvio.read_states_csv(path)
    path.write_text("t,node,s,x,r\n0.0,0,0.9,0.1,0.0\n0.0,0,0.8,0.2,0.0\n")
    with pytest.raises(ConfigError, match="nodes at t=0.0 must be exactly 0..1, each once"):
        csvio.read_states_csv(path)
    path.write_text(
        "t,node,s,x,r\n0.0,0,0.9,0.1,0.0\n0.0,1,0.9,0.1,0.0\n1.0,0,0.8,0.2,0.0\n"
    )
    with pytest.raises(ConfigError, match="1 nodes at t=1.0, but 2 at t=0.0"):
        csvio.read_states_csv(path)


def test_rn_round_trip(tmp_path):
    matrices = [(0.0, np.array([[0.0, 1.2345678901234567]])), (0.5, np.array([[1.0], [0.25]]))]
    path = tmp_path / "rn.csv"
    csvio.write_rn_csv(path, matrices, "effective")
    assert csvio.read_rn_csv(path) == [
        (0.0, 0, 0, 0.0, "effective"),
        (0.0, 0, 1, 1.2345678901234567, "effective"),
        (0.5, 0, 0, 1.0, "effective"),
        (0.5, 1, 0, 0.25, "effective"),
    ]
    assert csvio.read_rn_csv(path) == list(oracles.rn_records_reference(matrices, "effective"))


@given(
    values=st.lists(
        st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False, exclude_min=False
        ),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=50)
def test_matrix_round_trip_property(tmp_path_factory, values):
    matrix = np.array(values).reshape(2, 2)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    csvio.write_matrix_csv(path, matrix)
    np.testing.assert_array_equal(csvio.read_matrix_csv(path), matrix)


# float64 values the writers must spell exactly as format(v, ".17g") does
SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 1.0, 1.8e308]
FRACTIONS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0]) | st.floats(0.0, 1.0)
RN_KINDS = ["basic", "pseudo_effective", "effective", "cluster", "cluster_private"]


def assert_same_bytes(tmp_path, write, reference, data):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got, data)
    reference(want, data)
    assert got.read_bytes() == want.read_bytes()


@given(
    n=st.integers(1, 12),
    samples=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=100)
def test_states_writer_bytes_equal_csv_writer_property(tmp_path_factory, n, samples, data):
    times = data.draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=samples, max_size=samples))
    x, r = (np.array(data.draw(st.lists(FRACTIONS, min_size=samples * n, max_size=samples * n))) for _ in "xr")
    r = np.where(x + r > 1.0, 1.0 - x, r)
    s = np.maximum(1.0 - x - r, 0.0)
    trajectory = rn.Trajectory(times, *(a.reshape(samples, n) for a in (s, x, r)))
    tmp_path = tmp_path_factory.mktemp("states")
    assert_same_bytes(tmp_path, csvio.write_states_csv, oracles.write_states_csv_reference, trajectory)
    assert_same_bytes(tmp_path, csvio.write_states_csv, oracles.write_states_csv_reference, list(trajectory))


def assert_rn_same_bytes(tmp_path, matrices, kind):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    csvio.write_rn_csv(got, matrices, kind)
    oracles.write_rn_csv_reference(want, oracles.rn_records_reference(matrices, kind))
    assert got.read_bytes() == want.read_bytes()


@given(
    shapes=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
    kind=st.sampled_from(RN_KINDS),
    data=st.data(),
)
@settings(max_examples=150)
def test_rn_writer_bytes_equal_csv_writer_property(tmp_path_factory, shapes, kind, data):
    matrices = []
    for rows, cols in shapes:
        t = data.draw(st.sampled_from(SPECIAL) | st.floats() | st.floats().map(np.float64))
        values = data.draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=rows * cols, max_size=rows * cols))
        matrices.append((t, np.array(values, dtype=float).reshape(rows, cols)))
    assert_rn_same_bytes(tmp_path_factory.mktemp("rn"), matrices, kind)


def test_rn_writer_bytes_equal_csv_writer_across_blocks(tmp_path, rng):
    # three 100x100 epochs take the writer's blocks of 40 rows, an 11x1000 epoch, whose column
    # indices run past its row indices, blocks of 4 rows, and fifty 10x10 epochs blocks of 40 epochs
    matrices = [(t, rng.uniform(0.0, 2.0, (100, 100))) for t in (-0.0, 0.0, 0.25)]
    matrices[1][1][3, :5] = SPECIAL[:5]
    matrices.append((1.0, rng.uniform(0.0, 1e-3, (11, 1000))))
    matrices += [(2.0 + k, rng.uniform(0.0, 2.0, (10, 10))) for k in range(50)]
    assert_rn_same_bytes(tmp_path, matrices, "effective")
    lines = (tmp_path / "got.csv").read_text().splitlines()
    assert len(lines) == 1 + 30_000 + 11_000 + 5_000
    assert lines[1].startswith("-0,0,0,") and lines[10_001].startswith("0,0,0,")
    assert lines[41_000].startswith("1,10,999,") and lines[-1].startswith("51,9,9,")


def rn_writer_peak(path, count: int) -> int:
    """``tracemalloc`` peak, in bytes, of writing ``count`` 300x300 matrices built one at a time."""
    matrices = ((0.5 * k, np.random.default_rng(k).uniform(0.0, 1.0, (300, 300))) for k in range(count))
    tracemalloc.start()
    try:
        csvio.write_rn_csv(path, matrices, "effective")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rn_writer_memory_is_bounded_by_its_block(tmp_path):
    # compute-rn builds each matrix as the writer reads it, so its peak memory, and sir-scan's
    # peak_rss_mib, must not grow with the number of epochs: a writer that held all twenty
    # 720 KB matrices, or all their rows, would peak about ten times higher
    rn_writer_peak(tmp_path / "rn.csv", 1)  # the digit tables are built once per process
    two, twenty = (rn_writer_peak(tmp_path / "rn.csv", count) for count in (2, 20))
    assert twenty <= 1.1 * two


def test_writers_end_rows_in_crlf(tmp_path):
    path = tmp_path / "rn.csv"
    csvio.write_rn_csv(path, [(0.5, np.array([[0.25, 1.0]])), (np.float64(-0.0), np.array([[5e-324]]))], "effective")
    assert path.read_bytes() == (
        b"t,i,j,value,kind\r\n0.5,0,0,0.25,effective\r\n0.5,0,1,1,effective\r\n"
        b"-0,0,0,4.9406564584124654e-324,effective\r\n"
    )
    state = rn.EpidemicState(t=0.5, s=np.array([0.75, 1.0]), x=np.array([0.25, 0.0]))
    csvio.write_states_csv(path, [state])
    assert path.read_bytes() == b"t,node,s,x,r\r\n0.5,0,0.75,0.25,0\r\n0.5,1,1,0,0\r\n"


@pytest.mark.parametrize("kind", ["a,b", 'say "x"', "a\rb", "a\nb", "a\0b", None, 5])
def test_rn_writer_rejects_kinds_csv_would_quote(tmp_path, kind):
    with pytest.raises(ConfigError, match="not plain CSV text"):
        csvio.write_rn_csv(tmp_path / "rn.csv", [(0.0, np.ones((1, 2)))], kind)
    assert not (tmp_path / "rn.csv").exists()


def assert_g17_is_percent_format(values):
    cells = csvio._g17(np.array(values, dtype=float))
    assert [cell.tobytes().replace(b"\0", b"") for cell in cells] == [b"%.17g" % v for v in values]


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300)
def test_g17_equals_percent_format_property(values):
    assert_g17_is_percent_format(values)


@given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=40))
@settings(max_examples=300)
def test_g17_fast_path_equals_percent_format_property(values):
    assert_g17_is_percent_format(values)


def test_g17_next_to_powers_of_ten():
    values = []
    for k in range(7):
        below = above = 10.0**-k
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            values += [float(below), float(above)]
    assert_g17_is_percent_format(values + [10.0**-k for k in range(7)])


def test_g17_rounds_half_way_ties_to_even():
    # v * 10**p lies half-way between two integers for v = m * 2**-(p + 1), m odd, so the
    # 17th digit is a tie at the decimal exponent 16 - p
    rng = np.random.default_rng(17)
    ties = []
    for p in range(17, 21):
        low, high = int(10.0 ** (16 - p) * 2 ** (p + 1)) + 1, int(10.0 ** (17 - p) * 2 ** (p + 1))
        ms = np.concatenate([[low, high - 1], rng.integers(low, high, 250)]) | 1
        ties += [float(m) * 2.0 ** -(p + 1) for m in ms.tolist()]
        assert all((Fraction(v) * 10**p).denominator == 2 for v in ties[-len(ms):])
    assert_g17_is_percent_format(ties)


def test_g17_drops_trailing_zeros():
    values = [k / 1000 for k in range(1, 1000)] + [k / 10_000 for k in range(1, 100)] + [0.5, 0.25, 0.125]
    assert_g17_is_percent_format(values)


def test_g17_fast_path_covers_sir_trajectories(rng):
    net = make_network(rng, 40, density=0.1)
    traj = rn.integrate(net, make_state(rng, 40, x=(0.01, 0.01)), rn.ModelKind.SIR, 0.01, 500)
    values = np.concatenate([traj.s, traj.x, traj.r], axis=None)
    assert np.mean(csvio._fast(values)) > 0.95
    assert_g17_is_percent_format(values.tolist())


@pytest.mark.parametrize("as_states", [False, True])
def test_states_writer_bytes_equal_csv_writer_across_blocks(tmp_path, rng, as_states):
    # 397 nodes do not divide the writer's block of rows, and 40 samples fill several blocks
    samples, n = 40, 397
    x = rng.uniform(0.0, 0.5, (samples, n))
    x[0, :4], x[1, :4], x[2, :4] = 0.0, 1.0, (5e-324, 1e-5, 9.99e-5, 1e-4)
    r = np.where(x < 0.5, rng.uniform(0.0, 0.5, (samples, n)), 0.0)
    r[3, :3] = 0.0, 3e-7, 1.0 - x[3, 2]
    trajectory = rn.Trajectory(np.linspace(0.0, 3.9, samples), np.maximum(1.0 - x - r, 0.0), x, r)
    assert len(trajectory) > 2 * (csvio._BLOCK_ROWS // n)
    data = list(trajectory) if as_states else trajectory
    assert_same_bytes(tmp_path, csvio.write_states_csv, oracles.write_states_csv_reference, data)
