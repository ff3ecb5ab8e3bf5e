import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    records = [(0.0, 0, 1, 1.2345678901234567, "effective"), (0.5, 1, 0, 0.25, "cluster")]
    path = tmp_path / "rn.csv"
    csvio.write_rn_csv(path, records)
    assert csvio.read_rn_csv(path) == records


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
