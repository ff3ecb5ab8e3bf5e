import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet.exceptions import ConfigError, IntegrationError
from repronet.model import StabilityWarning


def scalar_net(beta=0.3, gamma=0.1):
    return rn.TransmissionNetwork(b=[[beta]], gamma=[gamma])


def test_pure_recovery_single_node():
    net = scalar_net(beta=0.0, gamma=0.5)
    state = rn.EpidemicState(t=0.0, s=np.array([0.6]), x=np.array([0.4]))
    sdot, xdot, rdot = rn.derivative(net, state, rn.ModelKind.SIS)
    assert xdot[0] == pytest.approx(-0.2)
    assert sdot[0] == pytest.approx(0.2)
    assert rdot[0] == 0.0


def test_disease_free_equilibrium(rng):
    net = make_network(rng, 4)
    state = rn.EpidemicState(t=0.0, s=np.ones(4), x=np.zeros(4))
    for kind in rn.ModelKind:
        for vec in rn.derivative(net, state, kind):
            np.testing.assert_array_equal(vec, np.zeros(4))


def test_sir_derivative_against_scalar_oracle():
    b = [[0.3, 0.2], [0.1, 0.4]]
    gamma = [0.2, 0.25]
    s = [0.9, 0.8]
    x = [0.1, 0.1]
    net = rn.TransmissionNetwork(b=b, gamma=gamma)
    state = rn.EpidemicState(t=0.0, s=np.array(s), x=np.array(x), r=np.array([0.0, 0.1]))
    sdot, xdot, rdot = rn.derivative(net, state, rn.ModelKind.SIR)
    e_sdot, e_xdot, e_rdot = oracles.sir_derivative(b, gamma, s, x)
    np.testing.assert_allclose(sdot, e_sdot, rtol=1e-12)
    np.testing.assert_allclose(xdot, e_xdot, rtol=1e-12)
    np.testing.assert_allclose(rdot, e_rdot, rtol=1e-12)
    # frozen hand evaluation of the same instance
    np.testing.assert_allclose(xdot, [0.025, 0.015], rtol=1e-12)
    np.testing.assert_allclose(rdot, [0.02, 0.025], rtol=1e-12)


def test_sis_conservation_is_exact(rng):
    net = make_network(rng, 5)
    state = make_state(rng, 5)
    sdot, xdot, _ = rn.derivative(net, state, rn.ModelKind.SIS)
    np.testing.assert_array_equal(sdot + xdot, np.zeros(5))


def test_sir_conservation_is_exact(rng):
    net = make_network(rng, 5)
    state = make_state(rng, 5, with_r=True)
    sdot, xdot, rdot = rn.derivative(net, state, rn.ModelKind.SIR)
    np.testing.assert_array_equal(xdot + (sdot + rdot), np.zeros(5))


def test_dimension_mismatch_rejected(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 3)
    with pytest.raises(ConfigError):
        rn.derivative(net, state, rn.ModelKind.SIS)


def test_network_validation():
    with pytest.raises(ConfigError):
        rn.TransmissionNetwork(b=[[0.1, 1.2], [0.1, 0.1]], gamma=[0.5, 0.5])
    with pytest.raises(ConfigError):
        rn.TransmissionNetwork(b=[[0.1, 0.1], [0.1, 0.1]], gamma=[0.0, 0.5])
    # no edge back into node 1: not strongly connected
    with pytest.raises(ConfigError):
        rn.TransmissionNetwork(b=[[0.0, 0.4], [0.0, 0.2]], gamma=[0.5, 0.5])
    # zero row: node 0 unreachable
    with pytest.raises(ConfigError):
        rn.TransmissionNetwork(b=[[0.0, 0.0], [0.3, 0.0]], gamma=[0.5, 0.5])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 11), density=st.floats(0.05, 0.5))
@settings(max_examples=60)
def test_strong_connectivity_check_matches_oracle_property(seed, n, density):
    rng = np.random.default_rng(seed)
    b = np.where(rng.random((n, n)) < density, 0.2, 0.0)
    if oracles.strongly_connected(b):
        rn.TransmissionNetwork(b=b, gamma=np.full(n, 0.5))
    else:
        with pytest.raises(ConfigError, match="strongly connected"):
            rn.TransmissionNetwork(b=b, gamma=np.full(n, 0.5))


def test_state_validation():
    with pytest.raises(ConfigError):
        rn.EpidemicState(t=0.0, s=np.array([0.5, 0.5]), x=np.array([0.6, 0.1]))
    with pytest.raises(ConfigError):
        rn.EpidemicState(t=0.0, s=np.array([-0.1]), x=np.array([1.1]))


def test_zero_steps_returns_initial(rng):
    net = make_network(rng, 3)
    state = make_state(rng, 3)
    traj = rn.integrate(net, state, rn.ModelKind.SIS, 0.1, 0)
    assert len(traj) == 1 and traj[0] is state


def test_scalar_sis_endemic_level():
    net = scalar_net(beta=0.3, gamma=0.1)
    state = rn.EpidemicState(t=0.0, s=np.array([0.99]), x=np.array([0.01]))
    traj = rn.integrate(net, state, rn.ModelKind.SIS, 0.1, 3000)
    assert traj[-1].x[0] == pytest.approx(1.0 - 0.1 / 0.3, abs=1e-3)


def test_sir_decays_and_s_monotone(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6)
    traj = rn.integrate(net, state, rn.ModelKind.SIR, 0.05, 4000)
    assert np.max(traj[-1].x) < 1e-3
    s_path = np.stack([st.s for st in traj])
    r_path = np.stack([st.r for st in traj])
    assert np.all(np.diff(s_path, axis=0) <= 1e-12)
    assert np.all(np.diff(r_path, axis=0) >= -1e-12)


def test_conservation_along_trajectory(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6, with_r=True)
    for st_ in rn.integrate(net, state, rn.ModelKind.SIR, 0.05, 500):
        np.testing.assert_allclose(st_.s + st_.x + st_.r, 1.0, atol=1e-9)


def test_half_step_agreement(rng):
    net = make_network(rng, 5)
    state = make_state(rng, 5)
    coarse = rn.integrate(net, state, rn.ModelKind.SIR, 0.1, 100)
    fine = rn.integrate(net, state, rn.ModelKind.SIR, 0.05, 200)
    gap = np.max(np.abs(np.stack([coarse[-1].s, coarse[-1].x]) - np.stack([fine[-1].s, fine[-1].x])))
    assert gap < 1e-6


@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_rk4_order_of_convergence(rng):
    net = make_network(rng, 4, beta=(0.1, 0.3))
    state = make_state(rng, 4, x=(0.05, 0.2))
    horizon = 8.0

    def endpoint(dt):
        steps = int(round(horizon / dt))
        final = rn.integrate(net, state, rn.ModelKind.SIR, dt, steps)[-1]
        return np.concatenate([final.s, final.x, final.r])

    reference = endpoint(0.05)
    err_coarse = np.max(np.abs(endpoint(0.2) - reference))
    err_fine = np.max(np.abs(endpoint(0.1) - reference))
    assert err_coarse >= 8.0 * err_fine


def test_large_dt_warns(rng):
    net = make_network(rng, 4, beta=(0.2, 0.3))
    state = make_state(rng, 4)
    with pytest.warns(StabilityWarning):
        try:
            rn.integrate(net, state, rn.ModelKind.SIS, 5.0, 1)
        except IntegrationError:
            pass  # instability is acceptable here; the warning is the point


def test_unstable_dt_raises():
    b = np.full((4, 4), 0.9)
    net = rn.TransmissionNetwork(b=b, gamma=np.full(4, 0.9))
    state = rn.EpidemicState(t=0.0, s=np.full(4, 0.5), x=np.full(4, 0.5))
    with pytest.warns(StabilityWarning):
        with pytest.raises(IntegrationError):
            rn.integrate(net, state, rn.ModelKind.SIR, 50.0, 50)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
@settings(max_examples=40)
def test_derivative_conservation_property(seed, n):
    rng = np.random.default_rng(seed)
    net = make_network(rng, n)
    state = make_state(rng, n, with_r=True)
    sdot, xdot, rdot = rn.derivative(net, state, rn.ModelKind.SIR)
    np.testing.assert_array_equal(xdot + (sdot + rdot), np.zeros(n))
    sdot, xdot, rdot = rn.derivative(net, state, rn.ModelKind.SIS)
    np.testing.assert_array_equal(sdot + xdot, np.zeros(n))
    assert np.all(np.isfinite(np.stack([sdot, xdot, rdot])))
