import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet import model
from repronet.exceptions import ConfigError, IntegrationError
from repronet.model import StabilityWarning, infected_derivative


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
    # the components come out in no fixed order; the reference lists them by lowest node
    assert sorted(c.tolist() for c in model._components(b)) == oracles.components_reference(b)
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


def test_integrate_clamps_round_off_below_zero():
    # one RK4 step of this single-node SIR lands s at -4.0e-10: round-off, not instability
    b, gamma, s0, x0, dt = 1.0, 1.0, 0.5, 0.5, 3.746105171976

    def rates(s, x):
        return -b * s * x, b * s * x - gamma * x

    k1 = rates(s0, x0)
    k2 = rates(s0 + 0.5 * dt * k1[0], x0 + 0.5 * dt * k1[1])
    k3 = rates(s0 + 0.5 * dt * k2[0], x0 + 0.5 * dt * k2[1])
    k4 = rates(s0 + dt * k3[0], x0 + dt * k3[1])
    raw_s = s0 + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    assert -1e-9 < raw_s < -1e-10

    state = rn.EpidemicState(t=0.0, s=[s0], x=[x0])
    with pytest.warns(StabilityWarning):
        traj = rn.integrate(scalar_net(beta=b, gamma=gamma), state, rn.ModelKind.SIR, dt, 1)
    assert traj.s[1, 0] == 0.0
    # the clamp moved the sum by 4e-10, so the triple was renormalized too
    assert abs(traj.s[1, 0] + traj.x[1, 0] + traj.r[1, 0] - 1.0) <= 1e-15


def test_integrate_renormalizes_drifted_sum(rng):
    net = make_network(rng, 3)
    x = np.array([0.1, 0.2, 0.05])
    state = rn.EpidemicState(t=0.0, s=1.0 - x - 5e-10, x=x)  # drift within the 1e-9 the state allows
    traj = rn.integrate(net, state, rn.ModelKind.SIS, 0.01, 2)
    totals = traj.s + traj.x + traj.r
    assert np.abs(totals[0] - 1.0).max() > 4e-10
    assert np.abs(totals[1:] - 1.0).max() <= 1e-15


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), steps=st.integers(0, 4), zero=st.booleans())
@settings(max_examples=40)
def test_infected_derivative_is_derivative_row_property(seed, n, steps, zero):
    rng = np.random.default_rng(seed)
    net = make_network(rng, n)
    state = make_state(rng, n, with_r=True)
    if zero:  # a node with no infection, where x' can be a signed zero
        x = state.x.copy()
        x[0] = 0.0
        state = rn.EpidemicState(t=0.0, s=1.0 - x - state.r, x=x, r=state.r)
    for kind in rn.ModelKind:
        traj = rn.integrate(net, state, kind, 0.01, steps)
        for value in (state, traj):
            got = infected_derivative(net, value, kind)
            assert got.tobytes() == rn.derivative(net, value, kind)[1].tobytes()


def _instance(seed, n, kind):
    gen = np.random.default_rng(seed)
    return make_network(gen, n), make_state(gen, n, with_r=kind is rn.ModelKind.SIR)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConfigError, IntegrationError) as exc:
        return type(exc), str(exc)


# Blocks of an n = 1 run start at steps 1, 2, 4, 8, 16, 32, ... until a step
# needs a clean-up; the block after that clean-up starts at the next step.
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    kind=st.sampled_from(list(rn.ModelKind)),
    steps=st.integers(0, 64),
    dt=st.sampled_from([0.05, 0.5, 2.0, 10.0, 50.0]),  # 2 and 10: round-off clamps; 50: leaves [0, 1]
    drift=st.booleans(),  # a state 5e-10 off a unit sum, renormalized at the first step
    data=st.data(),
)
@example(seed=247, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, data=None)  # at 35 (mid 32-40), 36
@example(seed=5, n=6, kind=rn.ModelKind.SIR, steps=12, dt=0.5, drift=True, data=None)  # at 1
@example(seed=160, n=1, kind=rn.ModelKind.SIS, steps=63, dt=20.0, drift=False, data=None)  # at 32, first of 32-63
@example(seed=76, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, data=None)  # at 27, mid 16-31
@example(seed=310, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, data=None)  # at 31, last of 16-31
@example(seed=31, n=2, kind=rn.ModelKind.SIR, steps=60, dt=10.0, drift=False, data=None)  # at every step from 32
@example(seed=11, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, data=None)  # raises at 23, mid 16-31
@example(seed=3, n=1, kind=rn.ModelKind.SIR, steps=40, dt=50.0, drift=False, data=None)  # raises at 8, first of 8-15
@example(seed=2, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, data=None)  # raises at 3, last of 2-3
@settings(max_examples=80)
@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_sampled_integration_is_every_kth_row_property(seed, n, kind, steps, dt, drift, data):
    net, state = _instance(seed, n, kind)
    if drift:
        state = rn.EpidemicState(t=0.0, s=state.s - 5e-10, x=state.x, r=state.r)
    everies = range(1, steps + 3) if data is None else [data.draw(st.integers(1, steps + 2))]
    # the per-step reference: its states, or the same error raised at the same step
    full = _outcome(oracles.integrate_reference, net, state, kind, dt, steps)
    for every in everies:
        sampled = _outcome(rn.integrate, net, state, kind, dt, steps, every=every)
        if not isinstance(full, list):
            assert sampled == full
            continue
        assert sampled[0] is state
        want = rn.Trajectory.from_states(full[::every])
        for name in "tsxr":
            got, expected = getattr(sampled, name), getattr(want, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_integration_computes_at_most_twice_the_steps(monkeypatch):
    # every step from 32 on needs a clean-up: the block of steps 32-60 keeps one of its 29
    kind, dt, steps = rn.ModelKind.SIR, 10.0, 60
    net, state = _instance(31, 2, kind)
    stages, cleaned = [], []

    def counted(*args, **kwargs):
        stages.append(None)
        return rhs(*args, **kwargs)

    def recorded(fractions, t, dt):
        cleaned.append(t)
        return clean_up(fractions, t, dt)

    rhs, clean_up = model._rhs, model._clean_up
    monkeypatch.setattr(model, "_rhs", counted)
    monkeypatch.setattr(model, "_clean_up", recorded)
    rn.integrate(net, state, kind, dt, steps)
    assert cleaned == [dt * k for k in range(32, steps + 1)]
    assert len(stages) <= 2 * 4 * steps


@pytest.mark.parametrize("every", [0, -1])
def test_sampled_integration_rejects_bad_every(rng, every):
    net = make_network(rng, 3)
    with pytest.raises(ConfigError, match="every must be >= 1"):
        rn.integrate(net, make_state(rng, 3), rn.ModelKind.SIS, 0.1, 10, every=every)


def _joined_blocks(net, state, kind, dt, steps, every=1):
    """``integrate_blocks``' rows joined into one ``Trajectory``, after checking its first block
    is ``state`` alone; or the error it raises, as ``_outcome`` gives it."""
    try:
        blocks = list(rn.integrate_blocks(net, state, kind, dt, steps, every=every))
    except (ConfigError, IntegrationError) as exc:
        return type(exc), str(exc)
    assert len(blocks[0]) == 1 and blocks[0][0] is state
    assert all(isinstance(block, rn.Trajectory) and len(block) for block in blocks)
    return rn.Trajectory(*(np.concatenate([getattr(b, name) for b in blocks]) for name in "tsxr"))


def _assert_same_rows(got, want):
    if not isinstance(want, rn.Trajectory):
        assert got == want
        return
    for name in "tsxr":
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# the examples of the sampled-integration property: clean-ups and failures at block edges
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    kind=st.sampled_from(list(rn.ModelKind)),
    steps=st.integers(0, 64),
    dt=st.sampled_from([0.05, 0.5, 2.0, 10.0, 50.0]),
    drift=st.booleans(),
    every=st.integers(1, 70),
)
@example(seed=247, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, every=1)
@example(seed=5, n=6, kind=rn.ModelKind.SIR, steps=12, dt=0.5, drift=True, every=5)
@example(seed=160, n=1, kind=rn.ModelKind.SIS, steps=63, dt=20.0, drift=False, every=3)
@example(seed=76, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, every=1)
@example(seed=31, n=2, kind=rn.ModelKind.SIR, steps=60, dt=10.0, drift=False, every=7)
@example(seed=11, n=1, kind=rn.ModelKind.SIS, steps=40, dt=50.0, drift=False, every=2)
@example(seed=800, n=4, kind=rn.ModelKind.SIS, steps=7, dt=10.0, drift=False, every=1)  # check sums inf - inf
@settings(max_examples=80)
@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_joined_blocks_equal_integrate_property(seed, n, kind, steps, dt, drift, every):
    net, state = _instance(seed, n, kind)
    if drift:
        state = rn.EpidemicState(t=0.0, s=state.s - 5e-10, x=state.x, r=state.r)
    want = _outcome(rn.integrate, net, state, kind, dt, steps, every=every)
    _assert_same_rows(_joined_blocks(net, state, kind, dt, steps, every), want)


@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_joined_blocks_equal_integrate_across_clean_ups():
    # the single-node SIR step that lands s at -4.0e-10 (clamped), and a drifted sum (renormalized)
    clamped = (scalar_net(beta=1.0, gamma=1.0), rn.EpidemicState(t=0.0, s=[0.5], x=[0.5]), 3.746105171976)
    x = np.array([0.1, 0.2, 0.05])
    net = make_network(np.random.default_rng(3), 3)
    drifted = (net, rn.EpidemicState(t=0.0, s=1.0 - x - 5e-10, x=x), 0.01)
    for net, state, dt in (clamped, drifted):
        for kind in rn.ModelKind:
            for steps, every in ((1, 1), (2, 1), (40, 1), (40, 3), (40, 41)):
                want = _outcome(rn.integrate, net, state, kind, dt, steps, every=every)
                _assert_same_rows(_joined_blocks(net, state, kind, dt, steps, every), want)
    assert rn.integrate(*clamped[:2], rn.ModelKind.SIR, clamped[2], 1).s[1, 0] == 0.0


def test_integrate_blocks_checks_its_arguments_at_the_call(rng):
    net, state = make_network(rng, 3), make_state(rng, 3)
    with pytest.raises(ConfigError, match="dt must be positive"):
        rn.integrate_blocks(net, state, rn.ModelKind.SIS, 0.0, 10)
    with pytest.raises(ConfigError, match="every must be >= 1"):
        rn.integrate_blocks(net, state, rn.ModelKind.SIS, 0.1, 10, every=0)
    with pytest.warns(StabilityWarning) as caught:
        rn.integrate_blocks(net, state, rn.ModelKind.SIS, 50.0, 10)
    assert caught[0].filename == __file__  # the caller's line, as integrate's warning names it


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), density=st.floats(0.0, 0.6),
       zero_rows=st.integers(0, 12), loops=st.booleans())
@settings(max_examples=80)
def test_components_match_scipy_property(seed, n, density, zero_rows, loops):
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(seed)
    b = np.where(rng.random((n, n)) < density, 0.2, 0.0)
    b[:zero_rows] = 0.0  # s = 0 rows: nodes without in-edges
    np.fill_diagonal(b, 0.2 if loops else 0.0)
    count, labels = connected_components(b > 0.0, directed=True, connection="strong")
    want = sorted(np.flatnonzero(labels == k).tolist() for k in range(count))
    got = [c.tolist() for c in model._components(b)]
    assert all(c == sorted(c) for c in got)
    assert sorted(got) == want
