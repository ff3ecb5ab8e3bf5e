import dataclasses
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet import analysis
from repronet.analysis import (
    private_moments,
    rmse_sweep,
    threshold_report,
    trichotomy_counts,
)
from repronet.exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    IntegrationError,
    PrivacyBoundsError,
    RepronetError,
    UndefinedRatioError,
)
from repronet.seeding import StreamRole, stream


def moments_instance():
    """Two clusters of three, where only authority 2 has an edge from the first into the
    second and its ``s = 0`` makes its report all zero, so entry (0, 1) is exactly zero."""
    gen = np.random.default_rng(7)
    net = make_network(gen, 6)
    b = net.b.copy()
    b[:2, 3:] = 0.0
    x = gen.uniform(0.05, 0.2, 6)
    s = 1.0 - x
    s[2] = 0.0
    state = rn.EpidemicState(t=0.0, s=s, x=x, r=1.0 - x - s)
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4, 5]])
    return rn.TransmissionNetwork(b=b, gamma=net.gamma), state, partition


def test_moments_degenerate_noise_recovers_exact():
    net, state, partition = moments_instance()
    mean, var = private_moments(net, state, partition, rn.PrivacySpec(epsilon0=1e6, k=1e-12))
    assert mean == pytest.approx(rn.cluster_matrix(net, state, partition).values, rel=1e-6)
    assert np.all(var < 1e-12)


def test_moments_all_zero_members():
    net, state, partition = moments_instance()
    mean, var = private_moments(net, state, partition, rn.PrivacySpec(epsilon0=1.0, k=1e-3))
    assert mean[0, 1] == 0.0 and var[0, 1] == 0.0
    live = [(0, 0), (1, 0), (1, 1)]
    assert all(mean[e] > 0.0 and var[e] > 0.0 for e in live)


def test_moments_against_vectorized_monte_carlo():
    """The closed form against 200,000 draws of each member's entry (the moved per-entry oracle)."""
    net, state, partition = moments_instance()
    spec = rn.PrivacySpec(epsilon0=1.0, k=1e-3)
    mean, var = private_moments(net, state, partition, spec)
    rng = stream(100, StreamRole.ANALYSIS)
    for q, r in ((0, 0), (1, 0), (1, 1)):
        params = oracles.entry_noise_params(net, state, partition, spec, q, r)
        mc_mean, mc_var = oracles.monte_carlo_entry_stats(
            partition, q, net.gamma, state.x, params, 200_000, rng
        )
        assert mc_mean == pytest.approx(mean[q, r], rel=0.01)
        assert mc_var == pytest.approx(var[q, r], rel=0.02)


def test_rmse_sweep_certified_by_private_moments():
    """One fixed-seed ``rmse_sweep``, bit for bit the pipeline's trials, against the closed
    form: every entry's mean within 5 standard errors and its variance within 12%, each
    epsilon's squared RMSE within 6% of ``mean(var + (mean - exact)^2)``, and the exact-zero
    entry exactly 0.  The bounds catch a noise scale 10% too large in ``private_reports``,
    another cluster's weight as the denominator, and zero entries drawn, not passed through.
    """
    net, state, partition = moments_instance()
    trajectory = rn.integrate(net, state, rn.ModelKind.SIR, 0.1, 50, every=50)
    trials, eps_grid = 5000, (0.5, 2.0)
    report = rmse_sweep(net, trajectory, partition, eps_grid, trials, master_seed=11)
    exact = np.stack([rn.cluster_matrix(net, st, partition).values for st in trajectory])
    zero = exact == 0.0
    assert zero.any()
    for eps in eps_grid:
        mean, var = private_moments(net, trajectory, partition, rn.PrivacySpec(epsilon0=eps))
        rows = [row for row in report.entries if row.eps == eps]  # (epoch, q, r) order
        sweep_mean = np.reshape([row.mean_private for row in rows], mean.shape)
        sweep_var = np.reshape([row.var_private for row in rows], var.shape)
        assert np.all(sweep_mean[zero] == 0.0) and np.all(mean[zero] == 0.0)
        z = (sweep_mean - mean)[~zero] / np.sqrt(var[~zero] / trials)
        assert np.max(np.abs(z)) < 5.0
        assert np.max(np.abs(sweep_var[~zero] / var[~zero] - 1.0)) < 0.12
        expected = float(np.mean(var + (mean - exact) ** 2))
        assert report.summary_for(eps).rmse ** 2 == pytest.approx(expected, rel=0.06)


def _per_entry_moments(net, state, partition, spec, clamp):
    """``(m, m)`` means and variances at a state from the per-entry oracle pair."""
    mean, var = np.zeros((2, partition.m, partition.m))
    for q, r in np.ndindex(mean.shape):
        params = oracles.entry_noise_params(net, state, partition, spec, q, r, clamp=clamp)
        mean[q, r], var[q, r] = oracles.private_entry_moments(partition, q, net.gamma, state.x, params)
    return mean, var


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    blocks=st.sampled_from(["singletons", "whole", "random"]),
    eps=st.sampled_from([0.05, 0.5, 1.0, 4.0]),
    k=st.sampled_from([1e-5, 1e-2, 0.5, 50.0]),
    clamp=st.booleans(),
    kind=st.sampled_from(list(rn.ModelKind)),
    rows=st.integers(1, 3),
)
@example(seed=0, n=9, blocks="random", eps=1.0, k=1e-5, clamp=True, kind=rn.ModelKind.SIS, rows=3)
@example(seed=1, n=5, blocks="singletons", eps=0.05, k=50.0, clamp=False, kind=rn.ModelKind.SIR, rows=1)
@settings(max_examples=40, deadline=None)
def test_private_moments_match_per_entry_oracle_property(seed, n, blocks, eps, k, clamp, kind, rows):
    """Along a trajectory of SIS or SIR states with zero report entries (a sparse network,
    and ``s = 0`` at one node), every entry agrees with the per-entry oracle pair to 1e-14
    relative, each row is the state's own call bit for bit, an empty trajectory gives
    empty arrays, and an infeasible calibration fails both."""
    gen = np.random.default_rng(seed)
    net = make_network(gen, n, density=0.3)
    m = int(gen.integers(1, n + 1))
    assignment = np.concatenate([np.arange(m), gen.integers(0, m, n - m)])
    gen.shuffle(assignment)
    partition = {
        "singletons": rn.Partition.singletons(n),
        "whole": rn.Partition.whole(n),
        "random": rn.Partition(m=m, assignment=assignment),
    }[blocks]
    states = []
    for t in range(rows):
        state = make_state(gen, n, t=float(t), with_r=kind is rn.ModelKind.SIR)
        s = state.s.copy()
        s[gen.integers(n)] = 0.0
        states.append(rn.EpidemicState(t=state.t, s=s, x=state.x, r=state.r + (state.s - s)))
    spec, box = rn.PrivacySpec(epsilon0=eps, k=k), (0.0, 14.0) if clamp else None
    trajectory = rn.Trajectory.from_states(states)
    try:
        reference = [_per_entry_moments(net, state, partition, spec, box) for state in states]
    except CalibrationInfeasibleError:
        with pytest.raises(CalibrationInfeasibleError):
            private_moments(net, trajectory, partition, spec, clamp=box)
        return
    mean, var = private_moments(net, trajectory, partition, spec, clamp=box)
    assert mean.shape == var.shape == (rows, partition.m, partition.m)
    empty = private_moments(net, trajectory[:0], partition, spec)
    assert [a.shape for a in empty] == [(0, partition.m, partition.m)] * 2
    for row, state, (ref_mean, ref_var) in zip(range(rows), states, reference):
        np.testing.assert_allclose(mean[row], ref_mean, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(var[row], ref_var, rtol=1e-14, atol=0.0)
        one = private_moments(net, state, partition, spec, clamp=box)
        assert _hex(one) == _hex([mean[row], var[row]])


def test_private_moments_raises_the_pipelines_errors(rng):
    """Inputs that the pipeline rejects before it draws noise fail the closed form with the
    same error: sizes, calibration, the noise box and a zero infection without a floor,
    along a trajectory the first failing state's."""
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    x = state.x.copy()
    x[1] = 0.0
    unfloored = rn.EpidemicState(t=1.0, s=1.0 - x, x=x)
    partition = rn.Partition.from_blocks([[0, 1], [2, 3]])
    spec = rn.PrivacySpec(1.0)
    cases = [
        (make_state(rng, 3), partition, spec, {}, ConfigError),
        (state, rn.Partition.whole(3), spec, {}, ConfigError),
        (state, partition, rn.PrivacySpec(1e-6, k=50.0, bounds=(0.0, 1.0)), {}, CalibrationInfeasibleError),
        (state, partition, rn.PrivacySpec(1.0, bounds=(0.0, 1e-4)), {}, PrivacyBoundsError),
        (unfloored, partition, spec, {"floor": 0.0}, UndefinedRatioError),
        (rn.Trajectory.from_states([state, unfloored]), partition, spec, {"floor": 0.0}, UndefinedRatioError),
        (rn.Trajectory.from_states([state, unfloored]), partition, rn.PrivacySpec(1.0, bounds=(0.0, 1e-4)),
         {"floor": 0.0}, PrivacyBoundsError),
    ]
    for st_, part, spec_, kwargs, error in cases:
        if isinstance(st_, rn.Trajectory):
            kwargs = {**kwargs, "epoch": range(len(st_))}
        expected = _outcome(rn.run_pipeline, net, st_, part, spec_, **kwargs)
        assert expected[0] is error
        kwargs.pop("epoch", None)
        assert _outcome(private_moments, net, st_, part, spec_, **kwargs) == expected


def test_private_moments_at_n_1000_is_fast():
    gen = np.random.default_rng(1000)
    n = 1000
    b = np.where(gen.random((n, n)) < 0.02, gen.uniform(0.05, 0.3, (n, n)), 0.0)
    b[np.arange(n), (np.arange(n) + 1) % n] = gen.uniform(0.05, 0.3, n)
    net = rn.TransmissionNetwork(b=b, gamma=gen.uniform(0.1, 0.5, n))
    state, partition = make_state(gen, n), rn.Partition(10, np.arange(n) * 10 // n)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        private_moments(net, state, partition, rn.PrivacySpec(1.0), clamp=(0.0, 14.0))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def test_rmse_sweep_degenerate_noise(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6, x=(0.05, 0.2))
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4, 5]])
    report = rmse_sweep(
        net, [state], partition, [1e6], trials=1, master_seed=0, k=1e-12
    )
    summary = report.summary_for(1e6)
    assert summary.feasible
    assert summary.rmse < 1e-6
    assert len(report.entries) == 4


def test_rmse_sweep_reports_infeasible_eps(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    partition = rn.Partition.from_blocks([[0, 1], [2, 3]])
    report = rmse_sweep(
        net, [state], partition, [1e-6, 1e6], trials=1, master_seed=0, k=50.0, bounds=(0.0, 1.0),
        clamp=(0.0, 1.0),
    )
    bad = report.summary_for(1e-6)
    assert not bad.feasible and "increase epsilon0" in bad.message
    good = report.summary_for(1e6)
    assert good.feasible


def test_rmse_sweep_scale_free_percentage_error(rng):
    net = make_network(rng, 6, beta=(0.1, 0.3))
    state = make_state(rng, 6, x=(0.2, 0.4))
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4, 5]])
    base = rmse_sweep(
        net, [state], partition, [2.0], trials=20, master_seed=9, k=1e-5, bounds=(0.0, 14.0)
    )
    scale = 0.5
    scaled_net = rn.TransmissionNetwork(b=net.b * scale, gamma=net.gamma)
    scaled = rmse_sweep(
        scaled_net,
        [state],
        partition,
        [2.0],
        trials=20,
        master_seed=9,
        k=1e-5 * scale,
        bounds=(0.0, 14.0 * scale),
    )
    assert scaled.summary_for(2.0).pct_error == pytest.approx(
        base.summary_for(2.0).pct_error, rel=1e-4
    )
    assert scaled.summary_for(2.0).rmse == pytest.approx(
        base.summary_for(2.0).rmse * scale, rel=1e-4
    )


def _bits(record):
    """A record's fields, with every float as its exact hex form (NaN included)."""
    return [
        (type(v), v.hex() if isinstance(v, float) else v) for v in dataclasses.astuple(record)
    ]


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    trials=st.sampled_from([1, 2, 3, 9]),  # 9: numpy sums 8 or more values pairwise
    k=st.sampled_from([1e-5, 1e-2, 2.0, 50.0]),
)
@example(seed=0, sizes=[9], trials=9, k=1e-2)  # a cluster of 9 members, 9 trials
@example(seed=1, sizes=[1, 2], trials=2, k=2.0)  # eps 0.06 on the inverse-CDF branch
@settings(max_examples=25, deadline=None)
def test_rmse_sweep_matches_per_trial_pipeline_property(seed, sizes, trials, k):
    gen = np.random.default_rng(seed)
    n = sum(sizes)
    net = make_network(gen, n)
    blocks = np.split(np.arange(n), np.cumsum(sizes)[:-1])
    partition = rn.Partition.from_blocks([block.tolist() for block in blocks])
    states = []
    for t in (0.0, 1.5):
        x = gen.uniform(1e-3, 0.2, n)
        s = 1.0 - x
        if n > 1:  # one authority's report all zero (with n = 1 every entry would be)
            s[gen.integers(n)] = 0.0
        states.append(rn.EpidemicState(t=t, s=s, x=x, r=1.0 - x - s))
    # 1e-12 is infeasible for every k, and so are 0.06 and 1 for k=50
    eps_grid = [1e-12, 0.06, 1.0, 1e6]
    settings_ = dict(k=k, bounds=(0.0, 1.0), clamp=(0.0, 1.0))
    batched = rmse_sweep(net, states, partition, eps_grid, trials, seed, **settings_)
    reference = oracles.rmse_sweep_reference(net, states, partition, eps_grid, trials, seed, **settings_)
    assert [_bits(row) for row in batched.summaries] == [_bits(row) for row in reference.summaries]
    assert [_bits(row) for row in batched.entries] == [_bits(row) for row in reference.entries]
    assert not batched.summary_for(1e-12).feasible
    assert not [row for row in batched.entries if row.eps == 1e-12]


def test_rmse_sweep_all_zero_exact_matrix_raises():
    net = rn.TransmissionNetwork(b=[[0.3]], gamma=[0.1])
    state = rn.EpidemicState(t=0.0, s=np.array([0.0]), x=np.array([0.4]), r=np.array([0.6]))
    with pytest.raises(UndefinedRatioError, match="every exact cluster entry is zero"):
        rmse_sweep(net, [state], rn.Partition.whole(1), [1.0], trials=3, master_seed=0)


def test_rmse_sweep_all_zero_exact_matrix_draws_no_noise(monkeypatch):
    net = rn.TransmissionNetwork(b=[[0.3]], gamma=[0.1])
    state = rn.EpidemicState(t=0.0, s=np.array([0.0]), x=np.array([0.4]), r=np.array([0.6]))

    def no_noise(*args, **kwargs):
        raise AssertionError("noise drawn")

    # the noise kernel that the sweep calls; the exact reports are all zero, so the
    # sampler inside it would never run, and only a call of the kernel shows noise drawn
    monkeypatch.setattr("repronet.analysis.private_reports", no_noise)
    with pytest.raises(UndefinedRatioError, match="every exact cluster entry is zero"):
        rmse_sweep(net, [state], rn.Partition.whole(1), [1.0], trials=3, master_seed=0)


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except RepronetError as exc:
        return type(exc), str(exc)


def _hex(values):
    return [v.hex() for v in np.ravel(values).tolist()]


def _state_bits(states):
    """Every state's time and fractions, floats as their exact hex forms."""
    return [_hex([s.t, *s.s, *s.x, *s.r]) for s in states]


def _report_bits(report):
    if not isinstance(report, rn.ThresholdReport):
        return report
    return [_bits(row) for row in report.nodes + report.clusters]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    kind=st.sampled_from(list(rn.ModelKind)),
    floor=st.sampled_from(["zero", "tiny", "vector"]),
    steps=st.integers(0, 120),
    dt=st.sampled_from([0.05, 0.5, 2.0, 50.0]),  # 2: round-off clamps; 50: leaves [0, 1]
    zero_node=st.booleans(),  # x = 0 at one node of the initial state
    window=st.tuples(
        st.none() | st.integers(-20, 20), st.none() | st.integers(-20, 130), st.integers(1, 9)
    ),
)
@example(seed=3, n=4, kind=rn.ModelKind.SIR, floor="zero", steps=50, dt=50.0, zero_node=False,
         window=(None, None, 1))
@example(seed=5, n=12, kind=rn.ModelKind.SIS, floor="vector", steps=60, dt=0.5, zero_node=True,
         window=(1, None, 4))
@example(seed=22, n=1, kind=rn.ModelKind.SIS, floor="zero", steps=120, dt=2.0, zero_node=False,
         window=(3, -5, 2))  # three steps clamp round-off above 1
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_array_trajectory_matches_per_state_loops_property(
    seed, n, kind, floor, steps, dt, zero_node, window
):
    gen = np.random.default_rng(seed)
    net = make_network(gen, n)
    state = make_state(gen, n, with_r=kind is rn.ModelKind.SIR)
    if zero_node:
        i = gen.integers(n)
        s, x = state.s.copy(), state.x.copy()
        s[i], x[i] = s[i] + x[i], 0.0
        state = rn.EpidemicState(t=0.0, s=s, x=x, r=state.r)
    floor = {"zero": 0.0, "tiny": 1e-9, "vector": gen.uniform(0.0, 0.1, n)}[floor]

    new = _outcome(rn.integrate, net, state, kind, dt, steps)
    old = _outcome(oracles.integrate_reference, net, state, kind, dt, steps)
    if not isinstance(old, list):  # the same error, raised at the same step
        assert new == old
        return
    assert new[0] is state
    partition = rn.Partition.from_blocks(np.array_split(np.arange(n), min(n, 3)))
    for cut in (slice(None), slice(*window)):
        assert isinstance(new[cut], rn.Trajectory)
        assert _state_bits(new[cut]) == _state_bits(old[cut])
        rates = np.moveaxis(rn.derivative(net, new[cut], kind), 1, 0)  # (T, 3, n)
        old_rates = [np.stack(oracles.derivative(net, st, kind)) for st in old[cut]]
        assert [_hex(row) for row in rates] == [_hex(row) for row in old_rates]
        assert trichotomy_counts(net, new[cut], kind, floor) == (
            oracles.trichotomy_counts_reference(net, old[cut], kind, floor)
        )
        assert _report_bits(_outcome(threshold_report, net, new[cut], partition, kind, floor)) == (
            _report_bits(
                _outcome(oracles.threshold_report_reference, net, old[cut], partition, kind, floor)
            )
        )


def test_trichotomy_counts_on_trajectory(rng):
    net = make_network(rng, 5)
    state = make_state(rng, 5)
    traj = rn.integrate(net, state, rn.ModelKind.SIR, 0.05, 400)
    agree, total = trichotomy_counts(net, traj, rn.ModelKind.SIR, floor=0.0)
    assert total > 0
    assert agree == total


def test_threshold_report_disease_free(rng):
    net = make_network(rng, 4)
    state = rn.EpidemicState(t=0.0, s=np.ones(4), x=np.zeros(4))
    traj = rn.integrate(net, state, rn.ModelKind.SIS, 0.1, 50)
    report = threshold_report(net, traj, rn.Partition.whole(4), rn.ModelKind.SIS)
    assert all(row.first_crossing_t is None for row in report.nodes)
    assert all(row.first_crossing_t is None for row in report.clusters)
    assert all(row.samples == 0 for row in report.nodes)


def test_threshold_report_scalar_sis_crossing():
    beta, gamma = 0.3, 0.1
    net = rn.TransmissionNetwork(b=[[beta]], gamma=[gamma])
    level = 1.0 - gamma / beta  # s = gamma/beta there, so lern = 1

    # the true SIS trajectory approaches the endemic level monotonically:
    # lern stays on one side of one and the sign relation holds pointwise
    state = rn.EpidemicState(t=0.0, s=np.array([0.99]), x=np.array([0.01]))
    traj = rn.integrate(net, state, rn.ModelKind.SIS, 0.05, 2000)
    from repronet.reproduction import lern_vector

    for sample in traj[::100]:
        gap = lern_vector(net, sample, floor=0.0)[0] - 1.0
        assert np.sign(gap) == np.sign(level - sample.x[0])
    report = threshold_report(net, traj, rn.Partition.whole(1), rn.ModelKind.SIS)
    assert report.nodes[0].first_crossing_t is None
    assert report.nodes[0].agreement_rate == 1.0

    # a sampled path that does pass the level: lern crosses one at that sample
    xs = np.linspace(0.3, 0.9, 61)
    ramp = [
        rn.EpidemicState(t=float(k), s=np.array([1.0 - x]), x=np.array([x]))
        for k, x in enumerate(xs)
    ]
    report = threshold_report(net, ramp, rn.Partition.whole(1), rn.ModelKind.SIS)
    crossing = report.nodes[0].first_crossing_t
    expected = float(np.argmax(xs > level))
    assert crossing == pytest.approx(expected)


def test_threshold_report_sign_agreement(rng):
    net = make_network(rng, 10)
    state = make_state(rng, 10, x=(0.01, 0.08))
    traj = rn.integrate(net, state, rn.ModelKind.SIR, 0.05, 1000)
    partition = rn.Partition.from_blocks([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
    report = threshold_report(net, traj, partition, rn.ModelKind.SIR, floor=0.0)
    for row in report.nodes + report.clusters:
        assert row.samples > 0
        assert row.agreement_rate >= 0.999
    assert all(row.peak_t >= 0.0 for row in report.nodes)


def _report_instance(seed, n, kind, steps, dt):
    gen = np.random.default_rng(seed)
    net = make_network(gen, n, density=min(0.4, 4 / n))  # row sums near one at every n
    trajectory = rn.integrate(net, make_state(gen, n, with_r=kind is rn.ModelKind.SIR), kind, dt, steps)
    floors = {"scalar": 1e-9, "zero": 0.0, "vector": gen.uniform(0.0, 0.1, n)}
    return net, trajectory, rn.Partition.from_blocks(np.array_split(np.arange(n), min(n, 3))), floors


@pytest.mark.parametrize("n", [7, 200])
@pytest.mark.parametrize("extra", [None, -1, 0, 1], ids=["T=1", "block-1", "block", "block+1"])
@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_blocked_threshold_report_matches_whole_array(n, extra):
    rows = analysis._REPORT_BLOCK // n  # rows per block
    steps = 0 if extra is None else rows + extra - 1
    for kind in rn.ModelKind:
        net, trajectory, partition, floors = _report_instance(n + steps, n, kind, steps, 25.0 / max(steps, 1))
        assert len(trajectory) == steps + 1
        for floor in floors.values():
            args = (net, trajectory, partition, kind, floor)
            want = _outcome(oracles.threshold_report_whole_array_reference, *args)
            assert _report_bits(_outcome(threshold_report, *args)) == _report_bits(want)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    kind=st.sampled_from(list(rn.ModelKind)),
    floor=st.sampled_from(["scalar", "zero", "vector"]),
    steps=st.integers(0, 120),
    dt=st.sampled_from([0.05, 0.5, 2.0]),
    block=st.sampled_from([1, 5, 64]),  # entries per block: 1 makes every row a block
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_threshold_report_in_small_blocks_matches_whole_array_property(
    seed, n, kind, floor, steps, dt, block
):
    try:
        net, trajectory, partition, floors = _report_instance(seed, n, kind, steps, dt)
    except IntegrationError:  # dt too large for this network
        return
    args = (net, trajectory, partition, kind, floors[floor])
    want = _outcome(oracles.threshold_report_whole_array_reference, *args)
    with mock.patch.object(analysis, "_REPORT_BLOCK", block):
        got = _outcome(threshold_report, *args)
    assert _report_bits(got) == _report_bits(want)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    kind=st.sampled_from(list(rn.ModelKind)),
    floor=st.sampled_from(["scalar", "zero", "vector"]),
    steps=st.integers(0, 120),
    dt=st.sampled_from([0.05, 0.5, 2.0]),
    block=st.sampled_from([1, 5, 64, analysis._REPORT_BLOCK]),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_streamed_threshold_report_matches_whole_array_property(seed, n, kind, floor, steps, dt, block):
    # the integrator's blocks (1, 1, 2, 4, ... rows) are split and joined into report blocks
    try:
        net, trajectory, partition, floors = _report_instance(seed, n, kind, steps, dt)
    except IntegrationError:  # dt too large for this network
        return
    args = (partition, kind, floors[floor])
    want = _outcome(oracles.threshold_report_whole_array_reference, net, trajectory, *args)
    with mock.patch.object(analysis, "_REPORT_BLOCK", block):
        got = _outcome(threshold_report, net, rn.integrate_blocks(net, trajectory[0], kind, dt, steps), *args)
    assert _report_bits(got) == _report_bits(want)


def test_streamed_threshold_report_needs_a_row(rng):
    net = make_network(rng, 3)
    with pytest.raises(ConfigError, match="at least one state"):
        threshold_report(net, iter([]), rn.Partition.whole(3))


@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_threshold_report_carries_crossings_and_peaks_across_row_blocks():
    # one row per block: every crossing and every later peak is found against a block before
    net, trajectory, partition, _ = _report_instance(11, 8, rn.ModelKind.SIR, 400, 0.1)
    # x swings around the SIS level 2/3 (a crossing at every row) and then holds (tied peaks)
    scalar = rn.TransmissionNetwork(b=[[0.3]], gamma=[0.1])
    xs = [0.5, 0.8, 0.5, 0.8, 0.5, 0.9, 0.9, 0.9]
    swings = [rn.EpidemicState(t=float(k), s=[1.0 - x], x=[x]) for k, x in enumerate(xs)]
    cases = [
        (net, trajectory, partition, rn.ModelKind.SIR),
        (scalar, swings, rn.Partition.whole(1), rn.ModelKind.SIS),
    ]
    for net, states, partition, kind in cases:
        want = oracles.threshold_report_whole_array_reference(net, states, partition, kind)
        with mock.patch.object(analysis, "_REPORT_BLOCK", 1):
            got = threshold_report(net, states, partition, kind)
        assert _report_bits(got) == _report_bits(want)
    rows = want.nodes + want.clusters
    assert (rows[0].first_crossing_t, rows[0].peak_t) == (1.0, 5.0)
    rows = threshold_report(*cases[0]).nodes
    assert any(row.first_crossing_t is not None for row in rows)
    assert any(row.peak_t > trajectory.t[0] for row in rows)


def test_threshold_report_memory_is_a_few_blocks(rng):
    net = make_network(rng, 200, density=0.1)
    trajectory = rn.integrate(net, make_state(rng, 200, with_r=True), rn.ModelKind.SIR, 0.01, 2000)
    partition = rn.Partition(10, np.arange(200) * 10 // 200)
    held = sum(a.nbytes for a in (trajectory.t, trajectory.s, trajectory.x, trajectory.r))
    tracemalloc.start()
    try:
        threshold_report(net, trajectory, partition, rn.ModelKind.SIR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < held / 4
