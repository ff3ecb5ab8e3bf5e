import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet import protocol
from repronet.exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    ProtocolError,
    RepronetError,
    UndefinedRatioError,
)
from repronet.protocol import (
    LocalAggVector,
    ShuffledBatch,
    private_reports,
    run_pipeline,
    step3_preaggregate,
    step6_assemble,
)
from repronet.reproduction import (
    DEFAULT_INFECTION_FLOOR,
    cluster_matrix,
    floored_infections,
    report_matrix,
)
from repronet.seeding import StreamRole, stream_words


def figure_partition():
    return rn.Partition.from_blocks([[0, 1], [2, 3], [4, 5, 6]])


def seven_node_instance(rng):
    net = make_network(rng, 7)
    state = make_state(rng, 7, with_r=True)
    return net, state, figure_partition()


def test_preaggregate_matches_scalar_oracle(rng):
    net, state, partition = seven_node_instance(rng)
    x_f = floored_infections(state.x)
    for i in range(7):
        vec = step3_preaggregate(net, state, partition, i)
        assert vec.authority_id == i
        assert not vec.private
        for r in range(3):
            expected = oracles.preaggregate(
                net.b[i], net.gamma[i], state.s[i], x_f, i, partition.members(r)
            )
            assert vec.entries[r] == pytest.approx(expected, rel=1e-12)


def test_preaggregate_off_cluster_entries_zero(rng):
    # node 0 receives only from its own cluster {0, 1}
    b = np.zeros((4, 4))
    b[0, 0] = 0.2
    b[0, 1] = 0.1
    b[1, 0] = 0.1
    b[1, 2] = 0.3
    b[2, 3] = 0.2
    b[3, 0] = 0.1
    b[2, 1] = 0.2
    net = rn.TransmissionNetwork(b=b, gamma=np.full(4, 0.3))
    state = make_state(rng, 4)
    partition = rn.Partition.from_blocks([[0, 1], [2, 3]])
    # entry r is zero exactly when node i has no inbound edge from cluster r
    for i in range(4):
        vec = step3_preaggregate(net, state, partition, i)
        for r in range(2):
            has_edge = bool(np.any(b[i, partition.members(r)] > 0.0))
            assert (vec.entries[r] > 0.0) == has_edge


def test_preaggregate_singleton_partition(rng):
    net, state, _ = seven_node_instance(rng)
    partition = rn.Partition.singletons(7)
    x_f = floored_infections(state.x)
    i = 3
    vec = step3_preaggregate(net, state, partition, i)
    for j in range(7):
        expected = net.gamma[i] * x_f[i] * rn.local_distributed_ern(net, state, i, j)
        assert vec.entries[j] == pytest.approx(expected, rel=1e-12)


def test_preaggregate_uses_only_own_row(rng):
    net, state, partition = seven_node_instance(rng)
    vec = step3_preaggregate(net, state, partition, 2)
    mutated = np.array(net.b)
    mutated[5] = np.roll(mutated[5], 1)
    mutated[5, 6] = 0.29  # keep the ring edge so the graph stays connected
    other = rn.TransmissionNetwork(b=mutated, gamma=net.gamma)
    vec_other = step3_preaggregate(other, state, partition, 2)
    np.testing.assert_array_equal(vec.entries, vec_other.entries)
    mutated_own = np.array(net.b)
    mutated_own[2] = mutated_own[2] * 0.5
    mutated_own[2, 3] = 0.3
    own = rn.TransmissionNetwork(b=mutated_own, gamma=net.gamma)
    assert np.any(step3_preaggregate(own, state, partition, 2).entries != vec.entries)


def test_assemble_single_member(rng):
    net, state, _ = seven_node_instance(rng)
    partition = rn.Partition.singletons(7)
    i = 4
    vec = step3_preaggregate(net, state, partition, i)
    batch = ShuffledBatch(cluster=i, t=state.t, vectors=(vec.anonymized(),))
    values = step6_assemble(batch, partition, net.gamma, state.x, i)
    x_f = floored_infections(state.x)
    np.testing.assert_allclose(values, vec.entries / (net.gamma[i] * x_f[i]), rtol=1e-12)


def test_assemble_permutation_invariant(rng):
    net, state, partition = seven_node_instance(rng)
    vectors = [step3_preaggregate(net, state, partition, i).anonymized() for i in (4, 5, 6)]
    base = step6_assemble(
        ShuffledBatch(cluster=2, t=state.t, vectors=tuple(vectors)),
        partition,
        net.gamma,
        state.x,
        2,
    )
    for order in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
        permuted = step6_assemble(
            ShuffledBatch(cluster=2, t=state.t, vectors=tuple(vectors[k] for k in order)),
            partition,
            net.gamma,
            state.x,
            2,
        )
        np.testing.assert_array_equal(base, permuted)


def test_assemble_hand_computed(rng):
    net, state, partition = seven_node_instance(rng)
    members = partition.members(2)
    vectors = [step3_preaggregate(net, state, partition, int(i)) for i in members]
    batch = ShuffledBatch(cluster=2, t=state.t, vectors=tuple(v.anonymized() for v in vectors))
    values = step6_assemble(batch, partition, net.gamma, state.x, 2)
    x_f = floored_infections(state.x)
    for r in range(3):
        expected = oracles.assemble(
            [v.entries[r] for v in vectors], net.gamma, x_f, members
        )
        assert values[r] == pytest.approx(expected, rel=1e-12)


def test_assemble_batch_size_mismatch(rng):
    net, state, partition = seven_node_instance(rng)
    vec = step3_preaggregate(net, state, partition, 4).anonymized()
    batch = ShuffledBatch(cluster=2, t=state.t, vectors=(vec,))
    with pytest.raises(ProtocolError):
        step6_assemble(batch, partition, net.gamma, state.x, 2)
    # a batch is assembled only as the cluster it was shuffled for
    members = partition.members(0)
    vectors = tuple(step3_preaggregate(net, state, partition, int(i)).anonymized() for i in members)
    assert members.size == partition.members(1).size
    with pytest.raises(ProtocolError, match="batch of cluster 1"):
        step6_assemble(
            ShuffledBatch(cluster=1, t=state.t, vectors=vectors), partition, net.gamma, state.x, 0
        )


def test_pipeline_equivalence_without_privacy(rng):
    for trial in range(25):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(2, 5))
        if m > n:
            continue
        net = make_network(rng, n)
        state = make_state(rng, n, with_r=True)
        assignment = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        partition = rn.Partition(m=m, assignment=assignment)
        direct = cluster_matrix(net, state, partition)
        piped = run_pipeline(net, state, partition, None, master_seed=trial)
        assert np.max(np.abs(direct.values - piped.values)) < 1e-12
        assert not piped.private


def test_pipeline_whole_network_cluster(rng):
    net = make_network(rng, 5)
    state = make_state(rng, 5)
    partition = rn.Partition.whole(5)
    piped = run_pipeline(net, state, partition, None)
    assert piped.values.shape == (1, 1)
    assert piped.values[0, 0] == pytest.approx(rn.cern(net, state, partition, 0), rel=1e-12)


def test_pipeline_degenerate_noise(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6, x=(0.05, 0.2))
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4, 5]])
    spec = rn.PrivacySpec(epsilon0=1e6, k=1e-12, bounds=(0.0, 14.0))
    exact = cluster_matrix(net, state, partition)
    private = run_pipeline(net, state, partition, spec, master_seed=3)
    assert private.private
    assert np.max(np.abs(private.values - exact.values)) < 1e-6


def test_pipeline_deterministic(rng):
    net = make_network(rng, 8)
    state = make_state(rng, 8)
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4], [5, 6, 7]])
    spec = rn.PrivacySpec(epsilon0=2.0, k=1e-5, bounds=(0.0, 14.0))
    first = run_pipeline(net, state, partition, spec, master_seed=11)
    second = run_pipeline(net, state, partition, spec, master_seed=11)
    np.testing.assert_array_equal(first.values, second.values)
    different = run_pipeline(net, state, partition, spec, master_seed=12)
    assert np.any(different.values != first.values)


def test_pipeline_handles_all_zero_report(rng):
    # a fully infected node (s=0) legitimately reports an all-zero vector;
    # the randomizer must pass it through rather than fail to calibrate
    net = make_network(rng, 4)
    s = np.array([0.0, 0.7, 0.7, 0.7])
    x = np.array([0.3, 0.1, 0.1, 0.1])
    state = rn.EpidemicState(t=0.0, s=s, x=x, r=1.0 - s - x)
    partition = rn.Partition.from_blocks([[0, 1], [2, 3]])
    spec = rn.PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.0, 14.0))
    private = run_pipeline(net, state, partition, spec, master_seed=2)
    exact = cluster_matrix(net, state, partition)
    assert private.values.shape == exact.values.shape
    assert np.all(np.isfinite(private.values))
    vec = step3_preaggregate(net, state, partition, 0)
    assert np.all(vec.entries == 0.0)


def test_pipeline_trial_streams_are_independent(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6)
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4, 5]])
    spec = rn.PrivacySpec(epsilon0=1.0, k=1e-4, bounds=(0.0, 14.0))
    a = run_pipeline(net, state, partition, spec, master_seed=5, trial=0)
    b = run_pipeline(net, state, partition, spec, master_seed=5, trial=1)
    assert np.any(a.values != b.values)


def test_anonymization_strips_sender():
    vec = LocalAggVector(entries=np.array([1.0]), t=0.0, authority_id=5, private=True)
    anon = vec.anonymized()
    assert anon.authority_id is None
    assert anon.private
    np.testing.assert_array_equal(anon.entries, vec.entries)


def test_pipeline_trace(rng):
    net, state, partition = seven_node_instance(rng)
    sink = io.StringIO()
    run_pipeline(net, state, partition, None, master_seed=1, trace=sink)
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert lines, "trace should not be empty"
    for line in lines:
        assert set(line) == {"step", "from", "to", "payload_digest"}
        assert isinstance(line["payload_digest"], str) and len(line["payload_digest"]) == 16
    steps = [line["step"] for line in lines]
    assert steps == sorted(steps)
    assert steps[0] == 1 and steps[-1] == 7


def test_pipeline_size_mismatch(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 5)
    partition = rn.Partition.from_blocks([[0, 1], [2, 3]])
    with pytest.raises(ConfigError):
        run_pipeline(net, state, partition, None)


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
)
@settings(max_examples=25)
def test_single_row_reports_and_pipeline_match_full_matrix_property(seed, sizes):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    net = make_network(rng, n)
    state = make_state(rng, n, with_r=True)
    assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    partition = rn.Partition(m=len(sizes), assignment=assignment)
    clamp = (0.0, 14.0)
    full = report_matrix(
        net.b, net.gamma, state.s, floored_infections(state.x), np.arange(n), partition, clamp
    )
    for i in range(n):
        row = step3_preaggregate(net, state, partition, i, clamp=clamp).entries
        assert row.tobytes() == full[i].tobytes()
    direct = cluster_matrix(net, state, partition, clamp=clamp).values
    piped = run_pipeline(net, state, partition, None, clamp=clamp).values
    assert direct.tobytes() == piped.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    private=st.booleans(),
    clamp=st.sampled_from([None, (0.0, 14.0)]),
)
@settings(max_examples=30, deadline=None)
def test_pipeline_matches_actor_reference_property(seed, sizes, private, clamp):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    net = make_network(rng, n)
    state = make_state(rng, n, with_r=True)
    assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    partition = rn.Partition(m=len(sizes), assignment=assignment)
    spec = rn.PrivacySpec(epsilon0=2.0, k=1e-4, bounds=(0.0, 14.0)) if private else None
    settings_ = dict(master_seed=seed % 1000, epoch=3, trial=1, clamp=clamp)
    sink, reference_sink = io.StringIO(), io.StringIO()
    piped = run_pipeline(net, state, partition, spec, trace=sink, **settings_)
    reference = oracles.run_pipeline_reference(
        net, state, partition, spec, trace=reference_sink, **settings_
    )
    assert piped.values.tobytes() == reference.values.tobytes()
    assert (piped.t, piped.private) == (reference.t, reference.private)
    assert sink.getvalue() == reference_sink.getvalue()


def _raised(fn, *args, **kwargs):
    """The type of the exception ``fn`` raises; fails if it returns."""
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return info.type


SPEC = rn.PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.0, 14.0))
INFEASIBLE = rn.PrivacySpec(epsilon0=1e-6, k=50.0, bounds=(0.0, 14.0))


@pytest.mark.parametrize(
    "case, spec, expected",
    [
        ("zero_infection", None, UndefinedRatioError),
        ("zero_infection", SPEC, UndefinedRatioError),
        ("infeasible", INFEASIBLE, CalibrationInfeasibleError),
        ("size_mismatch", None, ConfigError),
        ("size_mismatch", SPEC, ConfigError),
        ("negative_epoch", None, ConfigError),  # no stream is drawn from, but its key is bad
    ],
    ids=["zero_infection", "zero_infection_private", "infeasible", "size_mismatch",
         "size_mismatch_private", "negative_epoch"],
)
def test_pipeline_errors_match_actor_reference(rng, case, spec, expected):
    net, state, partition = seven_node_instance(rng)
    floor = 0.0 if case == "zero_infection" else DEFAULT_INFECTION_FLOOR
    if case == "zero_infection":
        x = state.x.copy()
        x[3] = 0.0
        state = rn.EpidemicState(t=state.t, s=state.s, x=x, r=1.0 - state.s - x)
    elif case == "size_mismatch":
        state = make_state(rng, 6)
    kwargs = dict(floor=floor, epoch=-1 if case == "negative_epoch" else 0)
    sink = io.StringIO()
    assert _raised(oracles.run_pipeline_reference, net, state, partition, spec, **kwargs) is expected
    assert _raised(run_pipeline, net, state, partition, spec, **kwargs) is expected
    assert _raised(run_pipeline, net, state, partition, spec, trace=sink, **kwargs) is expected
    assert sink.getvalue() == ""  # a failing epoch writes no partial trace


def test_pipeline_rejects_negative_draws_without_trace(rng):
    # a noise box reaching below zero can draw a negative report entry; the
    # report check must fire whether or not the messages are built
    net, state, partition = seven_node_instance(rng)
    spec = rn.PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(-5.0, 14.0))
    with pytest.raises(ConfigError, match="report entries"):
        oracles.run_pipeline_reference(net, state, partition, spec, master_seed=1)
    with pytest.raises(ConfigError, match="report entries"):
        run_pipeline(net, state, partition, spec, master_seed=1)


def test_untraced_pipeline_builds_no_messages(rng, monkeypatch):
    net, state, partition = seven_node_instance(rng)
    specs = (None, rn.PrivacySpec(epsilon0=1.0, k=1e-4, bounds=(0.0, 14.0)))
    expected = [run_pipeline(net, state, partition, spec, master_seed=4).values.tobytes() for spec in specs]

    def forbidden(*args, **kwargs):
        raise AssertionError("message or actor built without a trace")

    names = ["LocalAuthority", "LocalAggVector", "Request", "Report", "ShuffledBatch",
             "ClusterVector", "MatrixMessage", "shuffle"]
    for name in names:
        monkeypatch.setattr(f"repronet.protocol.{name}", forbidden)
    got = [run_pipeline(net, state, partition, spec, master_seed=4).values.tobytes() for spec in specs]
    assert got == expected


def _outcome(fn, *args):
    """The bytes ``fn`` returns, or the type and message of the package error it raises."""
    try:
        return fn(*args).tobytes()
    except RepronetError as exc:
        return type(exc), str(exc)


PARITY_SPECS = [
    SPEC,
    rn.PrivacySpec(epsilon0=0.05, k=30.0, bounds=(0.0, 14.0)),  # feasible for one active entry only
    INFEASIBLE,
    rn.PrivacySpec(epsilon0=1.0, k=1.0, bounds=(-1.0, 14.0)),  # draws can fall below zero
    rn.PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.5, 14.0)),  # positive values at or below the box
]
# zero, in the box of every spec, on the upper edge, on or below the raised lower edge,
# above the box, negative
PARITY_ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, 14.0, 0.5, 0.25, 15.0, -1.0]),
    st.floats(1e-3, 13.0),
)


@given(
    spec=st.sampled_from(PARITY_SPECS),
    reports=st.integers(0, 6).flatmap(
        lambda n: st.integers(1, 4).flatmap(
            lambda m: st.lists(st.lists(PARITY_ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n)
            .map(lambda rows: np.array(rows, dtype=float).reshape(n, m))
        )
    ),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    cap=st.sampled_from([1, 2, 7, 256]),
)
@settings(max_examples=300, deadline=None)
def test_private_reports_match_per_authority_reference_property(spec, reports, trials, seed, cap):
    # the same bytes, or the same error, as one randomizer call per authority in order:
    # the first failing authority wins, its calibration checked before its values
    words = stream_words(seed, StreamRole.LOCAL_AUTHORITY, range(len(reports)), 2, range(trials))
    expected = _outcome(oracles.private_reports_reference, reports, spec, words)
    with mock.patch.object(protocol, "_GENERATORS_PER_CALL", cap):  # groups split across calls
        assert _outcome(private_reports, reports, spec, words) == expected
