import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet.exceptions import ConfigError, ProtocolError
from repronet.protocol import (
    LocalAggVector,
    ShuffledBatch,
    run_pipeline,
    step3_preaggregate,
    step6_assemble,
)
from repronet.reproduction import cluster_matrix, floored_infections, report_matrix


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
