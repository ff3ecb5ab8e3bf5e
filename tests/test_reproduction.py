import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import repronet as rn
from conftest import make_network, make_state
from repronet import analysis
from repronet.exceptions import ConfigError, ConvergenceError, UndefinedRatioError
from repronet.reproduction import MatrixKind, cern_vector, floored_infections, lern_vector, report_matrix


def test_absent_edge_gives_zero(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    b = np.array(net.b)
    b[2, 0] = 0.0
    net = rn.TransmissionNetwork(b=b, gamma=net.gamma)
    assert rn.local_distributed_ern(net, state, 2, 0) == 0.0


def test_endogenous_at_full_susceptibility():
    net = rn.TransmissionNetwork(b=[[0.25]], gamma=[0.5])
    state = rn.EpidemicState(t=0.0, s=np.array([1.0]), x=np.array([0.0]), r=np.array([0.0]))
    # flooring supplies the positive infection the ratio needs; i == j keeps it at 1
    assert rn.local_distributed_ern(net, state, 0, 0) == pytest.approx(0.5)


def test_hand_evaluated_exogenous_value():
    b = np.array([[0.05, 0.2], [0.3, 0.1]])
    net = rn.TransmissionNetwork(b=b, gamma=np.array([0.1, 0.4]))
    state = rn.EpidemicState(
        t=0.0, s=np.array([0.5, 0.6]), x=np.array([0.01, 0.02]), r=np.array([0.49, 0.38])
    )
    assert rn.local_distributed_ern(net, state, 0, 1) == pytest.approx(2.0, rel=1e-12)
    assert rn.local_distributed_ern(net, state, 0, 1) == pytest.approx(
        oracles.local_ern(b, net.gamma, state.s, state.x, 0, 1), rel=1e-12
    )


def test_zero_infection_without_floor_raises(rng):
    net = make_network(rng, 3)
    state = rn.EpidemicState(t=0.0, s=np.array([1.0, 0.9, 0.9]), x=np.array([0.0, 0.1, 0.1]))
    with pytest.raises(UndefinedRatioError):
        rn.lern(net, state, 0, floor=0.0)
    # the default floor keeps the ratio defined
    assert np.isfinite(rn.lern(net, state, 0))


def test_basic_matrix_identity_case():
    gamma = np.array([0.2, 0.5, 0.9])
    b = np.diag(gamma)
    # self-loops only would be disconnected; wire a weak ring and zero it in kind checks
    b[0, 1] = b[1, 2] = b[2, 0] = 1e-9
    net = rn.TransmissionNetwork(b=b, gamma=gamma)
    basic = rn.build_matrix(net, None, MatrixKind.BASIC)
    np.testing.assert_allclose(np.diag(basic.values), np.ones(3))


def test_effective_equals_pseudo_for_uniform_infection(rng):
    net = make_network(rng, 5)
    x = np.full(5, 0.07)
    state = rn.EpidemicState(t=1.0, s=1.0 - x, x=x)
    eff = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    pseudo = rn.build_matrix(net, state, MatrixKind.PSEUDO_EFFECTIVE)
    np.testing.assert_allclose(eff.values, pseudo.values, rtol=1e-12)


def test_row_sums_equal_lern_bitwise(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    eff = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    for i in range(4):
        assert float(np.sum(eff.values[i])) == rn.lern(net, state, i)


def test_lern_matches_scalar_oracle(rng):
    b = [[0.2, 0.1, 0.0], [0.05, 0.3, 0.25], [0.1, 0.0, 0.15]]
    gamma = [0.2, 0.3, 0.25]
    net = rn.TransmissionNetwork(b=b, gamma=gamma)
    state = make_state(rng, 3)
    for i in range(3):
        expected = oracles.lern(b, gamma, state.s, state.x, i)
        assert rn.lern(net, state, i) == pytest.approx(expected, rel=1e-12)


def test_single_node_reproduction_numbers():
    # node with no inbound edges other than its self-loop, fully susceptible
    net = rn.TransmissionNetwork(b=[[0.4]], gamma=[0.25])
    assert rn.lbrn(net, 0) == pytest.approx(1.6)
    state = rn.EpidemicState(t=0.0, s=np.array([1.0]), x=np.array([0.0]))
    assert rn.lern(net, state, 0) == pytest.approx(1.6)


def test_lern_sign_tracks_infection_derivative(rng):
    net = make_network(rng, 5)
    state = make_state(rng, 5)
    traj = rn.integrate(net, state, rn.ModelKind.SIS, 0.05, 400)
    for sample in traj[:: 40]:
        gaps = lern_vector(net, sample, floor=0.0) - 1.0
        xdot = rn.derivative(net, sample, rn.ModelKind.SIS)[1]
        keep = np.abs(gaps) > 1e-6
        assert np.all(np.sign(xdot[keep]) == np.sign(gaps[keep]))


def test_spectral_radius_examples():
    assert rn.spectral_radius(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    assert rn.spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, rel=1e-10)
    assert rn.spectral_radius(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, rel=1e-10)


def test_spectral_radius_against_dense_oracle(rng):
    for _ in range(20):
        mat = rng.uniform(0.0, 1.0, (6, 6))
        assert rn.spectral_radius(mat) == pytest.approx(oracles.spectral_radius(mat), rel=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    shape=st.sampled_from(
        ["dense", "zero_row", "upper_block_dominant", "lower_block_dominant", "equal_roots", "chain"]
    ),
    scale=st.floats(1e-4, 1.0),
)
@example(seed=0, n=6, shape="dense", scale=1e-4)
@example(seed=0, n=5, shape="chain", scale=1.0)
@settings(max_examples=60, deadline=None)
def test_spectral_radius_bracket_matches_oracle_property(seed, n, shape, scale):
    # A zero row or a dominant upper-left block gives a Perron vector with zero
    # entries; a scale of 1e-4 puts the root far below a unit shift.  Equal
    # block roots make the root defective, where eigvals is accurate to about
    # 1e-8 only, so those shapes take the largest root over the diagonal blocks.
    gen = np.random.default_rng(seed)
    mat = gen.uniform(0.0, 1.0, (n, n))
    if shape == "zero_row":
        mat[gen.integers(0, n)] = 0.0
    elif shape in ("equal_roots", "chain"):
        # two blocks, or three in a chain, each feeding only the next, all of root 1
        cuts = np.sort(gen.choice(np.arange(1, n), min(n - 1, 1 if shape == "equal_roots" else 2), replace=False))
        blocks = np.split(np.arange(n), cuts)
        for a, rows in enumerate(blocks):
            for b, cols in enumerate(blocks):
                if b not in (a, a - 1):
                    mat[np.ix_(rows, cols)] = 0.0
            mat[np.ix_(rows, rows)] /= oracles.spectral_radius(mat[np.ix_(rows, rows)])
    elif shape != "dense":
        cut = int(gen.integers(1, n))
        mat[cut:, :cut] = 0.0
        # the blocks' roots differ by at least 10%, so the gap is not tiny
        ratio = gen.uniform(0.1, 0.9)
        head, tail = oracles.spectral_radius(mat[:cut, :cut]), oracles.spectral_radius(mat[cut:, cut:])
        if shape == "upper_block_dominant":
            mat[cut:, cut:] *= ratio * head / tail
        else:
            mat[:cut, :cut] *= ratio * tail / head
    mat *= scale
    if shape in ("equal_roots", "chain"):
        expected = max(oracles.spectral_radius(mat[np.ix_(rows, rows)]) for rows in blocks)
    else:
        expected = oracles.spectral_radius(mat)
    assert rn.spectral_radius(mat) == pytest.approx(expected, rel=1e-11)


def test_spectral_radius_keeps_iteration_budget():
    # defective roots, which a power iteration over the whole matrix closes
    # only like 1/t, are exact on the components' blocks
    assert rn.spectral_radius(np.array([[1.0, 1.0], [0.0, 1.0]])) == 1.0
    assert rn.spectral_radius(np.eye(3) + np.eye(3, k=1)) == 1.0
    assert rn.spectral_radius(np.array([[0.5, 0.5], [0.0, 0.5]])) == 0.5
    two_cycles = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    two_cycles[1, 2] = 1.0
    assert rn.spectral_radius(two_cycles) == 1.0
    with pytest.raises(ConvergenceError):
        rn.spectral_radius(np.array([[1.0, 2.0], [3.0, 1.0]]), max_iter=1)


def test_spectral_radius_of_acyclic_support_is_zero():
    assert rn.spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    assert rn.spectral_radius(np.triu(np.arange(1.0, 26.0).reshape(5, 5), k=1)) == 0.0
    # a strongly connected network whose effective matrix loses every cycle
    # once s = 0 zeroes the rows of nodes 2 and 3
    b = np.array(
        [[0.0, 0.3, 0.0, 0.0], [0.0, 0.0, 0.2, 0.1], [0.4, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]]
    )
    net = rn.TransmissionNetwork(b=b, gamma=[0.2, 0.3, 0.4, 0.5])
    state = rn.EpidemicState(
        t=0.0, s=np.array([0.9, 0.8, 0.0, 0.0]), x=np.array([0.1, 0.2, 0.3, 0.4]),
        r=np.array([0.0, 0.0, 0.7, 0.6]),
    )
    effective = rn.build_matrix(net, state, rn.MatrixKind.EFFECTIVE).values
    assert np.count_nonzero(effective) == 3
    assert rn.spectral_radius(effective) == 0.0
    assert rn.network_reproduction(net, state) == 0.0
    # a sink beside a self-loop: the root is the self-loop's entry
    assert rn.spectral_radius(np.array([[0.5, 1.0], [0.0, 0.0]])) == pytest.approx(0.5, rel=1e-12)


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ConfigError):
        rn.spectral_radius(np.array([[1.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        rn.spectral_radius(np.ones((2, 3)))


def test_pseudo_and_effective_share_spectrum(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6)
    pseudo = rn.build_matrix(net, state, MatrixKind.PSEUDO_EFFECTIVE)
    eff = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    assert rn.spectral_radius(pseudo.values) == pytest.approx(
        rn.spectral_radius(eff.values), abs=1e-9
    )


def test_network_reproduction_scalar_and_full_susceptibility(rng):
    net = rn.TransmissionNetwork(b=[[0.3]], gamma=[0.1])
    assert rn.network_reproduction(net) == pytest.approx(3.0)
    net = make_network(rng, 4)
    state = rn.EpidemicState(t=0.0, s=np.ones(4), x=np.zeros(4))
    assert rn.network_reproduction(net, state) == pytest.approx(rn.network_reproduction(net), rel=1e-12)


def test_perron_infection_levels_all_lerns_one(rng):
    net = make_network(rng, 6)
    s = rng.uniform(0.3, 0.7, 6)
    pseudo = s[:, None] * net.b / net.gamma[:, None]
    radius = oracles.spectral_radius(pseudo)
    scaled = rn.TransmissionNetwork(b=net.b / radius, gamma=net.gamma)
    x = oracles.perron_vector(s[:, None] * scaled.b / scaled.gamma[:, None]) * 0.1
    state = rn.EpidemicState(t=0.0, s=s, x=x, r=1.0 - s - x)
    lerns = lern_vector(scaled, state, floor=0.0)
    np.testing.assert_allclose(lerns, 1.0, atol=1e-9)
    assert rn.network_reproduction(scaled, state) == pytest.approx(1.0, abs=1e-9)


def test_cern_singleton_equals_lern(small_instance):
    net, state, _ = small_instance
    partition = rn.Partition.singletons(net.n)
    for i in range(net.n):
        assert rn.cern(net, state, partition, i) == pytest.approx(rn.lern(net, state, i), rel=1e-12)


def test_cern_matches_scalar_oracle(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    partition = rn.Partition.from_blocks([[0, 2], [1, 3]])
    for q, members in enumerate([[0, 2], [1, 3]]):
        expected = oracles.cern(net.b, net.gamma, state.s, state.x, members)
        assert rn.cern(net, state, partition, q) == pytest.approx(expected, rel=1e-12)


def test_cluster_sign_tracks_total_infection_derivative(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6)
    partition = rn.Partition.from_blocks([[0, 1, 2], [3, 4, 5]])
    traj = rn.integrate(net, state, rn.ModelKind.SIR, 0.05, 300)
    for sample in traj[::30]:
        cerns = cern_vector(net, sample, partition, floor=0.0)
        xdot = rn.derivative(net, sample, rn.ModelKind.SIR)[1]
        for q in range(2):
            gap = cerns[q] - 1.0
            if abs(gap) > 1e-6:
                total = float(np.sum(xdot[partition.members(q)]))
                assert np.sign(total) == np.sign(gap)


def test_cluster_matrix_reductions(small_instance):
    net, state, partition = small_instance
    # every node its own cluster: equals the effective matrix
    per_node = rn.cluster_matrix(net, state, rn.Partition.singletons(net.n))
    eff = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    np.testing.assert_allclose(per_node.values, eff.values, rtol=1e-12)
    # one whole-network cluster: single CERN
    whole = rn.cluster_matrix(net, state, rn.Partition.whole(net.n))
    assert whole.values.shape == (1, 1)
    assert whole.values[0, 0] == pytest.approx(
        rn.cern(net, state, rn.Partition.whole(net.n), 0), rel=1e-12
    )


def test_cluster_matrix_row_sums_and_entries(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6)
    partition = rn.Partition.from_blocks([[0, 3], [1, 4], [2, 5]])
    matrix = rn.cluster_matrix(net, state, partition)
    cerns = cern_vector(net, state, partition)
    assert np.max(np.abs(matrix.values.sum(axis=1) - cerns)) < 1e-12
    for q in range(3):
        for r in range(3):
            expected = oracles.cluster_entry(
                net.b, net.gamma, state.s, state.x, partition.members(q), partition.members(r)
            )
            assert matrix.values[q, r] == pytest.approx(expected, rel=1e-12)


def test_coarsen_consistency(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6)
    fine = rn.Partition.from_blocks([[0, 1], [2, 3], [4, 5]])
    # identity mapping reproduces the fine values
    np.testing.assert_allclose(
        rn.coarsen(net, state, fine, [0, 1, 2]), cern_vector(net, state, fine), rtol=1e-12
    )
    # merging everything gives the whole-network value
    merged_all = rn.coarsen(net, state, fine, [0, 0, 0])
    whole = rn.cern(net, state, rn.Partition.whole(6), 0)
    assert merged_all[0] == pytest.approx(whole, rel=1e-12)
    # a genuine coarsening matches the direct computation on merged clusters
    coarse = rn.coarsen(net, state, fine, {0: 0, 1: 0, 2: 1})
    direct = cern_vector(net, state, rn.Partition.from_blocks([[0, 1, 2, 3], [4, 5]]))
    assert np.max(np.abs(coarse - direct)) < 1e-12


def test_coarsen_mapping_validation(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    fine = rn.Partition.from_blocks([[0, 1], [2, 3]])
    with pytest.raises(ConfigError):
        rn.coarsen(net, state, fine, {0: 0})  # cluster 1 unmapped
    with pytest.raises(ConfigError):
        rn.coarsen(net, state, fine, [0, 2])  # coarse index 1 never hit
    with pytest.raises(ConfigError, match="integers"):
        rn.coarsen(net, state, fine, [0.9, 0.2])
    with pytest.raises(ConfigError, match="integers"):
        rn.coarsen(net, state, fine, {0: 0, 1: 1.7})
    with pytest.raises(ConfigError, match="are not the fine clusters"):
        rn.coarsen(net, state, fine, {0: 0, 1: 0, 7: 3})


def test_partition_size_must_match_network(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    short = rn.Partition.from_blocks([[0, 1], [2]])
    long = rn.Partition.from_blocks([[0, 1], [2, 3], [4]])
    x_f = floored_infections(state.x)
    rows = np.arange(4)
    for partition in (short, long):
        with pytest.raises(ConfigError, match="partition has"):
            report_matrix(net.b, net.gamma, state.s, x_f, rows, partition)
        with pytest.raises(ConfigError, match="partition has"):
            rn.step3_preaggregate(net, state, partition, 3)
        with pytest.raises(ConfigError, match="partition has"):
            rn.threshold_report(net, [state, state], partition)
        with pytest.raises(ConfigError, match="partition has"):
            cern_vector(net, state, partition)
        with pytest.raises(ConfigError, match="partition has"):
            rn.cluster_matrix(net, state, partition)
        with pytest.raises(ConfigError, match="partition has"):
            rn.coarsen(net, state, partition, list(range(partition.m)))


def test_state_size_must_match_network(rng):
    net = make_network(rng, 4)
    state = make_state(rng, 3)
    partition = rn.Partition.whole(4)
    calls = [
        lambda: lern_vector(net, state),
        lambda: cern_vector(net, state, partition),
        lambda: rn.cluster_matrix(net, state, partition),
        lambda: rn.lern(net, state, 0),
        lambda: rn.local_distributed_ern(net, state, 0, 1),
        lambda: rn.network_reproduction(net, state),
        lambda: analysis.trichotomy_counts(net, [state], rn.ModelKind.SIR),
        lambda: rn.step3_preaggregate(net, state, partition, 0),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="state has 3 entities, network has 4"):
            call()
    # the closed form of the private pipeline's entries checks the sizes as the pipeline does
    for call in (rn.run_pipeline, analysis.private_moments):
        with pytest.raises(ConfigError, match="network, state, and partition sizes must agree"):
            call(net, state, partition, rn.PrivacySpec(1.0))


@pytest.mark.parametrize("index", [-1, 4, 1.0, 0.5, True, "0"])
def test_entity_index_checked(rng, index):
    net = make_network(rng, 4)
    state = make_state(rng, 4)
    with pytest.raises(ConfigError, match="entity index"):
        rn.lern(net, state, index)
    with pytest.raises(ConfigError, match="entity index"):
        rn.lbrn(net, index)
    with pytest.raises(ConfigError, match="entity index"):
        rn.local_distributed_ern(net, state, index, 0)
    with pytest.raises(ConfigError, match="entity index"):
        rn.local_distributed_ern(net, state, 0, index)
    assert rn.lern(net, state, np.int64(3)) == rn.lern(net, state, 3)


def test_partition_validation():
    with pytest.raises(ConfigError):
        rn.Partition(m=2, assignment=np.array([0, 0, 0]))  # cluster 1 empty
    with pytest.raises(ConfigError):
        rn.Partition.from_blocks([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ConfigError):
        rn.Partition.from_blocks([[0], [2]])  # gap
    part = rn.Partition.from_blocks([[2, 0], [1]])
    np.testing.assert_array_equal(part.members(0), [0, 2])


def test_clamp_projects_entries(rng):
    net = make_network(rng, 4)
    x = np.array([1e-4, 0.3, 0.3, 0.3])
    state = rn.EpidemicState(t=0.0, s=1.0 - x, x=x)
    unclamped = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    assert np.max(unclamped.values) > 14.0  # tiny x[0] inflates row 0
    clamped = rn.build_matrix(net, state, MatrixKind.EFFECTIVE, clamp=(0.0, 14.0))
    assert np.max(clamped.values) <= 14.0
    inside = unclamped.values <= 14.0
    np.testing.assert_array_equal(clamped.values[inside], unclamped.values[inside])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=30)
def test_row_sum_identity_property(seed, n):
    rng = np.random.default_rng(seed)
    net = make_network(rng, n)
    state = make_state(rng, n)
    eff = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    for i in range(n):
        assert float(np.sum(eff.values[i])) == rn.lern(net, state, i)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=30)
def test_similarity_invariance_property(seed, n):
    rng = np.random.default_rng(seed)
    net = make_network(rng, n)
    state = make_state(rng, n)
    pseudo = rn.build_matrix(net, state, MatrixKind.PSEUDO_EFFECTIVE)
    eff = rn.build_matrix(net, state, MatrixKind.EFFECTIVE)
    assert rn.spectral_radius(pseudo.values) == pytest.approx(
        rn.spectral_radius(eff.values), abs=1e-9
    )


def _same_bits(compute, reference):
    """``compute()`` has the shape and bytes of ``reference()``, or both raise
    ``UndefinedRatioError``."""
    try:
        expected = np.asarray(reference())
    except UndefinedRatioError:
        with pytest.raises(UndefinedRatioError):
            compute()
        return
    actual = np.asarray(compute())
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    big=st.integers(8, 20),
    rest=st.lists(st.integers(1, 10), max_size=3),
    floor_kind=st.sampled_from(["zero", "default", "vector"]),
    zero_node=st.booleans(),
)
@example(seed=1, big=8, rest=[], floor_kind="zero", zero_node=True)
@example(seed=2, big=9, rest=[3, 1], floor_kind="vector", zero_node=True)
@settings(max_examples=40, deadline=None)
def test_kernels_match_frozen_references_bitwise(seed, big, rest, floor_kind, zero_node):
    # One cluster of 8 or more members: numpy's pairwise summation starts
    # rounding differently from a running sum at 8 elements.
    rng = np.random.default_rng(seed)
    sizes = [big] + rest
    n = sum(sizes)
    net = make_network(rng, n)
    assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    fine = rn.Partition(m=len(sizes), assignment=assignment)
    floor = {"zero": 0.0, "default": 1e-9, "vector": rng.uniform(1e-9, 1e-3, n)}[floor_kind]
    states = [make_state(rng, n, t=0.5 * k, x=(0.0, 0.3), with_r=True) for k in range(4)]
    if zero_node:
        node = int(rng.integers(n))
        x = np.array(states[1].x)
        x[node] = 0.0
        states[1] = rn.EpidemicState(t=states[1].t, s=1.0 - x - states[1].r, x=x, r=states[1].r)
    trajectory = rn.Trajectory.from_states(states)
    m_coarse = int(rng.integers(1, fine.m + 1))
    mapping = rng.permutation(np.arange(fine.m) % m_coarse).tolist()

    _same_bits(lambda: rn.network_reproduction(net), lambda: oracles.network_reproduction_reference(net))
    for state in states:
        x_f = floored_infections(state.x, floor)
        _same_bits(
            lambda: rn.reproduction.cluster_weight_sums(net.gamma, x_f, fine),
            lambda: oracles.cluster_weight_sums_reference(net.gamma, x_f, fine),
        )
        _same_bits(lambda: lern_vector(net, state, floor), lambda: oracles.lern_vector_reference(net, state, floor))
        _same_bits(
            lambda: cern_vector(net, state, fine, floor),
            lambda: oracles.cern_vector_reference(net, state, fine, floor),
        )
        _same_bits(
            lambda: rn.coarsen(net, state, fine, mapping, floor),
            lambda: oracles.coarsen_reference(net, state, fine, mapping, floor),
        )
        _same_bits(
            lambda: rn.coarsen(net, state, fine, dict(enumerate(mapping)), floor),
            lambda: oracles.coarsen_reference(net, state, fine, mapping, floor),
        )
        _same_bits(
            lambda: rn.network_reproduction(net, state),
            lambda: oracles.network_reproduction_reference(net, state),
        )
    _same_bits(
        lambda: lern_vector(net, trajectory, floor),
        lambda: oracles.lerns_reference(net, trajectory, floor, check=True),
    )
    _same_bits(
        lambda: lern_vector(net, trajectory, floor),
        lambda: np.stack([oracles.lern_vector_reference(net, state, floor) for state in states]),
    )
    _same_bits(
        lambda: cern_vector(net, trajectory, fine, floor),
        lambda: np.stack([oracles.cern_vector_reference(net, state, fine, floor) for state in states]),
    )
    _same_bits(
        lambda: cern_vector(net, trajectory, fine, floor),
        lambda: oracles.cerns_reference(
            net, trajectory, oracles.lerns_reference(net, trajectory, floor, check=True), fine, floor
        ),
    )


def test_report_and_cluster_matrix_memory_is_a_row_block():
    # report_matrix runs over row blocks of ~16k effective values, so neither kernel builds an
    # n x n temporary (1.2 MiB at n = 400; over all rows at once they peaked at ~4.9 MiB)
    gen = np.random.default_rng(400)
    net, state = make_network(gen, 400, density=0.1), make_state(gen, 400, with_r=True)
    partition = rn.Partition(10, np.arange(400) * 10 // 400)
    x_f, clamp = floored_infections(state.x), (0.0, 14.0)
    calls = {
        "report_matrix": lambda: report_matrix(net.b, net.gamma, state.s, x_f, np.arange(400), partition, clamp),
        "cluster_matrix": lambda: rn.cluster_matrix(net, state, partition, clamp=clamp),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, name
