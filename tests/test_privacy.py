import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from repronet.exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    DegenerateTruncationError,
    PrivacyBoundsError,
)
from repronet.privacy import (
    PrivacySpec,
    TruncGaussParams,
    amplified_epsilon,
    bounded_gaussian_randomize,
    calibrate_sigma,
    delta_c,
    shuffle,
    trunc_gauss_moments,
    trunc_gauss_sample,
    worst_case_offset,
)
from repronet.seeding import StreamRole, stream

# Frozen after the first calibration of the reporting preset
# (epsilon0=1, k=1e-5, three active entries bounded by [0, 14]).
GOLDEN_SIGMA = 0.015578916063632223
# Frozen after the first evaluation of the amplification bound at
# (epsilon0=1, delta=0.01, cluster size 10_000).
GOLDEN_AMPLIFIED = 0.11695868252919919


def test_params_validation():
    with pytest.raises(ConfigError):
        TruncGaussParams(mu=0.0, sigma=1.0, lower=0.0, upper=1.0)  # mu on the open edge
    with pytest.raises(ConfigError):
        TruncGaussParams(mu=0.5, sigma=0.0, lower=0.0, upper=1.0)
    with pytest.raises(ConfigError):
        TruncGaussParams(mu=0.5, sigma=1.0, lower=1.0, upper=0.0)


def test_pdf_normalizes():
    params = TruncGaussParams(mu=0.2, sigma=0.5, lower=0.0, upper=1.0)
    total, mean, var = oracles.truncated_moments_by_quadrature(0.2, 0.5, 0.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-6)
    analytic_mean, analytic_var = trunc_gauss_moments(params)
    assert analytic_mean == pytest.approx(mean, rel=1e-8)
    assert analytic_var == pytest.approx(var, rel=1e-8)


def test_samples_stay_in_half_open_support():
    rng = stream(1, StreamRole.ANALYSIS)
    for params in (
        TruncGaussParams(mu=0.2, sigma=0.5, lower=0.0, upper=1.0),
        TruncGaussParams(mu=13.9, sigma=1.0, lower=0.0, upper=14.0),
        TruncGaussParams(mu=0.05, sigma=1.0, lower=0.0, upper=0.05),  # inverse-CDF path
    ):
        draws = trunc_gauss_sample(params, rng, size=20_000)
        assert np.all(draws > params.lower)
        assert np.all(draws <= params.upper)


def test_symmetric_window_mean():
    params = TruncGaussParams(mu=0.5, sigma=0.4, lower=0.0, upper=1.0)
    mean, _ = trunc_gauss_moments(params)
    assert mean == 0.5  # phi(alpha) == phi(beta) exactly
    rng = stream(2, StreamRole.ANALYSIS)
    draws = trunc_gauss_sample(params, rng, size=1_000_000)
    assert abs(float(np.mean(draws)) - 0.5) < 4.0 * params.sigma / 1e3


def test_moments_against_monte_carlo():
    params = TruncGaussParams(mu=0.2, sigma=0.5, lower=0.0, upper=1.0)
    mean, var = trunc_gauss_moments(params)
    rng = stream(3, StreamRole.ANALYSIS)
    draws = trunc_gauss_sample(params, rng, size=10_000_000)
    assert float(np.mean(draws)) == pytest.approx(mean, rel=3e-3)
    assert float(np.var(draws, ddof=1)) == pytest.approx(var, rel=3e-3)


def test_untruncated_limit():
    params = TruncGaussParams(mu=0.3, sigma=0.7, lower=0.3 - 40 * 0.7, upper=0.3 + 40 * 0.7)
    mean, var = trunc_gauss_moments(params)
    assert mean == pytest.approx(0.3, abs=1e-10)
    assert var == pytest.approx(0.49, abs=1e-10)


def test_degenerate_window_rejected():
    params = TruncGaussParams(mu=1e-9, sigma=1e6, lower=0.0, upper=1e-9)
    with pytest.raises(DegenerateTruncationError):
        trunc_gauss_moments(params)


def test_calibration_golden_value_and_minimality():
    lower = np.zeros(3)
    upper = np.full(3, 14.0)
    mask = np.array([True, True, True])
    sigma, offset = calibrate_sigma(1.0, 1e-5, lower, upper, mask)
    assert sigma == pytest.approx(GOLDEN_SIGMA, rel=1e-9)
    assert np.linalg.norm(offset) <= 1e-5 * (1 + 1e-12)
    # independent re-evaluation of the inequality, worst case from a grid
    widths = [14.0, 14.0, 14.0]
    dc = oracles.delta_c_grid_max(sigma, widths, 1e-5)
    assert oracles.sigma_inequality(sigma, 1.0, 1e-5, widths, dc)
    dc_low = oracles.delta_c_grid_max(0.99 * sigma, widths, 1e-5)
    assert not oracles.sigma_inequality(0.99 * sigma, 1.0, 1e-5, widths, dc_low)


# Frozen from the bisection over the searched worst-case offset that the
# closed form replaced (epsilon0=1, k=1e-5, every active entry in [0, 14]).
FROZEN_SIGMAS = {1: 0.011836152989517307, 5: 0.01770213246355519, 10: 0.021053520031373354}


@pytest.mark.parametrize("dim", sorted(FROZEN_SIGMAS))
def test_calibration_matches_frozen_sigmas(dim):
    sigma, _ = calibrate_sigma(1.0, 1e-5, np.zeros(dim), np.full(dim, 14.0), np.ones(dim, dtype=bool))
    # a flipped bisection decision would move sigma by ~1e-7 or more
    assert sigma == pytest.approx(FROZEN_SIGMAS[dim], rel=1e-12)


@given(
    dim=st.integers(1, 12),
    width=st.floats(0.1, 20.0),
    sigma_ratio=st.floats(0.02, 5.0),
    k_ratio=st.floats(1e-3, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=10, width=14.0, sigma_ratio=0.3, k_ratio=3.0, seed=0)
@settings(max_examples=30, deadline=None)
def test_worst_case_offset_is_the_maximum_property(dim, width, sigma_ratio, k_ratio, seed):
    # k_ratio scales k against sqrt(dim) * width / 2, where the maximizer
    # moves from the ball's surface to the windows' centres
    widths = np.full(dim, width)
    sigma = sigma_ratio * width
    k = k_ratio * np.sqrt(dim) * width / 2.0
    offset, best = worst_case_offset(sigma, widths, k)
    assert np.all(offset >= 0.0)
    assert np.linalg.norm(offset) <= k * (1.0 + 1e-12)
    assert best == delta_c(sigma, widths, offset)
    tol = best * 1e-12
    gen = np.random.default_rng(seed)
    directions = np.abs(gen.standard_normal((200, dim)))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = k * gen.uniform(0.0, 1.0, 200) ** (1.0 / dim)
    near = np.maximum(offset + 1e-3 * width * gen.standard_normal((200, dim)), 0.0)
    norms = np.linalg.norm(near, axis=1, keepdims=True)
    near = np.where(norms > k, near * (k / np.maximum(norms, 1e-300)), near)
    # the windows' centres maximize every factor at once, when feasible
    centres = np.full((1 if np.sqrt(dim) * width / 2.0 <= k else 0, dim), width / 2.0)
    for candidate in np.vstack([radii[:, None] * directions, near, centres]):
        assert delta_c(sigma, widths, candidate) <= best + tol
    assert oracles.delta_c_grid_max(sigma, widths, k, steps=3) <= best + tol


def test_inactive_entries_do_not_contribute():
    lower = np.zeros(4)
    upper = np.full(4, 14.0)
    sigma_masked, _ = calibrate_sigma(1.0, 1e-5, lower, upper, np.array([True, True, False, False]))
    sigma_two, _ = calibrate_sigma(1.0, 1e-5, lower[:2], upper[:2], np.array([True, True]))
    assert sigma_masked == pytest.approx(sigma_two, rel=1e-9)


def test_sigma_monotone_in_epsilon():
    lower = np.zeros(3)
    upper = np.full(3, 14.0)
    mask = np.ones(3, dtype=bool)
    sigmas = [calibrate_sigma(eps, 1e-5, lower, upper, mask)[0] for eps in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))


def test_calibration_infeasible():
    lower = np.zeros(2)
    upper = np.ones(2)
    with pytest.raises(CalibrationInfeasibleError):
        calibrate_sigma(1e-6, 50.0, lower, upper, np.array([True, True]))


def test_spec_calibration_roundtrip():
    spec = PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.0, 14.0))
    mech = spec.calibrate((True, False, True))
    assert mech.inequality_holds()
    assert not mech.inequality_holds(0.99 * mech.sigma)
    assert spec.sensitivity == spec.k
    again = spec.calibrate((True, False, True))
    assert again is mech  # cached


def test_randomizer_preserves_zeros_and_box():
    spec = PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.0, 14.0))
    zeta = np.array([2.0, 0.0, 5.0])
    mech = spec.calibrate(zeta > 0)
    rng = stream(4, StreamRole.LOCAL_AUTHORITY)
    for _ in range(200):
        out = bounded_gaussian_randomize(zeta, mech, rng)
        assert out[1] == 0.0
        assert np.all(out[[0, 2]] > 0.0)
        assert np.all(out[[0, 2]] <= 14.0)


def test_randomizer_all_zero_vector():
    spec = PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.0, 14.0))
    with pytest.raises(ConfigError):
        spec.calibrate((False, False))  # nothing to randomize
    # run through a mixed mechanism: zero entries always map to zero
    mech = spec.calibrate((True, False))
    rng = stream(5, StreamRole.LOCAL_AUTHORITY)
    out = bounded_gaussian_randomize(np.array([3.0, 0.0]), mech, rng)
    assert out[1] == 0.0


def test_randomizer_degenerate_noise_limit():
    # enormous budget and tiny adjacency radius force sigma towards zero
    spec = PrivacySpec(epsilon0=1e6, k=1e-9, bounds=(0.0, 14.0))
    zeta = np.array([2.0, 0.0, 5.0])
    mech = spec.calibrate(zeta > 0)
    rng = stream(6, StreamRole.LOCAL_AUTHORITY)
    out = bounded_gaussian_randomize(zeta, mech, rng)
    assert np.max(np.abs(out - zeta)) < 1e-6


def test_randomizer_bounds_enforced():
    spec = PrivacySpec(epsilon0=1.0, k=1e-5, bounds=(0.0, 14.0))
    mech = spec.calibrate((True, True))
    rng = stream(7, StreamRole.LOCAL_AUTHORITY)
    with pytest.raises(PrivacyBoundsError):
        bounded_gaussian_randomize(np.array([15.0, 1.0]), mech, rng)
    with pytest.raises(PrivacyBoundsError):
        bounded_gaussian_randomize(np.array([1.0, 0.0]), mech, rng)  # support mismatch


def test_randomizer_mean_tracks_moments():
    spec = PrivacySpec(epsilon0=1.0, k=1e-3, bounds=(0.0, 14.0))
    zeta = np.array([2.0, 0.0, 5.0])
    mech = spec.calibrate(zeta > 0)
    rng = stream(8, StreamRole.LOCAL_AUTHORITY)
    draws = np.stack([bounded_gaussian_randomize(zeta, mech, rng) for _ in range(100_000)])
    for col, value in ((0, 2.0), (2, 5.0)):
        params = TruncGaussParams(mu=value, sigma=mech.sigma, lower=0.0, upper=14.0)
        mean, var = trunc_gauss_moments(params)
        assert float(np.mean(draws[:, col])) == pytest.approx(mean, rel=0.01)
        assert float(np.var(draws[:, col], ddof=1)) == pytest.approx(var, rel=0.05)
    assert np.all(draws[:, 1] == 0.0)


def test_shuffle_single_and_multiset(rng):
    gen = stream(9, StreamRole.SHUFFLER)
    assert shuffle([41], gen) == [41]
    items = [tuple(row) for row in rng.integers(0, 10, (30, 3))]
    permuted = shuffle(items, gen)
    assert sorted(permuted) == sorted(items)
    with pytest.raises(ConfigError):
        shuffle([], gen)


def test_shuffle_deterministic_given_stream():
    items = list(range(10))
    assert shuffle(items, stream(10, StreamRole.SHUFFLER)) == shuffle(
        items, stream(10, StreamRole.SHUFFLER)
    )


def test_amplified_epsilon_golden_and_oracle():
    value = amplified_epsilon(1.0, 0.01, 10_000)
    assert value == pytest.approx(GOLDEN_AMPLIFIED, rel=1e-12)
    assert value == pytest.approx(oracles.amplified_epsilon(1.0, 0.01, 10_000), rel=1e-12)


def test_amplified_epsilon_vanishes_with_budget():
    assert amplified_epsilon(0.0, 0.01, 10_000) == 0.0
    assert amplified_epsilon(1e-9, 0.01, 10_000) < 1e-9


def test_amplified_epsilon_monotone_in_cluster_size():
    values = [amplified_epsilon(0.2, 0.1, size) for size in (100, 400, 1600)]
    assert values[0] > values[1] > values[2]


def test_amplified_epsilon_validity_checks():
    with pytest.raises(ConfigError):
        amplified_epsilon(1.0, 0.01, 50)  # cluster too small for the bound
    with pytest.raises(ConfigError):
        amplified_epsilon(1.0, 1.5, 10_000)
    with pytest.raises(ConfigError):
        amplified_epsilon(-0.1, 0.01, 10_000)


def test_privacy_spec_validation():
    with pytest.raises(ConfigError):
        PrivacySpec(epsilon0=0.0)
    with pytest.raises(ConfigError):
        PrivacySpec(epsilon0=1.0, delta=0.0)
    with pytest.raises(ConfigError):
        PrivacySpec(epsilon0=1.0, bounds=(3.0, 1.0))
    with pytest.raises(ConfigError):
        PrivacySpec(epsilon0=1.0, bounds=((0.0, 1.0), (0.0, 2.0)))


def test_calibration_rejects_unequal_active_widths():
    lower = np.zeros(3)
    upper = np.array([14.0, 7.0, 14.0])
    with pytest.raises(ConfigError):
        calibrate_sigma(1.0, 1e-5, lower, upper, np.ones(3, dtype=bool))
    # only the active entries must share a width
    sigma, _ = calibrate_sigma(1.0, 1e-5, lower, upper, np.array([True, False, True]))
    assert sigma == calibrate_sigma(1.0, 1e-5, lower[:2], np.full(2, 14.0), np.ones(2, dtype=bool))[0]


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8))
@settings(max_examples=30)
def test_shuffle_preserves_multiset_property(seed, size):
    gen = np.random.default_rng(seed)
    items = [int(v) for v in gen.integers(0, 5, size)]
    assert sorted(shuffle(items, gen)) == sorted(items)
