import math
import re

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_fresh
from repronet import privacy
from repronet.exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    DegenerateTruncationError,
    PrivacyBoundsError,
)
from repronet.privacy import (
    PrivacySpec,
    _sample_box_truncated,
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


@pytest.mark.parametrize("width", [1.0001e-3, 3e-3, 1e-2, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("place", [1e-6, 0.5, 1.0])
def test_narrow_window_moments_match_quadrature(width, place):
    """Down to the standardized width 1e-3 the closed form is within 1e-6 of quadrature,
    with the centre near the open edge, in the middle and on the closed edge."""
    sigma, lower = 0.7, 0.3
    params = TruncGaussParams(lower + place * width * sigma, sigma, lower, lower + width * sigma)
    mean, var = trunc_gauss_moments(params)
    ref_mean, ref_var = oracles.truncated_central_moments_by_quadrature(
        params.mu, params.sigma, params.lower, params.upper
    )
    assert mean == pytest.approx(ref_mean, rel=1e-6)
    assert var == pytest.approx(ref_var, rel=1e-6)


@pytest.mark.parametrize(
    "params",
    [
        TruncGaussParams(5e-10, 1.0, 0.0, 1e-9),  # the cancelling formula gave a variance of -3.1e-8
        TruncGaussParams(0.3 + 0.5e-5, 1.0, 0.3, 0.3 + 1e-5),  # and 2.2e-11 here, against 8.3e-12
        TruncGaussParams(0.3 + 0.7 * 0.999e-3, 0.7, 0.3, 0.3 + 0.7 * 0.999e-3),
    ],
)
def test_narrow_window_moments_rejected(params):
    with pytest.raises(DegenerateTruncationError, match="sigma wide"):
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


def calibration_outcome(calibrate, *args):
    """The bits of a calibration's sigma and offset, or the type and message of its error."""
    try:
        sigma, offset = calibrate(*args)
    except (ConfigError, CalibrationInfeasibleError) as error:
        return type(error), str(error)
    return sigma.hex(), offset.tobytes()


@given(
    epsilon0=st.floats(0.05, 8.0),
    log10_k=st.floats(-8.0, math.log10(5.0)),
    d=st.integers(1, 40),
    inactive=st.integers(0, 3),
    lower=st.floats(-10.0, 10.0),
    width=st.floats(0.01, 20.0),
    other_width=st.floats(0.01, 20.0),
    uneven=st.sampled_from(["none", "inactive", "active"]),
)
@example(epsilon0=1.0, log10_k=-5.0, d=3, inactive=0, lower=0.0, width=14.0, other_width=14.0, uneven="none")
@example(epsilon0=0.05, log10_k=math.log10(5.0), d=40, inactive=0, lower=0.0, width=1.0, other_width=1.0,
         uneven="none")  # infeasible
@example(epsilon0=1.0, log10_k=-5.0, d=4, inactive=2, lower=-2.0, width=14.0, other_width=30.0,
         uneven="inactive")  # the bracket's top comes from an inactive entry
@settings(max_examples=150, deadline=None)
def test_calibration_matches_reference_bisection(epsilon0, log10_k, d, inactive, lower, width, other_width, uneven):
    # the scalar bisection must take every decision the array test of the reference takes
    lower_bounds = np.full(d + inactive, lower)
    upper_bounds = lower_bounds + width
    if uneven == "active":
        upper_bounds[0] = lower + other_width
    elif uneven == "inactive" and inactive:
        upper_bounds[-1] = lower + other_width
    mask = np.arange(d + inactive) < d
    args = (epsilon0, 10.0**log10_k, lower_bounds, upper_bounds, mask)
    assert calibration_outcome(calibrate_sigma, *args) == calibration_outcome(oracles.calibrate_sigma_reference, *args)


def test_cold_calibration_evaluates_delta_c_twice(monkeypatch):
    # the bisection is scalar; delta_c runs for the certificate and for the offset only
    calls = []

    def counted(*args):
        calls.append(args)
        return delta_c(*args)

    monkeypatch.setattr(privacy, "delta_c", counted)
    sigma, _ = calibrate_sigma(1.0, 1e-5, np.zeros(5), np.full(5, 14.0), np.ones(5, dtype=bool))
    assert sigma == FROZEN_SIGMAS[5]
    assert len(calls) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_privacy_spec_rejects_non_finite_epsilon0_and_k(value):
    with pytest.raises(ConfigError, match="epsilon0 must be positive and finite"):
        PrivacySpec(epsilon0=value)
    with pytest.raises(ConfigError, match="k must be positive and finite"):
        PrivacySpec(epsilon0=1.0, k=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_calibrate_sigma_rejects_non_finite_epsilon0_and_k(value):
    bounds = (np.zeros(3), np.full(3, 14.0), np.ones(3, dtype=bool))
    with pytest.raises(ConfigError, match="epsilon0 must be positive and finite"):
        calibrate_sigma(value, 1e-5, *bounds)
    with pytest.raises(ConfigError, match="k must be positive and finite"):
        calibrate_sigma(1.0, value, *bounds)
    with pytest.raises(ConfigError, match="underflows to 0"):  # a bracket from sigma = 0 would divide by it
        calibrate_sigma(1.0, 1e-320, *bounds)


@pytest.mark.parametrize("box", [(0.0, 1e308), (-1e308, 1e308)])
def test_privacy_spec_rejects_a_box_whose_bracket_overflows(box):
    # the first box's width is finite, but the bracket's top 10 (upper - lower) is not
    with pytest.raises(ConfigError, match=re.escape(f"noise box [{box[0]}, {box[1]}] is too wide")):
        PrivacySpec(epsilon0=1.0, bounds=box)


@pytest.mark.parametrize("box", [(0.0, 1e308), (-1e308, 1e308)])
def test_calibrate_sigma_rejects_a_box_whose_bracket_overflows(box):
    lower, upper = np.full(2, box[0]), np.full(2, box[1])
    with pytest.raises(ConfigError, match=re.escape(f"noise box [{box[0]}, {box[1]}] is too wide")):
        calibrate_sigma(1.0, 1e-5, lower, upper, np.array([True, False]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_amplified_epsilon_rejects_non_finite_epsilon0(value):
    with pytest.raises(ConfigError, match="epsilon0 must be non-negative and finite"):
        amplified_epsilon(value, 0.01, 2000)


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


def test_calibration_runs_once_per_active_count(monkeypatch):
    import repronet.privacy as privacy

    spec = PrivacySpec(epsilon0=0.731, k=1e-5, bounds=(0.0, 14.0))  # used by no other test
    calls = []

    def counted(*args):
        calls.append(args)
        return calibrate_sigma(*args)

    monkeypatch.setattr(privacy, "calibrate_sigma", counted)
    masks = [(True, False, True, False), (False, True, True, False), (False, False, True, True),
             (True, True, True, False), (False, True, True, True)]
    mechs = [spec.calibrate(mask) for mask in masks]
    assert len(calls) == 2  # two and three active entries
    lower, upper = spec.bounds_arrays(4)
    for mask, mech in zip(masks, mechs):
        sigma, offset = calibrate_sigma(spec.epsilon0, spec.k, lower, upper, np.array(mask))
        assert mech.support == mask
        assert mech.sigma == sigma and mech.offset == tuple(offset.tolist())
    assert spec.calibrate(masks[1]) is mechs[1]
    with pytest.raises(ConfigError, match="at least one entry must be active"):
        spec.calibrate((False,) * 4)


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


class _Recorder:
    """A generator that logs each call, so draw sequences can be compared."""

    def __init__(self, seed, normal=None):
        self.gen = np.random.default_rng(seed)
        self.normal = normal  # a fixed value for every standard-normal draw
        self.calls = []

    def uniform(self, low, high):
        self.calls.append(("uniform", np.size(low)))
        return self.gen.uniform(low, high)

    def standard_normal(self, size):
        self.calls.append(("standard_normal", int(size)))
        return self.gen.standard_normal(size) if self.normal is None else np.full(size, self.normal)


def _rows_match_one_generator_calls(mu, sigma, lower, upper, seeds, normal=None):
    """Rows from one generator each equal one-generator draws, call for call.

    ``mu`` is one row of centres for every generator, or one row per
    authority with ``len(seeds) // len(mu)`` generators each.
    """
    many = [_Recorder(seed, normal) for seed in seeds]
    rows = _sample_box_truncated(mu, sigma, lower, upper, many)
    centres = np.atleast_2d(mu)
    per_authority = len(seeds) // len(centres)
    assert rows.shape == (len(seeds), centres.shape[1])
    for k, (row, rec, seed) in enumerate(zip(rows, many, seeds)):
        one = _Recorder(seed, normal)
        centre = centres[k // per_authority]
        expected = oracles.sample_box_truncated_one_generator(centre, sigma, lower, upper, one)
        assert row.tobytes() == expected.tobytes()
        assert rec.calls == one.calls
    return rows, many


def test_sampler_rows_match_one_generator_rejection_branch():
    # centres on the lower edge accept about half the draws per round
    mu = np.array([1e-3, 7.0, 2e-3, 13.9])
    sigma = np.full(4, 0.5)
    rows, recs = _rows_match_one_generator_calls(
        mu, sigma, np.zeros(4), np.full(4, 14.0), range(12)
    )
    assert all(rec.calls[0] == ("standard_normal", 4) for rec in recs)
    assert any(len(rec.calls) > 1 for rec in recs)  # a row needing more than one round
    assert np.all(rows > 0.0) and np.all(rows <= 14.0)


def test_sampler_rows_match_one_generator_inverse_cdf_branch():
    # mu on the upper edge with a wide sigma leaves mass < 0.05 in the box;
    # the second entry stays on the rejection branch
    mu = np.array([1.0, 0.5, 1.0])
    sigma = np.array([50.0, 0.1, 20.0])
    rows, recs = _rows_match_one_generator_calls(mu, sigma, np.zeros(3), np.ones(3), range(8))
    assert all(rec.calls[:2] == [("uniform", 2), ("standard_normal", 1)] for rec in recs)
    assert np.all(rows > 0.0) and np.all(rows <= 1.0)


def test_sampler_rows_match_one_generator_open_lower_edge():
    # a box two ulps wide, centre on its upper edge: the inverse-CDF draw of
    # seed 3 rounds onto the lower edge and is moved to the first value above it
    lower = np.array([1.0])
    upper = np.array([np.nextafter(np.nextafter(1.0, 2.0), 2.0)])
    lo, hi = ndtr(lower - upper), ndtr(0.0)
    assert upper + ndtri(np.random.default_rng(3).uniform(lo, hi)) <= lower
    rows, _ = _rows_match_one_generator_calls(upper.copy(), np.ones(1), lower, upper, range(12))
    assert rows[3, 0] == np.nextafter(1.0, 2.0)
    assert np.all(rows > 1.0)


def test_sampler_rows_match_one_generator_round_cap():
    # every normal draw lands outside the box, so each row takes the
    # inverse-CDF fallback after its 1,001st round
    mu = np.array([2.0, 5.0])
    rows, recs = _rows_match_one_generator_calls(
        mu, np.ones(2), np.zeros(2), np.full(2, 14.0), range(3), normal=1e6
    )
    assert all(len(rec.calls) == 1002 and rec.calls[-1] == ("uniform", 2) for rec in recs)
    assert np.all(rows > 0.0) and np.all(rows <= 14.0)


# box width 0.1256 sigma: a centred window holds mass just above 0.05, one at
# an edge just below, so the branch depends on where the centre sits
MIXED_SIGMA = 1.0 / 0.1256


def test_sampler_rows_match_one_generator_per_row_centres():
    # column 0 is on the rejection branch for centred rows and on the inverse
    # CDF for rows at an edge; column 1 is always inverse, column 2 rejects
    # without evaluating its mass, column 3 evaluates it and rejects
    lower, upper = np.zeros(4), np.array([1.0, 1.0, 14.0, 1.0])
    sigma = np.array([MIXED_SIGMA, 50.0, 0.5, 5.0])
    mu = np.array([
        [0.5, 1.0, 1e-3, 0.5],
        [1.0, 0.5, 7.0, 0.9],
        [1e-9, 1e-3, 13.9, 1e-3],
    ])
    mass = ndtr((upper - mu) / sigma) - ndtr((lower - mu) / sigma)
    assert list(mass[:, 0] < 0.05) == [False, True, True] and np.all(mass[:, 1] < 0.05)
    for trials in (1, 3):
        rows, recs = _rows_match_one_generator_calls(mu, sigma, lower, upper, range(3 * trials))
        assert [rec.calls[0] for rec in recs[::trials]] == [("uniform", 1), ("uniform", 2), ("uniform", 2)]
        assert np.all(rows > 0.0) and np.all(rows <= upper)


def test_sampler_rows_match_one_generator_per_row_open_lower_edge():
    # the two-ulp box of the shared-centre test, with one authority on each edge
    lower = np.array([1.0])
    upper = np.array([np.nextafter(np.nextafter(1.0, 2.0), 2.0)])
    mu = np.array([[upper[0]], [np.nextafter(1.0, 2.0)]])
    rows, _ = _rows_match_one_generator_calls(mu, np.ones(1), lower, upper, range(24))
    assert rows[3, 0] == np.nextafter(1.0, 2.0)
    assert np.all(rows > 1.0)


def test_sampler_rows_match_one_generator_per_row_round_cap():
    # every normal draw lands outside the box; each row takes the fallback for the
    # columns it samples by rejection, the first authority's inverse column aside
    mu = np.array([[2.0, 1.0], [5.0, 0.5]])
    sigma, upper = np.array([1.0, MIXED_SIGMA]), np.array([14.0, 1.0])
    rows, recs = _rows_match_one_generator_calls(mu, sigma, np.zeros(2), upper, range(6), normal=1e6)
    assert all(rec.calls[0] == ("uniform", 1) and len(rec.calls) == 1003 for rec in recs[:3])
    assert all(len(rec.calls) == 1002 and rec.calls[-1] == ("uniform", 2) for rec in recs[3:])
    assert np.all(rows > 0.0) and np.all(rows <= upper)


def test_sampler_skips_ndtr_where_the_bound_decides(monkeypatch):
    # max(beta, -alpha) >= 0.2 in every column: rejection without a normal CDF
    calls = []
    monkeypatch.setattr(privacy, "ndtr", lambda x: calls.append(np.size(x)) or ndtr(x))
    mu = np.array([[1e-3, 7.0, 14.0], [0.5, 0.1, 2e-3]])
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    _sample_box_truncated(mu, np.full(3, 0.5), np.zeros(3), np.full(3, 14.0), rngs)
    assert calls == []
    # only the column whose mass no bound decides is evaluated, in one call
    _sample_box_truncated(mu, np.array([0.5, 200.0, 0.5]), np.zeros(3), np.full(3, 14.0), rngs)
    assert calls == [4]


@given(
    alpha=st.floats(-40.0, 0.0, exclude_max=True),
    beta=st.floats(0.0, 40.0),
)
@example(alpha=-1e-300, beta=0.2)
@example(alpha=-0.2, beta=0.0)
@settings(max_examples=500)
def test_rejection_decided_bound_is_sound(alpha, beta):
    # a centre in (l, u] puts alpha < 0 <= beta; where the sampler skips the normal
    # CDF, the window mass it would have compared with 0.05 is above it
    if max(beta, -alpha) >= privacy._REJECTION_DECIDED:
        assert privacy.ndtr(beta) - privacy.ndtr(alpha) >= privacy._MIN_REJECTION_MASS


def test_randomizer_rows_match_one_generator_calls():
    spec = PrivacySpec(epsilon0=1.0, k=1e-3, bounds=(0.0, 14.0))
    zeta = np.array([2.0, 0.0, 1e-4, 5.0])
    mech = spec.calibrate(zeta > 0)

    def gen(t):
        return stream(11, StreamRole.LOCAL_AUTHORITY, 0, 0, t)

    rows = bounded_gaussian_randomize(zeta, mech, [gen(t) for t in range(5)])
    for t, row in enumerate(rows):
        assert row.tobytes() == bounded_gaussian_randomize(zeta, mech, gen(t)).tobytes()
    assert np.all(rows[:, 1] == 0.0)
    with pytest.raises(PrivacyBoundsError):
        bounded_gaussian_randomize(np.array([15.0, 0.0, 1.0, 1.0]), mech, [gen(0)])


FIRST_CALL = """
import sys
import numpy as np
sys.modules["scipy"] = None  # importing scipy now raises ImportError
from repronet.privacy import *
print(np.hstack(eval(sys.argv[1])).tobytes().hex())
"""


@pytest.mark.parametrize(
    "expression",
    [
        # mass below 0.05 in the box: the inverse-CDF branch
        "trunc_gauss_sample(TruncGaussParams(1.0, 50.0, 0.0, 1.0), np.random.default_rng(3), size=4)",
        "trunc_gauss_moments(TruncGaussParams(2.0, 0.5, 0.0, 14.0))",
        "[delta_c(0.3, np.full(3, 14.0), np.full(3, 0.1))]",
        "calibrate_sigma(1.0, 1e-5, np.zeros(3), np.full(3, 14.0), np.array([True, False, True]))",
        "[PrivacySpec(1.0).calibrate([1, 0, 1]).sigma]",
        "bounded_gaussian_randomize(np.array([2.0, 0.0, 5.0]), CalibratedMechanism("
        "PrivacySpec(1.0), (True, False, True), 0.5, (0.0,) * 3, (0.0,) * 3, (14.0,) * 3), "
        "np.random.default_rng(4))",
        "ndtr(np.linspace(-40.0, 40.0, 161))",
        "ndtri(np.linspace(0.0, 1.0, 161))",
    ],
    ids=lambda expression: expression.strip("[").split("(")[0],
)
def test_noise_functions_need_no_scipy_on_first_call(expression):
    namespace = {"np": np, **{name: getattr(privacy, name) for name in privacy.__all__}}
    expected = np.hstack(eval(expression, namespace)).tobytes().hex()
    assert run_fresh(FIRST_CALL, expression) == expected


def assert_same_bits(ours, theirs):
    assert ours.shape == theirs.shape
    np.testing.assert_array_equal(ours.view(np.uint64), theirs.view(np.uint64))


SQRT2 = np.sqrt(2.0)
# Cephes ndtr branches, in z = |x| / sqrt(2): erf below 1/sqrt(2), 1 - erf below 1,
# the P/Q erfc below 8, the R/S erfc below sqrt(MAXLOG) = 26.64, then underflow.
NDTR_BRANCHES = [(0.0, 1.0 / SQRT2), (1.0 / SQRT2, 1.0), (1.0, 8.0), (8.0, 26.6), (26.7, 40.0)]


@pytest.mark.parametrize("z_range", NDTR_BRANCHES, ids=lambda r: f"z{r[0]:.3g}-{r[1]:.3g}")
def test_ndtr_matches_scipy_bits_in_each_branch(z_range):
    x = SQRT2 * np.random.default_rng(17).uniform(*z_range, 100_000)
    x = np.concatenate([x, -x]).reshape(2, 10, -1)
    assert_same_bits(privacy.ndtr(x), ndtr(x))


def test_ndtr_matches_scipy_bits_at_edges():
    tiny = np.finfo(float).smallest_subnormal
    boundaries = SQRT2 * np.array([1.0 / SQRT2, 1.0, 8.0, np.sqrt(7.09782712893383996843e2)])
    near = (boundaries[:, None] * (1.0 + np.arange(-50, 51) * 2.0**-52)).ravel()
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1e-310, -1e-310, 1e308, -1e308],
        near, -near, np.random.default_rng(5).standard_normal(100_000),
    ])
    assert_same_bits(privacy.ndtr(x), ndtr(x))
    assert privacy.ndtr(0.0) == 0.5 and isinstance(privacy.ndtr(0.0), np.float64)


@pytest.mark.parametrize(
    "y",
    [
        pytest.param(np.random.default_rng(19).uniform(np.exp(-2.0), 1.0 - np.exp(-2.0), 100_000), id="centre"),
        # tails in x = sqrt(-2 log y): below 8, and from 8 down to the subnormals
        pytest.param(np.exp(-0.5 * np.random.default_rng(23).uniform(2.0, 8.0, 100_000) ** 2), id="tail-below-8"),
        pytest.param(np.exp(-np.random.default_rng(29).uniform(32.0, 745.0, 100_000)), id="tail-from-8"),
        pytest.param(1.0 - np.exp(-np.random.default_rng(31).uniform(2.0, 37.0, 100_000)), id="near-one"),
    ],
)
def test_ndtri_matches_scipy_bits_in_each_branch(y):
    assert_same_bits(privacy.ndtri(y), ndtri(y))


def test_ndtri_matches_scipy_bits_at_edges():
    tiny = np.finfo(float).smallest_subnormal
    e2 = np.exp(-2.0)
    y = np.array([
        0.0, -0.0, 1.0, tiny, 1e-310, 1e-300, np.nextafter(1.0, 0.0), 0.5,
        e2, np.nextafter(e2, 1.0), np.nextafter(e2, 0.0), 1.0 - e2, np.nextafter(1.0 - e2, 1.0),
        np.exp(-32.0), np.nextafter(np.exp(-32.0), 1.0), np.nextafter(np.exp(-32.0), 0.0),
        # out of the domain: NaN, as in scipy
        np.nan, -np.nan, -tiny, -1.0, np.nextafter(1.0, 2.0), 2.0, np.inf, -np.inf,
    ])
    assert_same_bits(privacy.ndtri(y), ndtri(y))
    assert privacy.ndtri(0.0) == -np.inf and privacy.ndtri(1.0) == np.inf
    assert np.isnan(privacy.ndtri(y[-8:])).all()


@settings(max_examples=500, deadline=None)
@given(st.floats(), st.floats())
def test_ndtr_and_ndtri_match_scipy_bits_property(x, y):
    assert_same_bits(privacy.ndtr(np.array([x])), ndtr(np.array([x])))
    assert_same_bits(privacy.ndtri(np.array([y])), ndtri(np.array([y])))
    p = privacy.ndtr(np.array([x, x / 8.0]))
    assert_same_bits(privacy.ndtri(p), ndtri(p))
