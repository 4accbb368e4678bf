import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netdp.core import PrivacyBudget, rng_stream
from netdp.errors import ValidityWindowError
from netdp.mechanisms import (
    GAUSSIAN,
    LAPLACE,
    calibrate_gaussian,
    check_categories,
    clip_contribution,
    gaussian_epsilon,
    perturb,
    rr_epsilon_to_gamma,
    rr_gamma_draws,
)


class TestCalibrateGaussian:
    def test_golden_value(self):
        # sqrt(2 ln(1.25e6)) / 0.5, frozen from a direct one-line evaluation
        sigma = calibrate_gaussian(1.0, PrivacyBudget(0.5, 1e-6))
        assert sigma == pytest.approx(10.597605053700947, rel=1e-12)

    def test_variance_matches_doubled_lipschitz_form(self):
        # with sensitivity 2L the calibrated variance is 8 L^2 ln(1.25/d)/e^2
        L, eps, delta = 1.7, 0.3, 1e-5
        sigma = calibrate_gaussian(2 * L, PrivacyBudget(eps, delta))
        assert sigma**2 == pytest.approx(8 * L**2 * math.log(1.25 / delta) / eps**2, rel=1e-12)

    def test_linear_in_sensitivity(self):
        b = PrivacyBudget(0.4, 1e-7)
        assert calibrate_gaussian(2.0, b) == pytest.approx(2 * calibrate_gaussian(1.0, b), rel=1e-12)

    def test_eps_at_least_one_rejected(self):
        with pytest.raises(ValidityWindowError):
            calibrate_gaussian(1.0, PrivacyBudget(1.0, 1e-6))

    def test_round_trip(self):
        b = PrivacyBudget(0.25, 1e-8)
        sigma = calibrate_gaussian(3.0, b)
        assert gaussian_epsilon(sigma, 3.0, b.delta) == pytest.approx(b.epsilon, rel=1e-12)


class TestPerturb:
    def test_unbiased_clt_band(self, rng):
        sigma, draws = 2.0, 10**6
        out = perturb(np.zeros(draws), GAUSSIAN, sigma, rng)
        assert abs(out.mean()) < 3 * sigma / math.sqrt(draws)

    def test_vanishing_scale_returns_input(self, rng):
        out = perturb(1.5, GAUSSIAN, 1e-12, rng)
        assert out == pytest.approx(1.5, abs=1e-10)

    def test_variance(self, rng):
        sigma = 0.7
        out = perturb(np.zeros(10**6), GAUSSIAN, sigma, rng)
        assert out.var() == pytest.approx(sigma**2, rel=0.02)

    def test_laplace_emitted_stddev(self, rng):
        # Laplace(b) has std b * sqrt(2): Monte Carlo moment check
        draws = perturb(np.zeros(10**6), LAPLACE, 4.0 * math.sqrt(2.0), rng)
        assert draws.std() == pytest.approx(4.0 * math.sqrt(2.0), rel=0.01)
        assert np.mean(np.abs(draws)) == pytest.approx(4.0, rel=0.01)  # E|X| = b

    def test_composed_variance_adds(self, rng):
        # n perturbations add variance n * sigma^2
        sigma, reps = 1.3, 8
        acc = np.zeros(200_000)
        for _ in range(reps):
            acc = perturb(acc, GAUSSIAN, sigma, rng)
        assert acc.var() == pytest.approx(reps * sigma**2, rel=0.02)

    @pytest.mark.parametrize("kind", [GAUSSIAN, LAPLACE])
    def test_out_receives_the_result(self, kind):
        scales = np.linspace(0.0, 2.0, 40)
        out = np.full(40, np.nan)
        got = perturb(1.5, kind, scales, rng_stream(4, 1), out=out)
        assert got is out
        assert out.tobytes() == perturb(1.5, kind, scales, rng_stream(4, 1)).tobytes()

    @pytest.mark.parametrize("kind", [GAUSSIAN, LAPLACE])
    def test_per_entry_stddev_draws_like_scalar(self, kind):
        # protocols pass one std-dev per step; the draws must not depend on
        # whether the std-dev is a scalar or an array
        a = perturb(np.zeros(50), kind, 0.8, rng_stream(3, 1))
        b = perturb(0.0, kind, np.full(50, 0.8), rng_stream(3, 1))
        np.testing.assert_array_equal(a, b)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            perturb(0.0, "cauchy", 1.0, rng)


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 60), zeros=st.integers(0, 60),
       scalar=st.floats(0.0, 1e3))
def test_gaussian_perturb_draws_what_normal_draws(seed, size, zeros, scalar):
    """Per-entry and scalar scales, zeros included, give the bytes of
    ``rng.normal(0.0, stddev, shape)``, signed zeros too: x = -0.0 keeps the
    sign of a zero draw, which x = 0.0 would erase."""
    scales = rng_stream(seed, 2).uniform(0.0, 5.0, size)
    scales[:zeros] = 0.0
    for x, stddev in ((-0.0, scales), (np.full(size, -0.0), scalar), (0.0, scalar),
                      (np.full(size, -0.0), 0.0)):
        got = perturb(x, GAUSSIAN, stddev, rng_stream(seed, 1))
        expected = x + rng_stream(seed, 1).normal(0.0, stddev, np.broadcast(x, stddev).shape)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert np.shape(got) == np.shape(expected)
        buffer = np.empty(np.shape(expected))
        assert perturb(x, GAUSSIAN, stddev, rng_stream(seed, 1), out=buffer) is buffer
        assert buffer.tobytes() == np.asarray(expected).tobytes()


def rr_responses(xs, gamma, domain_size, rng):
    """The responses of randomized response on the values xs."""
    mask, categories = rr_gamma_draws(xs.size, gamma, domain_size, rng)
    out = xs.copy()
    out[mask] = categories
    return out, mask


class TestRandomizedResponse:
    def test_gamma_zero_is_identity(self, rng):
        xs = np.arange(1, 5)
        out, mask = rr_responses(xs, 0.0, 4, rng)
        assert out.tolist() == xs.tolist()
        assert not mask.any()

    def test_gamma_one_uniform(self, rng):
        out, _ = rr_responses(np.ones(10**5, dtype=int), 1.0, 2, rng)
        assert np.mean(out == 1) == pytest.approx(0.5, abs=0.005)

    def test_plug_in_probabilities(self, rng):
        # gamma=0.3, L=5: keep prob 0.76, each other value 0.06
        out, _ = rr_responses(np.full(10**5, 2), 0.3, 5, rng)
        freqs = np.bincount(out, minlength=6)[1:] / out.size
        assert freqs[1] == pytest.approx(0.76, abs=0.01)
        for other in (0, 2, 3, 4):
            assert freqs[other] == pytest.approx(0.06, abs=0.01)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            check_categories(np.array([0]), 3)
        with pytest.raises(ValueError):
            check_categories(np.array([1, 4]), 3)
        assert check_categories([[1.0, 3.0]], 3).dtype == np.int64

    def test_gamma_outside_unit_interval(self, rng):
        with pytest.raises(ValueError):
            rr_gamma_draws(1, 1.5, 3, rng)

    def test_buffers_take_the_draws(self):
        # reused buffers consume the stream as new arrays do
        mask, uniforms = np.empty(500, dtype=bool), np.empty(500)
        got = rr_gamma_draws(500, 0.3, 4, rng_stream(7, 2), mask, uniforms)
        expected = rr_gamma_draws(500, 0.3, 4, rng_stream(7, 2))
        assert got[0] is mask
        assert uniforms.tolist() == rng_stream(7, 2).random(500).tolist()
        for a, b in zip(got, expected):
            assert a.tolist() == b.tolist()


class TestRrCalibration:
    def test_hand_checked(self):
        assert rr_epsilon_to_gamma(math.log(2), 2) == pytest.approx(2 / 3, rel=1e-12)

    def test_golden(self):
        assert rr_epsilon_to_gamma(1.0, 10) == pytest.approx(0.8533674259065845, rel=1e-12)

    def test_large_eps_limit(self):
        assert rr_epsilon_to_gamma(50.0, 8) < 1e-18

    @pytest.mark.parametrize("eps0", [0.1, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("L", [2, 5, 64])
    def test_ldp_ratio_exact(self, eps0, L):
        # worst-case likelihood ratio across all (x, x', y) is exactly e^eps0
        gamma = rr_epsilon_to_gamma(eps0, L)
        keep = 1 - gamma + gamma / L
        other = gamma / L
        assert keep / other == pytest.approx(math.exp(eps0), rel=1e-12)
        assert keep >= other  # every other ratio is keep/other or 1

    @given(
        eps0=st.floats(min_value=1e-3, max_value=8, allow_nan=False),
        L=st.integers(min_value=2, max_value=1000),
    )
    def test_round_trip(self, eps0, L):
        # the worst-case likelihood ratio of the calibrated gamma is e^eps0
        gamma = rr_epsilon_to_gamma(eps0, L)
        assert (1 - gamma + gamma / L) / (gamma / L) == pytest.approx(math.exp(eps0), rel=1e-9)


def test_clip_contribution():
    assert clip_contribution(3.0, 1.0) == 0.5
    assert clip_contribution(-3.0, 1.0) == -0.5
    np.testing.assert_allclose(clip_contribution(np.array([0.2, -0.7]), 1.0), [0.2, -0.5])
    assert clip_contribution(-3.0, 0.0) == 0.0


@pytest.mark.parametrize("sensitivity", [-1.0, -1e-300, math.nan])
def test_clip_contribution_rejects_negative_bound(sensitivity):
    with pytest.raises(ValueError, match="sensitivity must be >= 0"):
        clip_contribution(np.array([0.2, -0.7]), sensitivity)
