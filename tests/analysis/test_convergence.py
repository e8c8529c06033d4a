"""Tests for the Theorem 2 / Corollary 1 bound evaluation."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    ConvergenceConstants,
    corollary1_rate,
    learning_rate_interval,
    theorem2_bound,
)


@pytest.fixture
def constants():
    return ConvergenceConstants(
        smoothness=1.0, gradient_variance=0.5, heterogeneity=1.0, rho=0.25, omega_min=0.2
    )


class TestConstantsValidation:
    def test_valid(self, constants):
        assert constants.smoothness == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(smoothness=0.0, gradient_variance=1, heterogeneity=1, rho=0.5, omega_min=0.2),
            dict(smoothness=1.0, gradient_variance=-1, heterogeneity=1, rho=0.5, omega_min=0.2),
            dict(smoothness=1.0, gradient_variance=1, heterogeneity=1, rho=1.0, omega_min=0.2),
            dict(smoothness=1.0, gradient_variance=1, heterogeneity=1, rho=0.5, omega_min=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceConstants(**kwargs)


class TestLearningRateInterval:
    def test_interval_structure(self, constants):
        lower, upper = learning_rate_interval(constants, momentum=0.9)
        assert lower > 0
        assert upper > 0

    def test_window_is_empty_as_transcribed_from_the_paper(self, constants):
        """Reproduction finding: eq. 31/85's window is empty for every momentum.

        The lower bound (1-alpha)^2 / alpha (from requiring m1 > 0) always
        exceeds the upper bound derived from eq. 84 — one can show
        upper <= lower / 2 analytically.  We record the observation here; the
        bound evaluation itself only enforces m1 > 0.
        """
        for momentum in (0.05, 0.5, 0.9, 0.97, 0.999):
            lower, upper = learning_rate_interval(constants, momentum=momentum)
            assert upper <= lower

    def test_low_momentum_gives_empty_window(self, constants):
        # with small alpha the lower bound (1-alpha)^2/alpha explodes
        lower, upper = learning_rate_interval(constants, momentum=0.05)
        assert lower > upper

    def test_invalid_momentum(self, constants):
        with pytest.raises(ValueError):
            learning_rate_interval(constants, momentum=0.0)
        with pytest.raises(ValueError):
            learning_rate_interval(constants, momentum=1.0)


class TestTheorem2Bound:
    def valid_kwargs(self, constants, **overrides):
        kwargs = dict(
            constants=constants,
            learning_rate=0.02,
            momentum=0.97,
            num_rounds=100,
            num_agents=10,
            clip_threshold=1.0,
            sigma=0.1,
            dimension=100,
            initial_gap=5.0,
        )
        kwargs.update(overrides)
        return kwargs

    def test_positive_and_finite(self, constants):
        bound = theorem2_bound(**self.valid_kwargs(constants))
        assert np.isfinite(bound)
        assert bound > 0

    def test_monotone_in_sigma(self, constants):
        low = theorem2_bound(**self.valid_kwargs(constants, sigma=0.05))
        high = theorem2_bound(**self.valid_kwargs(constants, sigma=0.5))
        assert high > low

    def test_monotone_in_initial_gap(self, constants):
        small = theorem2_bound(**self.valid_kwargs(constants, initial_gap=1.0))
        large = theorem2_bound(**self.valid_kwargs(constants, initial_gap=50.0))
        assert large > small

    def test_first_term_vanishes_with_rounds(self, constants):
        short = theorem2_bound(**self.valid_kwargs(constants, num_rounds=10))
        long = theorem2_bound(**self.valid_kwargs(constants, num_rounds=100000))
        assert long < short

    def test_learning_rate_below_window_rejected(self, constants):
        with pytest.raises(ValueError):
            theorem2_bound(**self.valid_kwargs(constants, learning_rate=1e-6))

    def test_invalid_arguments(self, constants):
        with pytest.raises(ValueError):
            theorem2_bound(**self.valid_kwargs(constants, num_rounds=0))
        with pytest.raises(ValueError):
            theorem2_bound(**self.valid_kwargs(constants, clip_threshold=0.0))
        with pytest.raises(ValueError):
            theorem2_bound(**self.valid_kwargs(constants, sigma=-0.1))


class TestCorollary1:
    def test_decreases_with_rounds(self):
        assert corollary1_rate(10_000, 10, 0.1, 100) < corollary1_rate(100, 10, 0.1, 100)

    def test_increases_with_noise(self):
        assert corollary1_rate(1000, 10, 1.0, 100) > corollary1_rate(1000, 10, 0.1, 100)

    def test_roughly_one_over_sqrt_t_scaling(self):
        r1 = corollary1_rate(10_000, 10, 0.0, 100)
        r2 = corollary1_rate(40_000, 10, 0.0, 100)
        # quadrupling T should roughly halve the bound when the 1/T terms are negligible
        assert r2 == pytest.approx(r1 / 2, rel=0.15)

    def test_more_agents_smaller_bound(self):
        assert corollary1_rate(1000, 100, 0.1, 100) < corollary1_rate(1000, 2, 0.1, 100)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            corollary1_rate(0, 10, 0.1, 100)
        with pytest.raises(ValueError):
            corollary1_rate(100, 10, -0.1, 100)
        with pytest.raises(ValueError):
            corollary1_rate(100, 10, 0.1, 100, constant=0.0)
