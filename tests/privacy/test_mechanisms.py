"""Tests for clipping and the Gaussian mechanism."""

import numpy as np
import pytest

from repro.privacy.mechanisms import (
    GaussianMechanism,
    clip_by_l2_norm,
    clip_rows_by_l2_norm,
    clipped_sensitivity,
)


class TestClipping:
    def test_short_vector_unchanged(self):
        v = np.array([0.3, 0.4])  # norm 0.5
        np.testing.assert_array_equal(clip_by_l2_norm(v, 1.0), v)

    def test_long_vector_scaled_to_threshold(self):
        v = np.array([3.0, 4.0])  # norm 5
        clipped = clip_by_l2_norm(v, 1.0)
        np.testing.assert_allclose(np.linalg.norm(clipped), 1.0)
        # direction preserved
        np.testing.assert_allclose(clipped / np.linalg.norm(clipped), v / np.linalg.norm(v))

    def test_norm_never_exceeds_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=50) * rng.uniform(0.1, 100)
            assert np.linalg.norm(clip_by_l2_norm(v, 2.5)) <= 2.5 + 1e-12

    def test_boundary_vector_unchanged(self):
        v = np.array([1.0, 0.0])
        np.testing.assert_array_equal(clip_by_l2_norm(v, 1.0), v)

    def test_zero_vector(self):
        v = np.zeros(5)
        np.testing.assert_array_equal(clip_by_l2_norm(v, 1.0), v)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            clip_by_l2_norm(np.ones(3), 0.0)

    def test_sensitivity_is_twice_threshold(self):
        assert clipped_sensitivity(1.5) == 3.0
        with pytest.raises(ValueError):
            clipped_sensitivity(-1.0)


class TestGaussianMechanism:
    def test_zero_sigma_is_identity(self):
        mech = GaussianMechanism(0.0, np.random.default_rng(0), clip_threshold=1.0)
        v = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(mech.privatize(v), v)

    def test_noise_statistics(self):
        mech = GaussianMechanism(2.0, np.random.default_rng(0))
        v = np.zeros(20000)
        noised = mech.add_noise(v)
        assert abs(noised.mean()) < 0.05
        assert abs(noised.std() - 2.0) < 0.05

    def test_privatize_clips_then_noises(self):
        mech = GaussianMechanism(0.0, np.random.default_rng(0), clip_threshold=1.0)
        v = np.array([30.0, 40.0])
        out = mech.privatize(v)
        np.testing.assert_allclose(np.linalg.norm(out), 1.0)

    def test_clip_identity_without_threshold(self):
        mech = GaussianMechanism(1.0, np.random.default_rng(0))
        v = np.array([30.0, 40.0])
        np.testing.assert_array_equal(mech.clip(v), v)

    def test_deterministic_given_seed(self):
        m1 = GaussianMechanism(1.0, np.random.default_rng(3), clip_threshold=1.0)
        m2 = GaussianMechanism(1.0, np.random.default_rng(3), clip_threshold=1.0)
        v = np.ones(10)
        np.testing.assert_array_equal(m1.privatize(v), m2.privatize(v))

    def test_different_calls_different_noise(self):
        mech = GaussianMechanism(1.0, np.random.default_rng(0))
        v = np.ones(10)
        assert not np.allclose(mech.add_noise(v), mech.add_noise(v))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianMechanism(-1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GaussianMechanism(1.0, np.random.default_rng(0), clip_threshold=0.0)

    def test_output_shape_preserved(self):
        mech = GaussianMechanism(0.5, np.random.default_rng(0), clip_threshold=1.0)
        v = np.random.default_rng(1).normal(size=(37,))
        assert mech.privatize(v).shape == v.shape


class TestRowWiseClipping:
    def test_matches_per_vector_clipping(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(12, 30)) * rng.uniform(0.1, 50, size=(12, 1))
        rows = clip_rows_by_l2_norm(matrix, 2.0)
        for k in range(matrix.shape[0]):
            np.testing.assert_allclose(
                rows[k], clip_by_l2_norm(matrix[k], 2.0), rtol=1e-12, atol=1e-15
            )

    def test_equals_per_vector_clipping_to_round_off(self):
        # The row-wise norm and np.linalg.norm of one row may differ in the
        # last bit, so a clipped row matches per-vector clipping only to
        # round-off; rows that are not clipped come back exactly.
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(2000, 68)) * rng.uniform(0.01, 0.5, size=(2000, 1))
        rows = clip_rows_by_l2_norm(matrix, 1.0)
        looped = np.stack([clip_by_l2_norm(row, 1.0) for row in matrix])
        np.testing.assert_allclose(rows, looped, rtol=1e-15, atol=0.0)
        short = np.linalg.norm(matrix, axis=1) <= 1.0
        assert short.any() and not short.all()
        np.testing.assert_array_equal(rows[short], matrix[short])

    def test_returns_new_array(self):
        matrix = np.ones((3, 4))
        rows = clip_rows_by_l2_norm(matrix, 100.0)
        rows[0, 0] = -1.0
        assert matrix[0, 0] == 1.0

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            clip_rows_by_l2_norm(np.ones(5), 1.0)

    def test_rejects_invalid_threshold(self):
        with pytest.raises(ValueError):
            clip_rows_by_l2_norm(np.ones((2, 3)), 0.0)
