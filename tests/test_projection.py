"""Tests for gradient projection and the conflict-aware combination rule."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from diffunlearn.errors import DegenerateGradientError, ShapeError
from diffunlearn.projection import project_away, restricted_gradient


def finite_vectors(dim):
    return arrays(
        np.float64,
        (dim,),
        elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    )


def vector_pairs():
    return st.integers(2, 16).flatmap(
        lambda d: st.tuples(finite_vectors(d), finite_vectors(d))
    )


class TestProjectAway:
    def test_hand_computed_example(self):
        # (1,0) minus its component along (-1,1): coefficient -1/2.
        out = project_away(np.array([1.0, 0.0]), np.array([-1.0, 1.0]))
        assert np.array_equal(out, [0.5, 0.5])

    def test_orthogonal_input_unchanged(self):
        g = np.array([1.0, 0.0])
        assert np.array_equal(project_away(g, np.array([0.0, 1.0])), g)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(12)
        onto = rng.standard_normal(12)
        base = project_away(g, onto)
        for c in (1e-6, 1.0, 1e6):
            np.testing.assert_allclose(
                project_away(g, c * onto), base, rtol=1e-12, atol=1e-12
            )

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateGradientError):
            project_away(np.array([1.0, 2.0]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            project_away(np.ones(3), np.ones(4))

    def test_matches_least_squares_residual(self):
        # Independent oracle: the projection of g off `onto` is the residual
        # of the one-column least-squares fit g ~ onto * c.
        rng = np.random.default_rng(77)
        for _ in range(100):
            d = int(rng.integers(2, 30))
            g = rng.standard_normal(d)
            onto = rng.standard_normal(d)
            coef, *_ = np.linalg.lstsq(onto[:, None], g, rcond=None)
            residual = g - onto * coef[0]
            out = project_away(g, onto)
            np.testing.assert_allclose(
                out, residual, rtol=1e-10, atol=1e-10 * np.linalg.norm(g)
            )

    @given(vector_pairs())
    # Nearly parallel inputs: a single pass cancels to |out . onto| = 8.4e-16.
    @example((np.array([3.0, 0.0]), np.array([3.0, 1.19e-7])))
    @settings(deadline=None)
    def test_result_orthogonal_to_direction(self, pair):
        g, onto = pair
        if np.linalg.norm(onto) < 1e-6:
            return
        out = project_away(g, onto)
        bound = 1e-9 * max(np.linalg.norm(out) * np.linalg.norm(onto), 1e-30)
        assert abs(float(out @ onto)) <= bound


class TestRestrictedGradient:
    def test_hand_computed_conflicting_pair(self):
        up = restricted_gradient(np.array([1.0, 0.0]), np.array([-1.0, 1.0]))
        assert up.conflicted
        assert up.dot == -1.0
        assert np.array_equal(up.delta_f, [0.5, 0.5])
        assert np.array_equal(up.delta_r, [0.0, 1.0])
        assert np.array_equal(up.combined, [0.5, 1.5])

    def test_orthogonal_pair_passes_through(self):
        gf = np.array([1.0, 0.0])
        gr = np.array([0.0, 1.0])
        up = restricted_gradient(gf, gr)
        assert not up.conflicted
        assert np.array_equal(up.combined, [1.0, 1.0])
        assert np.array_equal(up.delta_f, gf)
        assert np.array_equal(up.delta_r, gr)

    def test_aligned_pair_passes_through_bit_exactly(self):
        rng = np.random.default_rng(1)
        gf = rng.standard_normal(40)
        gr = gf + 0.1 * rng.standard_normal(40)
        assert float(gf @ gr) > 0
        up = restricted_gradient(gf, gr)
        assert not up.conflicted
        assert np.array_equal(up.combined, gf + gr)

    def test_anti_parallel_pair_annihilates(self):
        up = restricted_gradient(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert up.conflicted
        assert np.array_equal(up.delta_f, np.zeros(2))
        assert np.array_equal(up.delta_r, np.zeros(2))
        assert np.array_equal(up.combined, np.zeros(2))

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateGradientError):
            restricted_gradient(np.zeros(4), np.zeros(4))

    def test_one_zero_passes_through(self):
        gr = np.array([0.5, -0.5])
        up = restricted_gradient(np.zeros(2), gr)
        assert not up.conflicted
        assert np.array_equal(up.combined, gr)

    def test_norms_and_dot_reported(self):
        gf = np.array([3.0, 4.0])
        gr = np.array([-1.0, 0.0])
        up = restricted_gradient(gf, gr)
        assert up.norm_f == 5.0
        assert up.norm_r == 1.0
        assert up.dot == -3.0

    @given(vector_pairs())
    @settings(deadline=None)
    def test_conflicted_components_are_orthogonal(self, pair):
        gf, gr = pair
        nf, nr = np.linalg.norm(gf), np.linalg.norm(gr)
        if nf < 1e-6 or nr < 1e-6 or float(gf @ gr) >= 0:
            return
        up = restricted_gradient(gf, gr)
        assert up.conflicted
        # Near-anti-parallel pairs annihilate; the leftover component is
        # rounding noise of size ~eps * ||g||, hence the absolute floor.
        floor = 1e-12 * nf * nr
        assert (
            abs(float(up.delta_f @ gr))
            <= 1e-9 * np.linalg.norm(up.delta_f) * nr + floor
        )
        assert (
            abs(float(up.delta_r @ gf))
            <= 1e-9 * np.linalg.norm(up.delta_r) * nf + floor
        )

    @given(vector_pairs())
    @settings(deadline=None)
    def test_multiplier_reconstruction(self, pair):
        # Under conflict the applied forgetting component differs from the
        # raw gradient by exactly -(dot/||g_r||^2) * g_r, and symmetrically.
        gf, gr = pair
        nf, nr = np.linalg.norm(gf), np.linalg.norm(gr)
        if nf < 1e-6 or nr < 1e-6 or float(gf @ gr) >= 0:
            return
        up = restricted_gradient(gf, gr)
        lam_f = -up.dot / nr**2
        lam_r = -up.dot / nf**2
        np.testing.assert_allclose(
            up.delta_f - gf, lam_f * gr, rtol=1e-12, atol=1e-12 * nf
        )
        np.testing.assert_allclose(
            up.delta_r - gr, lam_r * gf, rtol=1e-12, atol=1e-12 * nr
        )

    @given(vector_pairs())
    # Exactly anti-parallel: both true components are zero, and a rounding
    # residual left in either one points against a raw gradient.
    @example((np.array([0.0, -1.8229287220541721]), np.array([0.0, 1.0])))
    @settings(deadline=None)
    def test_first_order_improvement_both_objectives(self, pair):
        # The combined direction has nonnegative inner product with both raw
        # gradients; tolerance admits rounding on near-anti-parallel pairs.
        gf, gr = pair
        nf, nr = np.linalg.norm(gf), np.linalg.norm(gr)
        if nf < 1e-6 or nr < 1e-6:
            return
        up = restricted_gradient(gf, gr)
        slack_f = 1e-9 * max(np.linalg.norm(up.combined) * nf, 1e-30)
        slack_r = 1e-9 * max(np.linalg.norm(up.combined) * nr, 1e-30)
        assert float(up.combined @ gf) >= -slack_f
        assert float(up.combined @ gr) >= -slack_r

    def test_equal_norm_conflict_rescales_raw_sum(self):
        # With equal norms n and dot d < 0 the combined direction is exactly
        # (1 - d/n^2) times the raw sum.
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 50))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            if float(u @ v) >= 0:
                v = -v
            if abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v)) > 0.999:
                continue
            scale = 3.7
            gf = scale * u / np.linalg.norm(u)
            gr = scale * v / np.linalg.norm(v)
            up = restricted_gradient(gf, gr)
            factor = 1.0 - up.dot / scale**2
            raw_sum = gf + gr
            cos = float(up.combined @ raw_sum) / (
                np.linalg.norm(up.combined) * np.linalg.norm(raw_sum)
            )
            assert abs(cos - 1.0) <= 1e-12
            assert np.isclose(
                np.linalg.norm(up.combined) / np.linalg.norm(raw_sum),
                factor,
                rtol=1e-12,
            )


class TestGradientDirectionOptimality:
    def test_gradient_maximizes_directional_derivative_on_quadratics(self):
        # Central differences are exact on quadratics, so the derivative
        # along the normalized gradient must equal the gradient norm and
        # dominate every other unit direction.
        rng = np.random.default_rng(2718)
        h = 1e-4
        for _ in range(5):
            d = int(rng.integers(2, 12))
            b_mat = rng.standard_normal((d, d))
            a_mat = b_mat + b_mat.T
            b_vec = rng.standard_normal(d)
            x0 = rng.standard_normal(d)

            def f(x):
                return 0.5 * float(x @ a_mat @ x) + float(b_vec @ x)

            def directional(u):
                return (f(x0 + h * u) - f(x0 - h * u)) / (2.0 * h)

            grad = a_mat @ x0 + b_vec
            gnorm = float(np.linalg.norm(grad))
            along_grad = directional(grad / gnorm)
            assert along_grad == pytest.approx(gnorm, rel=1e-6)
            for _ in range(100):
                u = rng.standard_normal(d)
                u /= np.linalg.norm(u)
                assert directional(u) <= along_grad + 1e-9 * max(gnorm, 1.0)
