"""Tests for the forward corruption, denoising loss, and ancestral sampler."""

import numpy as np
import pytest

from diffunlearn import diffusion
from diffunlearn.diffusion import (
    NoiseSchedule,
    ddpm_sample,
    diffusion_loss,
    make_schedule,
    q_sample,
)
from diffunlearn.errors import DomainError, ShapeError
from diffunlearn.nn import init_model, param_count, NoisePredictor
from gradcheck import finite_diff_grad


class TestMakeSchedule:
    def test_hand_computed_four_step_schedule(self):
        # Cumulative products by hand: 0.9, 0.9*0.8, 0.72*0.7, 0.504*0.6.
        sched = make_schedule(4, 0.1, 0.4)
        np.testing.assert_allclose(sched.betas, [0.1, 0.2, 0.3, 0.4], rtol=1e-14)
        np.testing.assert_allclose(
            sched.alpha_bars, [0.9, 0.72, 0.504, 0.3024], rtol=1e-14
        )

    def test_single_step_schedule(self):
        sched = make_schedule(1, 0.05, 0.9)
        np.testing.assert_allclose(sched.betas, [0.05])
        np.testing.assert_allclose(sched.alpha_bars, [0.95])

    def test_invalid_ranges_rejected(self):
        with pytest.raises(DomainError):
            make_schedule(0, 0.1, 0.2)
        with pytest.raises(DomainError):
            make_schedule(4, 0.0, 0.2)
        with pytest.raises(DomainError):
            make_schedule(4, 0.1, 1.0)
        with pytest.raises(DomainError):
            make_schedule(4, 0.3, 0.2)

    def test_alpha_bars_strictly_decreasing_across_random_schedules(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lo = float(rng.uniform(1e-5, 0.4))
            hi = float(rng.uniform(lo, 0.9))
            sched = make_schedule(int(rng.integers(2, 60)), lo, hi)
            assert np.all(np.diff(sched.alpha_bars) < 0.0)
            assert np.all((sched.alpha_bars > 0.0) & (sched.alpha_bars < 1.0))

    def test_schedule_rejects_inconsistent_vectors(self):
        with pytest.raises(DomainError):
            NoiseSchedule(2, np.array([0.1, 0.2]), np.array([0.9, 0.95]))
        with pytest.raises(ShapeError):
            NoiseSchedule(3, np.array([0.1, 0.2]), np.array([0.9, 0.72]))


class TestQSample:
    def test_zero_noise_scales_input(self):
        sched = make_schedule(4, 0.1, 0.4)
        x0 = np.array([[1.0, -2.0], [0.5, 0.0]])
        out = q_sample(x0, 3, np.zeros_like(x0), sched)
        np.testing.assert_allclose(out, np.sqrt(0.504) * x0, rtol=1e-14)

    def test_hand_computed_two_dim_example(self):
        # alpha_bar = 0.72 at t=2: output (sqrt(0.72), sqrt(0.28)).
        sched = make_schedule(4, 0.1, 0.4)
        out = q_sample(np.array([[1.0, 0.0]]), 2, np.array([[0.0, 1.0]]), sched)
        np.testing.assert_allclose(out, [[0.84852813742, 0.52915026221]], rtol=1e-10)

    def test_per_sample_timesteps(self):
        sched = make_schedule(4, 0.1, 0.4)
        x0 = np.ones((2, 2))
        out = q_sample(x0, np.array([1, 4]), np.zeros((2, 2)), sched)
        np.testing.assert_allclose(out[0], np.sqrt(0.9) * np.ones(2), rtol=1e-14)
        np.testing.assert_allclose(out[1], np.sqrt(0.3024) * np.ones(2), rtol=1e-14)

    def test_out_of_range_timestep_rejected(self):
        sched = make_schedule(4, 0.1, 0.4)
        for t in (0, 5):
            with pytest.raises(DomainError):
                q_sample(np.ones((1, 2)), t, np.zeros((1, 2)), sched)

    def test_mismatched_shapes_rejected(self):
        sched = make_schedule(4, 0.1, 0.4)
        with pytest.raises(ShapeError):
            q_sample(np.ones((2, 2)), 1, np.zeros((3, 2)), sched)

    def test_monte_carlo_moments(self):
        # 1e5 draws: sample mean and variance against the closed-form
        # marginal N(sqrt(abar) x0, (1 - abar) I), three-standard-error band.
        sched = make_schedule(4, 0.1, 0.4)
        n = 100_000
        x0 = np.tile([1.0, -0.5], (n, 1))
        eps = np.random.default_rng(321).standard_normal((n, 2))
        out = q_sample(x0, 2, eps, sched)
        abar = 0.72
        mean_se = np.sqrt((1.0 - abar) / n)
        assert np.all(np.abs(out.mean(axis=0) - np.sqrt(abar) * x0[0]) < 3 * mean_se)
        var = out.var(axis=0, ddof=1)
        var_se = (1.0 - abar) * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var - (1.0 - abar)) < 3 * var_se)


class TestDiffusionLoss:
    def small_model(self, seed=3):
        rng = np.random.default_rng(seed)
        model = init_model(2, (5,), 2, 4, rng)
        return model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))

    def test_perfect_prediction_gives_zero_loss_and_grad(self, monkeypatch):
        # Inject a corruption whose noise is exactly the model's prediction.
        sched = make_schedule(4, 0.1, 0.4)
        model = self.small_model()
        x0 = np.random.default_rng(0).standard_normal((3, 2))

        def oracle_corruption(schedule, x0_batch, rng):
            t = np.array([2, 1, 4])
            x_t = q_sample(x0_batch, t, np.zeros_like(x0_batch), schedule)
            from diffunlearn.nn import mlp_forward

            return x_t, t, mlp_forward(model, x_t, t, np.array([0, 1, 0]))

        monkeypatch.setattr(diffusion, "draw_corruption", oracle_corruption)
        loss, grad = diffusion_loss(
            model, x0, np.array([0, 1, 0]), sched, np.random.default_rng(1)
        )
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(model.num_params))

    def test_bit_exact_reproducibility(self):
        sched = make_schedule(4, 0.1, 0.4)
        model = self.small_model()
        x0 = np.random.default_rng(5).standard_normal((6, 2))
        cids = np.array([0, 1, 0, 1, 0, 1])
        l1, g1 = diffusion_loss(model, x0, cids, sched, np.random.default_rng(99))
        l2, g2 = diffusion_loss(model, x0, cids, sched, np.random.default_rng(99))
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_gradient_matches_finite_differences(self):
        sched = make_schedule(4, 0.1, 0.4)
        model = self.small_model()
        x0 = np.random.default_rng(8).standard_normal((4, 2))
        cids = np.array([1, 0, 1, 0])
        _, grad = diffusion_loss(model, x0, cids, sched, np.random.default_rng(17))

        def loss_fn(p):
            # Re-seeding reproduces the same (t, eps) draws each evaluation.
            loss, _ = diffusion_loss(
                model.with_params(p), x0, cids, sched, np.random.default_rng(17)
            )
            return loss

        fd = finite_diff_grad(loss_fn, model.params, h=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)

    def test_loss_nonnegative(self):
        sched = make_schedule(4, 0.1, 0.4)
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = self.small_model(seed=int(rng.integers(1e6)))
            x0 = rng.standard_normal((3, 2))
            loss, _ = diffusion_loss(model, x0, 0, sched, rng)
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        sched = make_schedule(4, 0.1, 0.4)
        with pytest.raises(DomainError):
            diffusion_loss(
                self.small_model(), np.empty((0, 2)), None, sched, np.random.default_rng(0)
            )


class TestDdpmSample:
    def test_single_step_zero_model_rescales_initial_noise(self):
        # With e_theta = 0 and T=1: output = x_1 / sqrt(1 - beta_1), no noise
        # added at the final step.
        beta = 0.2
        sched = make_schedule(1, beta, beta)
        n_params = param_count(2, (4,), 1, 1)
        model = NoisePredictor(2, (4,), 1, 1, 4, 4, np.zeros(n_params))
        out = ddpm_sample(model, 0, 5, sched, 123)
        x1 = np.random.default_rng(123).standard_normal((5, 2))
        np.testing.assert_allclose(out.samples, x1 / np.sqrt(1.0 - beta), rtol=1e-14)
        assert out.seed == 123

    def test_identical_seeds_identical_samples(self):
        rng = np.random.default_rng(2)
        sched = make_schedule(6, 0.05, 0.3)
        model = init_model(2, (8,), 2, 6, rng)
        model = model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))
        a = ddpm_sample(model, 1, 7, sched, 55)
        b = ddpm_sample(model, 1, 7, sched, 55)
        assert np.array_equal(a.samples, b.samples)

    def test_generator_argument_records_no_seed(self):
        sched = make_schedule(2, 0.1, 0.2)
        model = init_model(2, (4,), 1, 2, np.random.default_rng(0))
        out = ddpm_sample(model, None, 3, sched, np.random.default_rng(4))
        assert out.seed is None

    def test_trajectory_records_every_state(self):
        sched = make_schedule(5, 0.05, 0.2)
        model = init_model(2, (4,), 1, 5, np.random.default_rng(1))
        out = ddpm_sample(model, 0, 3, sched, 9, keep_trajectory=True)
        assert len(out.trajectory) == 6
        x_init = np.random.default_rng(9).standard_normal((3, 2))
        np.testing.assert_allclose(out.trajectory[0], x_init, rtol=1e-15)
        np.testing.assert_allclose(out.trajectory[-1], out.samples, rtol=1e-15)

    def test_nonpositive_count_rejected(self):
        sched = make_schedule(2, 0.1, 0.2)
        model = init_model(2, (4,), 1, 2, np.random.default_rng(0))
        with pytest.raises(DomainError):
            ddpm_sample(model, 0, 0, sched, 1)

    def test_trained_single_class_matches_mean(self):
        # End-to-end statistical check: fit one Gaussian blob, then the
        # sampler's mean over 1e4 draws must land within 3 standard errors.
        rng = np.random.default_rng(42)
        sched = make_schedule(50, 1e-4, 0.2)
        model = init_model(2, (64, 64), 1, 50, rng)
        mu0 = np.array([1.2, -0.8])

        steps = 20_000
        for step in range(steps):
            lr = 0.1 * (1.0 - step / steps) + 0.005
            x0 = mu0 + rng.standard_normal((128, 2))
            _, grad = diffusion_loss(model, x0, 0, sched, rng)
            model = model.with_params(model.params - lr * grad)

        out = ddpm_sample(model, 0, 10_000, sched, 7)
        se = out.samples.std(axis=0, ddof=1) / np.sqrt(10_000)
        assert np.all(np.abs(out.samples.mean(axis=0) - mu0) < 3 * se)
        assert np.all(np.isfinite(out.samples))
