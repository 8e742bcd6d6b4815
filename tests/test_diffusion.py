"""Tests for the forward corruption, denoising loss, and ancestral sampler."""

import dataclasses

import numpy as np
import pytest

from diffunlearn import diffusion
from diffunlearn.diffusion import (
    NoiseSchedule,
    _sample_classes,
    ddpm_sample,
    diffusion_loss,
    draw_corruption,
    q_sample,
)
from diffunlearn.errors import DomainError, SamplingDiverged, ShapeError
from diffunlearn.nn import init_model, param_count, NoisePredictor
from gradcheck import (
    finite_diff_grad,
    peak_allocation,
    reference_ddpm_sample,
    reference_full_eval_samples,
)


class TestMakeSchedule:
    def test_hand_computed_four_step_schedule(self):
        # Cumulative products by hand: 0.9, 0.9*0.8, 0.72*0.7, 0.504*0.6.
        sched = NoiseSchedule(4, 0.1, 0.4)
        np.testing.assert_allclose(sched.betas, [0.1, 0.2, 0.3, 0.4], rtol=1e-14)
        np.testing.assert_allclose(
            sched.alpha_bars, [0.9, 0.72, 0.504, 0.3024], rtol=1e-14
        )
        # The vectors are derived state: read-only, and not part of the
        # config document the schedule's fields form.
        with pytest.raises(ValueError):
            sched.betas[0] = 0.5
        assert dataclasses.asdict(sched) == {
            "num_timesteps": 4,
            "beta_min": 0.1,
            "beta_max": 0.4,
        }

    def test_single_step_schedule(self):
        sched = NoiseSchedule(1, 0.05, 0.9)
        np.testing.assert_allclose(sched.betas, [0.05])
        np.testing.assert_allclose(sched.alpha_bars, [0.95])

    def test_invalid_ranges_rejected(self):
        with pytest.raises(DomainError):
            NoiseSchedule(0, 0.1, 0.2)
        with pytest.raises(DomainError):
            NoiseSchedule(4, 0.0, 0.2)
        with pytest.raises(DomainError):
            NoiseSchedule(4, 0.1, 1.0)
        with pytest.raises(DomainError):
            NoiseSchedule(4, 0.3, 0.2)
        # 0.5**2000 underflows to zero; 1 - 1e-17 rounds to exactly 1.
        with pytest.raises(DomainError, match="alpha_bars"):
            NoiseSchedule(2000, 0.5, 0.9)
        with pytest.raises(DomainError, match="alpha_bars"):
            NoiseSchedule(3, 1e-17, 1e-17)

    def test_alpha_bars_strictly_decreasing_across_random_schedules(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lo = float(rng.uniform(1e-5, 0.4))
            hi = float(rng.uniform(lo, 0.9))
            sched = NoiseSchedule(int(rng.integers(2, 60)), lo, hi)
            assert np.all(np.diff(sched.alpha_bars) < 0.0)
            assert np.all((sched.alpha_bars > 0.0) & (sched.alpha_bars < 1.0))

    def test_sqrt_vectors_are_derived_read_only_state(self):
        sched = NoiseSchedule(100, 1e-4, 0.1)
        assert sched.sqrt_alpha_bars.tobytes() == np.sqrt(sched.alpha_bars).tobytes()
        assert (
            sched.sqrt_one_minus_alpha_bars.tobytes()
            == np.sqrt(1.0 - sched.alpha_bars).tobytes()
        )
        for arr in (sched.sqrt_alpha_bars, sched.sqrt_one_minus_alpha_bars):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert [f.name for f in dataclasses.fields(sched)] == [
            "num_timesteps", "beta_min", "beta_max"
        ]
        assert sched == NoiseSchedule(100, 1e-4, 0.1)



class TestDrawCorruption:
    def test_matches_q_sample_of_its_draws(self):
        # draw_corruption indexes the schedule's sqrt vectors with t - 1
        # unchecked; q_sample checks t and takes the same rows.
        sched = NoiseSchedule(100, 1e-4, 0.1)
        x0 = np.random.default_rng(0).standard_normal((128, 2))
        x_t, t, eps = draw_corruption(sched, x0, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        assert np.array_equal(t, replay.integers(1, 101, size=128))
        assert np.array_equal(eps, replay.standard_normal((128, 2)))
        assert x_t.tobytes() == q_sample(x0, t, eps, sched).tobytes()
        abar = sched.alpha_bars[t - 1][:, None]
        old = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
        assert x_t.tobytes() == old.tobytes()


class TestQSample:
    def test_zero_noise_scales_input(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        x0 = np.array([[1.0, -2.0], [0.5, 0.0]])
        out = q_sample(x0, 3, np.zeros_like(x0), sched)
        np.testing.assert_allclose(out, np.sqrt(0.504) * x0, rtol=1e-14)

    def test_hand_computed_two_dim_example(self):
        # alpha_bar = 0.72 at t=2: output (sqrt(0.72), sqrt(0.28)).
        sched = NoiseSchedule(4, 0.1, 0.4)
        out = q_sample(np.array([[1.0, 0.0]]), 2, np.array([[0.0, 1.0]]), sched)
        np.testing.assert_allclose(out, [[0.84852813742, 0.52915026221]], rtol=1e-10)

    def test_per_sample_timesteps(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        x0 = np.ones((2, 2))
        out = q_sample(x0, np.array([1, 4]), np.zeros((2, 2)), sched)
        np.testing.assert_allclose(out[0], np.sqrt(0.9) * np.ones(2), rtol=1e-14)
        np.testing.assert_allclose(out[1], np.sqrt(0.3024) * np.ones(2), rtol=1e-14)

    def test_out_of_range_timestep_rejected(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        for t in (0, 5):
            with pytest.raises(DomainError):
                q_sample(np.ones((1, 2)), t, np.zeros((1, 2)), sched)

    def test_mismatched_shapes_rejected(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        with pytest.raises(ShapeError):
            q_sample(np.ones((2, 2)), 1, np.zeros((3, 2)), sched)

    def test_non_integer_timesteps_rejected(self):
        # A fractional, float-typed or bool timestep is an error, never
        # truncated to a neighbouring row.
        sched = NoiseSchedule(4, 0.1, 0.4)
        x0 = np.ones((2, 2))
        for t in (1.5, np.float64(2.9), True, np.array([2.0, 3.0]), np.array([True, False])):
            with pytest.raises(DomainError, match="integers"):
                q_sample(x0, t, np.zeros((2, 2)), sched)
        whole = q_sample(x0, 2.0, np.zeros((2, 2)), sched)
        assert whole.tobytes() == q_sample(x0, 2, np.zeros((2, 2)), sched).tobytes()

    def test_monte_carlo_moments(self):
        # 1e5 draws: sample mean and variance against the closed-form
        # marginal N(sqrt(abar) x0, (1 - abar) I), three-standard-error band.
        sched = NoiseSchedule(4, 0.1, 0.4)
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
        sched = NoiseSchedule(4, 0.1, 0.4)
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
        sched = NoiseSchedule(4, 0.1, 0.4)
        model = self.small_model()
        x0 = np.random.default_rng(5).standard_normal((6, 2))
        cids = np.array([0, 1, 0, 1, 0, 1])
        l1, g1 = diffusion_loss(model, x0, cids, sched, np.random.default_rng(99))
        l2, g2 = diffusion_loss(model, x0, cids, sched, np.random.default_rng(99))
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_gradient_matches_finite_differences(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
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
        sched = NoiseSchedule(4, 0.1, 0.4)
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = self.small_model(seed=int(rng.integers(1e6)))
            x0 = rng.standard_normal((3, 2))
            loss, _ = diffusion_loss(model, x0, 0, sched, rng)
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        with pytest.raises(DomainError):
            diffusion_loss(
                self.small_model(), np.empty((0, 2)), None, sched, np.random.default_rng(0)
            )


class TestDdpmSample:
    def test_single_step_zero_model_rescales_initial_noise(self):
        # With e_theta = 0 and T=1: output = x_1 / sqrt(1 - beta_1), no noise
        # added at the final step.
        beta = 0.2
        sched = NoiseSchedule(1, beta, beta)
        n_params = param_count(2, (4,), 1, 1)
        model = NoisePredictor(2, (4,), 1, 1, 4, 4, np.zeros(n_params))
        out = ddpm_sample(model, 0, 5, sched, 123)
        x1 = np.random.default_rng(123).standard_normal((5, 2))
        np.testing.assert_allclose(out.samples, x1 / np.sqrt(1.0 - beta), rtol=1e-14)
        assert out.seed == 123

    def test_identical_seeds_identical_samples(self):
        rng = np.random.default_rng(2)
        sched = NoiseSchedule(6, 0.05, 0.3)
        model = init_model(2, (8,), 2, 6, rng)
        model = model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))
        a = ddpm_sample(model, 1, 7, sched, 55)
        b = ddpm_sample(model, 1, 7, sched, 55)
        assert np.array_equal(a.samples, b.samples)

    def test_generator_argument_records_no_seed(self):
        sched = NoiseSchedule(2, 0.1, 0.2)
        model = init_model(2, (4,), 1, 2, np.random.default_rng(0))
        out = ddpm_sample(model, None, 3, sched, np.random.default_rng(4))
        assert out.seed is None

    def test_nonpositive_count_rejected(self):
        sched = NoiseSchedule(2, 0.1, 0.2)
        model = init_model(2, (4,), 1, 2, np.random.default_rng(0))
        with pytest.raises(DomainError):
            ddpm_sample(model, 0, 0, sched, 1)

    @pytest.mark.parametrize("n", (1, 2000))
    @pytest.mark.parametrize("class_id", (0, 4, None, "per_sample"))
    @pytest.mark.parametrize("hidden", ((64,), (64, 64), (64, 32, 48)))
    def test_matches_per_step_reference(self, hidden, class_id, n):
        # Buffers reused across steps, class rows gathered once and
        # precomputed coefficient vectors give the bytes of one checked
        # mlp_forward per step with scalar coefficients.
        rng = np.random.default_rng(31)
        sched = NoiseSchedule(20, 1e-3, 0.2)
        model = init_model(2, hidden, 5, 20, rng)
        model = model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))
        if class_id == "per_sample":
            class_id = rng.integers(0, 5, size=n)
        out = ddpm_sample(model, class_id, n, sched, 12)
        ref = reference_ddpm_sample(model, class_id, n, sched, 12)
        assert out.samples.tobytes() == ref.tobytes()

    def test_class_checked_once_in_every_form(self):
        # The sampler checks class_id on entry as mlp_forward does.
        sched = NoiseSchedule(3, 0.1, 0.2)
        model = init_model(2, (4,), 3, 3, np.random.default_rng(0))
        for bad in (-1, 3, np.array([0, 3, 1]), 1.5, True, np.array([0.0, 1.0, 2.0])):
            with pytest.raises(DomainError, match="class ids"):
                ddpm_sample(model, bad, 3, sched, 1)
        for wrong_length in (np.array([0, 1]), np.array([0, 1, 2, 0])):
            with pytest.raises(ShapeError, match="class ids"):
                ddpm_sample(model, wrong_length, 3, sched, 1)

    def test_peak_allocation_is_the_live_hidden_layers(self):
        # A step holds at most the hidden activations it is building; the
        # table terms add one broadcast row, not n gathered copies.
        hidden, n = (64, 64), 2000
        sched = NoiseSchedule(5, 0.05, 0.3)
        model = init_model(2, hidden, 3, 5, np.random.default_rng(3))
        peak = peak_allocation(ddpm_sample, model, 1, n, sched, 9)
        assert peak <= (len(hidden) + 0.5) * n * hidden[0] * 8

    def test_trained_single_class_matches_mean(self):
        # End-to-end statistical check: fit one Gaussian blob, then the
        # sampler's mean over 1e4 draws must land within 3 standard errors.
        rng = np.random.default_rng(42)
        sched = NoiseSchedule(50, 1e-4, 0.2)
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


class TestLockStepSampler:
    """diffusion._sample_classes, full_eval's sampler, against the serial
    per-condition sampler it replaced."""

    @staticmethod
    def model(hidden, seed=31, steps=6):
        rng = np.random.default_rng(seed)
        model = init_model(2, hidden, 5, steps, rng)
        return model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))

    @pytest.mark.parametrize("n", (1, 7, 50, 1024, 1025, 1500))
    @pytest.mark.parametrize("hidden", ((64,), (64, 64), (64, 32, 48)))
    def test_matches_serial_samples_and_generator_state(self, hidden, n):
        # C = 1..5 conditions, every forget class first, the rest ascending;
        # n crosses the row budget, so groups of one to five conditions run.
        sched = NoiseSchedule(6, 1e-3, 0.2)
        model = self.model(hidden)
        for count in range(1, 6):
            for forget in range(count):
                classes = [forget, *(k for k in range(count) if k != forget)]
                gen, ref_gen = np.random.default_rng(count), np.random.default_rng(count)
                out = _sample_classes(model, classes, n, sched, gen)
                ref = reference_full_eval_samples(model, classes, n, sched, ref_gen)
                assert out.shape == (count, n, 2)
                assert out.tobytes() == ref.tobytes()
                assert gen.standard_normal(3).tobytes() == ref_gen.standard_normal(3).tobytes()

    def test_classes_checked_before_any_draw(self):
        sched = NoiseSchedule(6, 1e-3, 0.2)
        model = self.model((8,))
        gen = np.random.default_rng(0)
        for bad in ([0, 5], [-1, 2], [1.5, 0], [True, 0], [0, np.float64(2.5)]):
            with pytest.raises(DomainError, match="class ids"):
                _sample_classes(model, bad, 10, sched, gen)
        with pytest.raises(DomainError, match="horizon"):
            _sample_classes(model, [0, 1], 10, NoiseSchedule(7, 1e-3, 0.2), gen)
        assert gen.standard_normal(2).tobytes() == np.random.default_rng(0).standard_normal(2).tobytes()

    def test_integral_float_class_is_that_class(self):
        sched = NoiseSchedule(6, 1e-3, 0.2)
        model = self.model((8,))
        got = _sample_classes(model, [2.0, np.float64(0.0)], 10, sched, np.random.default_rng(4))
        want = _sample_classes(model, [2, 0], 10, sched, np.random.default_rng(4))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps", (50, 300))
    def test_matches_serial_when_noise_budget_splits_groups(self, steps):
        # At n = 200 the row budget stacks all five conditions; at T = 300
        # the noise budget cuts them into groups of two, which must not
        # change a byte.
        n = 200
        sched = NoiseSchedule(steps, 1e-3, 0.2)
        model = self.model((16,), steps=steps)
        expected = min(5, diffusion._ROWS // n, 1 + diffusion._NOISE_ROWS // (steps * n))
        assert expected == (5 if steps == 50 else 2)
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        out = _sample_classes(model, [3, 0, 1, 2, 4], n, sched, gen)
        ref = reference_full_eval_samples(model, [3, 0, 1, 2, 4], n, sched, ref_gen)
        assert out.tobytes() == ref.tobytes()
        assert gen.standard_normal(3).tobytes() == ref_gen.standard_normal(3).tobytes()

    @pytest.mark.parametrize("steps", (50, 1000))
    def test_peak_allocation_is_one_group_plus_its_noise(self, steps):
        # One group's hidden buffers, plus the earlier conditions' noise:
        # at most one row budget of draws per step, for up to 100 steps,
        # whatever the number of steps. At T = 1000, stacking all five
        # conditions would pre-draw 8 times that.
        hidden, n = (64, 64), 200
        sched = NoiseSchedule(steps, 1e-3, 0.2)
        model = self.model(hidden, steps=steps)
        rows = 5 * n
        assert rows <= diffusion._ROWS
        peak = peak_allocation(
            _sample_classes, model, [0, 1, 2, 3, 4], n, sched, np.random.default_rng(2)
        )
        noise = diffusion._ROWS * min(steps, 100) * 2 * 8
        assert peak <= (len(hidden) + 0.5) * rows * hidden[0] * 8 + noise


class TestNonFiniteSample:
    """A chain that leaves the finite floats stops the sampler with an error
    naming the condition and the timestep; it is never returned."""

    def model(self, row=None, bias=0.0):
        """Four classes over T = 6; the class-table ``row`` (4 is the
        unconditional row) is NaN, and ``bias`` is the output bias."""
        model = init_model(2, (8,), 4, 6, np.random.default_rng(3))
        params = model.params.copy()
        layout = model.layout
        params[layout.biases[-1]] = bias
        if row is not None:
            params[layout.class_table].reshape(5, 8)[row] = np.nan
        return model.with_params(params)

    def test_infinite_output_raises_at_first_step(self):
        model = self.model(bias=np.inf)
        with pytest.raises(SamplingDiverged, match="class 2 at timestep 6$"):
            ddpm_sample(model, 2, 10, NoiseSchedule(6, 0.01, 0.2), 1)

    @pytest.mark.parametrize("classes", ([0, 1, 2, 3], [3, 2, 0, 1]))
    def test_lock_step_names_the_diverging_class(self, classes):
        model = self.model(row=1)
        sched = NoiseSchedule(6, 0.01, 0.2)
        with pytest.raises(SamplingDiverged, match="class 1 at timestep 6"):
            _sample_classes(model, classes, 10, sched, np.random.default_rng(0))
        # Without class 1 every chain stays finite.
        out = _sample_classes(model, [0, 2, 3], 10, sched, np.random.default_rng(0))
        assert np.isfinite(out).all()

    def test_unconditional_and_per_sample_conditions(self):
        sched = NoiseSchedule(6, 0.01, 0.2)
        with pytest.raises(SamplingDiverged, match="class 4 at"):
            ddpm_sample(self.model(row=4), None, 10, sched, 1)
        classes = np.array([0, 1, 2, 3, 0])
        with pytest.raises(SamplingDiverged, match="class 0, 1, 2, 3 at timestep 6"):
            ddpm_sample(self.model(row=2), classes, 5, sched, 1)
