"""Tests for pretraining and loss-cap derivation."""

import numpy as np
import pytest

from diffunlearn.data import LabeledDataset, circle_mixture, gen_mixture
from diffunlearn.diffusion import NoiseSchedule
from diffunlearn.errors import DomainError, ShapeError, TrainingDiverged
from diffunlearn.nn import init_model
from diffunlearn.train import (
    TrainConfig,
    derive_loss_cap,
    per_sample_losses,
    pretrain,
)
from gradcheck import reference_pretrain


def small_setup(samples_per_class=60):
    spec = circle_mixture(num_classes=3, radius=4.0, sigma=0.3,
                          samples_per_class=samples_per_class)
    data = gen_mixture(spec, 5)
    sched = NoiseSchedule(10, 1e-3, 0.2)
    model = init_model(2, (16,), 3, 10, np.random.default_rng(0))
    return data, sched, model


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(DomainError):
            TrainConfig(steps=-1)
        with pytest.raises(DomainError):
            TrainConfig(batch_size=0)
        with pytest.raises(DomainError):
            TrainConfig(lr=0.0)
        with pytest.raises(DomainError):
            TrainConfig(lr_final=-0.1)


class TestPretrain:
    def test_zero_steps_returns_model_unchanged(self):
        data, sched, model = small_setup()
        trained, history = pretrain(model, data, sched, TrainConfig(steps=0), 0)
        assert np.array_equal(trained.params, model.params)
        assert history == []

    def test_loss_drops_below_half_of_start(self, toy3):
        history = toy3.history
        assert np.mean(history[-100:]) < 0.5 * history[0]

    def test_deterministic_per_seed(self):
        data, sched, model = small_setup()
        cfg = TrainConfig(steps=50, batch_size=32, lr=0.05, lr_final=0.05)
        a, _ = pretrain(model, data, sched, cfg, 3)
        b, _ = pretrain(model, data, sched, cfg, 3)
        assert np.array_equal(a.params, b.params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        # Overflow on the way to the abort is the point of this test.
        data, sched, model = small_setup()
        with pytest.raises(TrainingDiverged):
            pretrain(
                model, data, sched,
                TrainConfig(steps=200, batch_size=16, lr=1e6, lr_final=1e6),
                0,
            )

    def test_empty_dataset_rejected(self):
        data, sched, model = small_setup()
        empty = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(DomainError):
            pretrain(model, empty, sched, TrainConfig(steps=1), 0)

    def test_label_out_of_range_rejected_before_any_step(self):
        # The whole set is checked on entry, so a bad label raises even
        # when the seed never draws its sample, and nothing is drawn.
        data, sched, model = small_setup()
        labels = np.array(data.labels)
        bad = len(data) - 1
        labels[bad] = model.num_classes
        tainted = LabeledDataset(data.points, labels)
        config = TrainConfig(steps=1, batch_size=1)
        assert np.random.default_rng(0).integers(0, len(data), size=1)[0] != bad
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(DomainError, match="class ids"):
            pretrain(model, tainted, sched, config, gen)
        assert gen.bit_generator.state == state

    def test_incompatible_model_rejected_on_entry(self):
        data, sched, model = small_setup()
        wide = LabeledDataset(np.zeros((len(data), 3)), data.labels)
        with pytest.raises(ShapeError):
            pretrain(model, wide, sched, TrainConfig(steps=1), 0)
        short = init_model(2, (16,), 3, 9, np.random.default_rng(0))
        with pytest.raises(DomainError, match="timestep table"):
            pretrain(short, data, sched, TrainConfig(steps=1), 0)


@pytest.mark.parametrize(
    "steps, batch_size, lr_final",
    [(40, 1, 0.005), (40, 128, 0.005), (40, 128, None), (0, 128, 0.005)],
)
@pytest.mark.parametrize("hidden", [(64,), (64, 64), (64, 32, 48)])
def test_pretrain_matches_per_step_reference(hidden, steps, batch_size, lr_final):
    # One writable parameter vector stepped through the layer kernels gives
    # the bytes of subset -> diffusion_loss -> with_params on every step.
    data, sched, _ = small_setup()
    model = init_model(2, hidden, 3, 10, np.random.default_rng(0))
    config = TrainConfig(steps=steps, batch_size=batch_size, lr=0.05, lr_final=lr_final)
    trained, history = pretrain(model, data, sched, config, 8)
    ref, ref_history = reference_pretrain(model, data, sched, config, 8)
    assert trained.params.tobytes() == ref.params.tobytes()
    assert np.array(history).tobytes() == np.array(ref_history).tobytes()
    assert len(history) == steps
    assert not trained.params.flags.writeable


class TestLossCap:
    def test_per_sample_losses_shape_and_determinism(self):
        data, sched, model = small_setup()
        a = per_sample_losses(model, data, sched, 6)
        b = per_sample_losses(model, data, sched, 6)
        assert a.shape == (len(data),)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.0)

    def test_cap_is_the_requested_quantile(self):
        data, sched, model = small_setup()
        cap = derive_loss_cap(model, data, sched, 6, percentile=90.0)
        losses = per_sample_losses(model, data, sched, 6)
        assert cap == pytest.approx(float(np.percentile(losses, 90.0)), rel=1e-12)
        assert losses.min() < cap < losses.max()
        # The share of samples under the cap tracks the percentile.
        assert 0.85 <= np.mean(losses < cap) <= 0.95

    def test_quantile_monotone_in_percentile(self):
        data, sched, model = small_setup()
        lo = derive_loss_cap(model, data, sched, 2, percentile=50.0)
        hi = derive_loss_cap(model, data, sched, 2, percentile=90.0)
        assert lo < hi

    def test_percentile_bounds_enforced(self):
        data, sched, model = small_setup()
        for p in (0.0, 100.0, -5.0):
            with pytest.raises(DomainError):
                derive_loss_cap(model, data, sched, 0, percentile=p)
