"""Tests for the noise-prediction MLP and its hand-written gradients."""

import dataclasses
import math

import numpy as np
import pytest

from diffunlearn.data import circle_mixture, gen_mixture
from diffunlearn.diffusion import NoiseSchedule
from diffunlearn.errors import DomainError, ShapeError
from diffunlearn.nn import (
    NoisePredictor,
    _layout,
    backward_from_activations,
    forward_activations,
    init_model,
    mlp_forward,
    param_count,
    squared_error_backward,
)
from diffunlearn.train import TrainConfig, pretrain
from diffunlearn.unlearn import UnlearnConfig, unlearn_run
from gradcheck import (
    add_at_backward,
    finite_diff_grad,
    gathered_forward,
    mean_squared_error,
)


def tiny_model():
    """1-in / 2-hidden / 1-out network with hand-picked parameters.

    Canonical layout: W0 row-major, b0, W1, b1, time table (3 rows), class
    table (2 classes + unconditional row).
    """
    params = np.array(
        [
            0.5, -0.25,            # W0 rows [[0.5], [-0.25]]
            0.1, 0.2,              # b0
            0.3, -0.4,             # W1 [[0.3, -0.4]]
            0.05,                  # b1
            0.01, 0.02,            # time row t=1
            0.03, 0.04,            # time row t=2
            0.05, 0.06,            # time row t=3
            0.1, -0.1,             # class row 0
            0.2, -0.2,             # class row 1
            0.0, 0.3,              # unconditional row
        ]
    )
    return NoisePredictor(
        input_dim=1,
        hidden_dims=(2,),
        num_classes=2,
        num_timesteps=3,
        params=params,
    )


def random_model(rng, max_hidden=6):
    """Small random architecture with nonzero tables for gradient checks."""
    input_dim = int(rng.integers(1, 4))
    depth = int(rng.integers(1, 3))
    h0 = int(rng.integers(2, max_hidden))
    hidden = (h0,) + tuple(int(rng.integers(2, max_hidden)) for _ in range(depth - 1))
    model = init_model(
        input_dim=input_dim,
        hidden_dims=hidden,
        num_classes=int(rng.integers(1, 4)),
        num_timesteps=int(rng.integers(1, 5)),
        rng=rng,
    )
    # Embedding tables and biases start at zero; perturb everything so the
    # finite-difference check exercises every parameter block.
    return model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))


class TestModelConstruction:
    def test_param_count_matches_layout(self):
        # 1->2: 2+2, 2->1: 2+1, time 3*2, class (2+1)*2
        assert param_count(1, (2,), 2, 3) == 2 + 2 + 2 + 1 + 6 + 6
        # The closed form against the layout, whose class table ends the vector;
        # the last two have more classes than timesteps and the reverse.
        for arch in [(2, (6, 4), 3, 8), (3, (5, 7, 2), 1, 1), (2, (4,), 9, 2)]:
            assert param_count(*arch) == _layout(*arch).class_table.stop

    def test_wrong_param_length_rejected(self):
        with pytest.raises(ShapeError):
            NoisePredictor(1, (2,), 2, 3, np.zeros(5))

    def test_params_are_frozen(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.params[0] = 99.0

    def test_with_params_returns_new_model(self):
        model = tiny_model()
        other = model.with_params(model.params * 2.0)
        assert other is not model
        assert np.array_equal(other.params, model.params * 2.0)

    def test_with_params_rejects_wrong_length(self):
        model = tiny_model()
        with pytest.raises(ShapeError, match="18 entries, architecture needs 19"):
            model.with_params(np.zeros(model.num_params - 1))
        with pytest.raises(ShapeError):
            model.with_params(np.zeros(model.num_params + 1))

    def test_with_params_does_not_alias_caller_array(self):
        model = tiny_model()
        params = model.params * 2.0
        other = model.with_params(params)
        params[:] = 7.0
        assert np.array_equal(other.params, model.params * 2.0)
        with pytest.raises(ValueError):
            other.params[0] = 1.0

    def test_with_params_keeps_architecture(self):
        model = tiny_model()
        other = model.with_params(model.params.reshape(1, -1).tolist())
        assert other.params.dtype == np.float64 and other.params.shape == (19,)
        assert other.params.flags.owndata
        for field in dataclasses.fields(NoisePredictor):
            if field.name != "params":
                assert getattr(other, field.name) == getattr(model, field.name)

    def test_training_and_unlearning_keep_parameter_bytes(self, monkeypatch):
        # Reference: the full constructor, which re-validates the
        # architecture. Unlearning calls with_params on every step;
        # pretraining only to build the model it returns.
        spec = circle_mixture(num_classes=3, radius=4.0, sigma=0.3, samples_per_class=60)
        data = gen_mixture(spec, 5)
        schedule = NoiseSchedule(10, 1e-3, 0.2)

        def run():
            model = init_model(2, (16, 8), 3, 10, np.random.default_rng(0))
            model, _ = pretrain(
                model, data, schedule, TrainConfig(steps=150, batch_size=32), 4
            )
            config = UnlearnConfig(loss_cap=1.0, iterations=25, batch_forget=16,
                                   batch_remain=16, seed=9)
            unlearned, _ = unlearn_run(
                model, data.class_subset(0), data.drop_class(0), schedule, config
            )
            return model.params.tobytes(), unlearned.params.tobytes()

        fast = run()
        monkeypatch.setattr(
            NoisePredictor,
            "with_params",
            lambda self, params: dataclasses.replace(self, params=params),
        )
        assert run() == fast

    def test_unpack_roundtrips_flat_vector(self):
        model = tiny_model()
        weights, biases, time_table, class_table = model.unpack()
        rebuilt = np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(weights, biases)]
            + [time_table.ravel(), class_table.ravel()]
        )
        assert np.array_equal(rebuilt, model.params)

    def test_init_model_deterministic_per_seed(self):
        a = init_model(2, (4, 4), 3, 5, np.random.default_rng(7))
        b = init_model(2, (4, 4), 3, 5, np.random.default_rng(7))
        assert np.array_equal(a.params, b.params)


class TestForward:
    def test_zero_params_gives_zero_output(self):
        n = param_count(2, (8,), 4, 10)
        model = NoisePredictor(2, (8,), 4, 10, np.zeros(n))
        x = np.random.default_rng(0).standard_normal((5, 2))
        assert np.array_equal(mlp_forward(model, x, 3, 1), np.zeros((5, 2)))

    def test_matches_hand_computed_network(self):
        # pre-activation: W0 x + b0 + time[t] + class[c]
        # x=0.8, t=2, c=1 -> pre=(0.73, -0.16), out = 0.3 tanh(0.73)
        # - 0.4 tanh(-0.16) + 0.05
        model = tiny_model()
        out = mlp_forward(model, np.array([[0.8]]), 2, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.3003790065907079, rel=1e-13)

    def test_none_class_uses_unconditional_row(self):
        # x=-0.3, t=3, class=None -> pre=(0.0, 0.635)
        model = tiny_model()
        out = mlp_forward(model, np.array([[-0.3]]), 3, None)
        assert out[0, 0] == pytest.approx(-0.1745941983297027, rel=1e-13)
        # The unconditional row differs from every class row, so outputs differ.
        for c in (0, 1):
            assert mlp_forward(model, np.array([[-0.3]]), 3, c)[0, 0] != out[0, 0]

    def test_per_sample_timesteps_and_classes(self):
        model = tiny_model()
        x = np.array([[0.8], [-0.3]])
        batched = mlp_forward(model, x, np.array([2, 3]), np.array([1, 0]))
        one = mlp_forward(model, x[:1], 2, 1)
        two = mlp_forward(model, x[1:], 3, 0)
        # BLAS may sum differently per batch shape, so compare to rounding.
        np.testing.assert_allclose(batched[0], one[0], rtol=1e-15)
        np.testing.assert_allclose(batched[1], two[0], rtol=1e-15)

    def test_timestep_out_of_range_rejected(self):
        model = tiny_model()
        for t in (0, 4):
            with pytest.raises(DomainError):
                mlp_forward(model, np.array([[0.1]]), t, 0)

    def test_class_out_of_range_rejected(self):
        model = tiny_model()
        for c in (-1, 2):
            with pytest.raises(DomainError):
                mlp_forward(model, np.array([[0.1]]), 1, c)

    def test_per_sample_out_of_range_rejected(self):
        model = tiny_model()
        x = np.zeros((3, 1))
        for t in ([1, 0, 3], [1, 4, 3], [2, -5, 9]):
            with pytest.raises(DomainError, match="timesteps"):
                mlp_forward(model, x, np.array(t), np.array([0, 1, 0]))
        for c in ([0, -1, 1], [0, 2, 1]):
            with pytest.raises(DomainError, match="class ids"):
                mlp_forward(model, x, np.array([1, 2, 3]), np.array(c))
        empty = mlp_forward(model, np.zeros((0, 1)), np.array([], int), np.array([], int))
        assert empty.shape == (0, 1)

    def test_non_integer_timesteps_and_classes_rejected(self):
        # Fractional scalars, float arrays and bools raise; nothing is
        # truncated to a neighbouring table row.
        model = tiny_model()
        x = np.array([[0.8], [-0.3]])
        for t, c in (
            (2.9, 1),
            (2, 1.6),
            (np.float64(2.5), 0),
            (np.array([2.9, 3.5]), np.array([1, 0])),
            (np.array([2.0, 3.0]), np.array([1, 0])),
            (np.array([2, 3]), np.array([1.0, 0.0])),
            (True, 0),
            (2, True),
            (np.array([True, True]), np.array([1, 0])),
            (np.array([2, 3]), np.array([True, False])),
            ("2", 0),
        ):
            with pytest.raises(DomainError, match="integers"):
                mlp_forward(model, x, t, c)

    def test_integral_scalars_of_any_type_accepted(self):
        model = tiny_model()
        x = np.array([[0.8], [-0.3]])
        want = mlp_forward(model, x, 2, 1).tobytes()
        for t, c in ((2.0, 1.0), (np.int32(2), np.uint8(1)), (np.array(2), np.array(1))):
            assert mlp_forward(model, x, t, c).tobytes() == want
        per_sample = mlp_forward(model, x, np.array([2, 3], np.int32), np.array([1, 0], np.uint8))
        assert per_sample.tobytes() == mlp_forward(model, x, [2, 3], [1, 0]).tobytes()

    def test_bad_input_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            mlp_forward(model, np.array([0.1]), 1, 0)
        with pytest.raises(ShapeError):
            mlp_forward(model, np.array([[0.1, 0.2]]), 1, 0)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        x = rng.standard_normal((7, model.input_dim))
        t = rng.integers(1, model.num_timesteps + 1, size=7)
        c = rng.integers(0, model.num_classes, size=7)
        assert np.array_equal(
            mlp_forward(model, x, t, c), mlp_forward(model, x, t, c)
        )


class TestBackward:
    def test_loss_value_is_batch_mean(self):
        model = tiny_model()
        x = np.array([[0.8], [-0.3]])
        targets = np.array([[0.0], [1.0]])
        t = np.array([2, 3])
        c = np.array([1, 0])
        per_sample, _ = squared_error_backward(model, x, targets, t, c)
        out = mlp_forward(model, x, t, c)
        expected = float(np.mean(np.sum((out - targets) ** 2, axis=1)))
        assert float(per_sample.mean()) == pytest.approx(expected, rel=1e-15)

    def test_gradient_matches_finite_differences_tiny(self):
        model = tiny_model()
        x = np.array([[0.8], [-0.3], [0.1]])
        targets = np.array([[0.2], [-0.4], [0.9]])
        t = np.array([2, 3, 1])
        c = np.array([1, 0, 0])
        _, grad = squared_error_backward(model, x, targets, t, c)

        def loss_fn(p):
            return mean_squared_error(model.with_params(p), x, targets, t, c)

        fd = finite_diff_grad(loss_fn, model.params, h=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)

    def test_gradient_matches_finite_differences_random_models(self):
        # Invariant: analytic gradients agree with central differences at
        # h = 1e-5 within 1e-5 relative across 100 random small models.
        rng = np.random.default_rng(2024)
        for _ in range(100):
            model = random_model(rng)
            assert model.num_params <= 500
            batch = int(rng.integers(1, 5))
            x = rng.standard_normal((batch, model.input_dim))
            targets = rng.standard_normal((batch, model.input_dim))
            t = rng.integers(1, model.num_timesteps + 1, size=batch)
            c = rng.integers(0, model.num_classes, size=batch)
            _, grad = squared_error_backward(model, x, targets, t, c)

            def loss_fn(p, model=model, x=x, targets=targets, t=t, c=c):
                return mean_squared_error(model.with_params(p), x, targets, t, c)

            fd = finite_diff_grad(loss_fn, model.params, h=1e-5)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)

    def test_shared_timestep_rows_accumulate(self):
        # Two samples with the same t must both contribute to that table row;
        # buffered fancy-index writes would silently drop one.
        model = tiny_model()
        x = np.array([[0.5], [0.5]])
        targets = np.zeros((2, 1))
        _, g_both = squared_error_backward(
            model, x, targets, np.array([2, 2]), np.array([0, 0])
        )
        _, g_one = squared_error_backward(
            model, x[:1], targets[:1], np.array([2]), np.array([0])
        )
        # Mean over two identical samples equals the single-sample gradient.
        np.testing.assert_allclose(g_both, g_one, rtol=1e-12)

    def test_sample_weights_scale_contributions(self):
        model = tiny_model()
        x = np.array([[0.8], [-0.3]])
        targets = np.array([[0.2], [-0.4]])
        t = np.array([2, 3])
        c = np.array([1, 0])
        _, g = squared_error_backward(model, x, targets, t, c, np.array([1.0, 0.0]))
        per, g_first = squared_error_backward(
            model, x[:1], targets[:1], t[:1], c[:1], np.array([1.0])
        )
        np.testing.assert_allclose(g, g_first, rtol=1e-12)
        assert per.shape == (1,)

    def test_zero_weights_give_zero_gradient(self):
        model = tiny_model()
        x = np.array([[0.8]])
        _, g = squared_error_backward(
            model, x, np.array([[0.3]]), np.array([1]), np.array([0]), np.array([0.0])
        )
        assert np.array_equal(g, np.zeros(model.num_params))

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        x = rng.standard_normal((6, model.input_dim))
        targets = rng.standard_normal((6, model.input_dim))
        t = rng.integers(1, model.num_timesteps + 1, size=6)
        c = rng.integers(0, model.num_classes, size=6)
        l1, g1 = squared_error_backward(model, x, targets, t, c)
        l2, g2 = squared_error_backward(model, x, targets, t, c)
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


@pytest.mark.parametrize(
    "case",
    [
        "one_timestep_one_class",
        "batch_1",
        "batch_1000",
        "one_hidden_layer",
        "zero_weight_rows",
        "unconditional_rows",
        "first_width_32",
        "two_architectures",
    ],
)
def test_embedding_scatter_matches_add_at_oracle(case):
    # The table gradients must equal np.add.at's byte for byte: same
    # summands, same batch order, same 0.0 start. The scatter's flat
    # positions come from a table cached per architecture; alternating two
    # first widths in one process shows that neither serves the other.
    rng = np.random.default_rng(17)
    archs = {
        "one_hidden_layer": [((64,), 5, 100)],
        "first_width_32": [((32, 48), 5, 100)],
        "two_architectures": [((32, 48), 5, 100), ((64, 64), 3, 40)] * 2,
    }.get(case, [((64, 64), 5, 100)])
    batch = {"batch_1": 1, "batch_1000": 1000}.get(case, 128)
    for hidden, num_classes, num_timesteps in archs:
        model = init_model(2, hidden, num_classes, num_timesteps, rng=rng)
        model = model.with_params(
            model.params + 0.1 * rng.standard_normal(model.num_params)
        )
        x = rng.standard_normal((batch, 2))
        targets = rng.standard_normal((batch, 2))
        t = rng.integers(1, num_timesteps + 1, size=batch)
        c = rng.integers(0, num_classes, size=batch)
        weights = np.full(batch, 1.0 / batch)
        if case == "one_timestep_one_class":
            t[:], c[:] = 37, 2
        elif case == "zero_weight_rows":
            # Rows past the loss cap carry weight 0 in the forgetting loss.
            weights[rng.random(batch) < 0.5] = 0.0
        elif case == "unconditional_rows":
            c = None
        acts, t_rows, c_rows = forward_activations(model, x, t, c)
        grad = backward_from_activations(model, acts, targets, t_rows, c_rows, weights)
        ref = add_at_backward(model, acts, targets, t_rows, c_rows, weights)
        assert grad.tobytes() == ref.tobytes()
        assert model.layout.table_index.shape[1] == hidden[0]


@pytest.mark.parametrize(
    "case",
    [
        "scalar_t_and_class",
        "per_row_arrays",
        "unconditional",
        "one_hidden_layer",
        "three_hidden_layers",
        "batch_1",
    ],
)
def test_forward_matches_gathered_reference(case):
    # In-place layers and broadcast table rows must give the bytes of the
    # out-of-place forward with one gathered table row per sample.
    rng = np.random.default_rng(23)
    hidden = {"one_hidden_layer": (64,), "three_hidden_layers": (64, 32, 48)}
    model = init_model(
        2, hidden.get(case, (64, 64)), num_classes=5, num_timesteps=100, rng=rng
    )
    model = model.with_params(
        model.params + 0.1 * rng.standard_normal(model.num_params)
    )
    batch = 1 if case == "batch_1" else 300
    x = rng.standard_normal((batch, 2))
    t, c = 37, 2
    if case == "per_row_arrays":
        t = rng.integers(1, 101, size=batch)
        c = rng.integers(0, 5, size=batch)
    elif case == "unconditional":
        c = None
    acts, t_rows, c_rows = forward_activations(model, x, t, c)
    ref_acts, ref_t, ref_c = gathered_forward(model, x, t, c)
    assert len(acts) == len(ref_acts)
    for got, want in zip(acts, ref_acts):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert t_rows.tobytes() == ref_t.tobytes()
    assert c_rows.tobytes() == ref_c.tobytes()


class TestFiniteDiffOracle:
    def test_exact_on_quadratic(self):
        # Central differences are exact (to rounding) on quadratics.
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(p):
            return float(p @ A @ p)

        p0 = np.array([0.3, -0.7])
        fd = finite_diff_grad(f, p0, h=1e-4)
        np.testing.assert_allclose(fd, 2.0 * A @ p0, rtol=1e-9)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(DomainError):
            finite_diff_grad(lambda p: float(p @ p), np.ones(2), h=0.0)
