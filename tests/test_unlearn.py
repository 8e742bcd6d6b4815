"""Tests for the truncated forgetting loss and the unlearning loop."""

import logging

import numpy as np
import pytest

from diffunlearn import unlearn as unlearn_mod
from diffunlearn.data import LabeledDataset, balanced_remaining_set
from diffunlearn.diffusion import NoiseSchedule, diffusion_loss
from diffunlearn.errors import DomainError, ShapeError, TrainingDiverged
from diffunlearn.nn import (
    NoisePredictor,
    init_model,
    param_count,
    squared_error_backward,
)
from diffunlearn.train import TrainConfig, derive_loss_cap, pretrain
from diffunlearn.unlearn import (
    StepReport,
    UnlearnConfig,
    _class_pools,
    _stratified_indices,
    forgetting_loss,
    parse_strategy,
    read_trajectory_csv,
    unlearn_run,
    unlearn_step,
    write_trajectory_csv,
)
from gradcheck import (
    finite_diff_grad,
    reference_stratified_indices,
    reference_unlearn_run,
    reference_unlearn_step,
)


def zero_model(num_classes=2, num_timesteps=4):
    n = param_count(2, (5,), num_classes, num_timesteps)
    return NoisePredictor(2, (5,), num_classes, num_timesteps, 5, 5, np.zeros(n))


def random_small_model(seed=31):
    rng = np.random.default_rng(seed)
    model = init_model(2, (5,), 2, 4, rng)
    return model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))


def batch_of(data, rng, size):
    idx = np.random.default_rng(rng).integers(0, len(data), size=size)
    return data.subset(idx)


class TestUnlearnConfig:
    def test_defaults_are_valid(self):
        cfg = UnlearnConfig()
        assert cfg.forget_weight == 5.0
        assert cfg.step_size == 1e-3
        assert cfg.iterations == 2000
        assert cfg.strategy == "restricted"

    def test_invalid_values_rejected(self):
        with pytest.raises(DomainError):
            UnlearnConfig(forget_weight=-0.1)
        with pytest.raises(DomainError):
            UnlearnConfig(loss_cap=0.0)
        with pytest.raises(DomainError):
            UnlearnConfig(step_size=0.0)
        with pytest.raises(DomainError):
            UnlearnConfig(iterations=0)
        with pytest.raises(DomainError):
            UnlearnConfig(batch_remain=0)
        with pytest.raises(DomainError):
            UnlearnConfig(strategy="momentum")
        with pytest.raises(DomainError):
            UnlearnConfig(strategy="momentum+diverse")


def test_parse_strategy():
    assert parse_strategy("restricted") == ("restricted", False)
    assert parse_strategy("graddiff") == ("graddiff", False)
    assert parse_strategy("restricted+diverse") == ("restricted", True)
    assert parse_strategy("finetune+diverse") == ("finetune", True)
    with pytest.raises(DomainError):
        parse_strategy("momentum")
    with pytest.raises(DomainError):
        parse_strategy("+diverse")


class TestForgettingLoss:
    def test_hand_computed_clamp(self, monkeypatch):
        # Zero model predicts 0, so per-sample loss is ||eps||^2; rows give
        # losses (0.05, 0.5). Cap 0.1, weight 2: loss = -2*(0.05+0.1)/2.
        sched = NoiseSchedule(4, 0.1, 0.4)
        model = zero_model()
        eps = np.array([[np.sqrt(0.05), 0.0], [np.sqrt(0.5), 0.0]])

        def fixed_corruption(schedule, x0, rng):
            return np.zeros((2, 2)), np.array([1, 2]), eps

        monkeypatch.setattr(unlearn_mod, "draw_corruption", fixed_corruption)
        loss_f, grad, raw_mse, truncated = forgetting_loss(
            model,
            np.zeros((2, 2)),
            np.array([0, 1]),
            sched,
            forget_weight=2.0,
            loss_cap=0.1,
            rng=np.random.default_rng(0),
        )
        assert loss_f == pytest.approx(-0.15, rel=1e-12)
        assert raw_mse == pytest.approx(0.275, rel=1e-12)
        assert truncated == 0.5
        # Only the first sample contributes gradient: compare to an explicit
        # weighted backward with the second sample zeroed out.
        _, expected = squared_error_backward(
            model,
            np.zeros((2, 2)),
            eps,
            np.array([1, 2]),
            np.array([0, 1]),
            sample_weights=np.array([-1.0, 0.0]),
        )
        np.testing.assert_array_equal(grad, expected)

    def test_zero_weight_kills_loss_and_gradient(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        model = random_small_model()
        loss_f, grad, raw_mse, _ = forgetting_loss(
            model,
            np.random.default_rng(1).standard_normal((5, 2)),
            np.zeros(5, dtype=int),
            sched,
            forget_weight=0.0,
            loss_cap=1.0,
            rng=np.random.default_rng(2),
        )
        assert loss_f == 0.0
        assert np.array_equal(grad, np.zeros(model.num_params))
        assert raw_mse > 0.0

    def test_full_truncation_saturates(self):
        # A cap below every per-sample loss: no gradient, fraction 1.
        sched = NoiseSchedule(4, 0.1, 0.4)
        model = random_small_model()
        loss_f, grad, raw_mse, truncated = forgetting_loss(
            model,
            np.random.default_rng(3).standard_normal((6, 2)) + 5.0,
            np.zeros(6, dtype=int),
            sched,
            forget_weight=3.0,
            loss_cap=1e-9,
            rng=np.random.default_rng(4),
        )
        assert truncated == 1.0
        assert np.array_equal(grad, np.zeros(model.num_params))
        assert loss_f == pytest.approx(-3.0 * 1e-9, rel=1e-12)
        assert raw_mse > 1e-9

    def test_gradient_matches_finite_differences_through_clamp(self):
        # Cap 2.5 sits >= 0.4 away from every per-sample loss under this
        # seed, so the clamp is locally smooth and central differences apply.
        sched = NoiseSchedule(4, 0.1, 0.4)
        model = random_small_model()
        x0 = np.random.default_rng(60).standard_normal((6, 2))
        cids = np.array([0, 1, 0, 1, 0, 1])

        def eval_loss(p):
            out = forgetting_loss(
                model.with_params(p),
                x0,
                cids,
                sched,
                forget_weight=2.0,
                loss_cap=2.5,
                rng=np.random.default_rng(61),
            )
            return out[0]

        _, grad, _, truncated = forgetting_loss(
            model, x0, cids, sched, 2.0, 2.5, np.random.default_rng(61)
        )
        assert 0.0 < truncated < 1.0
        fd = finite_diff_grad(eval_loss, model.params, h=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)

    def test_empty_batch_rejected(self):
        sched = NoiseSchedule(4, 0.1, 0.4)
        with pytest.raises(DomainError):
            forgetting_loss(
                zero_model(), np.empty((0, 2)), np.empty(0, dtype=int),
                sched, 1.0, 1.0, np.random.default_rng(0),
            )


class TestUnlearnStep:
    def setup_batches(self, toy3):
        forget = toy3.data.class_subset(0)
        remain = toy3.data.drop_class(0)
        return batch_of(forget, 7, 32), batch_of(remain, 8, 32)

    def test_finetune_ignores_forget_gradient(self, toy3):
        fb, rb = self.setup_batches(toy3)
        cfg = UnlearnConfig(strategy="finetune", iterations=1, loss_cap=1.0)
        gen = np.random.default_rng(42)
        updated, report = unlearn_step(toy3.model, fb, rb, toy3.schedule, cfg, gen)
        # Replay the same stream: forgetting draws first, then the remain
        # loss whose gradient is the whole update.
        replay = np.random.default_rng(42)
        forgetting_loss(
            toy3.model, fb.points, fb.labels, toy3.schedule,
            cfg.forget_weight, cfg.loss_cap, replay,
        )
        _, grad_r = diffusion_loss(
            toy3.model, rb.points, rb.labels, toy3.schedule, replay
        )
        np.testing.assert_array_equal(
            updated.params, toy3.model.params - cfg.step_size * grad_r
        )
        assert report.loss_f <= 0.0

    def test_zero_weight_strategies_coincide(self, toy3):
        # With forget_weight 0 every strategy reduces to fine-tuning and the
        # shared random stream makes the runs bit-identical.
        fb = toy3.data.class_subset(0)
        rb = toy3.data.drop_class(0)
        finals = []
        for strategy in ("finetune", "graddiff", "restricted"):
            cfg = UnlearnConfig(
                forget_weight=0.0, loss_cap=1.0, iterations=5,
                batch_forget=16, batch_remain=16, strategy=strategy, seed=11,
            )
            final, _ = unlearn_run(toy3.model, fb, rb, toy3.schedule, cfg)
            finals.append(final.params)
        assert np.array_equal(finals[0], finals[1])
        assert np.array_equal(finals[0], finals[2])

    def test_restricted_conflicted_step_improves_both_first_order(self, toy3):
        # Forget and remain batches from the same class produce opposing
        # objectives, so this seed yields a conflict; the applied step must
        # not increase either linearized objective.
        same = batch_of(toy3.data.class_subset(1), 5, 32)
        cfg = UnlearnConfig(
            forget_weight=1.0, loss_cap=1e9, strategy="restricted", iterations=1
        )
        gen = np.random.default_rng(13)
        updated, report = unlearn_step(toy3.model, same, same, toy3.schedule, cfg, gen)
        assert report.conflicted
        replay = np.random.default_rng(13)
        _, grad_f, _, _ = forgetting_loss(
            toy3.model, same.points, same.labels, toy3.schedule,
            cfg.forget_weight, cfg.loss_cap, replay,
        )
        _, grad_r = diffusion_loss(
            toy3.model, same.points, same.labels, toy3.schedule, replay
        )
        v = updated.params - toy3.model.params
        slack = 1e-12 * np.linalg.norm(v)
        assert float(v @ grad_f) <= slack * np.linalg.norm(grad_f)
        assert float(v @ grad_r) <= slack * np.linalg.norm(grad_r)

    @pytest.mark.parametrize("entry", ["unlearn_step", "unlearn_run"])
    def test_degenerate_gradients_noop_and_logged(self, toy3, monkeypatch, caplog, entry):
        # Zero both gradients at the kernel the shared step calls.
        fb, rb = self.setup_batches(toy3)

        def zero_backward(views, layout, acts, targets, t_rows, c_rows, w, grad):
            grad[:] = 0.0
            return grad

        monkeypatch.setattr(unlearn_mod, "_backward", zero_backward)
        cfg = UnlearnConfig(strategy="restricted", iterations=1, loss_cap=1.0)
        with caplog.at_level(logging.WARNING, logger="diffunlearn.unlearn"):
            if entry == "unlearn_step":
                updated, report = unlearn_step(
                    toy3.model, fb, rb, toy3.schedule, cfg, np.random.default_rng(0)
                )
            else:
                updated, (report,) = unlearn_run(toy3.model, fb, rb, toy3.schedule, cfg)
        assert np.array_equal(updated.params, toy3.model.params)
        assert report.dot == 0.0
        assert not report.conflicted
        assert any("no-op" in rec.message for rec in caplog.records)


class TestUnlearnRun:
    def test_single_iteration_yields_single_report(self, toy3):
        cfg = UnlearnConfig(iterations=1, loss_cap=1.0, batch_forget=8,
                            batch_remain=8)
        _, reports = unlearn_run(
            toy3.model, toy3.data.class_subset(0), toy3.data.drop_class(0),
            toy3.schedule, cfg,
        )
        assert len(reports) == 1
        assert reports[0].iteration == 0

    def test_identical_seeds_bit_identical(self, toy3):
        cfg = UnlearnConfig(iterations=20, loss_cap=1.0, batch_forget=16,
                            batch_remain=16, seed=77)
        args = (toy3.model, toy3.data.class_subset(0), toy3.data.drop_class(0),
                toy3.schedule, cfg)
        final_a, reports_a = unlearn_run(*args)
        final_b, reports_b = unlearn_run(*args)
        assert np.array_equal(final_a.params, final_b.params)
        assert reports_a == reports_b

    def test_forget_error_rises_while_remain_loss_holds(self, toy3):
        # End-to-end trend: the untruncated forget error must finish above
        # where it started, and the remain loss on a fixed probe must stay
        # within twice its pre-unlearning value.
        forget = toy3.data.class_subset(0)
        remain = balanced_remaining_set(toy3.data, 0, 150, 3)
        cap = derive_loss_cap(toy3.model, remain, toy3.schedule, 4)
        pre_loss_r, _ = diffusion_loss(
            toy3.model, remain.points, remain.labels, toy3.schedule,
            np.random.default_rng(501),
        )
        cfg = UnlearnConfig(
            forget_weight=5.0, loss_cap=cap, step_size=1e-3, iterations=300,
            batch_forget=48, batch_remain=48, strategy="restricted", seed=9,
        )
        final, reports = unlearn_run(toy3.model, forget, remain, toy3.schedule, cfg)
        early = np.mean([r.raw_forget_mse for r in reports[:30]])
        late = np.mean([r.raw_forget_mse for r in reports[-30:]])
        assert late >= early
        post_loss_r, _ = diffusion_loss(
            final, remain.points, remain.labels, toy3.schedule,
            np.random.default_rng(501),
        )
        assert post_loss_r <= 2.0 * pre_loss_r
        assert any(r.conflicted for r in reports)

    def test_stratified_remain_batches(self):
        labels = np.array([0] * 10 + [1] * 10 + [2] * 10)
        idx = _stratified_indices(_class_pools(labels), 8, np.random.default_rng(0))
        counts = np.bincount(labels[idx], minlength=3)
        # Remainder of 8 over 3 classes goes to the lowest class indices.
        assert list(counts) == [3, 3, 2]

    @pytest.mark.parametrize("batch", [1, 2, 8, 9, 64])
    def test_stratified_pools_draw_the_reference_stream(self, batch):
        # Shuffled, unequal classes with a gap in the ids; the pools are
        # built once and reused, the reference rebuilds them every call.
        labels = np.random.default_rng(3).permutation(np.repeat([0, 2, 3], [5, 11, 7]))
        pools = _class_pools(labels)
        gen, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(4):
            got = _stratified_indices(pools, batch, gen)
            want = reference_stratified_indices(labels, batch, ref)
            assert got.tobytes() == want.tobytes()
        assert gen.bit_generator.state == ref.bit_generator.state


class TestTrajectoryCsv:
    def reports(self):
        return [
            StepReport(0, 0.5, -0.25, 1.5, True, -0.125, 0.25),
            StepReport(1, 0.4619140625, -0.3, 2.0, False, 0.0625, 1.0),
        ]

    def test_header_and_flags(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(self.reports(), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == (
            "iteration,loss_r,loss_f,raw_forget_mse,conflicted,dot,"
            "truncated_fraction"
        )
        assert lines[1].split(",")[4] == "1"
        assert lines[2].split(",")[4] == "0"

    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(self.reports(), path)
        assert read_trajectory_csv(path) == self.reports()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iteration,loss\n0,1.0\n")
        with pytest.raises(DomainError):
            read_trajectory_csv(path)


class TestCheckOnceLoop:
    """unlearn_run against the loop it replaced: subset minibatches, the
    checked public losses and with_params every step."""

    @staticmethod
    def sets(toy3):
        remain = balanced_remaining_set(toy3.data, 0, 40, 3)
        return toy3.data.class_subset(0), remain

    @staticmethod
    def assert_same_run(run, ref):
        (final, reports), (ref_final, ref_reports) = run, ref
        assert final.params.tobytes() == ref_final.params.tobytes()
        assert len(reports) == len(ref_reports)
        for got, want in zip(reports, ref_reports):
            assert got == want
            assert np.float64(got.dot).tobytes() == np.float64(want.dot).tobytes()

    @pytest.mark.parametrize("strategy", [
        "restricted", "graddiff", "finetune",
        "restricted+diverse", "graddiff+diverse", "finetune+diverse",
    ])
    def test_matches_reference_for_every_strategy(self, toy3, strategy):
        forget, remain = self.sets(toy3)
        cfg = UnlearnConfig(
            forget_weight=5.0, loss_cap=0.8, step_size=2e-3, iterations=25,
            batch_forget=24, batch_remain=24, strategy=strategy, seed=4,
        )
        args = (toy3.model, forget, remain, toy3.schedule, cfg)
        self.assert_same_run(unlearn_run(*args), reference_unlearn_run(*args))

    @pytest.mark.parametrize("batch_remain", [25, 2])
    @pytest.mark.parametrize("strategy", [
        "restricted+diverse", "graddiff+diverse", "finetune+diverse",
    ])
    def test_diverse_matches_reference_on_indivisible_batches(
        self, toy3, strategy, batch_remain
    ):
        # Three shuffled remain classes of unequal size: 25 leaves a
        # remainder of one, and 2 leaves the last class without a draw.
        forget = toy3.data.class_subset(0)
        remain = toy3.data.subset(np.random.default_rng(5).permutation(len(toy3.data))[:200])
        cfg = UnlearnConfig(
            forget_weight=5.0, loss_cap=0.8, step_size=2e-3, iterations=20,
            batch_forget=16, batch_remain=batch_remain, strategy=strategy, seed=6,
        )
        args = (toy3.model, forget, remain, toy3.schedule, cfg)
        self.assert_same_run(unlearn_run(*args), reference_unlearn_run(*args))

    @pytest.mark.parametrize("forget_weight, batches", [
        (0.0, (16, 16)), (5.0, (7, 33)), (1.0, (40, 5)),
    ])
    def test_matches_reference_on_zero_weight_and_unequal_batches(
        self, toy3, forget_weight, batches
    ):
        forget, remain = self.sets(toy3)
        cfg = UnlearnConfig(
            forget_weight=forget_weight, loss_cap=1.0, iterations=15,
            batch_forget=batches[0], batch_remain=batches[1], seed=8,
        )
        args = (toy3.model, forget, remain, toy3.schedule, cfg)
        self.assert_same_run(unlearn_run(*args), reference_unlearn_run(*args))
        gen = np.random.default_rng(21)
        self.assert_same_run(
            unlearn_run(*args, rng=gen),
            reference_unlearn_run(*args, rng=np.random.default_rng(21)),
        )

    def test_unlearn_step_matches_reference(self, toy3):
        forget, remain = self.sets(toy3)
        fb, rb = batch_of(forget, 1, 20), batch_of(remain, 2, 30)
        for strategy in ("restricted", "graddiff", "finetune"):
            cfg = UnlearnConfig(loss_cap=0.8, strategy=strategy, iterations=1)
            got = unlearn_step(toy3.model, fb, rb, toy3.schedule, cfg,
                               np.random.default_rng(6), iteration=3)
            want = reference_unlearn_step(toy3.model, fb, rb, toy3.schedule, cfg,
                                          np.random.default_rng(6), iteration=3)
            assert got[0].params.tobytes() == want[0].params.tobytes()
            assert got[1] == want[1]

    def test_degenerate_steps_noop_and_logged(self, toy3, monkeypatch, caplog):
        # Both gradients exactly zero every step: each restricted step is a
        # logged no-op in the loop as in the reference.
        from diffunlearn import nn as nn_mod

        def zero_backward(views, layout, acts, targets, t_rows, c_rows, w, grad):
            grad[:] = 0.0
            return grad

        monkeypatch.setattr(nn_mod, "_backward", zero_backward)
        monkeypatch.setattr(unlearn_mod, "_backward", zero_backward)
        forget, remain = self.sets(toy3)
        cfg = UnlearnConfig(loss_cap=1.0, iterations=3, batch_forget=8,
                            batch_remain=8, strategy="restricted")
        args = (toy3.model, forget, remain, toy3.schedule, cfg)
        with caplog.at_level(logging.WARNING, logger="diffunlearn.unlearn"):
            run = unlearn_run(*args)
        logged = [r.message for r in caplog.records if "no-op" in r.message]
        assert logged == [
            f"iteration {i}: both gradients vanished; applying no-op step"
            for i in range(3)
        ]
        self.assert_same_run(run, reference_unlearn_run(*args))
        assert run[0].params.tobytes() == toy3.model.params.tobytes()
        assert all(r.dot == 0.0 and not r.conflicted for r in run[1])


class TestEntryCheck:
    """The one entry check every training loop makes before any draw."""

    UNLEARN = UnlearnConfig(loss_cap=1.0, iterations=2, batch_forget=4, batch_remain=4)
    # name: (sets taken, call(model, schedule, sets, gen))
    ENTRIES = {
        "pretrain": (1, lambda model, schedule, sets, gen: pretrain(
            model, *sets, schedule, TrainConfig(steps=2, batch_size=4), gen)),
        "derive_loss_cap": (1, lambda model, schedule, sets, gen: derive_loss_cap(
            model, *sets, schedule, gen)),
        "unlearn_run": (2, lambda model, schedule, sets, gen: unlearn_run(
            model, *sets, schedule, TestEntryCheck.UNLEARN, rng=gen)),
        "unlearn_step": (2, lambda model, schedule, sets, gen: unlearn_step(
            model, *sets, schedule, TestEntryCheck.UNLEARN, gen)),
    }

    @staticmethod
    def broken(case, data, num_classes):
        if case == "empty":
            return LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        if case == "columns":
            return LabeledDataset(np.zeros((len(data), 3)), data.labels)
        # One label past the model's classes on the last sample: the check
        # reads the whole set, not only the rows a step draws.
        labels = np.array(data.labels)
        labels[-1] = num_classes
        return LabeledDataset(data.points, labels)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("case, error, match", [
        ("empty", DomainError, "empty"),
        ("columns", ShapeError, "columns"),
        ("label", DomainError, "class ids"),
        ("horizon", DomainError, "horizon"),
    ])
    def test_rejects_before_any_draw(self, toy3, entry, case, error, match):
        # Each set in turn is broken; a short timestep table breaks none.
        count, call = self.ENTRIES[entry]
        good = [toy3.data.class_subset(0), toy3.data.drop_class(0)][-count:]
        schedule = toy3.schedule
        if case == "horizon":
            schedule = NoiseSchedule(toy3.model.num_timesteps + 1, 1e-4, 0.15)
            variants = [good]
        else:
            variants = []
            for i in range(count):
                bad = self.broken(case, good[i], toy3.model.num_classes)
                variants.append(good[:i] + [bad] + good[i + 1:])
        for sets in variants:
            gen = np.random.default_rng(5)
            with pytest.raises(error, match=match):
                call(toy3.model, schedule, sets, gen)
            assert gen.bit_generator.state == np.random.default_rng(5).bit_generator.state

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", ["unlearn_run", "unlearn_step"])
    def test_non_finite_step_raises(self, toy3, entry):
        # Output weights x 1e200 overflow the first step's losses.
        params = np.array(toy3.model.params)
        params[toy3.model.layout.weights[-1][0]] *= 1e200
        model = toy3.model.with_params(params)
        sets = [toy3.data.class_subset(0), toy3.data.drop_class(0)]
        with pytest.raises(TrainingDiverged):
            self.ENTRIES[entry][1](model, toy3.schedule, sets, np.random.default_rng(0))
