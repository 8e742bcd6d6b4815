"""Tests for oracle classification, UA/RA, and the kernel two-sample metric."""

import numpy as np
import pytest

from diffunlearn import evaluate as evaluate_mod
from diffunlearn.data import MixtureSpec, circle_mixture
from diffunlearn.diffusion import SamplerOutput, ddpm_sample, make_schedule
from diffunlearn.errors import DomainError
from diffunlearn.evaluate import (
    EvalConfig,
    EvalReport,
    classify_points,
    full_eval,
    load_eval_report,
    median_bandwidth,
    mmd,
    save_eval_report,
)
from diffunlearn.nn import init_model


def two_blob_spec():
    return MixtureSpec(
        2, np.array([[0.0, 0.0], [1.0, 0.0]]), 0.3, 10
    )


def stub_sampler(per_class_point):
    """ddpm_sample lookalike emitting a fixed point per conditioning class."""

    def fake(model, class_id, n, schedule, rng, keep_trajectory=False):
        samples = np.tile(np.asarray(per_class_point[class_id], dtype=float), (n, 1))
        return SamplerOutput(samples=samples, trajectory=None, seed=None)

    return fake


def classify_one(x, spec, none_threshold=4.0):
    return int(classify_points(np.asarray(x)[None, :], spec, none_threshold)[0])


class TestOracleClassify:
    def test_point_at_mean_gets_its_class(self):
        spec = circle_mixture()
        assert classify_one(spec.means[2], spec) == 2

    def test_far_point_is_none(self):
        spec = circle_mixture()
        far = spec.means[0] + np.array([100.0 * spec.sigma, 0.0])
        assert classify_one(far, spec, none_threshold=4.0) == -1

    def test_non_finite_point_is_none(self):
        spec = two_blob_spec()
        points = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0]])
        assert list(classify_points(points, spec, 4.0)) == [-1, -1, 0]

    def test_midpoint_tie_breaks_to_lower_class(self):
        spec = two_blob_spec()
        # Equidistant from both means, inside the 4-sigma radius of each.
        assert classify_one(np.array([0.5, 0.0]), spec) == 0

    def test_threshold_boundary_is_inclusive(self):
        spec = two_blob_spec()
        at_limit = spec.means[1] + np.array([0.0, 4.0 * spec.sigma])
        assert classify_one(at_limit, spec, none_threshold=4.0) == 1
        past = spec.means[1] + np.array([0.0, 4.0 * spec.sigma + 1e-9])
        assert classify_one(past, spec, none_threshold=4.0) == -1

    def test_vectorized_batch_matches_scalar(self):
        spec = circle_mixture()
        rng = np.random.default_rng(0)
        points = rng.standard_normal((50, 2)) * 3.0
        batch = classify_points(points, spec, 4.0)
        for x, lab in zip(points, batch):
            assert classify_one(x, spec, 4.0) == lab

    def test_bad_threshold_rejected(self):
        with pytest.raises(DomainError):
            classify_points(np.zeros((1, 2)), circle_mixture(), 0.0)


class TestAccuracies:
    """UA and RA from full_eval, with the sampler replaced by fixed points."""

    def spec(self):
        return circle_mixture(num_classes=3, radius=4.0, sigma=0.3,
                              samples_per_class=10)

    def report(self, monkeypatch, spec, table, n=30):
        monkeypatch.setattr(evaluate_mod, "ddpm_sample", stub_sampler(table))
        return full_eval(None, 0, spec, None, EvalConfig(n_per_condition=n), 1)

    def test_ua_zero_when_generator_still_emits_class(self, monkeypatch):
        spec = self.spec()
        table = {k: spec.means[k] for k in range(3)}
        assert self.report(monkeypatch, spec, table, n=40).ua == 0.0

    def test_ua_one_when_nothing_maps_back(self, monkeypatch):
        spec = self.spec()
        table = {0: [100.0, 100.0], 1: spec.means[1], 2: spec.means[2]}
        assert self.report(monkeypatch, spec, table, n=40).ua == 1.0

    def test_ra_one_for_oracle_perfect_generator(self, monkeypatch):
        spec = self.spec()
        table = {k: spec.means[k] for k in range(3)}
        assert self.report(monkeypatch, spec, table).ra == 1.0

    def test_ra_zero_for_none_region_generator(self, monkeypatch):
        spec = self.spec()
        table = {k: [50.0, -50.0] for k in range(3)}
        assert self.report(monkeypatch, spec, table).ra == 0.0


class TestMmd:
    def test_hand_computed_three_point_value(self):
        # a = b = {0, 1, 2} on the line, bandwidth 1. Each within-set term is
        # S/3 with S = 2 exp(-1/2) + exp(-2); the cross term includes the
        # diagonal: 2 (3 + 2S) / 9. Total: (2S - 6) / 9.
        pts = np.array([[0.0], [1.0], [2.0]])
        s = 2.0 * np.exp(-0.5) + np.exp(-2.0)
        expected = (2.0 * s - 6.0) / 9.0
        assert mmd(pts, pts, 1.0) == pytest.approx(expected, rel=1e-13)
        assert mmd(pts, pts, 1.0) == pytest.approx(-0.3670229771862489, rel=1e-12)

    def test_null_calibration_at_two_thousand(self):
        spec = circle_mixture()
        g = np.random.default_rng(7)
        draw = lambda: np.concatenate(
            [
                spec.means[k] + spec.sigma * g.standard_normal((1000, 2))
                for k in (1, 2)
            ]
        )
        a, b = draw(), draw()
        assert abs(mmd(a, b, median_bandwidth(a))) <= 0.01

    def test_separated_gaussians_match_brute_force(self):
        # Two blobs 10 sigma apart; the optimized estimate must agree with a
        # naive pairwise loop over the same points.
        sigma = 0.5
        g = np.random.default_rng(3)
        a = sigma * g.standard_normal((150, 2))
        b = np.array([10.0 * sigma, 0.0]) + sigma * g.standard_normal((150, 2))
        bw = median_bandwidth(a)

        def k(x, y):
            return np.exp(-float(np.sum((x - y) ** 2)) / (2.0 * bw**2))

        def brute(xs, ys):
            within_x = sum(
                k(xs[i], xs[j])
                for i in range(len(xs))
                for j in range(len(xs))
                if i != j
            ) / (len(xs) * (len(xs) - 1))
            within_y = sum(
                k(ys[i], ys[j])
                for i in range(len(ys))
                for j in range(len(ys))
                if i != j
            ) / (len(ys) * (len(ys) - 1))
            cross = sum(
                k(x, y) for x in xs for y in ys
            ) * 2.0 / (len(xs) * len(ys))
            return within_x + within_y - cross

        value = mmd(a, b, bw)
        assert value == pytest.approx(brute(a, b), abs=1e-3)
        # Separation is far beyond the null band.
        assert value > 1.0

    def test_symmetric_bit_exactly(self):
        g = np.random.default_rng(5)
        a = g.standard_normal((40, 2))
        b = 2.0 + g.standard_normal((55, 2))
        assert mmd(a, b, 0.7) == mmd(b, a, 0.7)

    def test_permutation_within_set_is_equivalent(self):
        g = np.random.default_rng(6)
        a = g.standard_normal((30, 2))
        b = g.standard_normal((30, 2))
        perm = g.permutation(30)
        assert mmd(a, b, 1.0) == pytest.approx(mmd(a[perm], b, 1.0), rel=1e-12)

    def test_small_sets_rejected(self):
        with pytest.raises(DomainError):
            mmd(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)
        with pytest.raises(DomainError):
            mmd(np.zeros((5, 2)), np.zeros((5, 2)), 0.0)

    def test_median_bandwidth_needs_spread(self):
        with pytest.raises(DomainError):
            median_bandwidth(np.zeros((10, 2)))
        with pytest.raises(DomainError):
            median_bandwidth(np.zeros((1, 2)))


class TestFullEval:
    def test_pretrained_model_scores_cleanly(self, toy3):
        report = full_eval(
            toy3.model, 0, toy3.spec, toy3.schedule,
            EvalConfig(n_per_condition=400), 3,
        )
        assert report.ua <= 0.1
        assert report.ra >= 0.9
        assert abs(report.mmd) <= 0.01

    def test_random_model_mmd_far_from_null(self, toy3):
        rand = init_model(2, (48, 48), 3, 40, np.random.default_rng(9))
        report = full_eval(
            rand, 0, toy3.spec, toy3.schedule,
            EvalConfig(n_per_condition=400), 3,
        )
        # Null calibration at this budget sits within +/-0.01.
        assert report.mmd >= 0.1

    def test_counts_sum_to_budgets(self, toy3):
        n = 150
        report = full_eval(
            toy3.model, 1, toy3.spec, toy3.schedule,
            EvalConfig(n_per_condition=n), 4,
        )
        assert sum(report.per_class_counts.values()) == n * toy3.spec.num_classes
        assert set(report.per_class_counts) == {"0", "1", "2", "none"}
        assert report.n_samples_per_condition == n

    def test_ua_complement_identity(self, toy3):
        # ua + fraction-classified-as-forget = 1 exactly: reconstruct the
        # forget fraction from the first draw of the same stream.
        n = 120
        config = EvalConfig(n_per_condition=n)
        report = full_eval(toy3.model, 2, toy3.spec, toy3.schedule, config, 11)
        out = ddpm_sample(
            toy3.model, 2, n, toy3.schedule, np.random.default_rng(11)
        )
        labels = classify_points(out.samples, toy3.spec, config.none_threshold)
        assert report.ua == 1.0 - np.mean(labels == 2)
        assert 0.0 <= report.ua <= 1.0
        assert 0.0 <= report.ra <= 1.0

    def test_deterministic_per_seed(self, toy3):
        config = EvalConfig(n_per_condition=100)
        a = full_eval(toy3.model, 0, toy3.spec, toy3.schedule, config, 21)
        b = full_eval(toy3.model, 0, toy3.spec, toy3.schedule, config, 21)
        assert a == b

    def test_invalid_forget_class_rejected(self, toy3):
        with pytest.raises(DomainError):
            full_eval(toy3.model, 3, toy3.spec, toy3.schedule, EvalConfig(), 0)

    def test_report_json_roundtrip(self, tmp_path, toy3):
        report = full_eval(
            toy3.model, 0, toy3.spec, toy3.schedule,
            EvalConfig(n_per_condition=50), 1,
        )
        path = tmp_path / "report.json"
        save_eval_report(report, path)
        assert load_eval_report(path) == report
