"""Tests for oracle classification, UA/RA, and the kernel two-sample metric."""

import json

import numpy as np
import pytest

from diffunlearn import evaluate as evaluate_mod
from diffunlearn.data import MixtureSpec, circle_mixture
from diffunlearn.diffusion import NoiseSchedule, ddpm_sample
from diffunlearn.errors import DomainError, SamplingDiverged
from diffunlearn.evaluate import (
    EvalConfig,
    EvalReport,
    classify_points,
    full_eval,
    median_bandwidth,
    mmd,
    save_eval_report,
)
from diffunlearn.nn import init_model
from gradcheck import (
    copied_median_bandwidth,
    full_matrix_mmd,
    full_matrix_mmd_terms,
    peak_allocation,
    reference_full_eval_samples,
)


BLOCK_BYTES = 8 * evaluate_mod._BLOCK


def two_blob_spec():
    return MixtureSpec(
        2, np.array([[0.0, 0.0], [1.0, 0.0]]), 0.3, 10
    )


def stub_sampler(per_class_point):
    """Lookalike of full_eval's sampler, ``diffusion._sample_classes``,
    emitting a fixed point per conditioning class."""

    def fake(model, classes, n, schedule, gen):
        return np.stack([
            np.tile(np.asarray(per_class_point[k], dtype=float), (n, 1))
            for k in classes
        ])

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

    def test_nan_threshold_rejected(self):
        # A NaN cutoff would label every point "none", scoring UA as 1.
        with pytest.raises(DomainError):
            classify_points(np.zeros((1, 2)), circle_mixture(), np.nan)
        with pytest.raises(DomainError):
            EvalConfig(none_threshold=np.nan)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0])
    def test_eval_config_rejects_bad_bandwidth(self, bandwidth):
        with pytest.raises(DomainError):
            EvalConfig(bandwidth=bandwidth)


class TestAccuracies:
    """UA and RA from full_eval, with the sampler replaced by fixed points."""

    def spec(self):
        return circle_mixture(num_classes=3, radius=4.0, sigma=0.3,
                              samples_per_class=10)

    def report(self, monkeypatch, spec, table, n=30):
        monkeypatch.setattr(evaluate_mod, "_sample_classes", stub_sampler(table))
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

    def test_matches_full_matrix_reference(self):
        # In-place kernel sums must give the out-of-place float exactly, for
        # unequal set sizes and either argument order.
        g = np.random.default_rng(8)
        a = g.standard_normal((300, 2))
        b = 0.5 + g.standard_normal((410, 2))
        assert mmd(a, b, 0.9) == full_matrix_mmd(a, b, 0.9)
        assert mmd(b, a, 0.9) == full_matrix_mmd(b, a, 0.9)

    @pytest.mark.parametrize("n", [200, 202])
    def test_median_bandwidth_matches_copied_median(self, n):
        # 19,900 pairs (even: mean of the two middle values) and 20,301
        # (odd: the middle value).
        points = np.random.default_rng(n).standard_normal((n, 2))
        assert median_bandwidth(points) == copied_median_bandwidth(points)

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_mmd_peak_allocation_is_bounded_by_blocks(self, n):
        # The same bound at both sizes: peak memory is a block, not |a|x|b|.
        g = np.random.default_rng(12)
        a = g.standard_normal((n, 2))
        b = g.standard_normal((n, 2))
        peak = peak_allocation(mmd, a, b, 1.0)
        assert peak <= 1.5 * BLOCK_BYTES

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_median_bandwidth_peak_allocation_is_bounded_by_blocks(self, n):
        points = np.random.default_rng(13).standard_normal((n, 2))
        peak = peak_allocation(median_bandwidth, points)
        assert peak <= 2.5 * BLOCK_BYTES

    def test_median_bandwidth_needs_spread(self):
        with pytest.raises(DomainError):
            median_bandwidth(np.zeros((10, 2)))
        with pytest.raises(DomainError):
            median_bandwidth(np.zeros((1, 2)))

    def test_non_finite_bandwidth_rejected(self):
        pts = np.random.default_rng(14).standard_normal((5, 2))
        for bandwidth in (np.nan, np.inf, -1.0):
            with pytest.raises(DomainError):
                mmd(pts, pts, bandwidth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_median_bandwidth_rejects_non_finite_reference(self, bad):
        points = np.random.default_rng(15).standard_normal((10, 2))
        points[7, 1] = bad
        with pytest.raises(DomainError):
            median_bandwidth(points)


class TestStreamedMmd:
    """mmd over several blocks against the whole-matrix reference.

    The block sums change the reduction order, so these hold the streamed
    value to 1e-12 of the three terms' magnitudes: the terms nearly cancel,
    and rounding scales with them, not with their difference.
    """

    @staticmethod
    def assert_close(a, b, bandwidth):
        terms = full_matrix_mmd_terms(a, b, bandwidth)
        scale = sum(abs(t) for t in terms)
        assert abs(mmd(a, b, bandwidth) - full_matrix_mmd(a, b, bandwidth)) <= 1e-12 * scale

    def test_unequal_sizes_both_orders(self):
        # Cross 1100x800 takes two row blocks, the 1100-point within-set two
        # blocks, the 800-point within-set one.
        g = np.random.default_rng(16)
        a = g.standard_normal((1100, 2))
        b = 0.5 + g.standard_normal((800, 2))
        self.assert_close(a, b, 0.9)
        self.assert_close(b, a, 0.9)
        assert mmd(a, b, 0.9) == mmd(b, a, 0.9)

    def test_near_null_both_orders(self):
        g = np.random.default_rng(17)
        a = g.standard_normal((1200, 2))
        b = g.standard_normal((1150, 2))
        self.assert_close(a, b, 1.1)
        self.assert_close(b, a, 1.1)
        assert mmd(a, b, 1.1) == mmd(b, a, 1.1)

    def test_one_row_blocks_and_column_tiles(self, monkeypatch):
        # With 64 values a block, the 66-point set starts with one-row blocks
        # whose 65-column rectangle is tiled 64 + 1, and the 130-point cross
        # rows are tiled 64 + 64 + 2.
        monkeypatch.setattr(evaluate_mod, "_BLOCK", 64)
        g = np.random.default_rng(18)
        a = g.standard_normal((66, 2))
        b = 0.3 + g.standard_normal((130, 2))
        self.assert_close(a, b, 0.8)
        self.assert_close(b, a, 0.8)
        assert mmd(a, b, 0.8) == mmd(b, a, 0.8)

    @pytest.mark.parametrize("nan_in", ["generated", "reference"])
    def test_nan_row_in_last_block_gives_nan(self, nan_in):
        g = np.random.default_rng(19)
        generated = g.standard_normal((1100, 2))
        reference = g.standard_normal((1000, 2))
        target = generated if nan_in == "generated" else reference
        target[-1, 0] = np.nan
        assert np.isnan(mmd(generated, reference, 1.0))
        assert np.isnan(mmd(reference, generated, 1.0))


class TestStreamedMedian:
    """median_bandwidth is np.median(pdist(x)) exactly, over several blocks.

    At the real block size (2**19 values) a set needs 1025 points or more to
    take more than one block.
    """

    @staticmethod
    def passes(monkeypatch, points):
        """(value, number of passes over the distances) of median_bandwidth."""
        calls = []
        original = evaluate_mod._within_blocks

        def counting(x, metric):
            calls.append(metric)
            return original(x, metric)

        monkeypatch.setattr(evaluate_mod, "_within_blocks", counting)
        return median_bandwidth(points), len(calls)

    @pytest.mark.parametrize(
        "m", [2, 3, 1026, 2000], ids=["m2", "m3", "odd-pairs", "even-pairs"]
    )
    def test_random_points(self, monkeypatch, m):
        # 1026 points give 525,825 pairs (odd), 2000 give 1,999,000 (even).
        points = np.random.default_rng(m).standard_normal((m, 2))
        value, passes = self.passes(monkeypatch, points)
        assert value == copied_median_bandwidth(points)
        assert passes == (1 if m < 1025 else 2)

    def test_repeated_points(self, monkeypatch):
        points = np.repeat(np.random.default_rng(20).standard_normal((250, 2)), 8, axis=0)
        value, _ = self.passes(monkeypatch, points)
        assert value == copied_median_bandwidth(points)

    def test_middle_value_held_by_more_than_a_block(self, monkeypatch):
        # Two groups of 750 on a line: 562,500 pairs at distance 1, more than
        # a block, hold both middle ranks. The window narrows to that one
        # value, which is the answer without a gathering pass.
        points = np.zeros((1500, 1))
        points[750:] = 1.0
        value, passes = self.passes(monkeypatch, points)
        assert value == copied_median_bandwidth(points) == 1.0
        assert passes > 2

    def test_middle_ranks_split_between_two_values(self, monkeypatch):
        # 561 and 528 points: 296,208 zero distances and as many ones, so the
        # even pair count's two middle ranks are 0 and 1.
        points = np.zeros((1089, 1))
        points[561:] = 1.0
        value, _ = self.passes(monkeypatch, points)
        assert value == copied_median_bandwidth(points) == 0.5

    def test_clustered_distances_take_narrowing_passes(self, monkeypatch):
        # Two jittered groups: the 562,500 cross distances, more than a
        # block, all lie within 1e-9 of 1.3, so the first bin holding the
        # middle ranks is too full to gather and further counting passes
        # narrow it. (1 and 1.5 would sit on a first-pass bin edge and split.)
        g = np.random.default_rng(21)
        points = np.zeros((1500, 1))
        points[750:] = 1.3
        points += 1e-10 * g.standard_normal(points.shape)
        value, passes = self.passes(monkeypatch, points)
        assert value == copied_median_bandwidth(points)
        assert passes > 2

    def test_sorted_points(self):
        points = np.sort(np.random.default_rng(22).standard_normal((1500, 2)), axis=0)
        assert median_bandwidth(points) == copied_median_bandwidth(points)

    @pytest.mark.parametrize("m", [13, 50, 66, 121])
    def test_small_blocks(self, monkeypatch, m):
        monkeypatch.setattr(evaluate_mod, "_BLOCK", 64)
        g = np.random.default_rng(m)
        points = g.standard_normal((m, 2))
        assert median_bandwidth(points) == copied_median_bandwidth(points)
        repeated = np.repeat(points[: m // 4 + 1], 4, axis=0)
        assert median_bandwidth(repeated) == copied_median_bandwidth(repeated)


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

    @pytest.mark.parametrize("n", (7, 400, 1100))
    def test_matches_serial_sampling(self, toy3, monkeypatch, n):
        # The report of one lock-step sampling call equals the report of one
        # serial sampler run per condition, every float bit for bit.
        config = EvalConfig(n_per_condition=n)
        for forget in range(3):
            got = full_eval(toy3.model, forget, toy3.spec, toy3.schedule, config, 5)
            with monkeypatch.context() as patch:
                patch.setattr(evaluate_mod, "_sample_classes", reference_full_eval_samples)
                want = full_eval(toy3.model, forget, toy3.spec, toy3.schedule, config, 5)
            assert got == want
            assert np.float64(got.mmd).tobytes() == np.float64(want.mmd).tobytes()

    def test_deterministic_per_seed(self, toy3):
        config = EvalConfig(n_per_condition=100)
        a = full_eval(toy3.model, 0, toy3.spec, toy3.schedule, config, 21)
        b = full_eval(toy3.model, 0, toy3.spec, toy3.schedule, config, 21)
        assert a == b

    def test_invalid_forget_class_rejected(self, toy3):
        with pytest.raises(DomainError):
            full_eval(toy3.model, 3, toy3.spec, toy3.schedule, EvalConfig(), 0)

    @pytest.mark.parametrize("bad", (1.5, True, np.float64(0.5)))
    def test_fractional_or_bool_forget_class_rejected(self, toy3, bad):
        with pytest.raises(DomainError, match="class ids"):
            full_eval(toy3.model, bad, toy3.spec, toy3.schedule, EvalConfig(), 0)

    def test_integral_float_forget_class_is_that_class(self, toy3):
        config = EvalConfig(n_per_condition=50)
        got = full_eval(toy3.model, 2.0, toy3.spec, toy3.schedule, config, 6)
        assert got == full_eval(toy3.model, 2, toy3.spec, toy3.schedule, config, 6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sample_is_an_error(self, toy3):
        # Output weights at 1e308 send every chain to inf on the first step;
        # such samples must not be scored as a forgotten class.
        params = toy3.model.params.copy()
        params[toy3.model.layout.weights[-1][0]] *= 1e308
        model = toy3.model.with_params(params)
        with pytest.raises(SamplingDiverged, match=r"class 0 at timestep \d+$"):
            full_eval(model, 0, toy3.spec, toy3.schedule, EvalConfig(n_per_condition=50), 0)

    def test_report_json_roundtrip(self, tmp_path, toy3):
        report = full_eval(
            toy3.model, 0, toy3.spec, toy3.schedule,
            EvalConfig(n_per_condition=50), 1,
        )
        path = tmp_path / "report.json"
        save_eval_report(report, path)
        assert EvalReport(**json.loads(path.read_text())) == report
