"""The evaluation's MMD against the known mixture: an oracle of the statistic.

full_eval scores the generated retained-class samples against the retained
mixture in closed form. These tests check the estimator against the
distribution, not against its own formula: true mixture samples score 0 in
expectation, the population median is the median of Monte Carlo distances,
and each closed-form kernel expectation is the Monte Carlo mean.
"""

import math

import numpy as np
import pytest

from diffunlearn import evaluate as evaluate_mod
from diffunlearn.data import circle_mixture
from diffunlearn.errors import DomainError
from diffunlearn.evaluate import EvalConfig, full_eval

# The default config's mixture and the acceptance fixture's.
GEOMETRIES = {
    "default": dict(radius=5.0, sigma=0.3),
    "acceptance": dict(radius=2.0, sigma=0.5),
}
MONTE_CARLO = 400_000


def exact_sampler(spec):
    """Stand-in for ``diffusion._sample_classes`` that draws n true samples
    of each class from the mixture itself."""

    def sample(model, classes, n, schedule, gen):
        return np.stack([
            spec.means[k] + spec.sigma * gen.standard_normal((n, spec.input_dim))
            for k in classes
        ])

    return sample


def mixture_pairs(means, sigma, count, gen):
    """``count`` pairs of independent draws of the equal-weight mixture."""
    def draw():
        return means[gen.integers(0, len(means), count)] + sigma * gen.standard_normal(
            (count, means.shape[1])
        )

    return draw(), draw()


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_true_mixture_samples_score_zero_in_expectation(monkeypatch, geometry):
    # Each set holds exactly n samples per retained class, as full_eval's
    # does. Scored against a drawn reference with i.i.d. U-statistics, the
    # same sets read -4.0e-4 and -3.1e-4 at n = 500, about 390 and 20
    # standard errors below 0.
    spec = circle_mixture(**GEOMETRIES[geometry])
    monkeypatch.setattr(evaluate_mod, "_sample_classes", exact_sampler(spec))
    config = EvalConfig(n_per_condition=500)
    scores = [full_eval(None, 0, spec, None, config, seed).mmd for seed in range(10)]
    mean, se = np.mean(scores), np.std(scores, ddof=1) / math.sqrt(len(scores))
    assert abs(mean) <= 3.0 * se, (mean, se)


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_population_median_halves_monte_carlo_distances(geometry):
    # The median h is where the distance CDF is 1/2: the share of Monte
    # Carlo distances at most h lies within 4 binomial standard errors of it.
    spec = circle_mixture(**GEOMETRIES[geometry])
    means = spec.means[1:]
    h = evaluate_mod._mixture_median(means, spec.sigma)
    y, y2 = mixture_pairs(means, spec.sigma, MONTE_CARLO, np.random.default_rng(1))
    below = np.mean(np.linalg.norm(y - y2, axis=1) <= h)
    assert abs(below - 0.5) <= 4.0 * math.sqrt(0.25 / MONTE_CARLO)


@pytest.mark.parametrize("dim, classes", [(1, 3), (3, 4), (4, 2)])
def test_population_median_in_other_dimensions(dim, classes):
    # Odd and even dimensions take the two bases of the gamma sums.
    gen = np.random.default_rng(dim)
    means, sigma = 1.5 * gen.standard_normal((classes, dim)), 0.6
    h = evaluate_mod._mixture_median(means, sigma)
    y, y2 = mixture_pairs(means, sigma, MONTE_CARLO, gen)
    below = np.mean(np.linalg.norm(y - y2, axis=1) <= h)
    assert abs(below - 0.5) <= 4.0 * math.sqrt(0.25 / MONTE_CARLO)


def test_population_median_of_one_class_is_exact():
    # One class in 2-D: ||y - y'|| is sigma sqrt(2) times a chi variable
    # with 2 degrees of freedom, whose median is sqrt(2 ln 2).
    sigma = 0.3
    h = evaluate_mod._mixture_median(np.array([[1.0, -2.0]]), sigma)
    assert h == pytest.approx(2.0 * sigma * math.sqrt(math.log(2.0)), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_expectations_match_monte_carlo(dim):
    # E_y k(x, y) for y of one class, and E k(y, y') for y, y' of two
    # classes, whose difference is N(mu_a - mu_b, 2 sigma^2 I).
    gen = np.random.default_rng(10 + dim)
    sigma, h = 0.7, 1.3
    mu_a, mu_b, x = gen.standard_normal((3, dim))

    def kernel(u, v):
        return np.exp(-np.sum((u - v) ** 2, axis=1) / (2.0 * h * h))

    def assert_matches(closed, values):
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(closed - values.mean()) <= 4.0 * se, (closed, values.mean(), se)

    y = mu_a + sigma * gen.standard_normal((MONTE_CARLO, dim))
    y2 = mu_b + sigma * gen.standard_normal((MONTE_CARLO, dim))
    assert_matches(
        evaluate_mod._smoothed_kernel_mean(x[None], mu_a[None], sigma**2, h), kernel(x, y)
    )
    assert_matches(
        evaluate_mod._smoothed_kernel_mean(mu_a[None], mu_b[None], 2.0 * sigma**2, h),
        kernel(y, y2),
    )


def test_within_term_averages_class_blocks(monkeypatch):
    # Brute force over every ordered pair of distinct samples, weighted per
    # class block; with 16 values a block every sum streams in pieces.
    monkeypatch.setattr(evaluate_mod, "_BLOCK", 16)
    gen = np.random.default_rng(4)
    generated = gen.standard_normal((3, 7, 2))
    means, sigma, h = gen.standard_normal((3, 2)), 0.4, 0.9
    classes, n, _ = generated.shape
    within = 0.0
    for a in range(classes):
        for b in range(classes):
            sq = np.sum((generated[a][:, None] - generated[b][None]) ** 2, axis=2)
            k = np.exp(-sq / (2.0 * h * h))
            if a == b:
                within += (k.sum() - np.trace(k)) / (n * (n - 1))
            else:
                within += k.mean()
    within /= classes * classes
    cross = evaluate_mod._smoothed_kernel_mean(
        generated.reshape(-1, 2), means, sigma**2, h
    )
    reference = evaluate_mod._smoothed_kernel_mean(means, means, 2.0 * sigma**2, h)
    got = evaluate_mod._mixture_mmd(generated, means, sigma, h)
    assert got == pytest.approx(within - 2.0 * cross + reference, rel=1e-12, abs=1e-14)


def test_report_records_the_bandwidth_used(monkeypatch):
    spec = circle_mixture(**GEOMETRIES["default"])
    monkeypatch.setattr(evaluate_mod, "_sample_classes", exact_sampler(spec))
    report = full_eval(None, 2, spec, None, EvalConfig(n_per_condition=20), 0)
    assert report.version == 2
    assert report.bandwidth == evaluate_mod._mixture_median(
        spec.means[[0, 1, 3, 4]], spec.sigma
    )


def test_one_sample_per_condition_is_rejected():
    # A same-class block of one sample has no pair to average.
    with pytest.raises(DomainError, match="n_per_condition"):
        EvalConfig(n_per_condition=1)
