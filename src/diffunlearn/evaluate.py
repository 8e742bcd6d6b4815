"""Evaluation: oracle classification, UA/RA accuracies, and a kernel two-sample
distance between generated and true samples.

The mixture's own parameters act as a Bayes-oracle judge: a sample is assigned
to the nearest class mean (equal isotropic covariances make that the maximum
likelihood rule) unless it is farther than a threshold from every mean, in
which case it counts as "none". Unlearning accuracy (UA) is the share of
forget-conditioned samples NOT classified as the forgotten class; remaining
accuracy (RA) is the share of retain-conditioned samples classified as their
conditioning class. Generation quality is summarized by an unbiased MMD
estimate against fresh true-mixture draws, standing in for FID.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .data import MixtureSpec
from .diffusion import NoiseSchedule, ddpm_sample
from .errors import DomainError
from .nn import NoisePredictor
from .rngs import as_generator


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings.

    Attributes:
        n_per_condition: Samples drawn per conditioning class (and for the
            forget condition).
        none_threshold: Distance cutoff in sigma units past which a sample
            classifies as "none".
        bandwidth: Gaussian kernel width for the MMD; None selects the
            median pairwise distance of the reference set.
    """

    n_per_condition: int = 500
    none_threshold: float = 4.0
    bandwidth: float | None = None

    def __post_init__(self):
        if self.n_per_condition < 1:
            raise DomainError("n_per_condition must be >= 1")
        if self.none_threshold <= 0.0:
            raise DomainError("none_threshold must be > 0")
        if self.bandwidth is not None and self.bandwidth <= 0.0:
            raise DomainError("bandwidth must be > 0")


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one model evaluation.

    Attributes:
        ua: 1 - fraction of forget-conditioned samples classified as the
            forgotten class ("none" therefore counts toward forgetting).
        ra: Fraction of retain-conditioned samples classified as their
            conditioning class.
        mmd: Unbiased squared MMD between generated retained-class samples
            and fresh true draws, forget class excluded from both sides.
        per_class_counts: Histogram of oracle labels over every generated
            sample; keys are class indices as strings plus "none".
        n_samples_per_condition: Per-condition sampling budget.
        seed: Seed that drove the evaluation; None when a Generator did.
    """

    ua: float
    ra: float
    mmd: float
    per_class_counts: dict
    n_samples_per_condition: int
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "ua": self.ua,
            "ra": self.ra,
            "mmd": self.mmd,
            "per_class_counts": dict(self.per_class_counts),
            "n_samples_per_condition": self.n_samples_per_condition,
            "seed": self.seed,
        }


def classify_points(points, spec: MixtureSpec, none_threshold: float) -> np.ndarray:
    """Oracle labels for a batch; -1 encodes "none".

    Nearest class mean wins (ties to the lower index); anything farther than
    none_threshold * sigma from every mean is -1, and so is any point with a
    non-finite coordinate.
    """
    if none_threshold <= 0.0:
        raise DomainError("none_threshold must be > 0")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dists = cdist(points, spec.means)
    labels = dists.argmin(axis=1)
    nearest = dists[np.arange(len(points)), labels]
    labels = labels.astype(np.int64)
    # Negated so that a NaN distance, which compares false, lands in "none".
    labels[~(nearest <= none_threshold * spec.sigma)] = -1
    return labels


def median_bandwidth(reference) -> float:
    """Median pairwise distance of the reference sample."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[0] < 2:
        raise DomainError("median bandwidth needs at least 2 reference points")
    bw = float(np.median(pdist(reference)))
    if bw == 0.0:
        raise DomainError("reference sample has zero median pairwise distance")
    return bw


def mmd(a, b, bandwidth: float) -> float:
    """Unbiased squared maximum-mean-discrepancy estimate.

    Gaussian kernel exp(-||x-y||^2 / (2 bandwidth^2)); within-set sums skip
    the diagonal (U-statistic), so the estimate can be negative near the
    null. The two arguments are ordered canonically before reduction, making
    mmd(a, b) and mmd(b, a) bit-identical.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DomainError("sample sets must be 2-D arrays")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DomainError("unbiased estimator needs >= 2 points per set")
    if bandwidth <= 0.0:
        raise DomainError("bandwidth must be > 0")
    first, second = a, b
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        first, second = b, a
    gamma = 1.0 / (2.0 * bandwidth**2)

    def within(x):
        sq = pdist(x, "sqeuclidean")
        m = x.shape[0]
        # pdist covers each unordered pair once; the symmetric sum doubles it.
        return 2.0 * float(np.sum(np.exp(-gamma * sq))) / (m * (m - 1))

    cross_sq = cdist(first, second, "sqeuclidean")
    cross = float(np.sum(np.exp(-gamma * cross_sq)))
    cross *= 2.0 / (first.shape[0] * second.shape[0])
    return within(first) + within(second) - cross


def full_eval(
    model: NoisePredictor,
    forget_class: int,
    spec: MixtureSpec,
    schedule: NoiseSchedule,
    config: EvalConfig,
    rng,
) -> EvalReport:
    """Sample per condition, judge with the oracle, and compare to truth.

    Draw order is fixed (forget condition, retained classes ascending, then
    reference draws), so a seed passed as ``rng`` pins the whole report.
    """
    if not (0 <= forget_class < spec.num_classes):
        raise DomainError(
            f"forget_class must lie in 0..{spec.num_classes - 1}"
        )
    gen, seed = as_generator(rng)
    n = config.n_per_condition
    counts = {str(k): 0 for k in range(spec.num_classes)}
    counts["none"] = 0

    def tally(labels):
        for lab in labels:
            counts["none" if lab < 0 else str(int(lab))] += 1

    forget_out = ddpm_sample(model, forget_class, n, schedule, gen)
    forget_labels = classify_points(forget_out.samples, spec, config.none_threshold)
    tally(forget_labels)
    ua = float(1.0 - np.mean(forget_labels == forget_class))

    correct = 0
    generated_retained = []
    for k in range(spec.num_classes):
        if k == forget_class:
            continue
        out = ddpm_sample(model, k, n, schedule, gen)
        labels = classify_points(out.samples, spec, config.none_threshold)
        tally(labels)
        correct += int(np.sum(labels == k))
        generated_retained.append(out.samples)
    ra = correct / (n * (spec.num_classes - 1))

    reference = []
    for k in range(spec.num_classes):
        if k == forget_class:
            continue
        noise = gen.standard_normal((n, spec.input_dim))
        reference.append(spec.means[k] + spec.sigma * noise)
    reference = np.concatenate(reference, axis=0)
    generated = np.concatenate(generated_retained, axis=0)
    bandwidth = (
        median_bandwidth(reference) if config.bandwidth is None else config.bandwidth
    )
    return EvalReport(
        ua=ua,
        ra=ra,
        mmd=mmd(generated, reference, bandwidth),
        per_class_counts=counts,
        n_samples_per_condition=n,
        seed=seed,
    )


def save_eval_report(report: EvalReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def load_eval_report(path) -> EvalReport:
    raw = json.loads(Path(path).read_text())
    return EvalReport(**raw)
