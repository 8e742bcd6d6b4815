"""Evaluation: oracle classification, UA/RA accuracies, and a kernel two-sample
distance between generated and true samples.

The mixture's own parameters act as a Bayes-oracle judge: a sample is assigned
to the nearest class mean (equal isotropic covariances make that the maximum
likelihood rule) unless it is farther than a threshold from every mean, in
which case it counts as "none". Unlearning accuracy (UA) is the share of
forget-conditioned samples NOT classified as the forgotten class; remaining
accuracy (RA) is the share of retain-conditioned samples classified as their
conditioning class. Generation quality is summarized by a squared MMD
between the generated retained-class samples and the retained mixture
itself, standing in for FID. The mixture's side is in closed form, so no
reference sample is drawn, and the generated side is a class-stratified
U-statistic, so the estimate is unbiased: true mixture samples score 0 in
expectation. (Scoring against a drawn reference with i.i.d. U-statistics,
as earlier versions did, read low by about 4e-4 at the default config,
because both sets held exactly n points per class.)

Distances come from scipy's compiled module ``scipy.spatial._distance_pybind``,
whose ``cdist_<metric>`` and ``pdist_<metric>`` functions are what
``scipy.spatial.distance.cdist`` and ``pdist`` dispatch to for "euclidean"
and "sqeuclidean", so every distance has the bits the wrapper would give.
``_kernels`` loads that module alone, on the first distance: 11-21 ms and
1.4 MB on a 2-vCPU VM. Importing the ``scipy.spatial`` package instead loads
175 scipy modules, scipy.linalg, scipy.sparse and scipy.special among them,
in 0.27-0.48 s and 32 MB. config.py imports this module, so a command that
computes no distance loads neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import artifacts
from .data import MixtureSpec
from .diffusion import NoiseSchedule, _sample_classes
from .errors import DomainError, ShapeError
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
            population median of the distance between two independent
            draws of the retained mixture.
    """

    n_per_condition: int = 500
    none_threshold: float = 4.0
    bandwidth: float | None = None

    def __post_init__(self):
        # The MMD's same-class blocks are U-statistics, which need a pair.
        if self.n_per_condition < 2:
            raise DomainError("n_per_condition must be >= 2")
        if not self.none_threshold > 0.0:
            raise DomainError("none_threshold must be > 0")
        if self.bandwidth is not None and not 0.0 < self.bandwidth < np.inf:
            raise DomainError("bandwidth must be finite and > 0")


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one model evaluation.

    Attributes:
        ua: 1 - fraction of forget-conditioned samples classified as the
            forgotten class ("none" therefore counts toward forgetting).
        ra: Fraction of retain-conditioned samples classified as their
            conditioning class.
        mmd: Squared MMD between the generated retained-class samples and
            the retained mixture, forget class excluded from both; unbiased
            (see :func:`_mixture_mmd`).
        bandwidth: Gaussian kernel width the MMD used.
        per_class_counts: Histogram of oracle labels over every generated
            sample; keys are class indices as strings plus "none".
        n_samples_per_condition: Per-condition sampling budget.
        seed: Seed that drove the evaluation; None when a Generator did.
        version: Report format. Version 2 added ``bandwidth`` and scores
            against the mixture in closed form; version 1 had neither field
            and scored against a drawn reference.
    """

    ua: float
    ra: float
    mmd: float
    bandwidth: float
    per_class_counts: dict
    n_samples_per_condition: int
    seed: int | None
    version: int = 2

    def to_dict(self) -> dict:
        return asdict(self)


_KERNELS = "scipy.spatial._distance_pybind"


def _kernels():
    """scipy's compiled distance module, loaded without running
    ``scipy/spatial/__init__.py``.

    A module already in ``sys.modules`` is returned as it is. Otherwise
    ``find_spec("scipy.spatial")`` imports only the top-level ``scipy`` to
    locate the package, and the module is registered under its own name
    before it runs, so a later ``import scipy.spatial`` binds this object.
    """
    module = sys.modules.get(_KERNELS)
    if module is not None:
        return module
    package = importlib.util.find_spec("scipy.spatial")
    spec = package and importlib.machinery.PathFinder.find_spec(
        _KERNELS, package.submodule_search_locations
    )
    if spec is None:
        import scipy

        raise ImportError(f"{_KERNELS} not found in scipy {scipy.__version__}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_KERNELS] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_KERNELS]
        raise
    return module


def classify_points(points, spec: MixtureSpec, none_threshold: float) -> np.ndarray:
    """Oracle labels for a batch; -1 encodes "none".

    Nearest class mean wins (ties to the lower index); anything farther than
    none_threshold * sigma from every mean is -1, and so is any point with a
    non-finite coordinate.
    """
    if not none_threshold > 0.0:
        raise DomainError("none_threshold must be > 0")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dists = _kernels().cdist_euclidean(points, spec.means)
    labels = dists.argmin(axis=1)
    nearest = dists[np.arange(len(points)), labels]
    labels = labels.astype(np.int64)
    # Negated so that a NaN distance, which compares false, lands in "none".
    labels[~(nearest <= none_threshold * spec.sigma)] = -1
    return labels


# Distances per streamed block: 2**17 float64 values, 1 MiB, half of a 2 MiB
# per-core L2 cache, so each pass over a block (scale, exp, sum) reads it
# from L2. Sized by element count, so a block stays the same size whatever
# the sample count.
_BLOCK = 1 << 17


def _cross_blocks(x, y):
    """Squared distances of every row of x to every row of y, in blocks of
    at most _BLOCK values: row blocks of x in order, each split into column
    tiles of y only when a single row exceeds _BLOCK."""
    cdist = _kernels().cdist_sqeuclidean
    rows = max(1, _BLOCK // max(1, len(y)))
    for i in range(0, len(x), rows):
        for j in range(0, len(y), _BLOCK):
            yield cdist(x[i : i + rows], y[j : j + _BLOCK])


def _within_blocks(x):
    """Each unordered pair's squared distance once, in blocks of at most
    _BLOCK values.

    Rows are taken in order. A block of rows i0:i1 yields pdist(x[i0:i1]) and
    then the rectangle cdist(x[i0:i1], x[i1:]); the row count keeps the two
    together within _BLOCK, and a set whose pdist fits in one block is yielded
    as pdist(x) alone.
    """
    pdist = _kernels().pdist_sqeuclidean
    start, m = 0, len(x)
    while start < m:
        left = m - start
        if left * (left - 1) // 2 <= _BLOCK:
            rows = left
        else:
            rows = max(1, _BLOCK // (left - 1))
        stop = start + rows
        yield pdist(x[start:stop])
        yield from _cross_blocks(x[start:stop], x[stop:])
        start = stop


def median_bandwidth(reference) -> float:
    """Median pairwise distance of the reference sample, exactly
    ``np.median(pdist(reference))``.

    It holds all n(n-1)/2 distances at once. No command calls it: an
    evaluation takes its bandwidth from the mixture (:func:`_mixture_median`).
    """
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 2:
        raise DomainError("sample sets must be 2-D arrays")
    if reference.shape[0] < 2:
        raise DomainError("median bandwidth needs at least 2 reference points")
    if not np.all(np.isfinite(reference)):
        raise DomainError("reference sample has a non-finite coordinate")
    bw = float(np.median(_kernels().pdist_euclidean(reference), overwrite_input=True))
    if not 0.0 < bw < np.inf:
        raise DomainError(
            f"reference sample's median pairwise distance must be finite and > 0, got {bw}"
        )
    return bw


def mmd(a, b, bandwidth: float) -> float:
    """Squared maximum-mean-discrepancy estimate, unbiased for i.i.d. sets.

    Gaussian kernel exp(-||x-y||^2 / (2 bandwidth^2)); within-set sums skip
    the diagonal (U-statistic), so the estimate can be negative near the
    null. The two arguments are ordered canonically before reduction, making
    mmd(a, b) and mmd(b, a) bit-identical.

    Each of the three kernel sums (cross, within the first set, within the
    second) streams its squared distances in the blocks of _cross_blocks and
    _within_blocks, at most _BLOCK values (1 MiB) each. Every block is scaled
    and exponentiated in place and reduced by ``np.sum``; the block sums are
    added into a Python float in block order. Peak memory is therefore one
    block whatever the sample count, and no step uses BLAS. A set whose
    distances fit in one block reduces as the whole matrix would.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DomainError("sample sets must be 2-D arrays")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"sample sets have widths {a.shape[1]} and {b.shape[1]}")
    if not 0.0 < bandwidth < np.inf:
        raise DomainError(f"bandwidth must be finite and > 0, got {bandwidth}")
    first, second = a, b
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        first, second = b, a
    cross = _kernel_sum(_cross_blocks(first, second), bandwidth)
    cross *= 2.0 / (first.shape[0] * second.shape[0])
    return _within(a, bandwidth) + _within(b, bandwidth) - cross


def _kernel_sum(blocks, bandwidth) -> float:
    """Sum of exp(-sq / (2 bandwidth^2)) over blocks of squared distances."""
    gamma, total = 1.0 / (2.0 * bandwidth**2), 0.0
    for sq in blocks:
        sq *= -gamma
        total += float(np.sum(np.exp(sq, out=sq)))
        del sq  # before the next block is computed
    return total


def _within(x, bandwidth) -> float:
    """x's kernel mean over its distinct pairs, a U-statistic."""
    m = x.shape[0]
    if m < 2:
        raise DomainError("unbiased estimator needs >= 2 points per set")
    # Each unordered pair appears once; the symmetric sum doubles it.
    return 2.0 * _kernel_sum(_within_blocks(x), bandwidth) / (m * (m - 1))


def _mixture_mmd(generated, means, sigma: float, bandwidth: float) -> float:
    """Squared MMD between class-stratified samples and the equal-weight
    mixture of N(mu_c, sigma^2 I) over the rows mu_c of ``means``.

    ``generated`` is (C, n, d), row c drawn for class c. With the Gaussian
    kernel k, MMD^2 = E k(x, x') - 2 E k(x, y) + E k(y, y') for x from the
    samples and y from the mixture (Gretton et al. 2012, "A Kernel
    Two-Sample Test", JMLR 13), estimated term by term:

    - E k(x, x') averages the C x C class blocks with weight 1/C^2 each:
      same-class blocks are U-statistics, the diagonal left out, and
      cross-class blocks full means. Each block is unbiased for its pair of
      classes, so the average is unbiased for the mixture although every
      class holds exactly n samples; the i.i.d. U-statistic over all Cn
      samples is not, and reads low. Both stream the same pairs.
    - E k(x, y) and E k(y, y') are exact (see :func:`_smoothed_kernel_mean`):
      y - y' for classes a and b is N(mu_a - mu_b, 2 sigma^2 I).
    """
    classes, n, dim = generated.shape
    within = sum(_within(x, bandwidth) for x in generated)
    for a in range(classes):
        for b in range(a + 1, classes):
            pair = _kernel_sum(_cross_blocks(generated[a], generated[b]), bandwidth)
            within += 2.0 * pair / (n * n)
    cross = _smoothed_kernel_mean(generated.reshape(-1, dim), means, sigma**2, bandwidth)
    reference = _smoothed_kernel_mean(means, means, 2.0 * sigma**2, bandwidth)
    return within / (classes * classes) - 2.0 * cross + reference


def _smoothed_kernel_mean(x, means, variance: float, bandwidth: float) -> float:
    """Mean over rows x_i of x and mu_c of means of E k(x_i, mu_c + u) for
    u ~ N(0, variance I) and the Gaussian kernel k of width h = bandwidth:
    (h^2 / (h^2 + variance))^(d/2) exp(-||x_i - mu_c||^2 / (2 (h^2 + variance))).
    """
    h2 = bandwidth**2
    total = _kernel_sum(_cross_blocks(x, means), math.sqrt(h2 + variance))
    return (h2 / (h2 + variance)) ** (x.shape[1] / 2) * total / (len(x) * len(means))


# A Poisson-weighted sum keeps the terms within _TAIL (sqrt(mean) + 1) of its
# mean; the terms dropped hold far less mass than float64 rounding.
_TAIL = 10.0


def _window(mean: float):
    """(first index, count) of the terms kept around ``mean``."""
    spread = _TAIL * (math.sqrt(mean) + 1.0)
    first = max(0, math.floor(mean - spread))
    return first, math.ceil(mean + spread) - first + 1


def _poisson_terms(rate: float, first, count: int) -> np.ndarray:
    """exp(-rate) rate^k / Gamma(k + 1) for ``count`` values k = first,
    first + 1, ...; ``first`` may be fractional, down to -1/2."""
    if rate == 0.0:
        return (first + np.arange(count) == 0).astype(np.float64)
    logs = np.empty(count)
    logs[0] = first * math.log(rate) - rate - math.lgamma(first + 1.0)
    logs[1:] = math.log(rate) - np.log(first + np.arange(1, count))
    return np.exp(np.cumsum(logs))


def _mixture_median(means, sigma: float) -> float:
    """Median of ||y - y'|| for independent draws y, y' of the equal-weight
    mixture of N(mu_c, sigma^2 I) over the rows mu_c of ``means``.

    For y of class a and y' of class b, ||y - y'||^2 / (2 sigma^2) is
    noncentral chi^2 with d degrees of freedom and noncentrality
    lam = ||mu_a - mu_b||^2 / (2 sigma^2). So ||y - y'|| <= r with
    probability sum_j Poisson(j; lam/2) P(d/2 + j, z) at z = r^2 / (4 sigma^2),
    P the regularized lower incomplete gamma function. P(s, z) is the sum
    over m >= 0 of the Poisson(z) terms at s + m (see :func:`_poisson_terms`),
    and dP/dz the term at s - 1, so one window of terms around z gives
    every P and its derivative. Each sum keeps only the window of terms
    around its Poisson mean (:func:`_window`), O(sqrt(mean)) of them, so the
    cost grows with the largest class distance over sigma, not with its
    square. Newton steps on z, bisecting when a step leaves the bracket,
    find where the mixture's CDF, the mean over the C x C class pairs, is
    1/2. The bracket starts at 0 and twice the mean of ||y - y'||^2, which
    by Markov's inequality bounds the median's square.
    """
    dim = means.shape[1]
    sq = _kernels().cdist_sqeuclidean(means, means).ravel()
    rates, counts = np.unique(sq / (4.0 * sigma**2), return_counts=True)
    # P(d/2 + j, z) sums the terms at base + m for m >= j + shift.
    shift = (dim - 1) // 2
    base = dim / 2 - shift
    index, weight = [], []
    for rate, count in zip(rates, counts):
        first, size = _window(rate)
        index.append(first + shift + np.arange(size))
        weight.append(count / sq.size * _poisson_terms(rate, first, size))
    index, weight = np.concatenate(index), np.concatenate(weight)

    def cdf_and_density(z):
        first, size = _window(z)
        # terms[i] is the term at base + first - 1 + i; the last stays 0.
        terms = np.zeros(size + 2)
        terms[:-1] = _poisson_terms(z, base + first - 1, size + 1)
        tails = np.cumsum(terms[::-1])[::-1]
        cdf = np.sum(weight * tails[np.clip(index - first + 1, 0, size + 1)])
        return float(cdf), float(np.sum(weight * terms[np.clip(index - first, 0, size + 1)]))

    lo, hi = 0.0, float(np.mean(sq)) / (2.0 * sigma**2) + dim
    z = 0.5 * hi
    for _ in range(200):  # bisection alone converges in under 100
        cdf, density = cdf_and_density(z)
        if cdf < 0.5:
            lo = z
        else:
            hi = z
        step = z - (cdf - 0.5) / density if density > 0.0 else lo
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(step - z) <= 1e-13 * z:
            break
        z = step
    return 2.0 * sigma * math.sqrt(step)


def full_eval(
    model: NoisePredictor,
    forget_class: int,
    spec: MixtureSpec,
    schedule: NoiseSchedule,
    config: EvalConfig,
    rng,
) -> EvalReport:
    """Sample per condition, judge with the oracle, and compare to truth.

    Draw order is fixed (forget condition, then retained classes
    ascending), so a seed passed as ``rng`` pins the whole report. Every
    condition is sampled by one lock-step call,
    ``diffusion._sample_classes``, which checks the classes, the count and
    the model's timestep table once and gives the bytes and generator state
    of one ``ddpm_sample`` call per condition in that order.

    The MMD scores the retained conditions' samples against the retained
    mixture in closed form (:func:`_mixture_mmd`), so nothing else is
    drawn. Its bandwidth is ``config.bandwidth`` or, when that is None, the
    population median of the retained mixture's pairwise distance
    (:func:`_mixture_median`).
    """
    if not (0 <= forget_class < spec.num_classes):
        raise DomainError(
            f"forget_class must lie in 0..{spec.num_classes - 1}"
        )
    gen, seed = as_generator(rng)
    n = config.n_per_condition
    retained = [k for k in range(spec.num_classes) if k != forget_class]
    samples = _sample_classes(model, [forget_class, *retained], n, schedule, gen)
    labels = classify_points(
        samples.reshape(-1, spec.input_dim), spec, config.none_threshold
    ).reshape(len(samples), n)
    ua = float(1.0 - np.mean(labels[0] == forget_class))
    ra = int(np.sum(labels[1:] == np.array(retained)[:, None])) / (n * len(retained))
    # Bin 0 counts "none" (label -1), bin k + 1 class k.
    hist = np.bincount(labels.ravel() + 1, minlength=spec.num_classes + 1)
    counts = {str(k): int(hist[k + 1]) for k in range(spec.num_classes)}
    counts["none"] = int(hist[0])
    means = spec.means[retained]
    bandwidth = config.bandwidth or _mixture_median(means, spec.sigma)
    return EvalReport(
        ua=ua,
        ra=ra,
        mmd=_mixture_mmd(samples[1:], means, spec.sigma, bandwidth),
        bandwidth=bandwidth,
        per_class_counts=counts,
        n_samples_per_condition=n,
        seed=seed,
    )


def save_eval_report(report: EvalReport, path) -> None:
    artifacts.write_json(path, report.to_dict(), indent=2)
