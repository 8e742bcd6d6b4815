"""Independent oracles for the benchmark's correctness checks.

Each oracle recomputes a result from its definition, with plain numpy and
the standard library, and calls nothing from the package it checks. They are
slow and direct on purpose; the benchmark runs them outside the timed section.
"""

from __future__ import annotations

import json
import math

import numpy as np


# -- kernel two-sample statistic ----------------------------------------------


def _block_kernel_sum(x, y, gamma, block):
    total = 0.0
    for i in range(0, len(x), block):
        xi = x[i : i + block]
        for j in range(0, len(y), block):
            yj = y[j : j + block]
            sq = ((xi[:, None, :] - yj[None, :, :]) ** 2).sum(axis=2)
            total += float(np.exp(-gamma * sq).sum())
    return total


def mmd_terms(a, b, bandwidth, block=256):
    """Unbiased squared MMD as a direct blockwise Gaussian-kernel sum.

    Returns (mmd, scale) where scale is the sum of the magnitudes of the
    three terms, the yardstick for comparing two estimates that cancel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gamma = 1.0 / (2.0 * bandwidth**2)
    m, n = len(a), len(b)
    # The full within-set sums include the diagonal, k(x, x) = 1 for each x.
    within_a = (_block_kernel_sum(a, a, gamma, block) - m) / (m * (m - 1))
    within_b = (_block_kernel_sum(b, b, gamma, block) - n) / (n * (n - 1))
    cross = _block_kernel_sum(a, b, gamma, block) / (m * n)
    return within_a + within_b - 2.0 * cross, within_a + within_b + 2.0 * cross


def median_pairwise_distance(points, block=512):
    """Median Euclidean distance over all unordered pairs."""
    points = np.asarray(points, dtype=np.float64)
    parts = []
    cols = np.arange(len(points))
    for i in range(0, len(points), block):
        xi = points[i : i + block]
        d = np.sqrt(((xi[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        later = cols[None, :] > np.arange(i, i + len(xi))[:, None]
        parts.append(d[later])
    return float(np.median(np.concatenate(parts)))


# -- oracle labels ------------------------------------------------------------


def nearest_mean_labels(points, means, sigma, none_threshold):
    """Nearest class mean, ties to the lower index; -1 ("none") past the cut.

    A point farther than none_threshold * sigma from every mean is "none",
    and so is a point with a non-finite coordinate: it is near no mean.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    best = np.full(len(points), np.inf)
    labels = np.full(len(points), -1, dtype=np.int64)
    for k, mu in enumerate(np.asarray(means, dtype=np.float64)):
        d = np.sqrt(((points - mu) ** 2).sum(axis=1))
        closer = d < best
        best = np.where(closer, d, best)
        labels = np.where(closer, k, labels)
    finite = np.isfinite(points).all(axis=1)
    labels[~(finite & (best <= none_threshold * sigma))] = -1
    return labels


# -- network output and finite differences ------------------------------------


def mlp_output(params, input_dim, hidden_dims, num_timesteps, num_classes, x, t, c):
    """Forward pass rebuilt from the documented flat parameter layout.

    Layout: per layer W (fan_out, fan_in) row-major then b, output layer
    last, then the timestep table (T, h0) and the class table (K + 1, h0).
    Timesteps are 1-based; both table rows add to the first pre-activation.
    """
    dims = [input_dim, *hidden_dims, input_dim]
    off = 0
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = params[off : off + fan_out * fan_in].reshape(fan_out, fan_in)
        off += fan_out * fan_in
        layers.append((w, params[off : off + fan_out]))
        off += fan_out
    h0 = hidden_dims[0]
    time_table = params[off : off + num_timesteps * h0].reshape(num_timesteps, h0)
    off += num_timesteps * h0
    class_table = params[off : off + (num_classes + 1) * h0].reshape(num_classes + 1, h0)
    w, b = layers[0]
    h = np.tanh(x @ w.T + b + time_table[np.asarray(t) - 1] + class_table[c])
    for w, b in layers[1:-1]:
        h = np.tanh(h @ w.T + b)
    w, b = layers[-1]
    return h @ w.T + b


def central_differences(loss_fn, params, coords, h=1e-5):
    """(loss(p + h e_i) - loss(p - h e_i)) / 2h at each listed coordinate."""
    out = np.empty(len(coords))
    for n, i in enumerate(coords):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = loss_fn(bumped)
        bumped[i] = params[i] - h
        out[n] = (up - loss_fn(bumped)) / (2.0 * h)
    return out


# -- the restricted update rule -----------------------------------------------


def least_squares_residual(g, onto):
    """g minus its least-squares fit on the single column ``onto``."""
    coef = np.linalg.lstsq(onto[:, None], g, rcond=None)[0][0]
    return g - coef * onto


def restricted_direction(grad_f, grad_r):
    """(direction, conflicted) of the conflict-aware combination rule.

    Under conflict (negative inner product) each gradient is replaced by its
    residual against the other; otherwise the raw sum passes through.
    """
    dot = math.fsum(grad_f * grad_r)
    if dot < 0.0:
        return (
            least_squares_residual(grad_f, grad_r)
            + least_squares_residual(grad_r, grad_f),
            True,
        )
    return grad_f + grad_r, False


# -- artifacts ----------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def mixture_moment_failures(points, labels, num_classes, radius, sigma, per_class):
    """Compare each class's size, mean and spread with the circle mixture.

    Class k is centred at radius * (cos 2 pi k / K, sin 2 pi k / K). A mean
    may sit 5 standard errors off; a spread may be 15% off sigma.
    """
    failures = []
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    for k in range(num_classes):
        block = points[labels == k]
        if len(block) != per_class:
            failures.append(f"class {k} has {len(block)} rows, expected {per_class}")
            continue
        angle = 2.0 * math.pi * k / num_classes
        centre = np.array([radius * math.cos(angle), radius * math.sin(angle)])
        err = np.abs(block.mean(axis=0) - centre).max()
        if err > 5.0 * sigma / math.sqrt(per_class):
            failures.append(f"class {k} mean is {err:.4g} off its centre")
        spread = block.std(axis=0, ddof=1)
        if np.any(np.abs(spread / sigma - 1.0) > 0.15):
            failures.append(f"class {k} spread {spread} is far from sigma {sigma}")
    if len(points) != num_classes * per_class:
        failures.append(f"dataset has {len(points)} rows")
    return failures
