"""Synthetic mixtures and forgetting/remaining set construction.

The toy data distribution is an isotropic Gaussian mixture with one component
per class. A remaining set draws equal counts from the retained classes whose
means sit closest to the forgotten class, standing in for feature-space class
similarity; drawn from every retained class, it is class-balanced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import DomainError, ShapeError
from .rngs import as_generator


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture with one component per class.

    Attributes:
        num_classes: Number of components K, at least 2.
        means: Component centers, shape (K, input_dim), finite and
            pairwise distinct.
        sigma: Shared per-coordinate standard deviation, positive and finite.
        samples_per_class: Draw count per component.
    """

    num_classes: int
    means: np.ndarray
    sigma: float
    samples_per_class: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if self.num_classes < 2:
            raise DomainError("mixture needs at least 2 classes")
        if means.ndim != 2 or means.shape[0] != self.num_classes:
            raise ShapeError(
                f"means has shape {means.shape}, expected ({self.num_classes}, dim)"
            )
        # Every comparison with NaN is false, so only a valid sigma passes.
        if not 0.0 < self.sigma < np.inf:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not np.isfinite(means).all():
            raise DomainError("means must be finite")
        if self.samples_per_class < 1:
            raise DomainError("samples_per_class must be at least 1")
        for i in range(self.num_classes):
            for j in range(i + 1, self.num_classes):
                if np.array_equal(means[i], means[j]):
                    raise DomainError(f"class means {i} and {j} coincide")
        means = means.copy()
        means.flags.writeable = False
        object.__setattr__(self, "means", means)

    @property
    def input_dim(self) -> int:
        return int(self.means.shape[1])


@dataclass(frozen=True)
class LabeledDataset:
    """Points with integer class labels.

    Attributes:
        points: Sample coordinates, shape (n, input_dim).
        labels: Class of each sample, shape (n,), nonnegative, of an
            integer dtype; floats and bools raise DomainError.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # Own copies, so marking them read-only leaves the caller's writable.
        points = np.array(self.points, dtype=np.float64)
        labels = np.asarray(self.labels)
        # As in nn._checked_rows: a bool or a fraction is not truncated.
        if labels.dtype.kind not in "iu":
            raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
        labels = labels.astype(np.int64)
        if points.ndim != 2:
            raise ShapeError(f"points must be 2-D, got shape {points.shape}")
        if points.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"{points.shape[0]} points but {labels.shape[0]} labels"
            )
        if labels.size and labels.min() < 0:
            raise DomainError("labels must be nonnegative")
        for arr in (points, labels):
            arr.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.points[indices], self.labels[indices])

    def class_subset(self, label: int) -> "LabeledDataset":
        return self.subset(np.flatnonzero(self.labels == label))

    def drop_class(self, label: int) -> "LabeledDataset":
        return self.subset(np.flatnonzero(self.labels != label))

    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def circle_mixture(
    num_classes: int = 5,
    radius: float = 5.0,
    sigma: float = 0.3,
    samples_per_class: int = 1000,
) -> MixtureSpec:
    """Default toy layout: class means equally spaced on a circle.

    Well-separated modes (radius/sigma large) keep the oracle classifier
    near-perfect, so accuracy metrics reflect the generator, not the judge.
    """
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return MixtureSpec(
        num_classes=num_classes,
        means=means,
        sigma=sigma,
        samples_per_class=samples_per_class,
    )


def gen_mixture(spec: MixtureSpec, rng) -> LabeledDataset:
    """Draw samples_per_class points from each component, class by class.

    Deterministic per seed; class k occupies the contiguous block
    [k * samples_per_class, (k+1) * samples_per_class).
    """
    gen, _ = as_generator(rng)
    blocks = []
    for k in range(spec.num_classes):
        noise = gen.standard_normal((spec.samples_per_class, spec.input_dim))
        blocks.append(spec.means[k] + spec.sigma * noise)
    points = np.concatenate(blocks, axis=0)
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    return LabeledDataset(points=points, labels=labels)


def remain_set(
    data: LabeledDataset, forget_class: int, k_nearest: int, per_class: int, rng
) -> LabeledDataset:
    """Draw per_class points from each of the k_nearest retained classes.

    Retained classes rank by the distance between their mean and the
    forgotten class mean, ties going to the lower class index; the first
    k_nearest are kept. Each kept class then gives per_class points without
    replacement, in ascending class order, from one generator, so
    k_nearest = every retained class is the class-balanced set.
    """
    counts = data.class_counts()
    if forget_class not in counts:
        raise DomainError(f"class {forget_class} absent from dataset")
    retained = sorted(k for k in counts if k != forget_class)
    if k_nearest < 1 or k_nearest > len(retained):
        raise DomainError(f"k_nearest must lie in 1..{len(retained)}")
    if per_class < 1:
        raise DomainError("per_class must be at least 1")
    target_mean = data.class_subset(forget_class).points.mean(axis=0)
    dists = [
        float(np.linalg.norm(data.class_subset(k).points.mean(axis=0) - target_mean))
        for k in retained
    ]
    # A stable sort over ascending class order breaks ties to the lower index.
    order = sorted(range(len(retained)), key=lambda i: dists[i])
    gen, _ = as_generator(rng)
    picked = []
    for k in sorted(retained[i] for i in order[:k_nearest]):
        pool = np.flatnonzero(data.labels == k)
        if pool.size < per_class:
            raise DomainError(f"class {k} has {pool.size} samples, need {per_class}")
        picked.append(gen.choice(pool, size=per_class, replace=False))
    return data.subset(np.concatenate(picked))


def save_dataset(data: LabeledDataset, path) -> None:
    """Write one {"x": [...], "label": int} JSON record per line.

    Each line is formatted directly, with the bytes json.dumps(record,
    allow_nan=False) gives; like json, a non-finite point raises ValueError
    and nothing is written.
    """
    if not np.isfinite(data.points).all():
        raise ValueError("Out of range float values are not JSON compliant")
    artifacts.write_lines(
        path,
        (
            f'{{"x": [{", ".join(map(repr, x))}], "label": {label}}}'
            for x, label in zip(data.points.tolist(), data.labels.tolist())
        ),
    )


def load_dataset(path) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset`; floats round-trip."""
    records = artifacts.read_jsonl(path)
    if not records:
        raise DomainError(f"no records in {path}")
    return LabeledDataset(
        points=np.array([r["x"] for r in records]),
        labels=np.array([r["label"] for r in records]),
    )
