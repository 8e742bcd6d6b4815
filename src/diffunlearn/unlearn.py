"""The unlearning loop: truncated forgetting loss, per-step updates, trajectory.

Each iteration evaluates two objectives on fresh minibatches, the forgetting
loss on samples of the class being removed and the plain denoising loss on a
remaining batch, then steps against their combination. Three combination
strategies exist:

* ``restricted``: mutual projection under gradient conflict (the method),
* ``graddiff``: the raw gradient sum (no conflict handling),
* ``finetune``: the remaining gradient alone (the forgetting signal ignored).

Any of the three may carry a ``+diverse`` suffix, which draws remain
minibatches with equal per-class counts instead of uniformly.

All strategies evaluate both losses in the same order every step, so runs
that share a seed consume identical random streams and differ only in the
applied update.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledDataset
from .diffusion import NoiseSchedule, diffusion_loss, draw_corruption
from .errors import DegenerateGradientError, DomainError, TrainingDiverged
from .nn import NoisePredictor, backward_from_activations, forward_activations
from .projection import restricted_gradient
from .rngs import as_generator

log = logging.getLogger(__name__)

STRATEGIES = ("restricted", "graddiff", "finetune")
DIVERSE = "+diverse"


def parse_strategy(label: str) -> tuple[str, bool]:
    """Split a strategy label into (update rule, stratified remain batches).

    Raises:
        DomainError: the label names no known update rule.
    """
    base = label.removesuffix(DIVERSE)
    if base not in STRATEGIES:
        raise DomainError(
            f"strategy must be one of {STRATEGIES}, optionally with "
            f"{DIVERSE!r}, got {label!r}"
        )
    return base, base != label


TRAJECTORY_COLUMNS = (
    "iteration",
    "loss_r",
    "loss_f",
    "raw_forget_mse",
    "conflicted",
    "dot",
    "truncated_fraction",
)


@dataclass(frozen=True)
class UnlearnConfig:
    """Hyperparameters of one unlearning run.

    Attributes:
        forget_weight: Multiplier on the forgetting loss, >= 0; zero turns
            every strategy into plain fine-tuning on the remain set.
        loss_cap: Per-sample ceiling on the forgetting loss; samples already
            above it stop contributing gradient, which bounds the ascent.
        step_size: Plain gradient step size, > 0.
        iterations: Number of update steps, >= 1.
        batch_forget: Minibatch size drawn from the forget set each step.
        batch_remain: Minibatch size drawn from the remain set each step.
        strategy: One of "restricted", "graddiff", "finetune", optionally
            with the DIVERSE suffix for class-stratified remain minibatches.
        seed: Seed for minibatch draws and loss corruption noise.
    """

    forget_weight: float = 5.0
    loss_cap: float = 1.0
    step_size: float = 1e-3
    iterations: int = 2000
    batch_forget: int = 64
    batch_remain: int = 64
    strategy: str = "restricted"
    seed: int = 0

    def __post_init__(self):
        if self.forget_weight < 0.0:
            raise DomainError("forget_weight must be >= 0")
        if self.loss_cap <= 0.0:
            raise DomainError("loss_cap must be > 0")
        if self.step_size <= 0.0:
            raise DomainError("step_size must be > 0")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.batch_forget < 1 or self.batch_remain < 1:
            raise DomainError("batch sizes must be >= 1")
        parse_strategy(self.strategy)


@dataclass(frozen=True)
class StepReport:
    """Diagnostics of one unlearning step.

    Attributes:
        iteration: 0-based step index.
        loss_r: Denoising loss on the remain minibatch.
        loss_f: Truncated, negated forgetting objective; <= 0 by construction.
        raw_forget_mse: Untruncated mean per-sample error on the forget
            minibatch; rising values indicate forgetting progress.
        conflicted: Whether the two raw gradients had negative inner product.
        dot: The raw inner product.
        truncated_fraction: Share of forget samples at or above loss_cap.
    """

    iteration: int
    loss_r: float
    loss_f: float
    raw_forget_mse: float
    conflicted: bool
    dot: float
    truncated_fraction: float


def forgetting_loss(
    model: NoisePredictor,
    forget_batch,
    class_ids,
    schedule: NoiseSchedule,
    forget_weight: float,
    loss_cap: float,
    rng: np.random.Generator,
):
    """Truncated negative denoising loss on forget samples, with gradient.

    Per-sample error l follows the denoising loss. The objective is
    -forget_weight * mean_i min(l_i, loss_cap); samples with l_i >= loss_cap
    contribute zero gradient.

    Returns:
        (loss_f, grad_f, raw_mse, truncated_fraction) where raw_mse is the
        untruncated mean of l and truncated_fraction the share of samples at
        or past the cap.
    """
    if forget_weight < 0.0:
        raise DomainError("forget_weight must be >= 0")
    if loss_cap <= 0.0:
        raise DomainError("loss_cap must be > 0")
    forget_batch = np.asarray(forget_batch, dtype=np.float64)
    if forget_batch.ndim != 2 or forget_batch.shape[0] == 0:
        raise DomainError("forget_batch must be a nonempty (batch, dim) array")
    x_t, t, eps = draw_corruption(schedule, forget_batch, rng)
    acts, t_rows, c_rows = forward_activations(model, x_t, t, class_ids)
    per_sample = ((acts[-1] - eps) ** 2).sum(axis=1)
    batch = per_sample.shape[0]
    contributes = per_sample < loss_cap
    weights = np.where(contributes, -forget_weight / batch, 0.0)
    grad = backward_from_activations(model, acts, eps, t_rows, c_rows, weights)
    loss_f = -forget_weight * float(np.minimum(per_sample, loss_cap).mean()) + 0.0
    raw_mse = float(per_sample.mean())
    truncated = float(1.0 - contributes.mean())
    return loss_f, grad, raw_mse, truncated


def unlearn_step(
    model: NoisePredictor,
    forget_batch: LabeledDataset,
    remain_batch: LabeledDataset,
    schedule: NoiseSchedule,
    config: UnlearnConfig,
    rng: np.random.Generator,
    iteration: int = 0,
):
    """One gradient step against the combined objective.

    Evaluation order is fixed (forgetting loss, then remaining loss) so the
    random stream advances identically under every strategy. A degenerate
    restricted step (both gradients zero) becomes a logged no-op.

    Returns:
        (updated_model, StepReport)
    """
    if len(forget_batch) == 0 or len(remain_batch) == 0:
        raise DomainError("both minibatches must be nonempty")
    loss_f, grad_f, raw_mse, truncated = forgetting_loss(
        model,
        forget_batch.points,
        forget_batch.labels,
        schedule,
        config.forget_weight,
        config.loss_cap,
        rng,
    )
    loss_r, grad_r = diffusion_loss(
        model, remain_batch.points, remain_batch.labels, schedule, rng
    )
    dot = float(grad_f @ grad_r)
    conflicted = dot < 0.0

    rule, _ = parse_strategy(config.strategy)
    if rule == "finetune":
        direction = grad_r
    elif rule == "graddiff":
        direction = grad_f + grad_r
    else:
        try:
            direction = restricted_gradient(grad_f, grad_r).combined
        except DegenerateGradientError:
            log.warning(
                "iteration %d: both gradients vanished; applying no-op step",
                iteration,
            )
            direction = np.zeros(model.num_params)
    updated = model.with_params(model.params - config.step_size * direction)
    report = StepReport(
        iteration=iteration,
        loss_r=loss_r,
        loss_f=loss_f,
        raw_forget_mse=raw_mse,
        conflicted=conflicted,
        dot=dot,
        truncated_fraction=truncated,
    )
    return updated, report


def _stratified_indices(
    labels: np.ndarray, batch: int, gen: np.random.Generator
) -> np.ndarray:
    """Equal per-class minibatch indices; remainder goes to lower classes."""
    classes = np.unique(labels)
    base, extra = divmod(batch, classes.size)
    picked = []
    for i, k in enumerate(classes):
        want = base + (1 if i < extra else 0)
        if want == 0:
            continue
        pool = np.flatnonzero(labels == k)
        picked.append(pool[gen.integers(0, pool.size, size=want)])
    return np.concatenate(picked)


def unlearn_run(
    model: NoisePredictor,
    forget_set: LabeledDataset,
    remain_set: LabeledDataset,
    schedule: NoiseSchedule,
    config: UnlearnConfig,
    rng=None,
):
    """Run the full unlearning loop.

    Minibatches are drawn with replacement each iteration: forget indices,
    then remain indices, then the step's corruption draws, all from one
    stream, so a (config, seed) pair pins the entire run bit-for-bit.

    Args:
        rng: Overrides config.seed when given (seed or Generator).

    Returns:
        (final_model, reports) with one StepReport per iteration.

    Raises:
        TrainingDiverged: a step produced a non-finite loss or parameter.
    """
    if len(forget_set) == 0 or len(remain_set) == 0:
        raise DomainError("forget and remain sets must be nonempty")
    gen, _ = as_generator(config.seed if rng is None else rng)
    _, stratify = parse_strategy(config.strategy)
    reports = []
    for iteration in range(config.iterations):
        f_idx = gen.integers(0, len(forget_set), size=config.batch_forget)
        if stratify:
            r_idx = _stratified_indices(remain_set.labels, config.batch_remain, gen)
        else:
            r_idx = gen.integers(0, len(remain_set), size=config.batch_remain)
        model, report = unlearn_step(
            model,
            forget_set.subset(f_idx),
            remain_set.subset(r_idx),
            schedule,
            config,
            gen,
            iteration=iteration,
        )
        if not (
            math.isfinite(report.loss_f)
            and math.isfinite(report.loss_r)
            and np.isfinite(model.params).all()
        ):
            raise TrainingDiverged(f"unlearning diverged at iteration {iteration}")
        reports.append(report)
    return model, reports


def write_trajectory_csv(reports, path) -> None:
    """Write one row per step with the fixed diagnostic column set."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.iteration,
                    repr(r.loss_r),
                    repr(r.loss_f),
                    repr(r.raw_forget_mse),
                    int(r.conflicted),
                    repr(r.dot),
                    repr(r.truncated_fraction),
                ]
            )


def read_trajectory_csv(path) -> list[StepReport]:
    """Inverse of :func:`write_trajectory_csv`; floats round-trip exactly."""
    reports = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != TRAJECTORY_COLUMNS:
            raise DomainError(
                f"unexpected trajectory columns {reader.fieldnames} in {path}"
            )
        for row in reader:
            reports.append(
                StepReport(
                    iteration=int(row["iteration"]),
                    loss_r=float(row["loss_r"]),
                    loss_f=float(row["loss_f"]),
                    raw_forget_mse=float(row["raw_forget_mse"]),
                    conflicted=bool(int(row["conflicted"])),
                    dot=float(row["dot"]),
                    truncated_fraction=float(row["truncated_fraction"]),
                )
            )
    return reports
