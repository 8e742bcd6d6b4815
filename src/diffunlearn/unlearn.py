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

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .data import LabeledDataset
from .diffusion import NoiseSchedule, _check_sets, _corrupted_pass, draw_corruption
from .errors import DegenerateGradientError, DomainError, TrainingDiverged
from .nn import (
    NoisePredictor,
    _backward,
    _unpack,
    backward_from_activations,
    forward_activations,
)
from .projection import inner, restricted_gradient
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
        if not 0.0 <= self.forget_weight < np.inf:
            raise DomainError("forget_weight must be finite and >= 0")
        if not 0.0 < self.loss_cap < np.inf:
            raise DomainError("loss_cap must be finite and > 0")
        if not 0.0 < self.step_size < np.inf:
            raise DomainError("step_size must be finite and > 0")
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
    if not 0.0 <= forget_weight < np.inf:
        raise DomainError("forget_weight must be finite and >= 0")
    if not 0.0 < loss_cap < np.inf:
        raise DomainError("loss_cap must be finite and > 0")
    forget_batch = np.asarray(forget_batch, dtype=np.float64)
    if forget_batch.ndim != 2 or forget_batch.shape[0] == 0:
        raise DomainError("forget_batch must be a nonempty (batch, dim) array")
    x_t, t, eps = draw_corruption(schedule, forget_batch, rng)
    acts, t_rows, c_rows = forward_activations(model, x_t, t, class_ids)
    per_sample = ((acts[-1] - eps) ** 2).sum(axis=1)
    weights, loss_f, raw_mse, truncated = _truncation(per_sample, forget_weight, loss_cap)
    grad = backward_from_activations(model, acts, eps, t_rows, c_rows, weights)
    return loss_f, grad, raw_mse, truncated


def _truncation(per_sample, forget_weight: float, loss_cap: float):
    """The truncated forgetting objective on per-sample errors.

    Returns (sample_weights, loss_f, raw_mse, truncated_fraction): samples
    at or past ``loss_cap`` get weight zero, the rest -forget_weight/batch.
    """
    contributes = per_sample < loss_cap
    weights = np.where(contributes, -forget_weight / per_sample.shape[0], 0.0)
    loss_f = -forget_weight * float(np.minimum(per_sample, loss_cap).mean()) + 0.0
    raw_mse = float(per_sample.mean())
    truncated = float(1.0 - contributes.mean())
    return weights, loss_f, raw_mse, truncated


def _direction(rule: str, grad_f, grad_r, iteration: int):
    """(update direction, grad_f . grad_r) under the update rule ``rule``.

    The direction is ``grad_r`` itself for finetune and a new array
    otherwise. A degenerate restricted step (both gradients zero) becomes a
    logged no-op: a zero direction.
    """
    if rule == "restricted":
        try:
            update = restricted_gradient(grad_f, grad_r)
            return update.combined, update.dot
        except DegenerateGradientError:
            log.warning(
                "iteration %d: both gradients vanished; applying no-op step",
                iteration,
            )
            return np.zeros_like(grad_f), inner(grad_f, grad_r)
    direction = grad_r if rule == "finetune" else grad_f + grad_r
    return direction, inner(grad_f, grad_r)


def _descend(params, direction, step_size: float) -> None:
    """params -= step_size * direction, in place; ``direction`` is scaled."""
    direction *= step_size
    params -= direction


def _stepper(
    model: NoisePredictor, schedule: NoiseSchedule, config: UnlearnConfig, gen
):
    """The one unlearning step, on a writable copy of ``model``'s parameters.

    Returns (params, step). ``step(forget, remain, iteration)`` takes two
    (points, labels) minibatches of checked sets, updates ``params`` in
    place and returns the StepReport. It runs ``diffusion._corrupted_pass``
    and ``nn._backward`` on the forget batch, then on the remain batch,
    then the strategy's direction and the update. A non-finite loss or
    parameter raises TrainingDiverged. Hidden buffers and remain weights
    are built once per batch size, the two gradient vectors once.
    """
    rule, _ = parse_strategy(config.strategy)
    params = np.array(model.params)
    layout = model.layout
    views = _unpack(layout, params)
    grad_f, grad_r = np.empty_like(params), np.empty_like(params)

    @functools.cache
    def sized(batch):
        # Hidden buffers and batch-mean sample weights for one batch size.
        hidden = [np.empty((batch, width)) for width in model.hidden_dims]
        return hidden, np.full(batch, 1.0 / batch)

    def step(forget, remain, iteration):
        hidden, _ = sized(len(forget[0]))
        errors, pass_f = _corrupted_pass(views, schedule, *forget, gen, hidden)
        weights, loss_f, raw_mse, truncated = _truncation(
            errors, config.forget_weight, config.loss_cap
        )
        _backward(views, layout, *pass_f, weights, grad_f)
        hidden, mean_weights = sized(len(remain[0]))
        errors, pass_r = _corrupted_pass(views, schedule, *remain, gen, hidden)
        loss_r = float(errors.mean())
        _backward(views, layout, *pass_r, mean_weights, grad_r)
        direction, dot = _direction(rule, grad_f, grad_r, iteration)
        _descend(params, direction, config.step_size)
        finite = math.isfinite(loss_f) and math.isfinite(loss_r)
        if not (finite and np.isfinite(params).all()):
            raise TrainingDiverged(f"unlearning diverged at iteration {iteration}")
        return StepReport(
            iteration=iteration, loss_r=loss_r, loss_f=loss_f, raw_forget_mse=raw_mse,
            conflicted=dot < 0.0, dot=dot, truncated_fraction=truncated,
        )

    return params, step


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

    Checks both batches as :func:`unlearn_run` checks its sets, then runs
    the loop's own step (:func:`_stepper`) once on ``rng``: the forget
    batch's draws, then the remain batch's, so the stream advances
    identically under every strategy. A degenerate restricted step (both
    gradients zero) becomes a logged no-op.

    Returns:
        (updated_model, StepReport)

    Raises:
        TrainingDiverged: the step produced a non-finite loss or parameter.
    """
    _check_sets(model, schedule, forget_batch, remain_batch)
    params, step = _stepper(model, schedule, config, rng)
    report = step(
        (forget_batch.points, forget_batch.labels),
        (remain_batch.points, remain_batch.labels),
        iteration,
    )
    return model.with_params(params), report


def _class_pools(labels: np.ndarray) -> list[np.ndarray]:
    """Each class's indices into ``labels``, one array per class, ascending."""
    return [np.flatnonzero(labels == k) for k in np.unique(labels)]


def _stratified_indices(
    pools: list[np.ndarray], batch: int, gen: np.random.Generator
) -> np.ndarray:
    """Equal per-class minibatch indices from :func:`_class_pools`' pools;
    the remainder goes to lower classes."""
    base, extra = divmod(batch, len(pools))
    picked = []
    for i, pool in enumerate(pools):
        want = base + (1 if i < extra else 0)
        if want == 0:
            continue
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
    then remain indices, then the step's corruption draws (the forget
    batch's, then the remain batch's), all from one stream, so a (config,
    seed) pair pins the entire run bit-for-bit.

    Checked once on entry, before any draw, by ``diffusion._check_sets``.
    The strategy is parsed once, and a ``+diverse`` strategy's per-class
    remain pools are built once. Each iteration gathers its minibatches
    directly and runs :func:`unlearn_step`'s own step on one parameter
    vector, so the run equals a loop over ``subset``, :func:`unlearn_step`
    and ``with_params`` by construction; the model is built at the end.

    Args:
        rng: Overrides config.seed when given (seed or Generator).

    Returns:
        (final_model, reports) with one StepReport per iteration.

    Raises:
        TrainingDiverged: a step produced a non-finite loss or parameter.
    """
    _check_sets(model, schedule, forget_set, remain_set)
    gen, _ = as_generator(config.seed if rng is None else rng)
    _, stratify = parse_strategy(config.strategy)
    pools = _class_pools(remain_set.labels) if stratify else None
    params, step = _stepper(model, schedule, config, gen)
    reports = []
    for iteration in range(config.iterations):
        f_idx = gen.integers(0, len(forget_set), size=config.batch_forget)
        if stratify:
            r_idx = _stratified_indices(pools, config.batch_remain, gen)
        else:
            r_idx = gen.integers(0, len(remain_set), size=config.batch_remain)
        forget = forget_set.points[f_idx], forget_set.labels[f_idx]
        remain = remain_set.points[r_idx], remain_set.labels[r_idx]
        reports.append(step(forget, remain, iteration))
    return model.with_params(params), reports


def write_trajectory_csv(reports, path) -> None:
    """Write one row per step with the fixed diagnostic column set."""
    artifacts.write_rows_csv(
        path,
        TRAJECTORY_COLUMNS,
        ({**vars(r), "conflicted": int(r.conflicted)} for r in reports),
    )


def read_trajectory_csv(path) -> list[StepReport]:
    """Inverse of :func:`write_trajectory_csv`; floats round-trip exactly."""
    return [
        StepReport(**{**row, "conflicted": bool(row["conflicted"])})
        for row in artifacts.read_rows_csv(path, TRAJECTORY_COLUMNS)
    ]
