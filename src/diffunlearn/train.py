"""Pretraining of the class-conditional denoiser, and loss-cap calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .diffusion import NoiseSchedule, draw_corruption
from .errors import DomainError, ShapeError, TrainingDiverged
from .nn import NoisePredictor, _backward, _forward, _unpack, mlp_forward
from .rngs import as_generator


@dataclass(frozen=True)
class TrainConfig:
    """Plain-SGD pretraining settings.

    Attributes:
        steps: Number of minibatch updates; zero returns the model unchanged.
        batch_size: Samples per update.
        lr: Initial step size.
        lr_final: Step size at the last update, reached by linear decay;
            None keeps lr constant.
    """

    steps: int = 30_000
    batch_size: int = 128
    lr: float = 0.05
    lr_final: float | None = 0.005

    def __post_init__(self):
        if self.steps < 0:
            raise DomainError("steps must be >= 0")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.lr <= 0.0 or (self.lr_final is not None and self.lr_final <= 0.0):
            raise DomainError("learning rates must be > 0")


def pretrain(
    model: NoisePredictor,
    data: LabeledDataset,
    schedule: NoiseSchedule,
    config: TrainConfig,
    rng,
):
    """SGD on the class-conditional denoising loss.

    ``rng`` (seed or Generator) drives the minibatch and corruption draws.
    Returns (trained_model, loss_history). A non-finite loss aborts with
    TrainingDiverged rather than silently corrupting the parameters.

    Checked once on entry, before any draw: the set is non-empty, its
    points have ``input_dim`` columns, every label lies in
    0..num_classes-1 and the model's timestep table covers the schedule.
    Each step then draws exactly as ``diffusion_loss`` does (the minibatch
    indices, then ``draw_corruption``) and runs the same layer kernels as
    ``nn.forward_activations`` and ``nn.backward_from_activations``
    (``nn._forward``, ``nn._backward``) on one writable copy of the
    parameters, unpacked once and updated in place; the returned model is
    built once, at the end. The trained bytes equal those of a loop over
    ``diffusion_loss`` and ``with_params``.
    """
    if len(data) == 0:
        raise DomainError("training set is empty")
    if data.points.shape[1] != model.input_dim:
        raise ShapeError(
            f"points have {data.points.shape[1]} columns, model takes {model.input_dim}"
        )
    if data.labels.max() >= model.num_classes:
        raise DomainError(f"class ids must lie in 0..{model.num_classes - 1}")
    if model.num_timesteps < schedule.num_timesteps:
        raise DomainError("model timestep table is smaller than the schedule horizon")
    gen, _ = as_generator(rng)
    lr_final = config.lr if config.lr_final is None else config.lr_final
    batch = config.batch_size
    params = np.array(model.params)
    grad = np.empty_like(params)
    layout = model.layout
    views = _unpack(layout, params)
    hidden = [np.empty((batch, width)) for width in model.hidden_dims]
    sample_weights = np.full(batch, 1.0 / batch)
    history = []
    for step in range(config.steps):
        frac = step / config.steps
        lr = config.lr * (1.0 - frac) + lr_final * frac
        idx = gen.integers(0, len(data), size=batch)
        c_rows = data.labels[idx]
        x_t, t, eps = draw_corruption(schedule, data.points[idx], gen)
        t_rows = t - 1
        acts = _forward(views, x_t, t_rows, c_rows, hidden)
        loss = float(((acts[-1] - eps) ** 2).sum(axis=1).mean())
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at step {step}")
        _backward(views, layout, acts, eps, t_rows, c_rows, sample_weights, grad)
        grad *= lr  # params -= lr * grad, without the temporary
        params -= grad
        history.append(loss)
    return model.with_params(params), history


def per_sample_losses(
    model: NoisePredictor,
    data: LabeledDataset,
    schedule: NoiseSchedule,
    rng,
) -> np.ndarray:
    """One drawn (t, eps) per sample; returns each sample's squared error."""
    if len(data) == 0:
        raise DomainError("dataset is empty")
    gen, _ = as_generator(rng)
    x_t, t, eps = draw_corruption(schedule, data.points, gen)
    pred = mlp_forward(model, x_t, t, data.labels)
    return ((pred - eps) ** 2).sum(axis=1)


def derive_loss_cap(
    model: NoisePredictor,
    remain_set: LabeledDataset,
    schedule: NoiseSchedule,
    rng,
    percentile: float = 90.0,
) -> float:
    """Loss cap for unlearning: a high quantile of remain-set sample losses.

    Forget samples are pushed up until their loss clears what ordinary
    samples already score at the pretrained checkpoint; capping there stops
    the ascent before it distorts the rest of the model.
    """
    if not (0.0 < percentile < 100.0):
        raise DomainError("percentile must lie strictly in (0, 100)")
    losses = per_sample_losses(model, remain_set, schedule, rng)
    return float(np.percentile(losses, percentile))
