"""Pretraining of the class-conditional denoiser, and loss-cap calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .diffusion import NoiseSchedule, diffusion_loss, draw_corruption
from .errors import DomainError, TrainingDiverged
from .nn import NoisePredictor, mlp_forward
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
    """
    if len(data) == 0:
        raise DomainError("training set is empty")
    gen, _ = as_generator(rng)
    lr_final = config.lr if config.lr_final is None else config.lr_final
    history = []
    for step in range(config.steps):
        frac = step / config.steps
        lr = config.lr * (1.0 - frac) + lr_final * frac
        idx = gen.integers(0, len(data), size=config.batch_size)
        batch = data.subset(idx)
        loss, grad = diffusion_loss(
            model, batch.points, batch.labels, schedule, gen
        )
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at step {step}")
        model = model.with_params(model.params - lr * grad)
        history.append(loss)
    return model, history


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
