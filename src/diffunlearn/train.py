"""Pretraining of the class-conditional denoiser, and loss-cap calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .diffusion import NoiseSchedule, _check_sets, _corrupted_pass
from .errors import DomainError, TrainingDiverged
from .nn import NoisePredictor, _backward, _unpack
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
        rates = (self.lr,) if self.lr_final is None else (self.lr, self.lr_final)
        if not all(0.0 < lr < np.inf for lr in rates):
            raise DomainError("learning rates must be finite and > 0")


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

    Checked once on entry, before any draw, by ``diffusion._check_sets``.
    Each step then draws the minibatch indices and runs
    ``diffusion._corrupted_pass`` and the ``nn._backward`` kernel on one
    writable copy of the parameters, unpacked once and updated in place;
    the returned model is built once, at the end. The trained bytes equal
    those of a loop over ``diffusion_loss`` and ``with_params``.
    """
    _check_sets(model, schedule, data)
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
        per_sample, backward_args = _corrupted_pass(
            views, schedule, data.points[idx], data.labels[idx], gen, hidden
        )
        loss = float(per_sample.mean())
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at step {step}")
        _backward(views, layout, *backward_args, sample_weights, grad)
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
    """One drawn (t, eps) per sample; returns each sample's squared error.

    Checked on entry as :func:`pretrain` is.
    """
    _check_sets(model, schedule, data)
    gen, _ = as_generator(rng)
    return _corrupted_pass(model.unpack(), schedule, data.points, data.labels, gen)[0]


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
