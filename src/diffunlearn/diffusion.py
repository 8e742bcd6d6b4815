"""DDPM forward corruption, the denoising training loss, and ancestral sampling.

The forward process follows the standard discrete formulation: a linear
variance schedule beta_1..beta_T, cumulative products alpha_bar_t, and the
closed-form corruption q(x_t | x_0) = N(sqrt(alpha_bar_t) x_0,
(1 - alpha_bar_t) I). The reverse process fixes the per-step variance at
beta_t and denoises with the model's noise estimate.

Timesteps are 1-based throughout: t runs over 1..T, matching the schedule
vectors, and the network's timestep-embedding rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .nn import (
    NoisePredictor,
    _class_rows,
    _forward,
    _row_selection,
    _timestep_rows,
    squared_error_backward,
)
from .rngs import as_generator


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear variance schedule of the forward diffusion process.

    The three fields are the whole schedule; ``betas`` (beta_t for
    t = 1..T, from beta_min to beta_max inclusive) and ``alpha_bars`` (their
    cumulative products of 1 - beta) are derived once and read-only.

    Example: T=4 over [0.1, 0.4] gives betas (0.1, 0.2, 0.3, 0.4) and
    alpha_bars (0.9, 0.72, 0.504, 0.3024).
    """

    num_timesteps: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.1

    def __post_init__(self):
        if self.num_timesteps < 1:
            raise DomainError("schedule needs at least one timestep")
        if not (0.0 < self.beta_min <= self.beta_max < 1.0):
            raise DomainError("need 0 < beta_min <= beta_max < 1")
        betas = np.linspace(self.beta_min, self.beta_max, self.num_timesteps)
        alpha_bars = np.cumprod(1.0 - betas)
        # 1 - beta rounds to 1 for a tiny beta, and the product can underflow
        # on a long schedule; the sampler divides by sqrt(1 - alpha_bar).
        decreasing = np.all(np.diff(alpha_bars) < 0.0)
        if not (decreasing and 0.0 < alpha_bars[-1] and alpha_bars[0] < 1.0):
            raise DomainError("alpha_bars must lie in (0, 1) and strictly decrease")
        for arr in (betas, alpha_bars):
            arr.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", alpha_bars)


@dataclass(frozen=True)
class SamplerOutput:
    """Result of one ancestral-sampling run.

    Attributes:
        samples: Final denoised points, shape (n, input_dim).
        seed: Integer seed that drove the run, or None when the caller
            supplied a generator object.
    """

    samples: np.ndarray
    seed: int | None


def q_sample(x0, t, eps, schedule: NoiseSchedule) -> np.ndarray:
    """Corrupt clean points to timestep t in closed form.

    Returns sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps, with t
    scalar or per-sample.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 shape {x0.shape} does not match eps shape {eps.shape}")
    rows = _timestep_rows(schedule.num_timesteps, t, x0.shape[0])
    abar = schedule.alpha_bars[rows][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def draw_corruption(schedule: NoiseSchedule, x0: np.ndarray, rng: np.random.Generator):
    """Draw (x_t, t, eps) for one loss evaluation.

    Fixed draw order: the timestep vector first, then the noise matrix, so
    two callers holding generators in the same state stay aligned.
    """
    batch = x0.shape[0]
    t = rng.integers(1, schedule.num_timesteps + 1, size=batch)
    eps = rng.standard_normal(x0.shape)
    return q_sample(x0, t, eps, schedule), t, eps


def diffusion_loss(
    model: NoisePredictor,
    x0_batch,
    class_ids,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
):
    """Denoising loss on one batch and its analytic parameter gradient.

    Draws a timestep uniformly in 1..T and a standard-normal noise vector per
    sample, corrupts the batch, and scores the model's noise estimate:
    mean_i ||eps_i - model(x_t_i, t_i, class_i)||^2. Deterministic given the
    generator state.
    """
    x0_batch = np.asarray(x0_batch, dtype=np.float64)
    if x0_batch.ndim != 2 or x0_batch.shape[0] == 0:
        raise DomainError("x0_batch must be a nonempty (batch, dim) array")
    x_t, t, eps = draw_corruption(schedule, x0_batch, rng)
    per_sample, grad = squared_error_backward(model, x_t, eps, t, class_ids)
    return float(per_sample.mean()), grad


def ddpm_sample(
    model: NoisePredictor,
    class_id,
    n: int,
    schedule: NoiseSchedule,
    rng,
) -> SamplerOutput:
    """Draw n points by ancestral sampling from the reverse process.

    Starts at x_T ~ N(0, I) and for t = T..1 applies
    mu = (x_t - (beta_t / sqrt(1 - alpha_bar_t)) * eps_hat) / sqrt(1 - beta_t)
    then adds sqrt(beta_t) * z noise for every step except the final one.

    Checked once on entry: the count, the model's timestep table against
    the schedule, and ``class_id`` in every form :func:`nn.mlp_forward`
    accepts. The T steps then run the forward kernel ``nn._forward``, which
    ``mlp_forward`` wraps, on parameters unpacked once, with one reused
    buffer per hidden layer and the three per-step coefficients
    precomputed as vectors; correctly rounded sqrt and division give the
    same bits as the per-step scalars.

    Args:
        model: Noise predictor; its num_timesteps must cover the schedule.
        class_id: Conditioning class, a per-sample array of n classes, or
            None for unconditional rows.
        n: Number of chains to run.
        schedule: Forward schedule the model was trained against.
        rng: Integer seed or numpy Generator.
    """
    if n < 1:
        raise DomainError("sample count must be at least 1")
    if model.num_timesteps < schedule.num_timesteps:
        raise DomainError(
            "model timestep table is smaller than the schedule horizon"
        )
    views = model.unpack()
    c_select = _row_selection(_class_rows(model, class_id, n), class_id)
    betas, alpha_bars = schedule.betas, schedule.alpha_bars
    eps_scale = betas / np.sqrt(1.0 - alpha_bars)
    keep_scale = np.sqrt(1.0 - betas)
    noise_scale = np.sqrt(betas)
    hidden = [np.empty((n, width)) for width in model.hidden_dims]
    gen, seed = as_generator(rng)
    x = gen.standard_normal((n, model.input_dim))
    for i in range(schedule.num_timesteps - 1, -1, -1):  # i = t - 1
        eps_hat = _forward(views, x, slice(i, i + 1), c_select, hidden)[-1]
        mu = (x - eps_scale[i] * eps_hat) / keep_scale[i]
        if i > 0:
            x = mu + noise_scale[i] * gen.standard_normal((n, model.input_dim))
        else:
            x = mu
    return SamplerOutput(samples=x, seed=seed)
