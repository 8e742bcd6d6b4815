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
from .nn import NoisePredictor, mlp_forward, squared_error_backward
from .rngs import as_generator


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance schedule of the forward diffusion process.

    Attributes:
        num_timesteps: Largest timestep T.
        betas: Per-step variances beta_t for t = 1..T, each in (0, 1).
        alpha_bars: Cumulative products of (1 - beta_j) up to each t,
            strictly decreasing, each in (0, 1).
    """

    num_timesteps: int
    betas: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64).reshape(-1)
        abars = np.asarray(self.alpha_bars, dtype=np.float64).reshape(-1)
        if self.num_timesteps < 1:
            raise DomainError("schedule needs at least one timestep")
        if betas.shape != (self.num_timesteps,) or abars.shape != (self.num_timesteps,):
            raise ShapeError("betas and alpha_bars must have one entry per timestep")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise DomainError("every beta must lie strictly inside (0, 1)")
        if np.any(abars <= 0.0) or np.any(abars >= 1.0):
            raise DomainError("every alpha_bar must lie strictly inside (0, 1)")
        if np.any(np.diff(abars) >= 0.0):
            raise DomainError("alpha_bars must be strictly decreasing")
        for arr in (betas, abars):
            arr.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", abars)

    def beta(self, t: int) -> float:
        """beta_t for a 1-based timestep."""
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        """alpha_bar_t for a 1-based timestep."""
        return float(self.alpha_bars[t - 1])


@dataclass(frozen=True)
class SamplerOutput:
    """Result of one ancestral-sampling run.

    Attributes:
        samples: Final denoised points, shape (n, input_dim).
        trajectory: Intermediate states [x_T, ..., x_0] when requested,
            otherwise None.
        seed: Integer seed that drove the run, or None when the caller
            supplied a generator object.
    """

    samples: np.ndarray
    trajectory: list | None
    seed: int | None


def make_schedule(num_timesteps: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear beta schedule from beta_min to beta_max inclusive.

    Example: T=4 over [0.1, 0.4] gives betas (0.1, 0.2, 0.3, 0.4) and
    alpha_bars (0.9, 0.72, 0.504, 0.3024).
    """
    if num_timesteps < 1:
        raise DomainError("schedule needs at least one timestep")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise DomainError("need 0 < beta_min <= beta_max < 1")
    if num_timesteps == 1:
        betas = np.array([beta_min])
    else:
        betas = np.linspace(beta_min, beta_max, num_timesteps)
    alpha_bars = np.cumprod(1.0 - betas)
    return NoiseSchedule(num_timesteps=num_timesteps, betas=betas, alpha_bars=alpha_bars)


def _per_sample_t(schedule: NoiseSchedule, t, batch: int) -> np.ndarray:
    t = np.asarray(t)
    if t.ndim == 0:
        t = np.full(batch, int(t))
    if t.shape != (batch,):
        raise ShapeError(f"timesteps have shape {t.shape}, expected ({batch},)")
    t = t.astype(np.int64)
    if np.any(t < 1) or np.any(t > schedule.num_timesteps):
        raise DomainError(f"timesteps must lie in 1..{schedule.num_timesteps}")
    return t


def q_sample(x0, t, eps, schedule: NoiseSchedule) -> np.ndarray:
    """Corrupt clean points to timestep t in closed form.

    Returns sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps, with t
    scalar or per-sample.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 shape {x0.shape} does not match eps shape {eps.shape}")
    t = _per_sample_t(schedule, t, x0.shape[0])
    abar = schedule.alpha_bars[t - 1][:, None]
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
    keep_trajectory: bool = False,
) -> SamplerOutput:
    """Draw n points by ancestral sampling from the reverse process.

    Starts at x_T ~ N(0, I) and for t = T..1 applies
    mu = (x_t - (beta_t / sqrt(1 - alpha_bar_t)) * eps_hat) / sqrt(1 - beta_t)
    then adds sqrt(beta_t) * z noise for every step except the final one.

    Args:
        model: Noise predictor; its num_timesteps must cover the schedule.
        class_id: Conditioning class, or None for unconditional rows.
        n: Number of chains to run.
        schedule: Forward schedule the model was trained against.
        rng: Integer seed or numpy Generator.
        keep_trajectory: Record every intermediate x_t (memory scales with T).
    """
    if n < 1:
        raise DomainError("sample count must be at least 1")
    if model.num_timesteps < schedule.num_timesteps:
        raise DomainError(
            "model timestep table is smaller than the schedule horizon"
        )
    gen, seed = as_generator(rng)
    x = gen.standard_normal((n, model.input_dim))
    trajectory = [x.copy()] if keep_trajectory else None
    for t in range(schedule.num_timesteps, 0, -1):
        beta = schedule.beta(t)
        abar = schedule.alpha_bar(t)
        eps_hat = mlp_forward(model, x, t, class_id)
        mu = (x - (beta / np.sqrt(1.0 - abar)) * eps_hat) / np.sqrt(1.0 - beta)
        if t > 1:
            x = mu + np.sqrt(beta) * gen.standard_normal((n, model.input_dim))
        else:
            x = mu
        if keep_trajectory:
            trajectory.append(x.copy())
    return SamplerOutput(samples=x, trajectory=trajectory, seed=seed)
