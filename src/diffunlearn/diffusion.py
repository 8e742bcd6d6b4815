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

from .errors import DomainError, SamplingDiverged, ShapeError
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
    t = 1..T, from beta_min to beta_max inclusive), ``alpha_bars`` (their
    cumulative products of 1 - beta), ``sqrt_alpha_bars`` and
    ``sqrt_one_minus_alpha_bars`` are derived once and read-only. A correctly
    rounded sqrt gives the same bits before or after a gather, so indexing
    the last two equals taking the sqrt of gathered ``alpha_bars``.

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
        derived = {
            "betas": betas,
            "alpha_bars": alpha_bars,
            "sqrt_alpha_bars": np.sqrt(alpha_bars),
            "sqrt_one_minus_alpha_bars": np.sqrt(1.0 - alpha_bars),
        }
        for name, arr in derived.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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
    return _corrupt(schedule, x0, rows, eps)


def _corrupt(schedule: NoiseSchedule, x0, rows, eps) -> np.ndarray:
    """q_sample's arithmetic on 0-based rows, nothing checked."""
    return (
        schedule.sqrt_alpha_bars[rows][:, None] * x0
        + schedule.sqrt_one_minus_alpha_bars[rows][:, None] * eps
    )


def draw_corruption(schedule: NoiseSchedule, x0: np.ndarray, rng: np.random.Generator):
    """Draw (x_t, t, eps) for one loss evaluation.

    Fixed draw order: the timestep vector first, then the noise matrix, so
    two callers holding generators in the same state stay aligned. The
    drawn timesteps lie in 1..T by construction and are not re-checked;
    ``x0`` must be a float64 (batch, dim) array.
    """
    batch = x0.shape[0]
    t = rng.integers(1, schedule.num_timesteps + 1, size=batch)
    eps = rng.standard_normal(x0.shape)
    return _corrupt(schedule, x0, t - 1, eps), t, eps


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

    Checked once on entry: ``class_id`` in every form :func:`nn.mlp_forward`
    accepts, then the count and the model's timestep table (see
    :func:`_sample`). This is the one-condition case of the lock-step
    sampler: a scalar class or None is a one-row selection that broadcasts,
    a per-sample array a (1, n) row selection. It pre-draws nothing, so its
    draws and the generator's state afterwards are those of a per-step loop.

    Args:
        model: Noise predictor; its num_timesteps must cover the schedule.
        class_id: Conditioning class, a per-sample array of n classes, or
            None for unconditional rows.
        n: Number of chains to run.
        schedule: Forward schedule the model was trained against.
        rng: Integer seed or numpy Generator.
    """
    rows = _class_rows(model, class_id, n)
    c_select = _row_selection(rows, class_id).reshape(1, -1)
    gen, seed = as_generator(rng)
    samples = _sample(model, c_select, n, schedule, gen)[0]
    return SamplerOutput(samples=samples, seed=seed)


def _sample_classes(model: NoisePredictor, classes, n: int, schedule: NoiseSchedule, gen):
    """n samples of each class in ``classes``, as a (C, n, input_dim) array.

    The samples and the generator's state afterwards equal those of one
    :func:`ddpm_sample` call per class, in order, on ``gen``. Each class is
    checked on its own, as ``ddpm_sample`` checks a scalar ``class_id``: a
    bool or a fractional value raises DomainError, an integral float such
    as 2.0 is class 2.
    """
    rows = np.concatenate([_class_rows(model, k, 1) for k in classes])
    return _sample(model, rows[:, None], n, schedule, gen)


# Rows one lock-step group of chains may stack: conditions of n chains each
# are grouped max(1, _ROWS // n) at a time. A larger stack's buffers overflow
# the cache; at 1,500 rows per condition, all five stacked ran 11% slower
# than one at a time.
_ROWS = 1024
# Pre-drawn noise rows one group may hold, (group - 1) * T * n of them. At
# the default T = 100 the row budget binds first; at a larger T groups
# shrink so that the noise stays bounded, down to one condition per group,
# which pre-draws nothing.
_NOISE_ROWS = 100 * _ROWS


def _sample(model: NoisePredictor, c_select, n: int, schedule: NoiseSchedule, gen):
    """Run C conditions' chains of n samples each; returns (C, n, input_dim).

    ``c_select`` holds C class-table row selections, shape (C, 1) for one
    class per condition or (1, n) for a class per sample; its rows must be
    checked. Checked here: the count and the model's timestep table. The
    parameters are unpacked once and the three per-step coefficients are
    precomputed as vectors; correctly rounded sqrt and division give the
    same bits as the per-step scalars. Conditions run in lock-step groups
    of at most _ROWS rows (one condition when n exceeds it) and at most
    _NOISE_ROWS pre-drawn noise rows, each group through :func:`_chains`,
    with one buffer per hidden layer sized for the largest group and reused
    by every group and step. How conditions are grouped changes no bytes:
    the draws form one stream however it is cut.
    """
    if n < 1:
        raise DomainError("sample count must be at least 1")
    if model.num_timesteps < schedule.num_timesteps:
        raise DomainError(
            "model timestep table is smaller than the schedule horizon"
        )
    coefficients = (
        schedule.betas / schedule.sqrt_one_minus_alpha_bars,
        np.sqrt(1.0 - schedule.betas),
        np.sqrt(schedule.betas),
    )
    views = model.unpack()
    steps = schedule.num_timesteps
    group = min(len(c_select), max(1, _ROWS // n), 1 + _NOISE_ROWS // (steps * n))
    hidden = [np.empty((group, n, width)) for width in model.hidden_dims]
    parts = []
    for start in range(0, len(c_select), group):
        select = c_select[start : start + group]
        buffers = [buffer[: len(select)] for buffer in hidden]
        parts.append(_chains(views, select, coefficients, gen, buffers))
    return np.concatenate(parts)


def _chains(views, c_select, coefficients, gen, hidden) -> np.ndarray:
    """The reverse-process loop over C stacked chains, nothing checked.

    Every array is stacked (C, n, width): each layer is one ``np.matmul``
    over the stack, whose every slice is the same gemm call a lone
    condition's ``@`` makes, so each condition gets the bits it would get
    alone (flattening to (C * n, width) does not keep them). The bias and
    timestep rows broadcast over the stack and a condition's class row
    broadcasts as (C, 1, h0).

    Draw order: C ``ddpm_sample`` calls in a row draw each condition's T
    (n, input_dim) normals in turn, x_T first. One standard_normal of shape
    (C - 1, T, n, input_dim) is the same stream, so the first C - 1
    conditions' noise is drawn up front and the last condition draws step
    by step, as it would alone; a lone condition pre-draws nothing.
    ``hidden`` holds one (C, n, width) buffer per hidden layer. A non-finite
    value after any step raises SamplingDiverged naming the first such
    condition's class rows (num_classes is the unconditional row) and t.
    """
    eps_scale, keep_scale, noise_scale = coefficients
    steps = eps_scale.size
    count, n, _ = hidden[0].shape
    width = views[0][0].shape[1]
    earlier = gen.standard_normal((count - 1, steps, n, width))
    x = np.empty((count, n, width))
    x[:-1] = earlier[:, 0]
    x[-1] = gen.standard_normal((n, width))
    for i in range(steps - 1, -1, -1):  # i = t - 1
        eps_hat = _forward(views, x, slice(i, i + 1), c_select, hidden)[-1]
        x = (x - eps_scale[i] * eps_hat) / keep_scale[i]
        if i > 0:
            x[:-1] += noise_scale[i] * earlier[:, steps - i]
            x[-1] += noise_scale[i] * gen.standard_normal((n, width))
        if not np.isfinite(x).all():
            first = np.isfinite(x).reshape(count, -1).all(axis=1).argmin()
            classes = ", ".join(map(str, np.unique(c_select[first])))
            raise SamplingDiverged(
                f"sampling produced a non-finite value for class {classes} "
                f"at timestep {i + 1}"
            )
    return x
