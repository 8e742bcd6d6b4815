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

import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

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


def _check_sets(model: NoisePredictor, schedule: NoiseSchedule, *sets) -> None:
    """The training loops' one entry check, made before any draw.

    Each set is non-empty, its points have ``input_dim`` columns and every
    label lies in 0..num_classes-1; the model's timestep table covers the
    schedule.
    """
    for data in sets:
        if len(data) == 0:
            raise DomainError("training set is empty")
        if data.points.shape[1] != model.input_dim:
            raise ShapeError(
                f"points have {data.points.shape[1]} columns, "
                f"model takes {model.input_dim}"
            )
        if data.labels.max() >= model.num_classes:
            raise DomainError(f"class ids must lie in 0..{model.num_classes - 1}")
    if model.num_timesteps < schedule.num_timesteps:
        raise DomainError("model timestep table is smaller than the schedule horizon")


def _corrupted_pass(views, schedule: NoiseSchedule, points, labels, gen, hidden=None):
    """One minibatch's corruption draws, forward pass and per-sample errors.

    ``views`` is an unpacked parameter vector and ``points``/``labels`` a
    minibatch of a set :func:`_check_sets` passed; nothing is checked.
    Draws as :func:`diffusion_loss` does and runs the ``nn._forward``
    kernel, into the caller's ``hidden`` buffers when given. Returns
    (per_sample, backward_args): per_sample[i] = ||out_i - eps_i||^2, and
    backward_args = (acts, eps, t_rows, c_rows), the arguments
    ``nn._backward`` takes between its ``layout`` and its sample weights.
    """
    x_t, t, eps = draw_corruption(schedule, points, gen)
    t_rows = t - 1
    acts = _forward(views, x_t, t_rows, labels, hidden)
    per_sample = ((acts[-1] - eps) ** 2).sum(axis=1)
    return per_sample, (acts, eps, t_rows, labels)


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
    (samples,) = _sample(model, c_select, n, schedule, gen)
    return SamplerOutput(samples=samples, seed=seed)


def _sample_classes(model: NoisePredictor, classes, n: int, schedule: NoiseSchedule, gen):
    """n samples of each class in ``classes``, (C, n, input_dim).

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
# which pre-draws nothing. Groups run on worker threads only when a whole
# group's noise, group * T * n rows, fits this budget.
_NOISE_ROWS = 100 * _ROWS


def _sampler_workers(environ, cpus: int) -> int:
    """Threads the sampler may run condition groups on: ``cpus`` when BLAS
    runs one thread, else 1.

    BLAS's thread count is read as OpenBLAS reads it when it loads: the
    first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS
    that holds a positive integer, or one thread per CPU when none does.
    Workers on top of a multi-threaded BLAS contend for its cores: two of
    them over a two-thread BLAS ran the 5 x 500 sampler at 0.94x of serial
    and 5 x 1,500 at 0.83x.
    """
    threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    return cpus if threads == 1 else 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Read once at import, as BLAS reads its thread count once when it loads.
_WORKERS = _sampler_workers(os.environ, _usable_cpus())


def _sample(model: NoisePredictor, c_select, n: int, schedule: NoiseSchedule, gen):
    """Run C conditions' chains of n samples each; returns (C, n, input_dim)
    samples.

    ``c_select`` holds C class-table row selections, shape (C, 1) for one
    class per condition or (1, n) for a class per sample; its rows must be
    checked. Checked here: the count and the model's timestep table. The
    three per-step coefficients are precomputed as vectors; correctly
    rounded sqrt and division give the same bits as the per-step scalars.
    Conditions run in lock-step groups of at most _ROWS rows (one condition
    when n exceeds it) and _NOISE_ROWS pre-drawn noise rows, each through
    :func:`_chains` with its own hidden buffers and :func:`_noise`.

    One loop runs the groups on ``workers`` threads: ``min(groups,
    _WORKERS)`` when that is more than one and a whole group's noise fits
    _NOISE_ROWS, else one, which runs each group here as it is reached and
    starts no thread. Only this thread draws, each group's noise before the
    group starts, so the stream is the serial one however it is cut. At
    most ``workers`` groups are in flight, joined in group order, so the
    samples, the generator's final state and the first SamplingDiverged
    never depend on ``workers``. Memory in flight: ``workers`` groups'
    buffers and noise.
    """
    if n < 1:
        raise DomainError("sample count must be at least 1")
    if model.num_timesteps < schedule.num_timesteps:
        raise DomainError("model timestep table is smaller than the schedule horizon")
    coefficients = (
        schedule.betas / schedule.sqrt_one_minus_alpha_bars,
        np.sqrt(1.0 - schedule.betas),
        np.sqrt(schedule.betas),
    )
    views = model.unpack()
    steps = schedule.num_timesteps
    group = min(len(c_select), max(1, _ROWS // n), 1 + _NOISE_ROWS // (steps * n))
    selects = [c_select[s : s + group] for s in range(0, len(c_select), group)]
    workers = min(len(selects), _WORKERS)
    if workers > 1 and group * steps * n <= _NOISE_ROWS:
        # Imported here, like scipy in evaluate: loading concurrent.futures
        # takes ~3 ms that no serial command needs.
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(workers)
    else:
        workers, executor = 1, nullcontext(SimpleNamespace(submit=_now))
    parts, pending = [], deque()
    with executor as pool:
        for select in selects:
            if len(pending) == workers:
                parts.append(pending.popleft().result())
            # Made in the call, so no name keeps a finished group's arrays.
            # Workers' own buffers raised eval-large's peak RSS 0.7-3 MB.
            pending.append(pool.submit(
                _chains, views, select, coefficients,
                _noise(gen, len(select), (steps, n, model.input_dim), workers > 1),
                [np.empty((len(select), n, width)) for width in model.hidden_dims],
            ))
        parts.extend(future.result() for future in pending)
    return np.concatenate(parts)


def _now(fn, *args):
    """The one-worker ``submit``: runs the call now; returns a done stand-in Future."""
    value = fn(*args)
    return SimpleNamespace(result=lambda: value)


def _noise(gen, count: int, shape, whole: bool):
    """``draw(k)`` for one group: its ``count`` conditions' (count, n,
    input_dim) normals at stream position k = T - t, x_T at k = 0.

    ``count`` ddpm_sample calls in a row draw each condition's (T, n,
    input_dim) block in turn, which is one standard_normal of the stacked
    shape. ``whole`` draws every block now; otherwise the last condition
    draws its rows one draw(k) at a time, as it would alone, so k must run
    0, 1, ..., T - 1 and a lone condition pre-draws nothing.
    """
    noise = gen.standard_normal((count - (not whole), *shape))
    if whole:
        return lambda k: noise[:, k]
    return lambda k: np.concatenate((noise[:, k], gen.standard_normal((1, *shape[1:]))))


def _chains(views, c_select, coefficients, draw, hidden) -> np.ndarray:
    """The reverse-process loop over C stacked chains, nothing checked.

    Every array is stacked (C, n, width): each layer is one ``np.matmul``
    over the stack, whose every slice is the same gemm call a lone
    condition's ``@`` makes, so each condition gets the bits it would get
    alone (flattening to (C * n, width) does not keep them). The bias and
    timestep rows broadcast over the stack and a condition's class row
    broadcasts as (C, 1, h0). ``draw`` is the group's :func:`_noise` and
    ``hidden`` one (C, n, width) buffer per hidden layer. A non-finite value
    after any step raises SamplingDiverged naming the first such
    condition's class rows (num_classes is the unconditional row) and t.
    """
    eps_scale, keep_scale, noise_scale = coefficients
    steps = eps_scale.size
    x = draw(0)
    for i in range(steps - 1, -1, -1):  # i = t - 1
        eps_hat = _forward(views, x, slice(i, i + 1), c_select, hidden)[-1]
        x = (x - eps_scale[i] * eps_hat) / keep_scale[i]
        if i > 0:
            x += noise_scale[i] * draw(steps - i)
        if not np.isfinite(x).all():
            first = np.isfinite(x).reshape(len(x), -1).all(axis=1).argmin()
            classes = ", ".join(map(str, np.unique(c_select[first])))
            raise SamplingDiverged(
                f"sampling produced a non-finite value for class {classes} "
                f"at timestep {i + 1}"
            )
    return x
