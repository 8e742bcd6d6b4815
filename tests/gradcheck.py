"""Oracles shared by the tests: central differences and the small random
models they check, the reference ``np.add.at`` backward pass, out-of-place
references for the forward pass and the kernel statistics, per-step
references for the pretraining loop, the sampler, the evaluation's
per-condition sampling and the unlearning loop with its stratified remain
draw, a ``project_away``-based restricted combination, and a
peak-allocation probe."""

import logging
import math
import tracemalloc

import numpy as np
from scipy.spatial.distance import cdist, pdist

from diffunlearn.diffusion import diffusion_loss
from diffunlearn.errors import DegenerateGradientError, DomainError, TrainingDiverged
from diffunlearn.nn import _forward, init_model, mlp_forward
from diffunlearn.projection import inner
from diffunlearn.rngs import as_generator
from diffunlearn.unlearn import StepReport, forgetting_loss, parse_strategy


def finite_diff_grad(loss_fn, params: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a pure function of the parameters.

    Entry i is (loss_fn(params + h e_i) - loss_fn(params - h e_i)) / (2 h).
    """
    if h <= 0:
        raise DomainError("finite-difference step h must be positive")
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    grad = np.empty(params.size)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = loss_fn(bumped)
        bumped[i] = params[i] - h
        down = loss_fn(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def random_model(rng, max_hidden=6):
    """Small random architecture with nonzero tables for gradient checks."""
    input_dim = int(rng.integers(1, 4))
    depth = int(rng.integers(1, 3))
    h0 = int(rng.integers(2, max_hidden))
    hidden = (h0,) + tuple(int(rng.integers(2, max_hidden)) for _ in range(depth - 1))
    model = init_model(
        input_dim=input_dim,
        hidden_dims=hidden,
        num_classes=int(rng.integers(1, 4)),
        num_timesteps=int(rng.integers(1, 5)),
        rng=rng,
    )
    # Embedding tables and biases start at zero; perturb everything so the
    # finite-difference check exercises every parameter block.
    return model.with_params(model.params + 0.1 * rng.standard_normal(model.num_params))


def mean_squared_error(model, x, targets, t, class_ids) -> float:
    """Batch mean of per-sample squared errors, from the forward pass alone."""
    out = mlp_forward(model, x, t, class_ids)
    return float(np.mean(np.sum((out - targets) ** 2, axis=1)))


def add_at_backward(model, acts, targets, t_rows, c_rows, sample_weights):
    """Reference for ``nn.backward_from_activations``: the same layer walk,
    with both embedding tables filled by ``np.add.at``.

    ``np.add.at`` adds each sample's delta into its table row one sample at a
    time, in batch order, starting from the zeroed gradient buffer.
    """
    weights, _, _, _ = model.unpack()
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    delta = 2.0 * w * (acts[-1] - targets)
    grad = np.zeros(model.num_params)
    layout = model.layout
    for k in range(len(weights) - 1, -1, -1):
        grad[layout.weights[k][0]] = (delta.T @ acts[k]).ravel()
        grad[layout.biases[k]] = delta.sum(axis=0)
        if k == 0:
            break
        delta = (delta @ weights[k]) * (1.0 - acts[k] ** 2)
    h0 = model.hidden_dims[0]
    np.add.at(grad[layout.time_table].reshape(model.num_timesteps, h0), t_rows, delta)
    np.add.at(grad[layout.class_table].reshape(model.num_classes + 1, h0), c_rows, delta)
    return grad


def gathered_forward(model, x, t, class_id):
    """Reference for ``nn.forward_activations``: every table term gathered
    row by row and each layer built by chained out-of-place operations.
    Valid inputs only."""
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]
    t_rows = np.broadcast_to(np.asarray(t), (batch,)).astype(np.int64) - 1
    c = model.num_classes if class_id is None else class_id
    c_rows = np.broadcast_to(np.asarray(c), (batch,)).astype(np.int64)
    weights, biases, time_table, class_table = model.unpack()
    acts = [x]
    pre = x @ weights[0].T + biases[0] + time_table[t_rows] + class_table[c_rows]
    acts.append(np.tanh(pre))
    for w, b in zip(weights[1:-1], biases[1:-1]):
        acts.append(np.tanh(acts[-1] @ w.T + b))
    acts.append(acts[-1] @ weights[-1].T + biases[-1])
    return acts, t_rows, c_rows


def reference_pretrain(model, data, schedule, config, rng):
    """Reference for ``train.pretrain``: one checked public call per step.

    Each step takes a ``subset`` minibatch, scores it with
    ``diffusion_loss`` and rebuilds the model with ``with_params``.
    """
    gen, _ = as_generator(rng)
    lr_final = config.lr_final
    history = []
    for step in range(config.steps):
        frac = step / config.steps
        lr = config.lr * (1.0 - frac) + lr_final * frac
        idx = gen.integers(0, len(data), size=config.batch_size)
        batch = data.subset(idx)
        loss, grad = diffusion_loss(model, batch.points, batch.labels, schedule, gen)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at step {step}")
        model = model.with_params(model.params - lr * grad)
        history.append(loss)
    return model, history


def reference_ddpm_sample(model, class_id, n, schedule, rng):
    """Reference for ``diffusion.ddpm_sample``'s samples: one checked
    ``mlp_forward`` per step and the step's coefficients as scalars."""
    gen, _ = as_generator(rng)
    x = gen.standard_normal((n, model.input_dim))
    for t in range(schedule.num_timesteps, 0, -1):
        beta = schedule.betas[t - 1]
        abar = schedule.alpha_bars[t - 1]
        eps_hat = mlp_forward(model, x, t, class_id)
        mu = (x - (beta / np.sqrt(1.0 - abar)) * eps_hat) / np.sqrt(1.0 - beta)
        if t > 1:
            x = mu + np.sqrt(beta) * gen.standard_normal((n, model.input_dim))
        else:
            x = mu
    return x


def serial_ddpm_sample(model, class_id, n, schedule, gen):
    """One condition's chains alone, as ``ddpm_sample`` ran them before the
    lock-step sampler: (n, input_dim) arrays through ``nn._forward``, one
    reused buffer per hidden layer. ``class_id`` is a valid scalar class."""
    views = model.unpack()
    c_select = np.array([class_id])
    betas, alpha_bars = schedule.betas, schedule.alpha_bars
    eps_scale = betas / np.sqrt(1.0 - alpha_bars)
    keep_scale = np.sqrt(1.0 - betas)
    noise_scale = np.sqrt(betas)
    hidden = [np.empty((n, width)) for width in model.hidden_dims]
    x = gen.standard_normal((n, model.input_dim))
    for i in range(schedule.num_timesteps - 1, -1, -1):  # i = t - 1
        eps_hat = _forward(views, x, slice(i, i + 1), c_select, hidden)[-1]
        mu = (x - eps_scale[i] * eps_hat) / keep_scale[i]
        if i > 0:
            x = mu + noise_scale[i] * gen.standard_normal((n, model.input_dim))
        else:
            x = mu
    return x


def reference_full_eval_samples(model, classes, n, schedule, gen):
    """Reference for ``diffusion._sample_classes``: the per-condition
    sampler calls ``full_eval`` made before the lock-step sampler, one
    :func:`serial_ddpm_sample` per class in order on ``gen``."""
    return np.stack([serial_ddpm_sample(model, k, n, schedule, gen) for k in classes])


def reference_unlearn_step(model, forget_batch, remain_batch, schedule, config, rng,
                           iteration=0):
    """Reference for ``unlearn.unlearn_step``: the step as it was before the
    shared helpers, with the update rebuilt by ``with_params``."""
    loss_f, grad_f, raw_mse, truncated = forgetting_loss(
        model, forget_batch.points, forget_batch.labels, schedule,
        config.forget_weight, config.loss_cap, rng,
    )
    loss_r, grad_r = diffusion_loss(
        model, remain_batch.points, remain_batch.labels, schedule, rng
    )
    dot = inner(grad_f, grad_r)
    rule, _ = parse_strategy(config.strategy)
    if rule == "finetune":
        direction = grad_r
    elif rule == "graddiff":
        direction = grad_f + grad_r
    else:
        try:
            direction = reference_restricted_combined(grad_f, grad_r)
        except DegenerateGradientError:
            logging.getLogger("diffunlearn.unlearn").warning(
                "iteration %d: both gradients vanished; applying no-op step",
                iteration,
            )
            direction = np.zeros(model.num_params)
    updated = model.with_params(model.params - config.step_size * direction)
    report = StepReport(
        iteration=iteration, loss_r=loss_r, loss_f=loss_f, raw_forget_mse=raw_mse,
        conflicted=dot < 0.0, dot=dot, truncated_fraction=truncated,
    )
    return updated, report


def reference_stratified_indices(labels, batch, gen):
    """Reference for ``unlearn._stratified_indices``: the per-iteration draw
    as it was, recomputing the classes and every class pool on each call."""
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


def reference_unlearn_run(model, forget_set, remain_set, schedule, config, rng=None):
    """Reference for ``unlearn.unlearn_run``: the loop as it was before the
    check-once rewrite, one ``subset`` pair and one
    :func:`reference_unlearn_step` per iteration."""
    gen, _ = as_generator(config.seed if rng is None else rng)
    _, stratify = parse_strategy(config.strategy)
    reports = []
    for iteration in range(config.iterations):
        f_idx = gen.integers(0, len(forget_set), size=config.batch_forget)
        if stratify:
            r_idx = reference_stratified_indices(
                remain_set.labels, config.batch_remain, gen
            )
        else:
            r_idx = gen.integers(0, len(remain_set), size=config.batch_remain)
        model, report = reference_unlearn_step(
            model, forget_set.subset(f_idx), remain_set.subset(r_idx),
            schedule, config, gen, iteration=iteration,
        )
        if not (
            math.isfinite(report.loss_f)
            and math.isfinite(report.loss_r)
            and np.isfinite(model.params).all()
        ):
            raise TrainingDiverged(f"unlearning diverged at iteration {iteration}")
        reports.append(report)
    return model, reports


def reference_project_away(g, onto):
    """``projection.project_away`` as it was, every inner product its own."""
    norm_sq = inner(onto, onto)
    if norm_sq == 0.0:
        raise DegenerateGradientError("cannot project away from a zero vector")
    out = g - (inner(g, onto) / norm_sq) * onto
    if inner(out, out) < 0.25 * inner(g, g):
        again = out - (inner(out, onto) / norm_sq) * onto
        if inner(again, again) < 0.25 * inner(out, out):
            return np.zeros_like(g)
        out = again
    return out


def reference_restricted_combined(grad_f, grad_r):
    """``restricted_gradient(grad_f, grad_r).combined`` as it was: each
    projection through :func:`reference_project_away`."""
    if math.sqrt(inner(grad_f, grad_f)) == 0.0 and math.sqrt(inner(grad_r, grad_r)) == 0.0:
        raise DegenerateGradientError("both gradients are zero vectors")
    if inner(grad_f, grad_r) < 0.0:
        return reference_project_away(grad_f, grad_r) + reference_project_away(grad_r, grad_f)
    return grad_f.copy() + grad_r.copy()


def full_matrix_mmd_terms(a, b, bandwidth):
    """The three terms of ``full_matrix_mmd`` after canonical ordering:
    (within the first set, within the second, cross)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    first, second = a, b
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        first, second = b, a
    gamma = 1.0 / (2.0 * bandwidth**2)

    def within(x):
        sq = pdist(x, "sqeuclidean")
        m = x.shape[0]
        return 2.0 * float(np.sum(np.exp(-gamma * sq))) / (m * (m - 1))

    cross_sq = cdist(first, second, "sqeuclidean")
    cross = float(np.sum(np.exp(-gamma * cross_sq)))
    cross *= 2.0 / (first.shape[0] * second.shape[0])
    return within(first), within(second), cross


def full_matrix_mmd(a, b, bandwidth):
    """Reference for ``evaluate.mmd``: the same canonical argument order and
    sums, each kernel matrix built out of place and reduced whole."""
    within_first, within_second, cross = full_matrix_mmd_terms(a, b, bandwidth)
    return within_first + within_second - cross


def copied_median_bandwidth(reference):
    """Reference for ``evaluate.median_bandwidth``: the median of a copy."""
    return float(np.median(pdist(np.asarray(reference, dtype=np.float64))))


def peak_allocation(fn, *args):
    """Bytes by which ``fn(*args)`` raised traced memory above its start.

    numpy reports its data buffers to tracemalloc, so this counts arrays.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
