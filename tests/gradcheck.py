"""Oracles shared by the tests: central differences, the reference
``np.add.at`` backward pass, out-of-place references for the forward pass and
the kernel statistics, per-step references for the pretraining loop and the
sampler, and a peak-allocation probe."""

import tracemalloc

import numpy as np
from scipy.spatial.distance import cdist, pdist

from diffunlearn.diffusion import diffusion_loss
from diffunlearn.errors import DomainError, TrainingDiverged
from diffunlearn.nn import mlp_forward
from diffunlearn.rngs import as_generator


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
    lr_final = config.lr if config.lr_final is None else config.lr_final
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
