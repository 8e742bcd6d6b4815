"""Gradient oracles shared by the gradient tests: central differences and the
reference ``np.add.at`` backward pass."""

import numpy as np

from diffunlearn.errors import DomainError
from diffunlearn.nn import _layer_offsets, mlp_forward


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
    offsets = _layer_offsets(model)
    for k in range(len(model.layer_dims) - 2, -1, -1):
        w_off, b_off, w_shape = offsets[k]
        grad[w_off : w_off + w_shape[0] * w_shape[1]] = (delta.T @ acts[k]).ravel()
        grad[b_off : b_off + w_shape[0]] = delta.sum(axis=0)
        if k == 0:
            break
        delta = (delta @ weights[k]) * (1.0 - acts[k] ** 2)
    h0 = model.hidden_dims[0]
    t_off = offsets[-1][0]
    c_off = t_off + model.num_timesteps * h0
    np.add.at(grad[t_off:c_off].reshape(model.num_timesteps, h0), t_rows, delta)
    np.add.at(grad[c_off:].reshape(model.num_classes + 1, h0), c_rows, delta)
    return grad
