"""Central-difference gradient oracle shared by the gradient tests."""

import numpy as np

from diffunlearn.errors import DomainError
from diffunlearn.nn import mlp_forward


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
