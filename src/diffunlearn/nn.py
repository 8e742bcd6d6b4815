"""Noise-prediction MLP with hand-written reverse-mode gradients.

The model is a plain tanh MLP over float64 numpy arrays. Conditioning on the
timestep and the class label is done through two learned embedding tables
whose rows are added to the first hidden pre-activation; both tables therefore
have embedding width equal to the first hidden layer. A dedicated extra row in
the class table serves as the unconditional ("no class") embedding.

All parameters live in one flat float64 vector with a fixed canonical layout::

    layer 0 weights (row-major, shape (h0, input_dim)), layer 0 biases (h0,),
    layer 1 weights (h1, h0), layer 1 biases (h1,),
    ...,
    output weights (input_dim, h_last), output biases (input_dim,),
    timestep embedding table (num_timesteps, h0) row-major,
    class embedding table (num_classes + 1, h0) row-major.

The final class-table row is the unconditional embedding. Checkpoints store
this vector verbatim, so the layout is part of the public contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class NoisePredictor:
    """Immutable snapshot of the noise-prediction network.

    Attributes:
        input_dim: Dimension of the data points (2 for the toy mixture).
        hidden_dims: Widths of the hidden tanh layers, at least one.
        num_classes: Number of conditioning classes (excluding the
            unconditional row).
        num_timesteps: Size of the timestep embedding table; forward passes
            accept timesteps 1..num_timesteps.
        time_embed_dim: Width of the timestep embedding, must equal
            hidden_dims[0] because rows are added to the first pre-activation.
        class_embed_dim: Width of the class embedding, same constraint.
        params: Flat float64 parameter vector in the canonical layout.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    num_timesteps: int
    time_embed_dim: int
    class_embed_dim: int
    params: np.ndarray

    def __post_init__(self):
        hidden = tuple(int(h) for h in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", hidden)
        if self.input_dim < 1 or self.num_classes < 1 or self.num_timesteps < 1:
            raise DomainError("input_dim, num_classes and num_timesteps must be >= 1")
        if len(hidden) < 1 or any(h < 1 for h in hidden):
            raise DomainError("hidden_dims must name at least one positive width")
        if self.time_embed_dim != hidden[0] or self.class_embed_dim != hidden[0]:
            raise DomainError(
                "embedding widths must equal the first hidden width; embeddings "
                "are added to the first pre-activation"
            )
        params = np.asarray(self.params, dtype=np.float64).reshape(-1).copy()
        expected = param_count(
            self.input_dim, hidden, self.num_classes, self.num_timesteps
        )
        if params.size != expected:
            raise ShapeError(
                f"params has {params.size} entries, architecture needs {expected}"
            )
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_dims, self.input_dim]

    @property
    def num_params(self) -> int:
        return self.params.size

    def with_params(self, params: np.ndarray) -> "NoisePredictor":
        """Return a copy of this model with a replacement parameter vector."""
        return replace(self, params=params)

    def unpack(self):
        """Split ``params`` into weight/bias views plus the two tables.

        Returns (weights, biases, time_table, class_table); all are read-only
        views into the flat vector, never copies.
        """
        dims = self.layer_dims
        weights, biases = [], []
        offset = 0
        p = self.params
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(p[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            biases.append(p[offset : offset + fan_out])
            offset += fan_out
        h0 = self.hidden_dims[0]
        time_table = p[offset : offset + self.num_timesteps * h0].reshape(
            self.num_timesteps, h0
        )
        offset += self.num_timesteps * h0
        class_table = p[offset:].reshape(self.num_classes + 1, h0)
        return weights, biases, time_table, class_table


def param_count(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    num_classes: int,
    num_timesteps: int,
) -> int:
    """Number of parameters for the given architecture."""
    dims = [input_dim, *hidden_dims, input_dim]
    n = sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))
    h0 = hidden_dims[0]
    return n + num_timesteps * h0 + (num_classes + 1) * h0


def init_model(
    input_dim: int,
    hidden_dims,
    num_classes: int,
    num_timesteps: int,
    rng: np.random.Generator,
    weight_scale: float | None = None,
) -> NoisePredictor:
    """Create a model with 1/sqrt(fan_in)-scaled Gaussian weights.

    Biases and both embedding tables start at zero, so a freshly initialized
    model is already a valid (if useless) predictor. Deterministic per rng.
    """
    hidden_dims = tuple(int(h) for h in hidden_dims)
    dims = [input_dim, *hidden_dims, input_dim]
    chunks = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = weight_scale if weight_scale is not None else 1.0 / np.sqrt(fan_in)
        chunks.append(rng.standard_normal(fan_out * fan_in) * scale)
        chunks.append(np.zeros(fan_out))
    h0 = hidden_dims[0]
    chunks.append(np.zeros(num_timesteps * h0))
    chunks.append(np.zeros((num_classes + 1) * h0))
    return NoisePredictor(
        input_dim=input_dim,
        hidden_dims=hidden_dims,
        num_classes=num_classes,
        num_timesteps=num_timesteps,
        time_embed_dim=h0,
        class_embed_dim=h0,
        params=np.concatenate(chunks),
    )


def _timestep_rows(model: NoisePredictor, t, batch: int) -> np.ndarray:
    t = np.asarray(t)
    if t.ndim == 0:
        t = np.full(batch, int(t))
    if t.shape != (batch,):
        raise ShapeError(f"timesteps have shape {t.shape}, expected ({batch},)")
    t = t.astype(np.int64)
    if np.any(t < 1) or np.any(t > model.num_timesteps):
        raise DomainError(
            f"timesteps must lie in 1..{model.num_timesteps}"
        )
    return t - 1


def _class_rows(model: NoisePredictor, class_id, batch: int) -> np.ndarray:
    if class_id is None:
        return np.full(batch, model.num_classes, dtype=np.int64)
    c = np.asarray(class_id)
    if c.ndim == 0:
        c = np.full(batch, int(c))
    if c.shape != (batch,):
        raise ShapeError(f"class ids have shape {c.shape}, expected ({batch},)")
    c = c.astype(np.int64)
    if np.any(c < 0) or np.any(c >= model.num_classes):
        raise DomainError(f"class ids must lie in 0..{model.num_classes - 1}")
    return c


def forward_activations(model: NoisePredictor, x, t, class_id):
    """Run the forward pass and keep every activation.

    Returns (activations, t_rows, c_rows) where activations[0] is the input,
    activations[k] the k-th hidden tanh output and activations[-1] the linear
    network output. Used by the backward pass; most callers want
    :func:`mlp_forward`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, expected (batch, {model.input_dim})"
        )
    batch = x.shape[0]
    t_rows = _timestep_rows(model, t, batch)
    c_rows = _class_rows(model, class_id, batch)
    weights, biases, time_table, class_table = model.unpack()

    acts = [x]
    pre = x @ weights[0].T + biases[0] + time_table[t_rows] + class_table[c_rows]
    acts.append(np.tanh(pre))
    for w, b in zip(weights[1:-1], biases[1:-1]):
        acts.append(np.tanh(acts[-1] @ w.T + b))
    acts.append(acts[-1] @ weights[-1].T + biases[-1])
    return acts, t_rows, c_rows


def mlp_forward(model: NoisePredictor, x_t, t, class_id=None) -> np.ndarray:
    """Predict the noise component of ``x_t``.

    Args:
        model: Network snapshot.
        x_t: Corrupted points, shape (batch, input_dim).
        t: Timestep in 1..num_timesteps, scalar or per-sample array.
        class_id: Conditioning class in 0..num_classes-1, a per-sample array,
            or None for the unconditional embedding row.

    Returns:
        Predicted noise, shape (batch, input_dim).
    """
    acts, _, _ = forward_activations(model, x_t, t, class_id)
    return acts[-1]


def backward_from_activations(
    model: NoisePredictor, acts, targets, t_rows, c_rows, sample_weights
) -> np.ndarray:
    """Gradient of sum_i w_i * ||out_i - target_i||^2 w.r.t. ``params``.

    ``acts`` must come from :func:`forward_activations` on the same model.
    The reduction order is fixed, so results are bit-reproducible.
    """
    weights, _, _, _ = model.unpack()
    out = acts[-1]
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    d_out = 2.0 * w * (out - targets)

    grad = np.zeros(model.num_params)
    offsets = _layer_offsets(model)

    # Walk layers from the output back to the input; after the loop `delta`
    # holds the gradient at the first hidden pre-activation, which is exactly
    # what the embedding tables receive.
    delta = d_out
    for k in range(len(model.layer_dims) - 2, -1, -1):
        a_prev = acts[k]
        w_off, b_off, w_shape = offsets[k]
        grad[w_off : w_off + w_shape[0] * w_shape[1]] = (delta.T @ a_prev).ravel()
        grad[b_off : b_off + w_shape[0]] = delta.sum(axis=0)
        if k == 0:
            break
        delta = (delta @ weights[k]) * (1.0 - acts[k] ** 2)

    h0 = model.hidden_dims[0]
    t_off = offsets[-1][0]
    g_time = grad[t_off : t_off + model.num_timesteps * h0].reshape(
        model.num_timesteps, h0
    )
    g_class = grad[t_off + model.num_timesteps * h0 :].reshape(
        model.num_classes + 1, h0
    )
    np.add.at(g_time, t_rows, delta)
    np.add.at(g_class, c_rows, delta)
    return grad


def _layer_offsets(model: NoisePredictor):
    """Offsets of each layer's weight/bias block plus the table block.

    Returns a list with one (weight_offset, bias_offset, weight_shape) per
    layer, terminated by a ((table_offset,),) entry for the embedding tables.
    """
    dims = model.layer_dims
    offsets = []
    off = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        offsets.append((off, off + fan_out * fan_in, (fan_out, fan_in)))
        off += fan_out * fan_in + fan_out
    offsets.append((off,))
    return offsets


def squared_error_backward(
    model: NoisePredictor, x, targets, t, class_ids, sample_weights=None
):
    """Per-sample squared errors and the gradient of their weighted sum.

    Args:
        model: Network snapshot.
        x: Inputs, shape (batch, input_dim).
        targets: Regression targets, same shape.
        t: Per-sample timesteps (or scalar).
        class_ids: Per-sample class ids (or scalar / None).
        sample_weights: Weight w_i on each sample's squared error; defaults
            to 1/batch so the objective is the batch mean.

    Returns:
        (per_sample, grad): per_sample[i] = ||out_i - target_i||^2 and grad
        is d(sum_i w_i per_sample[i])/d(params), aligned with model.params.
    """
    targets = np.asarray(targets, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if targets.shape != x.shape:
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch shape {x.shape}"
        )
    acts, t_rows, c_rows = forward_activations(model, x, t, class_ids)
    per_sample = ((acts[-1] - targets) ** 2).sum(axis=1)
    if sample_weights is None:
        sample_weights = np.full(x.shape[0], 1.0 / x.shape[0])
    grad = backward_from_activations(
        model, acts, targets, t_rows, c_rows, sample_weights
    )
    return per_sample, grad

