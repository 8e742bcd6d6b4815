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

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
        params: Flat float64 parameter vector in the canonical layout.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    num_timesteps: int
    params: np.ndarray

    def __post_init__(self):
        hidden = tuple(int(h) for h in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", hidden)
        if self.input_dim < 1 or self.num_classes < 1 or self.num_timesteps < 1:
            raise DomainError("input_dim, num_classes and num_timesteps must be >= 1")
        if len(hidden) < 1 or any(h < 1 for h in hidden):
            raise DomainError("hidden_dims must name at least one positive width")
        expected = param_count(
            self.input_dim, hidden, self.num_classes, self.num_timesteps
        )
        object.__setattr__(self, "params", _frozen_params(self.params, expected))

    @property
    def num_params(self) -> int:
        return self.params.size

    @property
    def layout(self) -> "ParamLayout":
        return _layout(
            self.input_dim, self.hidden_dims, self.num_classes, self.num_timesteps
        )

    def with_params(self, params: np.ndarray) -> "NoisePredictor":
        """Return a copy of this model with a replacement parameter vector.

        The architecture was validated when this model was built, so only
        the new vector is checked and frozen; the model keeps no reference
        to the caller's array.
        """
        new = object.__new__(type(self))
        new.__dict__.update(
            self.__dict__, params=_frozen_params(params, self.params.size)
        )
        return new

    def unpack(self):
        """Split ``params`` into weight/bias views plus the two tables.

        Returns (weights, biases, time_table, class_table); all are read-only
        views into the flat vector, never copies.
        """
        return _unpack(self.layout, self.params)


def _frozen_params(params, size: int) -> np.ndarray:
    """A read-only flat float64 copy of ``params``, which must hold ``size``."""
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    if params.size != size:
        raise ShapeError(f"params has {params.size} entries, architecture needs {size}")
    params = params.copy()
    params.flags.writeable = False
    return params


class ParamLayout(NamedTuple):
    """Where each block of the canonical layout sits in the flat vector.

    ``weights`` holds one (slice, (fan_out, fan_in)) per layer and ``biases``
    one slice per layer, input layer first; the two tables are slices.
    ``table_index`` is a read-only (rows, h0) array whose row r holds the
    flat positions r*h0 .. r*h0 + h0 - 1, enough rows for either table: the
    embedding-gradient scatter gathers its bincount positions from it.
    """

    weights: tuple
    biases: tuple
    time_table: slice
    class_table: slice
    table_index: np.ndarray


@lru_cache(maxsize=64)
def _layout(input_dim, hidden_dims, num_classes, num_timesteps) -> ParamLayout:
    """The layout of one architecture, computed once and then reused; the
    class table's end is the parameter count."""
    dims = [input_dim, *hidden_dims, input_dim]
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append((slice(offset, offset + fan_out * fan_in), (fan_out, fan_in)))
        offset += fan_out * fan_in
        biases.append(slice(offset, offset + fan_out))
        offset += fan_out
    h0 = hidden_dims[0]
    time_table = slice(offset, offset + num_timesteps * h0)
    class_table = slice(time_table.stop, time_table.stop + (num_classes + 1) * h0)
    table_index = np.arange(max(num_timesteps, num_classes + 1) * h0).reshape(-1, h0)
    table_index.flags.writeable = False
    return ParamLayout(
        tuple(weights), tuple(biases), time_table, class_table, table_index
    )


def _unpack(layout: ParamLayout, params: np.ndarray):
    """(weights, biases, time_table, class_table) as views into ``params``,
    which must be a flat vector in ``layout``; views of a writable vector
    are writable."""
    h0 = layout.weights[0][1][0]
    weights = [params[block].reshape(shape) for block, shape in layout.weights]
    biases = [params[block] for block in layout.biases]
    time_table = params[layout.time_table].reshape(-1, h0)
    class_table = params[layout.class_table].reshape(-1, h0)
    return weights, biases, time_table, class_table


def param_count(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    num_classes: int,
    num_timesteps: int,
) -> int:
    """Number of parameters for the given architecture, in closed form, so a
    size read from a file is checked before ``_layout`` allocates for it."""
    dims = [input_dim, *hidden_dims, input_dim]
    layers = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    return layers + (num_timesteps + num_classes + 1) * hidden_dims[0]


def init_model(
    input_dim: int,
    hidden_dims,
    num_classes: int,
    num_timesteps: int,
    rng: np.random.Generator,
) -> NoisePredictor:
    """Create a model with 1/sqrt(fan_in)-scaled Gaussian weights.

    Biases and both embedding tables start at zero, so a freshly initialized
    model is already a valid (if useless) predictor. Deterministic per rng.
    """
    hidden_dims = tuple(int(h) for h in hidden_dims)
    dims = [input_dim, *hidden_dims, input_dim]
    chunks = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        chunks.append(rng.standard_normal(fan_out * fan_in) * (1.0 / np.sqrt(fan_in)))
        chunks.append(np.zeros(fan_out))
    h0 = hidden_dims[0]
    chunks.append(np.zeros(num_timesteps * h0))
    chunks.append(np.zeros((num_classes + 1) * h0))
    return NoisePredictor(
        input_dim=input_dim,
        hidden_dims=hidden_dims,
        num_classes=num_classes,
        num_timesteps=num_timesteps,
        params=np.concatenate(chunks),
    )


def _checked_rows(values, batch: int, low: int, high: int, what: str) -> np.ndarray:
    """``values`` minus ``low`` as (batch,) int64 table rows.

    ``values`` is one integer for every sample or a (batch,) integer array,
    each in low..high. A bool, an array of a non-integer dtype or a scalar
    with a fractional part raises DomainError; none is truncated.
    """
    v = np.asarray(values)
    if v.dtype.kind not in "iu" and not (v.ndim == 0 and v.dtype.kind == "f"):
        raise DomainError(f"{what} must be integers, got dtype {v.dtype}")
    if v.ndim == 0:
        if not float(v).is_integer():
            raise DomainError(f"{what} must be integers, got {v}")
        v = int(v)
        if not low <= v <= high:
            raise DomainError(f"{what} must lie in {low}..{high}")
        return np.full(batch, v - low, dtype=np.int64)
    if v.shape != (batch,):
        raise ShapeError(f"{what} have shape {v.shape}, expected ({batch},)")
    if v.size and (v.min() < low or v.max() > high):
        raise DomainError(f"{what} must lie in {low}..{high}")
    return v.astype(np.int64) - low


def _timestep_rows(num_timesteps: int, t, batch: int) -> np.ndarray:
    """0-based table rows for 1-based timesteps, scalar or one per sample."""
    return _checked_rows(t, batch, 1, num_timesteps, "timesteps")


def _class_rows(model: NoisePredictor, class_id, batch: int) -> np.ndarray:
    """Class table rows; None selects the unconditional row."""
    if class_id is None:
        return np.full(batch, model.num_classes, dtype=np.int64)
    return _checked_rows(class_id, batch, 0, model.num_classes - 1, "class ids")


def _forward(views, x, t_select, c_select, hidden=None) -> list:
    """The layer arithmetic of the forward pass, with nothing checked.

    ``views`` is an unpacked parameter vector (:func:`_unpack`) and ``x`` a
    (batch, input_dim) float64 array, or a stack of them, which the
    sampler's lock-step loop passes. ``t_select`` and ``c_select`` index
    the timestep and class tables for the rows added to the first
    pre-activation. Checked calls and ``_corrupted_pass`` pass (batch,)
    arrays and gather one row per sample. The sampler passes a one-row
    timestep slice and, for a condition of one class, a one-row class
    selection, each broadcast over the condition's chains. Each table term
    is gathered just before it is added, so no gathered copy outlives its
    addition. Each layer is built in one buffer, adding bias and table
    terms in place in a fixed order: a new array, or the caller's (batch,
    width) buffer ``hidden[k]`` for hidden layer k, which lets a loop reuse
    its buffers. Returns the activations: the input, each hidden tanh
    output and the linear network output.

    The checked wrappers :func:`forward_activations` and :func:`mlp_forward`
    share this kernel with the sampler and ``_corrupted_pass`` in
    ``diffusion``, the minibatch pass of every training loop, which check
    their inputs once on entry.
    """
    weights, biases, time_table, class_table = views
    hidden = hidden or [None] * (len(weights) - 1)
    acts = [x]
    for k in range(len(weights) - 1):
        pre = np.matmul(acts[-1], weights[k].T, out=hidden[k])
        pre += biases[k]
        if k == 0:
            pre += time_table[t_select]
            pre += class_table[c_select]
        acts.append(np.tanh(pre, out=pre))
    out = acts[-1] @ weights[-1].T
    out += biases[-1]
    acts.append(out)
    return acts


def _backward(views, layout, acts, targets, t_rows, c_rows, sample_weights, grad):
    """Write d(sum_i w_i * ||out_i - target_i||^2)/d(params) into ``grad``.

    ``acts`` come from :func:`_forward` on the same ``views``; every block
    of the caller's flat ``grad`` is overwritten, so it need not be zeroed.
    Nothing is checked. The reduction order is fixed, so results are
    bit-reproducible. The two embedding tables receive the first-layer delta
    scattered by ``t_rows`` and ``c_rows``: one bincount per table over flat
    positions gathered from ``layout.table_index``. bincount adds its
    weights in input order into a zeroed float64 accumulator, so each table
    entry is the sum of its samples' deltas in batch order from 0.0, as a
    sequential scatter-add gives, with no BLAS call.

    :func:`backward_from_activations` wraps this kernel; ``train.pretrain``
    and the one unlearning step of ``unlearn_step`` and ``unlearn_run`` call
    it on their own parameter and gradient vectors. Returns ``grad``.
    """
    weights = views[0]
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    # Walk layers from the output back to the input; after the loop `delta`
    # holds the gradient at the first hidden pre-activation, which is exactly
    # what the embedding tables receive.
    delta = 2.0 * w * (acts[-1] - targets)
    for k in range(len(weights) - 1, -1, -1):
        grad[layout.weights[k][0]] = (delta.T @ acts[k]).ravel()
        grad[layout.biases[k]] = delta.sum(axis=0)
        if k == 0:
            break
        # (delta @ W_k) * (1 - a_k ** 2), with the temporaries reused.
        slope = np.square(acts[k])
        np.subtract(1.0, slope, out=slope)
        delta = delta @ weights[k]
        delta *= slope
    flat = delta.ravel()
    for block, rows in ((layout.time_table, t_rows), (layout.class_table, c_rows)):
        positions = layout.table_index[rows].ravel()
        size = block.stop - block.start
        grad[block] = np.bincount(positions, weights=flat, minlength=size)
    return grad


def forward_activations(model: NoisePredictor, x, t, class_id):
    """Run the forward pass and keep every activation.

    Returns (activations, t_rows, c_rows) where activations[0] is the input,
    activations[k] the k-th hidden tanh output and activations[-1] the linear
    network output; t_rows and c_rows hold one table row per sample. Used by
    the backward pass; most callers want :func:`mlp_forward`.

    Checks the input's shape, the timesteps and the class ids (a scalar,
    a per-sample array or None), then runs the :func:`_forward` kernel on
    the checked rows, so it gathers one table row per sample whatever form
    ``t`` and ``class_id`` take, as the training loops do.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, expected (batch, {model.input_dim})"
        )
    batch = x.shape[0]
    t_rows = _timestep_rows(model.num_timesteps, t, batch)
    c_rows = _class_rows(model, class_id, batch)
    return _forward(model.unpack(), x, t_rows, c_rows), t_rows, c_rows


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

    ``acts`` must come from :func:`forward_activations` on the same model,
    and ``t_rows``/``c_rows`` are the rows it returned. Runs the
    :func:`_backward` kernel into a new vector: the reduction order is
    fixed, so results are bit-reproducible and independent of the BLAS
    build and thread count.
    """
    grad = np.empty(model.num_params)
    return _backward(
        model.unpack(), model.layout, acts, targets, t_rows, c_rows,
        sample_weights, grad,
    )


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

