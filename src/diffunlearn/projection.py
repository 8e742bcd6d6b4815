"""Conflict-aware gradient combination for the unlearning update.

Two objectives pull on the same parameters: raising the loss on the forget
set and preserving it on the remain set. When their gradients conflict
(negative inner product), each is replaced by its component orthogonal to the
other and the two components are summed; that direction improves both
objectives to first order. Without conflict the raw sum is kept unchanged,
which coincides with the gradient-surgery rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradientError, ShapeError


@dataclass(frozen=True)
class RestrictedUpdate:
    """Outcome of combining a forgetting gradient with a remaining gradient.

    Attributes:
        delta_f: Forgetting component actually applied; orthogonal to the
            remaining gradient when conflicted, the raw gradient otherwise.
        delta_r: Remaining component, symmetric to delta_f.
        combined: delta_f + delta_r, the ascent direction of the joint step.
        conflicted: Whether the raw gradients had negative inner product.
        dot: Raw inner product grad_f . grad_r.
        norm_f: Euclidean norm of the raw forgetting gradient.
        norm_r: Euclidean norm of the raw remaining gradient.
    """

    delta_f: np.ndarray
    delta_r: np.ndarray
    combined: np.ndarray
    conflicted: bool
    dot: float
    norm_f: float
    norm_r: float


def project_away(g, onto) -> np.ndarray:
    """Component of ``g`` orthogonal to ``onto``.

    Returns g - ((g . onto) / ||onto||^2) * onto. The result is invariant to
    positive rescaling of ``onto``. When ``g`` is nearly parallel to
    ``onto``, cancellation leaves a residual that is no longer orthogonal.
    A residual shorter than half of ``g`` is therefore projected once more;
    if that pass halves it again, the residual is rounding noise, ``g`` lies
    along ``onto``, and the result is zero (Kahan and Parlett's "twice is
    enough").

    Raises:
        DegenerateGradientError: ``onto`` is the zero vector.
        ShapeError: the vectors differ in length.
    """
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    onto = np.asarray(onto, dtype=np.float64).reshape(-1)
    if g.shape != onto.shape:
        raise ShapeError(f"vector lengths differ: {g.size} vs {onto.size}")
    norm_sq = float(onto @ onto)
    if norm_sq == 0.0:
        raise DegenerateGradientError("cannot project away from a zero vector")
    out = g - (float(g @ onto) / norm_sq) * onto
    if float(out @ out) < 0.25 * float(g @ g):
        again = out - (float(out @ onto) / norm_sq) * onto
        if float(again @ again) < 0.25 * float(out @ out):
            return np.zeros_like(g)
        out = again
    return out


def restricted_gradient(grad_f, grad_r) -> RestrictedUpdate:
    """Combine the two objective gradients, projecting only under conflict.

    If grad_f . grad_r < 0, each gradient is replaced by its component
    orthogonal to the other and the components are summed. Otherwise both
    pass through and combined is exactly grad_f + grad_r.

    Raises:
        DegenerateGradientError: both gradients are zero; no direction exists.
    """
    grad_f = np.asarray(grad_f, dtype=np.float64).reshape(-1)
    grad_r = np.asarray(grad_r, dtype=np.float64).reshape(-1)
    if grad_f.shape != grad_r.shape:
        raise ShapeError(f"vector lengths differ: {grad_f.size} vs {grad_r.size}")
    norm_f = float(np.linalg.norm(grad_f))
    norm_r = float(np.linalg.norm(grad_r))
    if norm_f == 0.0 and norm_r == 0.0:
        raise DegenerateGradientError("both gradients are zero vectors")
    dot = float(grad_f @ grad_r)
    if dot < 0.0:
        delta_f = project_away(grad_f, grad_r)
        delta_r = project_away(grad_r, grad_f)
        conflicted = True
    else:
        delta_f = grad_f.copy()
        delta_r = grad_r.copy()
        conflicted = False
    return RestrictedUpdate(
        delta_f=delta_f,
        delta_r=delta_r,
        combined=delta_f + delta_r,
        conflicted=conflicted,
        dot=dot,
        norm_f=norm_f,
        norm_r=norm_r,
    )
