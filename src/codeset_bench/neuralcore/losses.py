"""Binary cross-entropy over multi-hot targets."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .core import as_float, guard_finite

BCE_EPS = 1e-7


def bce_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. predictions.

    Predictions are clipped to [eps, 1-eps] before the logs; the returned
    gradient is exact for the clipped function, i.e. zero wherever the
    clip is active. The mean runs over every element (batch x labels).
    The loss is computed in float64; the gradient comes back in float32
    for float32 predictions, float64 otherwise.
    """
    dtype = as_float(predictions).dtype
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError(f"predictions {p.shape} vs targets {y.shape}")
    clipped = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    n = p.size
    loss = -(y * np.log(clipped) + (1.0 - y) * np.log(1.0 - clipped)).sum() / n
    guard_finite("bce loss", np.asarray(loss))
    inside = (p >= BCE_EPS) & (p <= 1.0 - BCE_EPS)
    grad = np.where(inside, (clipped - y) / (clipped * (1.0 - clipped)) / n, 0.0)
    return float(loss), grad.astype(dtype, copy=False)
