"""Central finite-difference gradient verification.

Two objectives are supported: a fixed random linear projection of the
model output (exercises any fragment, including ones without a loss),
and clipped BCE against a target matrix (exercises the full classifier
head). Both compare every sampled parameter coordinate's analytic
gradient against (f(t+e) - f(t-e)) / 2e, with e = ``EPS``, and report
the worst relative error, |a - n| / max(|a| + |n|, 1e-8).
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .core import Layer
from .losses import bce_loss

EPS = 1e-5


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)


def _sample_coords(rng, size: int, max_coords: int) -> np.ndarray:
    if size <= max_coords:
        return np.arange(size)
    return rng.choice(size, size=max_coords, replace=False)


def gradient_check(
    model: Layer,
    x: np.ndarray,
    targets: np.ndarray | None = None,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and numeric gradients.

    With ``targets`` the objective is bce_loss(model(x), targets);
    otherwise it is sum(model(x) * R) for a fixed seeded projection R.
    Checks up to ``max_coords`` coordinates per parameter tensor (all of
    them when smaller), then as many of the input when the model
    propagates an input gradient. Integer x (indices into an Embedding)
    is kept as is.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        x = x.astype(np.float64)

    projection = {}

    def objective() -> tuple[float, np.ndarray]:
        out = model.forward(x, train=False)
        if targets is not None:
            return bce_loss(out, targets)
        if "r" not in projection:
            projection["r"] = rng.standard_normal(out.shape)
        r = projection["r"]
        return float((out * r).sum()), r

    loss, grad_out = objective()
    if not np.isfinite(loss):
        raise NumericError("non-finite loss in gradient check")
    for p in model.params():
        p.zero_grad()
    grad_x = model.backward(grad_out)

    pairs = [(p.value, p.grad) for p in model.params()]
    if grad_x is not None:
        pairs.append((x, np.asarray(grad_x, dtype=np.float64)))
    worst = 0.0
    for value, grad in pairs:
        flat_v = value.ravel()
        flat_g = grad.ravel()
        for i in _sample_coords(rng, flat_v.size, max_coords):
            orig = flat_v[i]
            flat_v[i] = orig + EPS
            up, _ = objective()
            flat_v[i] = orig - EPS
            down, _ = objective()
            flat_v[i] = orig
            numeric = (up - down) / (2.0 * EPS)
            worst = max(worst, _relative_error(flat_g[i], numeric))
    return worst
