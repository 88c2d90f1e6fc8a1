"""SGD and RMSprop over Parameter lists."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .core import Parameter, guard_finite


class SGD:
    """theta <- theta - lr * grad."""

    def __init__(self, params: list[Parameter], lr: float = 0.01):
        if not 0 < lr < np.inf:
            raise ConfigError(f"learning rate must be finite and positive, got {lr}")
        self.params = [p for p in params if p.trainable]
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            guard_finite(p.name + ".grad", p.grad)
            p.value -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8


class RMSprop:
    """s <- rho*s + (1-rho)*grad^2; theta <- theta - lr*grad/sqrt(s+eps),
    with ``RMSPROP_RHO`` and ``RMSPROP_EPS``."""

    def __init__(self, params: list[Parameter], lr: float = 0.001):
        if not 0 < lr < np.inf:
            raise ConfigError(f"learning rate must be finite and positive, got {lr}")
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.sq = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for p, s in zip(self.params, self.sq):
            guard_finite(p.name + ".grad", p.grad)
            s *= RMSPROP_RHO
            s += (1.0 - RMSPROP_RHO) * p.grad**2
            p.value -= self.lr * p.grad / np.sqrt(s + RMSPROP_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def make_optimizer(kind: str, params: list[Parameter], lr: float | None = None):
    if kind == "sgd":
        return SGD(params, lr=lr if lr is not None else 0.01)
    if kind == "rmsprop":
        return RMSprop(params, lr=lr if lr is not None else 0.001)
    raise ConfigError(f"unknown optimizer {kind!r}")
