"""SGD and RMSprop over Parameter lists."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .core import Parameter, guard_finite


class Optimizer:
    """The trainable ``params`` at rate ``lr``; a subclass defines ``step``."""

    def __init__(self, params: list[Parameter], lr: float):
        if not 0 < lr < np.inf:
            raise ConfigError(f"learning rate must be finite and positive, got {lr}")
        self.params = [p for p in params if p.trainable]
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """theta <- theta - lr * grad."""

    def __init__(self, params: list[Parameter], lr: float = 0.01):
        super().__init__(params, lr)

    def step(self) -> None:
        for p in self.params:
            guard_finite(p.name + ".grad", p.grad)
            p.value -= self.lr * p.grad


RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8


class RMSprop(Optimizer):
    """s <- rho*s + (1-rho)*grad^2; theta <- theta - lr*grad/sqrt(s+eps),
    with ``RMSPROP_RHO`` and ``RMSPROP_EPS``."""

    def __init__(self, params: list[Parameter], lr: float = 0.001):
        super().__init__(params, lr)
        self.sq = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for p, s in zip(self.params, self.sq):
            guard_finite(p.name + ".grad", p.grad)
            s *= RMSPROP_RHO
            s += (1.0 - RMSPROP_RHO) * p.grad**2
            p.value -= self.lr * p.grad / np.sqrt(s + RMSPROP_EPS)


def make_optimizer(kind: str, params: list[Parameter], lr: float | None = None) -> Optimizer:
    classes = {"sgd": SGD, "rmsprop": RMSprop}
    if kind not in classes:
        raise ConfigError(f"unknown optimizer {kind!r}")
    return classes[kind](params) if lr is None else classes[kind](params, lr)
