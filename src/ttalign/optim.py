"""Plain SGD and Adam over named parameter lists.

Both optimizers read each parameter's ``grad`` buffer in place. A non-finite
gradient aborts the step with a diagnostic naming the offending parameter.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError


def _check_finite(named_params) -> None:
    for name, p in named_params:
        if not np.all(np.isfinite(p.grad)):
            raise ContractError(f"non-finite gradient in parameter '{name}'")


class SGD:
    """theta <- theta - lr * grad."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.named_params = list(named_params)
        self.lr = lr

    def step(self) -> None:
        _check_finite(self.named_params)
        for _, p in self.named_params:
            p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()


class Adam:
    """Adam with bias correction; betas (0.9, 0.999), eps 1e-8 by default."""

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.named_params = list(named_params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.named_params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def step(self) -> None:
        _check_finite(self.named_params)
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for n, p in self.named_params:
            g = p.grad
            self.m[n] = self.b1 * self.m[n] + (1.0 - self.b1) * g
            self.v[n] = self.b2 * self.v[n] + (1.0 - self.b2) * g * g
            p.data -= self.lr * (self.m[n] / c1) / (np.sqrt(self.v[n] / c2) + self.eps)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()


def make_optimizer(kind: str, named_params, lr: float):
    if kind == "adam":
        return Adam(named_params, lr)
    if kind == "sgd":
        return SGD(named_params, lr)
    raise ConfigError(f"unknown optimizer '{kind}' (expected 'adam' or 'sgd')")
