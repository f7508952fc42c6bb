"""Plain SGD and Adam over runs of parameters that the caller names.

An optimizer's ``params`` is a list of *runs*. A :class:`~ttalign.nn.Model` is one
run: its whole parameter arena and grad arena, each one flat array. A
``(name, Tensor)`` pair is a run of its own. Each run is updated by one set of
ufunc calls on its flat view. The elementwise operations and their order are those
of a per-tensor update, so results are bitwise the same however the caller groups
the parameters.

Both optimizers read the ``grad`` buffers in place. A non-finite gradient aborts
the step with a diagnostic naming the offending parameter.
"""

from __future__ import annotations

import sys

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .nn import Model

OPTIMIZERS = ("adam", "sgd")

# (the run's named parameters, its data, its grads)
Run = tuple[list[tuple[str, Tensor]], np.ndarray, np.ndarray]


def _run(item: Model | tuple[str, Tensor]) -> Run:
    if isinstance(item, Model):
        return item.named_parameters(), item.param_arena, item.grad_arena
    _, p = item
    return [item], p.data, p.grad


def _check_finite(runs: list[Run]) -> None:
    for named, _, grad in runs:
        if not np.isfinite(grad).all():
            name = next(n for n, p in named if not np.isfinite(p.grad).all())
            raise ContractError(f"non-finite gradient in parameter '{name}'")


def check_lr(lr: float, what: str = "learning rate") -> None:
    """Reject a rate that is not a positive finite number (NaN included)."""
    if not 0.0 < lr <= sys.float_info.max:
        raise ConfigError(f"{what} must be positive and finite, got {lr}")


class _Optimizer:
    def __init__(self, params: list[Model | tuple[str, Tensor]], lr: float):
        check_lr(lr)
        self.runs = [_run(item) for item in params]
        self.lr = lr

    def zero_grad(self) -> None:
        for _, _, grad in self.runs:
            grad.fill(0.0)


class SGD(_Optimizer):
    """theta <- theta - lr * grad."""

    def step(self) -> None:
        _check_finite(self.runs)
        for _, data, grad in self.runs:
            data -= self.lr * grad


class Adam(_Optimizer):
    """Adam with bias correction, betas (0.9, 0.999) and eps 1e-8."""

    b1, b2 = 0.9, 0.999
    eps = 1e-8

    def __init__(self, params: list[Model | tuple[str, Tensor]], lr: float):
        super().__init__(params, lr)
        self.t = 0
        # moments, plus two scratch buffers: at arena size a fresh temporary per
        # operation costs more than the arithmetic
        self.m, self.v, self._num, self._den = (
            [np.zeros_like(data) for _, data, _ in self.runs] for _ in range(4))

    def step(self) -> None:
        """m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g; theta -= lr (m / c1) / (sqrt(v / c2) + eps)."""
        _check_finite(self.runs)
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for (_, data, g), m, v, num, den in zip(self.runs, self.m, self.v, self._num, self._den):
            m *= self.b1
            m += np.multiply(1.0 - self.b1, g, out=num)
            v *= self.b2
            v += np.multiply(np.multiply(1.0 - self.b2, g, out=num), g, out=num)
            np.multiply(self.lr, np.divide(m, c1, out=num), out=num)
            np.add(np.sqrt(np.divide(v, c2, out=den), out=den), self.eps, out=den)
            data -= np.divide(num, den, out=num)


def check_optimizer(kind: str) -> None:
    """ConfigError unless ``kind`` names an optimizer; configs call it when built."""
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer '{kind}' (expected one of {OPTIMIZERS})")


def make_optimizer(kind: str, params: list[Model | tuple[str, Tensor]], lr: float):
    check_optimizer(kind)
    return Adam(params, lr) if kind == "adam" else SGD(params, lr)
