"""Plain SGD and Adam over named parameter lists.

Both optimizers step over *runs*: maximal stretches of consecutive parameters
whose ``data`` and ``grad`` buffers lie back to back in one flat array, such as a
model's parameter arena. Each run is updated by one set of ufunc calls on its flat
view; a tensor outside any arena is a run of its own. The elementwise operations
and their order are those of a per-tensor update, so results are bitwise the same.

Both optimizers read the ``grad`` buffers in place. A non-finite gradient aborts
the step with a diagnostic naming the offending parameter.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError

# (the run's named parameters, flat view of their data, flat view of their grads)
Run = tuple[list[tuple[str, Tensor]], np.ndarray, np.ndarray]


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _extent(a: np.ndarray) -> tuple[np.ndarray, int, int] | None:
    """``(base, first byte, end byte)`` of a contiguous view into a flat contiguous array, else None."""
    base = a.base
    if base is None or base.ndim != 1 or not base.flags.c_contiguous or not a.flags.c_contiguous:
        return None
    start = _address(a)
    return base, start, start + a.nbytes


def _flat(arrays: list[np.ndarray], first) -> np.ndarray:
    """One array spanning ``arrays``, which are adjacent in that order; ``first`` is the first one's extent."""
    if len(arrays) == 1:
        return arrays[0]
    base, start, _ = first
    lo = (start - _address(base)) // base.itemsize
    return base[lo:lo + sum(a.size for a in arrays)]


def _runs(named_params) -> list[Run]:
    """Split ``named_params`` into runs of memory-adjacent tensors, keeping their order.

    Each tensor's data and grad addresses are read once: optimizers are built per
    test epoch in TTT, where this set-up is a visible share of the work.
    """
    groups: list[list] = []  # [named params, (data, grad) extents of the first, of the last]
    for name, p in named_params:
        ext = (_extent(p.data), _extent(p.grad))
        last = groups[-1][2] if groups else (None, None)
        if all(e and l and e[0] is l[0] and e[1] == l[2] for e, l in zip(ext, last)):
            groups[-1][0].append((name, p))
            groups[-1][2] = ext
        else:
            groups.append([[(name, p)], ext, ext])
    return [(g, _flat([p.data for _, p in g], first[0]), _flat([p.grad for _, p in g], first[1]))
            for g, first, _ in groups]


def _check_finite(runs: list[Run]) -> None:
    for named, _, grad in runs:
        if not np.isfinite(grad).all():
            name = next(n for n, p in named if not np.isfinite(p.grad).all())
            raise ContractError(f"non-finite gradient in parameter '{name}'")


class _Optimizer:
    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.runs = _runs(named_params)
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
    """Adam with bias correction; betas (0.9, 0.999), eps 1e-8 by default."""

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(named_params, lr)
        self.b1, self.b2 = betas
        self.eps = eps
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


def make_optimizer(kind: str, named_params, lr: float):
    if kind == "adam":
        return Adam(named_params, lr)
    if kind == "sgd":
        return SGD(named_params, lr)
    raise ConfigError(f"unknown optimizer '{kind}' (expected 'adam' or 'sgd')")
