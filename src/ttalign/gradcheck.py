"""Finite-difference audit of every reverse-mode gradient path.

Each check builds a deterministic scalar loss and hands it, once per named
tensor (parameters, and the input where the input path is the interesting
one), to :func:`ttalign.autodiff.grad_check`. That checker refuses a loss that
is not a deterministic scalar, then compares the tape gradient with central
differences component by component; each tensor is summarized by its maximum
elementwise relative error |a - n| / max(|a|, |n|, 1e-12).

Stochastic pieces (dropout) are made repeatable by reseeding the mask
generator inside the loss closure, so the analytic pass and all numeric
evaluations see the same mask.  Batch-norm forwards run in train mode with
``update_stats=False``: the batch-statistics gradient path is exercised while
the closure stays side-effect free.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import BatchNorm, Linear, Model, ModelConfig, dropout

TOLERANCE = 1e-5


def _check(tensors: dict[str, Tensor], loss_fn) -> dict[str, float]:
    """Max elementwise relative error of the tape gradient, per named tensor."""
    return {name: ad.grad_check(lambda _: loss_fn(), t, [t]) for name, t in tensors.items()}


# ---------------------------------------------------------------------------
# individual layer types
# ---------------------------------------------------------------------------

def _check_linear() -> dict[str, float]:
    rng = np.random.default_rng(11)
    layer = Linear(7, 5, rng)
    x = Tensor(rng.standard_normal((4, 7)), requires_grad=True)
    labels = np.array([0, 1, 2, 4])
    tensors = {name: t for name, t in layer.named_parameters("linear")}
    tensors["linear.input"] = x
    return _check(tensors, lambda: ad.cross_entropy(layer(x), labels))


def _check_linear_no_bias() -> dict[str, float]:
    rng = np.random.default_rng(12)
    layer = Linear(6, 3, rng, bias=False)
    x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    labels = np.array([0, 1, 2, 0, 1])
    tensors = {name: t for name, t in layer.named_parameters("linear_nb")}
    tensors["linear_nb.input"] = x
    return _check(tensors, lambda: ad.cross_entropy(layer(x), labels))


def _check_batchnorm(train: bool) -> dict[str, float]:
    rng = np.random.default_rng(13)
    bn = BatchNorm(6)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    bn.beta.data[:] = rng.standard_normal(6)
    bn.running_mean[:] = rng.standard_normal(6)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 6)
    x = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
    labels = rng.integers(0, 6, 8)
    prefix = "bn_train" if train else "bn_eval"
    tensors = {f"{prefix}.gamma": bn.gamma, f"{prefix}.beta": bn.beta, f"{prefix}.input": x}
    return _check(
        tensors,
        lambda: ad.cross_entropy(bn(x, train=train, update_stats=False), labels),
    )


def _check_dropout() -> dict[str, float]:
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((6, 9)), requires_grad=True)
    labels = rng.integers(0, 9, 6)

    def loss():
        mask_rng = np.random.default_rng(99)
        return ad.cross_entropy(dropout(x, 0.4, mask_rng), labels)

    return _check({"dropout.input": x}, loss)


def _check_relu() -> dict[str, float]:
    rng = np.random.default_rng(15)
    # keep values away from the kink so central differences stay valid
    data = rng.standard_normal((5, 8))
    data[np.abs(data) < 0.05] = 0.1
    x = Tensor(data, requires_grad=True)
    labels = rng.integers(0, 8, 5)
    return _check({"relu.input": x}, lambda: ad.cross_entropy(ad.relu(x), labels))


# ---------------------------------------------------------------------------
# full backbone + heads
# ---------------------------------------------------------------------------

def _check_full_stack() -> dict[str, float]:
    cfg = ModelConfig(
        channels=3,
        samples=50,
        hidden=4,
        features=6,
        n_main=3,
        ssl_dims=(4, 3),
        head_layers=2,
        dropout=0.3,
        init_seed=21,
    )
    model = Model(cfg)
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 3, 50)), requires_grad=True)
    y_main = np.array([0, 1, 2, 1])
    y_ssl = [np.array([0, 3, 1, 2]), np.array([2, 0, 1, 2])]
    weights = (0.6, 0.4)

    def loss():
        mask_rng = np.random.default_rng(77)
        feats = model.features(x, train=True, dropout_rng=mask_rng, update_stats=False)
        total = ad.cross_entropy(model.main_logits(feats), y_main)
        for j, w in enumerate(weights):
            total = ad.add(total, ad.scale(ad.cross_entropy(model.ssl_logits(j, feats), y_ssl[j]), w))
        return total

    tensors = {f"stack.{name}": t for name, t in model.named_parameters()}
    tensors["stack.input"] = x
    return _check(tensors, loss)


def run_gradcheck() -> dict[str, float]:
    """Max elementwise relative error per checked tensor, over every layer type and the stack."""
    results: dict[str, float] = {}
    results.update(_check_linear())
    results.update(_check_linear_no_bias())
    results.update(_check_batchnorm(train=True))
    results.update(_check_batchnorm(train=False))
    results.update(_check_dropout())
    results.update(_check_relu())
    results.update(_check_full_stack())
    return results


def max_relative_error(results: dict[str, float]) -> float:
    return max(results.values())
