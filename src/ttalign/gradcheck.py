"""Finite-difference audit of the layers and of every pass the CLI differentiates.

Each check builds a deterministic scalar loss and hands it, once per named
tensor, to :func:`ttalign.autodiff.grad_check`, which compares the tape gradient
with central differences; each tensor is summarized by its maximum elementwise
relative error |a - n| / max(|a|, |n|, 1e-12). The passes are stage-I
fine-tuning's step (the grouped pass over the batch and its views, then the
fused heads-and-loss record), TTT's eval-mode pass alone and inside
:func:`ttalign.nn.replicas`, Tent's entropy step and the pretraining loss.
Dropout is made repeatable by
reseeding the mask generator inside the loss closure, and train-mode passes run
with ``update_stats=False``, so the closure stays side-effect free.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Linear, Model, ModelConfig, replicas

TOLERANCE = 1e-5

# the audited model: two windows, a two-layer main head and two pretext heads, in
# float64, where central differences can resolve the tolerance
STACK = ModelConfig(
    channels=3, samples=50, hidden=4, features=6, n_main=3,
    ssl_dims=(4, 3), head_layers=2, dropout=0.3, init_seed=21, dtype="float64",
)


def _check(tensors: dict[str, Tensor], loss_fn) -> dict[str, float]:
    """Max elementwise relative error of the tape gradient, per named tensor."""
    return {name: ad.grad_check(lambda _: loss_fn(), t, [t]) for name, t in tensors.items()}


def _named(prefix: str, model: Model) -> dict[str, Tensor]:
    return {f"{prefix}.{name}": t for name, t in model.named_parameters()}


def _warmed_model(rng: np.random.Generator) -> Model:
    """The audited model with running statistics of one train-mode pass, so eval mode is not trivial."""
    model = Model(STACK)
    with ad.no_grad():
        model.features(Tensor(rng.standard_normal((16, STACK.channels, STACK.samples))), train=True)
    return model


# ---------------------------------------------------------------------------
# individual layer types
# ---------------------------------------------------------------------------

def _check_linear(prefix: str, seed: int, shape: tuple[int, int], labels, bias: bool) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    layer = Linear(*shape, rng, bias=bias)
    x = Tensor(rng.standard_normal((len(labels), shape[0])), requires_grad=True)
    tensors = dict(layer.named_parameters(prefix), **{f"{prefix}.input": x})
    return _check(tensors, lambda: ad.cross_entropy(layer(x), labels))


def _check_relu() -> dict[str, float]:
    rng = np.random.default_rng(15)
    # keep values away from the kink so central differences stay valid
    data = rng.standard_normal((5, 8))
    data[np.abs(data) < 0.05] = 0.1
    x = Tensor(data, requires_grad=True)
    labels = rng.integers(0, 8, 5)
    return _check({"relu.input": x}, lambda: ad.cross_entropy(ad.relu(x), labels))


# ---------------------------------------------------------------------------
# the passes the pipeline differentiates
# ---------------------------------------------------------------------------

def _check_full_stack() -> dict[str, float]:
    """Stage-I fine-tuning's step, its two records: one grouped train-mode pass with
    dropout over a batch and its two views, then one ``autodiff.heads_cross_entropy``
    record with the main loss on group 0 and the weighted pretext losses on groups 1
    and 2, through the two-layer main head and both pretext heads."""
    model = Model(STACK)
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((1 + len(STACK.ssl_dims), 4, 3, 50)), requires_grad=True)
    y_main = np.array([0, 1, 2, 1])
    y_ssl = [np.array([0, 3, 1, 2]), np.array([2, 0, 1, 2])]
    weights = (0.6, 0.4)

    def loss():
        mask_rng = np.random.default_rng(77)
        feats = model.features(x, train=True, dropout_rng=mask_rng, update_stats=False)
        return ad.heads_cross_entropy(feats, model.heads([0, 1]), [y_main, *y_ssl], weights)[0]

    # The input is checked on group 0, the batch itself. The views' input gradients
    # have entries near 1e-7, where the central difference's rounding, about 1e-11,
    # exceeds the tolerance; they are a bitwise check of the grouped pass instead.
    batch = Tensor(x.data[0])
    batch.grad = x.grad[0]  # views: perturbing and reading ``batch`` reach ``x``
    return _check(dict(_named("stack", model), **{"stack.input": batch}), loss)


def _check_stack_eval() -> dict[str, float]:
    """TTT's pass: eval mode with warmed running statistics, through a pretext head."""
    rng = np.random.default_rng(23)
    model = _warmed_model(rng)
    x = Tensor(rng.standard_normal((4, 3, 50)), requires_grad=True)
    labels = np.array([0, 3, 1, 2])
    tensors = dict(_named("stack_eval", model), **{"stack_eval.input": x})
    return _check(tensors, lambda: ad.cross_entropy(model.ssl_logits(0, model.features(x, train=False)), labels))


def _check_stack_replicas() -> dict[str, float]:
    """Block TTT's step: eval-mode passes inside :func:`replicas` over S = 3 distinct
    parameter rows, one view per pretext branch, every replica's weighted losses summed.

    A parameter inside ``replicas`` is a strided view that ``grad_check`` cannot
    perturb in place, so the check runs over the whole (S, P) arena at once.
    """
    rng = np.random.default_rng(24)
    model = _warmed_model(rng)
    params = model.param_arena * np.array([[1.0], [0.8], [1.25]])
    arena = Tensor(params)
    arena.grad = np.zeros_like(params)
    views = [Tensor(rng.standard_normal((3, 2, 3, 50))) for _ in STACK.ssl_dims]
    labels = [rng.integers(0, d, (3, 2)) for d in STACK.ssl_dims]
    weights = (0.6, 0.4)

    def loss():
        total = None
        for j, w in enumerate(weights):
            term = ad.scale(ad.cross_entropy(model.ssl_logits(j, model.features(views[j], train=False)), labels[j]), w)
            total = term if total is None else ad.add(total, term)
        return ad.sum_(total)  # replica r's losses reach only replica r's parameters

    with replicas(model, arena.data, arena.grad):
        return _check({"stack_replicas.params": arena}, loss)


def _check_tent() -> dict[str, float]:
    """Tent's step: mean entropy of a train-mode pass from the batch's stem, with
    every parameter but the batch-norm affine ones frozen."""
    rng = np.random.default_rng(25)
    model = _warmed_model(rng)
    affine = set(model.param_groups()["bn_affine"])
    x = Tensor(rng.standard_normal((6, 3, 50)))
    for name, t in model.named_parameters():
        t.requires_grad = name in affine
    stem = model.stem(x)
    tensors = {f"tent.{name}": t for name, t in model.named_parameters() if name in affine}
    return _check(tensors, lambda: ad.mean_entropy(model.forward_main(x, train=True, update_stats=False, stem=stem)))


def _check_pretrain() -> dict[str, float]:
    """Stage-0 pretraining: the masked-reconstruction loss through a linear decoder."""
    rng = np.random.default_rng(26)
    model = Model(STACK)
    b, c, t = 3, STACK.channels, STACK.samples
    decoder = Linear(STACK.features, c * t, rng)
    batch = rng.standard_normal((b, c, t))
    mask = np.zeros((b, 1, t))
    mask[[0, 2], :, :25] = mask[1, :, 25:] = 1.0  # one 25-sample patch per epoch
    x = Tensor(batch * (1.0 - mask))
    denom = float(mask.sum() * c)

    def loss():
        feats = model.features(x, train=True, update_stats=False)
        recon = ad.reshape(decoder(feats), (b, c, t))
        diff = ad.mul(ad.sub(recon, Tensor(batch)), Tensor(mask))
        return ad.scale(ad.sum_(ad.mul(diff, diff)), 1.0 / denom)

    return _check(dict(_named("pretrain", model), **dict(decoder.named_parameters("pretrain.decoder"))), loss)


def run_gradcheck() -> dict[str, float]:
    """Max elementwise relative error per checked tensor, over the layer types and every differentiated pass."""
    results: dict[str, float] = {}
    results.update(_check_linear("linear", 11, (7, 5), np.array([0, 1, 2, 4]), bias=True))
    results.update(_check_linear("linear_nb", 12, (6, 3), np.array([0, 1, 2, 0, 1]), bias=False))
    results.update(_check_relu())
    results.update(_check_full_stack())
    results.update(_check_stack_eval())
    results.update(_check_stack_replicas())
    results.update(_check_tent())
    results.update(_check_pretrain())
    return results


def max_relative_error(results: dict[str, float]) -> float:
    return max(results.values())
