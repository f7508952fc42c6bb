"""Model components: linear layers, batch-norm state, the dropout mask, and the
shared-backbone classifier with one main head and a list of pretext heads.

The backbone cuts each channel into consecutive, non-overlapping windows of
``WINDOW`` samples (one reshape) and runs a per-window linear map over them,
followed by batch norm, ReLU, a channel-mixing linear layer, a second norm/ReLU,
and a temporal mean-pool down to one feature vector per input window sequence.
One pass (:meth:`Model.features`) is one tape record. Its hand-written pull
repeats, in order, the float operations of the backward through the chain of
primitives it replaces for the matmuls, ReLU masks, reshapes, mean-pool and
dropout; the batch-norm arithmetic is ``autodiff.bn_stats``, ``bn_affine`` and
``bn_pull`` (the closed-form backward in train mode), through
:class:`BatchNorm`'s ``stats`` and ``normalize``. With ``conv.w`` frozen,
as in Tent, the part in front of bn1's affine step is computed once per batch
(:meth:`Model.stem`). A (G, B, C, T) input is G groups in one pass, as stage I
runs a batch and its pretext views, and block TTT its pretext branches: each
group keeps its own batch statistics, only group 0's fold into the running
estimates, and each shared parameter's gradient is the groups' contributions
folded last group first, so the pass is bit for bit G passes in group order.
The products with ``mix.w``, which every group shares, are each one 2-D gemm
over all the groups' rows, forward and in the pull; that holds only while the
BLAS rounds a row of a 2-D call as it does in a stacked one, which
``tests/test_nn.py::TestFusedBackbone::test_grouped_pass_is_separate_passes_in_group_order_bitwise``
checks at G = 3 in float64 and float32 (the golden digests only compare on
the machine class that froze them). The first layer's product, and every
product with per-replica weights, stay stacked.

A :class:`Model` keeps its state in three flat arenas of its ``ModelConfig.dtype``
(float32 unless a check asks for float64): the parameters, their grads, and the
batch-norm running statistics. Input data is cast to that dtype where it enters
the pass; probabilities come out as float64. Every parameter's ``data``
and ``grad`` and every running-stat buffer is a view into one of them, so
snapshot, restore, clone and zero-grad are each one array operation, and an
optimizer can step over the whole model at once. Inside :func:`replicas` the
parameters view (S, P) arenas instead, one row per replica, and a pass through
the model, (G, S, B, C, T) or (S, B, C, T), adapts S copies of it at once.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from functools import lru_cache
from itertools import accumulate
from math import prod

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError

MAGIC = b"TTA1"
CHECKPOINT_VERSION = 2

WINDOW = 25  # samples per non-overlapping window of the backbone


class Linear:
    """y = x @ W + b with W of shape (fan_in, fan_out).

    Layers feeding straight into a batch norm are built without a bias: the batch
    mean subtraction cancels any constant row shift, so such a bias would carry an
    identically-zero gradient. Inside :func:`replicas`, ``x`` is
    (S, n, fan_in) and each replica's bias broadcasts over its own rows.
    """

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator | None, bias: bool = True,
                 dtype: str = "float64"):
        w = np.zeros((fan_in, fan_out)) if rng is None else rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in)
        self.w = Tensor(w.astype(dtype), requires_grad=True)
        self.b = Tensor(np.zeros(fan_out, dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.matmul(x, self.w)
        if self.b is None:
            return h
        b = self.b if self.b.ndim == 1 else ad.reshape(self.b, (*self.b.shape[:-1], 1, self.b.shape[-1]))
        return ad.add(h, b)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = [(f"{prefix}.w", self.w)]
        if self.b is not None:
            out.append((f"{prefix}.b", self.b))
        return out


class BatchNorm:
    """Per-feature batch normalization state and its forward, for a fused pass.

    Train mode normalizes by the batch mean and biased batch variance and, unless
    suppressed, folds them into the running statistics with
    ``new = (1 - momentum) * old + momentum * batch``. Eval mode normalizes by the
    stored running statistics and never mutates them.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, features: int, dtype: str = "float64"):
        self.gamma = Tensor(np.ones(features, dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(features, dtype), requires_grad=True)
        self.running_mean = np.zeros(features, dtype)
        self.running_var = np.ones(features, dtype)

    def stats(self, xd: np.ndarray, train: bool):
        """``autodiff.bn_stats`` of a bare array in this mode, for :meth:`normalize`."""
        return ad.bn_stats(xd, self.eps, self._running(train))

    def normalize(self, stats, train: bool, update_stats: bool = True):
        """The output for :meth:`stats`' result and ``autodiff.bn_pull``'s cache; records
        nothing. In train mode the batch statistics are folded in unless ``update_stats``
        is off."""
        cache, mu, var = stats
        if train and update_stats:  # group 0's of a batch's (1, features) or a stack's (G, 1, features)
            self._update_running(mu[0].reshape(-1), var[0].reshape(-1))
        return ad.bn_affine(cache[0], self.gamma.data, self.beta.data), cache

    def _running(self, train: bool) -> tuple[np.ndarray, np.ndarray] | None:
        return None if train else (self.running_mean, self.running_var)

    def _update_running(self, mu: np.ndarray, var: np.ndarray) -> None:
        m = self.momentum
        # in place: inside a Model these buffers are views into its arena
        self.running_mean *= 1.0 - m
        self.running_mean += m * mu
        self.running_var *= 1.0 - m
        self.running_var += m * var


def dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator | None, dtype: str = "float64"
) -> np.ndarray | None:
    """Inverted-dropout multiplier of ``shape`` in ``dtype``; None (identity) without a
    generator or when p == 0."""
    if rng is None or p == 0.0:
        return None
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {p}")
    return ((rng.random(shape) >= p) / (1.0 - p)).astype(dtype, copy=False)


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 8
    samples: int = 200
    hidden: int = 32
    features: int = 64
    n_main: int = 4
    ssl_dims: tuple[int, ...] = ()
    head_layers: int = 1
    dropout: float = 0.1
    init_seed: int = 0
    dtype: str = "float32"  # of the arenas and the arithmetic; checks that need float64 ask for it

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.head_layers not in (1, 2, 3):
            raise ConfigError(f"head_layers must be 1, 2, or 3, got {self.head_layers}")
        if self.samples <= 0 or self.samples % WINDOW != 0:
            raise ConfigError(f"samples must be a positive multiple of {WINDOW}, got {self.samples}")


def _arena(named: list[tuple[str, np.ndarray]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy the ``named`` arrays back to back into one flat array; returns it and a view of it
    shaped like each, taken through :func:`arena_slices`."""
    flat = np.concatenate([a.ravel() for _, a in named])
    layout = tuple((n, a.shape) for n, a in named)
    return flat, [flat[s].reshape(shape) for (_, shape), s in zip(layout, arena_slices(layout))]


@lru_cache(maxsize=16)
def arena_slices(layout: tuple[tuple[str, tuple[int, ...]], ...]) -> tuple[slice, ...]:
    """Each parameter's slice of a parameter arena laid out as ``layout``."""
    bounds = list(accumulate((prod(shape) for _, shape in layout), initial=0))
    return tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


class Model:
    """Shared backbone + main head + pretext heads.

    All heads read the same feature vector, so updating a pretext head never moves
    the main head's logits for a fixed backbone.
    """

    def __init__(self, cfg: ModelConfig):
        self._build(cfg, np.random.default_rng(cfg.init_seed))

    def _build(self, cfg: ModelConfig, rng: np.random.Generator | None) -> None:
        """Make the layers, weights drawn from ``rng`` (zero without one), and their arenas."""
        self.cfg = cfg
        dt = cfg.dtype
        self.conv = Linear(WINDOW, cfg.hidden, rng, bias=False, dtype=dt)
        self.bn1 = BatchNorm(cfg.hidden, dt)
        self.mix = Linear(cfg.channels * cfg.hidden, cfg.features, rng, bias=False, dtype=dt)
        # learned window-position term; zero-initialized so a fresh model's
        # features are position-uniform until training moves it
        self.pos = Tensor(np.zeros((cfg.samples // WINDOW, cfg.features), dt), requires_grad=True)
        self.bn2 = BatchNorm(cfg.features, dt)
        self.head: list[Linear] = []
        for i in range(cfg.head_layers):
            fan_out = cfg.n_main if i == cfg.head_layers - 1 else cfg.features
            self.head.append(Linear(cfg.features, fan_out, rng, dtype=dt))
        self.ssl_heads = [Linear(cfg.features, d, rng, dtype=dt) for d in cfg.ssl_dims]

        named = self.named_parameters()
        self.layout = tuple((n, t.shape) for n, t in named)
        self.param_arena, datas = _arena([(n, t.data) for n, t in named])
        self.grad_arena, grads = _arena([(n, t.grad) for n, t in named])
        for (_, t), data, grad in zip(named, datas, grads):
            t.data, t.grad = data, grad
        self.buffer_arena, buffers = _arena(self.named_buffers())
        self.bn1.running_mean, self.bn1.running_var, self.bn2.running_mean, self.bn2.running_var = buffers

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.conv.named_parameters("conv")
        out += [("bn1.gamma", self.bn1.gamma), ("bn1.beta", self.bn1.beta)]
        out += self.mix.named_parameters("mix")
        out += [("pos", self.pos)]
        out += [("bn2.gamma", self.bn2.gamma), ("bn2.beta", self.bn2.beta)]
        for i, layer in enumerate(self.head):
            out += layer.named_parameters(f"head.{i}")
        for i, layer in enumerate(self.ssl_heads):
            out += layer.named_parameters(f"ssl.{i}")
        return out

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("bn1.running_mean", self.bn1.running_mean),
            ("bn1.running_var", self.bn1.running_var),
            ("bn2.running_mean", self.bn2.running_mean),
            ("bn2.running_var", self.bn2.running_var),
        ]

    def param_groups(self) -> dict[str, list[str]]:
        """Partition of parameter names into BN affine params and everything else."""
        bn = {"bn1.gamma", "bn1.beta", "bn2.gamma", "bn2.beta"}
        names = [n for n, _ in self.named_parameters()]
        return {
            "bn_affine": [n for n in names if n in bn],
            "other": [n for n in names if n not in bn],
        }

    def zero_grad(self) -> None:
        self.grad_arena.fill(0.0)

    # -- forward passes --------------------------------------------------------

    def _rows(self, x: Tensor) -> np.ndarray:
        """The (B, C, K * W) input, with an optional group axis G in front and, inside
        :func:`replicas`, the replica axis S after it, as (..., B * C * K, W) rows in the
        model's dtype: each row is one run of consecutive samples."""
        cfg, rep, lead = self.cfg, self.conv.w.shape[:-2], x.shape[:-3]  # rep () or (S,)
        if (len(lead) - len(rep) not in (0, 1) or lead[len(lead) - len(rep):] != rep or not all(lead)
                or x.ndim < 3 or x.shape[-2:] != (cfg.channels, cfg.samples)):
            raise ContractError(
                f"expected input ([G, ]{'S, ' * len(rep)}B, {cfg.channels}, {cfg.samples}) with at least "
                f"one group, got {x.shape}"
            )
        return x.data.reshape(*lead, -1, WINDOW).astype(cfg.dtype, copy=False)

    def stem(self, x: Tensor):
        """bn1's train-mode ``autodiff.bn_stats`` of one unreplicated batch, for :meth:`features`:
        all of the pass in front of bn1's affine step, a function of ``x`` and ``conv.w`` alone."""
        if self.conv.w.ndim != 2 or x.ndim != 3:
            raise ContractError("a stem is computed for one unreplicated batch without a group axis")
        return self.bn1.stats(self._rows(x) @ self.conv.w.data, train=True)

    def features(
        self,
        x: Tensor,
        train: bool,
        dropout_rng: np.random.Generator | None = None,
        update_stats: bool = True,
        stem=None,
    ) -> Tensor:
        """The backbone pass, (B, C, T) -> (B, features), recorded as one tape entry.

        A (G, B, C, T) input is G groups, (G, B, features) out;
        :func:`ttalign.autodiff.heads_cross_entropy` takes each group's features
        to its head. Each group is normalized by its own batch statistics
        ("ghost" batch norm), only group 0's fold into the running estimates,
        and one dropout draw of (G, B, features) is G draws of (B, features) in
        turn. Each shared parameter's gradient is the per-group contributions
        folded last group first, ``((g[G-1] + g[G-2]) + ...) + g[0]``, the order
        in which ``backward`` adds G passes recorded in group order; so the
        grouped pass gives those passes' outputs, gradients and running
        statistics bit for bit.

        Inside :func:`replicas` every array carries a replica axis after any
        group axis: ``x`` is (S, B, C, T) or (G, S, B, C, T), the output (S, B,
        features) or (G, S, B, features), and replica r's batches go through
        replica r's parameters. A stacked matmul makes, for each replica, the
        call an unreplicated pass makes, and every reduction runs over the same
        axis in the same order, so each replica's output and gradients are
        bitwise those of an unreplicated model holding its parameters.
        Replicated passes run in eval mode only.

        ``stem``, :meth:`stem` of this ``x``, stands in for that part of the pass,
        bit for bit; only in train mode, unreplicated and ungrouped, with ``conv.w``
        frozen.
        """
        cfg = self.cfg
        conv_w, bn1, mix_w, pos, bn2 = self.conv.w, self.bn1, self.mix.w, self.pos, self.bn2
        rows = self._rows(x)
        lead = rows.shape[:-2]
        if conv_w.ndim > 2 and train:
            raise ContractError("a replicated model runs in eval mode only")
        grouped = len(lead) > conv_w.ndim - 2
        b, ch, hid, d = x.shape[-3], cfg.channels, cfg.hidden, cfg.features
        k = cfg.samples // WINDOW
        wc, g1, wm, g2 = conv_w.data, bn1.gamma.data, mix_w.data, bn2.gamma.data
        if stem is None:
            stem = bn1.stats(rows @ wc, train)
        elif grouped:
            raise ContractError("a precomputed stem serves one batch, not a grouped input")
        elif not train or conv_w.requires_grad or stem[0][0].shape != (*rows.shape[:-1], hid):
            raise ContractError("a precomputed stem serves only a train-mode pass of its own batch with conv.w frozen")
        a1, cache1 = bn1.normalize(stem, train, update_stats)
        np.maximum(a1, 0.0, out=a1)                                              # (B*C*K, H)
        mixed_in = a1.reshape(*lead, b, ch, k, hid).swapaxes(-3, -2).reshape(*lead, b * k, ch * hid)
        if wm.ndim == 2:  # mix.w is shared by every group: one 2-D gemm over all their rows
            mixed_in = mixed_in.reshape(-1, ch * hid)
        h = (mixed_in @ wm).reshape(*lead, b, k, d) + pos.data[..., None, :, :]  # window-position term
        a2, cache2 = bn2.normalize(bn2.stats(h.reshape(*lead, b * k, d), train), train, update_stats)
        np.maximum(a2, 0.0, out=a2)                                              # (B*K, D)
        out = np.add.reduce(a2.reshape(*lead, b, k, d), axis=-2) / k            # (B, D), as .mean
        mask = dropout_mask(out.shape, cfg.dropout, dropout_rng, cfg.dtype) if train else None
        if mask is not None:
            out = out * mask
        inputs = (x, conv_w, bn1.gamma, bn1.beta, mix_w, pos, bn2.gamma, bn2.beta)

        # Repeats, in order, the float operations of the backward through the chain
        # of primitives this pass replaces (reshape, matmul, relu, reshape,
        # transpose, reshape, matmul, reshape, add, reshape, relu, reshape, mean,
        # dropout); each batch norm is one ad.bn_pull, bitwise the chain's in eval
        # mode and the closed form in train mode. A ReLU's mask is read from its
        # output: max(v, 0) > 0 exactly when v > 0.
        # bn1's ReLU mask is read from mixed_in, its output transposed, before the
        # transpose back: a copy between the multiplications changes no bit.
        def pull(g: np.ndarray):
            need = [t.requires_grad for t in inputs]
            if mask is not None:
                g = g * mask
            g = np.repeat(np.expand_dims(g / k, -2), k, axis=-2).reshape(*lead, b * k, d)
            g *= a2 > 0.0
            gh, gg2, gb2 = ad.bn_pull(g, g2, cache2, train, any(need[:6]), need[6], need[7])
            gpos = gh.reshape(*lead, b, k, d).sum(axis=-3) if need[5] else None
            gwm = mixed_in.reshape(*lead, b * k, ch * hid).swapaxes(-1, -2) @ gh if need[4] else None
            gx = gwc = gg1 = gb1 = None
            if any(need[:4]):
                g = gh.reshape(mixed_in.shape[:-1] + (d,)) @ wm.swapaxes(-1, -2)
                g *= mixed_in > 0.0
                g = g.reshape(*lead, b, k, ch, hid).swapaxes(-3, -2).reshape(*lead, b * ch * k, hid)
                g, gg1, gb1 = ad.bn_pull(g, g1, cache1, train, any(need[:2]), need[2], need[3])
                gwc = rows.swapaxes(-1, -2) @ g if need[1] else None
                gx = (g @ wc.swapaxes(-1, -2)).reshape(x.shape) if need[0] else None
            shared = gwc, gg1, gb1, gwm, gpos, gg2, gb2
            if grouped:
                shared = tuple(None if p is None else _fold(p) for p in shared)
            return (gx, *shared)

        return ad.record(Tensor(out), inputs, pull)

    def main_logits(self, feats: Tensor) -> Tensor:
        h = feats
        for i, layer in enumerate(self.head):
            h = layer(h)
            if i < len(self.head) - 1:
                h = ad.relu(h)
        return h

    def heads(self, ssl: list[int]) -> list[list[tuple[Tensor, Tensor]]]:
        """The main head, then the pretext heads ``ssl``, each as its layers' ``(w, b)``
        pairs: the ``heads`` of :func:`ttalign.autodiff.heads_cross_entropy`."""
        heads = [self.head, *([self.ssl_heads[j]] for j in ssl)]
        return [[(layer.w, layer.b) for layer in head] for head in heads]

    def forward_main(
        self,
        x: Tensor,
        train: bool,
        dropout_rng: np.random.Generator | None = None,
        update_stats: bool = True,
        stem=None,
    ) -> Tensor:
        return self.main_logits(self.features(x, train, dropout_rng, update_stats, stem))

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities for a (B, C, T) array, (S, B, C, T) inside
        :func:`replicas`; no state is touched."""
        with ad.no_grad(), ad.fresh_tape():
            return softmax(self.forward_main(Tensor(data), train=False).data)


def _fold(parts: np.ndarray) -> np.ndarray:
    """The sum of per-group contributions ``parts[0], ..., parts[G-1]`` taken last group
    first, ``((parts[G-1] + parts[G-2]) + ...) + parts[0]``: how ``backward`` adds the
    contributions of G passes recorded in group order."""
    if len(parts) == 1:
        return parts[0]
    total = parts[-1] + parts[-2]
    for p in parts[-3::-1]:
        total += p
    return total


def softmax(z: np.ndarray) -> np.ndarray:
    """Float64 probabilities over the last axis of logits: shift by the row max, exp,
    divide by the sum. The logits are cast first, so rows sum to 1 within float64 rounding."""
    z = z.astype(np.float64, copy=False)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# snapshot / restore
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    """Copies of a model's parameter and buffer arenas, with the parameter layout."""

    layout: tuple[tuple[str, tuple[int, ...]], ...]
    param_arena: np.ndarray
    buffer_arena: np.ndarray

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Each parameter by name, as a view into the copied arena."""
        return {name: self.param_arena[s].reshape(shape)
                for (name, shape), s in zip(self.layout, arena_slices(self.layout))}


def snapshot(model: Model) -> Snapshot:
    return Snapshot(model.layout, model.param_arena.copy(), model.buffer_arena.copy())


def restore(model: Model, snap: Snapshot) -> None:
    if snap.layout != model.layout:
        raise ContractError("snapshot parameter set does not match the model")
    np.copyto(model.param_arena, snap.param_arena)
    np.copyto(model.buffer_arena, snap.buffer_arena)


def clone_model(model: Model) -> Model:
    fresh = Model.__new__(Model)
    fresh._build(model.cfg, None)  # zero weights, copied over next; draws no initial weight
    restore(fresh, Snapshot(model.layout, model.param_arena, model.buffer_arena))  # a view, not a copy
    return fresh


@contextmanager
def replicas(model: Model, params: np.ndarray, grads: np.ndarray):
    """Bind ``model``'s parameters to S replicas for the length of the block.

    ``params`` and ``grads`` are (S, P) arenas laid out as ``model.layout``, one
    row per replica. Inside the block they are the model's arenas, every
    parameter is an (S, ...) view into them, passes take a leading replica axis
    (see :meth:`Model.features`) and an optimizer over the model steps every
    replica at once. The buffers stay shared. On exit the model's own arenas and
    views are bound again.
    """
    named = model.named_parameters()
    saved = model.param_arena, model.grad_arena, [(t.data, t.grad) for _, t in named]
    n = params.shape[0]
    for (_, t), (_, shape), s in zip(named, model.layout, arena_slices(model.layout)):
        t.data, t.grad = params[:, s].reshape(n, *shape), grads[:, s].reshape(n, *shape)
    model.param_arena, model.grad_arena = params, grads
    try:
        yield
    finally:
        model.param_arena, model.grad_arena, views = saved
        for (_, t), (data, grad) in zip(named, views):
            t.data, t.grad = data, grad


# ---------------------------------------------------------------------------
# checkpoint file format: magic, version, JSON header, float64 little-endian blobs
# (a float32 model's values, widened exactly; the header's config names the dtype)
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path) -> None:
    header = {
        "config": asdict(model.cfg),
        "params": [[n, list(t.shape)] for n, t in model.named_parameters()],
        "buffers": [[n, list(b.shape)] for n, b in model.named_buffers()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for arena in (model.param_arena, model.buffer_arena):  # every tensor's blob, in header order
            fh.write(arena.astype("<f8").tobytes())
