"""Model components: linear layers, batch norm, dropout, and the shared-backbone
classifier with one main head and a list of pretext heads.

The backbone cuts each channel into consecutive, non-overlapping windows of
``WINDOW`` samples (one reshape) and runs a per-window linear map over them,
followed by batch norm, ReLU, a channel-mixing linear layer, a second norm/ReLU,
and a temporal mean-pool down to one feature vector per input window sequence.
One pass (:meth:`Model.features`) is one tape record. Its hand-written pull
repeats, in order, the float operations of the backward through the chain of
primitives it replaces, so gradients are bitwise those of that chain; the
batch-norm arithmetic is ``autodiff.bn_forward``/``bn_pull``, shared with
:class:`BatchNorm`.

A :class:`Model` keeps its state in three flat float64 arenas: the parameters,
their grads, and the batch-norm running statistics. Every parameter's ``data``
and ``grad`` and every running-stat buffer is a view into one of them, so
snapshot, restore, clone and zero-grad are each one array operation, and an
optimizer can step over the whole model at once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

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
    identically-zero gradient.
    """

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator, bias: bool = True):
        self.w = Tensor(rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in), requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.matmul(x, self.w)
        return ad.add(h, self.b) if self.b is not None else h

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = [(f"{prefix}.w", self.w)]
        if self.b is not None:
            out.append((f"{prefix}.b", self.b))
        return out


class BatchNorm:
    """Per-feature batch normalization over 2-D (batch, features) inputs.

    Train mode normalizes by the batch mean and biased batch variance and, unless
    suppressed, folds them into the running statistics with
    ``new = (1 - momentum) * old + momentum * batch``. Eval mode normalizes by the
    stored running statistics and never mutates them.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, features: int):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)

    def __call__(self, x: Tensor, train: bool, update_stats: bool = True) -> Tensor:
        out, mu, var = ad.batch_norm(x, self.gamma, self.beta, self.eps, self._running(train))
        if train and update_stats:
            self._update_running(mu, var)
        return out

    def normalize(self, xd: np.ndarray, train: bool, update_stats: bool = True):
        """:meth:`__call__` on a bare array, for a fused pass: records nothing and
        returns ``autodiff.bn_forward``'s output and cache."""
        out, cache, mu, var = ad.bn_forward(xd, self.gamma.data, self.beta.data, self.eps, self._running(train))
        if train and update_stats:
            self._update_running(mu, var)
        return out, cache

    def _running(self, train: bool) -> tuple[np.ndarray, np.ndarray] | None:
        return None if train else (self.running_mean, self.running_var)

    def _update_running(self, mu: np.ndarray, var: np.ndarray) -> None:
        m = self.momentum
        # in place: inside a Model these buffers are views into its arena
        self.running_mean[...] = (1.0 - m) * self.running_mean + m * mu
        self.running_var[...] = (1.0 - m) * self.running_var + m * var


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout multiplier of ``shape``; None (identity) without a generator or when p == 0."""
    if rng is None or p == 0.0:
        return None
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {p}")
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when no generator is supplied or p == 0."""
    mask = dropout_mask(x.shape, p, rng)
    return x if mask is None else ad.mul(x, Tensor(mask))


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

    def __post_init__(self):
        if self.head_layers not in (1, 2, 3):
            raise ConfigError(f"head_layers must be 1, 2, or 3, got {self.head_layers}")
        if self.samples <= 0 or self.samples % WINDOW != 0:
            raise ConfigError(f"samples must be a positive multiple of {WINDOW}, got {self.samples}")


def _arena(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy ``arrays`` back to back into one flat array; returns it and a view of it shaped like each."""
    flat = np.concatenate([a.ravel() for a in arrays])
    views, lo = [], 0
    for a in arrays:
        views.append(flat[lo:lo + a.size].reshape(a.shape))
        lo += a.size
    return flat, views


class Model:
    """Shared backbone + main head + pretext heads.

    All heads read the same feature vector, so updating a pretext head never moves
    the main head's logits for a fixed backbone.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.init_seed)
        self.conv = Linear(WINDOW, cfg.hidden, rng, bias=False)
        self.bn1 = BatchNorm(cfg.hidden)
        self.mix = Linear(cfg.channels * cfg.hidden, cfg.features, rng, bias=False)
        # learned window-position term; zero-initialized so a fresh model's
        # features are position-uniform until training moves it
        self.pos = Tensor(np.zeros((cfg.samples // WINDOW, cfg.features)), requires_grad=True)
        self.bn2 = BatchNorm(cfg.features)
        self.head: list[Linear] = []
        for i in range(cfg.head_layers):
            fan_out = cfg.n_main if i == cfg.head_layers - 1 else cfg.features
            self.head.append(Linear(cfg.features, fan_out, rng))
        self.ssl_heads = [Linear(cfg.features, d, rng) for d in cfg.ssl_dims]

        named = self.named_parameters()
        self.layout = tuple((n, t.shape) for n, t in named)
        self.param_arena, datas = _arena([t.data for _, t in named])
        self.grad_arena, grads = _arena([t.grad for _, t in named])
        for (_, t), data, grad in zip(named, datas, grads):
            t.data, t.grad = data, grad
        self.buffer_arena, buffers = _arena([b for _, b in self.named_buffers()])
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

    def features(
        self,
        x: Tensor,
        train: bool,
        dropout_rng: np.random.Generator | None = None,
        update_stats: bool = True,
    ) -> Tensor:
        """The backbone pass, (B, C, T) -> (B, features), recorded as one tape entry."""
        cfg = self.cfg
        if x.ndim != 3 or x.shape[1] != cfg.channels or x.shape[2] != cfg.samples:
            raise ContractError(
                f"expected input (B, {cfg.channels}, {cfg.samples}), got {x.shape}"
            )
        b, ch, hid, d = x.shape[0], cfg.channels, cfg.hidden, cfg.features
        k = cfg.samples // WINDOW
        conv_w, bn1, mix_w, pos, bn2 = self.conv.w, self.bn1, self.mix.w, self.pos, self.bn2
        wc, g1, wm, g2 = conv_w.data, bn1.gamma.data, mix_w.data, bn2.gamma.data
        # (B, C, K * W) reshapes to (B * C * K, W): each row is one run of consecutive samples
        rows = x.data.reshape(b * ch * k, WINDOW)
        a1, cache1 = bn1.normalize(rows @ wc, train, update_stats)
        np.maximum(a1, 0.0, out=a1)                                              # (B*C*K, H)
        mixed_in = a1.reshape(b, ch, k, hid).transpose(0, 2, 1, 3).reshape(b * k, ch * hid)
        h = (mixed_in @ wm).reshape(b, k, d) + pos.data                          # window-position term
        a2, cache2 = bn2.normalize(h.reshape(b * k, d), train, update_stats)
        np.maximum(a2, 0.0, out=a2)                                              # (B*K, D)
        out = a2.reshape(b, k, d).mean(axis=1)                                   # (B, D)
        mask = dropout_mask(out.shape, cfg.dropout, dropout_rng) if train else None
        if mask is not None:
            out = out * mask
        inputs = (x, conv_w, bn1.gamma, bn1.beta, mix_w, pos, bn2.gamma, bn2.beta)

        # Repeats, in order, the float operations of the backward through the chain
        # of primitives this pass replaces (reshape, matmul, batch norm, relu,
        # reshape, transpose, reshape, matmul, reshape, add, reshape, batch norm,
        # relu, reshape, mean, dropout), so gradients are bitwise equal to it. A
        # ReLU's mask is read from its output: max(v, 0) > 0 exactly when v > 0.
        def pull(g: np.ndarray):
            need = [t.requires_grad for t in inputs]
            if mask is not None:
                g = g * mask
            g = np.broadcast_to(np.expand_dims(g, 1) / k, (b, k, d)).copy().reshape(b * k, d)
            g *= a2 > 0.0
            gh, gg2, gb2 = ad.bn_pull(g, g2, cache2, train, any(need[:6]), need[6], need[7])
            gpos = gh.reshape(b, k, d).sum(axis=0) if need[5] else None
            gwm = mixed_in.T @ gh if need[4] else None
            gx = gwc = gg1 = gb1 = None
            if any(need[:4]):
                g = (gh @ wm.T).reshape(b, k, ch, hid).transpose(0, 2, 1, 3).reshape(b * ch * k, hid)
                g *= a1 > 0.0
                g, gg1, gb1 = ad.bn_pull(g, g1, cache1, train, any(need[:2]), need[2], need[3])
                gwc = rows.T @ g if need[1] else None
                gx = (g @ wc.T).reshape(x.shape) if need[0] else None
            return gx, gwc, gg1, gb1, gwm, gpos, gg2, gb2

        return ad.record(Tensor(out), inputs, pull)

    def main_logits(self, feats: Tensor) -> Tensor:
        h = feats
        for i, layer in enumerate(self.head):
            h = layer(h)
            if i < len(self.head) - 1:
                h = ad.relu(h)
        return h

    def ssl_logits(self, index: int, feats: Tensor) -> Tensor:
        if not 0 <= index < len(self.ssl_heads):
            raise ContractError(f"no pretext head at index {index}")
        return self.ssl_heads[index](feats)

    def forward_main(
        self,
        x: Tensor,
        train: bool,
        dropout_rng: np.random.Generator | None = None,
        update_stats: bool = True,
    ) -> Tensor:
        return self.main_logits(self.features(x, train, dropout_rng, update_stats))

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities for a (B, C, T) array; no state is touched."""
        with ad.no_grad(), ad.fresh_tape():
            return ad.softmax(self.forward_main(Tensor(data), train=False), axis=1).data


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
        out, lo = {}, 0
        for name, shape in self.layout:
            size = int(np.prod(shape))
            out[name] = self.param_arena[lo:lo + size].reshape(shape)
            lo += size
        return out


def snapshot(model: Model) -> Snapshot:
    return Snapshot(model.layout, model.param_arena.copy(), model.buffer_arena.copy())


def restore(model: Model, snap: Snapshot) -> None:
    if snap.layout != model.layout:
        raise ContractError("snapshot parameter set does not match the model")
    np.copyto(model.param_arena, snap.param_arena)
    np.copyto(model.buffer_arena, snap.buffer_arena)


def clone_model(model: Model) -> Model:
    fresh = Model(model.cfg)
    restore(fresh, Snapshot(model.layout, model.param_arena, model.buffer_arena))  # a view, not a copy
    return fresh


# ---------------------------------------------------------------------------
# checkpoint file format: magic, version, JSON header, float64 little-endian blobs
# ---------------------------------------------------------------------------

def _header_blob(model: Model) -> bytes:
    header = {
        "config": asdict(model.cfg),
        "params": [[n, list(t.shape)] for n, t in model.named_parameters()],
        "buffers": [[n, list(b.shape)] for n, b in model.named_buffers()],
    }
    return json.dumps(header, sort_keys=True).encode()


def save_checkpoint(model: Model, path) -> None:
    blob = _header_blob(model)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for arena in (model.param_arena, model.buffer_arena):  # every tensor's blob, in header order
            fh.write(arena.astype("<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The file must be exactly such a checkpoint: a header that rebuilds to itself
    from its own config, then one float64 blob per tensor and nothing after. Any
    other file (bad magic, short or malformed header, truncated blob, trailing
    bytes, non-finite values) raises ContractError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ContractError(f"{path}: not a model checkpoint (bad magic)")
    if len(raw) < 12:
        raise ContractError(f"{path}: truncated checkpoint header")
    version, hlen = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    blob = raw[12:12 + hlen]
    try:
        cfg_dict = dict(json.loads(blob.decode())["config"])
        cfg_dict["ssl_dims"] = tuple(cfg_dict["ssl_dims"])
        model = Model(ModelConfig(**cfg_dict))
    except (ValueError, KeyError, TypeError) as exc:
        raise ContractError(f"{path}: malformed checkpoint header ({type(exc).__name__}: {exc})") from None
    if blob != _header_blob(model):
        raise ContractError(f"{path}: checkpoint header does not match the model its config builds")
    arenas = (model.param_arena, model.buffer_arena)
    offset = 12 + hlen
    size = offset + 8 * sum(a.size for a in arenas)
    if len(raw) != size:
        what = "truncated" if len(raw) < size else "has trailing bytes"
        raise ContractError(f"{path}: checkpoint {what} ({len(raw)} bytes, expected {size})")
    for arena in arenas:
        np.copyto(arena, np.frombuffer(raw, dtype="<f8", count=arena.size, offset=offset))
        offset += 8 * arena.size
        if not np.all(np.isfinite(arena)):
            raise ContractError(f"{path}: checkpoint holds non-finite values")
    return model
