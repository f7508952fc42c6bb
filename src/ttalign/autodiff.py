"""Minimal reverse-mode automatic differentiation on float32 or float64 numpy arrays.

Every primitive records a pull-back closure on the active :class:`Tape`. Calling
:func:`backward` on a scalar loss walks the tape in reverse execution order (a valid
reverse-topological order, since an op can only consume already-built tensors) and
accumulates adjoints into the ``grad`` buffers of the leaves: tensors created with
``requires_grad=True``. Recorded intermediates are marked ``requires_grad`` but carry
``grad=None``; their adjoints live only inside ``backward``. A pull-back skips the
contribution of any input that does not require grad.

Softmax cross-entropy and the mean entropy are fused primitives: one record each,
where a chain of general primitives would take up to nine. :func:`heads_cross_entropy`
takes the (G, B, features) features of a grouped pass, G = 1 for a batch alone,
through each group's linear head to its cross-entropy and sums the weighted
losses, in one record where a chain takes sixteen for three one-layer heads.
Layers elsewhere record their own fused ops through :func:`record`;
``nn.Model.features`` records a whole backbone pass as one, with the batch-norm
arithmetic of :func:`bn_stats`, :func:`bn_affine` and :func:`bn_pull`, whose
train-mode pull is the closed-form backward. Their column sums are
:func:`colsum`: ``np.einsum`` over the rows in order, bitwise
``np.add.reduce``. Train-mode batch statistics keep their row axis, (1,
features) for a batch and (G, 1, features) for a group stack, each group with
its own.
:func:`grad_check` compares tape gradients with central differences.

Gradients accumulate across repeated ``backward`` calls; training loops are expected
to zero parameter grads between steps. Every primitive computes in the dtype of
its inputs and is bitwise deterministic for a fixed sequence of operations.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray


class Tensor:
    """A float32 or float64 array (anything else becomes float64) plus an optional
    gradient buffer of the same dtype."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = np.zeros_like(self.data) if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0


class Tape:
    """Ordered record of executed primitives for one logical execution stream.

    Each record is ``(out, inputs, pull)`` where ``pull(out_adjoint)`` returns one
    gradient contribution per input (or None for non-differentiable inputs).
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable[[Array], Sequence[Array | None]]]] = []

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], pull) -> None:
        self._records.append((out, inputs, pull))

    def __len__(self) -> int:
        return len(self._records)


_TAPE_STACK: list[Tape] = [Tape()]
_GRAD_ENABLED: list[bool] = [True]


def active_tape() -> Tape:
    return _TAPE_STACK[-1]


@contextmanager
def fresh_tape():
    """Run a block on its own tape (independent execution stream)."""
    t = Tape()
    _TAPE_STACK.append(t)
    try:
        yield t
    finally:
        _TAPE_STACK.pop()


@contextmanager
def no_grad():
    """Disable recording inside the block; forwards only."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def record(out: Tensor, inputs: tuple[Tensor, ...], pull) -> Tensor:
    """Put ``out`` on the active tape with its ``pull``, if recording is on and an input needs grad.

    ``pull(out_adjoint)`` returns one contribution per input, None where an input
    needs none. Primitives here and fused layers elsewhere record through this hook.
    Returns ``out``.
    """
    if _GRAD_ENABLED[-1] and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        active_tape().record(out, inputs, pull)
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf the loss depends on.

    Only leaves own a ``grad`` buffer; intermediates keep ``grad=None`` and their
    adjoints are dropped on return. The loss must be scalar and the active tape
    non-empty. Repeated calls without zeroing add another full gradient to each leaf
    (accumulate semantics).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = active_tape()
    if not tape._records:
        raise ContractError("backward called with an empty tape")
    adjoint: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for out, inputs, pull in reversed(tape._records):
        g = adjoint.pop(id(out), None)  # complete: every consumer was recorded later
        if g is None:
            continue
        for t, contrib in zip(inputs, pull(g)):
            if contrib is None or not t.requires_grad:
                continue
            key = id(t)
            if key in adjoint:
                adjoint[key] = adjoint[key] + contrib
            else:
                adjoint[key] = contrib
                holders[key] = t
    for key, g in adjoint.items():
        t = holders[key]
        if t.grad is not None:
            t.grad += g


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(name: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = Tensor(a.data + b.data)

    def pull(g: Array):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        return ga, _unbroadcast(g, b.data.shape) if b.requires_grad else None

    return record(out, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out = Tensor(a.data - b.data)

    def pull(g: Array):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        return ga, _unbroadcast(-g, b.data.shape) if b.requires_grad else None

    return record(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def pull(g: Array):
        ga = _unbroadcast(g * bd, ad.shape) if a.requires_grad else None
        return ga, _unbroadcast(g * ad, bd.shape) if b.requires_grad else None

    return record(out, (a, b), pull)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)

    def pull(g: Array):
        return (g * s,)

    return record(out, (a,), pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` of two matrices, or of two stacks of them with the same leading axes."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or sa[:-2] != sb[:-2] or len(sa) != len(sb) or sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: shapes {sa} @ {sb} do not conform")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def pull(g: Array):
        ga = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
        return ga, ad.swapaxes(-1, -2) @ g if b.requires_grad else None

    return record(out, (a, b), pull)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0.0

    def pull(g: Array):
        return (g * mask,)

    return record(out, (a,), pull)


def sum_(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    shape = a.data.shape

    def pull(g: Array):
        return (np.full(shape, g),)

    return record(out, (a,), pull)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape

    def pull(g: Array):
        return (g.reshape(orig),)

    return record(out, (a,), pull)


# ---------------------------------------------------------------------------
# fused layers: one tape record each, with a hand-written pull
# ---------------------------------------------------------------------------

def colsum(x: Array, y: Array | None = None) -> Array:
    """The sum over axis -2 of ``x``, or of ``x * y``: bitwise ``np.add.reduce(.., axis=-2)``.

    On C-ordered input with two or more columns, ``np.einsum``'s strided loop adds
    the rows in order, as ``add.reduce`` does, about three times faster at
    (2048, 16); the product form rounds each product before adding it and builds
    no product array. A single column or other layout goes to ``add.reduce``,
    because einsum's contiguous loop there adds in another order.
    """
    if x.shape[-1] > 1 and x.flags.c_contiguous and (y is None or y.flags.c_contiguous):
        return np.einsum("...ij->...j", x) if y is None else np.einsum("...ij,...ij->...j", x, y)
    return np.add.reduce(x if y is None else x * y, axis=-2)


def bn_stats(
    xd: Array, eps: float, running: tuple[Array, Array] | None = None
) -> tuple[tuple[Array, Array], Array, Array]:
    """Batch norm's forward up to its affine step, on arrays: ``(cache, mean, var)``.

    Train mode (``running=None``) normalizes by the batch mean and biased variance,
    otherwise by the constant ``running = (mean, var)``. ``cache`` is
    ``(xhat, s)``, what :func:`bn_pull` needs, with ``s = sqrt(var + eps)``; the
    centred input is divided by ``s`` in place, so no other (n, features) array
    stays alive. ``xd`` is ``(..., n, features)``: with ``running`` given, a
    stack of batches; in train mode a batch, or a group stack each normalized by
    its own statistics, bit for bit those of a separate call on that group.
    Batch statistics are :func:`colsum` over n, divided by n, which is bitwise
    ``.mean(axis=0)``, and keep the row axis: ``(..., 1, features)``.
    """
    if running is None:
        n = xd.shape[-2]
        mu = (colsum(xd) / n)[..., None, :]
        c = xd - mu
        var = (colsum(c, c) / n)[..., None, :]
    else:
        mu, var = running
        c = xd - mu
    s = np.sqrt(var + eps)
    c /= s
    return (c, s), mu, var


def bn_affine(xhat: Array, gd: Array, bd: Array) -> Array:
    """``xhat * gamma + beta``; for a stacked ``xhat``, one affine pair per stacked batch."""
    out = xhat * gd[..., None, :]
    out += bd[..., None, :]
    return out


def bn_pull(
    g: Array, gd: Array, cache: tuple[Array, Array], train: bool,
    need_x: bool, need_gamma: bool, need_beta: bool,
) -> tuple[Array | None, Array | None, Array | None]:
    """Batch norm's backward: the contributions for ``(x, gamma, beta)``; None where not needed.

    The beta and gamma contributions are the column sums ``colsum(g)`` and
    ``colsum(g, xhat)``. In eval mode the statistics are constants and the x
    contribution is ``(g * gamma) / s``. In train mode it is the closed form
    (Ioffe & Szegedy, arXiv:1502.03167)
    ``(g - xhat * colsum(g, xhat) / n - colsum(g) / n) * (gamma / s)``, which
    reuses those two sums. ``g`` is ``(..., n, features)``, as in :func:`bn_stats`;
    in train mode a group stack's groups are each pulled by their own sums bit
    for bit as a separate call would, and the gamma and beta contributions come
    per group, (G, features), for the caller to fold.
    """
    xhat, s = cache
    sums = train and need_x
    gb = colsum(g) if need_beta or sums else None
    gg = colsum(g, xhat) if need_gamma or sums else None
    gx = None
    if need_x and not train:
        gx = (g * gd[..., None, :]) / s
    elif need_x:
        n = g.shape[-2]
        gx = xhat * (gg[..., None, :] / n)
        np.subtract(g, gx, out=gx)
        gx -= gb[..., None, :] / n
        gx *= gd / s
    return gx, gg if need_gamma else None, gb if need_beta else None


def _log_softmax(z: Array) -> tuple[Array, Array]:
    """Log-softmax over the last axis and its exponential."""
    shifted = z - z.max(axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return lsm, np.exp(lsm)


def _picked_log_softmax(z: Array, labels) -> tuple[Array, Array, tuple[Array, Array]]:
    """``(picked, p, cells)`` for a cross-entropy and its pull: each row's
    log-probability of its label, the softmax, and the flat (row, label) cells picked."""
    labels = np.asarray(labels, dtype=np.int64)
    if z.ndim < 2 or labels.shape != z.shape[:-1]:
        raise ShapeError(f"cross_entropy: logits {z.shape} with labels {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= z.shape[-1]):
        raise ContractError("cross_entropy: label out of range")
    lsm, p = _log_softmax(z)
    cells = (np.arange(labels.size), labels.reshape(-1))  # each row's label, rows flattened
    picked = lsm.reshape(-1, z.shape[-1])[cells].reshape(labels.shape)
    return picked, p, cells


def _cross_entropy_pull(g: Array, z: Array, p: Array, cells: tuple[Array, Array], n: int) -> Array:
    """The logits' adjoint of ``picked.sum(axis=-1) * (-1/n)`` for the loss adjoint ``g``.

    Repeats, in order, the float operations of the backward through the chain it
    replaces (log_softmax, take_per_row, sum, scale), so gradients are bitwise equal.
    """
    v = g * (-1.0 / n)
    onehot = np.zeros(z.shape, z.dtype)
    onehot.reshape(-1, z.shape[-1])[cells] = np.repeat(v, n)
    return onehot - p * v[..., None, None]


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Softmax cross-entropy of (n, classes) logits, mean over the n rows:
    ``picked.sum(axis=-1) * (-1/n)`` of each row's log-probability of its label.

    A stack of (S, n, classes) logits with (S, n) labels gives the S losses.
    """
    z = logits.data
    picked, p, cells = _picked_log_softmax(z, labels)
    n = picked.shape[-1]

    def pull(g: Array):
        return (_cross_entropy_pull(g, z, p, cells, n),)

    return record(Tensor(picked.sum(axis=-1) * (-1.0 / n)), (logits,), pull)


def heads_cross_entropy(
    feats: Tensor,
    heads: Sequence[Sequence[tuple[Tensor, Tensor]]],
    labels: Sequence,
    weights: Sequence[float],
) -> tuple[Tensor, list[float]]:
    """Each group's head and softmax cross-entropy, ``CE0 + w1 * CE1 + ...``, as one record.

    ``feats`` is a (G, B, features) group stack, G = 1 for a batch alone. Group
    i goes through ``heads[i]``, its linear layers as ``(w, b)`` pairs with a
    ReLU between consecutive ones, and is scored against ``labels[i]``; ``weights`` holds one weight per group after the first.
    Returns the loss and each group's unweighted cross-entropy as logged,
    ``-picked.mean()`` from the loss's own log-softmax; it agrees bit for bit
    with the group's :func:`cross_entropy` only when B is a power of two.

    The record stands for a chain of ``matmul``, ``add``, ``relu``,
    ``cross_entropy``, ``scale`` and ``add`` records over per-group slices of
    ``feats``, and gives its value and gradients bit for bit.
    """
    if feats.ndim != 3 or not (len(heads) == len(labels) == feats.shape[0] == 1 + len(weights)):
        raise ContractError(
            f"heads_cross_entropy: features {feats.shape} with {len(heads)} heads, "
            f"{len(labels)} label sets and {len(weights)} weights"
        )
    weights = [float(w) for w in weights]
    inputs = [feats]
    groups = []  # per group: (layer inputs, ReLU masks, logits, softmax, picked cells)
    loss = None
    logged = []
    for i, layers in enumerate(heads):
        h = feats.data[i]
        acts, masks = [], []
        for k, (w, b) in enumerate(layers):
            if k:
                masks.append(h > 0.0)
                h = np.maximum(h, 0.0)
            acts.append(h)
            h = h @ w.data + b.data
            inputs += [w, b]
        picked, p, cells = _picked_log_softmax(h, labels[i])
        term = picked.sum(axis=-1) * (-1.0 / len(picked))
        loss = term if loss is None else loss + term * weights[i - 1]
        logged.append(float(-picked.mean()))
        groups.append((acts, masks, h, p, cells))
    out = Tensor(loss)

    # Repeats, in order, the float operations of the chain's pulls: scale's
    # ``g * w``, the cross-entropy's, and per layer add's bias ``sum(axis=0)``,
    # matmul's two products and relu's mask. Each group's feature adjoint fills
    # its slice, where the chain adds it into zeros: only the sign of a zero can
    # differ, and backward adds every leaf's adjoint into a buffer of +0.0, so no
    # -0.0 reaches a grad. Every input gets a contribution; backward drops those
    # of inputs that need none.
    def pull(g: Array):
        gfeats = np.empty(feats.shape, feats.data.dtype)
        contribs = []
        for i, (layers, (acts, masks, z, p, cells)) in enumerate(zip(heads, groups)):
            gz = _cross_entropy_pull(g if i == 0 else g * weights[i - 1], z, p, cells, len(z))
            parts = []
            for k in range(len(layers) - 1, -1, -1):
                w = layers[k][0].data
                parts += [gz.sum(axis=0), acts[k].swapaxes(-1, -2) @ gz]
                gz = gz @ w.swapaxes(-1, -2)
                if k:
                    gz = gz * masks[k - 1]
            contribs += parts[::-1]
            gfeats[i] = gz
        return (gfeats, *contribs)

    return record(out, tuple(inputs), pull), logged


def mean_entropy(logits: Tensor) -> Tensor:
    """Mean over rows of the entropy (nats) of softmax(logits); the Tent objective."""
    lsm, p = _log_softmax(logits.data)
    n = logits.shape[0]
    out = Tensor((p * lsm).sum() * (-1.0 / n))

    # Repeats, in order, the float operations of the backward through the chain it
    # replaces (log_softmax, exp, mul, sum, scale), so gradients are bitwise equal.
    def pull(g: Array):
        gm = g * (-1.0 / n)
        gl = gm * p + gm * lsm * p
        return (gl - p * gl.sum(axis=1, keepdims=True),)

    return record(out, (logits,), pull)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(
    fragment: Callable[[Tensor], Tensor],
    x: Tensor,
    params: Sequence[Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central finite differences.

    ``fragment(x)`` must build a scalar loss from the current values of ``params``.
    The fragment is evaluated twice up front; any bitwise difference means it is not
    deterministic and the check refuses to run. It refuses as well a parameter whose
    ``data`` does not flatten to a view (a strided one, such as a parameter inside
    ``nn.replicas``), since a perturbation of the flat copy would never reach the
    fragment. Relative error per parameter entry is |a - n| / max(|a|, |n|, 1e-12).
    """
    flats = [p.data.reshape(-1) for p in params]
    for i, (p, flat) in enumerate(zip(params, flats)):
        if not np.shares_memory(flat, p.data):
            raise ContractError(f"grad_check cannot perturb params[{i}] of shape {p.shape}: "
                                "its data does not flatten to a view")
    with no_grad():
        probe_a = fragment(x).data.copy()
        probe_b = fragment(x).data.copy()
    if probe_a.size != 1:
        raise ContractError(f"grad_check fragment must return a scalar, got shape {probe_a.shape}")
    if not np.array_equal(probe_a, probe_b):
        raise ContractError("grad_check fragment is not deterministic between evaluations")

    for p in params:
        p.zero_grad()
    with fresh_tape():
        loss = fragment(x)
        backward(loss)
        analytic = [p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for flat, ga in zip(flats, analytic):
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + epsilon
                up = fragment(x).item()
                flat[i] = keep - epsilon
                down = fragment(x).item()
                flat[i] = keep
                numeric = (up - down) / (2.0 * epsilon)
                denom = max(abs(gflat[i]), abs(numeric), 1e-12)
                worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
