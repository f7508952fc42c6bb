"""Stage-II test-time adaptation.

Two adaptation routes over a fine-tuned model, plus a no-op baseline:

* ``ttt_ssl`` — per-sample self-supervised test-time training: for each test epoch,
  take one or more gradient steps on the pretext loss built from that epoch alone
  (a single plain-gradient-descent step is exactly ``theta' = theta - lr * g``),
  then predict. Episodic by default: every epoch adapts from the same weights, so
  predictions are independent of test-set order. Episodes never interact (batch
  norm runs in eval mode), so a call of n epochs runs them in the fewest blocks of
  at most ``TTT_BLOCK`` epochs, of sizes that differ by at most one
  (:func:`_ttt_bounds`), one parameter replica per epoch (:func:`nn.replicas`),
  the pretext branches as the groups of one stacked pass per step; each epoch's
  numbers are bitwise those of adapting it alone, one pass per branch, whatever
  block it lands in. Online mode
  carries one model from epoch to epoch. Each epoch's pretext labels are keyed by
  a content hash of the sample, so the same epoch always gets the same views: they
  are the draws of ``default_rng([seed, hash])``, one generator per epoch
  (:func:`content_labels`).

* ``tent`` — entropy minimisation on batches: forward in batch-statistics mode,
  minimise the mean prediction entropy (nats) by plain gradient descent on the
  model's parameter arena, in which only the batch-norm affine parameters carry
  a gradient: for the length of the call everything else has none (the backward
  skips it), so its grad stays exactly zero and it is frozen bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, check_seed
from .nn import Model, arena_slices, clone_model, replicas, softmax
from .optim import SGD, check_lr, check_optimizer, make_optimizer
from .pretext import TaskSpec, active_branches, apply_view, view_classes

ADAPT_METHODS = ("none", "ttt_ssl", "tent")

# Episodic TTT adapts at most this many test epochs at once, one parameter replica each.
TTT_BLOCK = 32


def entropy(p, axis: int = -1):
    """Shannon entropy in nats of probability vectors; 0 * log 0 == 0.

    Validates that ``p`` is non-negative and sums to one along ``axis``.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-12):
        raise ContractError("entropy: negative probabilities")
    sums = p.sum(axis=axis)
    if not (np.abs(sums - 1.0) <= 1e-6).all():  # a NaN or inf sum fails the comparison
        raise ContractError("entropy: rows do not sum to 1")
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(safe)).sum(axis=axis)


def content_labels(X: np.ndarray, seed: int, classes: list[int]) -> np.ndarray:
    """The (n, len(classes)) pretext labels of the n epochs ``X``, each keyed by its bytes.

    Row i holds ``rng.integers(c)`` for each c of ``classes`` in order, where
    ``rng = np.random.default_rng([seed, key])`` and ``key`` is the first 16 bytes,
    little-endian, of the sha256 of epoch i's float64 values in C order. Identical
    epochs get identical labels, and per-sample adaptation commutes with any
    reordering of the test set.
    """
    labels = np.empty((len(X), len(classes)), np.int64)
    for i, x in enumerate(X):
        digest = hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64)).digest()  # the buffer, uncopied
        rng = np.random.default_rng([seed, int.from_bytes(digest[:16], "little")])
        labels[i] = [rng.integers(c) for c in classes]
    return labels


def _delta_norms(d: np.ndarray, layout, names=None) -> np.ndarray:
    """The L2 norm of each row of the (S, P) parameter changes ``d`` laid out as ``layout``,
    its squares summed one parameter at a time, as the dots of a per-tensor norm.

    Only the parameters in ``names`` (every one when None) are summed, in layout
    order: a caller that knows the others did not move skips their dots, which
    would each add exactly +0.0.
    """
    sq = np.zeros(len(d))
    for (name, _), s in zip(layout, arena_slices(layout)):
        if names is None or name in names:
            sq += (d[:, None, s] @ d[:, s, None])[:, 0, 0]
    return np.sqrt(sq)


def _raise_if_diverged(strategy: str, probs: np.ndarray, delta: np.ndarray | float) -> None:
    """ContractError unless an adaptation's probabilities and parameter change are finite."""
    if not (np.isfinite(probs).all() and np.isfinite(delta).all()):
        raise ContractError(f"{strategy} adaptation diverged: non-finite probabilities or parameter change")


# ---------------------------------------------------------------------------
# per-sample self-supervised test-time training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TttConfig:
    steps: int = 1
    lr: float = 1e-5
    optimizer: str = "sgd"        # plain GD is the single-step update rule
    online: bool = False          # carry adapted weights across samples
    ssl_mode: str = "both_weighted"  # or "first_only"
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        check_lr(self.lr, "lr")
        if self.ssl_mode not in ("both_weighted", "first_only"):
            raise ConfigError(f"unknown ssl_mode '{self.ssl_mode}'")
        check_optimizer(self.optimizer)
        check_seed(self.seed, "ttt seed")


def _ttt_bounds(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) index bounds of the fewest blocks of at most ``TTT_BLOCK`` epochs
    that cover ``n`` epochs, their sizes differing by at most one, the larger first."""
    blocks = -(-n // TTT_BLOCK)
    size, extra = divmod(n, max(blocks, 1))  # no block, and no division by zero, at n = 0
    ends = accumulate([size + 1] * extra + [size] * (blocks - extra), initial=0)
    return list(pairwise(ends))


def _ttt_block(
    work: Model, start: np.ndarray, X: np.ndarray, spec: TaskSpec, cfg: TttConfig
) -> tuple[np.ndarray, list[dict]]:
    """Adapt replica i of ``work`` on epoch ``X[i]`` alone, for every i at once, then predict.

    ``work`` is bound to one parameter replica per epoch of the (s, C, T) block
    (:func:`nn.replicas`); each starts from the parameters ``start``. The block's
    labels come from one :func:`content_labels` call: epoch i's are drawn by its own
    generator, keyed by its bytes, in branch order. Each pretext branch builds the
    block's views in one transform.
    The branches are the groups of one (G, s, 1, C, T) stack, so a step records
    one pass, one ``autodiff.heads_cross_entropy`` and the replicas' sum, then
    steps all replicas. Replicas never interact and the groups fold in branch
    order, so each epoch's probabilities and record are bitwise those of
    adapting it alone, one pass per branch.
    """
    first_only = cfg.ssl_mode == "first_only"
    branches = [(0, spec.ssl_tasks[0], 1.0)] if first_only else active_branches(spec, spec.weights)
    if not branches:
        raise ConfigError("no active pretext branch to adapt on (all weights zero)")
    classes = [view_classes(name, spec) for _, name, _ in branches]
    labels = content_labels(X, cfg.seed, classes)
    views = [apply_view(name, X, y, spec) for (_, name, _), y in zip(branches, labels.T)]
    views = Tensor(np.stack(views, dtype=work.cfg.dtype)[:, :, None])  # in the model's dtype: no cast copy
    heads = work.heads([j for j, _, _ in branches])[1:]  # the pretext heads, without the main head
    weights = [w for _, _, w in branches]
    np.copyto(work.param_arena, start)
    opt = make_optimizer(cfg.optimizer, [work], cfg.lr)
    losses = np.empty((len(X), cfg.steps))
    for step in range(cfg.steps):
        with ad.fresh_tape():
            feats = work.features(views, train=False)
            loss, _ = ad.heads_cross_entropy(feats, heads, labels.T[..., None], weights)  # (G, s, 1)
            if not np.isfinite(loss.data).all():
                raise ContractError("non-finite pretext loss during adaptation")
            opt.zero_grad()
            ad.backward(ad.sum_(loss))  # replica r's loss reaches only replica r's parameters
            opt.step()
        losses[:, step] = loss.data
    probs = work.predict_proba(X[:, None])[:, 0]
    # the grads are spent: they take the parameter change
    delta = _delta_norms(np.subtract(work.param_arena, start, out=work.grad_arena), work.layout)
    _raise_if_diverged("ttt_ssl", probs, delta)
    return probs, [{"ssl_loss": row, "param_delta": dr} for row, dr in zip(losses.tolist(), delta.tolist())]


def ttt_ssl_adapt_predict(
    model: Model, x: np.ndarray, spec: TaskSpec, cfg: TttConfig
) -> tuple[np.ndarray, dict]:
    """Adapt ``model`` in place on one test epoch's pretext loss, then predict it.

    Returns the class-probability row and a record holding the pretext loss at every
    step (before that step's update) plus the L2 norm of the parameter change. The
    model is left in its adapted state, for inspection or reuse (its grads hold
    scratch); :func:`run_adaptation` adapts a copy. A non-finite pretext loss,
    gradient, probability or parameter change raises ContractError.
    """
    if x.ndim != 2 or x.shape != (model.cfg.channels, model.cfg.samples):
        raise ContractError(
            f"expected one ({model.cfg.channels}, {model.cfg.samples}) epoch, got {x.shape}"
        )
    start = model.param_arena.copy()
    with replicas(model, model.param_arena[None], model.grad_arena[None]):  # one replica: the model itself
        probs, (record,) = _ttt_block(model, start, x[None], spec, cfg)
    return probs[0], record


# ---------------------------------------------------------------------------
# entropy minimisation on batch-norm affine parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TentConfig:
    lr: float = 1e-4
    steps_per_batch: int = 3
    batch_size: int = 32
    update_running_stats: bool = True

    def __post_init__(self):
        check_lr(self.lr, "lr")
        if self.steps_per_batch < 1:
            raise ConfigError(f"steps_per_batch must be >= 1, got {self.steps_per_batch}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2 (batch statistics), got {self.batch_size}"
            )


def _tent_batches(n: int, batch_size: int) -> list[np.ndarray]:
    """Contiguous index batches; a trailing singleton is merged into the batch
    before it so batch statistics are always over at least two samples."""
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def tent_adapt_predict(
    model: Model, X: np.ndarray, cfg: TentConfig
) -> tuple[np.ndarray, list[dict]]:
    """Minimise mean prediction entropy over batch-norm affine parameters.

    Each batch gets ``steps_per_batch`` plain gradient-descent steps of the model's
    parameter arena, with forwards in batch-statistics mode; a final read-out
    forward (no stats update) produces the predictions. The batch's first layer
    and bn1 statistics (:meth:`Model.stem`) are computed once and serve all of
    these forwards, bit for bit as if each made its own. For the length of the
    call every parameter but the BN gamma/beta has ``requires_grad`` off: its grad
    stays zero and the steps leave it bit for bit (``x - lr * 0.0`` is ``x``); the
    flags are set back on return, also when the call raises. Adaptation carries
    across batches and mutates ``model`` in place (gamma/beta, plus running stats
    when ``update_running_stats``). A batch whose probabilities or parameter change
    are non-finite raises ContractError. Use :func:`run_adaptation` to keep the
    caller's model untouched.
    """
    if X.ndim != 3:
        raise ContractError(f"expected (n, C, T) test epochs, got {X.shape}")
    if X.shape[0] < 2:
        raise ConfigError(
            f"entropy adaptation needs at least 2 test epochs, got {X.shape[0]}"
        )
    affine = set(model.param_groups()["bn_affine"])
    frozen = [(t, t.requires_grad) for n, t in model.named_parameters() if n not in affine]
    opt = SGD([model], cfg.lr)

    probs = np.empty((X.shape[0], model.cfg.n_main))
    records: list[dict] = []
    for t, _ in frozen:  # no gradient needed: backward skips their products
        t.requires_grad = False
    try:
        for k, idx in enumerate(_tent_batches(X.shape[0], cfg.batch_size)):
            batch = Tensor(X[idx])
            stem = model.stem(batch)
            before = model.param_arena.copy()
            step_entropies = []
            for _ in range(cfg.steps_per_batch):
                with ad.fresh_tape():
                    logits = model.forward_main(
                        batch, train=True, update_stats=cfg.update_running_stats, stem=stem
                    )
                    objective = ad.mean_entropy(logits)
                    if not np.isfinite(objective.item()):
                        raise ContractError(f"non-finite entropy objective on batch {k}")
                    model.zero_grad()
                    ad.backward(objective)
                    opt.step()
                step_entropies.append(objective.item())
            with ad.no_grad(), ad.fresh_tape():
                logits = model.forward_main(batch, train=True, update_stats=False, stem=stem)
            p = softmax(logits.data)
            d = np.subtract(model.param_arena, before, out=before)  # the batch's parameter change
            (delta,) = _delta_norms(d[None], model.layout, affine).tolist()
            _raise_if_diverged("tent", p, delta)
            probs[idx] = p
            records.append(
                {
                    "batch": k,
                    "size": int(idx.size),
                    "entropy": step_entropies,
                    "entropy_after": float(entropy(p, axis=1).mean()),
                    "param_delta": delta,
                }
            )
    finally:
        for t, flag in frozen:
            t.requires_grad = flag
    return probs, records


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_adaptation(
    strategy: str,
    model: Model,
    spec: TaskSpec,
    X: np.ndarray,
    ttt: TttConfig | None = None,
    tent: TentConfig | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Predict the test epochs under the chosen adaptation strategy.

    Adaptation runs on an internal clone, so the caller's model is never mutated.
    ``ttt_ssl`` is episodic unless ``ttt.online``: the n epochs run in
    ``ceil(n / TTT_BLOCK)`` blocks whose sizes differ by at most one, the larger
    first (48 epochs as 24 + 24, 65 as 22 + 22 + 21), each adapted at once, one
    parameter replica per epoch, every replica starting from the model's
    parameters, in two (S, P) arenas allocated once per call. The split depends
    on n alone and moves no bit, as replicas never interact. Online, the
    clone adapts in place one epoch after another (:func:`ttt_ssl_adapt_predict`).
    Returns per-sample probabilities plus a log with one record per sample
    (ttt_ssl) or per batch (tent). Test epochs holding a NaN or an infinity raise
    ContractError under every strategy, and so do non-finite probabilities from
    ``none`` and an adaptation that diverges: non-finite probabilities or parameter change.
    """
    if not np.all(np.isfinite(X)):
        raise ContractError("test epochs hold non-finite values")
    if strategy == "none":
        probs, records = model.predict_proba(X), []
        if not np.isfinite(probs).all():  # say, epochs finite in float64 but not in the model's dtype
            raise ContractError("the model's read-out of the test epochs is non-finite")
    elif strategy == "ttt_ssl":
        cfg = ttt or TttConfig()
        if X.ndim != 3:
            raise ContractError(f"expected (n, C, T) test epochs, got {X.shape}")
        work = clone_model(model)
        probs = np.empty((X.shape[0], model.cfg.n_main))
        records = []
        if cfg.online:  # one model, adapted epoch after epoch
            for i, x in enumerate(X):
                probs[i], rec = ttt_ssl_adapt_predict(work, x, spec, cfg)
                records.append({**rec, "index": i})
        else:  # blocks of replicas, each replica starting from the model
            bounds = _ttt_bounds(len(X))
            widest = max((hi - lo for lo, hi in bounds), default=0)
            params = np.empty((widest, model.param_arena.size), model.param_arena.dtype)
            grads = np.empty_like(params)
            for lo, hi in bounds:
                with replicas(work, params[:hi - lo], grads[:hi - lo]):
                    probs[lo:hi], recs = _ttt_block(work, model.param_arena, X[lo:hi], spec, cfg)
                records += [{**rec, "index": i} for i, rec in enumerate(recs, start=lo)]
    elif strategy == "tent":
        probs, records = tent_adapt_predict(clone_model(model), X, tent or TentConfig())
    else:
        raise ConfigError(f"unknown strategy '{strategy}' (expected one of {ADAPT_METHODS})")
    return probs, records
