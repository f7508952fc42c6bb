"""Stage-II test-time adaptation.

Two adaptation routes over a fine-tuned model, plus a no-op baseline:

* ``ttt_ssl`` — per-sample self-supervised test-time training: for each test epoch,
  take one or more gradient steps on the pretext loss built from that epoch alone
  (a single plain-gradient-descent step is exactly ``theta' = theta - lr * g``),
  then predict. Episodic by default: every epoch adapts from the same weights, so
  predictions are independent of test-set order. Episodes never interact (batch
  norm runs in eval mode), so they run in blocks of up to ``TTT_BLOCK`` epochs, one
  parameter replica per epoch (:func:`nn.replicas`), the pretext branches as the
  groups of one stacked pass per step; each epoch's numbers are bitwise those of
  adapting it alone, one pass per branch. Online mode
  carries one model from epoch to epoch. Pretext randomness is seeded from a
  content hash of the sample, so the same epoch always gets the same views.

* ``tent`` — entropy minimisation on batches: forward in batch-statistics mode,
  minimise the mean prediction entropy (nats) by plain gradient descent on the
  batch-norm affine parameters only. Everything else is frozen bit-for-bit and,
  for the length of the call, carries no gradient: the backward skips it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .nn import Model, arena_slices, clone_model, replicas, softmax
from .optim import SGD, check_lr, check_optimizer, make_optimizer
from .pretext import TaskSpec, apply_view, view_classes

ADAPT_METHODS = ("none", "ttt_ssl", "tent")

# Episodic TTT adapts this many test epochs at once, one parameter replica each.
TTT_BLOCK = 16


def entropy(p, axis: int = -1):
    """Shannon entropy in nats of probability vectors; 0 * log 0 == 0.

    Validates that ``p`` is non-negative and sums to one along ``axis``.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-12):
        raise ContractError("entropy: negative probabilities")
    sums = p.sum(axis=axis)
    if not np.allclose(sums, 1.0, rtol=0, atol=1e-6):
        raise ContractError("entropy: rows do not sum to 1")
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(safe)).sum(axis=axis)


def content_rng(x: np.ndarray, seed: int) -> np.random.Generator:
    """RNG keyed by the sample's bytes: identical epochs get identical views,
    and per-sample adaptation commutes with any reordering of the test set."""
    digest = hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:16], "little")])


def _l2_norm(parts) -> float:
    """L2 norm over the arrays ``parts``: one dot per array, summed in order."""
    total = 0.0
    for d in parts:
        total += float(np.dot(d.ravel(), d.ravel()))
    return float(np.sqrt(total))


def _raise_if_diverged(strategy: str, probs: np.ndarray, delta: float) -> None:
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


def _ttt_branches(spec: TaskSpec, cfg: TttConfig) -> list[tuple[int, str, float]]:
    if cfg.ssl_mode == "first_only":
        return [(0, spec.ssl_tasks[0], 1.0)]
    return [
        (j, name, float(w))
        for j, (name, w) in enumerate(zip(spec.ssl_tasks, spec.weights))
        if w != 0.0
    ]


def _ttt_block(
    work: Model, start: np.ndarray, X: np.ndarray, spec: TaskSpec, cfg: TttConfig
) -> tuple[np.ndarray, list[dict]]:
    """Adapt replica i of ``work`` on epoch ``X[i]`` alone, for every i at once, then predict.

    ``work`` is bound to one parameter replica per epoch of the (s, C, T) block
    (:func:`nn.replicas`); each starts from the parameters ``start``. Epoch i's
    labels come from its own :func:`content_rng`, drawn in ``make_view``'s
    order, and each pretext branch builds the block's views in one transform.
    The branches are the groups of one (G, s, 1, C, T) stack, so a step records
    one pass, one ``autodiff.heads_cross_entropy`` and the replicas' sum, then
    steps all replicas. Replicas never interact and the groups fold in branch
    order, so each epoch's probabilities and record are bitwise those of
    adapting it alone, one pass per branch.
    """
    branches = _ttt_branches(spec, cfg)
    if not branches:
        raise ConfigError("no active pretext branch to adapt on (all weights zero)")
    classes = [view_classes(name, spec) for _, name, _ in branches]
    rngs = (content_rng(x, cfg.seed) for x in X)
    labels = np.array([[rng.integers(c) for c in classes] for rng in rngs], dtype=np.int64)
    views = Tensor(np.stack([apply_view(name, X, y, spec) for (_, name, _), y in zip(branches, labels.T)])[:, :, None])
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
    # the grads are spent: they take the parameter change, and each row's squared
    # norm is summed one parameter at a time, as the dots of a per-tensor norm
    d = np.subtract(work.param_arena, start, out=work.grad_arena)
    sq = np.zeros(len(X))
    for s in arena_slices(work.layout):
        sq += (d[:, None, s] @ d[:, s, None])[:, 0, 0]
    delta = np.sqrt(sq)
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

    Each batch gets ``steps_per_batch`` plain gradient-descent updates of the BN
    gamma/beta only, with forwards in batch-statistics mode; a final read-out
    forward (no stats update) produces the predictions. The batch's first layer
    and bn1 statistics (:meth:`Model.stem`) are computed once and serve all of
    these forwards, bit for bit as if each made its own. Adaptation carries across
    batches and mutates ``model`` in place (gamma/beta, plus running stats when
    ``update_running_stats``); every other parameter is left bit-for-bit intact.
    For the length of the call those parameters have ``requires_grad`` off, so the
    backward computes no gradient for them; their flags are set back on return,
    also when the call raises. A batch whose probabilities or parameter change
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
    named_affine = [(n, p) for n, p in model.named_parameters() if n in affine]
    frozen = [(t, t.requires_grad) for n, t in model.named_parameters() if n not in affine]
    opt = SGD(named_affine, cfg.lr)

    probs = np.empty((X.shape[0], model.cfg.n_main))
    records: list[dict] = []
    for t, _ in frozen:  # no gradient needed: backward skips their products
        t.requires_grad = False
    try:
        for k, idx in enumerate(_tent_batches(X.shape[0], cfg.batch_size)):
            batch = Tensor(X[idx])
            stem = model.stem(batch)
            before = {n: p.data.copy() for n, p in named_affine}
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
            delta = _l2_norm(p.data - before[n] for n, p in named_affine)
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
    ``ttt_ssl`` is episodic unless ``ttt.online``: blocks of ``TTT_BLOCK`` epochs
    adapt at once, one parameter replica per epoch, every replica starting from the
    model's parameters, in two (S, P) arenas allocated once per call. Online, the
    clone adapts in place one epoch after another (:func:`ttt_ssl_adapt_predict`).
    Returns per-sample probabilities plus a log with one record per sample
    (ttt_ssl) or per batch (tent). Test epochs holding a NaN or an infinity raise
    ContractError under every strategy, and so does an adaptation that diverges:
    non-finite probabilities or parameter change.
    """
    if not np.all(np.isfinite(X)):
        raise ContractError("test epochs hold non-finite values")
    if strategy == "none":
        probs, records = model.predict_proba(X), []
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
            params = np.empty((min(TTT_BLOCK, len(X)), model.param_arena.size), model.param_arena.dtype)
            grads = np.empty_like(params)
            for lo in range(0, len(X), TTT_BLOCK):
                block = X[lo:lo + TTT_BLOCK]
                with replicas(work, params[:len(block)], grads[:len(block)]):
                    probs[lo:lo + len(block)], recs = _ttt_block(work, model.param_arena, block, spec, cfg)
                records += [{**rec, "index": i} for i, rec in enumerate(recs, start=lo)]
    elif strategy == "tent":
        probs, records = tent_adapt_predict(clone_model(model), X, tent or TentConfig())
    else:
        raise ConfigError(f"unknown strategy '{strategy}' (expected one of {ADAPT_METHODS})")
    return probs, records
