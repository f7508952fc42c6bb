"""Stage-0 masked pretraining and Stage-I supervised + self-supervised fine-tuning.

The fine-tuning objective is the main cross-entropy plus a weighted sum of pretext
cross-entropies, all heads reading one shared backbone:

    L = CE(main) + sum_j w_j * CE(pretext_j)

Zero-weight pretext branches are skipped entirely (no view generation, no forward,
no RNG draws), so a run with all weights zero is bit-for-bit a supervised-only run.

A fine-tuning step is two tape records. The active branches' views are drawn
into one (G, B, C, T) stack, G = 1 + the active branches, behind the batch;
one grouped backbone pass (``nn.Model.features``) takes the stack, and one
``autodiff.heads_cross_entropy`` record takes each group's features through its
head to the weighted loss. The groups keep their own batch statistics, only the
batch's fold into the running estimates, and each shared gradient is folded in
the order of G separate passes, so the step is bit for bit the per-branch loop
of one pass per branch, a chain of head and loss records, that it replaces. A
supervised-only step is the G = 1 stack of the batch alone.

The views come from a ``pretext.ViewSource`` made once per call: the training
set in the model's dtype and, when the stopped-band branch is active, every
epoch's view under every band, which an epoch's draws would otherwise recompute
each time they land on it. Labels are the same scalar draws in the same order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, cross_entropy
from .errors import ConfigError, ContractError
from .metrics import auroc, cohens_kappa, monitoring_metric
from .nn import Linear, Model, restore, snapshot
from .optim import check_lr, check_optimizer, make_optimizer
from .pretext import TaskSpec, make_view, view_source


# ---------------------------------------------------------------------------
# stage 0: masked reconstruction pretraining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PretrainConfig:
    mask_ratio: float = 0.5
    patch: int = 25
    epochs: int = 5
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.patch < 1:
            raise ConfigError(f"patch must be >= 1, got {self.patch}")
        check_lr(self.lr, "pretrain lr")
        check_optimizer(self.optimizer)


def masked_pretrain(model: Model, X: np.ndarray, cfg: PretrainConfig) -> tuple[Model, list[dict]]:
    """Reconstruct zero-masked contiguous temporal patches; MSE on masked positions only.

    A linear decoder maps the pooled feature back to the full epoch; it is local to
    this function and discarded afterwards. Returns the model plus per-epoch history.
    """
    c, t = model.cfg.channels, model.cfg.samples
    if X.ndim != 3 or X.shape[1:] != (c, t):
        raise ContractError(f"expected (n, {c}, {t}) epochs, got {X.shape}")
    if t % cfg.patch != 0:
        raise ConfigError(f"patch {cfg.patch} does not divide {t} samples")
    n_patches = t // cfg.patch
    n_masked = int(round(cfg.mask_ratio * n_patches))
    n_masked = min(max(n_masked, 1), n_patches - 1)

    rng = np.random.default_rng([cfg.seed, 0xA5])
    dtype = model.cfg.dtype  # the decoder, target and mask follow the model
    decoder = Linear(model.cfg.features, c * t, np.random.default_rng([cfg.seed, 0xDE]), dtype=dtype)
    opt = make_optimizer(cfg.optimizer, [model, *decoder.named_parameters("decoder")], cfg.lr)

    history = []
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            batch = X[idx]
            b = batch.shape[0]
            mask = np.zeros((b, 1, t), dtype)
            masked_input = batch.copy()
            for i in range(b):
                patches = rng.choice(n_patches, size=n_masked, replace=False)
                for p in patches:
                    mask[i, 0, p * cfg.patch: (p + 1) * cfg.patch] = 1.0
                    masked_input[i, :, p * cfg.patch: (p + 1) * cfg.patch] = 0.0
            with ad.fresh_tape():
                feats = model.features(Tensor(masked_input), train=True)
                recon = ad.reshape(decoder(feats), (b, c, t))
                diff = ad.mul(ad.sub(recon, Tensor(batch.astype(dtype))), Tensor(mask))
                denom = float(mask.sum() * c)
                loss = ad.scale(ad.sum_(ad.mul(diff, diff)), 1.0 / denom)
                if not np.isfinite(loss.item()):
                    raise ContractError(f"non-finite pretraining loss at epoch {epoch}")
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            losses.append(loss.item())
        history.append({"epoch": epoch, "recon_loss": float(np.mean(losses))})
    return model, history


# ---------------------------------------------------------------------------
# stage I: joint fine-tuning
# ---------------------------------------------------------------------------

MONITORS = ("auroc", "cohens_kappa")  # what fine-tuning can track on validation


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-4
    optimizer: str = "adam"
    weights: tuple[float, float] | None = None  # None -> the task's default pairing
    monitor: str | None = None  # None -> kappa (multiclass) or auroc (binary)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        check_lr(self.lr, "finetune lr")
        check_optimizer(self.optimizer)
        if self.monitor is not None and self.monitor not in MONITORS:
            raise ConfigError(f"unknown monitor '{self.monitor}' (expected one of {MONITORS} or null)")


def _validation_score(model: Model, X_val, y_val, monitor: str) -> float:
    probs = model.predict_proba(X_val)
    if monitor == "auroc":
        return auroc(y_val, probs[:, 1])
    return cohens_kappa(y_val, probs.argmax(axis=1))


def finetune_stage1(
    model: Model,
    spec: TaskSpec,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    cfg: FinetuneConfig,
) -> tuple[Model, list[dict]]:
    """Joint supervised + pretext fine-tuning with best-checkpoint selection.

    Pretext labels are drawn fresh for every batch. After the last epoch the model is
    restored to the snapshot with the best validation monitoring metric (earliest on
    ties). History records per-epoch losses, the validation score, and wall time.
    """
    if X_train.shape[0] != y_train.shape[0] or X_train.shape[0] == 0:
        raise ContractError("training inputs empty or misaligned")
    if X_val.shape[0] == 0:
        raise ContractError("validation split must be non-empty (checkpoint selection)")
    weights = spec.weights if cfg.weights is None else cfg.weights
    if len(weights) != len(spec.ssl_tasks):
        raise ConfigError("one weight per pretext task required")
    active = [(j, name, float(w)) for j, (name, w) in enumerate(zip(spec.ssl_tasks, weights)) if w != 0.0]
    monitor = cfg.monitor or monitoring_metric(spec.n_main)

    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    pretext_rng = np.random.default_rng([cfg.seed, 2])
    dropout_rng = np.random.default_rng([cfg.seed, 3])
    opt = make_optimizer(cfg.optimizer, [model], cfg.lr)
    dtype = model.cfg.dtype
    source = view_source(X_train, spec, dtype, any(name == "stopped_band" for _, name, _ in active), cfg.batch_size)
    heads = model.heads([j for j, _, _ in active])
    group_weights = [1.0, *(w for _, _, w in active)]
    stacks: dict[int, np.ndarray] = {}  # the group stack per batch size, filled anew each step

    history: list[dict] = []
    best_score = -np.inf
    best_snap = None
    n = X_train.shape[0]
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        main_losses, ssl_sums = [], {name: [] for _, name, _ in active}
        for start in range(0, n, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            yb = y_train[idx]
            with ad.fresh_tape():
                # one pass over the batch and its views as groups: each group
                # normalizes with its own batch statistics, and only the batch
                # (group 0) feeds the running estimates used at eval
                if len(idx) not in stacks:
                    stacks[len(idx)] = np.empty((1 + len(active), len(idx), *X_train.shape[1:]), dtype)
                groups = stacks[len(idx)]
                groups[0] = source.cast[idx]
                labels = [make_view(name, source, pretext_rng, spec, rows=idx, out=groups[1 + k])[1]
                          for k, (_, name, _) in enumerate(active)]
                feats = model.features(Tensor(groups), train=True, dropout_rng=dropout_rng)
                loss, logged = ad.heads_cross_entropy(feats, heads, [yb, *labels], group_weights)
                if not np.isfinite(loss.item()):
                    raise ContractError(f"non-finite fine-tuning loss at epoch {epoch}")
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            main_losses.append(logged[0])
            for (_, name, _), value in zip(active, logged[1:]):
                ssl_sums[name].append(value)
        score = _validation_score(model, X_val, y_val, monitor)
        if score > best_score:
            best_score = score
            best_snap = snapshot(model)
        history.append(
            {
                "epoch": epoch,
                "main_loss": float(np.mean(main_losses)),
                "ssl_losses": {name: float(np.mean(v)) for name, v in ssl_sums.items()},
                "monitor": monitor,
                "val_score": float(score),
                "wall_time": time.perf_counter() - t0,
            }
        )
    restore(model, best_snap)
    return model, history

