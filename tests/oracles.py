"""Test-side references that nothing in ``ttalign`` runs.

The per-sample pretext transforms are the reference for the batched
``pretext.make_view``; each returns ``(view, label)``. ``bandpower`` and
``bandstop`` measure and apply the spectral surgery; ``mean``, ``transpose`` and
``batch_norm`` are the autodiff primitives the fused backbone pass replaces, and
``softmax`` is the recorded primitive of the plain ``nn.softmax``.
``ttt_per_epoch`` is episodic test-time training one epoch at a time, the
reference for the block adaptation of ``adapt.run_adaptation``.
``finetune_per_branch`` is stage-I fine-tuning with one backbone pass per
branch, the reference for the grouped pass of ``training.finetune_stage1``;
its loss is ``combined_loss``, the chain of head and loss records that
``autodiff.heads_cross_entropy`` replaces, and ``unstack`` hands each group of
a grouped pass to such a chain.
``preprocess_per_recording`` filters one recording at a time, the reference for
the stacked runs of ``signals.preprocess``.
"""

import itertools

import numpy as np

from ttalign import autodiff as ad
from ttalign.adapt import content_rng
from ttalign.errors import ContractError
from ttalign.metrics import monitoring_metric
from ttalign.nn import arena_slices, clone_model, restore, snapshot
from ttalign.optim import make_optimizer
from ttalign.pretext import AMP_FACTORS, make_view
from ttalign.training import _validation_score
from ttalign.signals import (
    AP_PAIRS, EPOCH_SAMPLES, PASSBAND, TARGET_RATE, bandpass, bandstop_mask, resample,
)

# the jigsaw label indexes the lexicographic permutations of 3 chunks
JIGSAW_PERMS = list(itertools.permutations(range(3)))


def bandpower(data, rate, low, high) -> float:
    """Mean periodogram power in [low, high] Hz, Parseval-consistent.

    One-sided periodogram scaled so the sum over the full band equals the
    time-domain mean square. 2-D input is averaged across channels.
    """
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = x.shape[-1]
    p = np.abs(np.fft.rfft(x, axis=-1)) ** 2 / (n * n)
    weights = np.full(p.shape[-1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    sel = (freqs >= low) & (freqs <= high)
    return float((p * weights)[..., sel].sum(axis=-1).mean())


def bandstop(data, rate, low, high):
    """Zero the [low, high] Hz band of each channel by ``bandstop_mask``."""
    n = data.shape[-1]
    return np.fft.irfft(np.fft.rfft(data, axis=-1) * bandstop_mask(n, rate, low, high), n=n, axis=-1)


def preprocess_per_recording(recordings):
    """``signals.preprocess`` with each recording band-passed and resampled alone."""
    epochs, labels, subjects = [], [], []
    for rec in recordings:
        x = resample(bandpass(rec.data, rec.rate, *PASSBAND), rec.rate, TARGET_RATE)
        n_epochs = x.shape[-1] // EPOCH_SAMPLES
        epochs += [x[:, i * EPOCH_SAMPLES: (i + 1) * EPOCH_SAMPLES] for i in range(n_epochs)]
        labels += [rec.label] * n_epochs
        subjects += [rec.subject] * n_epochs
    return np.stack(epochs), np.array(labels, dtype=np.int64), np.array(subjects, dtype=np.int64)


def stopped_band(data, rng, table):
    label = int(rng.integers(len(table)))
    return bandstop(data, TARGET_RATE, *table[label]), label


def amp_scale(data, rng):
    label = int(rng.integers(len(AMP_FACTORS)))
    return AMP_FACTORS[label] * data, label


def ap_flip(data, rng):
    label = int(rng.integers(2))
    view = data.copy()
    if label:
        for a, b in AP_PAIRS:
            view[[a, b]] = view[[b, a]]
    return view, label


def jigsaw_order(n, label):
    """Time index of the jigsaw view: near-equal contiguous chunks, larger first, in the label's order."""
    base, extra = divmod(n, 3)
    cuts = np.cumsum([0] + [base + (i < extra) for i in range(3)])
    chunks = [np.arange(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return np.concatenate([chunks[i] for i in JIGSAW_PERMS[label]])


def jigsaw(data, rng):
    label = int(rng.integers(len(JIGSAW_PERMS)))
    return data[..., jigsaw_order(data.shape[-1], label)], label


def unstack(a):
    """``a[0], a[1], ...`` along the leading axis, one record each.

    Each slice's pull places its adjoint in a zero array of ``a``'s shape, so
    ``backward`` sums exact zeros into every other slice.
    """
    shape = a.data.shape

    def part(i):
        def pull(g):
            full = np.zeros(shape, g.dtype)
            full[i] = g
            return (full,)

        return ad.record(ad.Tensor(a.data[i]), (a,), pull)

    return [part(i) for i in range(shape[0])]


def combined_loss(main_logits, y, ssl_logits, ssl_labels, weights):
    """CE(main) + sum_j weights[j] * CE(ssl_j), and each branch's unweighted CE as logged.

    Branch lists must align. The logged values list the main branch first, then the
    pretext branches in order. Each is ``-mean`` of the picked log-probabilities of
    a log-softmax made with the loss's arithmetic.
    """
    if not (len(ssl_logits) == len(ssl_labels) == len(weights)):
        raise ContractError(
            f"misaligned pretext branches: {len(ssl_logits)} logits, "
            f"{len(ssl_labels)} label sets, {len(weights)} weights"
        )
    loss = ad.cross_entropy(main_logits, y)
    logged = [_logged_cross_entropy(main_logits.data, y)]
    for w, logits, labels in zip(weights, ssl_logits, ssl_labels):
        loss = ad.add(loss, ad.scale(ad.cross_entropy(logits, labels), float(w)))
        logged.append(_logged_cross_entropy(logits.data, labels))
    return loss, logged


def _logged_cross_entropy(z, labels):
    shifted = z - z.max(axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-np.take_along_axis(lsm, np.asarray(labels)[..., None], -1)[..., 0].mean())


def mean(a, axis=None):
    out = ad.Tensor(a.data.mean(axis=axis))
    shape = a.data.shape

    def pull(g):
        if axis is None:
            return (np.full(shape, g / a.data.size),)
        n = shape[axis]
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    return ad.record(out, (a,), pull)


def transpose(a, axes):
    out = ad.Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)

    def pull(g):
        return (np.transpose(g, inv),)

    return ad.record(out, (a,), pull)


def batch_norm(x, gamma, beta, eps, running=None):
    """Batch norm of a (batch, features) tensor as one tape record: ``autodiff.bn_stats``,
    ``bn_affine`` and ``bn_pull``. Returns the output and the mean and variance it used."""
    cache, mu, var = ad.bn_stats(x.data, eps, running)
    gd = gamma.data

    def pull(g):
        return ad.bn_pull(g, gd, cache, running is None, x.requires_grad, gamma.requires_grad, beta.requires_grad)

    return ad.record(ad.Tensor(ad.bn_affine(cache[0], gd, beta.data)), (x, gamma, beta), pull), mu, var


def softmax(a, axis=-1):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def pull(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - inner),)

    return ad.record(ad.Tensor(p), (a,), pull)


def ttt_per_epoch(model, spec, X, cfg):
    """``run_adaptation("ttt_ssl", ...)`` one epoch at a time on one unreplicated clone.

    Each epoch builds its views alone, takes its steps with a fresh optimizer
    and predicts; the clone is restored from a snapshot between epochs unless
    ``cfg.online``. Returns the probabilities and one record per epoch.
    """
    if cfg.ssl_mode == "first_only":
        branches = [(0, spec.ssl_tasks[0], 1.0)]
    else:
        branches = [(j, name, w) for j, (name, w) in enumerate(zip(spec.ssl_tasks, spec.weights)) if w != 0.0]
    work = clone_model(model)
    base = snapshot(work)
    probs = np.empty((X.shape[0], model.cfg.n_main))
    records = []
    for i, x in enumerate(X):
        rng = content_rng(x, cfg.seed)
        views = [make_view(name, x[None], rng, spec) for _, name, _ in branches]
        before = work.param_arena.copy()
        opt = make_optimizer(cfg.optimizer, [work], cfg.lr)
        losses = []
        for _ in range(cfg.steps):
            with ad.fresh_tape():
                loss = None
                for (j, _, w), (view, label) in zip(branches, views):
                    feats = work.features(ad.Tensor(view), train=False)
                    term = ad.scale(ad.cross_entropy(work.ssl_heads[j](feats), label), w)
                    loss = term if loss is None else ad.add(loss, term)
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            losses.append(loss.item())
        probs[i] = work.predict_proba(x[None])[0]
        d = work.param_arena - before
        total = 0.0
        for s in arena_slices(work.layout):
            total += float(np.dot(d[s], d[s]))
        records.append({"ssl_loss": losses, "param_delta": float(np.sqrt(total)), "index": i})
        if not cfg.online:
            restore(work, base)
    return probs, records


def finetune_per_branch(model, spec, X_train, y_train, X_val, y_val, cfg):
    """``training.finetune_stage1`` with one backbone pass per branch in each step.

    The main batch goes first and feeds the running statistics; each active
    pretext branch then draws its view and makes its own pass with
    ``update_stats=False``. Returns the model, restored to its best validation
    snapshot, and one history record per epoch without ``wall_time``.
    """
    weights = spec.weights if cfg.weights is None else cfg.weights
    active = [(j, name, float(w)) for j, (name, w) in enumerate(zip(spec.ssl_tasks, weights)) if w != 0.0]
    monitor = cfg.monitor or monitoring_metric(spec.n_main)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    pretext_rng = np.random.default_rng([cfg.seed, 2])
    dropout_rng = np.random.default_rng([cfg.seed, 3])
    opt = make_optimizer(cfg.optimizer, [model], cfg.lr)
    history, best_score, best_snap = [], -np.inf, None
    n = X_train.shape[0]
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        main_losses, ssl_sums = [], {name: [] for _, name, _ in active}
        for start in range(0, n, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            xb, yb = X_train[idx], y_train[idx]
            with ad.fresh_tape():
                main_logits = model.forward_main(ad.Tensor(xb), train=True, dropout_rng=dropout_rng)
                ssl_logits, ssl_labels, ssl_w = [], [], []
                for j, name, w in active:
                    views, labels = make_view(name, xb, pretext_rng, spec)
                    feats = model.features(ad.Tensor(views), train=True, dropout_rng=dropout_rng, update_stats=False)
                    ssl_logits.append(model.ssl_heads[j](feats))
                    ssl_labels.append(labels)
                    ssl_w.append(w)
                loss, logged = combined_loss(main_logits, yb, ssl_logits, ssl_labels, ssl_w)
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            main_losses.append(logged[0])
            for (_, name, _), value in zip(active, logged[1:]):
                ssl_sums[name].append(value)
        score = _validation_score(model, X_val, y_val, monitor)
        if score > best_score:
            best_score, best_snap = score, snapshot(model)
        history.append({
            "epoch": epoch,
            "main_loss": float(np.mean(main_losses)),
            "ssl_losses": {name: float(np.mean(v)) for name, v in ssl_sums.items()},
            "monitor": monitor,
            "val_score": float(score),
        })
    restore(model, best_snap)
    return model, history
