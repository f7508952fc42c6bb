"""Training objectives: cross-entropy, the weighted combined loss, masked
pretraining, and Stage-I fine-tuning.

The headline oracle here is a hand-written supervised training loop that must
match `finetune_stage1` with all pretext weights at zero, bit for bit: the
zero-weight path may not touch the pretext RNG or add any computation.
"""

import numpy as np
import pytest

import oracles
import ttalign.autodiff as ad
from oracles import combined_loss
from test_adapt import tiny_model
from ttalign.autodiff import Tensor, backward, cross_entropy, fresh_tape
from ttalign.errors import ConfigError, ContractError
from ttalign.metrics import auroc, cohens_kappa
from ttalign.nn import Model, restore, snapshot
from ttalign.optim import make_optimizer
from ttalign.pretext import task_spec_for
from ttalign.training import (
    FinetuneConfig,
    PretrainConfig,
    finetune_stage1,
    masked_pretrain,
)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits_is_log_n_classes():
    assert abs(cross_entropy(Tensor(np.zeros((1, 2))), [0]).item() - LN2) < 1e-15
    assert abs(cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 3]).item() - LN4) < 1e-15


def test_cross_entropy_hand_value():
    # CE([1,2,3], label=2) = logsumexp([1,2,3]) - 3
    got = cross_entropy(Tensor(np.array([[1.0, 2.0, 3.0]])), [2]).item()
    expected_formula = np.log(np.exp([1.0, 2.0, 3.0]).sum()) - 3.0
    assert abs(got - expected_formula) < 1e-12
    assert abs(got - 0.40760596444438064) < 1e-15


def test_cross_entropy_mean_reduction():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(5, 3))
    y = np.array([0, 2, 1, 1, 0])
    singles = [cross_entropy(Tensor(z[i: i + 1]), y[i: i + 1]).item() for i in range(5)]
    assert abs(cross_entropy(Tensor(z), y).item() - np.mean(singles)) < 1e-14


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 6))
    y = np.array([5, 0, 3, 2])
    a = cross_entropy(Tensor(z), y).item()
    b = cross_entropy(Tensor(z + 123.0), y).item()
    assert abs(a - b) < 1e-12


def test_combined_loss_logs_each_branch_as_a_separate_log_softmax():
    """Logged values equal a recomputed log-softmax's ``-mean`` bit for bit, and the loss to 1e-14."""
    rng = np.random.default_rng(2)
    z, y = rng.normal(size=(7, 4)) * 3, rng.integers(0, 4, size=7)
    s, ls = rng.normal(size=(7, 5)) * 3, rng.integers(0, 5, size=7)

    def logged_ce(logits, labels):  # the old helper's arithmetic
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(len(labels)), labels].mean())

    _, logged = combined_loss(Tensor(z), y, [Tensor(s)], [ls], (0.5,))
    assert logged == [logged_ce(z, y), logged_ce(s, ls)]
    assert abs(logged[0] - cross_entropy(Tensor(z), y).item()) < 1e-14


# ---------------------------------------------------------------------------
# combined loss
# ---------------------------------------------------------------------------

def test_combined_loss_frozen_arithmetic():
    # uniform logits everywhere: CE = ln(n_classes) per branch.
    main = Tensor(np.zeros((2, 4)))
    s1 = Tensor(np.zeros((2, 4)))
    s2 = Tensor(np.zeros((2, 16)))
    got = combined_loss(main, [0, 1], [s1, s2], [[0, 3], [7, 2]], (0.5, 0.25))[0].item()
    # ln4 + 0.5*ln4 + 0.25*ln16 = 2*ln4 = ln16
    assert abs(got - 2.772588722239781) < 1e-12


def test_combined_loss_no_branches_equals_plain_ce():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    assert combined_loss(Tensor(z), y, [], [], ())[0].item() == cross_entropy(Tensor(z), y).item()


def test_combined_loss_value_linear_in_weights():
    rng = np.random.default_rng(4)
    main, y = Tensor(rng.normal(size=(5, 3))), rng.integers(0, 3, size=5)
    s, ls = Tensor(rng.normal(size=(5, 4))), rng.integers(0, 4, size=5)
    l0 = combined_loss(main, y, [s], [ls], (0.0,))[0].item()
    l1 = combined_loss(main, y, [s], [ls], (0.7,))[0].item()
    l2 = combined_loss(main, y, [s], [ls], (1.4,))[0].item()
    assert abs((l2 - l0) - 2.0 * (l1 - l0)) < 1e-12


def test_combined_loss_gradient_linear_in_weights():
    """Doubling a pretext weight doubles that branch's gradient contribution."""
    model, spec = tiny_model("syn_mi", dtype="float64")  # the 1e-12 tolerance is a float64 one
    rng = np.random.default_rng(6)
    xb = rng.normal(size=(4, 8, 200))
    yb = np.array([0, 1, 2, 3])
    views = rng.normal(size=(4, 8, 200))
    vlab = np.array([1, 0, 2, 1])

    def grads(w):
        model.zero_grad()
        with fresh_tape():
            feats = model.features(Tensor(xb), train=False)
            main = model.main_logits(feats)
            sfeats = model.features(Tensor(views), train=False)
            slog = model.ssl_heads[0](sfeats)
            loss, _ = combined_loss(main, yb, [slog], [vlab], (w,))
            backward(loss)
        return {n: p.grad.copy() for n, p in model.named_parameters()}

    g0, g1, g2 = grads(0.0), grads(0.4), grads(0.8)
    for name in g0:
        lhs = g2[name] - g0[name]
        rhs = 2.0 * (g1[name] - g0[name])
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12), name


def test_combined_loss_misaligned_branches_raise():
    main = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        combined_loss(main, [0, 1], [Tensor(np.zeros((2, 4)))], [[0, 1]], (0.5, 0.5))


# ---------------------------------------------------------------------------
# masked pretraining
# ---------------------------------------------------------------------------

def pretrain_data(n=24, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(200) / 200.0
    x = np.zeros((n, 8, 200))
    for i in range(n):
        phase = rng.uniform(0, 2 * np.pi)
        for c in range(8):
            x[i, c] = np.sin(2 * np.pi * (c + 2) * t + phase) + 0.05 * rng.normal(size=200)
    return x


def test_masked_pretrain_deterministic():
    x = pretrain_data()
    cfg = PretrainConfig(epochs=2, batch_size=8, seed=11)
    m1, h1 = masked_pretrain(tiny_model()[0], x, cfg)
    m2, h2 = masked_pretrain(tiny_model()[0], x, cfg)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)
    assert h1 == h2


def test_masked_pretrain_loss_decreases():
    x = pretrain_data(n=32)
    model, _ = tiny_model()
    _, hist = masked_pretrain(model, x, PretrainConfig(epochs=5, batch_size=8, seed=1))
    assert hist[-1]["recon_loss"] < hist[0]["recon_loss"]
    assert all(np.isfinite(h["recon_loss"]) for h in hist)


def test_masked_pretrain_changes_model_but_not_shape():
    x = pretrain_data()
    model, _ = tiny_model()
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    out, _ = masked_pretrain(model, x, PretrainConfig(epochs=1, batch_size=8, seed=2))
    assert out is model
    after = dict(model.named_parameters())
    assert set(after) == set(before)  # decoder is discarded, not attached
    assert any(not np.array_equal(before[n], after[n].data) for n in before)
    assert all(before[n].shape == after[n].data.shape for n in before)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_pretrain_config_rejects_a_bad_seed(seed):
    """A seed that is not a non-negative integer fails when the config is built, before any draw."""
    with pytest.raises(ConfigError, match="pretrain seed"):
        PretrainConfig(seed=seed)
    assert PretrainConfig(seed=np.int64(2**40)).seed == 2**40


def test_masked_pretrain_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(mask_ratio=0.0)
    with pytest.raises(ConfigError):
        PretrainConfig(mask_ratio=1.0)
    model, _ = tiny_model()
    with pytest.raises(ContractError):
        masked_pretrain(model, np.zeros((4, 8, 100)), PretrainConfig())
    with pytest.raises(ConfigError):
        masked_pretrain(model, np.zeros((4, 8, 200)), PretrainConfig(patch=33))


# ---------------------------------------------------------------------------
# stage-I fine-tuning
# ---------------------------------------------------------------------------

def class_coded_data(n, n_classes, seed, amp=3.0):
    """Trivially separable epochs: class c puts a strong tone on channel c."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    t = np.arange(200) / 200.0
    x = rng.normal(scale=0.3, size=(n, 8, 200))
    for i in range(n):
        x[i, y[i]] += amp * np.sin(2 * np.pi * 11 * t + rng.uniform(0, 2 * np.pi))
    return x, y


def test_finetune_zero_weights_matches_handwritten_supervised_loop():
    """With w = (0, 0) fine-tuning must be bitwise a plain supervised loop:
    same parameter trajectory, no pretext RNG consumption, no extra forwards."""
    xtr, ytr = class_coded_data(24, 4, seed=7)
    xva, yva = class_coded_data(12, 4, seed=8)
    cfg = FinetuneConfig(epochs=3, batch_size=8, lr=1e-3, weights=(0.0, 0.0), seed=21)

    for dtype, head_layers in (("float64", 1), ("float32", 1), ("float32", 2)):
        model, spec = tiny_model("syn_mi", seed=9, dtype=dtype, head_layers=head_layers)
        got, hist = finetune_stage1(model, spec, xtr, ytr, xva, yva, cfg)

        # independent re-implementation of the supervised-only trajectory
        oracle, _ = tiny_model("syn_mi", seed=9, dtype=dtype, head_layers=head_layers)
        shuffle_rng = np.random.default_rng([cfg.seed, 1])
        dropout_rng = np.random.default_rng([cfg.seed, 3])
        opt = make_optimizer("adam", oracle.named_parameters(), cfg.lr)
        best, best_snap = -np.inf, None
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(xtr))
            for s in range(0, len(xtr), cfg.batch_size):
                idx = order[s: s + cfg.batch_size]
                with fresh_tape():
                    logits = oracle.forward_main(Tensor(xtr[idx]), train=True, dropout_rng=dropout_rng)
                    loss = cross_entropy(logits, ytr[idx])
                    opt.zero_grad()
                    backward(loss)
                    opt.step()
            score = cohens_kappa(yva, oracle.predict_proba(xva).argmax(axis=1))
            if score > best:
                best, best_snap = score, snapshot(oracle)
        restore(oracle, best_snap)

        for (n1, p1), (n2, p2) in zip(got.named_parameters(), oracle.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data), f"trajectory diverged at {n1}"
        for (n1, b1), (n2, b2) in zip(got.named_buffers(), oracle.named_buffers()):
            assert n1 == n2
            assert np.array_equal(b1, b2), f"running stats diverged at {n1}"
        assert all(h["ssl_losses"] == {} for h in hist)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("task, weights, head_layers", [
    pytest.param("syn_mi", None, 1, id="syn_mi-None"),
    pytest.param("syn_stress", None, 1, id="syn_stress-None"),
    pytest.param("syn_speech", None, 1, id="syn_speech-None"),
    pytest.param("syn_mi", (0.0, 0.8), 1, id="syn_mi-weights3"),
    pytest.param("syn_speech", None, 2, id="syn_speech-None-head_layers2"),
])
def test_grouped_step_matches_per_branch_reference_bitwise(task, weights, head_layers, dtype, dropout):
    """One grouped pass and one heads-and-loss record per step give the per-branch loop's
    arenas and history bit for bit, for every pretext transform, G = 3 and G = 2, a
    two-layer main head, and a trailing batch of 4 after two of 8."""
    spec = task_spec_for(task)
    xtr, ytr = class_coded_data(20, spec.n_main, seed=81)
    xva, yva = class_coded_data(10, spec.n_main, seed=82)
    cfg = FinetuneConfig(epochs=2, batch_size=8, lr=3e-3, weights=weights, seed=83)
    model = dict(seed=84, dtype=dtype, dropout=dropout, head_layers=head_layers)
    got, got_hist = finetune_stage1(tiny_model(task, **model)[0], spec, xtr, ytr, xva, yva, cfg)
    want, want_hist = oracles.finetune_per_branch(tiny_model(task, **model)[0], spec, xtr, ytr, xva, yva, cfg)
    assert got.param_arena.dtype == np.dtype(dtype)
    assert got.param_arena.tobytes() == want.param_arena.tobytes()
    assert got.buffer_arena.tobytes() == want.buffer_arena.tobytes()
    assert [{k: v for k, v in h.items() if k != "wall_time"} for h in got_hist] == want_hist
    assert all(len(h["ssl_losses"]) == (1 if weights else 2) for h in want_hist)


@pytest.mark.parametrize("weights", [None, (0.0, 0.0)])
def test_a_step_records_two_tape_entries(weights, monkeypatch):
    """A step with pretext branches and a supervised-only step each put the backbone pass
    and the heads-and-loss record on the tape, and nothing else."""
    xtr, ytr = class_coded_data(16, 4, seed=91)
    xva, yva = class_coded_data(8, 4, seed=92)
    model, spec = tiny_model("syn_mi", seed=93, head_layers=2, dropout=0.1)
    sizes = []
    backward = ad.backward

    def counted(loss):
        sizes.append(len(ad.active_tape()))
        backward(loss)

    monkeypatch.setattr(ad, "backward", counted)
    finetune_stage1(model, spec, xtr, ytr, xva, yva, FinetuneConfig(epochs=1, batch_size=8, weights=weights, seed=94))
    assert sizes == [2, 2]


def test_every_step_passes_a_group_stack(monkeypatch):
    """Every step runs the backbone on a (G, B, C, T) stack, the supervised-only step as
    G = 1: fine-tuning has one step path, whatever the weights."""
    xtr, ytr = class_coded_data(20, 4, seed=95)
    xva, yva = class_coded_data(8, 4, seed=96)
    shapes = []
    features = Model.features

    def spy(self, x, train, *args, **kwargs):
        if train:
            shapes.append(x.shape)
        return features(self, x, train, *args, **kwargs)

    monkeypatch.setattr(Model, "features", spy)
    for weights, groups in ((None, 3), ((0.0, 0.8), 2), ((0.0, 0.0), 1)):
        shapes.clear()
        model, spec = tiny_model("syn_mi", seed=97)
        finetune_stage1(model, spec, xtr, ytr, xva, yva, FinetuneConfig(epochs=2, batch_size=8, weights=weights, seed=98))
        assert shapes == [(groups, 8, 8, 200), (groups, 8, 8, 200), (groups, 4, 8, 200)] * 2


def test_finetune_restores_best_validation_checkpoint():
    xtr, ytr = class_coded_data(24, 4, seed=17)
    xva, yva = class_coded_data(12, 4, seed=18)
    model, spec = tiny_model("syn_mi", seed=19)
    cfg = FinetuneConfig(epochs=4, batch_size=8, lr=3e-3, weights=(0.0, 0.0), seed=23)
    got, hist = finetune_stage1(model, spec, xtr, ytr, xva, yva, cfg)
    best = max(h["val_score"] for h in hist)
    now = cohens_kappa(yva, got.predict_proba(xva).argmax(axis=1))
    assert abs(now - best) < 1e-15


def test_finetune_learns_separable_classes():
    xtr, ytr = class_coded_data(48, 4, seed=27)
    xva, yva = class_coded_data(24, 4, seed=28)
    model, spec = tiny_model("syn_mi", seed=29, hidden=8, features=16)
    cfg = FinetuneConfig(epochs=8, batch_size=12, lr=3e-3, weights=(0.0, 0.0), seed=31)
    _, hist = finetune_stage1(model, spec, xtr, ytr, xva, yva, cfg)
    assert max(h["val_score"] for h in hist) > 0.5
    assert hist[-1]["main_loss"] < hist[0]["main_loss"]


def test_finetune_with_pretext_branches_runs_and_logs():
    xtr, ytr = class_coded_data(16, 4, seed=37)
    xva, yva = class_coded_data(8, 4, seed=38)
    model, spec = tiny_model("syn_mi", seed=39)
    cfg = FinetuneConfig(epochs=2, batch_size=8, seed=41)  # mi defaults: (0.1, 0.8)
    _, hist = finetune_stage1(model, spec, xtr, ytr, xva, yva, cfg)
    for h in hist:
        assert set(h["ssl_losses"]) == {"stopped_band", "jigsaw"}
        assert all(np.isfinite(v) for v in h["ssl_losses"].values())
        assert h["monitor"] == "cohens_kappa"
        assert np.isfinite(h["val_score"]) and np.isfinite(h["main_loss"])
        assert h["wall_time"] >= 0.0


def test_finetune_binary_monitors_auroc():
    xtr, ytr = class_coded_data(16, 2, seed=47)
    xva, yva = class_coded_data(8, 2, seed=48)
    model, spec = tiny_model("syn_stress", seed=49)
    cfg = FinetuneConfig(epochs=2, batch_size=8, weights=(0.0, 0.0), seed=51)
    got, hist = finetune_stage1(model, spec, xtr, ytr, xva, yva, cfg)
    assert hist[0]["monitor"] == "auroc"
    score = auroc(yva, got.predict_proba(xva)[:, 1])
    assert abs(score - max(h["val_score"] for h in hist)) < 1e-15


def test_finetune_deterministic_across_runs():
    xtr, ytr = class_coded_data(16, 4, seed=57)
    xva, yva = class_coded_data(8, 4, seed=58)
    cfg = FinetuneConfig(epochs=2, batch_size=8, seed=61)
    m1, h1 = finetune_stage1(tiny_model("syn_mi", seed=59)[0], task_spec_for("syn_mi"), xtr, ytr, xva, yva, cfg)
    m2, h2 = finetune_stage1(tiny_model("syn_mi", seed=59)[0], task_spec_for("syn_mi"), xtr, ytr, xva, yva, cfg)
    for (n1, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(p1.data, p2.data), n1
    strip = lambda h: [{k: v for k, v in e.items() if k != "wall_time"} for e in h]
    assert strip(h1) == strip(h2)


def test_finetune_updates_bn_running_stats_during_training():
    xtr, ytr = class_coded_data(16, 4, seed=67)
    xva, yva = class_coded_data(8, 4, seed=68)
    model, spec = tiny_model("syn_mi", seed=69)
    before = {n: b.copy() for n, b in model.named_buffers()}
    finetune_stage1(model, spec, xtr, ytr, xva, yva,
                    FinetuneConfig(epochs=1, batch_size=8, weights=(0.0, 0.0), seed=71))
    after = dict(model.named_buffers())
    assert any(not np.array_equal(before[n], after[n]) for n in before if "mean" in n or "var" in n)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_finetune_config_rejects_a_bad_seed(seed):
    """A seed that is not a non-negative integer fails when the config is built, before any draw."""
    with pytest.raises(ConfigError, match="finetune seed"):
        FinetuneConfig(seed=seed)
    assert FinetuneConfig(seed=np.int64(2**40)).seed == 2**40


def test_finetune_validation_contracts():
    xtr, ytr = class_coded_data(8, 4, seed=77)
    model, spec = tiny_model("syn_mi")
    with pytest.raises(ContractError):
        finetune_stage1(model, spec, xtr, ytr, np.zeros((0, 8, 200)), np.zeros(0, dtype=int),
                        FinetuneConfig(epochs=1))
    with pytest.raises(ConfigError):
        finetune_stage1(model, spec, xtr, ytr, xtr, ytr,
                        FinetuneConfig(epochs=1, weights=(0.5,)))
    with pytest.raises(ConfigError):
        FinetuneConfig(epochs=0)
    with pytest.raises(ConfigError, match="monitor"):
        FinetuneConfig(monitor="f1")
