"""Test-time adaptation: entropy objective, per-sample pretext adaptation,
and batch-norm-only entropy minimisation.

Two oracles anchor this file: a hand-computed single gradient-descent step that
the per-sample adapter must reproduce bit for bit, and an exhaustive parameter
diff proving entropy minimisation touches batch-norm affine terms and nothing
else.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttalign.autodiff as ad
from ttalign import adapt, optim
from ttalign.adapt import (
    TTT_BLOCK,
    TentConfig,
    TttConfig,
    _tent_batches,
    content_labels,
    entropy,
    run_adaptation,
    tent_adapt_predict,
    ttt_ssl_adapt_predict,
)
from ttalign.autodiff import Tensor, backward, cross_entropy, fresh_tape
from ttalign.errors import ConfigError, ContractError
from ttalign.nn import Model, ModelConfig, clone_model
from ttalign.pretext import make_view, task_spec_for

LN2 = 0.6931471805599453


def tiny_model(task="syn_mi", seed=5, **overrides):
    spec = task_spec_for(task)
    kw = dict(
        channels=8, samples=200, hidden=6, features=12,
        n_main=spec.n_main, ssl_dims=spec.ssl_dims, dropout=0.0, head_layers=1,
        init_seed=seed,
    )
    kw.update(overrides)
    return Model(ModelConfig(**kw)), spec


def make_epochs(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 8, 200))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_uniform_is_log_c():
    for c in (2, 4, 5, 16):
        assert abs(entropy(np.full(c, 1.0 / c)) - np.log(c)) < 1e-12


def test_entropy_one_hot_is_zero():
    p = np.zeros(5)
    p[2] = 1.0
    assert entropy(p) == 0.0


def test_entropy_hand_value():
    # H([1/2, 1/4, 1/4]) = 1.5 * ln 2
    assert abs(entropy(np.array([0.5, 0.25, 0.25])) - 1.5 * LN2) < 1e-15


def test_entropy_batch_axis():
    p = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    h = entropy(p, axis=1)
    assert h.shape == (3,)
    assert abs(h[0] - LN2) < 1e-15 and h[1] == 0.0
    assert abs(h[2] - (-(0.25 * np.log(0.25) + 0.75 * np.log(0.75)))) < 1e-15


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(6))
    assert abs(entropy(p) - entropy(p[::-1].copy())) < 1e-15


def test_entropy_validation():
    with pytest.raises(ContractError):
        entropy(np.array([0.5, 0.6]))
    with pytest.raises(ContractError):
        entropy(np.array([1.2, -0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_rejects_non_finite_rows(bad):
    p = np.full((3, 4), 0.25)
    p[1, 2] = bad
    with pytest.raises(ContractError, match="sum to 1"):
        entropy(p, axis=1)
    with pytest.raises(ContractError):
        entropy(np.array([0.5, 0.5, bad]))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_entropy_bounds_property(c, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(c))
    h = entropy(p / p.sum())
    assert -1e-12 <= h <= np.log(c) + 1e-12


def test_mean_entropy_graph_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(16, 5)) * 2
    with fresh_tape():
        got = ad.mean_entropy(Tensor(z)).item()
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assert abs(got - entropy(p, axis=1).mean()) < 1e-12


def test_mean_entropy_graph_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    z = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    assert ad.grad_check(ad.mean_entropy, z, [z], epsilon=1e-6) < 1e-5


# ---------------------------------------------------------------------------
# per-sample pretext adaptation
# ---------------------------------------------------------------------------

def test_ttt_single_sgd_step_is_exact_gradient_descent():
    """One sgd step must change every parameter by exactly -lr * grad(pretext loss)."""
    model, spec = tiny_model(dtype="float64")  # the 1e-12 tolerance is a float64 one
    x = make_epochs(1, seed=11)[0]
    cfg = TttConfig(steps=1, lr=1e-3, optimizer="sgd")

    ref = clone_model(model)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    ttt_ssl_adapt_predict(model, x, spec, cfg)

    # independent replication of the single step
    rng = oracles.content_rng(x, cfg.seed)
    branches = [(j, name, w) for j, (name, w) in enumerate(zip(spec.ssl_tasks, spec.weights)) if w != 0.0]
    views = [make_view(name, x[None], rng, spec) for _, name, _ in branches]
    with fresh_tape():
        loss = None
        for (j, _, w), (view, label) in zip(branches, views):
            feats = ref.features(Tensor(view), train=False)
            term = ad.scale(cross_entropy(ref.ssl_heads[j](feats), label), w)
            loss = term if loss is None else ad.add(loss, term)
        backward(loss)
    moved = 0
    for name, p in ref.named_parameters():
        expected = before[name] - cfg.lr * p.grad
        actual = dict(model.named_parameters())[name].data
        assert np.allclose(actual, expected, rtol=0, atol=1e-12), name
        assert np.allclose(actual - before[name], -cfg.lr * p.grad, rtol=0, atol=1e-12), name
        moved += int(not np.array_equal(actual, before[name]))
    assert moved > 0  # the step actually did something


def test_ttt_record_and_probs_shape():
    model, spec = tiny_model()
    x = make_epochs(1, seed=13)[0]
    probs, rec = ttt_ssl_adapt_predict(model, x, spec, TttConfig(steps=3, lr=1e-4))
    assert probs.shape == (4,)
    assert abs(probs.sum() - 1.0) < 1e-12 and np.all(probs >= 0)
    assert len(rec["ssl_loss"]) == 3 and all(np.isfinite(v) for v in rec["ssl_loss"])
    assert rec["param_delta"] > 0.0


def test_ttt_param_delta_matches_per_tensor_reference():
    """The arena delta keeps the per-tensor dots and their sum, so its bytes stay the same."""
    model, spec = tiny_model(seed=137, head_layers=2)
    x = make_epochs(1, seed=139)[0]
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    _, rec = ttt_ssl_adapt_predict(model, x, spec, TttConfig(lr=1e-2))
    total = 0.0
    for n, p in model.named_parameters():
        d = p.data - before[n]
        total += float(np.dot(d.ravel(), d.ravel()))
    assert total > 0.0
    assert rec["param_delta"] == float(np.sqrt(total))


def test_ttt_same_epoch_same_views():
    """Content-hash seeding: identical epochs adapt identically on fresh models."""
    x = make_epochs(1, seed=17)[0]
    m1, spec = tiny_model(seed=19)
    m2, _ = tiny_model(seed=19)
    p1, r1 = ttt_ssl_adapt_predict(m1, x, spec, TttConfig(lr=1e-3))
    p2, r2 = ttt_ssl_adapt_predict(m2, x, spec, TttConfig(lr=1e-3))
    assert np.array_equal(p1, p2)
    assert r1["ssl_loss"] == r2["ssl_loss"]


def test_ttt_episodic_is_permutation_invariant():
    model, spec = tiny_model(seed=23)
    X = make_epochs(6, seed=29)
    perm = np.array([3, 0, 5, 1, 4, 2])
    p_base, logs = run_adaptation("ttt_ssl", model, spec, X, ttt=TttConfig(lr=1e-3))
    p_perm, _ = run_adaptation("ttt_ssl", model, spec, X[perm], ttt=TttConfig(lr=1e-3))
    assert np.array_equal(p_perm, p_base[perm])
    assert len(logs) == 6
    assert [r["index"] for r in logs] == list(range(6))


def test_ttt_caller_model_untouched_by_run_adaptation():
    model, spec = tiny_model(seed=31)
    X = make_epochs(4, seed=37)
    probe = model.predict_proba(X)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    buffers = {n: b.copy() for n, b in model.named_buffers()}
    run_adaptation("ttt_ssl", model, spec, X, ttt=TttConfig(lr=1e-2))
    run_adaptation("tent", model, spec, X, tent=TentConfig(lr=1e-2, batch_size=4))
    for n, p in model.named_parameters():
        assert np.array_equal(p.data, before[n]), n
    for n, b in model.named_buffers():
        assert np.array_equal(b, buffers[n]), n
    assert np.array_equal(model.predict_proba(X), probe)


def test_ttt_online_carries_adaptation_across_samples():
    model, spec = tiny_model(seed=41)
    X = make_epochs(5, seed=43)
    episodic, _ = run_adaptation("ttt_ssl", model, spec, X, ttt=TttConfig(lr=1e-2))
    online, _ = run_adaptation("ttt_ssl", model, spec, X, ttt=TttConfig(lr=1e-2, online=True))
    # first sample sees identical weights either way; later samples diverge
    assert np.array_equal(episodic[0], online[0])
    assert not np.array_equal(episodic[1:], online[1:])


def test_ttt_first_only_mode():
    x = make_epochs(1, seed=47)[0]
    spec = replace(task_spec_for("syn_mi"), weights=(0.0, 0.8))
    m1, _ = tiny_model(seed=53)
    m2, _ = tiny_model(seed=53)
    p_both, r_both = ttt_ssl_adapt_predict(m1, x, spec, TttConfig(lr=1e-2))
    p_first, r_first = ttt_ssl_adapt_predict(m2, x, spec, TttConfig(lr=1e-2, ssl_mode="first_only"))
    assert not np.array_equal(p_both, p_first)
    assert len(r_both["ssl_loss"]) == len(r_first["ssl_loss"]) == 1


# every value of each knob appears at least once, and each case runs on every task
BLOCK_CASES = [
    dict(steps=1, optimizer="sgd", ssl_mode="both_weighted", online=False, head_layers=1),
    dict(steps=3, optimizer="adam", ssl_mode="both_weighted", online=False, head_layers=2),
    dict(steps=3, optimizer="sgd", ssl_mode="first_only", online=False, head_layers=1),
    dict(steps=1, optimizer="adam", ssl_mode="first_only", online=True, head_layers=2),
    dict(steps=3, optimizer="sgd", ssl_mode="both_weighted", online=True, head_layers=1),
]


@pytest.mark.parametrize("task", ["syn_mi", "syn_stress", "syn_speech"])
@pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: "-".join(str(v) for v in c.values()))
def test_ttt_blocks_match_per_epoch_reference_bitwise(task, case):
    """Block adaptation, in three blocks of uneven size, equals adapting one epoch at a time byte for byte."""
    blocks_against_per_epoch(task, case, "float64")


@pytest.mark.parametrize("task", ["syn_mi", "syn_stress", "syn_speech"])
@pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: "-".join(str(v) for v in c.values()))
def test_ttt_blocks_match_per_epoch_reference_bitwise_float32(task, case):
    blocks_against_per_epoch(task, case, "float32")


def blocks_against_per_epoch(task, case, dtype):
    case = dict(case)
    model, spec = tiny_model(task, seed=61, head_layers=case.pop("head_layers"), dtype=dtype)
    X = make_epochs(2 * TTT_BLOCK + 3, seed=67)
    cfg = TttConfig(lr=1e-2, **case)
    probs, records = run_adaptation("ttt_ssl", model, spec, X, ttt=cfg)
    want_probs, want_records = oracles.ttt_per_epoch(model, spec, X, cfg)
    assert probs.tobytes() == want_probs.tobytes()
    assert json.dumps(records) == json.dumps(want_records)
    assert [len(r["ssl_loss"]) for r in records] == [cfg.steps] * len(X)


@pytest.mark.parametrize("n, sizes", [
    (0, []), (1, [1]), (24, [24]), (32, [32]), (33, [17, 16]), (48, [24, 24]), (65, [22, 22, 21]),
])
def test_ttt_runs_the_fewest_even_blocks(monkeypatch, n, sizes):
    """n epochs run in ceil(n / TTT_BLOCK) blocks whose sizes differ by at most one, the larger first."""
    assert TTT_BLOCK == 32
    seen = []
    block = adapt._ttt_block

    def recorded(work, start, X, spec, cfg):
        seen.append(len(X))
        return block(work, start, X, spec, cfg)

    monkeypatch.setattr(adapt, "_ttt_block", recorded)
    model, spec = tiny_model()
    probs, records = run_adaptation("ttt_ssl", model, spec, make_epochs(n, seed=73), ttt=TttConfig())
    assert seen == sizes
    assert probs.shape == (n, spec.n_main)
    assert [r["index"] for r in records] == list(range(n))


@pytest.mark.parametrize("kind", ["float32", "float64", "strided"])
def test_content_labels_hash_the_float64_bytes(kind):
    """The content hash reads each epoch's float64 values in C order, whatever its dtype or strides."""
    base = make_epochs(5, seed=79)
    X = {"float32": base.astype(np.float32), "float64": base, "strided": base[:, :, ::2]}[kind]
    assert X[0].flags.c_contiguous == (kind != "strided")
    classes = [4, 6, 2**31 + 1]
    want = []
    for x in X:
        digest = hashlib.sha256(x.astype(np.float64).tobytes()).digest()
        rng = np.random.default_rng([7, int.from_bytes(digest[:16], "little")])
        want.append([rng.integers(c) for c in classes])
    assert content_labels(X, 7, classes).tolist() == want


LABEL_COUNTS = [1, 2, 4, 6, 16, 2**31 + 1, 2**32 - 1]


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("classes", [[c] for c in LABEL_COUNTS] + [LABEL_COUNTS, LABEL_COUNTS[::-1]],
                         ids=lambda c: "-".join(map(str, c)))
def test_content_labels_match_each_epochs_generator(seed, classes):
    """Every block of 1 to 40 epochs gets, row by row, the draws of each epoch's own
    ``content_rng`` in class order. A count of 2**31 + 1 sends about half of its draws
    down the path where Lemire's bounded draw rejects a word and draws again."""
    X = np.random.default_rng(seed % 2**32).normal(size=(40, 2, 3))
    want = np.array([[rng.integers(c) for c in classes] for rng in map(oracles.content_rng, X, [seed] * 40)])
    for n in range(1, 41):
        got = content_labels(X[:n], seed, classes)
        assert got.dtype == np.int64 and got.shape == (n, len(classes))
        np.testing.assert_array_equal(got, want[:n])


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
def test_keyed_labels_match_default_rng_on_short_and_wide_draws(seed, monkeypatch):
    """Keys whose top words are zero seed numpy from fewer entropy words, and a count above
    2**32 draws 64-bit words; both must still give ``default_rng([seed, key])``'s labels.
    No sha256 input is known to give such a key, so ``adapt``'s sha256 hands out the
    (n, 4) key words directly, one epoch after another."""
    keys = np.random.default_rng(seed % 2**32).integers(1, 2**32, size=(10, 4), dtype=np.uint32)
    for zeros in range(1, 5):  # rows 2 * zeros - 2 and 2 * zeros - 1 lose their top `zeros` words
        keys[2 * zeros - 2: 2 * zeros, 4 - zeros:] = 0
    X = make_epochs(len(keys), seed=83)
    for classes in ([6, 2, 2**31 + 1], [1, 3, 2**32 + 1, 4]):
        digests = iter([k.astype("<u4").tobytes() + bytes(16) for k in keys])
        fake = type("Digest", (), {"digest": lambda self: next(digests)})
        monkeypatch.setattr(adapt, "hashlib", type("Hashlib", (), {"sha256": staticmethod(lambda buf: fake())}))
        want = [[rng.integers(c) for c in classes]
                for rng in (np.random.default_rng([seed, int.from_bytes(k.astype("<u4").tobytes(), "little")])
                            for k in keys)]
        assert content_labels(X, seed, classes).tolist() == want


def test_a_ttt_block_step_records_three_tape_entries(monkeypatch):
    """Each step of a block puts the grouped, replicated pass over the pretext branches, the
    heads-and-loss record and the replicas' sum on the tape, and nothing else."""
    model, spec = tiny_model(head_layers=2)
    sizes = []
    backward = ad.backward

    def counted(loss):
        sizes.append(len(ad.active_tape()))
        backward(loss)

    monkeypatch.setattr(ad, "backward", counted)
    run_adaptation("ttt_ssl", model, spec, make_epochs(3, seed=71), ttt=TttConfig(steps=2))
    assert sizes == [3, 3]


def test_ttt_rejects_nonfinite_loss():
    model, spec = tiny_model()
    model.ssl_heads[0].b.data[0] = np.nan
    with pytest.raises(ContractError, match="non-finite pretext loss"):
        run_adaptation("ttt_ssl", model, spec, make_epochs(3))


def test_ttt_rejects_nonfinite_gradient(monkeypatch):
    """A finite loss whose gradient is not finite stops the optimizer step."""
    def poisoned_zero_grad(self):
        for _, _, grad in self.runs:
            grad.fill(np.nan)

    monkeypatch.setattr(optim._Optimizer, "zero_grad", poisoned_zero_grad)
    model, spec = tiny_model()
    with pytest.raises(ContractError, match="non-finite gradient"):
        run_adaptation("ttt_ssl", model, spec, make_epochs(3))


def test_ttt_all_zero_weights_rejected():
    model, _ = tiny_model()
    spec = replace(task_spec_for("syn_mi"), weights=(0.0, 0.0))
    with pytest.raises(ConfigError):
        ttt_ssl_adapt_predict(model, make_epochs(1)[0], spec, TttConfig())


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_ttt_config_rejects_a_bad_seed(seed):
    """A seed that is not a non-negative integer fails when the config is built, before any draw."""
    with pytest.raises(ConfigError, match="ttt seed"):
        TttConfig(seed=seed)
    assert TttConfig(seed=np.int64(2**40)).seed == 2**40


def test_ttt_config_validation():
    with pytest.raises(ConfigError):
        TttConfig(steps=0)
    with pytest.raises(ConfigError):
        TttConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TttConfig(ssl_mode="everything")
    with pytest.raises(ConfigError, match="optimizer"):
        TttConfig(optimizer="lion")
    model, spec = tiny_model()
    with pytest.raises(ContractError):
        ttt_ssl_adapt_predict(model, np.zeros((8, 100)), spec, TttConfig())


# ---------------------------------------------------------------------------
# entropy minimisation
# ---------------------------------------------------------------------------

def test_tent_updates_only_bn_affine_parameters():
    """Exhaustive diff: gamma/beta move, every other parameter is bitwise frozen."""
    model, _ = tiny_model(seed=59)
    X = make_epochs(12, seed=61)
    affine = set(model.param_groups()["bn_affine"])
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    buffers = {n: b.copy() for n, b in model.named_buffers()}
    tent_adapt_predict(model, X, TentConfig(lr=1e-2, batch_size=6, update_running_stats=False))
    changed = set()
    for n, p in model.named_parameters():
        if not np.array_equal(p.data, before[n]):
            changed.add(n)
    assert changed  # adaptation moved something
    assert changed - affine == set(), f"non-BN parameters changed: {changed - affine}"
    for n, b in model.named_buffers():
        assert np.array_equal(b, buffers[n]), f"running stat {n} changed with updates off"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_tent_param_delta_matches_per_tensor_reference(dtype):
    """Each batch's arena delta keeps the per-tensor dots of the BN-affine changes and
    their sum, so its bytes stay the same; the frozen parameters' grads stay zero."""
    model, _ = tiny_model(seed=143, head_layers=2, dtype=dtype)
    X = make_epochs(12, seed=149)
    affine = model.param_groups()["bn_affine"]
    params = dict(model.named_parameters())
    for batch in (X[:6], X[6:]):  # one batch per call, adaptation carried between them
        before = {n: params[n].data.copy() for n in affine}
        _, (rec,) = tent_adapt_predict(model, batch, TentConfig(lr=1e-2, batch_size=6))
        total = 0.0
        for n in affine:
            d = params[n].data - before[n]
            total += float(np.dot(d.ravel(), d.ravel()))
        assert total > 0.0
        assert rec["param_delta"] == float(np.sqrt(total))
        assert not any(p.grad.any() for n, p in params.items() if n not in affine)


def test_tent_frozen_parameters_leave_affine_gradients_bitwise():
    """Freezing the non-affine parameters as Tent does drops their gradients and
    changes no bit of the BN-affine ones."""
    for dtype in ("float64", "float32"):
        model, _ = tiny_model(seed=109, head_layers=2, dtype=dtype)
        batch = Tensor(make_epochs(6, seed=113))
        affine = set(model.param_groups()["bn_affine"])

        def grads():
            model.zero_grad()
            with fresh_tape():
                backward(ad.mean_entropy(model.forward_main(batch, train=True, update_stats=False)))
            return {n: p.grad.copy() for n, p in model.named_parameters()}

        full = grads()
        for n, p in model.named_parameters():
            p.requires_grad = n in affine
        frozen = grads()
        for n in affine:
            assert full[n].any() and np.array_equal(frozen[n], full[n]), n
        others = full.keys() - affine
        assert any(full[n].any() for n in others)  # the trainable backward did compute them
        for n in others:
            assert not frozen[n].any(), n


@pytest.mark.parametrize("update_running_stats", [True, False])
def test_tent_stem_once_per_batch_matches_every_pass_bitwise(monkeypatch, update_running_stats):
    """Tent's one stem per batch gives the bits of recomputing it in every pass."""
    X = make_epochs(13, seed=137)
    cfg = TentConfig(lr=1e-2, batch_size=4, update_running_stats=update_running_stats)
    for dtype in ("float64", "float32"):
        runs = []
        for stem in (Model.stem, lambda self, x: None):  # None: each pass makes its own
            monkeypatch.setattr(Model, "stem", stem)
            model, _ = tiny_model(seed=139, head_layers=2, dtype=dtype)
            probs, recs = tent_adapt_predict(model, X, cfg)
            runs.append((probs.tobytes(), json.dumps(recs), model.param_arena.tobytes(), model.buffer_arena.tobytes()))
        assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN is the point
def test_tent_restores_requires_grad_flags():
    model, _ = tiny_model(seed=127)
    X = make_epochs(8, seed=131)
    model.pos.requires_grad = False  # a caller's own freeze survives the call
    expected = [(n, p.requires_grad) for n, p in model.named_parameters()]
    assert [n for n, flag in expected if not flag] == ["pos"]
    tent_adapt_predict(model, X, TentConfig(batch_size=4))
    assert [(n, p.requires_grad) for n, p in model.named_parameters()] == expected
    X[0, 0, 0] = np.nan  # raises inside the loop; lr=1e300 only saturates the entropy
    with pytest.raises(ContractError, match="non-finite entropy"):
        tent_adapt_predict(model, X, TentConfig(batch_size=4))
    assert [(n, p.requires_grad) for n, p in model.named_parameters()] == expected


def test_tent_running_stats_update_flag():
    model, _ = tiny_model(seed=67)
    X = make_epochs(8, seed=71)
    buffers = {n: b.copy() for n, b in model.named_buffers()}
    tent_adapt_predict(model, X, TentConfig(batch_size=4, update_running_stats=True))
    stats = [n for n, b in model.named_buffers()
             if ("mean" in n or "var" in n) and not np.array_equal(b, buffers[n])]
    assert stats, "running statistics should move when update_running_stats=True"


def test_tent_entropy_descends_within_batches():
    model, _ = tiny_model(seed=73)
    X = make_epochs(48, seed=79)
    _, recs = tent_adapt_predict(model, X, TentConfig(lr=1e-3, steps_per_batch=3, batch_size=4))
    assert len(recs) == 12
    good = sum(
        1 for r in recs
        if all(b <= a + 1e-12 for a, b in zip(r["entropy"], r["entropy"][1:]))
        and r["entropy_after"] <= r["entropy"][0] + 1e-12
    )
    assert good >= 11  # descent property at small lr


def test_tent_entropy_values_are_valid():
    model, _ = tiny_model(seed=83)
    X = make_epochs(10, seed=89)
    probs, recs = tent_adapt_predict(model, X, TentConfig(batch_size=5))
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs >= 0)
    for r in recs:
        for h in r["entropy"] + [r["entropy_after"]]:
            assert -1e-12 <= h <= np.log(4) + 1e-12
        assert r["param_delta"] > 0.0


def test_tent_no_singleton_batches():
    assert [b.size for b in _tent_batches(5, 2)] == [2, 3]
    assert [b.size for b in _tent_batches(33, 32)] == [33]
    assert [b.size for b in _tent_batches(64, 32)] == [32, 32]
    assert [b.size for b in _tent_batches(2, 32)] == [2]
    assert np.array_equal(np.concatenate(_tent_batches(33, 32)), np.arange(33))
    model, _ = tiny_model()
    _, recs = tent_adapt_predict(model, make_epochs(5), TentConfig(batch_size=2))
    assert [r["size"] for r in recs] == [2, 3]


def test_tent_deterministic():
    X = make_epochs(8, seed=97)
    m1, spec = tiny_model(seed=101)
    m2, _ = tiny_model(seed=101)
    p1, _ = tent_adapt_predict(m1, X, TentConfig(batch_size=4))
    p2, _ = tent_adapt_predict(m2, X, TentConfig(batch_size=4))
    assert np.array_equal(p1, p2)


def test_tent_validation():
    with pytest.raises(ConfigError):
        TentConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TentConfig(steps_per_batch=0)
    with pytest.raises(ConfigError):
        TentConfig(lr=-1.0)
    model, _ = tiny_model()
    with pytest.raises(ConfigError):
        tent_adapt_predict(model, make_epochs(1), TentConfig())
    with pytest.raises(ContractError):
        tent_adapt_predict(model, np.zeros((8, 200)), TentConfig())


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_run_adaptation_none_matches_predict_proba():
    model, spec = tiny_model(seed=103)
    X = make_epochs(6, seed=107)
    probs, logs = run_adaptation("none", model, spec, X)
    assert np.array_equal(probs, model.predict_proba(X))
    assert logs == []


def test_run_adaptation_log_lengths():
    model, spec = tiny_model(seed=109)
    X = make_epochs(6, seed=113)
    _, ttt_logs = run_adaptation("ttt_ssl", model, spec, X, ttt=TttConfig())
    _, tent_logs = run_adaptation("tent", model, spec, X, tent=TentConfig(batch_size=3))
    assert len(ttt_logs) == 6
    assert len(tent_logs) == 2


def test_run_adaptation_unknown_strategy():
    model, spec = tiny_model()
    with pytest.raises(ConfigError):
        run_adaptation("fine_tune_harder", model, spec, make_epochs(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("strategy", ["none", "ttt_ssl", "tent"])
def test_run_adaptation_rejects_nonfinite_epochs(strategy, bad):
    model, spec = tiny_model()
    X = make_epochs(4)
    X[2, 5, 17] = bad
    with pytest.raises(ContractError, match="non-finite"):
        run_adaptation(strategy, model, spec, X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("strategy", ["ttt_ssl", "tent"])
def test_run_adaptation_rejects_diverging_adaptation(strategy):
    model, spec = tiny_model(dtype="float64")
    cfgs = {"ttt": TttConfig(lr=1e300), "tent": TentConfig(lr=1e300, batch_size=4)}
    with pytest.raises(ContractError, match="diverged"):
        run_adaptation(strategy, model, spec, make_epochs(8), **cfgs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("strategy", ["ttt_ssl", "tent"])
def test_direct_adaptation_call_rejects_divergence(strategy):
    model, spec = tiny_model(dtype="float64")
    with pytest.raises(ContractError, match="diverged"):
        if strategy == "ttt_ssl":
            ttt_ssl_adapt_predict(model, make_epochs(1)[0], spec, TttConfig(lr=1e300))
        else:
            tent_adapt_predict(model, make_epochs(8), TentConfig(lr=1e300, batch_size=4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_float32_tent_overflow_stops_at_the_next_entropy_objective():
    """In float32, lr 1e300 is infinite: the first step overflows, and the next
    objective of batch 0 is non-finite, still a ContractError."""
    model, spec = tiny_model()
    assert model.param_arena.dtype == np.float32
    with pytest.raises(ContractError, match="non-finite entropy objective on batch 0"):
        run_adaptation("tent", model, spec, make_epochs(8), tent=TentConfig(lr=1e300, batch_size=4))
