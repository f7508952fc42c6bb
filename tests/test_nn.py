"""Model layer tests: batch norm statistics, backbone wiring, snapshots, checkpoints."""

import json
import struct

import numpy as np
import pytest

import oracles
from ttalign import autodiff as ad
from ttalign import nn
from ttalign.autodiff import Tensor, cross_entropy
from ttalign.errors import ConfigError, ContractError
from ttalign.optim import SGD, Adam, make_optimizer

SEED = 42
RNG = np.random.default_rng(SEED)


@pytest.fixture(autouse=True)
def fresh_rng():
    """Give every test its own generator, so its data does not depend on the tests before it."""
    global RNG
    RNG = np.random.default_rng(SEED)


def small_config(**kw):
    base = dict(
        channels=3, samples=200, hidden=6, features=8,
        n_main=3, ssl_dims=(4, 6), dropout=0.1, init_seed=5,
    )
    base.update(kw)
    return nn.ModelConfig(**base)


def bn_forward(bn, x, train, update_stats=True):
    """A batch norm's output for a bare array, through ``stats`` and ``normalize`` as ``Model.features`` runs it."""
    return bn.normalize(bn.stats(x, train), train, update_stats)[0]


class TestBatchNorm:
    def test_running_stat_update_matches_hand_computation(self):
        # batch [[1,2],[3,6]]: mean [2,4], biased var [1,4]; momentum 0.1 from (0,1)
        bn = nn.BatchNorm(2)
        assert bn.momentum == 0.1
        bn_forward(bn, np.array([[1.0, 2.0], [3.0, 6.0]]), train=True)
        np.testing.assert_allclose(bn.running_mean, [0.2, 0.4], atol=1e-15)
        np.testing.assert_allclose(bn.running_var, [1.0, 1.3], atol=1e-15)

    def test_train_output_statistics(self):
        bn = nn.BatchNorm(5)
        bn.gamma.data[:] = RNG.uniform(0.5, 2.0, size=5)
        bn.beta.data[:] = RNG.normal(size=5)
        x = RNG.normal(loc=3.0, scale=2.5, size=(64, 5))
        out = bn_forward(bn, x, train=True)
        var = x.var(axis=0)
        np.testing.assert_allclose(out.mean(axis=0), bn.beta.data, atol=1e-9)
        want_var = bn.gamma.data ** 2 * var / (var + bn.eps)
        np.testing.assert_allclose(out.var(axis=0), want_var, atol=1e-6)

    def test_eval_mode_is_pure(self):
        bn = nn.BatchNorm(3)
        bn_forward(bn, RNG.normal(size=(10, 3)), train=True)
        rm, rv = bn.running_mean.copy(), bn.running_var.copy()
        x = RNG.normal(size=(4, 3))
        a = bn_forward(bn, x, train=False)
        b = bn_forward(bn, x, train=False)
        assert np.array_equal(a, b)
        assert np.array_equal(bn.running_mean, rm) and np.array_equal(bn.running_var, rv)

    def test_update_stats_flag_suppresses_mutation(self):
        bn = nn.BatchNorm(3)
        rm, rv = bn.running_mean.copy(), bn.running_var.copy()
        bn_forward(bn, RNG.normal(size=(8, 3)), train=True, update_stats=False)
        assert np.array_equal(bn.running_mean, rm) and np.array_equal(bn.running_var, rv)

    def test_single_row_batch_eps_guard(self):
        out = bn_forward(nn.BatchNorm(4), np.full((1, 4), 7.0), train=True)
        np.testing.assert_allclose(out, np.zeros((1, 4)), atol=1e-12)  # beta = 0

    def test_train_forward_and_each_loss_record_one_entry(self):
        bn = nn.BatchNorm(4)
        with ad.fresh_tape() as tape:
            x = Tensor(np.arange(24.0).reshape(6, 4), requires_grad=True)
            out, _, _ = oracles.batch_norm(x, bn.gamma, bn.beta, bn.eps)
            assert len(tape) == 1
            cross_entropy(out, [0, 1, 2, 3, 0, 1])
            assert len(tape) == 2
            ad.mean_entropy(out)
            assert len(tape) == 3


class TestDropout:
    def test_train_only_and_inverted_scaling(self):
        mask = nn.dropout_mask((200, 50), 0.1, np.random.default_rng(3))
        kept = mask[mask != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.9, atol=1e-12)
        assert 0.85 < (mask != 0).mean() < 0.95
        assert nn.dropout_mask((200, 50), 0.1, None) is None
        assert nn.dropout_mask((200, 50), 0.0, np.random.default_rng(3)) is None

    def test_seeded_mask_reproducible(self):
        a = nn.dropout_mask((30, 8), 0.5, np.random.default_rng(9))
        b = nn.dropout_mask((30, 8), 0.5, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            nn.dropout_mask((3,), 1.0, np.random.default_rng(0))


class TestModel:
    @pytest.mark.parametrize("field", [
        {"hidden": 0}, {"features": -1}, {"dropout": 1.0}, {"dropout": -0.1}, {"dropout": float("nan")},
        {"head_layers": 4},
    ], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
    def test_config_out_of_range_refused(self, field):
        with pytest.raises(ConfigError, match=next(iter(field))):
            nn.ModelConfig(**field)

    def test_zero_input_gives_zero_features(self):
        model = nn.Model(small_config())
        with ad.fresh_tape():
            feats = model.features(Tensor(np.zeros((4, 3, 200))), train=True).data
        np.testing.assert_array_equal(feats, np.zeros((4, 8)))

    def test_forward_shapes_and_determinism(self):
        model = nn.Model(small_config())
        x = RNG.normal(size=(5, 3, 200))
        a = model.predict_proba(x)
        b = model.predict_proba(x)
        assert a.shape == (5, 3)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_input_shape_rejected(self):
        model = nn.Model(small_config())
        with pytest.raises(ContractError):
            model.predict_proba(RNG.normal(size=(5, 4, 200)))

    def test_ssl_head_does_not_touch_main_logits(self):
        model = nn.Model(small_config())
        x = RNG.normal(size=(4, 3, 200))
        before = model.predict_proba(x)
        model.ssl_heads[0].w.data += 123.0
        model.ssl_heads[1].b.data -= 7.0
        assert np.array_equal(before, model.predict_proba(x))

    def test_param_groups_partition(self):
        model = nn.Model(small_config(head_layers=2))
        groups = model.param_groups()
        assert sorted(groups["bn_affine"]) == ["bn1.beta", "bn1.gamma", "bn2.beta", "bn2.gamma"]
        all_names = [n for n, _ in model.named_parameters()]
        assert sorted(groups["bn_affine"] + groups["other"]) == sorted(all_names)
        assert not set(groups["bn_affine"]) & set(groups["other"])

    def test_head_depth_variants(self):
        for depth in (1, 2, 3):
            model = nn.Model(small_config(head_layers=depth))
            assert len(model.head) == depth
            assert model.predict_proba(RNG.normal(size=(2, 3, 200))).shape == (2, 3)
        with pytest.raises(ConfigError):
            small_config(head_layers=4)

    def test_window_stride_validation(self):
        for samples in (210, 20, 0):  # not a positive multiple of WINDOW = 25
            with pytest.raises(ConfigError, match="multiple of 25"):
                small_config(samples=samples)
        assert nn.Model(small_config(samples=50)).pos.shape == (2, 8)

    def test_features_match_numpy_oracle_over_consecutive_windows(self):
        model = nn.Model(small_config(dtype="float64"))
        for bn in (model.bn1, model.bn2):
            bn.gamma.data[:] = RNG.uniform(0.5, 1.5, size=bn.gamma.shape)
            bn.beta.data[:] = RNG.normal(size=bn.beta.shape)
            bn.running_mean[...] = RNG.normal(size=bn.running_mean.shape)
            bn.running_var[...] = RNG.uniform(0.5, 2.0, size=bn.running_var.shape)
        model.pos.data[:] = RNG.normal(size=model.pos.shape)
        x = RNG.normal(size=(5, 3, 200))

        def bn_relu(h, bn):
            h = (h - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) * bn.gamma.data + bn.beta.data
            return np.maximum(h, 0.0)

        w = nn.WINDOW
        windows = np.stack([x[:, :, i * w:(i + 1) * w] for i in range(200 // w)], axis=2)  # (B, C, K, W)
        h = bn_relu(windows @ model.conv.w.data, model.bn1)                                # (B, C, K, H)
        h = h.transpose(0, 2, 1, 3).reshape(5, 200 // w, -1)                              # (B, K, C*H)
        h = bn_relu(h @ model.mix.w.data + model.pos.data, model.bn2)                      # (B, K, D)
        with ad.fresh_tape():
            got = model.features(Tensor(x), train=False).data
        np.testing.assert_allclose(got, h.mean(axis=1), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5, 4)])
    def test_softmax_is_bitwise_the_recorded_primitive(self, shape):
        z = RNG.normal(size=shape) * 5
        assert nn.softmax(z).tobytes() == oracles.softmax(Tensor(z)).data.tobytes()


def chain_features(model, x, train, dropout_rng=None, update_stats=True):
    """The backbone as the chain of primitives the fused ``Model.features`` replaces."""
    cfg = model.cfg
    b, ch, k = x.shape[0], cfg.channels, cfg.samples // nn.WINDOW

    def bn_relu(h, layer):
        running = None if train else (layer.running_mean, layer.running_var)
        out, mu, var = oracles.batch_norm(h, layer.gamma, layer.beta, layer.eps, running)
        if train and update_stats:
            m = layer.momentum
            layer.running_mean[...] = (1.0 - m) * layer.running_mean + m * mu
            layer.running_var[...] = (1.0 - m) * layer.running_var + m * var
        return ad.relu(out)

    h = bn_relu(ad.matmul(ad.reshape(x, (b * ch * k, nn.WINDOW)), model.conv.w), model.bn1)
    h = oracles.transpose(ad.reshape(h, (b, ch, k, cfg.hidden)), (0, 2, 1, 3))
    h = ad.matmul(ad.reshape(h, (b * k, ch * cfg.hidden)), model.mix.w)
    h = ad.add(ad.reshape(h, (b, k, cfg.features)), model.pos)
    h = bn_relu(ad.reshape(h, (b * k, cfg.features)), model.bn2)
    h = oracles.mean(ad.reshape(h, (b, k, cfg.features)), axis=1)
    if train and dropout_rng is not None and cfg.dropout != 0.0:
        mask = (dropout_rng.random(h.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        h = ad.mul(h, Tensor(mask))
    return h


# float64: the chain's dropout multiplies by a float64 mask
BACKBONE_CONFIGS = {
    "default": nn.ModelConfig(dtype="float64"),
    "gradcheck": nn.ModelConfig(channels=3, samples=50, hidden=4, features=6, n_main=3,
                                ssl_dims=(4, 3), head_layers=2, dropout=0.3, init_seed=21, dtype="float64"),
    # three windows: dividing by k and multiplying by 1/k round differently
    "three_windows": nn.ModelConfig(channels=2, samples=75, hidden=5, features=7, dropout=0.2, dtype="float64"),
}


class TestFusedBackbone:
    """``Model.features`` is one tape record whose pull replays the primitive chain bit for bit."""

    @pytest.mark.parametrize("config", sorted(BACKBONE_CONFIGS))
    @pytest.mark.parametrize("mode", ["train_dropout_stats", "train_plain", "eval"])
    def test_fused_pass_replays_the_primitive_chain_bitwise(self, config, mode):
        fused = nn.Model(BACKBONE_CONFIGS[config])
        fused.param_arena[:] = RNG.normal(size=fused.param_arena.size) * 0.5
        fused.buffer_arena[:] = RNG.uniform(0.5, 1.5, size=fused.buffer_arena.size)
        chain = nn.clone_model(fused)
        stats_before = fused.buffer_arena.copy()
        cfg = fused.cfg
        x_data = RNG.normal(size=(5, cfg.channels, cfg.samples))
        weights = Tensor(RNG.normal(size=(5, cfg.features)))
        train = mode != "eval"
        update_stats = mode == "train_dropout_stats"
        names = ["conv.w", "bn1.gamma", "bn1.beta", "mix.w", "pos", "bn2.gamma", "bn2.beta"]

        def run(model, forward):
            x = Tensor(x_data, requires_grad=True)
            rng = np.random.default_rng(7) if update_stats else None
            with ad.fresh_tape():
                feats = forward(model, x, train, rng, update_stats)
                ad.backward(ad.sum_(ad.mul(feats, weights)))
            params = dict(model.named_parameters())
            return feats.data, [x.grad] + [params[n].grad for n in names], model.buffer_arena

        got_out, got_grads, got_stats = run(fused, nn.Model.features)
        want_out, want_grads, want_stats = run(chain, chain_features)
        assert np.array_equal(got_out, want_out)
        for name, got, want in zip(["input"] + names, got_grads, want_grads):
            assert got.any() and np.array_equal(got, want), name
        assert np.array_equal(got_stats, want_stats)
        assert np.array_equal(got_stats, stats_before) != update_stats

    @pytest.mark.parametrize("train", [True, False])
    def test_one_pass_adds_one_tape_record(self, train):
        model = nn.Model(small_config())
        with ad.fresh_tape() as tape:
            model.features(Tensor(RNG.normal(size=(4, 3, 200))), train=train, dropout_rng=np.random.default_rng(1))
            assert len(tape) == 1

    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("mode", ["train_dropout_stats", "train_plain", "eval"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_grouped_pass_is_separate_passes_in_group_order_bitwise(self, groups, mode, dtype):
        """One (G, B, C, T) pass, unstacked, gives the outputs, input and parameter gradients
        and running statistics of G passes recorded in group order, only the first updating stats."""
        grouped = nn.Model(small_config(head_layers=2, dtype=dtype))
        grouped.param_arena[:] = RNG.normal(size=grouped.param_arena.size) * 0.5
        grouped.buffer_arena[:] = RNG.uniform(0.5, 1.5, size=grouped.buffer_arena.size)
        separate = nn.clone_model(grouped)
        x_data = RNG.normal(size=(groups, 5, 3, 200))
        weights = [Tensor(RNG.normal(size=(5, 3)).astype(dtype)) for _ in range(groups)]
        train = mode != "eval"
        update_stats = mode == "train_dropout_stats"

        xs = [Tensor(x, requires_grad=True) for x in x_data]
        xg = Tensor(x_data, requires_grad=True)

        def separate_passes(rng):
            return [separate.features(x, train, rng, update_stats and i == 0) for i, x in enumerate(xs)]

        def grouped_pass(rng):
            return oracles.unstack(grouped.features(xg, train, rng, update_stats))

        def run(model, passes):
            with ad.fresh_tape():
                feats = passes(np.random.default_rng(7) if update_stats else None)
                loss = None
                for f, w in zip(feats, weights):
                    term = ad.sum_(ad.mul(model.main_logits(f), w))
                    loss = term if loss is None else ad.add(loss, term)
                ad.backward(loss)
            return feats

        outs, parts = run(separate, separate_passes), run(grouped, grouped_pass)
        for i in range(groups):
            assert parts[i].data.tobytes() == outs[i].data.tobytes()
            assert xg.grad[i].tobytes() == xs[i].grad.tobytes()
        assert grouped.grad_arena.any() and grouped.grad_arena.tobytes() == separate.grad_arena.tobytes()
        assert grouped.buffer_arena.tobytes() == separate.buffer_arena.tobytes()

    def test_grouped_input_contracts(self):
        model = nn.Model(small_config())
        x = RNG.normal(size=(2, 4, 3, 200))
        with ad.fresh_tape() as tape:
            oracles.unstack(model.features(Tensor(x), train=True))
            assert len(tape) == 3  # one pass, one record per group's slice
        with pytest.raises(ContractError, match="at least one group"):
            model.features(Tensor(np.zeros((0, 4, 3, 200))), train=True)
        model.conv.w.requires_grad = False
        stem = model.stem(Tensor(x[0]))
        with pytest.raises(ContractError, match="not a grouped input"):
            model.features(Tensor(x), train=True, stem=stem)
        with pytest.raises(ContractError, match="without a group axis"):
            model.stem(Tensor(x))
        with pytest.raises(ContractError, match=r"\(\[G, \]B, 3, 200\)"):  # a second extra leading axis
            model.features(Tensor(x[None]), train=True)
        params = np.stack([model.param_arena, model.param_arena])
        with nn.replicas(model, params, np.zeros_like(params)):
            with pytest.raises(ContractError, match=r"\(\[G, \]S, B, 3, 200\)"):
                model.features(Tensor(x[None, None]), train=False)
            with pytest.raises(ContractError, match="at least one group"):
                model.features(Tensor(np.zeros((0, 2, 4, 3, 200))), train=False)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_grouped_replicated_pass_is_separate_passes_in_group_order(self, dtype):
        """A (G, S, B, C, T) eval pass inside ``replicas`` gives, byte for byte, the outputs
        and arena gradients of G separate (S, B, C, T) passes recorded in group order."""
        model = nn.Model(small_config(dtype=dtype))
        params = np.stack([model.param_arena, 1.5 * model.param_arena, -model.param_arena])
        x_data = RNG.normal(size=(2, 3, 2, 3, 200))
        weights = [Tensor(RNG.normal(size=(3, 2, 3)).astype(dtype)) for _ in x_data]

        def run(passes):
            grads = np.zeros_like(params)
            with nn.replicas(model, params, grads), ad.fresh_tape():
                feats = passes()
                loss = None
                for f, w in zip(feats, weights):
                    term = ad.sum_(ad.mul(model.main_logits(f), w))
                    loss = term if loss is None else ad.add(loss, term)
                ad.backward(loss)
            return [f.data.tobytes() for f in feats], grads

        outs, grads = run(lambda: [model.features(Tensor(x), train=False) for x in x_data])
        parts, grouped_grads = run(lambda: oracles.unstack(model.features(Tensor(x_data), train=False)))
        assert parts == outs
        assert grads.any() and grouped_grads.tobytes() == grads.tobytes()

    def test_replicas_pass_each_row_and_unbind_on_exit(self):
        """Replica r's logits are bitwise an unreplicated pass with row r's parameters."""
        model = nn.Model(small_config(head_layers=2))
        own = [(t.data, t.grad) for _, t in model.named_parameters()]
        params = np.stack([model.param_arena, 1.5 * model.param_arena, -model.param_arena])
        x = RNG.normal(size=(3, 2, 3, 200))
        with nn.replicas(model, params, np.zeros_like(params)):
            assert all(np.shares_memory(t.data, params) for _, t in model.named_parameters())
            got = model.forward_main(Tensor(x), train=False).data
            with pytest.raises(ContractError, match="eval mode"):
                model.features(Tensor(x), train=True)
        assert all(t.data is d and t.grad is g for (_, t), (d, g) in zip(model.named_parameters(), own))
        for r in range(3):
            np.copyto(model.param_arena, params[r])
            assert got[r].tobytes() == model.forward_main(Tensor(x[r]), train=False).data.tobytes()


class TestStem:
    """A precomputed ``Model.stem`` serves Tent's passes with the bits of computing it each time."""

    @staticmethod
    def tent_frozen(model):
        affine = set(model.param_groups()["bn_affine"])
        for n, p in model.named_parameters():
            p.requires_grad = n in affine
        return SGD([(n, p) for n, p in model.named_parameters() if n in affine], lr=0.05)

    @pytest.mark.parametrize("update_stats", [True, False])
    def test_stem_serves_three_sgd_steps_bitwise(self, update_stats):
        for dtype in ("float64", "float32"):
            model = nn.Model(small_config(head_layers=2, dtype=dtype))
            model.param_arena[:] = RNG.normal(size=model.param_arena.size) * 0.5
            twin = nn.clone_model(model)
            x = Tensor(RNG.normal(size=(5, 3, 200)))
            weights = Tensor(RNG.normal(size=(5, 8)))
            opts = [self.tent_frozen(m) for m in (model, twin)]
            stem = model.stem(x)
            for _ in range(3):
                runs = []
                for m, opt, kw in ((model, opts[0], {"stem": stem}), (twin, opts[1], {})):
                    m.zero_grad()
                    with ad.fresh_tape():
                        feats = m.features(x, train=True, update_stats=update_stats, **kw)
                        ad.backward(ad.sum_(ad.mul(feats, weights)))
                    runs.append((feats.data.tobytes(), m.grad_arena.tobytes(), m.buffer_arena.tobytes()))
                    opt.step()
                assert runs[0] == runs[1]
                assert model.bn1.gamma.grad.any() and model.bn2.beta.grad.any()
            assert model.param_arena.tobytes() == twin.param_arena.tobytes()

    def test_stem_refused_where_it_would_not_hold(self):
        model = nn.Model(small_config())
        x = Tensor(RNG.normal(size=(4, 3, 200)))
        stem = model.stem(x)
        with pytest.raises(ContractError, match="conv.w frozen"):  # a step would move conv.w
            model.features(x, train=True, stem=stem)
        model.conv.w.requires_grad = False
        model.features(x, train=True, stem=stem)
        with pytest.raises(ContractError, match="train-mode"):
            model.features(x, train=False, stem=stem)
        with pytest.raises(ContractError, match="its own batch"):
            model.features(Tensor(RNG.normal(size=(5, 3, 200))), train=True, stem=stem)
        params = np.stack([model.param_arena, model.param_arena])
        xs = Tensor(np.stack([x.data, x.data]))
        with nn.replicas(model, params, np.zeros_like(params)):
            with pytest.raises(ContractError, match="unreplicated"):
                model.stem(xs)
            for train in (True, False):
                with pytest.raises(ContractError):
                    model.features(xs, train=train, stem=stem)


class TestSnapshotRestore:
    def test_roundtrip_is_bitwise(self):
        model = nn.Model(small_config())
        x = RNG.normal(size=(6, 3, 200))
        with ad.fresh_tape():
            model.features(Tensor(x), train=True)
        snap = nn.snapshot(model)
        before = model.predict_proba(x)
        for _, p in model.named_parameters():
            p.data += RNG.normal(size=p.shape)
        model.bn1.running_mean += 1.0
        nn.restore(model, snap)
        assert np.array_equal(before, model.predict_proba(x))
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, snap.params[n])

    def test_restore_undoes_running_stat_update_after_snapshot(self):
        model = nn.Model(small_config())
        snap = nn.snapshot(model)
        stats = [b.copy() for _, b in model.named_buffers()]
        with ad.fresh_tape():  # a train-mode forward folds batch stats into the running ones
            model.features(Tensor(RNG.normal(size=(6, 3, 200))), train=True)
        assert not np.array_equal(model.bn1.running_mean, stats[0])
        nn.restore(model, snap)
        for (n, b), before in zip(model.named_buffers(), stats):
            assert np.array_equal(b, before), n
        for bn, (mean, var) in ((model.bn1, stats[:2]), (model.bn2, stats[2:])):
            assert np.array_equal(bn.running_mean, mean) and np.array_equal(bn.running_var, var)

    def test_restore_rejects_mismatched_model(self):
        snap = nn.snapshot(nn.Model(small_config()))
        other = nn.Model(small_config(ssl_dims=(4,)))
        with pytest.raises(ContractError):
            nn.restore(other, snap)

    def test_clone_is_independent(self):
        model = nn.Model(small_config())
        twin = nn.clone_model(model)
        x = RNG.normal(size=(3, 3, 200))
        assert np.array_equal(model.predict_proba(x), twin.predict_proba(x))
        twin.conv.w.data += 1.0
        assert not np.array_equal(model.conv.w.data, twin.conv.w.data)


class TestArena:
    def test_state_is_views_into_three_arenas(self):
        model = nn.Model(small_config(head_layers=2))
        named = model.named_parameters()
        assert [n for n, _ in model.layout] == [n for n, _ in named]
        assert model.param_arena.size == model.grad_arena.size == sum(p.data.size for _, p in named)
        lo = 0
        for _, p in named:
            assert np.shares_memory(p.data, model.param_arena[lo:lo + p.data.size])
            assert np.shares_memory(p.grad, model.grad_arena[lo:lo + p.data.size])
            lo += p.data.size
        lo = 0
        for _, b in model.named_buffers():
            assert np.shares_memory(b, model.buffer_arena[lo:lo + b.size])
            lo += b.size
        assert lo == model.buffer_arena.size

    def test_zero_grad_clears_every_grad(self):
        model = nn.Model(small_config())
        x, y = Tensor(RNG.normal(size=(4, 3, 200))), RNG.integers(0, 4, size=4)
        with ad.fresh_tape():
            ad.backward(ad.cross_entropy(model.forward_main(x, train=True), y))
        assert all(p.grad.any() for p in (model.conv.w, model.mix.w))
        model.zero_grad()
        assert all(not p.grad.any() for _, p in model.named_parameters())

    def test_clone_copies_params_and_buffers_only(self):
        model = nn.Model(small_config(init_seed=3))
        with ad.fresh_tape():
            model.features(Tensor(RNG.normal(size=(6, 3, 200))), train=True)
        model.conv.w.grad[...] = 1.0
        twin = nn.clone_model(model)
        assert np.array_equal(twin.param_arena, model.param_arena)
        assert np.array_equal(twin.buffer_arena, model.buffer_arena)
        assert not twin.grad_arena.any()
        assert not np.shares_memory(twin.param_arena, model.param_arena)


    def test_clone_draws_no_initial_weights(self, monkeypatch):
        model = nn.Model(small_config(head_layers=2))
        model.buffer_arena[:] = RNG.uniform(0.5, 1.5, size=model.buffer_arena.size)

        def no_draws(*args, **kwargs):
            raise AssertionError("initial weights drawn for a model whose arenas are copied in")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        twin = nn.clone_model(model)
        assert twin.param_arena.tobytes() == model.param_arena.tobytes()
        assert twin.buffer_arena.tobytes() == model.buffer_arena.tobytes()
        assert twin.layout == model.layout and not twin.grad_arena.any()


class TestCheckpointFile:
    def test_file_layout(self, tmp_path):
        """Magic, version, header length, a JSON header naming every tensor, then both arenas and nothing after."""
        model = nn.Model(small_config(head_layers=2))
        with ad.fresh_tape():
            model.features(Tensor(RNG.normal(size=(8, 3, 200))), train=True)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, path)
        raw = path.read_bytes()
        assert raw[:4] == nn.MAGIC == b"TTA1"
        version, hlen = struct.unpack_from("<II", raw, 4)
        assert version == nn.CHECKPOINT_VERSION == 2
        header = json.loads(raw[12:12 + hlen])
        assert nn.ModelConfig(**{**header["config"], "ssl_dims": tuple(header["config"]["ssl_dims"])}) == model.cfg
        assert header["params"] == [[n, list(t.shape)] for n, t in model.named_parameters()]
        assert header["buffers"] == [[n, list(b.shape)] for n, b in model.named_buffers()]
        offset = 12 + hlen
        for arena in (model.param_arena, model.buffer_arena):
            assert raw[offset:offset + 8 * arena.size] == arena.astype("<f8").tobytes()
            offset += 8 * arena.size
        assert len(raw) == offset


class TestOptimizers:
    def _grad_step_setup(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p.grad[:] = np.array([0.5, -1.5, 2.0])
        return p

    def test_sgd_exact_update(self):
        p = self._grad_step_setup()
        before = p.data.copy()
        SGD([("p", p)], lr=0.1).step()
        assert np.array_equal(p.data, before - 0.1 * np.array([0.5, -1.5, 2.0]))

    def test_adam_first_step_magnitude(self):
        p = self._grad_step_setup()
        before = p.data.copy()
        Adam([("p", p)], lr=1e-3).step()
        np.testing.assert_allclose(np.abs(p.data - before), 1e-3, rtol=1e-4)

    @staticmethod
    def adam_replay(dtype):
        model = nn.Model(small_config(dtype=dtype))
        opt = Adam([model], lr=1e-2)
        theta = model.param_arena.copy()
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        for t in range(1, 4):
            g = RNG.normal(size=theta.shape).astype(dtype)
            model.grad_arena[...] = g
            opt.step()
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            theta = theta - 1e-2 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            assert np.array_equal(model.param_arena, theta)
        assert all(a.dtype == dtype for a in (theta, *opt.m, *opt.v))

    def test_adam_replays_reference_update_bitwise(self):
        self.adam_replay("float64")

    def test_adam_replays_reference_update_bitwise_float32(self):
        self.adam_replay("float32")

    def test_zero_grad_then_step_is_noop_for_sgd(self):
        p = self._grad_step_setup()
        opt = SGD([("p", p)], lr=0.1)
        opt.zero_grad()
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_nonfinite_gradient_names_parameter(self):
        p = self._grad_step_setup()
        p.grad[1] = np.nan
        with pytest.raises(ContractError, match="'p'"):
            SGD([("p", p)], lr=0.1).step()

    def test_nonfinite_gradient_in_arena_names_parameter(self):
        model = nn.Model(small_config())
        model.pos.grad[0, 1] = np.inf
        with pytest.raises(ContractError, match="'pos'"):
            Adam([model], lr=1e-3).step()

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_arena_steps_equal_standalone_copies(self, kind):
        # the pretraining mix: a whole model arena plus a standalone tensor
        model = nn.Model(small_config(head_layers=2))
        extra = ("decoder.w", Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True))
        named = model.named_parameters() + [extra]
        copies = [(n, Tensor(p.data.copy(), requires_grad=True)) for n, p in named]
        opt = make_optimizer(kind, [model, extra], 1e-2)
        ref = make_optimizer(kind, copies, 1e-2)
        assert len(opt.runs) == 2 and len(ref.runs) == len(copies)
        for _ in range(5):
            for (_, p), (_, q) in zip(named, copies):
                p.grad[...] = q.grad[...] = RNG.normal(size=p.shape)
            opt.step()
            ref.step()
        for (n, p), (_, q) in zip(named, copies):
            assert np.array_equal(p.data, q.data), n

    def test_factory(self):
        p = self._grad_step_setup()
        assert isinstance(make_optimizer("adam", [("p", p)], 1e-3), Adam)
        assert isinstance(make_optimizer("sgd", [("p", p)], 1e-3), SGD)
        with pytest.raises(ConfigError):
            make_optimizer("lion", [("p", p)], 1e-3)
        with pytest.raises(ConfigError):
            make_optimizer("sgd", [("p", p)], 0.0)
