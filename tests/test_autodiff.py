"""Reverse-mode core: primitive pull-backs against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ttalign import autodiff as ad
from ttalign import nn
from ttalign.errors import ContractError, ShapeError


def check_grad(build, build_np, x: np.ndarray) -> float:
    """``ad.grad_check`` of ``build`` at a copy of ``x`` with the step 1e-6, after asserting
    that its tape forward is the numpy formula ``build_np`` (the independent oracle)."""
    t = ad.Tensor(x.copy(), requires_grad=True)
    with ad.no_grad():
        np.testing.assert_allclose(build(t).item(), build_np(x), rtol=1e-12)
    return ad.grad_check(build, t, [t], epsilon=1e-6)


SEED = 20260819
RNG = np.random.default_rng(SEED)


@pytest.fixture(autouse=True)
def fresh_rng():
    """Give every test its own generator, so its data does not depend on the tests before it."""
    global RNG
    RNG = np.random.default_rng(SEED)


class TestPrimitivePullbacks:
    """Each primitive's backward vs the finite-difference oracle."""

    def check(self, build_tensor, build_numpy, x):
        assert check_grad(build_tensor, build_numpy, x) < 1e-5

    @pytest.mark.parametrize("shape", [(3,), (4, 5), (2, 3, 4)])
    def test_add_mul_sub(self, shape):
        x = RNG.normal(size=shape)
        c = RNG.normal(size=shape)
        ct = ad.Tensor(c)
        self.check(
            lambda t: ad.sum_(ad.mul(ad.add(t, ct), ad.sub(t, ct))),
            lambda v: float(((v + c) * (v - c)).sum()),
            x,
        )

    def test_broadcast_bias(self):
        x = RNG.normal(size=(6, 4))
        b = RNG.normal(size=(4,))
        xt = ad.Tensor(x)
        self.check(
            lambda t: ad.sum_(ad.mul(ad.add(xt, t), ad.add(xt, t))),
            lambda v: float(((x + v) ** 2).sum()),
            b,
        )

    def test_scale(self):
        x = RNG.uniform(0.5, 2.0, size=(5, 3))
        c = RNG.uniform(0.5, 2.0, size=(5, 3))
        ct = ad.Tensor(c)
        self.check(
            lambda t: ad.sum_(ad.mul(ad.scale(t, -2.5), ad.mul(t, ct))),
            lambda v: float((-2.5 * v * v * c).sum()),
            x,
        )

    def test_matmul_both_sides(self):
        a = RNG.normal(size=(4, 6))
        b = RNG.normal(size=(6, 3))
        self.check(lambda t: ad.sum_(ad.matmul(t, ad.Tensor(b))), lambda v: float((v @ b).sum()), a)
        self.check(lambda t: ad.sum_(ad.matmul(ad.Tensor(a), t)), lambda v: float((a @ v).sum()), b)

    def test_relu(self):
        x = RNG.normal(size=(7, 7)) + 0.05  # keep entries away from the kink
        w = RNG.normal(size=(7, 7))
        self.check(
            lambda t: ad.sum_(ad.mul(ad.relu(t), ad.Tensor(w))),
            lambda v: float((np.maximum(v, 0) * w).sum()),
            x,
        )

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean(self, axis):
        x = RNG.normal(size=(4, 5))
        w = RNG.normal(size=np.mean(x, axis=axis).shape)
        self.check(
            lambda t: ad.sum_(ad.mul(oracles.mean(t, axis=axis), ad.Tensor(w))),
            lambda v: float((np.mean(v, axis=axis) * w).sum()),
            x,
        )

    def test_softmax(self):
        x = RNG.normal(size=(5, 4)) * 3
        w = RNG.normal(size=(5, 4))
        self.check(
            lambda t: ad.sum_(ad.mul(oracles.softmax(t, axis=1), ad.Tensor(w))),
            lambda v: float((np.exp(v - v.max(1, keepdims=True)) / np.exp(v - v.max(1, keepdims=True)).sum(1, keepdims=True) * w).sum()),
            x,
        )

    def test_reshape_transpose(self):
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(8, 3))[:4].T

        def build(t):
            moved = oracles.transpose(ad.reshape(t, (2, 3, 2)), (1, 0, 2))
            return ad.sum_(ad.mul(ad.reshape(moved, (3, 4)), ad.Tensor(w)))

        def build_np(v):
            moved = v.reshape(2, 3, 2).transpose(1, 0, 2)
            return float((moved.reshape(3, 4) * w).sum())

        self.check(build, build_np, x)


class TestFusedLayers:
    """Batch norm against a numpy oracle; cross_entropy label checks."""

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("wrt", ["x", "gamma", "beta"])
    def test_batch_norm_matches_finite_differences(self, train, wrt):
        rng = np.random.default_rng(3)
        vals = {
            "x": rng.normal(loc=1.0, scale=2.0, size=(6, 4)),
            "gamma": rng.uniform(0.5, 1.5, size=4),
            "beta": rng.normal(size=4),
        }
        running = (rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
        w = rng.normal(size=(6, 4))
        eps = 1e-5

        def build(t):
            ts = {k: ad.Tensor(v) for k, v in vals.items()}
            ts[wrt] = t
            out, _, _ = oracles.batch_norm(ts["x"], ts["gamma"], ts["beta"], eps, None if train else running)
            return ad.sum_(ad.mul(out, ad.Tensor(w)))

        def build_np(v):
            a = dict(vals, **{wrt: v})
            mu, var = (a["x"].mean(axis=0), a["x"].var(axis=0)) if train else running
            return float((((a["x"] - mu) / np.sqrt(var + eps) * a["gamma"] + a["beta"]) * w).sum())

        assert check_grad(build, build_np, vals[wrt]) < 1e-5

    @pytest.mark.parametrize("n, f", [(512, 32), (64, 64), (7, 3)])
    def test_batch_norm_train_pull_matches_the_textbook_oracle(self, n, f):
        """``bn_pull``'s closed form against the float64 textbook formula and the batch-norm
        invariants, within 1e-14 of each column's scale, on draws with dead columns
        (all-zero ``g`` of either sign, as behind a ReLU), constant columns and zero
        gammas; dead columns and zero gammas pull exact zeros."""
        self.bn_pull_against_oracle(n, f, np.float64, 1e-14)

    @pytest.mark.parametrize("n, f", [(512, 32), (64, 64), (7, 3)])
    def test_batch_norm_train_pull_matches_the_textbook_oracle_float32(self, n, f):
        """As in float64, within 1e-5 of each column's scale: the oracle starts from the
        same float32 inputs, so the bound covers the float32 forward's rounding too."""
        self.bn_pull_against_oracle(n, f, np.float32, 1e-5)

    @staticmethod
    def bn_pull_against_oracle(n, f, dtype, bound):
        eps = 1e-5

        def textbook(x, g, gd):  # Ioffe & Szegedy's backward, in float64
            x, g, gd = (a.astype(np.float64) for a in (x, g, gd))
            s = np.sqrt(x.var(axis=0) + eps)
            xhat = (x - x.mean(axis=0)) / s
            return gd / (n * s) * (n * g - g.sum(axis=0) - xhat * (g * xhat).sum(axis=0))

        rng = np.random.default_rng(n * f)
        for _ in range(10):
            x = rng.normal(size=(n, f)) * rng.uniform(0.01, 100)
            x[:, rng.random(f) < 0.1] = 1.5
            g = rng.normal(size=(n, f)) * (rng.random((n, f)) > rng.choice([0.0, 0.5, 1.0], size=f))
            dead = rng.random(f) < 0.2
            g[:, dead] = rng.choice([0.0, -0.0])
            gd = rng.normal(size=f)
            gd[rng.random(f) < 0.1] = 0.0
            x, g, gd = x.astype(dtype), g.astype(dtype), gd.astype(dtype)
            cache, _, _ = ad.bn_stats(x, eps)
            gx, gg, gb = ad.bn_pull(g, gd, cache, True, True, True, True)
            assert gx.dtype == gg.dtype == gb.dtype == dtype
            assert not gx[:, dead | (gd == 0)].any() and not gg[dead].any() and not gb[dead].any()
            xhat, s = (a.astype(np.float64) for a in cache)
            gx64, g64 = gx.astype(np.float64), g.astype(np.float64)
            scale = np.abs(gd) / s * np.abs(g64).max(axis=0)
            assert (np.abs(gx64 - textbook(x, g, gd)) <= bound * scale).all()
            # the pull sums to zero down each column, and is orthogonal to xhat but
            # for eps's share of the variance: sum(gx * xhat) = gamma * eps * sum(g * xhat) / s**3
            assert (np.abs(gx64.sum(axis=0)) <= bound * np.abs(gx64).sum(axis=0)).all()
            tilt = gd * eps * (g64 * xhat).sum(axis=0) / s ** 3
            assert (np.abs((gx64 * xhat).sum(axis=0) - tilt) <= bound * np.abs(gx64 * xhat).sum(axis=0)).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_norm_eval_pull_is_bitwise_g_times_gamma_over_s(self, dtype):
        """With running statistics the x contribution is ``(g * gamma) / s`` to the byte,
        for one batch and for a replica stack with one gamma per replica."""
        rng = np.random.default_rng(11)
        for lead in ((), (3,)):
            x, g = (rng.normal(size=(*lead, 40, 6)).astype(dtype) for _ in range(2))
            gd = rng.normal(size=(*lead, 6)).astype(dtype)
            running = (rng.normal(size=6).astype(dtype), rng.uniform(0.5, 2.0, size=6).astype(dtype))
            cache, _, _ = ad.bn_stats(x, 1e-5, running)
            gx, _, _ = ad.bn_pull(g, gd, cache, False, True, False, False)
            assert gx.tobytes() == ((g * gd[..., None, :]) / cache[1]).tobytes()

    @pytest.mark.parametrize("f", [1, 2, 3, 16, 17, 32, 64])
    def test_colsum_is_bitwise_add_reduce_and_a_sequential_loop(self, f):
        """Both forms of ``colsum`` give the bytes of ``np.add.reduce`` over axis -2, for
        2-D and stacked input, F-ordered and column-sliced input, mixed magnitudes and
        zeros of either sign, and where einsum runs, the bytes of a row-by-row loop.
        If a numpy release changes the order of einsum's strided loop, this fails."""
        self.colsum_cases(f, np.float64)

    @pytest.mark.parametrize("f", [1, 2, 3, 16, 17, 32, 64])
    def test_colsum_is_bitwise_add_reduce_and_a_sequential_loop_float32(self, f):
        self.colsum_cases(f, np.float32)

    @staticmethod
    def colsum_cases(f, dtype):
        def draw(shape):
            x = (rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)).astype(dtype)
            x[rng.random(shape) < 0.1] = 0.0
            x[rng.random(shape) < 0.1] = -0.0
            if shape[-1] > 1:
                x[..., -1] = -0.0  # a column of negative zeros sums to +0.0
            return x

        def in_order(x, y=None):
            acc = np.zeros(x.shape[:-2] + x.shape[-1:], dtype)
            for i in range(x.shape[-2]):
                acc += x[..., i, :] if y is None else x[..., i, :] * y[..., i, :]
            return acc

        rng = np.random.default_rng(f)
        for n in (2, 3, 5, 8, 16, 17, 63, 64, 65, 255, 256, 512, 1000, 2048, 4095, 4096):
            for shape in ((n, f), (3, n, f)):
                x, y = draw(shape), draw(shape)
                layouts = [(x, y), (np.asfortranarray(x), np.asfortranarray(y))]
                if f > 1:
                    wide = draw((*shape[:-1], f + 1))
                    layouts.append((wide[..., 1:], wide[..., :-1]))
                for a, b in layouts:
                    assert ad.colsum(a).dtype == ad.colsum(a, b).dtype == dtype
                    assert ad.colsum(a).tobytes() == np.add.reduce(a, axis=-2).tobytes()
                    assert ad.colsum(a, b).tobytes() == np.add.reduce(a * b, axis=-2).tobytes()
                if f > 1 and (n <= 256 or n == 4096):  # one column: add.reduce sums pairwise
                    assert ad.colsum(x).tobytes() == in_order(x).tobytes()
                    assert ad.colsum(x, y).tobytes() == in_order(x, y).tobytes()

    def test_cross_entropy_rejects_bad_labels(self):
        z = ad.Tensor(np.zeros((3, 4)))
        with pytest.raises(ContractError, match="out of range"):
            ad.cross_entropy(z, [0, 4, 1])
        with pytest.raises(ContractError, match="out of range"):
            ad.cross_entropy(z, [0, -1, 1])
        with pytest.raises(ShapeError, match="cross_entropy"):
            ad.cross_entropy(z, [0, 1])

    @pytest.mark.parametrize("replicas", [None, 3])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("head_layers", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_heads_cross_entropy_is_bitwise_the_chain_it_replaces(self, groups, head_layers, dtype, replicas):
        """One record gives the loss, logged values and every gradient of the unstacked chain
        of head and loss records (``oracles.unstack``, ``oracles.combined_loss``) bit for bit,
        G = 1 included; inside ``nn.replicas`` over S = 3 parameter rows, the S per-replica
        losses and every replica's gradients."""
        model = nn.Model(nn.ModelConfig(channels=3, samples=50, hidden=4, features=6, n_main=3,
                                        ssl_dims=(4, 5), head_layers=head_layers, dtype=dtype))
        model.param_arena[:] = RNG.normal(size=model.param_arena.size)
        rows = () if replicas is None else (replicas,)
        data = RNG.normal(size=(groups, *rows, 7, 6)).astype(dtype)
        labels = [RNG.integers(0, d, (*rows, 7)) for d in (3, 5, 4)[:groups]]
        weights = (0.6, 0.35)[:groups - 1]
        ssl = [1, 0][:groups - 1]  # the pretext heads in another order than the model's
        params = np.stack([model.param_arena, 0.5 * model.param_arena, -1.5 * model.param_arena])

        def run(fused):
            model.zero_grad()
            feats = ad.Tensor(data, requires_grad=True)
            with ad.fresh_tape() as tape:
                if fused:
                    loss, logged = ad.heads_cross_entropy(feats, model.heads(ssl), labels, (1.0, *weights))
                    assert len(tape) == 1
                else:
                    parts = oracles.unstack(feats)
                    logits = [model.ssl_heads[j](f) for j, f in zip(ssl, parts[1:])]
                    loss, logged = oracles.combined_loss(model.main_logits(parts[0]), labels[0], logits,
                                                         labels[1:], weights)
                ad.backward(loss if replicas is None else ad.sum_(loss))
            return loss.data.tobytes(), logged, feats.grad.tobytes(), model.grad_arena.tobytes()

        if replicas is None:
            assert run(True) == run(False)
        else:
            with nn.replicas(model, params, np.zeros_like(params)):
                assert run(True) == run(False)

    def test_heads_cross_entropy_contracts(self):
        model = nn.Model(nn.ModelConfig(channels=3, samples=50, hidden=4, features=6, n_main=3, ssl_dims=(4,)))
        feats = ad.Tensor(np.zeros((2, 5, 6), np.float32))
        with pytest.raises(ContractError, match="2 heads, 1 label sets"):
            ad.heads_cross_entropy(feats, model.heads([0]), [np.zeros(5, int)], [1.0, 0.5])
        with pytest.raises(ContractError, match="1 heads"):
            ad.heads_cross_entropy(feats, model.heads([]), [np.zeros(5, int)], [1.0])
        with pytest.raises(ContractError, match="2 label sets and 1 weights"):  # one weight per group
            ad.heads_cross_entropy(feats, model.heads([0]), [np.zeros(5, int), np.zeros(5, int)], [0.5])
        with pytest.raises(ContractError, match="out of range"):
            ad.heads_cross_entropy(feats, model.heads([0]), [np.zeros(5, int), np.full(5, 4)], [1.0, 0.5])
        with pytest.raises(ContractError, match=r"features \(5, 6\)"):  # a batch alone is a G = 1 stack
            ad.heads_cross_entropy(ad.Tensor(feats.data[0]), model.heads([]), [np.zeros(5, int)], [1.0])


class TestTapeSemantics:
    def test_identity_matmul(self):
        x = RNG.normal(size=(4, 4))
        out = ad.matmul(ad.Tensor(x), ad.Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, x @ np.eye(4))

    def test_grad_accumulates_across_backward_calls(self):
        w = ad.Tensor(np.array([3.0]), requires_grad=True)
        with ad.fresh_tape():
            loss = ad.sum_(ad.mul(w, w))  # d/dw = 2w = 6
            ad.backward(loss)
            assert w.grad[0] == pytest.approx(6.0)
            ad.backward(loss)
            assert w.grad[0] == pytest.approx(12.0)
        w.zero_grad()
        assert w.grad[0] == 0.0

    def test_a_negative_zero_adjoint_leaves_a_positive_zero_grad(self):
        """``backward`` adds each leaf's adjoint into a grad buffer of +0.0, and
        +0.0 + -0.0 = +0.0: no -0.0 reaches a grad arena, so a fused pull may hand
        on a -0.0 it computed."""
        w = ad.Tensor(np.array([2.0, -3.0]), requires_grad=True)
        with ad.fresh_tape():
            ad.backward(ad.sum_(ad.scale(w, -0.0)))  # the only adjoint: 1 * -0.0
        assert w.grad.tobytes() == np.zeros(2).tobytes()

    def test_grad_used_twice_in_graph(self):
        # y = w*w + 3w => dy/dw = 2w + 3
        w = ad.Tensor(np.array([5.0]), requires_grad=True)
        with ad.fresh_tape():
            loss = ad.sum_(ad.add(ad.mul(w, w), ad.scale(w, 3.0)))
            ad.backward(loss)
        assert w.grad[0] == pytest.approx(13.0)

    def test_mean_gradient_value(self):
        x = ad.Tensor(np.ones((4, 8)), requires_grad=True)
        with ad.fresh_tape():
            ad.backward(oracles.mean(x))
        np.testing.assert_allclose(x.grad, np.full((4, 8), 1.0 / 32.0), atol=0)

    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.fresh_tape():
            y = ad.scale(x, 2.0)
            with pytest.raises(ContractError):
                ad.backward(y)

    def test_backward_requires_nonempty_tape(self):
        x = ad.Tensor(np.array(1.0), requires_grad=True)
        with ad.fresh_tape():
            with pytest.raises(ContractError):
                ad.backward(x)

    def test_clear_and_rebuild_is_bitwise_identical(self):
        x = RNG.normal(size=(8, 8))
        w = ad.Tensor(RNG.normal(size=(8, 8)), requires_grad=True)

        def run():
            with ad.fresh_tape():
                out = oracles.softmax(ad.matmul(ad.relu(ad.Tensor(x)), w), axis=1)
                loss = oracles.mean(out)
                w.zero_grad()
                ad.backward(loss)
                return out.data.copy(), loss.data.copy(), w.grad.copy()

        o1, l1, g1 = run()
        o2, l2, g2 = run()
        assert np.array_equal(o1, o2) and np.array_equal(l1, l2) and np.array_equal(g1, g2)

    def test_no_grad_suppresses_recording(self):
        w = ad.Tensor(np.array([2.0]), requires_grad=True)
        with ad.fresh_tape() as tape:
            with ad.no_grad():
                ad.mul(w, w)
            assert len(tape) == 0

    def test_shape_errors_name_the_offender(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4))))


class TestLeanTape:
    """Only leaves own grad buffers; pulls skip inputs that need no gradient."""

    def _two_layer(self, x, w1, w2):
        h = ad.relu(ad.matmul(x, w1))
        return h, oracles.mean(ad.mul(ad.matmul(h, w2), ad.matmul(h, w2)))

    def test_intermediates_carry_no_grad_buffer(self):
        x = ad.Tensor(RNG.normal(size=(5, 4)))
        w1 = ad.Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
        w2 = ad.Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        with ad.fresh_tape() as tape:
            h, loss = self._two_layer(x, w1, w2)
            ad.backward(loss)
            outs = [rec[0] for rec in tape._records]
        assert h.requires_grad and loss.requires_grad
        assert all(t.grad is None for t in outs)
        assert w1.grad.any() and w2.grad.any()

    def test_two_backward_calls_double_leaf_grads_exactly(self):
        x = ad.Tensor(RNG.normal(size=(5, 4)))
        w1 = ad.Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
        w2 = ad.Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        with ad.fresh_tape():
            _, loss = self._two_layer(x, w1, w2)
            ad.backward(loss)
            once = [w1.grad.copy(), w2.grad.copy()]
            ad.backward(loss)
        assert np.array_equal(w1.grad, 2 * once[0]) and np.array_equal(w2.grad, 2 * once[1])

    def test_constant_left_matmul_input_gets_same_weight_grad_and_no_buffer(self):
        x = RNG.normal(size=(7, 4))
        w = ad.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        grads = {}
        for needs in (False, True):
            xt = ad.Tensor(x.copy(), requires_grad=needs)
            w.zero_grad()
            with ad.fresh_tape():
                ad.backward(oracles.mean(ad.relu(ad.matmul(xt, w))))
            grads[needs] = (w.grad.copy(), xt.grad)
        assert np.array_equal(grads[False][0], grads[True][0])
        assert grads[False][1] is None and grads[True][1] is not None
        with ad.fresh_tape() as tape:
            ad.matmul(ad.Tensor(x), w)
            (_, _, pull), = tape._records
        g_x, g_w = pull(np.ones((7, 3)))
        assert g_x is None and np.array_equal(g_w, x.T @ np.ones((7, 3)))

class TestGradCheck:
    def test_linear_softmax_ce_fragment(self):
        rng = np.random.default_rng(7)
        W = ad.Tensor(rng.normal(size=(6, 4)) * 0.5, requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4,)) * 0.1, requires_grad=True)
        x = ad.Tensor(rng.normal(size=(5, 6)))
        y = rng.integers(0, 4, size=5)

        def fragment(inp):
            logits = ad.add(ad.matmul(inp, W), b)
            return ad.cross_entropy(logits, y)

        assert ad.grad_check(fragment, x, [W, b]) < 1e-6

    def test_three_layer_stack(self):
        rng = np.random.default_rng(11)
        sizes = [(8, 10), (10, 6), (6, 3)]
        params = []
        for fan_in, fan_out in sizes:
            params.append(ad.Tensor(rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in), requires_grad=True))
            params.append(ad.Tensor(rng.normal(size=(fan_out,)) * 0.1, requires_grad=True))
        x = ad.Tensor(rng.normal(size=(4, 8)))
        y = rng.integers(0, 3, size=4)

        def fragment(inp):
            h = inp
            for i in range(3):
                h = ad.add(ad.matmul(h, params[2 * i]), params[2 * i + 1])
                if i < 2:
                    h = ad.relu(h)
            return ad.cross_entropy(h, y)

        assert ad.grad_check(fragment, x, params) < 1e-6

    def test_rejects_nondeterministic_fragment(self):
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        state = np.random.default_rng()  # unseeded on purpose

        def fragment(inp):
            return ad.scale(ad.mul(w, w), float(state.normal()))

        with pytest.raises(ContractError, match="deterministic"):
            ad.grad_check(fragment, ad.Tensor(np.array(0.0)), [w])

    def test_rejects_a_parameter_it_cannot_perturb_in_place(self):
        """Inside ``nn.replicas`` a parameter is a strided view that flattens to a copy."""
        model = nn.Model(nn.ModelConfig(channels=2, samples=25, hidden=3, features=4))
        params = np.stack([model.param_arena, model.param_arena])
        with nn.replicas(model, params, np.zeros_like(params)):
            w = model.conv.w
            assert not np.shares_memory(w.data.reshape(-1), params)
            with pytest.raises(ContractError, match=r"params\[1\] of shape \(2, 25, 3\)"):
                ad.grad_check(lambda _: ad.sum_(w), ad.Tensor(np.array(0.0)), [ad.Tensor(np.ones(2)), w])

    def test_rejects_nonscalar_fragment(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            ad.grad_check(lambda inp: ad.mul(w, w), ad.Tensor(np.array(0.0)), [w])


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=64),
    cols=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_random_shapes_matmul_chain(rows, cols, seed):
    """Pull-back vs finite differences on randomized shapes up to 64x64, at twelve coordinates.

    The checked tensor offsets the picked coordinates of ``x`` through a one-hot matmul,
    by exactly the step. Over every coordinate, some draws hold a gradient below the
    noise floor of the 1e-6 step (about 5e-11), where a correct pull-back misses 1e-4.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    w = rng.normal(size=(cols, 3)) / np.sqrt(cols)
    picks = rng.choice(x.size, size=min(12, x.size), replace=False)
    place = np.zeros((picks.size, x.size))
    place[np.arange(picks.size), picks] = 1.0

    def build(d):
        offset = ad.reshape(ad.matmul(ad.reshape(d, (1, picks.size)), ad.Tensor(place)), x.shape)
        return oracles.mean(ad.relu(ad.matmul(ad.add(ad.Tensor(x), offset), ad.Tensor(w))))

    err = check_grad(build, lambda _: float(np.mean(np.maximum(x @ w, 0))), np.zeros(picks.size))
    assert err < 1e-4
