"""Reverse-mode core: primitive pull-backs against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ttalign import autodiff as ad
from ttalign.errors import ContractError, ShapeError


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x (independent oracle)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f(x)
        flat[i] = keep - eps
        down = f(x)
        flat[i] = keep
        gf[i] = (up - down) / (2 * eps)
    return g


def analytic_grad(build, x: np.ndarray) -> np.ndarray:
    t = ad.Tensor(x.copy(), requires_grad=True)
    with ad.fresh_tape():
        loss = build(t)
        ad.backward(loss)
    return t.grad.copy()


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


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
        got = analytic_grad(build_tensor, x)
        want = fd_grad(lambda v: build_numpy(v), x)
        assert rel_err(got, want) < 1e-5

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
        bt = ad.Tensor(b, requires_grad=True)
        with ad.fresh_tape():
            loss = ad.sum_(ad.mul(ad.add(ad.Tensor(x), bt), ad.add(ad.Tensor(x), bt)))
            ad.backward(loss)
        want = fd_grad(lambda v: float(((x + v) ** 2).sum()), b.copy())
        assert rel_err(bt.grad, want) < 1e-5

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
        bt = ad.Tensor(b, requires_grad=True)
        at = ad.Tensor(a.copy(), requires_grad=True)
        with ad.fresh_tape():
            loss = ad.sum_(ad.matmul(at, bt))
            ad.backward(loss)
        want_a = fd_grad(lambda v: float((v @ b).sum()), a.copy())
        want_b = fd_grad(lambda v: float((a @ v).sum()), b.copy())
        assert rel_err(at.grad, want_a) < 1e-5
        assert rel_err(bt.grad, want_b) < 1e-5

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
            lambda t: ad.sum_(ad.mul(ad.softmax(t, axis=1), ad.Tensor(w))),
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
    """batch_norm against a numpy oracle; cross_entropy label checks."""

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
            out, _, _ = ad.batch_norm(ts["x"], ts["gamma"], ts["beta"], eps, None if train else running)
            return ad.sum_(ad.mul(out, ad.Tensor(w)))

        def build_np(v):
            a = dict(vals, **{wrt: v})
            mu, var = (a["x"].mean(axis=0), a["x"].var(axis=0)) if train else running
            return float((((a["x"] - mu) / np.sqrt(var + eps) * a["gamma"] + a["beta"]) * w).sum())

        got = analytic_grad(build, vals[wrt])
        assert rel_err(got, fd_grad(build_np, vals[wrt].copy())) < 1e-5

    def test_cross_entropy_rejects_bad_labels(self):
        z = ad.Tensor(np.zeros((3, 4)))
        with pytest.raises(ContractError, match="out of range"):
            ad.cross_entropy(z, [0, 4, 1])
        with pytest.raises(ContractError, match="out of range"):
            ad.cross_entropy(z, [0, -1, 1])
        with pytest.raises(ShapeError, match="cross_entropy"):
            ad.cross_entropy(z, [0, 1])


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
                out = ad.softmax(ad.matmul(ad.relu(ad.Tensor(x)), w), axis=1)
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
    """Pull-back vs finite differences on randomized shapes up to 64x64."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    w = rng.normal(size=(cols, 3)) / np.sqrt(cols)

    def build(t):
        return oracles.mean(ad.relu(ad.matmul(t, ad.Tensor(w))))

    got = analytic_grad(build, x)
    # spot-check a bounded number of coordinates to keep the sweep cheap
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=min(12, flat.size), replace=False)
    eps = 1e-6
    for i in picks:
        keep = flat[i]
        flat[i] = keep + eps
        up = float(np.mean(np.maximum(x @ w, 0)))
        flat[i] = keep - eps
        down = float(np.mean(np.maximum(x @ w, 0)))
        flat[i] = keep
        numeric = (up - down) / (2 * eps)
        denom = max(abs(got.reshape(-1)[i]), abs(numeric), 1e-12)
        assert abs(got.reshape(-1)[i] - numeric) / denom < 1e-4
