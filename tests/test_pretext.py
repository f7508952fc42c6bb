"""Pretext views: exact label grids, involution/inversion, label recoverability."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import JIGSAW_PERMS, bandpower, jigsaw_order
from ttalign import pretext as px
from ttalign import signals as sig
from ttalign.errors import ConfigError, ContractError


def noisy_epoch(seed=0, rms=5.0):
    rng = np.random.default_rng(seed)
    return oracles.pink_noise(rng, 8, 200, 200.0, rms=rms)


class TestBandTables:
    def test_tables_bit_for_bit(self):
        assert px.band_table_for("syn_speech") == ((0.5, 8.0), (8.0, 30.0), (30.0, 70.0), (70.0, 100.0))
        assert px.band_table_for("syn_stress") == ((4.0, 8.0), (8.0, 12.0), (13.0, 20.0), (20.0, 30.0))
        assert px.band_table_for("syn_mi") == ((3.0, 7.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0))

    def test_tables_are_ordered_and_non_overlapping(self):
        for task, table in px.BAND_TABLES.items():
            for lo, hi in table:
                assert lo < hi, task
            for (_, hi), (lo2, _) in zip(table, table[1:]):
                assert lo2 >= hi, task

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            px.band_table_for("syn_sleep")


def draw(name, X, rng, task="syn_mi"):
    return px.make_view(name, X, rng, px.task_spec_for(task))


class _Forced:
    """Stub generator whose integer draw always lands on ``label``."""

    def __init__(self, label):
        self.label = label

    def integers(self, *_a, **_k):
        return self.label


class TestStoppedBand:
    def test_label_matches_drawn_band_and_classes(self):
        x = noisy_epoch(1)[None]
        view, labels = draw("stopped_band", x, np.random.default_rng(0))
        assert 0 <= labels[0] < len(px.band_table_for("syn_mi"))
        assert view.shape == x.shape

    def test_out_of_band_tone_preserved_for_label_zero(self):
        # 10 Hz sine with the stress table, band 0 = (4, 8): RMS within 1%
        t = np.arange(200) / 200.0
        x = np.tile(np.sin(2 * np.pi * 10.0 * t), (1, 8, 1))
        view, _ = draw("stopped_band", x, _Forced(0), "syn_stress")
        assert abs(np.sqrt((view ** 2).mean()) - np.sqrt((x ** 2).mean())) < 0.01

    def test_label_recoverable_from_bandpower_ratio(self):
        table = px.band_table_for("syn_mi")
        X = np.stack([noisy_epoch(seed=100 + trial) for trial in range(40)])
        views, labels = draw("stopped_band", X, np.random.default_rng(7))
        for x, view, label in zip(X, views, labels):
            ratios = [bandpower(view, 200.0, lo, hi) / bandpower(x, 200.0, lo, hi) for lo, hi in table]
            assert int(np.argmin(ratios)) == label

    def test_empty_table_rejected(self):
        spec = replace(px.task_spec_for("syn_mi"), band_table=())
        with pytest.raises(ConfigError):
            px.make_view("stopped_band", noisy_epoch()[None], np.random.default_rng(0), spec)


class TestAmpScale:
    def test_factor_grid_exact(self):
        assert len(px.AMP_FACTORS) == 16
        for k, f in enumerate(px.AMP_FACTORS):
            assert f == -2.0 + (k * 4.0) / 15.0
        assert px.AMP_FACTORS[0] == -2.0 and px.AMP_FACTORS[15] == 2.0
        assert px.AMP_FACTORS[8] == 0.13333333333333330
        assert 0.0 not in px.AMP_FACTORS

    def test_view_is_exact_multiple(self):
        x = noisy_epoch(2)
        view, labels = draw("amp_scale", x[None], np.random.default_rng(5))
        assert np.array_equal(view[0], px.AMP_FACTORS[labels[0]] * x)

    def test_label_recoverable_from_rms_and_sign(self):
        X = np.stack([noisy_epoch(seed=200 + trial) for trial in range(40)])
        views, labels = draw("amp_scale", X, np.random.default_rng(11))
        for x, view, label in zip(X, views, labels):
            magnitude = np.sqrt((view ** 2).mean() / (x ** 2).mean())
            sign = np.sign(np.sum(view * x))
            assert int(np.argmin([abs(sign * magnitude - f) for f in px.AMP_FACTORS])) == label


class TestApFlip:
    def test_involution_bitwise(self):
        x = noisy_epoch(3)[None]
        once, _ = draw("ap_flip", x, _Forced(1))
        twice, labels = draw("ap_flip", once, _Forced(1))
        assert labels[0] == 1 and not np.array_equal(once, x)
        assert np.array_equal(twice, x)

    def test_unflipped_view_is_copy_not_alias(self):
        x = noisy_epoch(4)[None]
        view, _ = draw("ap_flip", x, _Forced(0))
        assert np.array_equal(view, x) and not np.shares_memory(view, x)

    def test_pairs_swap_expected_rows(self):
        x = noisy_epoch(5)
        view = draw("ap_flip", x[None], _Forced(1))[0][0]
        for a, b in sig.AP_PAIRS:
            assert np.array_equal(view[a], x[b])
            assert np.array_equal(view[b], x[a])


class TestJigsaw:
    def test_identity_permutation_is_label_zero(self):
        x = noisy_epoch(7)[None]
        view, labels = draw("jigsaw", x, _Forced(0))
        assert labels[0] == 0 and np.array_equal(view, x)

    def test_inverse_roundtrip_bitwise(self):
        X = np.stack([noisy_epoch(seed=300 + trial) for trial in range(12)])
        views, labels = draw("jigsaw", X, np.random.default_rng(9))
        for x, view, label in zip(X, views, labels):
            assert np.array_equal(view[:, np.argsort(jigsaw_order(200, label))], x)

    def test_chunks_are_near_equal_and_contiguous(self):
        """Each label's slice pairs copy the 3 chunks in its permutation order onto
        consecutive destinations that tile the epoch."""
        chunks = [slice(0, 67), slice(67, 134), slice(134, 200)]
        for pairs, perm in zip(px._jigsaw_slices(200), JIGSAW_PERMS):
            assert [src for _, src in pairs] == [chunks[i] for i in perm]
            cuts = [0]
            for dst, src in pairs:
                assert dst.start == cuts[-1] and dst.stop - dst.start == src.stop - src.start
                cuts.append(dst.stop)
            assert cuts[-1] == 200

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("samples", [200, 50])
    def test_every_label_is_the_oracle_gather_bitwise(self, samples, dtype):
        """All six labels, through ``apply_view`` and through ``make_view`` writing from a
        source's rows, give the bytes of the ``jigsaw_order`` gather."""
        spec = px.task_spec_for("syn_mi")
        X = np.random.default_rng(samples).normal(size=(6, 8, samples)).astype(dtype)
        views = px.apply_view("jigsaw", X, np.arange(6), spec)
        want = np.stack([x[:, jigsaw_order(samples, label)] for label, x in enumerate(X)])
        assert views.dtype == np.dtype(dtype) and views.tobytes() == want.tobytes()
        source = px.view_source(X, spec, dtype, stopped=False, chunk=4)
        rows = np.array([5, 0, 0, 3])
        for label in range(6):
            out = np.empty((4, 8, samples), dtype)
            px.make_view("jigsaw", source, _Forced(label), spec, rows=rows, out=out)
            assert out.tobytes() == X[rows][..., jigsaw_order(samples, label)].tobytes(), label


class TestTaskSpec:
    def test_pairings_and_weights(self):
        speech = px.task_spec_for("syn_speech")
        stress = px.task_spec_for("syn_stress")
        mi = px.task_spec_for("syn_mi")
        assert speech.ssl_tasks == ("stopped_band", "amp_scale") and speech.weights == (0.6, 0.6)
        assert stress.ssl_tasks == ("stopped_band", "ap_flip") and stress.weights == (0.2, 0.1)
        assert mi.ssl_tasks == ("stopped_band", "jigsaw") and mi.weights == (0.1, 0.8)
        assert speech.ssl_dims == (4, 16) and stress.ssl_dims == (4, 2) and mi.ssl_dims == (4, 6)
        assert speech.n_main == 5 and stress.n_main == 2 and mi.n_main == 4

    def test_weight_override(self):
        spec = replace(px.task_spec_for("syn_mi"), weights=(0.0, 0.5))
        assert spec.weights == (0.0, 0.5)

    def test_make_view_dispatch(self):
        x = noisy_epoch(10)[None]
        spec = px.task_spec_for("syn_mi")
        for name in spec.ssl_tasks:
            views, labels = px.make_view(name, x, np.random.default_rng(3), spec)
            assert views.shape == x.shape and labels.shape == (1,) and labels.dtype == np.int64
        with pytest.raises(ConfigError):
            px.make_view("rotation", x, np.random.default_rng(3), spec)
        with pytest.raises(ContractError):
            px.make_view("jigsaw", x[0], np.random.default_rng(3), spec)

    def test_seeded_views_reproduce(self):
        x = noisy_epoch(11)[None]
        spec = px.task_spec_for("syn_speech")
        for name in spec.ssl_tasks:
            a = px.make_view(name, x, np.random.default_rng(8), spec)
            b = px.make_view(name, x, np.random.default_rng(8), spec)
            assert np.array_equal(a[1], b[1]) and np.array_equal(a[0], b[0])


# the per-sample transforms are the reference for the batched make_view
PER_SAMPLE = {
    "stopped_band": lambda x, rng, spec: oracles.stopped_band(x, rng, spec.band_table),
    "amp_scale": lambda x, rng, spec: oracles.amp_scale(x, rng),
    "ap_flip": lambda x, rng, spec: oracles.ap_flip(x, rng),
    "jigsaw": lambda x, rng, spec: oracles.jigsaw(x, rng),
}


@pytest.mark.parametrize("batch", [1, 3, 8, 16, 32])
@pytest.mark.parametrize("task, name", [
    (task, name) for task in ("syn_mi", "syn_stress", "syn_speech") for name in px.task_spec_for(task).ssl_tasks
])
def test_batched_views_equal_stacked_per_sample_draws(task, name, batch):
    spec = px.task_spec_for(task)
    X = np.stack([noisy_epoch(100 + i) for i in range(batch)])
    rng, ref_rng, one_rng = (np.random.default_rng([batch, 5]) for _ in range(3))
    views, labels = px.make_view(name, X, rng, spec)

    ref = [PER_SAMPLE[name](x, ref_rng, spec) for x in X]
    assert np.array_equal(labels, [label for _, label in ref])
    assert np.array_equal(views, np.stack([view for view, _ in ref]))

    one = [px.make_view(name, X[i:i + 1], one_rng, spec) for i in range(batch)]
    assert np.array_equal(labels, np.concatenate([lab for _, lab in one]))
    assert np.array_equal(views, np.concatenate([v for v, _ in one]))

    state = rng.bit_generator.state
    assert state == ref_rng.bit_generator.state == one_rng.bit_generator.state


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stopped_band_table_rows_are_each_epochs_views_bitwise(dtype):
    """Each row of the table, built in chunks of 3 over 7 epochs, is ``apply_view`` of that
    epoch alone under that band, cast to the dtype, byte for byte."""
    spec = px.task_spec_for("syn_speech")
    X = np.stack([noisy_epoch(200 + i) for i in range(7)])
    table = px.stopped_band_table(X, spec, dtype, chunk=3)
    assert table.shape == (7, 4, 8, 200) and table.dtype == np.dtype(dtype)
    for i in range(7):
        for b in range(4):
            want = px.apply_view("stopped_band", X[i:i + 1], np.array([b]), spec)[0].astype(dtype)
            assert table[i, b].tobytes() == want.tobytes(), (i, b)


@pytest.mark.parametrize("task", ["syn_mi", "syn_stress", "syn_speech"])
def test_views_gathered_from_a_source_are_the_batchs_views_cast(task):
    """``make_view`` on a ``ViewSource`` draws the labels and generator state of the batch
    it names and writes that batch's views, cast to the source's dtype, into ``out``."""
    spec = px.task_spec_for(task)
    X = np.stack([noisy_epoch(300 + i) for i in range(9)])
    source = px.view_source(X, spec, "float32", stopped=True, chunk=4)
    rows = np.array([7, 2, 2, 5, 0])
    for name in spec.ssl_tasks:
        out = np.empty((5, 8, 200), np.float32)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        views, labels = px.make_view(name, source, rng, spec, rows=rows, out=out)
        want, want_labels = px.make_view(name, X[rows], ref_rng, spec)
        assert views is out and np.array_equal(labels, want_labels)
        assert out.tobytes() == want.astype(np.float32).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_amp_scale_written_from_a_source_is_the_float32_cast_of_its_views():
    """At batch 32, the product stored straight into a float32 ``out`` is the float64
    ``apply_view`` views cast to float32, byte for byte."""
    spec = px.task_spec_for("syn_speech")
    X = np.stack([noisy_epoch(400 + i) for i in range(40)])
    source = px.view_source(X, spec, "float32", stopped=False, chunk=8)
    rows = np.random.default_rng(3).integers(0, 40, 32)
    out = np.empty((32, 8, 200), np.float32)
    views, labels = px.make_view("amp_scale", source, np.random.default_rng(4), spec, rows=rows, out=out)
    assert views is out and len(set(labels.tolist())) > 1
    assert out.tobytes() == px.apply_view("amp_scale", X[rows], labels, spec).astype(np.float32).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    name=st.sampled_from(["stopped_band", "amp_scale", "ap_flip", "jigsaw"]),
    task=st.sampled_from(["syn_mi", "syn_stress", "syn_speech"]),
)
def test_property_views_preserve_shape_and_label_range(seed, name, task):
    rng = np.random.default_rng(seed)
    x = oracles.pink_noise(rng, 8, 200, 200.0, rms=4.0)
    spec = px.task_spec_for(task)
    views, labels = px.make_view(name, x[None], rng, spec)
    assert views.shape == (1,) + x.shape
    assert views.dtype == np.float64
    # the label must fit the head that learns it: this task's, or that of the task owning the pretext
    owner = spec if name in spec.ssl_tasks else px.task_spec_for(
        next(t for t, domain in px.DOMAIN_TASK.items() if domain == name))
    assert 0 <= labels[0] < owner.ssl_dims[owner.ssl_tasks.index(name)]
