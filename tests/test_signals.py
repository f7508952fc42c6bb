"""Signal stack: spectral surgery oracles, generator class structure, on-disk format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bandpower, bandstop, generate_per_recording, preprocess_per_recording
from ttalign import signals as sig
from ttalign.errors import ConfigError, ContractError

UNSHIFTED = sig.ShiftSpec(channel_gain=(1.0, 1.0), component_jitter=0.0)


def tone(f, rate=200.0, n=200, amp=1.0, phase=0.0):
    t = np.arange(n) / rate
    return amp * np.sin(2 * np.pi * f * t + phase)


def rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def fit_softmax_probe(F, y, n_classes, steps=400, lr=0.5, seed=0):
    """Tiny multinomial-logistic probe on band-power features (test-side oracle)."""
    mu, sd = F.mean(0), F.std(0) + 1e-12
    Z = (F - mu) / sd
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(Z.shape[1], n_classes)) * 0.01
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(steps):
        logits = Z @ W + b
        p = np.exp(logits - logits.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        g = (p - onehot) / len(y)
        W -= lr * Z.T @ g
        b -= lr * g.sum(0)
    return (mu, sd, W, b)


def probe_predict(probe, F):
    mu, sd, W, b = probe
    return np.argmax((F - mu) / sd @ W + b, axis=1)


def band_features(X, rate=200.0):
    bands = [(1, 2), (2, 3), (3, 4), (4, 6), (6, 8), (8, 13), (13, 20), (20, 30), (30, 45)]
    feats = np.empty((len(X), X.shape[1] * len(bands)))
    for i, x in enumerate(X):
        feats[i] = [bandpower(x[c], rate, lo, hi) for c in range(X.shape[1]) for lo, hi in bands]
    return np.log(feats + 1e-12)


class TestBandpower:
    def test_unit_sine_power_is_half(self):
        x = tone(10.0)
        assert bandpower(x, 200.0, 8.0, 13.0) == pytest.approx(0.5, rel=1e-9)

    def test_parseval_full_band(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 200))
        total = bandpower(x, 200.0, 0.0, 100.0)
        assert total == pytest.approx(float(np.mean(x ** 2)), rel=1e-9)

    def test_out_of_band_tone_contributes_nothing(self):
        x = tone(30.0)
        assert bandpower(x, 200.0, 8.0, 13.0) < 1e-20


class TestBandstop:
    def test_in_band_tone_removed(self):
        x = tone(10.0)
        out = bandstop(x, 200.0, 8.0, 13.0)
        assert rms(out) < 0.01 * rms(x)

    def test_out_of_band_tone_preserved(self):
        x = tone(30.0)
        out = bandstop(x, 200.0, 8.0, 13.0)
        assert abs(rms(out) - rms(x)) < 0.01 * rms(x)

    def test_attenuation_and_ripple_sweep(self):
        # stopband center at least 40 dB down; passband ripple within 0.1 dB
        for f in range(1, 100):
            x = tone(float(f))
            out = bandstop(x, 200.0, 8.0, 13.0)
            db = 20 * np.log10(max(rms(out), 1e-30) / rms(x))
            if 8 <= f <= 13:
                assert db < -40.0, f
            elif f < 7 or f > 14:
                assert abs(db) < 0.1, f

    def test_idempotent_away_from_transitions(self):
        x = tone(10.0) + tone(30.0, amp=2.0) + tone(55.0, amp=0.5)
        once = bandstop(x, 200.0, 8.0, 13.0)
        twice = bandstop(once, 200.0, 8.0, 13.0)
        assert np.max(np.abs(twice - once)) < 1e-9 * max(1.0, np.max(np.abs(once)))

    def test_multichannel_independent_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 200))
        out = bandstop(x, 200.0, 8.0, 13.0)
        single = bandstop(x[1], 200.0, 8.0, 13.0)
        np.testing.assert_allclose(out[1], single, atol=1e-12)

    def test_degenerate_band_rejected(self):
        with pytest.raises(ConfigError):
            sig.bandstop_mask(200, 200.0, 13.0, 13.0)
        with pytest.raises(ConfigError):
            sig.bandpass(np.ones(200), 200.0, 13.0, 8.0)
        with pytest.raises(ConfigError):
            sig.bandstop_mask(200, 200.0, 10.0, 150.0)


class TestResample:
    @pytest.mark.parametrize("rate_out", [200.0, 400.0])
    def test_equal_or_higher_rate_refused(self, rate_out):
        with pytest.raises(ContractError, match="only downsamples"):
            sig.resample(np.arange(200.0).reshape(1, 200), 200.0, rate_out)

    def test_tone_survives_downsampling(self):
        x = tone(10.0, rate=500.0, n=500)
        out = sig.resample(x, 500.0, 200.0)
        assert out.shape[-1] == 200
        np.testing.assert_allclose(out, tone(10.0, rate=200.0, n=200), atol=1e-9)

    def test_above_nyquist_content_is_dropped_not_aliased(self):
        x = tone(120.0, rate=500.0, n=500)
        out = sig.resample(x, 500.0, 200.0)
        residual = bandpower(out, 200.0, 0.0, 100.0)
        original = bandpower(x, 500.0, 115.0, 125.0)
        assert residual < 1e-4 * original  # at least 40 dB down

    def test_too_short_target_rejected(self):
        with pytest.raises(ContractError):
            sig.resample(np.ones(4), 1000.0, 100.0)


def one_subject(data, label=0, subject=1):
    """``preprocess``'s arrays for trials of one subject and label."""
    return data, np.full(len(data), label, dtype=np.int64), np.full(len(data), subject, dtype=np.int64)


class TestPreprocess:
    def test_epoch_count_10s_500hz(self):
        X, y, subj = sig.preprocess(*one_subject(np.zeros((1, 8, 5000))), 500.0, [0])
        assert X.shape == (10, 8, 200) and y.shape == subj.shape == (10,)

    def test_epochs_are_slices_of_the_downsampled_passband(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2, 8, 1300))
        X, y, subj = sig.preprocess(*one_subject(data, label=2), 400.0, [1, 0])
        passed = sig.resample(sig.bandpass(data, 400.0, *sig.PASSBAND), 400.0, 200.0)
        assert X.shape == (6, 8, 200) and X.flags.c_contiguous
        for i in range(6):
            row, k = (1, 0)[i // 3], i % 3
            assert np.array_equal(X[i], passed[row, :, 200 * k: 200 * (k + 1)])
        assert y.tolist() == [2] * 6 and subj.tolist() == [1] * 6
        assert y.dtype == subj.dtype == np.int64

    def test_trials_shorter_than_an_epoch_or_no_rows_refused(self):
        with pytest.raises(ContractError, match="no epochs"):
            sig.preprocess(*one_subject(np.zeros((2, 8, 200))), 500.0, [0, 1])
        with pytest.raises(ContractError, match="no epochs"):
            sig.preprocess(*one_subject(np.ones((2, 8, 500))), 500.0, [])

    def test_trials_of_mixed_lengths_refused(self):
        # one array holds trials of one length: a list of recordings, ragged or 2-D, is refused
        for data in ([np.zeros((8, 500)), np.zeros((8, 1000))], np.zeros((8, 500))):
            with pytest.raises(ContractError, match="one \\(trials, channels, samples\\) array"):
                sig.preprocess(data, np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64), 500.0, [0])

    @pytest.mark.parametrize("rate", [200.0, 180.0])
    def test_trials_at_or_below_the_target_rate_refused(self, rate):
        # every task's native rate lies above TARGET_RATE; one call takes one rate
        with pytest.raises(ContractError, match="only downsamples"):
            sig.preprocess(*one_subject(np.ones((1, 8, 400))), rate, [0])

    @pytest.mark.parametrize("rate, n, n_epochs", [(250.0, 500, 2), (500.0, 850, 1)])
    def test_subject_runs_equal_one_trial_at_a_time(self, rate, n, n_epochs):
        # runs of one, two and three rows, a subject returning after another, rows out
        # of order and repeated
        rng = np.random.default_rng(7)
        data = rng.normal(size=(7, 8, n)) * 10.0
        labels = np.array([0, 1, 2, 3, 1, 0, 3], dtype=np.int64)
        subjects = np.array([1, 1, 1, 1, 2, 2, 2], dtype=np.int64)
        rows = [0, 1, 2, 4, 1, 6, 5, 3, 2]
        got = sig.preprocess(data, labels, subjects, rate, rows)
        want = preprocess_per_recording(data, labels, subjects, rate, rows)
        assert got[0].flags.c_contiguous and got[0].shape == (9 * n_epochs, 8, 200)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_bandpass_removes_out_of_band_content(self):
        x = tone(0.5, rate=500.0, n=5000, amp=5.0)[None, :] * np.ones((8, 1))
        x += tone(110.0, rate=500.0, n=5000, amp=5.0)
        assert rms(sig.bandpass(x, 500.0, 4.0, 30.0)) < 0.05
        # 90 Hz lies below the 100 Hz Nyquist of TARGET_RATE: only PASSBAND removes it
        hum = tone(90.0, rate=500.0, n=5000, amp=5.0)[None, :] * np.ones((8, 1))
        X, _, _ = sig.preprocess(*one_subject(hum[None]), 500.0, [0])
        assert rms(X) < 0.05


class TestGenerators:
    @pytest.mark.parametrize("duration", [1.0, 1.7])
    @pytest.mark.parametrize("trials", [1, 13])
    @pytest.mark.parametrize("noise_scale", [0.0, 1.0])
    @pytest.mark.parametrize("task", sig.TASKS)
    def test_subject_stacks_are_bitwise_the_per_trial_generator(self, task, noise_scale, trials, duration):
        shift = sig.ShiftSpec(noise_scale=noise_scale)
        got = sig.generate_dataset(task, (2, 5, 11), trials, 6, shift, duration)
        want = generate_per_recording(task, (2, 5, 11), trials, 6, shift, duration)
        assert len(got[0]) == 3 * trials and got[0].flags.c_contiguous
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got[2].tolist() == [2] * trials + [5] * trials + [11] * trials

    def test_determinism_and_seed_sensitivity(self):
        a, _, _ = sig.generate_dataset("syn_mi", range(1, 3), 8, seed=3)
        b, _, _ = sig.generate_dataset("syn_mi", range(1, 3), 8, seed=3)
        c, _, _ = sig.generate_dataset("syn_mi", range(1, 3), 8, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], c[0])

    def test_subject_stream_independent_of_cohort_size(self):
        X_few, y_few, s_few = sig.generate_dataset("syn_stress", range(1, 3), 6, seed=9)
        X_many, y_many, s_many = sig.generate_dataset("syn_stress", range(1, 6), 6, seed=9)
        assert np.array_equal(X_few[s_few == 2], X_many[s_many == 2])
        assert np.array_equal(y_few[s_few == 2], y_many[s_many == 2])

    def test_labels_are_balanced(self):
        _, y, _ = sig.generate_dataset("syn_speech", range(1, 2), 50, seed=0)
        counts = np.bincount(y, minlength=5)
        assert counts.min() == 10 and counts.max() == 10

    def test_mi_pure_component_is_spectrally_concentrated(self):
        shift = sig.ShiftSpec(channel_gain=(1.0, 1.0), component_jitter=0.0, noise_scale=0.0)
        X, y, _ = sig.generate_dataset("syn_mi", range(1, 2), 4, seed=5, shift=shift)
        rate = sig.NATIVE_RATE["syn_mi"]
        ch = 0 if 0 not in sig.MI_GROUPS[y[0]] else 2  # an unsuppressed channel
        total = bandpower(X[0, ch], rate, 0.0, rate / 2)
        in_band = bandpower(X[0, ch], rate, 8.0, 13.0)
        assert total - in_band < 0.01 * total

    def test_stress_theta_ratio_separates_classes(self):
        X, y, _ = sig.generate_dataset("syn_stress", range(1, 5), 120, seed=11)
        rate = sig.NATIVE_RATE["syn_stress"]
        ratios = {0: [], 1: []}
        for x, label in zip(X, y):
            ant = bandpower(x[list(sig.ANTERIOR)], rate, 4.0, 8.0)
            post = bandpower(x[list(sig.POSTERIOR)], rate, 4.0, 8.0)
            ratios[label].append(ant / post)
        assert len(ratios[0]) >= 200 and len(ratios[1]) >= 200
        assert np.mean(ratios[1]) > 1.5 * np.mean(ratios[0])

    @pytest.mark.parametrize("task", sig.TASKS)
    def test_band_power_probe_separability(self, task):
        data = sig.generate_dataset(task, range(1, 3), 60, seed=21, shift=UNSHIFTED)
        X, y, _ = sig.preprocess(*data, sig.NATIVE_RATE[task], np.arange(120))
        F = band_features(X)
        n = len(y)
        cut = int(0.7 * n)
        probe = fit_softmax_probe(F[:cut], y[:cut], sig.N_CLASSES[task])
        pred = probe_predict(probe, F[cut:])
        truth = y[cut:]
        per_class = [np.mean(pred[truth == c] == c) for c in np.unique(truth)]
        assert np.mean(per_class) > 0.8, f"{task}: balanced acc {np.mean(per_class):.3f}"

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            sig.generate_dataset("syn_sleep", range(1, 2), 4, seed=0)
        with pytest.raises(ConfigError):
            sig.ShiftSpec(channel_gain=(0.0, 1.0))


class TestDatasetFiles:
    def test_split_file_layout(self, tmp_path):
        X, y, subj = sig.preprocess(*sig.generate_dataset("syn_mi", range(1, 2), 8, seed=7), 250.0, np.arange(8))
        meta = {"task": "syn_mi", "seed": 7, "generator": {"n_subjects": 1, "trials": 8}}
        sig.save_split(tmp_path, "train", X, y, subj, meta)
        assert (tmp_path / "train.f32").read_bytes() == X.astype("<f4").tobytes()
        assert json.loads((tmp_path / "train.json").read_text()) == {
            "shape": list(X.shape), "dtype": "<f4", "sample_rate": 200.0, "montage": list(sig.MONTAGE),
            "labels": y.tolist(), "subjects": subj.tolist(), **meta,
        }

    def test_non_epoch_array_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="epoch array"):
            sig.save_split(tmp_path, "t", np.zeros((4, 200)), np.zeros(4), np.zeros(4), {})
        assert not list(tmp_path.iterdir())


@settings(max_examples=20, deadline=None)
@given(
    f=st.integers(min_value=1, max_value=99),
    low=st.integers(min_value=1, max_value=90),
    width=st.integers(min_value=1, max_value=9),
)
def test_property_bandstop_tone_goes_where_the_mask_says(f, low, width):
    high = low + width
    x = tone(float(f))
    out = bandstop(x, 200.0, float(low), float(high))
    ratio = rms(out) / rms(x)
    if low <= f <= high:
        assert ratio < 0.01
    elif f < low - 1 or f > high + 1:
        assert abs(ratio - 1.0) < 0.01
    else:
        assert 0.0 <= ratio <= 1.001  # inside a transition skirt
