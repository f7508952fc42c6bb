"""Signal stack: spectral surgery oracles, generator class structure, on-disk format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bandpower, bandstop
from ttalign import signals as sig
from ttalign.errors import ConfigError, ContractError


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
    def test_identity_when_rates_match(self):
        x = np.arange(200.0).reshape(1, 200)
        out = sig.resample(x, 200.0, 200.0)
        assert np.array_equal(out, x)

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


class TestPreprocess:
    def test_epoch_count_10s_500hz(self):
        rec = sig.Recording(np.zeros((8, 5000)), 500.0, subject=1, label=0, task="syn_mi")
        assert len(sig.preprocess(rec)) == 10

    def test_native_200hz_no_filter_is_exact_slicing(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(8, 600))
        rec = sig.Recording(data, 200.0, subject=1, label=2, task="syn_mi")
        eps = sig.preprocess(rec, band=None)
        assert len(eps) == 3
        for i, ep in enumerate(eps):
            assert np.array_equal(ep.data, data[:, 200 * i: 200 * (i + 1)])
            assert ep.label == 2 and ep.subject == 1

    def test_short_recording_yields_no_epochs(self):
        rec = sig.Recording(np.zeros((8, 100)), 200.0, subject=1, label=0, task="syn_mi")
        assert sig.preprocess(rec, band=None) == []

    def test_bandpass_removes_out_of_band_content(self):
        x = tone(0.5, rate=500.0, n=5000, amp=5.0)[None, :] * np.ones((8, 1))
        x += tone(110.0, rate=500.0, n=5000, amp=5.0)
        rec = sig.Recording(x, 500.0, subject=1, label=0, task="syn_stress")
        (ep, *_rest) = sig.preprocess(rec, band=(4.0, 30.0))
        assert rms(ep.data) < 0.05


class TestGenerators:
    def test_determinism_and_seed_sensitivity(self):
        a = sig.generate_dataset("syn_mi", 2, 8, seed=3)
        b = sig.generate_dataset("syn_mi", 2, 8, seed=3)
        c = sig.generate_dataset("syn_mi", 2, 8, seed=4)
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
        assert not np.array_equal(a[0].data, c[0].data)

    def test_subject_stream_independent_of_cohort_size(self):
        few = sig.generate_dataset("syn_stress", 2, 6, seed=9)
        many = sig.generate_dataset("syn_stress", 5, 6, seed=9)
        subj2_few = [r for r in few if r.subject == 2]
        subj2_many = [r for r in many if r.subject == 2]
        for x, y in zip(subj2_few, subj2_many):
            assert np.array_equal(x.data, y.data) and x.label == y.label

    def test_labels_are_balanced(self):
        recs = sig.generate_dataset("syn_speech", 1, 50, seed=0)
        counts = np.bincount([r.label for r in recs], minlength=5)
        assert counts.min() == 10 and counts.max() == 10

    def test_mi_pure_component_is_spectrally_concentrated(self):
        shift = sig.ShiftSpec(channel_gain=(1.0, 1.0), component_jitter=0.0, noise_scale=0.0)
        rec = sig.generate_dataset("syn_mi", 1, 4, seed=5, shift=shift)[0]
        ch = 0 if 0 not in sig.MI_GROUPS[rec.label] else 2  # an unsuppressed channel
        total = bandpower(rec.data[ch], rec.rate, 0.0, rec.rate / 2)
        in_band = bandpower(rec.data[ch], rec.rate, 8.0, 13.0)
        assert total - in_band < 0.01 * total

    def test_stress_theta_ratio_separates_classes(self):
        recs = sig.generate_dataset("syn_stress", 4, 120, seed=11)
        ratios = {0: [], 1: []}
        for r in recs:
            ant = bandpower(r.data[list(sig.ANTERIOR)], r.rate, 4.0, 8.0)
            post = bandpower(r.data[list(sig.POSTERIOR)], r.rate, 4.0, 8.0)
            ratios[r.label].append(ant / post)
        assert len(ratios[0]) >= 200 and len(ratios[1]) >= 200
        assert np.mean(ratios[1]) > 1.5 * np.mean(ratios[0])

    @pytest.mark.parametrize("task", sig.TASKS)
    def test_band_power_probe_separability(self, task):
        recs = sig.generate_dataset(task, 2, 60, seed=21, shift=sig.UNSHIFTED)
        eps = [e for r in recs for e in sig.preprocess(r)]
        X, y, _ = sig.epochs_to_arrays(eps)
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
            sig.generate_dataset("syn_sleep", 1, 4, seed=0)
        with pytest.raises(ConfigError):
            sig.ShiftSpec(channel_gain=(0.0, 1.0))


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        recs = sig.generate_dataset("syn_mi", 1, 8, seed=7)
        X, y, subj = sig.epochs_to_arrays([e for r in recs for e in sig.preprocess(r)])
        meta = {"task": "syn_mi", "seed": 7, "generator": {"n_subjects": 1, "trials": 8}}
        sig.save_split(tmp_path, "train", X, y, subj, meta)
        X2, y2, subj2, sidecar = sig.load_split(tmp_path, "train")
        assert np.array_equal(X2, X.astype("<f4").astype(np.float64))
        assert np.array_equal(y2, y) and np.array_equal(subj2, subj)
        assert sidecar["montage"] == list(sig.MONTAGE)
        assert sidecar["task"] == "syn_mi" and sidecar["sample_rate"] == 200.0

    def test_size_mismatch_detected(self, tmp_path):
        X = np.zeros((4, 8, 200))
        sig.save_split(tmp_path, "t", X, np.zeros(4), np.zeros(4), {})
        (tmp_path / "t.f32").write_bytes(b"\x00" * 100)
        with pytest.raises(ContractError):
            sig.load_split(tmp_path, "t")

    @staticmethod
    def _saved(tmp_path):
        X = np.arange(4 * 8 * 200, dtype=np.float64).reshape(4, 8, 200) / 7.0
        sig.save_split(tmp_path, "t", X, np.array([0, 1, 2, 3]), np.array([1, 1, 2, 2]), {"seed": 0})
        return tmp_path / "t.f32", tmp_path / "t.json"

    def test_partial_float_rejected(self, tmp_path):
        f32, _ = self._saved(tmp_path)
        f32.write_bytes(f32.read_bytes()[:-1])
        with pytest.raises(ContractError, match="whole number of float32"):
            sig.load_split(tmp_path, "t")

    def test_sidecar_not_json_rejected(self, tmp_path):
        _, sidecar = self._saved(tmp_path)
        sidecar.write_text(sidecar.read_text()[:-5])
        with pytest.raises(ContractError, match="not a valid JSON"):
            sig.load_split(tmp_path, "t")

    @pytest.mark.parametrize("key", ["shape", "dtype", "labels", "subjects"])
    def test_sidecar_missing_key_rejected(self, tmp_path, key):
        _, sidecar = self._saved(tmp_path)
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ContractError, match=key):
            sig.load_split(tmp_path, "t")

    @pytest.mark.parametrize("key", ["labels", "subjects"])
    def test_per_epoch_list_length_mismatch_rejected(self, tmp_path, key):
        _, sidecar = self._saved(tmp_path)
        meta = json.loads(sidecar.read_text())
        meta[key] = meta[key][:-1]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ContractError, match=f"'{key}' must list 4 integers"):
            sig.load_split(tmp_path, "t")

    def test_nonfinite_samples_rejected(self, tmp_path):
        f32, _ = self._saved(tmp_path)
        f32.write_bytes(np.array([np.inf], dtype="<f4").tobytes() + f32.read_bytes()[4:])
        with pytest.raises(ContractError, match="non-finite"):
            sig.load_split(tmp_path, "t")

    @settings(max_examples=60, deadline=None)
    @given(
        target=st.sampled_from(["f32", "json"]),
        edit=st.sampled_from(["truncate", "extend", "flip"]),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        extra=st.binary(min_size=1, max_size=16),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_corrupt_files_raise_only_contract_error(self, tmp_path_factory, target, edit, where, extra, bit):
        f32, sidecar = self._saved(tmp_path_factory.mktemp("fuzz"))
        path = f32 if target == "f32" else sidecar
        raw = path.read_bytes()
        at = int(where * len(raw))
        if edit == "truncate":
            path.write_bytes(raw[:at])
        elif edit == "extend":
            path.write_bytes(raw + extra)
        else:
            path.write_bytes(raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1:])
        try:
            X, labels, subjects, meta = sig.load_split(f32.parent, "t")
        except ContractError:
            return
        # a flipped sample bit or sidecar digit, or trailing JSON whitespace, is
        # undetectable without a checksum; what loads must be a well-formed split
        assert edit != "truncate" and not (edit == "extend" and target == "f32")
        assert X.shape == tuple(meta["shape"]) and np.all(np.isfinite(X))
        assert labels.shape == subjects.shape == (X.shape[0],)
        again = tmp_path_factory.mktemp("again")
        sig.save_split(again, "t", X, labels, subjects, {})
        assert (again / "t.f32").read_bytes() == f32.read_bytes()


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
