"""Synthetic multichannel EEG-like signal generation and preprocessing.

Three task families are generated on a fixed 8-channel montage:

* ``syn_mi`` (4 classes): a 10 Hz rhythm on all channels whose amplitude is
  suppressed over a class-specific channel group from 0.3 s onward.
* ``syn_stress`` (2 classes): anterior 6 Hz theta versus posterior 10 Hz alpha,
  with the stress class boosting theta and damping alpha.
* ``syn_speech`` (5 classes): a broadband carrier amplitude-modulated at a
  class-specific envelope rate (2..6 Hz) plus the envelope-following component.

All spectral surgery (band-pass, band-stop masks, downsampling) works on the
one-sided FFT with raised-cosine edges ``TRANSITION`` Hz wide, so passbands are
preserved exactly and stopbands are zeroed exactly at the bin level.

``generate_dataset`` returns one subject-major (trials, channels, samples) array
at the task's native rate, a split is a list of its row indices, and
``preprocess`` turns a split's rows into epochs. Each subject's trials are built
as one stack, drawn as a one-trial loop would: per trial, the noise normals, the
phases, then the ``syn_speech`` carrier's normals. All later arithmetic, here
and in ``preprocess``, is elementwise or along each row, which numpy computes
per row as for a lone trial, so each trial is bitwise the trial alone.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, check_seed

MONTAGE = ("Fp1", "Fp2", "F3", "F4", "P3", "P4", "O1", "O2")
ANTERIOR = (0, 1, 2, 3)
POSTERIOR = (4, 5, 6, 7)
AP_PAIRS = ((0, 6), (1, 7), (2, 4), (3, 5))  # (Fp1,O1) (Fp2,O2) (F3,P3) (F4,P4)

TASKS = ("syn_mi", "syn_stress", "syn_speech")
N_CLASSES = {"syn_mi": 4, "syn_stress": 2, "syn_speech": 5}
NATIVE_RATE = {"syn_mi": 250.0, "syn_stress": 500.0, "syn_speech": 256.0}
TARGET_RATE = 200.0
EPOCH_SAMPLES = 200
TRANSITION = 1.0  # Hz, width of each raised-cosine filter edge
# Hz, kept by preprocess. The low edge's 1 Hz skirt reaches below 0 Hz, so a DC
# offset passes at gain 0.79; moving the stop region changes rounding (a refreeze).
PASSBAND = (0.3, 75.0)

# class -> suppressed channel group for syn_mi
MI_GROUPS = ((2, 4), (3, 5), (0, 1), (6, 7))  # left, right, frontal, occipital
SPEECH_ENV_HZ = (2.0, 3.0, 4.0, 5.0, 6.0)


@dataclass(frozen=True)
class ShiftSpec:
    """Per-subject covariate-shift model.

    Each subject draws a per-channel gain vector from ``channel_gain`` and one
    multiplicative amplitude jitter per signal component from
    ``1 +- component_jitter``. ``noise_scale`` scales the pink-noise floor.
    """

    channel_gain: tuple[float, float] = (0.7, 1.3)
    component_jitter: float = 0.2
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.channel_gain
        if not 0 < lo <= hi <= sys.float_info.max:
            raise ConfigError(f"channel gain range must satisfy 0 < lo <= hi < inf, got {self.channel_gain}")
        if not 0 <= self.component_jitter < 1:
            raise ConfigError(f"component jitter must lie in [0, 1), got {self.component_jitter}")
        if not 0 <= self.noise_scale <= sys.float_info.max:
            raise ConfigError(f"noise scale must be non-negative and finite, got {self.noise_scale}")
        check_seed(self.seed, "shift seed")


def subject_seed(master_seed: int, subject: int) -> int:
    """Independent per-subject stream: master seed XOR a splitmix-style subject hash."""
    h = ((subject + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    return (master_seed ^ h) & 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------

def _validate_band(low: float, high: float, rate: float, name: str) -> None:
    if not 0 <= low < high:
        raise ConfigError(f"{name}: degenerate band ({low}, {high})")
    if high > rate / 2 + 1e-9:
        raise ConfigError(f"{name}: band edge {high} Hz above Nyquist {rate / 2} Hz")


def _stop_mask(freqs: np.ndarray, low: float, high: float) -> np.ndarray:
    """1 in the passband, 0 in [low, high], raised-cosine ramps of width ``TRANSITION``."""
    m = np.ones_like(freqs)
    m[(freqs >= low) & (freqs <= high)] = 0.0
    lo_ramp = (freqs >= low - TRANSITION) & (freqs < low)
    m[lo_ramp] = 0.5 * (1.0 + np.cos(np.pi * (freqs[lo_ramp] - (low - TRANSITION)) / TRANSITION))
    hi_ramp = (freqs > high) & (freqs <= high + TRANSITION)
    m[hi_ramp] = 0.5 * (1.0 - np.cos(np.pi * (freqs[hi_ramp] - high) / TRANSITION))
    return m


def bandstop_mask(n: int, rate: float, low: float, high: float) -> np.ndarray:
    """The rfft-bin gains that zero the [low, high] Hz band of an n-sample signal."""
    _validate_band(low, high, rate, "bandstop")
    return _stop_mask(np.fft.rfftfreq(n, d=1.0 / rate), low, high)


def bandpass(data: np.ndarray, rate: float, low: float, high: float) -> np.ndarray:
    """Keep [low, high] Hz exactly, raised-cosine skirts outside, zero elsewhere."""
    _validate_band(low, high, rate, "bandpass")
    n = data.shape[-1]
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    m = 1.0 - _stop_mask(freqs, low, high)
    spec = np.fft.rfft(data, axis=-1)
    spec *= m
    return np.fft.irfft(spec, n=n, axis=-1)


def resample(data: np.ndarray, rate_in: float, rate_out: float) -> np.ndarray:
    """Fourier-domain downsampling: the spectrum is truncated, so nothing aliases."""
    if not 0 < rate_out < rate_in:
        raise ContractError(f"resample only downsamples, got {rate_in} Hz -> {rate_out} Hz")
    n = data.shape[-1]
    n_out = int(round(n * rate_out / rate_in))
    if n_out < 2:
        raise ContractError(f"resample target too short ({n_out} samples)")
    out_spec = np.fft.rfft(data, axis=-1)[..., :n_out // 2 + 1]
    if n_out % 2 == 0:
        out_spec[..., -1] = out_spec[..., -1].real
    out = np.fft.irfft(out_spec, n=n_out, axis=-1)
    out *= n_out / n
    return out


def _pink(normals: np.ndarray, n: int, rate: float, rms: float) -> np.ndarray:
    """1/f-spectrum noise of ``n`` samples per channel, scaled to RMS ``rms``, from
    (..., 2, channels, n // 2 + 1) normals: the real, then the imaginary parts of its spectrum."""
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    amp = np.zeros_like(freqs)
    amp[1:] = 1.0 / np.sqrt(freqs[1:])
    x = np.fft.irfft(amp * (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]), n=n, axis=-1)
    x *= rms / np.sqrt(np.mean(x ** 2, axis=-1, keepdims=True))
    return x


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _raised_cosine_drop(t: np.ndarray, onset: float, ramp: float, floor: float) -> np.ndarray:
    """Amplitude envelope: 1 before onset, smooth ramp to ``floor`` afterwards."""
    env = np.ones_like(t)
    lo, hi = onset - ramp / 2, onset + ramp / 2
    mid = (t >= lo) & (t <= hi)
    env[mid] = floor + (1.0 - floor) * 0.5 * (1.0 + np.cos(np.pi * (t[mid] - lo) / ramp))
    env[t > hi] = floor
    return env


def _subject_profile(shift: ShiftSpec, master_seed: int, subject: int):
    rng = np.random.default_rng(subject_seed(master_seed ^ shift.seed, subject))
    lo, hi = shift.channel_gain
    gains = rng.uniform(lo, hi, size=len(MONTAGE))
    j = shift.component_jitter
    comp = {
        name: float(rng.uniform(1.0 - j, 1.0 + j))
        for name in ("mu", "theta", "alpha", "carrier", "envline", "noise")
    }
    return rng, gains, comp


def generate_dataset(
    task: str,
    subjects: Sequence[int],
    trials_per_subject: int,
    seed: int,
    shift: ShiftSpec = ShiftSpec(),
    duration: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced labelled trials ``(X, labels, subjects)`` of the subjects with ids ``subjects``.

    ``X`` is (trials, channels, samples) float64 at ``NATIVE_RATE[task]``, subject-major in
    the order of ``subjects``, with one int64 label and subject id per trial. Each subject's
    own RNG stream derives from the master seed, so its data does not depend on which other
    subjects are generated. At noise scale 0 no noise normals are drawn.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task '{task}' (expected one of {TASKS})")
    if not subjects or min(subjects) < 1 or trials_per_subject < 1:
        raise ConfigError("need at least one subject, ids >= 1, and one trial per subject")
    rate = NATIVE_RATE[task]
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    c, r, n_classes = len(MONTAGE), trials_per_subject, N_CLASSES[task]
    spectrum = (r, 2, c, n // 2 + 1)
    n_phases = 2 if task == "syn_stress" else 1
    erd = _raised_cosine_drop(t, onset=0.3, ramp=0.1, floor=0.25)
    mi_groups = np.array([[ch in group for ch in range(c)] for group in MI_GROUPS])
    X = np.empty((len(subjects) * r, c, n))
    y = np.empty(len(subjects) * r, dtype=np.int64)
    for k, subject in enumerate(subjects):
        rng, gains, comp = _subject_profile(shift, seed, subject)
        labels = y[k * r: (k + 1) * r] = rng.permutation(np.tile(np.arange(n_classes), r // n_classes + 1)[:r])
        rms = 3.0 * shift.noise_scale * comp["noise"]
        noise = np.empty(spectrum) if rms != 0.0 else None
        carrier = np.empty(spectrum) if task == "syn_speech" else None
        phases = np.empty((r, n_phases))
        for i in range(r):
            if noise is not None:
                rng.standard_normal(out=noise[i])
            phases[i] = rng.uniform(0, 2 * np.pi, size=n_phases)
            if carrier is not None:
                rng.standard_normal(out=carrier[i])
        x = _pink(noise, n, rate, rms) if noise is not None else np.zeros((r, c, n))

        if task == "syn_mi":
            tone = np.sin(2 * np.pi * 10.0 * t + phases)
            a = 6.0 * comp["mu"]
            x += np.where(mi_groups[labels, :, None], a * erd, a) * tone[:, None]
        elif task == "syn_stress":
            th_amp = np.array((2.5, 6.0))[labels] * comp["theta"]
            al_amp = np.array((6.0, 3.0))[labels] * comp["alpha"]
            x[:, ANTERIOR] += (th_amp[:, None] * np.sin(2 * np.pi * 6.0 * t + phases[:, :1]))[:, None]
            x[:, POSTERIOR] += (al_amp[:, None] * np.sin(2 * np.pi * 10.0 * t + phases[:, 1:]))[:, None]
        else:
            wave = np.sin(2 * np.pi * np.array(SPEECH_ENV_HZ)[labels, None] * t + phases)
            envelope = 1.0 + 0.8 * wave
            carrier = bandpass(_pink(carrier, n, rate, 4.0 * comp["carrier"]), rate, 20.0, min(60.0, rate / 2 - 2.0))
            x += carrier * envelope[:, None]
            x += 3.0 * comp["envline"] * wave[:, None]

        np.multiply(x, gains[:, None], out=X[k * r: (k + 1) * r])
    return X, y, np.repeat(np.asarray(subjects, dtype=np.int64), r)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def preprocess(X: np.ndarray, labels: np.ndarray, subjects: np.ndarray, rate: float,
               rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One split's epoch arrays ``(X, labels, subjects)`` from the trials at ``rows`` of
    :func:`generate_dataset`'s arrays, in the order of ``rows``.

    Each trial is band-passed to ``PASSBAND``, downsampled from ``rate`` to ``TARGET_RATE``
    and cut into non-overlapping ``EPOCH_SAMPLES`` epochs, written into one preallocated
    array. Each run of one subject's consecutive rows is one FFT pass (bitwise each trial
    alone); no split is filtered as one stack, so FFT temporaries stay one subject's size.
    """
    if getattr(X, "ndim", None) != 3:
        raise ContractError("trials must be one (trials, channels, samples) array")
    rows = np.asarray(rows, dtype=np.int64)
    c, n_epochs = X.shape[1], int(round(X.shape[-1] * TARGET_RATE / rate)) // EPOCH_SAMPLES
    if not len(rows) * n_epochs:
        raise ContractError(f"no epochs in {len(rows)} trials of {X.shape[-1]} samples at {rate} Hz")
    out = np.empty((len(rows), n_epochs, c, EPOCH_SAMPLES))
    subj = subjects[rows]
    cuts = [0, *np.flatnonzero(subj[1:] != subj[:-1]) + 1, len(rows)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x = resample(bandpass(X[rows[lo:hi]], rate, *PASSBAND), rate, TARGET_RATE)[..., :n_epochs * EPOCH_SAMPLES]
        out[lo:hi] = x.reshape(hi - lo, c, n_epochs, EPOCH_SAMPLES).swapaxes(1, 2)
    return out.reshape(-1, c, EPOCH_SAMPLES), np.repeat(labels[rows], n_epochs), np.repeat(subj, n_epochs)


# ---------------------------------------------------------------------------
# dataset files: raw little-endian float32 + JSON sidecar
# ---------------------------------------------------------------------------

def save_split(directory, name: str, X: np.ndarray, labels: np.ndarray, subjects: np.ndarray, meta: dict) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if X.ndim != 3:
        raise ContractError(f"epoch array must be (n, channels, samples), got {X.shape}")
    (directory / f"{name}.f32").write_bytes(np.ascontiguousarray(X, dtype="<f4").tobytes())
    sidecar = {
        "shape": list(X.shape),
        "dtype": "<f4",
        "sample_rate": TARGET_RATE,
        "montage": list(MONTAGE),
        "labels": [int(v) for v in labels],
        "subjects": [int(v) for v in subjects],
        **meta,
    }
    (directory / f"{name}.json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))
