"""Synthetic multichannel EEG-like signal generation and preprocessing.

Three task families are generated on a fixed 8-channel montage:

* ``syn_mi`` (4 classes): a 10 Hz rhythm on all channels whose amplitude is
  suppressed over a class-specific channel group from 0.3 s onward.
* ``syn_stress`` (2 classes): anterior 6 Hz theta versus posterior 10 Hz alpha,
  with the stress class boosting theta and damping alpha.
* ``syn_speech`` (5 classes): a broadband carrier amplitude-modulated at a
  class-specific envelope rate (2..6 Hz) plus the envelope-following component.

All spectral surgery (band-pass, band-stop masks, resampling) works on the
one-sided FFT with raised-cosine edges ``TRANSITION`` Hz wide, so passbands are
preserved exactly and stopbands are zeroed exactly at the bin level.

``generate_dataset`` builds each subject's trials as one (trials, channels,
samples) stack, one inverse FFT and one pass of each task term for all of them.
It draws as a one-trial-at-a-time loop would: per trial, the noise normals, the
phases, then the ``syn_speech`` carrier's normals. All later arithmetic is
elementwise, or an FFT or mean along each row, which numpy computes per row as
for a lone trial, so each recording is bitwise the trial built alone.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError

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


@dataclass
class Recording:
    """One continuous multichannel trial at its native sampling rate."""

    data: np.ndarray  # (channels, samples) float64
    rate: float
    subject: int
    label: int


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
        if not 0 < lo <= hi < math.inf:
            raise ConfigError(f"channel gain range must satisfy 0 < lo <= hi < inf, got {self.channel_gain}")
        if not 0 <= self.component_jitter < 1:
            raise ConfigError(f"component jitter must lie in [0, 1), got {self.component_jitter}")
        if not 0 <= self.noise_scale < math.inf:
            raise ConfigError(f"noise scale must be non-negative and finite, got {self.noise_scale}")


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
    """Fourier-domain resampling; downsampling truncates the spectrum (no aliasing)."""
    if rate_in <= 0 or rate_out <= 0:
        raise ConfigError("sampling rates must be positive")
    n = data.shape[-1]
    if rate_in == rate_out:
        return data.copy()
    n_out = int(round(n * rate_out / rate_in))
    if n_out < 2:
        raise ContractError(f"resample target too short ({n_out} samples)")
    spec = np.fft.rfft(data, axis=-1)
    bins_out = n_out // 2 + 1
    if bins_out <= spec.shape[-1]:
        out_spec = spec[..., :bins_out].copy()
    else:
        pad = [(0, 0)] * (spec.ndim - 1) + [(0, bins_out - spec.shape[-1])]
        out_spec = np.pad(spec, pad)
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
) -> list[Recording]:
    """Balanced labelled recordings for the subjects with ids ``subjects``, in that order.

    Each subject owns an independent RNG stream derived from the master seed, so a
    subject's data does not depend on which other subjects are generated. Each
    recording's ``data`` is a row view of its subject's stack (module docstring); at
    noise scale 0 no noise normals are drawn.
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
    out: list[Recording] = []
    for subject in subjects:
        rng, gains, comp = _subject_profile(shift, seed, subject)
        labels = np.tile(np.arange(n_classes), r // n_classes + 1)[:r]
        labels = rng.permutation(labels)
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

        x *= gains[:, None]
        out += [Recording(data=xr, rate=rate, subject=subject, label=int(label)) for xr, label in zip(x, labels)]
    return out


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def preprocess(recordings: list[Recording]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One split's ``(X, labels, subjects)`` arrays from its recordings, in order.

    Each recording is band-passed to ``PASSBAND``, resampled to ``TARGET_RATE`` and
    cut into non-overlapping ``EPOCH_SAMPLES`` epochs; a recording shorter than one
    epoch contributes none. Each run of consecutive recordings with the same
    subject, rate and shape (one subject's trials, as :func:`generate_dataset`
    emits them) goes through the FFTs as one stack, which transforms each
    recording exactly as it would alone.
    """
    epochs, labels, subjects = [], [], []
    for (subject, rate, shape), run in groupby(recordings, key=lambda r: (r.subject, r.rate, r.data.shape)):
        if len(shape) != 2:
            raise ContractError(f"recording data must be 2-D, got shape {shape}")
        run = list(run)
        x = resample(bandpass(np.stack([rec.data for rec in run]), rate, *PASSBAND), rate, TARGET_RATE)
        n_epochs = x.shape[-1] // EPOCH_SAMPLES
        for rec, xr in zip(run, x):
            epochs += [xr[:, i * EPOCH_SAMPLES: (i + 1) * EPOCH_SAMPLES] for i in range(n_epochs)]
            labels += [rec.label] * n_epochs
        subjects += [subject] * (n_epochs * len(run))
    if not epochs:
        raise ContractError(f"no epochs in {len(recordings)} recordings")
    return np.stack(epochs), np.array(labels, dtype=np.int64), np.array(subjects, dtype=np.int64)


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
