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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    task: str


@dataclass
class Epoch:
    """One model-ready segment: (channels, 200) at 200 Hz."""

    data: np.ndarray
    subject: int
    label: int
    task: str


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
        if not 0 < lo <= hi:
            raise ConfigError(f"channel gain range must satisfy 0 < lo <= hi, got {self.channel_gain}")
        if not 0 <= self.component_jitter < 1:
            raise ConfigError(f"component jitter must lie in [0, 1), got {self.component_jitter}")
        if self.noise_scale < 0:
            raise ConfigError(f"noise scale must be non-negative, got {self.noise_scale}")


UNSHIFTED = ShiftSpec(channel_gain=(1.0, 1.0), component_jitter=0.0)


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
    spec = np.fft.rfft(data, axis=-1) * m
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
    return np.fft.irfft(out_spec, n=n_out, axis=-1) * (n_out / n)


def pink_noise(rng: np.random.Generator, channels: int, n: int, rate: float, rms: float) -> np.ndarray:
    """1/f-spectrum noise per channel, scaled to the requested RMS."""
    if rms == 0.0:
        return np.zeros((channels, n))
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    amp = np.zeros_like(freqs)
    amp[1:] = 1.0 / np.sqrt(freqs[1:])
    spec = amp * (rng.standard_normal((channels, freqs.size)) + 1j * rng.standard_normal((channels, freqs.size)))
    x = np.fft.irfft(spec, n=n, axis=-1)
    scale = rms / np.sqrt(np.mean(x ** 2, axis=-1, keepdims=True))
    return x * scale


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


def _subject_profile(task: str, shift: ShiftSpec, master_seed: int, subject: int):
    rng = np.random.default_rng(subject_seed(master_seed ^ shift.seed, subject))
    lo, hi = shift.channel_gain
    gains = rng.uniform(lo, hi, size=len(MONTAGE))
    j = shift.component_jitter
    comp = {
        name: float(rng.uniform(1.0 - j, 1.0 + j))
        for name in ("mu", "theta", "alpha", "carrier", "envline", "noise")
    }
    return rng, gains, comp


def generate_recording(
    task: str,
    label: int,
    subject: int,
    rng: np.random.Generator,
    gains: np.ndarray,
    comp: dict[str, float],
    noise_scale: float,
    duration: float = 1.0,
) -> Recording:
    rate = NATIVE_RATE[task]
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    c = len(MONTAGE)
    x = pink_noise(rng, c, n, rate, rms=3.0 * noise_scale * comp["noise"])

    if task == "syn_mi":
        phase = rng.uniform(0, 2 * np.pi)
        tone = np.sin(2 * np.pi * 10.0 * t + phase)
        amp = np.full(c, 6.0 * comp["mu"])
        erd = _raised_cosine_drop(t, onset=0.3, ramp=0.1, floor=0.25)
        for ch in range(c):
            env = erd if ch in MI_GROUPS[label] else 1.0
            x[ch] += amp[ch] * env * tone
    elif task == "syn_stress":
        th_amp = (2.5, 6.0)[label] * comp["theta"]
        al_amp = (6.0, 3.0)[label] * comp["alpha"]
        theta = th_amp * np.sin(2 * np.pi * 6.0 * t + rng.uniform(0, 2 * np.pi))
        alpha = al_amp * np.sin(2 * np.pi * 10.0 * t + rng.uniform(0, 2 * np.pi))
        for ch in ANTERIOR:
            x[ch] += theta
        for ch in POSTERIOR:
            x[ch] += alpha
    elif task == "syn_speech":
        f_env = SPEECH_ENV_HZ[label]
        phi = rng.uniform(0, 2 * np.pi)
        envelope = 1.0 + 0.8 * np.sin(2 * np.pi * f_env * t + phi)
        carrier = pink_noise(rng, c, n, rate, rms=4.0 * comp["carrier"])
        carrier = bandpass(carrier, rate, 20.0, min(60.0, rate / 2 - 2.0))
        x += carrier * envelope
        x += 3.0 * comp["envline"] * np.sin(2 * np.pi * f_env * t + phi)
    else:
        raise ConfigError(f"unknown task '{task}' (expected one of {TASKS})")

    x *= gains[:, None]
    return Recording(data=x, rate=rate, subject=subject, label=label, task=task)


def generate_dataset(
    task: str,
    n_subjects: int,
    trials_per_subject: int,
    seed: int,
    shift: ShiftSpec = ShiftSpec(),
    duration: float = 1.0,
) -> list[Recording]:
    """Balanced labelled recordings for ``n_subjects`` subjects (ids 1..n).

    Each subject owns an independent RNG stream derived from the master seed, so a
    subject's data does not depend on how many other subjects are generated.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task '{task}' (expected one of {TASKS})")
    if n_subjects < 1 or trials_per_subject < 1:
        raise ConfigError("need at least one subject and one trial per subject")
    n_classes = N_CLASSES[task]
    out: list[Recording] = []
    for subject in range(1, n_subjects + 1):
        rng, gains, comp = _subject_profile(task, shift, seed, subject)
        labels = np.tile(np.arange(n_classes), trials_per_subject // n_classes + 1)[:trials_per_subject]
        labels = rng.permutation(labels)
        for label in labels:
            out.append(
                generate_recording(task, int(label), subject, rng, gains, comp, shift.noise_scale, duration)
            )
    return out


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def preprocess(rec: Recording, band: tuple[float, float] | None = (0.3, 75.0)) -> list[Epoch]:
    """Band-pass (optional), resample to ``TARGET_RATE``, cut 1 s non-overlapping epochs.

    A recording shorter than one epoch after resampling yields an empty list.
    """
    if rec.data.ndim != 2:
        raise ContractError(f"recording data must be 2-D, got shape {rec.data.shape}")
    x = rec.data
    if band is not None:
        x = bandpass(x, rec.rate, band[0], band[1])
    x = resample(x, rec.rate, TARGET_RATE)
    n_epochs = x.shape[-1] // EPOCH_SAMPLES
    return [
        Epoch(
            data=x[:, i * EPOCH_SAMPLES: (i + 1) * EPOCH_SAMPLES].copy(),
            subject=rec.subject,
            label=rec.label,
            task=rec.task,
        )
        for i in range(n_epochs)
    ]


def epochs_to_arrays(epochs: list[Epoch]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack epochs into (X, labels, subjects) arrays."""
    if not epochs:
        raise ContractError("no epochs to stack")
    X = np.stack([e.data for e in epochs])
    y = np.array([e.label for e in epochs], dtype=np.int64)
    subj = np.array([e.subject for e in epochs], dtype=np.int64)
    return X, y, subj


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


def _sidecar_ints(sidecar: dict, key: str, n: int, name: str) -> np.ndarray:
    values = sidecar[key]
    if not isinstance(values, list) or len(values) != n or not all(type(v) is int for v in values):
        raise ContractError(f"{name}.json '{key}' must list {n} integers, one per epoch")
    return np.array(values, dtype=np.int64)


def load_split(directory, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Read a split written by :func:`save_split`; a corrupt pair raises ``ContractError``.

    Rejected: a sidecar that is not a JSON object with ``shape`` (three
    non-negative ints), ``dtype`` ``"<f4"``, ``labels`` and ``subjects`` (one int
    per epoch); a ``.f32`` file whose size does not match that shape; and
    non-finite samples.
    """
    directory = Path(directory)
    try:
        sidecar = json.loads((directory / f"{name}.json").read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ContractError(f"{name}.json is not a valid JSON sidecar: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ContractError(f"{name}.json must hold a JSON object")
    missing = {"shape", "dtype", "labels", "subjects"} - set(sidecar)
    if missing:
        raise ContractError(f"{name}.json sidecar lacks {sorted(missing)}")
    shape = sidecar["shape"]
    if not (isinstance(shape, list) and len(shape) == 3 and all(type(v) is int and v >= 0 for v in shape)):
        raise ContractError(f"{name}.json shape must be three non-negative integers, got {shape!r}")
    if sidecar["dtype"] != "<f4":
        raise ContractError(f"{name}.json dtype must be '<f4', got {sidecar['dtype']!r}")
    blob = (directory / f"{name}.f32").read_bytes()
    if len(blob) % 4:
        raise ContractError(f"{name}.f32 holds {len(blob)} bytes, not a whole number of float32 values")
    raw = np.frombuffer(blob, dtype="<f4")
    if raw.size != int(np.prod(shape)):
        raise ContractError(f"{name}.f32 holds {raw.size} values, sidecar says {tuple(shape)}")
    labels = _sidecar_ints(sidecar, "labels", shape[0], name)
    subjects = _sidecar_ints(sidecar, "subjects", shape[0], name)
    X = raw.reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(X)):
        raise ContractError(f"{name}.f32 holds non-finite samples")
    return X, labels, subjects, sidecar
