"""Self-supervised pretext transforms and the per-task pretext wiring.

Every transform consumes one (channels, 200) epoch array plus an RNG, draws its
own label, and returns the transformed view with that label. Two pretext tasks are
active per main task: stopped-band prediction (shared by all tasks, with a
task-specific frequency-band table) paired with one domain task:

* syn_speech -> amplitude scaling (16 factors evenly spaced on [-2, 2])
* syn_stress -> anterior-posterior channel flip (binary)
* syn_mi     -> temporal jigsaw (k near-equal chunks, label = permutation index)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .signals import AP_PAIRS, TARGET_RATE, bandstop

BAND_TABLES: dict[str, tuple[tuple[float, float], ...]] = {
    "syn_speech": ((0.5, 8.0), (8.0, 30.0), (30.0, 70.0), (70.0, 100.0)),
    "syn_stress": ((4.0, 8.0), (8.0, 12.0), (13.0, 20.0), (20.0, 30.0)),
    "syn_mi": ((3.0, 7.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0)),
}

AMP_FACTORS: tuple[float, ...] = tuple(-2.0 + (k * 4.0) / 15.0 for k in range(16))

DOMAIN_TASK = {"syn_speech": "amp_scale", "syn_stress": "ap_flip", "syn_mi": "jigsaw"}

# (stopped_band weight, domain task weight) per main task
SSL_WEIGHTS = {"syn_speech": (0.6, 0.6), "syn_stress": (0.2, 0.1), "syn_mi": (0.1, 0.8)}


@dataclass(frozen=True)
class PretextSample:
    """A transformed view plus its self-generated label."""

    view: np.ndarray
    task: str
    label: int
    n_classes: int


def band_table_for(task: str) -> tuple[tuple[float, float], ...]:
    try:
        return BAND_TABLES[task]
    except KeyError:
        raise ConfigError(f"no band table for task '{task}'") from None


def stopped_band(
    data: np.ndarray, rng: np.random.Generator, table: tuple[tuple[float, float], ...]
) -> PretextSample:
    """Remove one randomly chosen band; the label is the band's table index."""
    if not table:
        raise ConfigError("stopped_band needs a non-empty band table")
    label = int(rng.integers(len(table)))
    low, high = table[label]
    view = bandstop(data, TARGET_RATE, low, high)
    return PretextSample(view=view, task="stopped_band", label=label, n_classes=len(table))


def amp_scale(data: np.ndarray, rng: np.random.Generator) -> PretextSample:
    """Multiply by one of 16 evenly spaced factors on [-2, 2]; label = factor index.

    The factor grid excludes zero, but sign recovery is inherently ambiguous for
    inputs with symmetric amplitude statistics; the classes remain well defined
    because the label is the drawn index, not a property of the view.
    """
    label = int(rng.integers(len(AMP_FACTORS)))
    return PretextSample(
        view=AMP_FACTORS[label] * data,
        task="amp_scale",
        label=label,
        n_classes=len(AMP_FACTORS),
    )


def ap_flip(data: np.ndarray, rng: np.random.Generator) -> PretextSample:
    """Swap each anterior-posterior channel pair (``AP_PAIRS``) with probability 1/2 (all or none)."""
    label = int(rng.integers(2))
    view = data.copy()
    if label:
        for a, b in AP_PAIRS:
            view[[a, b]] = view[[b, a]]
    return PretextSample(view=view, task="ap_flip", label=label, n_classes=2)


def _chunk_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """Near-equal contiguous chunks (sizes differ by at most one sample)."""
    base, extra = divmod(n, k)
    bounds, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def jigsaw(data: np.ndarray, rng: np.random.Generator, k: int = 3) -> PretextSample:
    """Permute k contiguous time chunks; label = lexicographic permutation index."""
    if k not in (2, 3):
        raise ConfigError(f"jigsaw supports k in {{2, 3}}, got {k}")
    perms = list(itertools.permutations(range(k)))
    label = int(rng.integers(len(perms)))
    bounds = _chunk_bounds(data.shape[-1], k)
    chunks = [data[..., lo:hi] for lo, hi in bounds]
    view = np.concatenate([chunks[i] for i in perms[label]], axis=-1)
    return PretextSample(view=view, task="jigsaw", label=label, n_classes=math.factorial(k))


def jigsaw_invert(view: np.ndarray, label: int, k: int) -> np.ndarray:
    """Undo a jigsaw permutation, reconstructing the original epoch bitwise."""
    if k not in (2, 3):
        raise ConfigError(f"jigsaw supports k in {{2, 3}}, got {k}")
    perms = list(itertools.permutations(range(k)))
    if not 0 <= label < len(perms):
        raise ContractError(f"jigsaw label {label} out of range for k={k}")
    perm = perms[label]
    orig_bounds = _chunk_bounds(view.shape[-1], k)
    out = np.empty_like(view)
    pos = 0
    for chunk_idx in perm:
        lo, hi = orig_bounds[chunk_idx]
        size = hi - lo
        out[..., lo:hi] = view[..., pos: pos + size]
        pos += size
    return out


@dataclass(frozen=True)
class TaskSpec:
    """Main-task head size plus the two pretext tasks, their sizes and loss weights."""

    task: str
    n_main: int
    ssl_tasks: tuple[str, str]
    ssl_dims: tuple[int, int]
    weights: tuple[float, float]
    band_table: tuple[tuple[float, float], ...]


def task_spec_for(task: str) -> TaskSpec:
    from .signals import N_CLASSES

    if task not in DOMAIN_TASK:
        raise ConfigError(f"unknown task '{task}'")
    domain = DOMAIN_TASK[task]
    table = band_table_for(task)
    dims = {
        "amp_scale": len(AMP_FACTORS),
        "ap_flip": 2,
        "jigsaw": math.factorial(3),  # jigsaw() permutes k = 3 chunks
    }[domain]
    return TaskSpec(
        task=task,
        n_main=N_CLASSES[task],
        ssl_tasks=("stopped_band", domain),
        ssl_dims=(len(table), dims),
        weights=SSL_WEIGHTS[task],
        band_table=table,
    )


def make_view(name: str, data: np.ndarray, rng: np.random.Generator, spec: TaskSpec) -> PretextSample:
    """Draw one pretext view for the named task under this spec."""
    if name == "stopped_band":
        return stopped_band(data, rng, spec.band_table)
    if name == "amp_scale":
        return amp_scale(data, rng)
    if name == "ap_flip":
        return ap_flip(data, rng)
    if name == "jigsaw":
        return jigsaw(data, rng)
    raise ConfigError(f"unknown pretext task '{name}'")
