"""Self-supervised pretext views and the per-task pretext wiring.

:func:`make_view` applies one pretext task to a whole (batch, channels, 200)
array: it draws one label per epoch and returns the transformed views with
those labels. Two pretext tasks are active per main task: stopped-band
prediction (shared by all tasks, with a task-specific frequency-band table)
paired with one domain task:

* syn_speech -> amplitude scaling (16 factors evenly spaced on [-2, 2])
* syn_stress -> anterior-posterior channel flip (binary)
* syn_mi     -> temporal jigsaw (3 near-equal chunks, label = permutation index)
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .signals import AP_PAIRS, TARGET_RATE, bandstop_mask

BAND_TABLES: dict[str, tuple[tuple[float, float], ...]] = {
    "syn_speech": ((0.5, 8.0), (8.0, 30.0), (30.0, 70.0), (70.0, 100.0)),
    "syn_stress": ((4.0, 8.0), (8.0, 12.0), (13.0, 20.0), (20.0, 30.0)),
    "syn_mi": ((3.0, 7.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0)),
}

AMP_FACTORS: tuple[float, ...] = tuple(-2.0 + (k * 4.0) / 15.0 for k in range(16))

DOMAIN_TASK = {"syn_speech": "amp_scale", "syn_stress": "ap_flip", "syn_mi": "jigsaw"}

# classes of each domain task; jigsaw permutes 3 chunks
DOMAIN_DIMS = {"amp_scale": len(AMP_FACTORS), "ap_flip": 2, "jigsaw": math.factorial(3)}

# (stopped_band weight, domain task weight) per main task
SSL_WEIGHTS = {"syn_speech": (0.6, 0.6), "syn_stress": (0.2, 0.1), "syn_mi": (0.1, 0.8)}


def band_table_for(task: str) -> tuple[tuple[float, float], ...]:
    try:
        return BAND_TABLES[task]
    except KeyError:
        raise ConfigError(f"no band table for task '{task}'") from None


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
    return TaskSpec(
        task=task,
        n_main=N_CLASSES[task],
        ssl_tasks=("stopped_band", domain),
        ssl_dims=(len(table), DOMAIN_DIMS[domain]),
        weights=SSL_WEIGHTS[task],
        band_table=table,
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _band_masks(table: tuple[tuple[float, float], ...], n: int) -> np.ndarray:
    """(bands, n // 2 + 1): the rfft-bin gains that stop each band of ``table``."""
    return _readonly(np.stack([bandstop_mask(n, TARGET_RATE, low, high) for low, high in table]))


@functools.lru_cache(maxsize=16)
def _jigsaw_orders(n: int) -> np.ndarray:
    """(6, n): per label, the time index that puts 3 near-equal contiguous chunks in
    that label's lexicographic permutation order."""
    chunks = np.array_split(np.arange(n), 3)
    return _readonly(np.array([np.concatenate([chunks[i] for i in perm])
                               for perm in itertools.permutations(range(3))]))


@functools.lru_cache(maxsize=16)
def _flip_orders(channels: int) -> np.ndarray:
    """(2, channels): per label, the channel order; label 1 swaps each ``AP_PAIRS`` pair."""
    orders = np.tile(np.arange(channels), (2, 1))
    for a, b in AP_PAIRS:
        orders[1, [a, b]] = orders[1, [b, a]]
    return _readonly(orders)


def make_view(
    name: str, data: np.ndarray, rng: np.random.Generator, spec: TaskSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one view of the named task per epoch of a (B, C, T) batch; returns (views, labels).

    Each epoch's label is one scalar ``rng.integers`` draw, in batch order, so
    the stream does not rest on how numpy fills an array draw: a batch gets the
    views, labels and generator state of its epochs drawn one at a time.
    ``stopped_band`` zeroes the label's band with raised-cosine edges
    (:func:`signals.bandstop_mask`), ``amp_scale`` multiplies by
    ``AMP_FACTORS[label]``, ``ap_flip`` swaps the anterior-posterior pairs when
    the label is 1, and ``jigsaw`` reorders three time chunks.
    """
    if data.ndim != 3:
        raise ContractError(f"make_view expects a (B, C, T) batch, got shape {data.shape}")
    if name == "stopped_band":
        if not spec.band_table:
            raise ConfigError("stopped_band needs a non-empty band table")
        n_classes = len(spec.band_table)
    elif name in DOMAIN_DIMS:
        n_classes = DOMAIN_DIMS[name]
    else:
        raise ConfigError(f"unknown pretext task '{name}'")
    labels = np.array([rng.integers(n_classes) for _ in range(data.shape[0])], dtype=np.int64)
    if name == "stopped_band":
        n = data.shape[-1]
        masks = _band_masks(spec.band_table, n)[labels][:, None, :]
        views = np.fft.irfft(np.fft.rfft(data, axis=-1) * masks, n=n, axis=-1)
    elif name == "amp_scale":
        views = np.array(AMP_FACTORS)[labels][:, None, None] * data
    elif name == "ap_flip":
        views = data[np.arange(data.shape[0])[:, None], _flip_orders(data.shape[1])[labels]]
    else:
        views = np.take_along_axis(data, _jigsaw_orders(data.shape[-1])[labels][:, None, :], axis=-1)
    return views, labels
