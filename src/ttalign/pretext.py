"""Self-supervised pretext transforms and the per-task pretext wiring.

Every transform consumes one (channels, 200) epoch array plus an RNG, draws its
own label, and returns the transformed view with that label. :func:`make_view`
applies one task to a whole (batch, channels, 200) array at once, with the same
draws, views and labels as the per-sample transforms run epoch by epoch.

Two pretext tasks are active per main task: stopped-band prediction (shared by
all tasks, with a task-specific frequency-band table) paired with one domain task:

* syn_speech -> amplitude scaling (16 factors evenly spaced on [-2, 2])
* syn_stress -> anterior-posterior channel flip (binary)
* syn_mi     -> temporal jigsaw (k near-equal chunks, label = permutation index)
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .signals import AP_PAIRS, TARGET_RATE, bandstop, bandstop_mask

BAND_TABLES: dict[str, tuple[tuple[float, float], ...]] = {
    "syn_speech": ((0.5, 8.0), (8.0, 30.0), (30.0, 70.0), (70.0, 100.0)),
    "syn_stress": ((4.0, 8.0), (8.0, 12.0), (13.0, 20.0), (20.0, 30.0)),
    "syn_mi": ((3.0, 7.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0)),
}

AMP_FACTORS: tuple[float, ...] = tuple(-2.0 + (k * 4.0) / 15.0 for k in range(16))

DOMAIN_TASK = {"syn_speech": "amp_scale", "syn_stress": "ap_flip", "syn_mi": "jigsaw"}

# classes of each domain task; jigsaw permutes k = 3 chunks
DOMAIN_DIMS = {"amp_scale": len(AMP_FACTORS), "ap_flip": 2, "jigsaw": math.factorial(3)}

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
    """(bands, n // 2 + 1): the :func:`stopped_band` mask of each band of ``table``."""
    return _readonly(np.stack([bandstop_mask(n, TARGET_RATE, low, high) for low, high in table]))


@functools.lru_cache(maxsize=16)
def _jigsaw_orders(n: int) -> np.ndarray:
    """(6, n): the time index that builds the :func:`jigsaw` view (k = 3) of each label."""
    bounds = _chunk_bounds(n, 3)
    return _readonly(np.array([np.concatenate([np.arange(*bounds[i]) for i in perm])
                               for perm in itertools.permutations(range(3))]))


@functools.lru_cache(maxsize=16)
def _flip_orders(channels: int) -> np.ndarray:
    """(2, channels): the channel order of the :func:`ap_flip` view of each label."""
    orders = np.tile(np.arange(channels), (2, 1))
    for a, b in AP_PAIRS:
        orders[1, [a, b]] = orders[1, [b, a]]
    return _readonly(orders)


def make_view(
    name: str, data: np.ndarray, rng: np.random.Generator, spec: TaskSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one view of the named task per epoch of a (B, C, T) batch; returns (views, labels).

    Each epoch's label is one scalar ``rng.integers`` draw, in batch order: the
    per-sample transform's own call, so the stream does not rest on how numpy
    fills an array draw. The views, the labels and the generator's state
    afterwards are bitwise those of the per-sample transform applied to each
    epoch in turn.
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
