"""Self-supervised pretext views and the per-task pretext wiring.

:func:`make_view` applies one pretext task to a whole (batch, channels, 200)
array: it draws one label per epoch and returns the transformed views
(:func:`apply_view`) with those labels. Stage-I fine-tuning draws its batches'
views from a :class:`ViewSource` of the training set instead, written straight
into the caller's stack from the batch's rows: every epoch's stopped-band views
are computed once (:func:`stopped_band_table`) and gathered per batch, a jigsaw
view is three slice copies per epoch, an amplitude-scaled one is one multiply,
cast as it is stored, and an AP-flipped one is one gather; bit for bit the views
``apply_view`` would make.

Two pretext tasks are active per main task: stopped-band prediction (shared by
all tasks, with a task-specific frequency-band table) paired with one domain
task:

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


def active_branches(spec: TaskSpec, weights) -> list[tuple[int, str, float]]:
    """(index, task, weight) of each pretext task whose weight is not zero, in task order."""
    return [(j, name, float(w)) for j, (name, w) in enumerate(zip(spec.ssl_tasks, weights)) if w != 0.0]


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
def _jigsaw_slices(n: int) -> tuple[tuple[tuple[slice, slice], ...], ...]:
    """Per label, the (destination, source) time slices that put 3 near-equal contiguous
    chunks of an n-sample epoch, the larger ones first, in that label's lexicographic
    permutation order: one basic-slice copy per chunk."""
    base, extra = divmod(n, 3)
    sizes = [base + (i < extra) for i in range(3)]
    starts = [0, sizes[0], sizes[0] + sizes[1]]
    table = []
    for perm in itertools.permutations(range(3)):
        at, pairs = 0, []
        for i in perm:
            pairs.append((slice(at, at + sizes[i]), slice(starts[i], starts[i] + sizes[i])))
            at += sizes[i]
        table.append(tuple(pairs))
    return tuple(table)


def _jigsaw_into(out: np.ndarray, data: np.ndarray, rows, labels: np.ndarray) -> np.ndarray:
    """Write the jigsaw view of epoch ``data[rows[i]]`` under ``labels[i]`` into ``out[i]``,
    three slice copies per epoch; returns ``out``."""
    table = _jigsaw_slices(data.shape[-1])
    for i, (row, label) in enumerate(zip(rows, labels.tolist())):
        for dst, src in table[label]:
            out[i, :, dst] = data[row, :, src]
    return out


@functools.lru_cache(maxsize=16)
def _flip_orders(channels: int) -> np.ndarray:
    """(2, channels): per label, the channel order; label 1 swaps each ``AP_PAIRS`` pair."""
    orders = np.tile(np.arange(channels), (2, 1))
    for a, b in AP_PAIRS:
        orders[1, [a, b]] = orders[1, [b, a]]
    return _readonly(orders)


def view_classes(name: str, spec: TaskSpec) -> int:
    """How many labels the named pretext task draws from; ConfigError for an unknown task."""
    if name == "stopped_band":
        if not spec.band_table:
            raise ConfigError("stopped_band needs a non-empty band table")
        return len(spec.band_table)
    if name in DOMAIN_DIMS:
        return DOMAIN_DIMS[name]
    raise ConfigError(f"unknown pretext task '{name}'")


@dataclass(frozen=True)
class ViewSource:
    """A training set's epochs, prepared once for gathering its views batch by batch.

    ``data`` is the (N, C, T) array as given, ``cast`` the same in the model's
    dtype, and ``stopped`` the :func:`stopped_band_table` of ``data`` (None when
    no stopped-band view is drawn).
    """

    data: np.ndarray
    cast: np.ndarray
    stopped: np.ndarray | None


def view_source(data: np.ndarray, spec: TaskSpec, dtype: str, stopped: bool, chunk: int) -> ViewSource:
    """The :class:`ViewSource` of a (N, C, T) array; the stopped-band table only if ``stopped``."""
    table = stopped_band_table(data, spec, dtype, chunk) if stopped else None
    return ViewSource(data, data.astype(dtype, copy=False), table)


def stopped_band_table(data: np.ndarray, spec: TaskSpec, dtype: str, chunk: int) -> np.ndarray:
    """(N, bands, C, T) in ``dtype``: epoch i with band b stopped at ``[i, b]``.

    Each entry is ``apply_view("stopped_band", ...)`` of that epoch cast to
    ``dtype``, bit for bit, since the FFT of an epoch does not depend on its
    batch. The views are made ``chunk`` epochs at a time, each chunk's rfft
    taken once and masked per band, so no temporary holds more than one
    chunk's spectra.
    """
    bands, n = view_classes("stopped_band", spec), data.shape[-1]
    masks = _band_masks(spec.band_table, n)
    table = np.empty((data.shape[0], bands, *data.shape[1:]), dtype)
    for lo in range(0, data.shape[0], chunk):
        spectra = np.fft.rfft(data[lo:lo + chunk], axis=-1)
        for b in range(bands):
            table[lo:lo + chunk, b] = np.fft.irfft(spectra * masks[b], n=n, axis=-1)
    return table


def make_view(
    name: str,
    data: np.ndarray | ViewSource,
    rng: np.random.Generator,
    spec: TaskSpec,
    rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one view of the named task per epoch of a (B, C, T) batch; returns (views, labels).

    Each epoch's label is one scalar ``rng.integers`` draw, in batch order, so
    the stream does not rest on how numpy fills an array draw: a batch gets the
    views, labels and generator state of its epochs drawn one at a time.

    With ``rows``, ``data`` is a :class:`ViewSource` and the batch is its epochs
    ``rows``. The views are written into ``out``, (B, C, T) in the source's
    dtype, which is returned as the views: bit for bit :func:`apply_view` of
    those epochs, cast to that dtype.
    """
    if rows is None and data.ndim != 3:
        raise ContractError(f"make_view expects a (B, C, T) batch, got shape {data.shape}")
    n_classes = view_classes(name, spec)
    n = data.shape[0] if rows is None else len(rows)
    labels = np.array([rng.integers(n_classes) for _ in range(n)], dtype=np.int64)
    if rows is None:
        return apply_view(name, data, labels, spec), labels
    if name == "stopped_band":
        out[...] = data.stopped[rows, labels]
    elif name == "amp_scale":  # the given epochs' float64 products, cast as they are stored
        np.multiply(np.array(AMP_FACTORS)[labels][:, None, None], data.data[rows], out=out)
    elif name == "jigsaw":
        _jigsaw_into(out, data.cast, rows.tolist(), labels)
    else:  # ap_flip: one gather from the source rows
        out[...] = data.cast[rows[:, None], _flip_orders(out.shape[1])[labels]]
    return out, labels


def apply_view(name: str, data: np.ndarray, labels: np.ndarray, spec: TaskSpec) -> np.ndarray:
    """The named task's views of a (B, C, T) batch, epoch i transformed by ``labels[i]``.

    ``stopped_band`` zeroes the label's band with raised-cosine edges
    (:func:`signals.bandstop_mask`), ``amp_scale`` multiplies by
    ``AMP_FACTORS[label]``, ``ap_flip`` swaps the anterior-posterior pairs when
    the label is 1, and ``jigsaw`` reorders three time chunks. Every transform
    acts on each epoch alone, so a batch's views are bitwise its epochs' views.
    """
    if name == "stopped_band":
        n = data.shape[-1]
        masks = _band_masks(spec.band_table, n)[labels][:, None, :]
        return np.fft.irfft(np.fft.rfft(data, axis=-1) * masks, n=n, axis=-1)
    if name == "amp_scale":
        return np.array(AMP_FACTORS)[labels][:, None, None] * data
    if name == "ap_flip":
        return data[np.arange(data.shape[0])[:, None], _flip_orders(data.shape[1])[labels]]
    if name == "jigsaw":
        return _jigsaw_into(np.empty(data.shape, data.dtype), data, range(len(data)), labels)
    raise ConfigError(f"unknown pretext task '{name}'")
