"""Test-side references that nothing in ``ttalign`` runs.

The per-sample pretext transforms are the reference for the batched
``pretext.make_view``; each returns ``(view, label)``. ``bandpower`` and
``bandstop`` measure and apply the spectral surgery; ``mean`` and ``transpose``
are the autodiff primitives the fused backbone pass replaces.
"""

import itertools

import numpy as np

from ttalign import autodiff as ad
from ttalign.pretext import AMP_FACTORS
from ttalign.signals import AP_PAIRS, TARGET_RATE, bandstop_mask

# the jigsaw label indexes the lexicographic permutations of 3 chunks
JIGSAW_PERMS = list(itertools.permutations(range(3)))


def bandpower(data, rate, low, high) -> float:
    """Mean periodogram power in [low, high] Hz, Parseval-consistent.

    One-sided periodogram scaled so the sum over the full band equals the
    time-domain mean square. 2-D input is averaged across channels.
    """
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = x.shape[-1]
    p = np.abs(np.fft.rfft(x, axis=-1)) ** 2 / (n * n)
    weights = np.full(p.shape[-1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    sel = (freqs >= low) & (freqs <= high)
    return float((p * weights)[..., sel].sum(axis=-1).mean())


def bandstop(data, rate, low, high):
    """Zero the [low, high] Hz band of each channel by ``bandstop_mask``."""
    n = data.shape[-1]
    return np.fft.irfft(np.fft.rfft(data, axis=-1) * bandstop_mask(n, rate, low, high), n=n, axis=-1)


def stopped_band(data, rng, table):
    label = int(rng.integers(len(table)))
    return bandstop(data, TARGET_RATE, *table[label]), label


def amp_scale(data, rng):
    label = int(rng.integers(len(AMP_FACTORS)))
    return AMP_FACTORS[label] * data, label


def ap_flip(data, rng):
    label = int(rng.integers(2))
    view = data.copy()
    if label:
        for a, b in AP_PAIRS:
            view[[a, b]] = view[[b, a]]
    return view, label


def jigsaw_order(n, label):
    """Time index of the jigsaw view: near-equal contiguous chunks, larger first, in the label's order."""
    base, extra = divmod(n, 3)
    cuts = np.cumsum([0] + [base + (i < extra) for i in range(3)])
    chunks = [np.arange(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return np.concatenate([chunks[i] for i in JIGSAW_PERMS[label]])


def jigsaw(data, rng):
    label = int(rng.integers(len(JIGSAW_PERMS)))
    return data[..., jigsaw_order(data.shape[-1], label)], label


def mean(a, axis=None):
    out = ad.Tensor(a.data.mean(axis=axis))
    shape = a.data.shape

    def pull(g):
        if axis is None:
            return (np.full(shape, g / a.data.size),)
        n = shape[axis]
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    return ad.record(out, (a,), pull)


def transpose(a, axes):
    out = ad.Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)

    def pull(g):
        return (np.transpose(g, inv),)

    return ad.record(out, (a,), pull)
