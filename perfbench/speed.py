"""Durations scaled to nominal machine speed.

On a small shared machine the processor's speed drifts by up to 2x over
seconds to minutes (neighbours on the same cores), and the process is not
preempted while it happens: its process time grows with wall time, so neither
clock can tell. A fixed reference kernel can. It does what the program's inner
loop does (small matmuls, batch statistics, FFTs, all through the Python
interpreter), and the program never changes how long it takes.

:meth:`SpeedClock.time` reads the kernel just before and just after a timed
block and scales the block's wall time by ``NOMINAL_S`` over the mean of the
two readings. A change to the program moves the scaled duration as much as
the raw one, while a slow spell of the machine slows the block and the kernel
alike and cancels out.

The speed also moves within a second, so two readings say little about a
block that lasts seconds. For such a block the caller names a method the
block calls now and then; the clock reads the kernel after each return of it
as well, and scales every piece between two readings by their mean. The
readings' own time is left out. Fewer readings make the figure noisier, not
different, so the figure does not depend on how the program calls that method.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc

import numpy as np


class SpeedClock:
    NOMINAL_S = 0.4e-3  # a reading at speed 1.0; about an idle core of the reference machine
    _ITERATIONS = 8
    _BURSTS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 25))
        self._b = rng.standard_normal((25, 16))
        self._c = rng.standard_normal((8, 200))
        self._burst()
        self._readings: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)
        self.read()

    def _burst(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self._ITERATIONS):
            h = np.maximum(self._a @ self._b, 0.0)
            m = h.mean(axis=0)
            v = ((h - m) ** 2).mean(axis=0)
            h / np.sqrt(v + 1e-5)
            np.fft.irfft(np.fft.rfft(self._c, axis=1), n=200, axis=1)
        return time.perf_counter() - t0

    def read(self) -> None:
        start = time.perf_counter()
        if tracemalloc.is_tracing():
            # a traced run's allocation probe would slow the kernel, not the
            # machine: keep the last reading
            self._readings.append((start, start, self._readings[-1][2]))
            return
        kernel = statistics.median(self._burst() for _ in range(self._BURSTS))
        self._readings.append((start, time.perf_counter(), kernel))

    def factors(self) -> list[float]:
        """Speed factor of every reading so far (1.0 = nominal)."""
        return [self.NOMINAL_S / k for _, _, k in self._readings]

    @contextlib.contextmanager
    def time(self, out: list, read_after: tuple[type, str] | None = None):
        """Append ``(raw s, scaled s)`` of the block to ``out``.

        ``read_after=(cls, name)`` also reads the kernel after every return of
        the method ``cls.name`` inside the block. Back-to-back blocks share the
        reading between them.
        """
        if time.perf_counter() - self._readings[-1][1] > 0.005:
            self.read()
        first = len(self._readings) - 1
        with self._reading_after(read_after):
            t0 = time.perf_counter()
            yield
            t1 = time.perf_counter()
        self.read()
        readings = self._readings[first:]
        inner = readings[1:-1]
        # pieces between readings: [t0, r1.start], [r1.end, r2.start], ..., [rk.end, t1]
        pieces = [b - a for a, b in zip([t0] + [end for _, end, _ in inner], [start for start, _, _ in inner] + [t1])]
        scaled = sum(piece * self.NOMINAL_S * 2 / (r0[2] + r1[2])
                     for piece, r0, r1 in zip(pieces, readings, readings[1:]))
        out.append((sum(pieces), scaled))

    @contextlib.contextmanager
    def _reading_after(self, target):
        if target is None:
            yield
            return
        owner, name = target
        original = owner.__dict__[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.read()
            return result

        setattr(owner, name, wrapper)
        try:
            yield
        finally:
            setattr(owner, name, original)
