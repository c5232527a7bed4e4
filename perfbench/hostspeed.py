"""Host-speed reference: a fixed NumPy kernel timed alongside the program.

The host is a share of a machine that other tenants load too. Its
speed swings by up to a factor of two over tens of seconds, and no
averaging inside one run removes a swing that outlasts it. Per-thread
CPU time swings with it, so the cause is the processor's speed, not
descheduling. The program spends most of a request in small NumPy
operations and their dispatch, so a fixed kernel of small NumPy
operations slows down and speeds up with it.

The closed loop times one kernel sample every ``INTERVAL_S`` of the
window, between requests. The kernel is the most speed-sensitive
code in the process: when it takes twice as long, a request takes
``2 ** elasticity`` times as long, with an elasticity below 1 that
depends on the workload's mix of dispatch and compute. So each
request's time is multiplied by ``(REFERENCE_S / kernel) **
elasticity``, ``kernel`` being the median of the samples taken within
``WINDOW_S`` of its start, and reads as on a host where the kernel
takes ``REFERENCE_S``. Each set-up is scaled the same way, with
``SETUP_ELASTICITY``, by the samples taken right before and after it.
The kernel uses no ``repro`` code, so a change to the program moves
the scaled times exactly as it moves the raw ones. Raw values are
kept in every report next to the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the reference host, in seconds (a 2-core x86-64 VM).
REFERENCE_S = 250e-6
#: Window time between two kernel samples, in seconds.
INTERVAL_S = 0.020
#: A request is scaled by the samples within this many seconds of it.
WINDOW_S = 0.5
#: Samples taken right before and right after each set-up.
SETUP_SAMPLES = 8
#: Elasticity of set-up time to kernel time (see the README).
SETUP_ELASTICITY = 0.6
#: Length of the kernel's vectors and its number of rounds.
LENGTH = 200
ROUNDS = 40


class HostSpeed:
    """Times the kernel and turns raw host time into reference-host
    time."""

    def __init__(self):
        self._a = np.linspace(0.0, 1.0, LENGTH)
        self._b = np.linspace(1.0, 2.0, LENGTH)
        #: ``perf_counter`` value at the start of each timed sample.
        self.times: list[float] = []
        #: Seconds each timed sample took.
        self.samples: list[float] = []
        self.checksum = 0.0

    def _kernel(self) -> float:
        a, b = self._a, self._b
        acc = 0.0
        for _ in range(ROUNDS):
            c = a * 1.0001 + b
            acc += float(c.dot(b))
            c = np.maximum(c, 1.5)
            acc += float(c.sum())
        return acc

    def sample(self) -> float:
        """Run the kernel twice and time the second run; returns and
        records its seconds.

        The untimed run brings the kernel's code and data back into the
        caches, so the timed one measures the host and not how much of
        the cache the request before it used.
        """
        self._kernel()
        start = time.perf_counter()
        acc = self._kernel()
        took = time.perf_counter() - start
        # Consumed, so the work is never skipped.
        self.checksum += acc
        self.times.append(start)
        self.samples.append(took)
        return took

    def kernel_s(self) -> float:
        """Median kernel time on this host over the whole run."""
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken")
        return statistics.median(self.samples)

    def scales_at(self, starts, elasticity: float) -> np.ndarray:
        """Factor from raw to reference-host time for each of ``starts``
        (``perf_counter`` values): ``REFERENCE_S`` over the median
        sample within ``WINDOW_S``, or over the nearest sample when
        none is that close, to the power ``elasticity``."""
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken")
        # Samples are taken one after another, so times are sorted.
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        starts = np.asarray(starts, dtype=np.float64)
        lo = np.searchsorted(times, starts - WINDOW_S, side="left")
        hi = np.searchsorted(times, starts + WINDOW_S, side="right")
        out = np.empty(len(starts))
        for i, (a, b) in enumerate(zip(lo, hi)):
            if b > a:
                kernel = np.median(samples[a:b])
            else:
                kernel = samples[np.abs(times - starts[i]).argmin()]
            out[i] = REFERENCE_S / kernel
        return out ** elasticity

    def bracket(self, count: int = SETUP_SAMPLES) -> list[float]:
        """Take ``count`` samples now; returns their seconds."""
        return [self.sample() for _ in range(count)]


def setup_scale(kernel_s: float) -> float:
    """Factor from raw to reference-host time for a set-up whose
    bracketing samples had the median ``kernel_s``."""
    return (REFERENCE_S / kernel_s) ** SETUP_ELASTICITY
