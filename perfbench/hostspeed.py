"""Host-speed probe: the benchmark's own fixed piece of work.

The benchmark runs on two cores of a shared host whose speed drifts by
up to 1.6x over minutes, as other tenants come and go: the same fixed
work took 22-38 ms of CPU time within one hour on a 2-vCPU Intel Xeon
VM.  A run therefore also times a probe that the program under test
cannot change: a fixed Python loop and a few small BLAS products, the
two kinds of work the program does.  Bursts of the probe are interleaved
with the measured operations, and the times the run measures in its own
process are scaled to the host speed at which the probe takes
``NOMINAL_S``::

    reported = measured * NOMINAL_S / mean(probe samples of the run)

A rate is scaled the other way.  A change to the program moves the
measured time and leaves the probe alone, so it moves the reported time
by the same share.  Each run prints its unscaled values and the factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Mean probe sample on a quiet 2-vCPU Intel Xeon (2.0 GHz) VM with one
# OpenBLAS thread.  Only a scale: every run divides by its own mean.
NOMINAL_S = 0.012
# Recorded samples per burst (about 0.25 s), after one unrecorded sample
# that brings the probe back into the cache.
BURST = 24

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((64, 196))
_POOL = _rng.standard_normal((900, 196))


def probe() -> float:
    """One probe sample, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    for _ in range(10):
        _ROWS @ _POOL.T
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples of one run and the factor they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def burst(self) -> None:
        """Take a burst of samples."""
        probe()
        self.samples.extend(probe() for _ in range(BURST))

    def factor(self) -> float:
        """Multiplier from measured seconds to seconds at nominal speed."""
        return NOMINAL_S / statistics.fmean(self.samples)

    def note(self) -> str:
        return (f"host speed: {len(self.samples)} probe samples, mean "
                f"{statistics.fmean(self.samples) * 1e3:.2f} ms, times scaled by "
                f"{self.factor():.4f}")
