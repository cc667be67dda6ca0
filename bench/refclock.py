"""Reference-seconds: wall time measured against a fixed reference kernel.

The host's speed drifts by tens of percent within a minute, so raw seconds
do not repeat.  Every timed stretch is bracketed by bursts of a fixed
reference kernel, and a time is reported as

    raw_seconds / mean(burst_before, burst_after) * REF_NOMINAL_S

which cancels the host's current speed and keeps the unit at seconds.  The
kernel never calls boxlab, so a change to boxlab cannot move the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Duration of one kernel repetition, fixed once (measured on a 2-vCPU host,
# Python 3.11.7, numpy 2.4.6).  Changing it rescales every reported time.
REF_NOMINAL_S = 0.0017
BURST_REPS = 5
STRETCH_S = 0.1


def kernel() -> float:
    """Fixed work: a stdlib interpreter loop, small-array numpy calls, and
    one fresh 4 MB array, whose page faults track memory-bound work."""
    acc = 0
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
    a = np.arange(64, dtype=np.float64).reshape(8, 8) / 64.0
    for _ in range(150):
        a = np.tanh(a @ a.T) + 0.001
    buf = np.ones(1 << 19)
    return acc + float(a.sum()) + float(buf[::512].sum())


def burst(reps: int = BURST_REPS) -> float:
    """Median duration of ``reps`` kernel repetitions, in raw seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns raw seconds between two bursts into reference-seconds."""
    if before <= 0.0 or after <= 0.0:
        raise ValueError("burst durations must be positive")
    return REF_NOMINAL_S / (0.5 * (before + after))


class RefTimer:
    """Times operations one by one; a burst closes each stretch of about
    STRETCH_S seconds, and every operation of the stretch is scaled by the
    bursts on either side of it."""

    def __init__(self, stretch_s: float = STRETCH_S):
        self.stretch_s = stretch_s
        self.raw: list[float] = []
        self.scales: list[float | None] = []
        self._pending: list[int] = []
        self._last_burst = burst()
        self._opened = time.perf_counter()

    def measure(self, fn):
        """Run ``fn()`` and record its raw time; returns (slot, result, error)."""
        slot = len(self.raw)
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        self.raw.append(time.perf_counter() - t0)
        self.scales.append(None)
        self._pending.append(slot)
        if time.perf_counter() - self._opened >= self.stretch_s:
            self.flush()
        return slot, result, error

    def flush(self) -> None:
        """Close the open stretch with a burst and scale its operations."""
        if not self._pending:
            return
        after = burst()
        factor = scale(self._last_burst, after)
        for slot in self._pending:
            self.scales[slot] = factor
        self._pending = []
        self._last_burst = after
        self._opened = time.perf_counter()

    def ref_seconds(self, slot: int) -> float:
        factor = self.scales[slot]
        if factor is None:
            raise RuntimeError("stretch still open; call flush() first")
        return self.raw[slot] * factor
