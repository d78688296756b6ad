"""Host canary: a fixed slice of benchmark-owned work, timed during a run.

The shared hosts this benchmark runs on change speed by tens of percent,
and not smoothly: a canary slice takes either about 6.5 ms or about 10 ms
on the 2-vCPU host the benchmark was sized on, depending on whether the
CPU is contended at that moment, and the two states alternate over seconds
to tens of seconds.  A round of the program runs slower in proportion to
the share of its time spent contended.  No change to the program can move
the canary, so the gated times are expressed in reference-host seconds:

    program seconds × REFERENCE_SLICE_S / mean slice seconds over the same time

``Canary.tick`` is called by the workloads at many points of every round
and times one slice whenever ``period_s`` has passed since the last one,
so the slices sample the same stretch of time as the work they scale.
``Canary.now`` is a clock that leaves the slices out: rounds and ops are
timed with it, so the canary never counts as program time.  The mean, not
the median, of the slices is used: with two states the median jumps from
one state to the other, while the mean follows the contended share.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((96, 96))
_VALUES = _RNG.standard_normal((64, 256))

#: Mean canary slice seconds on the 2-vCPU host the benchmark was sized on.
#: Any fixed value would do: it only sets the scale of the gated times.
REFERENCE_SLICE_S = 0.0085


def slice_seconds() -> float:
    """Seconds of one fixed slice: a pure-Python loop, small NumPy element-wise
    ops and a small one-thread GEMM (about 8.5 ms on the reference host)."""
    start = time.perf_counter()
    total = 0
    for index in range(60_000):
        total += index * index % 7
    for _ in range(30):
        codes = np.clip(np.round(_VALUES * 3.1), -8, 7).astype(np.int64)
        codes.sum(axis=1)
    for _ in range(24):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


class Canary:
    """Canary slices interleaved with the program, and a clock without them.

    ``period_s=None`` turns ``tick`` off (traced runs, whose round times
    must hold program and tracing time only).
    """

    def __init__(self, period_s: "float | None") -> None:
        self.period_s = period_s
        self.slices: list[float] = []
        self.spent_s = 0.0
        self.last = time.perf_counter()

    def now(self) -> float:
        """Seconds on a clock that stops while a canary slice runs."""
        return time.perf_counter() - self.spent_s

    def measure(self, slices: int) -> "list[float]":
        """Time ``slices`` slices back to back, off the program clock."""
        start = time.perf_counter()
        timed = [slice_seconds() for _ in range(slices)]
        self.slices.extend(timed)
        self.last = time.perf_counter()
        self.spent_s += self.last - start
        return timed

    def tick(self) -> None:
        """One slice if ``period_s`` has passed since the last one."""
        if self.period_s is not None and time.perf_counter() - self.last >= self.period_s:
            self.measure(1)
