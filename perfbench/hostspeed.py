"""Host-speed kernels, timed between benchmark passes.

The speed of the shared host drifts by up to 1.5x over minutes with the
load of other tenants, and every pass time follows it. So before the
first pass and after each pass the benchmark times two fixed kernels, in
its own process where the program under test cannot touch them: a
pure-Python loop, which follows the interpreter-bound part of a pass, and
a stream over a 28 MB array, which follows the memory-bound part (the
quintic R contraction streams a D stack of that size). Reported times are
scaled by the kernels' summed reference time over their mean summed time
in the run.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3
LOOP_ITERATIONS = 300_000
STREAM_VALUES = 3_500_000

# Median kernel times on the 2-vCPU Xeon VM the benchmark was written on;
# reported times are scaled to a host as fast as that one.
REFERENCE_S = {"loop": 0.023, "stream": 0.024}

_stream_data: list = []


def _loop() -> None:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i


def _stream() -> None:
    # Cast to complex and sum, as the R contraction does with the D stack.
    _stream_data[0].astype(complex).sum()


KERNELS = {"loop": _loop, "stream": _stream}


def sample() -> dict:
    """Time of each kernel: the median of REPEATS timings."""
    if not _stream_data:
        import numpy as np  # imported late: the benchmark parent loads BLAS only after unpinning

        _stream_data.append(np.linspace(0.0, 1.0, STREAM_VALUES))
    out = {}
    for name, kernel in KERNELS.items():
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    return out


def scale(samples: list) -> float:
    """Factor from measured seconds to seconds on the reference host.

    The mean, not the median, of the samples: like the mean pass time it
    is set against, it moves smoothly with the share of time the host runs
    slow, where a median jumps between the slow and the fast mode.
    """
    return sum(REFERENCE_S.values()) / statistics.fmean(sum(s.values()) for s in samples)
