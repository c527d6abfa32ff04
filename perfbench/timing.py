"""The reference loop that scales every timing to a fixed nominal speed.

Each timed operation (one input through a workload's pipeline, or one CLI
invocation) and each timed set-up is preceded by ``reference()``.  Its wall
time divided into ``NOMINAL_S`` gives the factor that turns the adjacent
wall time into time at the nominal host speed (unit ``ms_ref``; ``setup_s``
is scaled alike and reported in ``s``), so host-speed drift cancels.
"""

from __future__ import annotations

import statistics
import time

CHUNKS = 5
CHUNK_ITERATIONS = 20_000
# Wall time of the whole loop on the reference host (2-vCPU x86-64 VM at
# 2.1 GHz, CPython 3.11) when it is quiet, so scaled figures read close to
# wall time there.
NOMINAL_S = 0.020


def _chunk() -> int:
    # Pure integer arithmetic on locals: no container is allocated, so the
    # program's heap cannot slow the loop down.
    x = 0
    i = 0
    while i < CHUNK_ITERATIONS:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i += 1
    return x


def reference() -> float:
    """Run the loop; returns the factor that scales a wall time measured
    next to it to nominal seconds.  The median chunk time ignores a chunk
    that an interrupt happened to hit."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - start)
    return NOMINAL_S / (CHUNKS * statistics.median(times))
