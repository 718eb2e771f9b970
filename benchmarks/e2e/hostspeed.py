"""Host-speed probe: the time of a fixed pure-Python loop.

The hosts this benchmark runs on are shared, and their CPU speed drifts
by up to 1.6x over seconds to minutes, with the same effect on the
probe and on the CPU-bound work of a workload.  Timings are therefore
reported at the reference speed: each one is scaled by
:func:`speed` measured in the same process at the same moment.

The probe is short (~0.1 ms) and the best of several tries, so that a
try is rarely preempted by one of the workload's own threads waking.
"""

from __future__ import annotations

import math
import time

ITERATIONS = 2000
#: probe time (ms) of the reference host at its usual fast speed: a
#: 2-vCPU x86-64 VM running CPython 3.11
REFERENCE_MS = 0.115


def probe_ms(repeats: int = 7) -> float:
    """Best of ``repeats`` timings of the fixed loop, in ms."""
    best = math.inf
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for i in range(ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - began)
    return best * 1e3


def speed(ms: float) -> float:
    """Host speed relative to the reference (below 1 when slower)."""
    return REFERENCE_MS / ms
