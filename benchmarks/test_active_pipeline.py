"""Delegation-pipeline + multisynch benchmark, with a ratio-based perf gate.

Measures the ISSUE-3 acceptance lanes (see ``active_pipeline_lanes``):
queue throughput at 1/4/8 producers, delegated submit→complete throughput,
submit→get latency, and multisynch acquire/release cycles — plus two
in-process comparison lanes that make the gate runner-independent:

* ``queue_vs_legacy_4p`` — the new GIL-atomic ticket/deque MPSC queue
  against the vendored pre-PR implementation (``AtomicInteger`` micro-lock
  + ``putlock``), same harness, same process;
* ``multisynch_cached_vs_uncached`` — the flatten-cache fast path against
  the walk/dedupe/sort path (``_cache_enabled = False``), the two lanes
  timed alternately in one process; the ratio is the median of the
  per-pair ratios, so host drift cancels in each pair.

Results are written to ``BENCH_active_pipeline.json`` at the repo root (set
``REPRO_WRITE_BENCH=1``).  The committed copy records the numbers backing
docs/performance.md: its ``speedup_vs_seed`` column must show ≥2× on
``submit_complete_8p`` and ≥1.5× on both multisynch lanes (asserted
statically below — the acceptance record cannot silently rot).

The CI perf-smoke job re-runs the comparison lanes and gates on *ratios*
(new vs legacy, cached vs uncached, measured on the same host in the same
process), not absolute throughput: absolute ops/s vary wildly across
runners, but the ratio is a property of the code.  The gate fails when a
measured ratio falls more than 30% below the committed one.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import threading
from collections import deque
from typing import Any, Optional

import pytest

from benchmarks.active_pipeline_lanes import (
    multisynch_cycle,
    queue_ops,
    run_lanes,
)
from benchmarks.conftest import skip_if_gil_mismatch, stamp_build
from repro.multi import multisync as _multisync_mod

BENCH_FILE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_active_pipeline.json"
)

#: pre-PR lane numbers (AtomicInteger+putlock queue, per-task allocation,
#: eager-CV futures, uncached multisynch flatten), measured by this same
#: benchmark on the host that produced the committed record
SEED_LANES = {
    "queue_ops_1p": 491466.2,
    "queue_ops_4p": 456817.7,
    "queue_ops_8p": 426487.3,
    "submit_complete_8p": 55283.2,
    "submit_get_latency_ns": 17285.5,
    "multisynch_cycle_2": 266081.2,
    "multisynch_cycle_4": 185676.3,
}

#: the ISSUE-3 acceptance floors, asserted against the committed record
ACCEPTANCE = {
    "submit_complete_8p": 2.0,
    "multisynch_cycle_2": 1.5,
    "multisynch_cycle_4": 1.5,
}

GATED_RATIOS = ("queue_vs_legacy_4p", "multisynch_cached_vs_uncached")
RATIO_TOLERANCE = 0.30
#: alternating (cached, uncached) multisynch timing pairs
INTERLEAVED_PAIRS = 25


# -------------------------------------------------------------- legacy queue
# The pre-PR SingleConsumerBoundedQueue, vendored verbatim so the perf gate
# can measure new-vs-old in one process on any runner.
class _LegacyAtomicInteger:
    __slots__ = ("_value", "_lock")

    def __init__(self, value: int = 0):
        self._value = value
        self._lock = threading.Lock()

    def get(self) -> int:
        with self._lock:
            return self._value

    def get_and_increment(self) -> int:
        with self._lock:
            old = self._value
            self._value = old + 1
            return old

    def get_and_add(self, delta: int) -> int:
        with self._lock:
            old = self._value
            self._value = old + delta
            return old


class LegacyQueue:
    """Pre-PR queue: putlock-guarded producers, micro-locked counter."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._count = _LegacyAtomicInteger(0)
        self._putlock = threading.Lock()
        self._not_full = threading.Condition(self._putlock)
        self._items: deque[Any] = deque()
        self._take_count = 0

    def put(self, item: Any) -> None:
        with self._putlock:
            while self._count.get() == self.capacity:
                self._not_full.wait()
            self._items.append(item)
            lcount = self._count.get_and_increment()
            if lcount + 1 < self.capacity:
                self._not_full.notify()

    def _signal_not_full(self) -> None:
        with self._putlock:
            self._not_full.notify()

    def take(self) -> Optional[Any]:
        if self._take_count > 0:
            self._take_count -= 1
            return self._items.popleft()
        self._take_count = self._count.get()
        if self._take_count == 0:
            self._signal_not_full()
            return None
        x = self._items.popleft()
        lcount = self._count.get_and_add(-self._take_count)
        if lcount == self._take_count:
            self._signal_not_full()
        self._take_count -= 1
        return x


# ------------------------------------------------------------------ the run
def interleaved_cache_ratios(pairs: int = INTERLEAVED_PAIRS,
                             iters: int = 4_000) -> list[float]:
    """Per-pair (cached ÷ uncached) multisynch cycle throughput over two
    monitors, the two lanes timed alternately in this process."""
    ratios = []
    for _ in range(pairs):
        cached = multisynch_cycle(2, iters)
        _multisync_mod._cache_enabled = False
        try:
            uncached = multisynch_cycle(2, iters)
        finally:
            _multisync_mod._cache_enabled = True
        ratios.append(cached / uncached)
    return ratios


def _comparison_lanes() -> dict[str, float]:
    new_q = queue_ops(4)
    legacy_q = queue_ops(4, queue_factory=LegacyQueue)
    return {
        "queue_vs_legacy_4p": round(new_q / legacy_q, 2),
        "multisynch_cached_vs_uncached": round(
            statistics.median(interleaved_cache_ratios()), 2),
    }


@pytest.fixture(scope="module")
def results():
    committed = None
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
    lanes = run_lanes()
    ratios = _comparison_lanes()
    speedup_vs_seed = {}
    for lane, value in lanes.items():
        seed = SEED_LANES[lane]
        if lane.endswith("_ns"):     # latency: lower is better
            speedup_vs_seed[lane] = round(seed / value, 2)
        else:
            speedup_vs_seed[lane] = round(value / seed, 2)
    report = stamp_build({
        "unit": "ops_per_s (latency lanes: ns_per_op)",
        "seed": SEED_LANES,
        "lanes": lanes,
        "speedup_vs_seed": speedup_vs_seed,
        "comparison_ratios": ratios,
    })
    if os.environ.get("REPRO_WRITE_BENCH") == "1":
        BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n")
    return {"committed": committed, "fresh": report}


def test_emit_report(results, capsys):
    with capsys.disabled():
        print("\n" + json.dumps(results["fresh"], indent=2))


def test_new_queue_beats_legacy(results):
    """The zero-lock admission path must actually win over the micro-lock
    design, measured in this very process."""
    assert results["fresh"]["comparison_ratios"]["queue_vs_legacy_4p"] > 1.0


def test_flatten_cache_beats_uncached(results):
    """The cached multisynch construction must beat re-flattening."""
    assert (
        results["fresh"]["comparison_ratios"]["multisynch_cached_vs_uncached"]
        > 1.0
    )


def test_ratio_gate_vs_committed_baseline(results):
    """Fail when a comparison ratio regressed >30% vs the committed
    BENCH_active_pipeline.json (ratios, not absolute ops/s, so the gate is
    meaningful on any runner)."""
    committed = results["committed"]
    if committed is None:
        pytest.skip("no committed BENCH_active_pipeline.json to gate against")
    skip_if_gil_mismatch(committed)
    recorded = committed["comparison_ratios"]
    measured = results["fresh"]["comparison_ratios"]
    for lane in GATED_RATIOS:
        floor = recorded[lane] * (1.0 - RATIO_TOLERANCE)
        assert measured[lane] >= floor, (
            f"{lane}: ratio {measured[lane]:.2f}x fell >30% below the "
            f"committed {recorded[lane]:.2f}x"
        )


def test_committed_record_meets_acceptance():
    """The committed record must show the ISSUE-3 acceptance speedups
    (≥2× submit→complete at 8 producers, ≥1.5× multisynch cycles) vs the
    pre-PR seed.  Static check — no timing, deterministic on any runner."""
    if not BENCH_FILE.exists():
        pytest.skip("no committed BENCH_active_pipeline.json yet")
    committed = json.loads(BENCH_FILE.read_text())
    speedups = committed["speedup_vs_seed"]
    for lane, floor in ACCEPTANCE.items():
        assert speedups[lane] >= floor, (
            f"{lane}: committed record shows {speedups[lane]:.2f}x, "
            f"acceptance requires ≥{floor}x"
        )
