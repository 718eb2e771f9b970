"""AOT signal placement benchmarks, with a ratio-based perf gate.

Times the section-exit signaling cost in three lanes:

* ``direct`` — the default: AOT-planned exits run
  ``ConditionManager.relay_signal(plan)``, which skips the tag probe;
* ``tracked`` — the same exits with no plan, ``relay_signal()``: the
  dependency-tracked relay with its tag probe (the pre-AOT behavior);
* ``exhaustive`` — ``Config.track_dependencies = False``: the original
  scan-everything relay.

Workloads: the 1-of-256 sparse pool from BENCH_relay_dirty.json driven at
manager level in every lane, plus a bounded buffer and a readers-writers
monitor driven end to end through compiled methods with idle waiters
parked (``direct`` and ``exhaustive`` only: compiled methods always hand
their plan to the exit).  For the sparse lane the per-op *write* cost (the
``__setattr__`` dirty-tracking proxy) is measured separately and
subtracted, so the committed exit-cost ratio compares signaling work
against signaling work.

Results are written to ``BENCH_aot_signal.json`` at the repo root (set
``REPRO_WRITE_BENCH=1``).  The CI perf-smoke job re-runs these benches and
gates on *ratios* (same host, same process), not absolute times: the gate
fails when a measured ratio falls more than 30% below the committed one,
plus a static check that the committed record shows the direct exit beating
the tracked relay by ≥2× on the sparse lane.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time

import pytest

from benchmarks.conftest import skip_if_gil_mismatch, stamp_build
from repro.analysis.aot import MethodSignalPlan
from repro.core.expressions import S
from repro.core.monitor import Monitor
from repro.core.predicates import Predicate
from repro.core.waiter import Waiter
from repro.preprocess import monitor_compile, waituntil
from repro.runtime.config import get_config

BENCH_FILE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_aot_signal.json"
)

RATIO_TOLERANCE = 0.30
#: static acceptance floor on the committed record (ISSUE 7): the sparse
#: direct-signal exit must beat the tracked relay by at least this factor
SPARSE_EXIT_MIN_SPEEDUP = 2.0
#: ratios the CI gate re-measures and compares against the committed record.
#: Only the manager-level sparse ratios are gated: the end-to-end bounded
#: buffer / readers-writers lanes park real threads, and scheduler noise
#: swings their per-op times by more than the tolerance — they are recorded
#: for the docs but not gated.  The raw (not baseline-subtracted) tracked
#: ratio is gated because subtracting the shared write cost amplifies
#: run-to-run variance; the ≥2× acceptance bar applies to the committed
#: exit-cost ratio, where best-of-N discipline holds.
GATED_RATIOS = ("sparse_raw_direct_vs_tracked",)
#: absolute live floor for the asymptotic win: the direct exit must beat
#: the exhaustive scan by at least this factor on every run (observed
#: 27–86×; committed-relative gating is too noisy when the direct exit's
#: small net cost sits in the denominator)
EXHAUSTIVE_MIN_SPEEDUP = 10.0


def best_ns_per_op(fn, number: int, repeats: int = 5) -> float:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(number)
        dt = time.perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best / number


# ------------------------------------------------------------- workloads


@monitor_compile
class BoundedBuffer(Monitor):
    def __init__(self, capacity):
        super().__init__()
        self.items = []
        self.count = 0
        self.capacity = capacity
        self.closed = 0

    def put(self, v):
        waituntil(self.count < self.capacity)
        self.items.append(v)
        self.count += 1

    def take(self):
        waituntil(self.count > 0)
        v = self.items.pop()
        self.count -= 1
        return v

    def await_close(self):
        waituntil(self.closed != 0)

    def close(self):
        self.closed = 1


@monitor_compile
class ReadersWriters(Monitor):
    def __init__(self):
        super().__init__()
        self.readers = 0
        self.writer = 0

    def start_read(self):
        waituntil(self.writer == 0)
        self.readers += 1

    def end_read(self):
        self.readers -= 1

    def start_write(self):
        waituntil((self.readers == 0) & (self.writer == 0))
        self.writer = 1

    def end_write(self):
        self.writer = 0


class _ParkedThreads:
    """Park daemon threads inside a blocking monitor call; release on exit."""

    def __init__(self, n, park, release):
        self.release_fn = release
        self.threads = [
            threading.Thread(target=park, daemon=True) for _ in range(n)
        ]
        for t in self.threads:
            t.start()
        time.sleep(0.1)   # let them all reach the wait

    def release(self):
        self.release_fn()
        for t in self.threads:
            t.join(5.0)


def bench_bounded_buffer() -> float:
    """put/take pairs on a never-full buffer with 16 idle close-waiters
    parked: the exit cost with waiters present but unaffected."""
    m = BoundedBuffer(1 << 30)
    parked = _ParkedThreads(16, m.await_close, m.close)
    try:
        def run(n):
            put, take = m.put, m.take
            for i in range(n):
                put(i)
                take()

        return best_ns_per_op(run, 5000)
    finally:
        parked.release()


def bench_readers_writers() -> float:
    """start_read/end_read cycles with one pinned reader and 8 writers
    parked: every exit dirties a variable all parked waiters read."""
    n_writers = 8
    m = ReadersWriters()
    m.start_read()   # pin readers ≥ 1 so the writers never wake
    threads = [
        threading.Thread(target=m.start_write, daemon=True)
        for _ in range(n_writers)
    ]
    for t in threads:
        t.start()
    time.sleep(0.1)   # let them all reach the wait
    try:
        def run(n):
            start, end = m.start_read, m.end_read
            for _ in range(n):
                start()
                end()

        return best_ns_per_op(run, 2000)
    finally:
        # drop the pinned reader, then drain the writers one at a time:
        # each completed start_write leaves writer=1, so the next parked
        # writer can only proceed after an end_write
        m.end_read()
        for _ in range(n_writers):
            deadline = time.monotonic() + 5.0
            while not m.writer and time.monotonic() < deadline:
                time.sleep(0.002)
            m.end_write()
        for t in threads:
            t.join(5.0)


# sparse 1-of-256: manager-level, one write per exit, one matching waiter


@monitor_compile
class SparseBoard(Monitor):
    """Minimal compiled class so the manager buckets every waiter; the bench
    registers its 256-variable pool and synthesized per-variable plans."""

    def __init__(self):
        super().__init__()
        self.v0 = 0

    def poke(self):
        self.v0 = 0


def _sparse_pool(n_waiters):
    m = SparseBoard()
    mgr = m._cond_mgr
    names = [f"v{i}" for i in range(n_waiters)]
    for name in names:
        setattr(m, name, 0)
    m._dirty.clear()
    for name in names:
        mgr._register(Waiter(Predicate(getattr(S, name) != 0), m._lock))
    plans = [
        MethodSignalPlan(method=f"w{i}", write_set=frozenset({names[i]}))
        for i in range(n_waiters)
    ]
    with m._lock:
        mgr.relay_signal()   # drain the fresh-park evaluations
    return m, mgr, names, plans


def bench_sparse_write_baseline(n_waiters: int, number: int) -> float:
    """The shared per-op cost both signal lanes pay: one proxy ``setattr``
    per exit, no signaling.  Subtracted to isolate exit cost."""
    m, mgr, names, plans = _sparse_pool(n_waiters)

    def run(n):
        with m._lock:
            j = 0
            for _ in range(n):
                setattr(m, names[j], 0)
                j += 1
                if j == n_waiters:
                    j = 0
            m._dirty.clear()

    return best_ns_per_op(run, number)


def bench_sparse_direct(n_waiters: int, number: int) -> float:
    m, mgr, names, plans = _sparse_pool(n_waiters)

    def run(n):
        with m._lock:
            rs = mgr.relay_signal
            j = 0
            for _ in range(n):
                setattr(m, names[j], 0)
                rs(plans[j])
                j += 1
                if j == n_waiters:
                    j = 0

    return best_ns_per_op(run, number)


def bench_sparse_relay(n_waiters: int, number: int) -> float:
    m, mgr, names, plans = _sparse_pool(n_waiters)

    def run(n):
        with m._lock:
            rs = mgr.relay_signal
            j = 0
            for _ in range(n):
                setattr(m, names[j], 0)
                rs()
                j += 1
                if j == n_waiters:
                    j = 0

    return best_ns_per_op(run, number)


# ------------------------------------------------------------------ suite


def _lane_config(lane: str) -> None:
    get_config().track_dependencies = lane != "exhaustive"


def run_suite() -> dict:
    cfg = get_config()
    prior_track = cfg.track_dependencies
    prior_compile = cfg.compile_predicates
    lanes: dict[str, dict[str, float]] = {}
    try:
        cfg.compile_predicates = True
        for lane in ("direct", "tracked", "exhaustive"):
            _lane_config(lane)
            sparse_number = 5000 if lane != "exhaustive" else 200
            sparse_fn = (
                bench_sparse_direct if lane == "direct" else bench_sparse_relay
            )
            lanes[lane] = {}
            if lane != "tracked":
                lanes[lane]["bounded_buffer"] = round(bench_bounded_buffer(), 1)
                lanes[lane]["readers_writers"] = round(
                    bench_readers_writers(), 1)
            lanes[lane]["sparse_256"] = round(sparse_fn(256, sparse_number), 1)
        _lane_config("direct")
        write_baseline = round(bench_sparse_write_baseline(256, 20000), 1)
    finally:
        cfg.track_dependencies = prior_track
        cfg.compile_predicates = prior_compile

    def exit_cost(lane: str) -> float:
        return max(lanes[lane]["sparse_256"] - write_baseline, 0.1)

    ratios = {
        "sparse_exit_direct_vs_tracked": round(
            exit_cost("tracked") / exit_cost("direct"), 2
        ),
        "sparse_exit_direct_vs_exhaustive": round(
            exit_cost("exhaustive") / exit_cost("direct"), 2
        ),
        "sparse_raw_direct_vs_tracked": round(
            lanes["tracked"]["sparse_256"] / lanes["direct"]["sparse_256"], 2
        ),
        "bounded_buffer_direct_vs_exhaustive": round(
            lanes["exhaustive"]["bounded_buffer"]
            / lanes["direct"]["bounded_buffer"], 2
        ),
        "readers_writers_direct_vs_exhaustive": round(
            lanes["exhaustive"]["readers_writers"]
            / lanes["direct"]["readers_writers"], 2
        ),
    }
    return stamp_build({
        "unit": "ns_per_op",
        "sparse_write_baseline": write_baseline,
        "lanes": lanes,
        "sparse_exit_ns": {
            lane: round(exit_cost(lane), 1)
            for lane in ("direct", "tracked", "exhaustive")
        },
        "ratios": ratios,
    })


@pytest.fixture(scope="module")
def results():
    committed = None
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
    fresh = run_suite()
    import os

    if os.environ.get("REPRO_WRITE_BENCH") == "1":
        BENCH_FILE.write_text(json.dumps(fresh, indent=2) + "\n")
    return {"committed": committed, "fresh": fresh}


def test_emit_report(results, capsys):
    with capsys.disabled():
        print("\n" + json.dumps(results["fresh"], indent=2))


def test_direct_lane_skips_all_relay_search_work():
    """ISSUE 7 acceptance: on AOT-matched exits the section exit performs
    zero relay-search work — ``relay_skipped_aot`` grows while
    ``relay_buckets_scanned`` stays flat (measured as deltas after setup,
    so construction-time flushes don't count)."""
    cfg = get_config()
    prior_track = cfg.track_dependencies
    try:
        _lane_config("direct")
        m, mgr, names, plans = _sparse_pool(64)
        with m._lock:
            skipped0 = mgr.metrics.relay_skipped_aot
            scanned0 = mgr.metrics.relay_buckets_scanned
            for j in range(64):
                setattr(m, names[j], 0)
                mgr.relay_signal(plans[j])
            assert mgr.metrics.relay_skipped_aot - skipped0 == 64
            assert mgr.metrics.relay_buckets_scanned - scanned0 == 0
            assert mgr.metrics.relay_aot_fallbacks == 0
    finally:
        cfg.track_dependencies = prior_track


def test_direct_exit_beats_tracked_relay_on_fresh_measurement(results):
    """The direct exit must actually win against the tracked relay on the
    sparse lane in this process (any margin; the ≥2× bar is enforced on the
    committed record below, where best-of-N discipline applies)."""
    assert results["fresh"]["ratios"]["sparse_raw_direct_vs_tracked"] > 1.0


def test_direct_exit_beats_exhaustive_scan_by_wide_margin(results):
    """Absolute floor on the asymptotic win over the pre-PR-5 exhaustive
    relay: ≥10× on the 1-of-256 sparse exit, every run."""
    got = results["fresh"]["ratios"]["sparse_exit_direct_vs_exhaustive"]
    assert got >= EXHAUSTIVE_MIN_SPEEDUP, (
        f"direct exit only {got:.1f}x faster than the exhaustive scan "
        f"(need ≥{EXHAUSTIVE_MIN_SPEEDUP}x)"
    )


def test_static_sparse_exit_speedup_on_committed_record(results):
    """ISSUE 7 gate: the committed record shows the direct-signal exit
    beating the tracked relay by ≥2× on the 1-of-256 sparse lane."""
    committed = results["committed"]
    if committed is None:
        pytest.skip("no committed BENCH_aot_signal.json to gate against")
    got = committed["ratios"]["sparse_exit_direct_vs_tracked"]
    assert got >= SPARSE_EXIT_MIN_SPEEDUP, (
        f"committed sparse exit speedup {got:.2f}x below the "
        f"{SPARSE_EXIT_MIN_SPEEDUP}x acceptance floor"
    )


def test_ratio_gate_vs_committed_record(results):
    """Fail when a gated lane ratio regressed >30% vs the committed
    BENCH_aot_signal.json (same-process ratios, runner-agnostic)."""
    committed = results["committed"]
    if committed is None:
        pytest.skip("no committed BENCH_aot_signal.json to gate against")
    skip_if_gil_mismatch(committed)
    for key in GATED_RATIOS:
        floor = committed["ratios"][key] * (1.0 - RATIO_TOLERANCE)
        measured = results["fresh"]["ratios"][key]
        assert measured >= floor, (
            f"{key}: measured {measured:.2f}x fell >30% below the "
            f"committed {committed['ratios'][key]:.2f}x"
        )
