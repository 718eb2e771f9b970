"""Section-exit signaling benchmarks, with a ratio-based perf gate.

Times the section-exit signaling cost in two lanes:

* ``default`` — every exit runs ``ConditionManager.relay_signal()``, which
  skips the tag probe while no tagged waiter is parked;
* ``exhaustive`` — ``Config.track_dependencies = False``: the original
  scan-everything relay.

Workloads: the 1-of-256 sparse pool from BENCH_relay_dirty.json driven at
manager level; a false-root pool, also at manager level, of 32 tagged
waiters split over both threshold heaps of one variable that every exit
writes without making any root true; plus a bounded buffer and a
readers-writers monitor driven end to end through compiled methods with
idle waiters parked.  Those two park real threads, and scheduler noise
swings their per-op times by more than the tolerance: they are recorded,
not gated.  For the sparse lane the per-op *write* cost (the
``__setattr__`` dirty-tracking proxy) is measured separately and
subtracted, so the exit-cost ratio compares signaling work against
signaling work.

``BENCH_aot_signal.json`` is the record of the retired signal plans: its
``direct`` lane timed a planned exit, its ``tracked`` lane an unplanned
one.  This module no longer rewrites it; it is the reference the gates
hold the default exit to.  The CI perf-smoke job gates on ratios, not
absolute times:

* the sparse default exit beats the exhaustive scan by ≥10×;
* timed alternately with the write-only lane in one process, the sparse
  default exit costs at most 30% more, relative to the write, than the
  committed planned exit did (median of the per-pair ratios);
* the committed record still shows the planned exit beating the tracked
  relay by ≥2× (a static check on the record);
* timed alternately with its write-only lane, the false-root exit costs at
  most ``FALSE_ROOT_CEILING`` times the write (median of the per-pair
  ratios): each heap's probe is one evaluation and one comparison.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import threading
import time

import pytest

from benchmarks.conftest import skip_if_gil_mismatch, stamp_build
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
#: planned exit beat the tracked relay by at least this factor
SPARSE_EXIT_MIN_SPEEDUP = 2.0
#: absolute live floor for the asymptotic win: the default exit must beat
#: the exhaustive scan by at least this factor on every run (observed
#: 27–86×; committed-relative gating is too noisy when the default exit's
#: small net cost sits in the denominator)
EXHAUSTIVE_MIN_SPEEDUP = 10.0
#: alternating (exit, write-only) timing pairs behind the interleaved gates;
#: the lanes run back to back, so host drift cancels in each pair's ratio
INTERLEAVED_PAIRS = 25
#: tagged waiters in the false-root pool (relay_crowd parks 32 bystanders)
FALSE_ROOT_WAITERS = 32
#: ceiling on the false-root exit's median cost relative to the write-only
#: lane, set between interleaved runs of the memoized, generator-walking
#: probe and the direct one (numbers in docs/performance.md)
FALSE_ROOT_CEILING = 9.0


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
    """Minimal compiled class; the bench registers its 256-variable pool
    at manager level."""

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
    with m._lock:
        mgr.relay_signal()   # drain the fresh-park evaluations
    return m, mgr, names


def sparse_write_run(n_waiters: int):
    """The shared per-op cost both signal lanes pay: one proxy ``setattr``
    per exit, no signaling.  Subtracted to isolate exit cost."""
    m, mgr, names = _sparse_pool(n_waiters)

    def run(n):
        with m._lock:
            j = 0
            for _ in range(n):
                setattr(m, names[j], 0)
                j += 1
                if j == n_waiters:
                    j = 0
            m._dirty.clear()

    return run


def sparse_exit_run(n_waiters: int):
    """One write and one section exit per op, on the sparse pool."""
    m, mgr, names = _sparse_pool(n_waiters)

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

    return run


# false roots: manager-level, tagged waiters on the one variable each exit
# writes, every heap root false


def _false_root_pool(n_waiters: int):
    m = SparseBoard()
    mgr = m._cond_mgr
    for i in range(n_waiters // 2):
        mgr._register(Waiter(Predicate(S.v0 >= 1000 + i), m._lock))
        mgr._register(Waiter(Predicate(S.v0 <= -1000 - i), m._lock))
    with m._lock:
        mgr.relay_signal()   # flush the __init__ write
    return m, mgr


def false_root_write_run(n_waiters: int):
    """The false-root lane's per-op write, no signaling."""
    m, mgr = _false_root_pool(n_waiters)

    def run(n):
        with m._lock:
            for _ in range(n):
                m.v0 = 0
            m._dirty.clear()

    return run


def false_root_exit_run(n_waiters: int):
    """One write of the heaps' variable and one section exit per op."""
    m, mgr = _false_root_pool(n_waiters)

    def run(n):
        with m._lock:
            rs = mgr.relay_signal
            for _ in range(n):
                m.v0 = 0
                rs()

    return run


def interleaved_ratios(exit_run, write_run, pairs: int = INTERLEAVED_PAIRS,
                       number: int = 2000) -> list[float]:
    """Per-pair (exit ÷ write-only) cost, the two lanes timed alternately
    in this process."""
    ratios = []
    for _ in range(pairs):
        exit_ns = best_ns_per_op(exit_run, number, repeats=3)
        write_ns = best_ns_per_op(write_run, number, repeats=3)
        ratios.append(exit_ns / write_ns)
    return ratios


def planned_exit_reference(committed: dict) -> float:
    """The committed planned exit's cost relative to the write-only lane
    (1313.8 / 445.0 = 2.95 in the committed record)."""
    return (committed["lanes"]["direct"]["sparse_256"]
            / committed["sparse_write_baseline"])


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
        for lane in ("default", "exhaustive"):
            _lane_config(lane)
            sparse_number = 5000 if lane == "default" else 200
            lanes[lane] = {
                "bounded_buffer": round(bench_bounded_buffer(), 1),
                "readers_writers": round(bench_readers_writers(), 1),
                "sparse_256": round(best_ns_per_op(
                    sparse_exit_run(256), sparse_number), 1),
            }
        _lane_config("default")
        write_baseline = round(
            best_ns_per_op(sparse_write_run(256), 20000), 1)
        interleaved = interleaved_ratios(sparse_exit_run(256),
                                         sparse_write_run(256))
        false_root = interleaved_ratios(
            false_root_exit_run(FALSE_ROOT_WAITERS),
            false_root_write_run(FALSE_ROOT_WAITERS))
    finally:
        cfg.track_dependencies = prior_track
        cfg.compile_predicates = prior_compile

    def exit_cost(lane: str) -> float:
        return max(lanes[lane]["sparse_256"] - write_baseline, 0.1)

    ratios = {
        "sparse_exit_default_vs_exhaustive": round(
            exit_cost("exhaustive") / exit_cost("default"), 2
        ),
        "sparse_interleaved_exit_vs_write": round(
            statistics.median(interleaved), 2
        ),
        "false_root_interleaved_exit_vs_write": round(
            statistics.median(false_root), 2
        ),
        "bounded_buffer_default_vs_exhaustive": round(
            lanes["exhaustive"]["bounded_buffer"]
            / lanes["default"]["bounded_buffer"], 2
        ),
        "readers_writers_default_vs_exhaustive": round(
            lanes["exhaustive"]["readers_writers"]
            / lanes["default"]["readers_writers"], 2
        ),
    }
    return stamp_build({
        "unit": "ns_per_op",
        "sparse_write_baseline": write_baseline,
        "lanes": lanes,
        "sparse_exit_ns": {
            lane: round(exit_cost(lane), 1) for lane in ("default", "exhaustive")
        },
        "sparse_interleaved_exit_vs_write": [round(r, 3) for r in interleaved],
        "false_root_interleaved_exit_vs_write": [
            round(r, 3) for r in false_root],
        "ratios": ratios,
    })


@pytest.fixture(scope="module")
def results():
    committed = None
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
    return {"committed": committed, "fresh": run_suite()}


def test_emit_report(results, capsys):
    with capsys.disabled():
        print("\n" + json.dumps(results["fresh"], indent=2))


def test_sparse_exits_evaluate_only_the_written_reader():
    """Exact counts on the 1-of-256 pool: 64 exits, each writing one
    variable with one parked reader, cost 64 predicate evaluations and no
    tag check (the pool is untagged, so the probe never runs)."""
    cfg = get_config()
    prior_track = cfg.track_dependencies
    try:
        _lane_config("default")
        m, mgr, names = _sparse_pool(64)
        with m._lock:
            evals0 = mgr.metrics.predicate_evals
            tags0 = mgr.metrics.tag_checks
            for j in range(64):
                setattr(m, names[j], 0)
                mgr.relay_signal()
            assert mgr.metrics.predicate_evals - evals0 == 64
            assert mgr.metrics.tag_checks - tags0 == 0
    finally:
        cfg.track_dependencies = prior_track


def test_default_exit_holds_the_planned_exit_cost(results):
    """Timed alternately with the write-only lane, the sparse default exit
    costs at most 30% more, relative to the write, than the committed
    planned exit did: the median per-pair ratio stays within
    (1 + RATIO_TOLERANCE) × the committed reference."""
    committed = results["committed"]
    if committed is None:
        pytest.skip("no committed BENCH_aot_signal.json to gate against")
    skip_if_gil_mismatch(committed)
    reference = planned_exit_reference(committed)
    ceiling = reference * (1.0 + RATIO_TOLERANCE)
    pairs = results["fresh"]["sparse_interleaved_exit_vs_write"]
    assert len(pairs) >= 20
    got = statistics.median(pairs)
    assert got <= ceiling, (
        f"sparse exit costs {got:.2f}x the write-only lane (median of "
        f"{len(pairs)} interleaved pairs); the committed planned exit cost "
        f"{reference:.2f}x, ceiling {ceiling:.2f}x"
    )


def test_false_root_exits_cost_one_check_per_heap():
    """Exact counts on the false-root pool: 64 exits cost two tag checks
    each (one per heap, root false) and no predicate evaluation."""
    m, mgr = _false_root_pool(FALSE_ROOT_WAITERS)
    with m._lock:
        evals0 = mgr.metrics.predicate_evals
        tags0 = mgr.metrics.tag_checks
        for _ in range(64):
            m.v0 = 0
            assert mgr.relay_signal() is None
        assert mgr.metrics.predicate_evals - evals0 == 0
        assert mgr.metrics.tag_checks - tags0 == 2 * 64


def test_false_root_exit_holds_its_ceiling(results):
    """Timed alternately with its write-only lane, the false-root exit
    costs at most FALSE_ROOT_CEILING times the write (median of the
    per-pair ratios)."""
    skip_if_gil_mismatch(results["committed"])
    pairs = results["fresh"]["false_root_interleaved_exit_vs_write"]
    assert len(pairs) >= 20
    got = statistics.median(pairs)
    assert got <= FALSE_ROOT_CEILING, (
        f"false-root exit costs {got:.2f}x the write-only lane (median of "
        f"{len(pairs)} interleaved pairs); ceiling {FALSE_ROOT_CEILING:.2f}x"
    )


def test_direct_exit_beats_exhaustive_scan_by_wide_margin(results):
    """Absolute floor on the asymptotic win over the pre-PR-5 exhaustive
    relay: ≥10× on the 1-of-256 sparse exit, every run."""
    got = results["fresh"]["ratios"]["sparse_exit_default_vs_exhaustive"]
    assert got >= EXHAUSTIVE_MIN_SPEEDUP, (
        f"default exit only {got:.1f}x faster than the exhaustive scan "
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
