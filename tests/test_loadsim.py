"""Tests for repro.loadsim: arrival determinism, recorder properties,
service facades, and small end-to-end scenario runs.

The hypothesis properties pin down the two contracts the CI load-smoke
lane leans on: identical seeds produce *identical* arrival schedules
(chaos runs replay; committed BENCH records describe reproducible
traffic), and the HDR-style recorder's percentiles are monotone
(p50 <= p95 <= p99 <= p99.9) with bounded relative error.
"""

import asyncio
import math
import queue
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor, S
from repro.loadsim import (
    SLO,
    ArrivalProcess,
    AsyncLoadSimulator,
    BurstArrivals,
    Bulkhead,
    DiurnalArrivals,
    LatencyRecorder,
    LoadReport,
    LoadSimulator,
    PoissonArrivals,
    Service,
    SLOViolation,
    WindowedSeries,
    make_service,
    run_burst_load,
    run_mixed_workload,
    run_network_partition,
    run_steady_load,
    run_worker_failure,
)
from repro.loadsim.recorder import _GROWTH
from repro.preprocess import monitor_compile
from repro.runtime.errors import (
    BrokenMonitorError,
    TaskError,
    WaitTimeoutError,
)


# ============================================================ arrivals
class TestArrivalDeterminism:
    @given(rate=st.floats(1.0, 200.0), duration=st.floats(0.1, 5.0),
           seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_identical_seeds_identical_poisson_schedules(
            self, rate, duration, seed):
        a = PoissonArrivals(rate, duration, seed).schedule()
        b = PoissonArrivals(rate, duration, seed).schedule()
        assert a == b
        assert all(0.0 <= t < duration for t in a)
        assert list(a) == sorted(a)

    @given(base=st.floats(1.0, 50.0), extra=st.floats(0.0, 200.0),
           seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_identical_seeds_identical_burst_schedules(
            self, base, extra, seed):
        kw = dict(period=0.7, burst_fraction=0.4)
        a = BurstArrivals(base, base + extra, 2.0, seed, **kw).schedule()
        b = BurstArrivals(base, base + extra, 2.0, seed, **kw).schedule()
        assert a == b

    @given(peak=st.floats(1.0, 200.0), floor=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_identical_seeds_identical_diurnal_schedules(
            self, peak, floor, seed):
        a = DiurnalArrivals(peak, 2.0, seed, floor=floor).schedule()
        b = DiurnalArrivals(peak, 2.0, seed, floor=floor).schedule()
        assert a == b

    def test_different_seeds_differ(self):
        a = PoissonArrivals(100.0, 2.0, 1).schedule()
        b = PoissonArrivals(100.0, 2.0, 2).schedule()
        assert a != b

    def test_rate_scales_volume(self):
        slow = PoissonArrivals(10.0, 5.0, 7).schedule()
        fast = PoissonArrivals(100.0, 5.0, 7).schedule()
        assert len(fast) > len(slow) * 3

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstArrivals(10.0, 5.0, 1.0)          # burst < base
        with pytest.raises(ValueError):
            BurstArrivals(1.0, 2.0, 1.0, burst_fraction=1.5)
        with pytest.raises(ValueError):
            PoissonArrivals(10.0, 0.0)             # zero duration

    def test_burst_rate_profile(self):
        arr = BurstArrivals(10.0, 100.0, 4.0, period=1.0, burst_fraction=0.25)
        assert arr.rate_at(0.1) == 100.0
        assert arr.rate_at(0.5) == 10.0
        assert arr.rate_at(1.1) == 100.0
        assert arr.peak_rate == 100.0

    def test_diurnal_rate_profile(self):
        arr = DiurnalArrivals(100.0, 10.0, floor=0.2)
        assert arr.rate_at(0.0) == pytest.approx(20.0)
        assert arr.rate_at(5.0) == pytest.approx(100.0)
        assert arr.rate_at(10.0) == pytest.approx(20.0, abs=1e-6)


# ============================================================ recorder
class TestLatencyRecorder:
    @given(st.lists(st.floats(1e-7, 10.0), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_percentiles_monotone(self, samples):
        rec = LatencyRecorder()
        for s in samples:
            rec.record(s)
        p50, p95, p99, p999 = (rec.percentile(q) for q in (50, 95, 99, 99.9))
        assert p50 <= p95 <= p99 <= p999 <= rec.max
        assert rec.count == len(samples)

    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_percentile_relative_error_bounded(self, samples):
        """Any percentile lands within one bucket (~4%) of a true sample."""
        rec = LatencyRecorder()
        for s in samples:
            rec.record(s)
        ordered = sorted(samples)
        for q in (50.0, 95.0, 99.0):
            true = ordered[max(0, math.ceil(len(ordered) * q / 100.0) - 1)]
            got = rec.percentile(q)
            assert got <= true * _GROWTH + 1e-9
            assert got >= true / _GROWTH - 1e-9

    def test_p100_equals_max(self):
        rec = LatencyRecorder()
        for s in (0.001, 0.5, 0.123):
            rec.record(s)
        assert rec.percentile(100) == rec.max == 0.5

    def test_merge_equals_record_all(self):
        a, b, merged = LatencyRecorder(), LatencyRecorder(), LatencyRecorder()
        for i in range(50):
            (a if i % 2 else b).record(i * 1e-3)
            merged.record(i * 1e-3)
        a.merge(b)
        assert a.count == merged.count
        for q in (50, 95, 99):
            assert a.percentile(q) == merged.percentile(q)

    def test_empty_and_negative(self):
        rec = LatencyRecorder()
        assert rec.percentile(99) == 0.0 and rec.mean == 0.0
        rec.record(-1.0)   # clamped to zero, not an error
        assert rec.count == 1

    def test_concurrent_recording(self):
        rec = LatencyRecorder()

        def pound():
            for i in range(2000):
                rec.record(i * 1e-5)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert rec.count == 8000

    def test_windowed_series(self):
        w = WindowedSeries(window_s=0.5)
        w.record(0.1, "completed", 0.01)
        w.record(0.4, "timed_out")
        w.record(0.6, "completed", 0.02)
        series = w.series()
        assert [s["t"] for s in series] == [0.0, 0.5]
        assert series[0]["counts"]["completed"] == 1
        assert series[0]["counts"]["timed_out"] == 1
        assert series[1]["counts"]["completed"] == 1
        assert series[1]["p50_ms"] > 0


# ============================================================ report / SLO
class TestReport:
    def _report(self, **over):
        kw = dict(
            service="svc", scenario="test", seed=1, params={},
            counts={"all": {"completed": 8, "timed_out": 1,
                            "failed_fast": 0, "shed": 1, "errors": 0}},
            latency={"all": LatencyRecorder()},
            windows=WindowedSeries(), elapsed=1.0, in_flight=0,
        )
        kw.update(over)
        return LoadReport(**kw)

    def test_accounting_identity(self):
        r = self._report()
        assert r.admitted == 9 and r.offered == 10
        r.assert_accounted()

    def test_lost_requests_fail_accounting(self):
        r = self._report(in_flight=2, diagnostics=["monitor #3 wedged"])
        with pytest.raises(SLOViolation) as ei:
            r.assert_accounted()
        assert "never reached a terminal state" in str(ei.value)
        assert "wedged" in str(ei.value)

    def test_slo_fractions(self):
        r = self._report()
        bad = r.check(SLO(max_timeout_frac=0.05, max_shed_frac=0.05))
        assert len(bad) == 2
        assert r.check(SLO(max_timeout_frac=0.5, max_shed_frac=0.5)) == []

    def test_slo_latency_bound(self):
        rec = LatencyRecorder()
        rec.record(0.2)
        r = self._report(latency={"all": rec})
        assert r.check(SLO(p95_ms=100.0))
        assert not r.check(SLO(p95_ms=300.0))


# ============================================================ services
class TestServices:
    def test_bulkhead_bounds_concurrency(self):
        gate = Bulkhead(1)
        assert gate.acquire(time.monotonic() + 0.1)
        assert not gate.acquire(time.monotonic() + 0.05)   # saturated
        gate.release()
        assert gate.acquire(time.monotonic())              # expired: still try
        gate.release()
        with pytest.raises(ValueError):
            Bulkhead(0)

    def test_make_service_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_service("nope")

    def test_buffer_service_roundtrip(self):
        svc = make_service("buffer", seed=1, capacity=8, prefill=2)
        svc.start()
        try:
            deadline = time.monotonic() + 1.0
            svc.handle(("put", 42), deadline)
            svc.handle(("take",), deadline)
            with pytest.raises(WaitTimeoutError):
                # drain the prefill, then a take must time out
                for _ in range(8):
                    svc.handle(("take",), time.monotonic() + 0.05)
        finally:
            svc.stop()

    def test_multicast_partition_grouping(self):
        svc = make_service("multicast", seed=1, n_channels=4)
        svc.start()
        try:
            assert svc.group((0, 1)) == "all"
            targets = svc.partition_targets(2)
            assert len(targets) == 2 and svc.partitioned == {0, 1}
            assert svc.group((0, 7)) == "partitioned"
            assert svc.group((3, 7)) == "healthy"
        finally:
            svc.partitioned = set()
            svc.stop()


# ============================================================ scenarios
# Small, fast runs — the full-size lanes live in benchmarks/test_loadsim.py.
class TestScenarios:
    def test_steady_load_accounts_every_request(self):
        report = run_steady_load("buffer", rate=40.0, duration=1.0, seed=3)
        assert report.offered == len(
            PoissonArrivals(40.0, 1.0, 3).schedule())
        assert report.in_flight == 0
        totals = {k: report.total(k) for k in
                  ("completed", "timed_out", "failed_fast", "shed", "errors")}
        assert report.admitted == sum(
            v for k, v in totals.items() if k != "shed")
        assert totals["completed"] > 0
        d = report.to_dict()
        assert d["latency_ms"]["p50"] <= d["latency_ms"]["p99"]

    def test_worker_failure_restarts_and_loses_nothing(self):
        report = run_worker_failure(
            "buffer", rate=40.0, duration=2.0, kill_at=0.5, seed=3,
            recovery_margin=0.8)
        assert report.in_flight == 0
        assert report.extra["chaos"]["injected"]["kill"] == 1
        assert sum(s["restarts"] for s in report.extra["supervision"]) >= 1

    def test_network_partition_isolates_and_drains(self):
        report = run_network_partition(
            rate=50.0, duration=2.5, partition_at=0.5, heal_after=0.7,
            seed=3, deadline=0.3)
        assert report.in_flight == 0
        healthy = report.counts["healthy"]
        part = report.counts["partitioned"]
        assert healthy["completed"] > 0
        # the partition was visible AND fully drained
        assert part.get("timed_out", 0) + part.get("shed", 0) > 0
        assert part["completed"] + part["timed_out"] + part["shed"] > 0

    def test_burst_overload_sheds_explicitly(self):
        report = run_burst_load(
            "pizza", base_rate=20.0, burst_rate=120.0, duration=2.0,
            seed=3, workers=3, admission_capacity=8, strict=False,
            service_kwargs={"prefill": 10, "restock_interval": 0.02})
        report.assert_accounted()
        assert report.total("shed") + report.total("timed_out") > 0

    def test_mixed_workload_runs_all_services(self):
        reports = run_mixed_workload(duration=1.5, seed=3, workers=3)
        assert set(reports) == {"buffer", "pizza", "multicast"}
        for r in reports.values():
            assert r.in_flight == 0


# ============================================================ drivers
class FixedArrivals(ArrivalProcess):
    """A hand-written schedule of arrival offsets."""

    name = "fixed"

    def __init__(self, offsets):
        super().__init__(max(offsets) + 0.01, seed=0)
        self.offsets = tuple(offsets)

    def schedule(self):
        return self.offsets


#: how a scripted request fails (ops not listed here complete or block)
FAILURES = {
    "timeout": lambda: WaitTimeoutError("deadline passed"),
    "broken": lambda: BrokenMonitorError("poisoned"),
    "task": lambda: TaskError("task raised"),
    "boom": lambda: ValueError("boom"),
}


class ScriptedService(Service):
    """Replays a fixed op script; each op names how its request ends."""

    name = "scripted"
    supports_async = True

    def __init__(self, script, block_s=0.2):
        super().__init__()
        self._ops = iter(script)
        self.block_s = block_s

    def make_op(self, rng):
        return next(self._ops)

    def handle(self, op, deadline, cancel=None):
        if op == "hang":  # ignores its deadline: only the backstop ends it
            woke = threading.Event()
            cancel.add_callback(woke.set)
            woke.wait(5.0)
            cancel.raise_if_cancelled("hang")
        elif op == "block":
            time.sleep(self.block_s)
        elif op in FAILURES:
            raise FAILURES[op]()

    async def handle_async(self, op, deadline, cancel=None):
        if op == "hang":
            loop = asyncio.get_running_loop()
            woke = asyncio.Event()
            cancel.add_callback(lambda: loop.call_soon_threadsafe(woke.set))
            await asyncio.wait_for(woke.wait(), 5.0)
            cancel.raise_if_cancelled("hang")
        elif op == "block":
            await asyncio.sleep(self.block_s)
        elif op in FAILURES:
            raise FAILURES[op]()


def make_sim(driver, service, offsets, **kwargs):
    if driver == "threads":
        kwargs.setdefault("workers", 1)
        return LoadSimulator(service, FixedArrivals(offsets), **kwargs)
    return AsyncLoadSimulator(service, FixedArrivals(offsets), **kwargs)


def scripted(driver, script, spacing=0.002, **kwargs):
    """Run ``script`` (one op per arrival, ``spacing`` s apart)."""
    offsets = [i * spacing for i in range(len(script))]
    sim = make_sim(driver, ScriptedService(script), offsets,
                   diagnose=False, **kwargs)
    return sim.run()


@pytest.mark.parametrize("driver", ["threads", "asyncio"])
class TestDrivers:
    """Both drivers over one stub service: the core's accounting."""

    def test_accounting_identity_and_outcome_mapping(self, driver):
        script = ["ok", "timeout", "broken", "task", "boom", "ok"]
        report = scripted(driver, script)
        report.assert_accounted()
        assert report.offered == report.admitted == len(script)
        assert report.counts["all"] == {
            "completed": 2, "timed_out": 1, "failed_fast": 2,
            "shed": 0, "errors": 1,
        }
        assert report.group_recorder().count == 2
        assert sorted(report.diagnostics) == [
            "error: ValueError: boom",
            "failed_fast: BrokenMonitorError: poisoned",
            "failed_fast: TaskError: task raised",
        ]
        assert "backstop_cancels" not in report.extra

    def test_sheds_at_the_admission_bound(self, driver):
        sim = make_sim(driver, ScriptedService(["block"] * 8),
                       [i * 0.01 for i in range(8)],
                       admission_capacity=2, diagnose=False)
        report = sim.run()
        report.assert_accounted()
        # the thread driver's worker holds one request beyond the queue
        bound = 2 + getattr(sim, "workers", 0)
        assert 1 <= report.admitted <= bound
        assert report.total("shed") == 8 - report.admitted
        assert report.total("completed") == report.admitted

    def test_backstop_reclaims_a_request_that_ignores_its_deadline(
            self, driver):
        report = scripted(driver, ["hang", "ok"], deadline=0.05,
                          cancel_grace=0.05)
        report.assert_accounted()
        assert report.total("timed_out") == 1
        assert report.total("completed") == 1
        assert report.extra["backstop_cancels"] == 1

    def test_keeps_at_most_five_error_samples(self, driver):
        report = scripted(driver, ["boom"] * 8)
        report.assert_accounted()
        assert report.total("errors") == 8
        assert report.diagnostics == ["error: ValueError: boom"] * 5

    def test_rejects_zero_admission_capacity(self, driver):
        with pytest.raises(ValueError):
            make_sim(driver, ScriptedService([]), [0.0],
                     admission_capacity=0)


def test_ledger_survives_contended_workers():
    """Eight workers settle 400 requests under a tiny switch interval: a
    lost ledger update would break the accounting identity."""
    script = ["ok", "boom", "timeout", "ok"] * 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = scripted("threads", script, spacing=0.0, workers=8,
                          admission_capacity=len(script))
    finally:
        sys.setswitchinterval(interval)
    report.assert_accounted()
    assert report.admitted == len(script)
    assert report.counts["all"] == {
        "completed": 200, "timed_out": 100, "failed_fast": 0,
        "shed": 0, "errors": 100,
    }
    assert report.group_recorder().count == 200
    assert len(report.diagnostics) == 5


class _EmptyOnceQueue(queue.Queue):
    """Reports ``Empty`` on its first get, only after the request is
    queued and the arrival thread has moved on."""

    faked = False

    def get(self, block=True, timeout=None):
        if not self.faked:
            self.faked = True
            deadline = time.monotonic() + 5.0
            while self.empty() and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)  # the arrival thread sets arrivals_done
            raise queue.Empty
        return super().get(block, timeout)


def test_thread_driver_never_strands_the_last_admitted_request(monkeypatch):
    """A worker whose get() came up empty just as the final request was
    queued and arrivals ended must still serve that request."""
    monkeypatch.setattr(queue, "Queue", _EmptyOnceQueue)
    report = scripted("threads", ["ok"])
    assert report.offered == report.admitted == 1
    assert report.in_flight == 0
    assert report.total("completed") == 1


@monitor_compile
class Latch(Monitor):
    """``opened`` is only written by open(); hit() is busy-work."""

    def __init__(self):
        super().__init__()
        self.opened = False
        self.hits = 0

    def hit(self):
        self.hits += 1

    def open(self):
        self.opened = True

    def wait_open(self):
        self.wait_until(S.opened == True)  # noqa: E712 — DSL comparison


def _daemons() -> set:
    """Live resilience daemons, except the process-wide cancel scheduler."""
    return {t for t in threading.enumerate()
            if t.name.startswith("repro-")
            and t.name != "repro-cancel-scheduler"}


class LatchService(Service):
    """Every request hits the latch; nothing opens it."""

    name = "latch"
    supports_async = True

    def __init__(self):
        super().__init__()
        self.latch = Latch()
        self.daemons: set = set()  # daemon threads seen mid-run

    def make_op(self, rng):
        return "hit"

    def monitors(self):
        return [self.latch]

    def _hit(self):
        self.latch.hit()
        self.daemons |= _daemons()

    def handle(self, op, deadline, cancel=None):
        self._hit()

    async def handle_async(self, op, deadline, cancel=None):
        self._hit()


@pytest.mark.parametrize("driver", ["threads", "asyncio"])
def test_inspector_obligation_reaches_the_report(driver):
    svc = LatchService()
    parked = threading.Thread(target=svc.latch.wait_open, daemon=True)
    parked.start()
    deadline = time.monotonic() + 5.0
    while svc.latch.waiting_count() == 0:
        assert time.monotonic() < deadline, "waiter never parked"
        time.sleep(0.005)
    before = _daemons()
    try:
        # 250 section exits over 0.75 s: the inspector polls every 0.2 s,
        # baselines the waiter, and each later poll sees ~67 more exits
        # than the budget of 50 needs
        report = make_sim(driver, svc, [i * 0.003 for i in range(250)]).run()
    finally:
        svc.latch.open()
        parked.join(5.0)
    assert not parked.is_alive()
    report.assert_accounted()
    found = [d for d in report.diagnostics if "OBLIGATION:" in d]
    assert found, report.diagnostics
    assert "'opened': never written; candidate writers: Latch.open()" \
        in found[0]
    ran = svc.daemons - before
    assert [t.name for t in ran] == ["repro-inspector"]
    assert not any(t.is_alive() for t in ran)
