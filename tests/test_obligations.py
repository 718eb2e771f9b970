"""Tests for the runtime signal-obligation check (Inspector obligations).

Deterministic via ``poll_once()``: the first poll baselines each parked
waiter's (monitor generation, per-variable write generations); later
polls escalate only when the monitor's generation advanced by at least
``generation_budget`` while every variable the waiter reads stayed at
its baseline generation — progress everywhere except where it matters.
"""

import threading
import time

import pytest

from repro.core import Monitor, S
from repro.preprocess import monitor_compile
from repro.resilience import Inspector, InspectorReport


@monitor_compile
class Cell(Monitor):
    """ready is only ever written by release(); tick() is busy-work."""

    def __init__(self):
        super().__init__()
        self.ready = False
        self.count = 0

    def tick(self):
        self.count += 1

    def release(self):
        self.ready = True

    def consume(self):
        self.wait_until(S.ready == True)  # noqa: E712 — DSL comparison


def park_consumer(cell, timeout=5.0):
    t = threading.Thread(target=cell.consume, daemon=True)
    t.start()
    deadline = time.monotonic() + timeout
    while cell.waiting_count() == 0:
        assert time.monotonic() < deadline, "consumer never parked"
        time.sleep(0.005)
    return t


def drain(cell, thread):
    cell.release()
    thread.join(5.0)
    assert not thread.is_alive()


class TestStaticSummary:
    def test_monitor_compile_exports_write_sites(self):
        sites = Cell._repro_write_sites
        assert sites["ready"] == ["release"]
        assert sites["count"] == ["tick"]


class TestTracker:
    def test_starved_waiter_produces_named_report(self):
        cell = Cell()
        t = park_consumer(cell)
        try:
            reports = []
            tracker = Inspector(
                [cell], generation_budget=5, on_report=reports.append
            )
            assert tracker.poll_once() is None  # baseline only
            for _ in range(10):
                cell.tick()  # progress, but never on `ready`
            report = tracker.poll_once()
            assert isinstance(report, InspectorReport)
            assert reports == [report]
            (ob,) = report.obligations
            assert ob.monitor_class == "Cell"
            assert ob.unwritten_vars == ["ready"]
            assert ob.var_deltas == {"ready": 0}
            assert ob.generations_outlived >= 5
            assert "ready" in ob.predicate  # compiled predicate source
            assert ob.candidate_sites == {"ready": ["Cell.release()"]}
            assert "Cell.release()" in report.describe()
        finally:
            drain(cell, t)

    def test_waiter_reported_once(self):
        cell = Cell()
        t = park_consumer(cell)
        try:
            tracker = Inspector([cell], generation_budget=2)
            tracker.poll_once()
            for _ in range(5):
                cell.tick()
            assert tracker.poll_once() is not None
            for _ in range(5):
                cell.tick()
            assert tracker.poll_once() is None  # no duplicate report
        finally:
            drain(cell, t)

    def test_write_to_read_variable_debits_obligation(self):
        """Any write generation movement on a read variable resets the
        claim — even if the predicate is still false afterwards."""

        @monitor_compile
        class Counter(Monitor):
            def __init__(self):
                super().__init__()
                self.n = 0

            def bump(self):
                self.n += 1

            def wait_ten(self):
                self.wait_until(S.n >= 10)

        c = Counter()
        t = threading.Thread(target=c.wait_ten, daemon=True)
        t.start()
        deadline = time.monotonic() + 5.0
        while c.waiting_count() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        tracker = Inspector([c], generation_budget=3)
        tracker.poll_once()
        for _ in range(5):
            c.bump()  # n: 0 → 5, predicate still false, but debited
        assert tracker.poll_once() is None
        for _ in range(5):
            c.bump()
        t.join(5.0)
        assert not t.is_alive()

    def test_departed_waiter_state_cleaned_up(self):
        cell = Cell()
        t = park_consumer(cell)
        tracker = Inspector([cell], generation_budget=5)
        tracker.poll_once()
        assert len(tracker._first_seen) == 1
        drain(cell, t)
        assert tracker.poll_once() is None
        assert tracker._first_seen == {}

    def test_idle_monitor_never_escalates(self):
        """No section exits → no generation movement → no report; the
        quiet case is a stall, not an unmet obligation."""
        cell = Cell()
        t = park_consumer(cell)
        try:
            tracker = Inspector([cell], generation_budget=1)
            tracker.poll_once()
            assert tracker.poll_once() is None
            assert tracker.poll_once() is None
        finally:
            drain(cell, t)

    def test_background_thread_mode(self):
        cell = Cell()
        t = park_consumer(cell)
        try:
            got = threading.Event()
            tracker = Inspector(
                [cell], generation_budget=3, poll_interval=0.01,
                on_report=lambda r: got.set(),
            )
            with tracker:
                deadline = time.monotonic() + 5.0
                while not got.is_set():
                    cell.tick()
                    assert time.monotonic() < deadline, "no report"
                    time.sleep(0.005)
            assert tracker.last_report is not None
        finally:
            drain(cell, t)

    def test_static_sites_parameter_merges(self):
        cell = Cell()
        t = park_consumer(cell)
        try:
            tracker = Inspector(
                [cell], generation_budget=2,
                on_report=lambda r: None,
                static_sites={"Cell": {"ready": ["coordinator.release_all()"]}},
            )
            tracker.poll_once()
            for _ in range(5):
                cell.tick()
            report = tracker.poll_once()
            (ob,) = report.obligations
            assert ob.candidate_sites["ready"] == [
                "Cell.release()", "coordinator.release_all()",
            ]
        finally:
            drain(cell, t)

    def test_watch_unwatch(self):
        cell = Cell()
        tracker = Inspector()
        tracker.watch(cell)
        tracker.watch(cell)  # idempotent
        assert len(tracker._monitors) == 1
        tracker.unwatch(cell)
        assert tracker._monitors == []

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            Inspector(generation_budget=0)

    def test_report_names_the_signal_path(self):
        """Cell is compiled with literal write sites, so its waiters are
        served by AOT direct signaling — the report must say so, so a
        starvation is triaged against the right wake path."""
        cell = Cell()
        t = park_consumer(cell)
        try:
            tracker = Inspector(
                [cell], generation_budget=2, on_report=lambda r: None
            )
            tracker.poll_once()
            for _ in range(5):
                cell.tick()
            (ob,) = tracker.poll_once().obligations
            assert ob.signal_path == "direct"
            assert "(path=direct)" in ob.describe()
        finally:
            drain(cell, t)

    def test_signal_path_defaults_to_relay(self):
        from repro.resilience.inspector import WaiterObligation

        ob = WaiterObligation(
            monitor_id=7, monitor_class="Bare", predicate="<opaque>",
            read_set=None, generations_outlived=9,
        )
        assert ob.signal_path == "relay"
        assert "(path=relay)" in ob.describe()

    def test_disabled_tracker_installs_no_hooks(self):
        """Creating (and even starting) a tracker must not touch the
        monitor: no attributes added, no wrappers installed — the hot
        path is byte-for-byte the un-tracked one."""
        cell = Cell()
        before = set(vars(cell))
        enter = type(cell)._monitor_enter
        tracker = Inspector([cell], generation_budget=5)
        tracker.poll_once()
        assert set(vars(cell)) == before
        assert type(cell)._monitor_enter is enter
