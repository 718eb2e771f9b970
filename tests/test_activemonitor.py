"""Integration tests for ActiveMonitor: delegation, rules, modes, failures."""

import threading
import time

import pytest

from repro.active import ActiveMonitor, Policy, asynchronous, synchronous
from repro.active.futures import LightFuture
from repro.runtime import get_config
from repro.runtime.errors import TaskError


class Box(ActiveMonitor):
    def __init__(self, capacity=8, **kw):
        super().__init__(**kw)
        self.items = []
        self.capacity = capacity

    @asynchronous(pre=lambda self, item: len(self.items) < self.capacity)
    def put(self, item):
        self.items.append(item)

    @synchronous(pre=lambda self: len(self.items) > 0)
    def take(self):
        return self.items.pop(0)

    @asynchronous()
    def explode(self):
        raise RuntimeError("kaboom")

    @synchronous()
    def size(self):
        return len(self.items)


@pytest.fixture
def box():
    b = Box()
    yield b
    b.shutdown()


class TestDelegation:
    def test_async_put_returns_future(self, box):
        future = box.put(1)
        assert isinstance(future, LightFuture)
        box.flush()
        assert box.size() == 1

    def test_sync_take_returns_value(self, box):
        box.put("x")
        assert box.take() == "x"

    def test_server_running(self, box):
        assert box.is_active
        assert box.server.alive

    def test_fifo_order_per_worker(self, box):
        for i in range(6):
            box.put(i)
        box.flush()
        assert box.items == list(range(6))

    def test_flush_waits_for_tasks(self, box):
        for i in range(5):
            box.put(i)
        box.flush()
        assert box.size() == 5


class TestRules:
    def test_rule2_one_outstanding_async_per_monitor(self):
        b = Box(capacity=1)
        try:
            submitted_third = threading.Event()
            consumed = []

            def consumer():
                # wait until the worker is provably blocked submitting put(3)
                # (i.e. put(2) is pending against a full buffer), then drain
                time.sleep(0.05)
                while not consumed:
                    if not submitted_third.is_set():
                        consumed.append(b.take())
                    time.sleep(0.01)

            t = threading.Thread(target=consumer, daemon=True)
            b.put(1)            # fills the buffer
            f2 = b.put(2)       # Rule 2 waits for put(1) (done) — then pends
            t.start()
            b.put(3)            # blocks on put(2)'s future until a take frees space
            submitted_third.set()
            assert f2.done()    # Rule 2 guaranteed put(2) completed first
            t.join(5)
            b.take()
            b.take()
        finally:
            b.shutdown()

    def test_rule3_cross_monitor_ordering(self):
        a, b = Box(), Box()
        try:
            order = []

            class Probe(Box):
                @asynchronous()
                def mark(self, tag):
                    order.append(tag)
                    time.sleep(0.05)

            p1, p2 = Probe(), Probe()
            try:
                p1.mark("first")
                p2.mark("second")   # Rule 3: waits for p1's task first
                p1.flush()
                p2.flush()
                assert order == ["first", "second"]
            finally:
                p1.shutdown()
                p2.shutdown()
        finally:
            a.shutdown()
            b.shutdown()


class TestModes:
    def test_delegate_mode_blocks_on_future(self):
        b = Box(mode="delegate")
        try:
            future = b.put(1)
            assert future.done()        # AMS: evaluated before returning
        finally:
            b.shutdown()

    def test_sync_mode_has_no_server(self):
        b = Box(mode="sync")
        assert not b.is_active
        future = b.put(1)
        assert future.done()
        assert b.take() == 1

    def test_disabled_asynchrony_falls_back(self):
        cfg = get_config()
        saved = cfg.asynchronous_enabled
        cfg.asynchronous_enabled = False
        try:
            b = Box()
            assert not b.is_active
            b.put(5)
            assert b.take() == 5
        finally:
            cfg.asynchronous_enabled = saved

    def test_server_cap_denial_falls_back(self):
        cfg = get_config()
        saved = cfg.max_server_threads
        cfg.max_server_threads = 0
        try:
            b = Box()
            assert not b.is_active
            b.put(1)
            assert b.take() == 1
        finally:
            cfg.max_server_threads = saved

    def test_shutdown_then_sync_operation(self, box):
        box.put(1)
        box.flush()
        box.shutdown()
        assert not box.is_active
        box.put(2)               # falls back to synchronous execution
        assert box.take() == 1
        assert box.take() == 2


class TestServerBatchExit:
    def test_pending_guard_does_not_spin_the_server(self):
        """The server's batch exit runs the exit hooks, the monitor's own
        kick among them.  Kicked from the server's own thread it would wake
        the server again at once, spinning it while a pending task's guard
        stays false."""
        b = Box(capacity=1)
        try:
            b.put(1)
            b.flush()
            server = b.server
            drain = server._drain_batch
            drains = [0]

            def counting(limit):
                drains[0] += 1
                return drain(limit)

            server._drain_batch = counting
            blocked = b.put(2)            # guard false: stays pending
            time.sleep(0.2)
            assert drains[0] < 10
            assert b.take() == 1          # the exit kicks the server
            blocked.get(timeout=5)
            assert b.take() == 2
        finally:
            b.shutdown()


class TestExceptions:
    def test_async_exception_delivered_via_future(self, box):
        future = box.explode()
        with pytest.raises(TaskError) as excinfo:
            future.get(timeout=5)
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_exception_logged_on_server(self, box):
        box.explode().exception() or time.sleep(0.05)
        box.flush()
        assert any(isinstance(e, RuntimeError) for e in box.server.exception_log)

    def test_stranded_tasks_fail_on_shutdown(self):
        b = Box(capacity=1)
        b.put(1)                      # executable
        b.flush()
        blocked = b.put(2)            # precondition false forever
        time.sleep(0.05)
        b.shutdown()
        with pytest.raises(TaskError):
            blocked.get(timeout=5)


class TestPolicies:
    def test_priority_policy_orders_pending_tasks(self):
        class PrioBox(ActiveMonitor):
            def __init__(self):
                super().__init__(policy=Policy.PRIORITY)
                self.gate = False
                self.order = []

            @asynchronous(pre=lambda self, tag, prio: self.gate, priority=0)
            def low(self, tag, prio):
                self.order.append(tag)

            @asynchronous(pre=lambda self, tag: self.gate, priority=9)
            def high(self, tag):
                self.order.append(tag)

            @synchronous()
            def open_gate(self):
                self.gate = True

        b = PrioBox()
        try:
            # distinct worker threads so Rule 2 doesn't serialize submissions
            t1 = threading.Thread(target=lambda: b.low("lo", 0), daemon=True)
            t1.start()
            t1.join(5)
            t2 = threading.Thread(target=lambda: b.high("hi"), daemon=True)
            t2.start()
            t2.join(5)
            time.sleep(0.05)
            b.open_gate()
            b.flush()
            assert b.order == ["hi", "lo"]
        finally:
            b.shutdown()
