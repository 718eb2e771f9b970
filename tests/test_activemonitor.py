"""Integration tests for ActiveMonitor: delegation, rules, modes, failures."""

import threading
import time

import pytest

from repro.active import ActiveMonitor, Policy, asynchronous, synchronous
from repro.active import server as server_module
from repro.active.futures import LightFuture
from repro.active.scqueue import SingleConsumerBoundedQueue
from repro.active.tasks import MonitorTask
from repro.problems.bounded_buffer import ActiveBoundedQueue
from repro.runtime import get_config
from repro.runtime.errors import BrokenMonitorError, TaskError


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


    def test_a_combined_put_makes_one_pass(self, monkeypatch):
        """A combiner that has run its task and finds nothing queued or
        pending stops there: one ``drain_to`` and one ``select_task`` per
        combined put, not a second pass over an empty queue."""
        calls = {"drain_to": 0, "select_task": 0}
        drain_to = SingleConsumerBoundedQueue.drain_to
        select_task = server_module.select_task

        def counting_drain_to(queue, out, limit=None):
            calls["drain_to"] += 1
            return drain_to(queue, out, limit)

        def counting_select_task(policy, candidates, monitor):
            calls["select_task"] += 1
            return select_task(policy, candidates, monitor)

        monkeypatch.setattr(SingleConsumerBoundedQueue, "drain_to",
                            counting_drain_to)
        monkeypatch.setattr(server_module, "select_task", counting_select_task)
        q = ActiveBoundedQueue(16, mode="async")
        try:
            for i in range(500):
                q.put(i).get(timeout=5)      # the server is idle: combined
                assert q.take() == i         # its exit finds nothing to kick
            assert q.metrics.tasks_combined == 500
            assert calls == {"drain_to": 500, "select_task": 500}
        finally:
            q.shutdown()


class Recorder(ActiveMonitor):
    """Records which thread ran each body: ``ran`` holds (name, ident)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.open = True
        self.ran = []
        self.attempts = 0

    def _mark(self, name):
        self.ran.append((name, threading.get_ident()))

    @asynchronous(pre=lambda self, item: self.open)
    def put(self, item):
        self._mark("put")
        return item

    @asynchronous()
    def note(self, tag):
        self._mark("note")
        return tag

    @asynchronous()
    def explode(self):
        self._mark("explode")
        raise RuntimeError("kaboom")

    @asynchronous(pre=lambda self: 1 / 0 > 0)
    def bad_guard(self):
        self._mark("bad_guard")

    @asynchronous(retries=1)
    def flaky(self):
        self._mark("flaky")
        self.attempts += 1
        if self.attempts == 1:
            raise RuntimeError("first attempt")
        return "second attempt"

    @synchronous()
    def set_open(self, flag):
        self.open = flag


@pytest.fixture
def recorder():
    m = Recorder()
    yield m
    m.shutdown()


def _hold_lock(monitor):
    """Hold ``monitor``'s lock on another thread until the event is set."""
    held, release = threading.Event(), threading.Event()

    def hold():
        with monitor._lock:  # monlint: disable=W004 — forces the queued path
            held.set()
            release.wait(5)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(5)
    return holder, release


class TestSubmitNowaitInPlace:
    """``submit_nowait`` runs a lone task on the submitting thread when the
    monitor is idle, and otherwise enqueues it for the server."""

    def test_idle_monitor_runs_the_body_on_the_submitter(self, recorder):
        metrics = recorder.metrics
        combined, submitted = metrics.tasks_combined, metrics.tasks_submitted
        future = recorder.submit_nowait("put", 7)
        assert future.done() and future.get() == 7
        assert recorder.ran == [("put", threading.get_ident())]
        assert metrics.tasks_combined - combined == 1
        assert metrics.tasks_submitted - submitted == 1

    def test_falls_back_when_another_thread_holds_the_lock(self, recorder):
        holder, release = _hold_lock(recorder)
        try:
            future = recorder.submit_nowait("put", 1)
            assert not future.done()     # enqueued: the server needs the lock
        finally:
            release.set()
            holder.join(5)
        assert future.get(timeout=5) == 1
        assert recorder.ran == [("put", recorder.server._ident)]

    def test_falls_back_behind_a_queued_task(self, recorder):
        server = recorder.server
        queued = MonitorTask.acquire(
            lambda: recorder._mark("queued"), (), {}, name="queued")
        queued_future = queued.future
        assert server.queue.try_put(queued)   # queued, server not woken
        future = recorder.submit_nowait("note", "x")
        assert future.get(timeout=5) == "x"
        queued_future.get(timeout=5)
        assert recorder.ran == [("queued", server._ident),
                                ("note", server._ident)]

    def test_falls_back_on_a_false_guard_and_behind_a_pending_task(
            self, recorder):
        server = recorder.server
        recorder.set_open(False)
        parked = recorder.submit_nowait("put", 1)      # guard false
        deadline = time.monotonic() + 5
        while not server.pending and time.monotonic() < deadline:
            time.sleep(0.002)
        assert server.pending and not parked.done()
        noted = recorder.submit_nowait("note", "y")    # a task is pending
        assert noted.get(timeout=5) == "y"
        recorder.set_open(True)                        # the exit kicks
        assert parked.get(timeout=5) == 1
        assert recorder.ran == [("note", server._ident),
                                ("put", server._ident)]

    def test_combining_batch_zero_turns_it_off(self, recorder):
        cfg = get_config()
        saved = cfg.combining_batch
        cfg.combining_batch = 0
        try:
            combined = recorder.metrics.tasks_combined
            assert recorder.submit_nowait("put", 2).get(timeout=5) == 2
        finally:
            cfg.combining_batch = saved
        assert recorder.ran == [("put", recorder.server._ident)]
        assert recorder.metrics.tasks_combined == combined

    def test_failure_is_logged_and_handled_as_on_the_server(self, recorder):
        seen = []
        recorder.server.exception_handler = \
            lambda task, error: seen.append((task.name, error))
        future = recorder.submit_nowait("explode")
        assert future.done()
        with pytest.raises(TaskError) as info:
            future.get()
        error = info.value.cause
        assert isinstance(error, RuntimeError)
        assert recorder.server.exception_log == [error]
        assert seen == [("explode", error)]
        assert recorder.ran == [("explode", threading.get_ident())]
        assert not recorder.broken and recorder.server.alive

    def test_raising_guard_fails_only_its_task(self, recorder):
        future = recorder.submit_nowait("bad_guard")
        assert future.done()
        with pytest.raises(TaskError) as info:
            future.get()
        assert isinstance(info.value.cause, ZeroDivisionError)
        assert recorder.server.exception_log == [info.value.cause]
        assert recorder.ran == []                   # the body never ran
        assert recorder.submit_nowait("note", 1).get() == 1

    def test_poisons_under_poison_on_exception(self, recorder):
        cfg = get_config()
        saved = cfg.poison_on_exception
        cfg.poison_on_exception = True
        try:
            future = recorder.submit_nowait("explode")
        finally:
            cfg.poison_on_exception = saved
        assert future.done() and recorder.broken
        assert isinstance(recorder.broken_cause, RuntimeError)
        with pytest.raises(BrokenMonitorError):
            recorder.submit_nowait("note", 1)

    def test_a_retry_runs_on_the_server_and_completes_the_same_future(
            self, recorder):
        future = recorder.submit_nowait("flaky")
        assert future.get(timeout=5) == "second attempt"
        assert recorder.ran == [("flaky", threading.get_ident()),
                                ("flaky", recorder.server._ident)]
        assert len(recorder.server.exception_log) == 1


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


class _Predicates:
    """Counts Predicate constructions while installed (monkeypatch)."""

    def __init__(self, monkeypatch):
        from repro.core.predicates import Predicate

        self.built = 0
        init = Predicate.__init__

        def counting(predicate, condition):
            self.built += 1
            init(predicate, condition)

        monkeypatch.setattr(Predicate, "__init__", counting)


class KwBox(ActiveMonitor):
    """Guards that read keyword-only arguments."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.items = []

    @asynchronous(pre=lambda self, item, *, room: len(self.items) < room)
    def put(self, item, *, room):
        self.items.append(item)

    @synchronous(pre=lambda self, *, at_least: len(self.items) >= at_least)
    def take_many(self, *, at_least):
        taken, self.items = self.items[:at_least], self.items[at_least:]
        return taken


class TestGuardsInPlace:
    def test_true_guards_build_no_predicate(self, box, monkeypatch):
        predicates = _Predicates(monkeypatch)
        for i in range(1000):
            box.put(i).get(timeout=5)    # guard true: combined or served
            assert box.take() == i       # guard true: evaluated in place
        assert predicates.built == 0

    def test_a_parked_take_builds_one_predicate(self, box, monkeypatch):
        predicates = _Predicates(monkeypatch)
        taken = []
        t = threading.Thread(target=lambda: taken.append(box.take()),
                             daemon=True)
        t.start()
        deadline = time.monotonic() + 5
        while box.metrics.waits < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert box.metrics.waits == 1 and predicates.built == 1
        box.put("x")
        t.join(5)
        assert not t.is_alive()
        assert taken == ["x"] and predicates.built == 1

    def test_keyword_arguments_reach_the_guard(self):
        b = KwBox()
        try:
            b.put("a", room=1).get(timeout=5)
            b.put("b", room=3).get(timeout=5)
            blocked = b.put("c", room=2)          # 2 < 2: stays pending
            time.sleep(0.05)
            assert not blocked.done()
            assert b.take_many(at_least=2) == ["a", "b"]
            blocked.get(timeout=5)
            b.submit_nowait("put", "d", room=5).get(timeout=5)
            parked = b.submit_nowait("put", "e", room=2)
            time.sleep(0.05)
            assert not parked.done()
            assert b.take_many(at_least=2) == ["c", "d"]
            parked.get(timeout=5)
            assert b.take_many(at_least=1) == ["e"]
        finally:
            b.shutdown()

    def test_keyword_arguments_reach_a_parked_guard(self):
        b = KwBox(mode="sync")
        taken = []
        t = threading.Thread(
            target=lambda: taken.append(b.take_many(at_least=2)), daemon=True)
        t.start()
        b.put(1, room=5)
        time.sleep(0.05)
        assert taken == []                        # 1 item: guard still false
        b.put(2, room=5)
        t.join(5)
        assert not t.is_alive() and taken == [[1, 2]]

    def test_true_sync_guards_count_one_evaluation_each(self, box):
        for i in range(box.capacity):
            box.put(i).get(timeout=5)
        before = box.metrics.predicate_evals
        for i in range(box.capacity):
            assert box.take() == i
        assert box.metrics.predicate_evals - before == box.capacity

    def test_runtime_linter_still_probes_sync_guards(self):
        from repro.analysis import runtime as monlint_runtime
        from repro.runtime.errors import PredicateSideEffectError

        class Sneaky(ActiveMonitor):
            def __init__(self):
                super().__init__(mode="sync")
                self.probe = 0

            @synchronous(pre=lambda self: setattr(self, "probe", object()) or True)
            def touch(self):
                return "ran"

        m = Sneaky()
        assert m.touch() == "ran"                 # checker off: not probed
        try:
            with monlint_runtime.checking():
                with pytest.raises(PredicateSideEffectError):
                    m.touch()
        finally:
            monlint_runtime.reset()


class RaisingGuard(ActiveMonitor):
    """``put(0)``'s guard raises ZeroDivisionError."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.items = []
        self.guard_threads = []

    def _guard(self, v):
        self.guard_threads.append(threading.current_thread().name)
        return 1 / v > 0

    @asynchronous(pre=lambda self, v: self._guard(v))
    def put(self, v):
        self.items.append(v)


class TestRaisingGuard:
    def _check_failed_only_its_task(self, m, failed):
        with pytest.raises(TaskError) as info:
            failed.get(timeout=5)
        assert isinstance(info.value.cause, ZeroDivisionError)
        assert m.put(1).get(timeout=5) is None     # the server carries on
        assert m.items == [1]
        assert m.server.alive and m.server.death_log == []
        assert any(isinstance(e, ZeroDivisionError)
                   for e in m.server.exception_log)

    def test_on_the_combining_path(self):
        m = RaisingGuard()
        try:
            failed = m.put(0)          # the submitter combines: no raise here
            self._check_failed_only_its_task(m, failed)
        finally:
            m.shutdown()

    def test_on_the_server_path(self):
        m = RaisingGuard()
        held, release = threading.Event(), threading.Event()

        def hold():
            with m._lock:  # monlint: disable=W004 — forces the server path
                held.set()
                release.wait(5)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        try:
            assert held.wait(5)
            failed = m.put(0)          # lock taken: combining fails
            release.set()
            holder.join(5)
            self._check_failed_only_its_task(m, failed)
            assert m.guard_threads[0].startswith("monitor-server-")
        finally:
            release.set()
            m.shutdown()


class TestStopRacesStart:
    """A shutdown that lands while ``start()`` runs, as when a supervisor
    restarts a dead server during ``shutdown()``: the server ends stopped,
    gives its registry slot back, and ``stop()`` never joins a thread that
    was not started."""

    def test_stop_before_the_slot_is_granted(self, monkeypatch):
        m = Box()
        server = server_module.MonitorServer(m)
        registry = server_module.registry
        real_register = registry.try_register
        granted = []

        def stop_then_register(s):
            s.stop()
            granted.append(real_register(s))
            return granted[-1]

        try:
            with monkeypatch.context() as mp:
                mp.setattr(registry, "try_register", stop_then_register)
                started = server.start()
            assert granted == [True]
            assert started is False
            assert not server.alive
            assert server not in registry._servers
        finally:
            server.stop()
            m.shutdown()

    def test_stop_while_the_thread_is_starting(self, monkeypatch):
        m = Box()
        server = server_module.MonitorServer(m)
        errors = []

        def stop():
            try:
                server.stop()
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        stopper = threading.Thread(target=stop, daemon=True)
        real_start = threading.Thread.start

        def start_after_a_stop(thread):
            if thread.name.startswith("monitor-server-"):
                real_start(stopper)
                stopper.join(0.2)   # a stop() that does not wait ends here
            real_start(thread)

        try:
            with monkeypatch.context() as mp:
                mp.setattr(threading.Thread, "start", start_after_a_stop)
                assert server.start() is True
            stopper.join(5)
            assert not stopper.is_alive()
            assert errors == []
            assert not server.alive
            assert server not in server_module.registry._servers
            assert not server._thread.is_alive()
        finally:
            m.shutdown()
