"""Tests for repro.resilience: deadlines, cancellation, monitor poisoning,
server supervision, the inspector's stall check, and the chaos layer's own
mechanics.

The schedule-fuzz and liveness-under-fault tests live in
``test_resilience_chaos.py``; this file covers the per-feature semantics.
"""

import threading
import time
import types

import pytest

from repro.active import ActiveMonitor, asynchronous
from repro.active.activemonitor import _outstanding
from repro.core import Monitor, S, synchronized
from repro.multi import complex_pred, multisynch
from repro.preprocess import monitor_compile
from repro.resilience import (
    CancelToken,
    Inspector,
    ServerSupervisor,
    ThreadKilledFault,
    chaos,
    supervise,
)
from repro.runtime import get_config
from repro.runtime.errors import (
    BrokenMonitorError,
    TaskError,
    WaitCancelledError,
    WaitTimeoutError,
)


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with chaos disarmed and poisoning off."""
    cfg = get_config()
    saved = cfg.poison_on_exception
    chaos.reset()
    yield
    chaos.reset()
    cfg.poison_on_exception = saved


def _spawn(fn, *args):
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


class Gate(Monitor):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.open = False
        self.items = []

    def set_open(self):
        self.open = True

    def put(self, v):
        self.items.append(v)

    def wait_open(self, **kw):
        self.wait_until(S.open == True, **kw)  # noqa: E712

    def take(self, **kw):
        self.wait_until(S(lambda m: len(m.items), "n") > 0, **kw)
        return self.items.pop(0)

    def crash(self):
        raise RuntimeError("boom")


# =========================================================== timeouts/cancel
class TestCoreTimeouts:
    def test_timeout_raises_and_is_a_timeout_error(self):
        g = Gate()
        t0 = time.monotonic()
        with pytest.raises(WaitTimeoutError) as info:
            g.wait_open(timeout=0.15)
        elapsed = time.monotonic() - t0
        assert 0.1 <= elapsed < 2.0
        assert isinstance(info.value, TimeoutError)
        assert g.metrics.wait_timeouts == 1

    def test_timeout_in_baseline_signaling_mode(self):
        g = Gate(signaling="baseline")
        with pytest.raises(WaitTimeoutError):
            g.wait_open(timeout=0.1)

    def test_deadline_and_timeout_combine_to_the_earlier_bound(self):
        g = Gate()
        t0 = time.monotonic()
        with pytest.raises(WaitTimeoutError):
            g.wait_open(timeout=5.0, deadline=time.monotonic() + 0.1)
        assert time.monotonic() - t0 < 2.0

    def test_satisfied_wait_beats_its_deadline(self):
        g = Gate()
        done = []

        def waiter():
            g.wait_open(timeout=5.0)
            done.append(True)

        t = _spawn(waiter)
        time.sleep(0.05)
        g.set_open()
        t.join(2.0)
        assert done == [True]

    def test_cancel_pre_park_and_mid_wait(self):
        g = Gate()
        pre = CancelToken()
        pre.cancel("already over")
        with pytest.raises(WaitCancelledError) as info:
            g.wait_open(cancel=pre)
        assert info.value.reason == "already over"

        tok = CancelToken()
        errs = []

        def waiter():
            try:
                g.wait_open(cancel=tok)
            except WaitCancelledError as exc:
                errs.append(exc)

        t = _spawn(waiter)
        time.sleep(0.05)
        tok.cancel("shutdown")
        t.join(2.0)
        assert not t.is_alive()
        assert [e.reason for e in errs] == ["shutdown"]
        assert g.metrics.wait_cancels >= 1

    def test_timed_out_waiter_re_relays_the_baton(self, monkeypatch):
        """Relay invariance across a timeout (Prop. 2): an abandoning
        waiter may have absorbed the only signal, so the exit path must
        run the relay again after deregistering."""
        g = Gate()
        calls = []
        orig = g._cond_mgr.relay_signal

        def counting_relay(*args):
            calls.append(threading.get_ident())
            return orig(*args)

        monkeypatch.setattr(g._cond_mgr, "relay_signal", counting_relay)
        with pytest.raises(WaitTimeoutError):
            g.take(timeout=0.1)
        # once on entering the wait loop, once in the abandonment path
        assert len(calls) >= 2

    def test_straddling_timeout_never_loses_the_item(self):
        """Whether the put lands before or after the short waiter's
        timeout, exactly one waiter consumes the item and nobody hangs."""
        for round_no in range(8):
            g = Gate()
            consumed = []

            def taker(tag, timeout):
                try:
                    consumed.append((tag, g.take(timeout=timeout)))
                except WaitTimeoutError:
                    pass

            t1 = _spawn(taker, "impatient", 0.08)
            t2 = _spawn(taker, "patient", 2.0)
            time.sleep(0.04 + round_no * 0.012)   # straddle t1's timeout
            g.put("item")
            t1.join(5.0)
            t2.join(5.0)
            assert not t1.is_alive() and not t2.is_alive()
            assert [v for _, v in consumed] == ["item"]


class TestFutureTimeouts:
    def test_future_get_timeout_and_cancel(self):
        class Slow(ActiveMonitor):
            def __init__(self):
                super().__init__()
                self.release = threading.Event()

            @asynchronous()
            def task(self):
                self.release.wait(5.0)
                return "done"

        m = Slow()
        m.release.set()   # the body itself never blocks
        try:
            # hold the monitor lock from a foreign thread: combining fails
            # and the server loop cannot execute, so the future is pending
            with _HoldLock(m):
                fut = m.task()
                with pytest.raises(WaitTimeoutError):
                    fut.get(timeout=0.1)
                tok = CancelToken()
                canceller = threading.Timer(0.1, tok.cancel, args=("bail",))
                canceller.start()
                with pytest.raises(WaitCancelledError):
                    fut.get(cancel=tok)
                canceller.join()
            assert fut.get(timeout=5.0) == "done"
        finally:
            m.release.set()
            m.shutdown()


class TestMultisynchTimeouts:
    def _accounts(self):
        class Account(Monitor):
            def __init__(self):
                super().__init__()
                self.balance = 0

            def deposit(self, n):
                self.balance += n

        return Account(), Account()

    def test_global_wait_timeout_and_cancel(self):
        a, b = self._accounts()
        with pytest.raises(WaitTimeoutError):
            with multisynch(a, b) as ms:
                ms.wait_until(complex_pred(
                    [a, b], lambda: a.balance + b.balance >= 10),
                    timeout=0.15)
        tok = CancelToken()
        tok.cancel()
        with pytest.raises(WaitCancelledError):
            with multisynch(a, b) as ms:
                ms.wait_until(complex_pred(
                    [a, b], lambda: a.balance + b.balance >= 10),
                    cancel=tok)

    def test_global_wait_satisfied_under_deadline(self):
        a, b = self._accounts()
        done = []

        def waiter():
            with multisynch(a, b) as ms:
                ms.wait_until(complex_pred(
                    [a, b], lambda: a.balance + b.balance >= 10),
                    timeout=5.0)
                done.append(a.balance + b.balance)

        t = _spawn(waiter)
        time.sleep(0.05)
        a.deposit(4)
        b.deposit(6)
        t.join(3.0)
        assert done == [10]


# ================================================================ poisoning
class TestPoisoning:
    def test_escaping_exception_poisons_and_wakes_waiters(self):
        get_config().poison_on_exception = True
        g = Gate()
        errs = []

        def waiter():
            try:
                g.wait_open()
            except BrokenMonitorError as exc:
                errs.append(exc)

        t = _spawn(waiter)
        time.sleep(0.05)
        with pytest.raises(RuntimeError):
            g.crash()
        t.join(2.0)
        assert not t.is_alive()
        assert len(errs) == 1 and isinstance(errs[0].cause, RuntimeError)
        assert g.broken and isinstance(g.broken_cause, RuntimeError)
        # entry now fails fast
        with pytest.raises(BrokenMonitorError):
            g.put(1)
        with pytest.raises(BrokenMonitorError):
            with synchronized(g):
                pass
        # reset restores service
        cause = g.reset()
        assert isinstance(cause, RuntimeError)
        g.put(1)
        assert g.take(timeout=1.0) == 1

    def test_timeout_and_cancel_do_not_poison(self):
        get_config().poison_on_exception = True
        g = Gate()
        with pytest.raises(WaitTimeoutError):
            g.wait_open(timeout=0.05)
        tok = CancelToken()
        tok.cancel()
        with pytest.raises(WaitCancelledError):
            g.wait_open(cancel=tok)
        assert not g.broken

    def test_without_the_flag_exceptions_do_not_poison(self):
        g = Gate()
        with pytest.raises(RuntimeError):
            g.crash()
        assert not g.broken

    def test_mark_broken_is_explicit_and_idempotent(self):
        g = Gate()
        assert g.mark_broken(ValueError("manual")) is True
        assert g.mark_broken(ValueError("again")) is False
        assert isinstance(g.broken_cause, ValueError)
        assert str(g.broken_cause) == "manual"

    def test_task_body_failure_poisons_and_fails_queue_fast(self):
        get_config().poison_on_exception = True

        class Worker(ActiveMonitor):
            @asynchronous()
            def boom(self):
                raise ValueError("task body died")

            @asynchronous()
            def ok(self):
                return 1

        m = Worker()
        try:
            with pytest.raises(TaskError) as info:
                m.boom().get(timeout=2.0)
            assert isinstance(info.value.cause, ValueError)
            deadline = time.monotonic() + 2.0
            while not m.broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert m.broken
            with pytest.raises(BrokenMonitorError):
                m.ok()
            assert isinstance(m.reset(), ValueError)
            assert m.ok().get(timeout=2.0) == 1
        finally:
            m.reset()
            m.shutdown()

    def test_poisoned_monitor_wakes_global_waiters(self):
        class Cell(Monitor):
            def __init__(self):
                super().__init__()
                self.v = 0

        a, b = Cell(), Cell()
        errs = []

        def waiter():
            try:
                with multisynch(a, b) as ms:
                    ms.wait_until(complex_pred([a, b], lambda: a.v + b.v > 0))
            except BrokenMonitorError as exc:
                errs.append(exc)

        t = _spawn(waiter)
        time.sleep(0.05)
        a.mark_broken(RuntimeError("dead"))
        t.join(2.0)
        assert not t.is_alive()
        assert len(errs) == 1


# ============================================================== supervision
class _HoldLock:
    """Occupy a monitor's lock from a foreign thread so combining fails
    and submissions are forced through the server loop."""

    def __init__(self, monitor):
        self.monitor = monitor
        self._acquired = threading.Event()
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        with self.monitor._lock:
            self._acquired.set()
            self._release.wait(10.0)

    def __enter__(self):
        self._thread.start()
        assert self._acquired.wait(5.0)
        return self

    def __exit__(self, *exc):
        self._release.set()
        self._thread.join(5.0)


class Tick(ActiveMonitor):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.count = 0

    @asynchronous()
    def tick(self):
        self.count += 1
        return self.count


class TestSupervision:
    def test_killed_server_fails_fast_and_restarts(self):
        m = Tick()
        try:
            sup = ServerSupervisor(m.server, backoff_base=0.01)
            chaos.configure(seed=7, kill={"server_loop": 1})
            chaos.enable()
            with _HoldLock(m):
                fut = m.tick()
                time.sleep(0.1)   # server wakes and dies at the kill site
            chaos.disable()
            with pytest.raises(TaskError):
                fut.get(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while m.metrics.server_restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.restarts == 1
            assert [type(e).__name__ for e in sup.deaths] == [
                "ThreadKilledFault"]
            assert m.metrics.server_restarts == 1
            assert m.server.alive
            assert m.metrics.futures_failed_fast >= 1
            # the restarted server serves tasks again
            assert m.tick().get(timeout=5.0) >= 1
        finally:
            chaos.reset()
            m.shutdown()

    def test_supervisor_gives_up_after_budget(self):
        m = Tick()
        try:
            sup = ServerSupervisor(m.server, max_restarts=0,
                                   backoff_base=0.001)
            chaos.configure(seed=7, kill={"server_loop": 1})
            chaos.enable()
            with _HoldLock(m):
                fut = m.tick()
                time.sleep(0.1)   # server wakes and dies at the kill site
            chaos.disable()
            with pytest.raises(TaskError):
                fut.get(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while not sup.gave_up and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.gave_up and sup.restarts == 0
            # dead server: calls fall back to synchronous execution
            assert m.tick().get(timeout=5.0) >= 1
        finally:
            chaos.reset()
            m.shutdown()

    def test_supervise_helper_accepts_monitor_and_server(self):
        m = Tick()
        try:
            sup = supervise(m)
            assert isinstance(sup, ServerSupervisor)
            assert m.server.supervisor is sup
            sup2 = supervise(m.server)
            assert m.server.supervisor is sup2
        finally:
            m.shutdown()
        with pytest.raises(ValueError):
            supervise(object())

    def test_check_detects_a_corpse(self):
        m = Tick()
        try:
            sup = ServerSupervisor(m.server, backoff_base=0.001)
            server = m.server
            # simulate a silently-dead thread: mark alive with no live
            # thread behind it
            server._thread = threading.Thread(target=lambda: None)
            server._thread.start()
            server._thread.join()
            assert sup.check() is False   # corpse detected, death fielded
            deadline = time.monotonic() + 5.0
            while sup.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.restarts == 1
            assert sup.check() is True    # healthy after the restart
        finally:
            m.shutdown()


# ====================================================== stop()/flush() fixes
class Wedge(ActiveMonitor):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.release = threading.Event()

    @asynchronous()
    def block(self):
        self.release.wait(20.0)
        return "unwedged"


class TestStopAndFlushRegressions:
    def test_stop_raises_when_the_server_thread_is_wedged(self):
        m = Wedge()
        server = m.server
        with _HoldLock(m):
            fut = m.block()   # forced through the server loop
            time.sleep(0.1)
        # the server thread is now inside block() waiting on the event
        with pytest.raises(TaskError, match="failed to stop"):
            server.stop(timeout=0.2)
        assert not server.alive
        m.release.set()
        assert fut.get(timeout=5.0) == "unwedged"
        server._thread.join(5.0)
        m._server = None   # already stopped; skip shutdown's second stop

    def test_flush_timeout_keeps_rule2_bookkeeping(self):
        m = Wedge()
        try:
            with _HoldLock(m):
                m.block()
                time.sleep(0.1)
            with pytest.raises(WaitTimeoutError):
                m.flush(timeout=0.2)
            # the sentinel is recorded as this worker's outstanding task:
            # Rule 2 still orders the next submission behind it
            sentinel = _outstanding().get(m.monitor_id)
            assert sentinel is not None and not sentinel.done()
            m.release.set()
            sentinel.get(timeout=5.0)
            # flush after completion returns promptly (success path also
            # updates the outstanding slot)
            m.flush(timeout=5.0)
            assert _outstanding().get(m.monitor_id).done()
        finally:
            m.release.set()
            m.shutdown()


# ================================================================= watchdog
class TestWatchdog:
    def test_reports_a_stalled_waiter_and_recovers(self):
        g = Gate()
        reports = []
        t = _spawn(lambda: g.wait_open(timeout=10.0))
        time.sleep(0.05)
        dog = Inspector([g], quiet_period=0.2, poll_interval=0.05,
                        on_report=reports.append)
        with dog:
            deadline = time.monotonic() + 5.0
            while not reports and time.monotonic() < deadline:
                time.sleep(0.02)
            assert reports, "watchdog never reported the parked waiter"
            report = reports[0]
            text = report.describe()
            assert "Gate" in text
            assert report.stalls[0].waiters
            # progress clears the stall; no flood of duplicate reports
            n = len(reports)
            g.set_open()
            t.join(2.0)
            time.sleep(0.3)
            assert len(reports) <= n + 1
        assert not t.is_alive()

    def test_quiet_monitor_is_not_reported(self):
        g = Gate()
        reports = []
        dog = Inspector([g], quiet_period=0.1, poll_interval=0.03,
                        on_report=reports.append)
        with dog:
            time.sleep(0.3)
        assert reports == []

    def test_poll_once_snapshot(self):
        g = Gate()
        t = _spawn(lambda: g.wait_open(timeout=10.0))
        time.sleep(0.05)
        dog = Inspector([g], quiet_period=0.1)
        assert dog.poll_once() is None          # baseline observation
        time.sleep(0.2)
        report = dog.poll_once()
        assert report is not None and len(report.stalls) == 1
        g.set_open()
        t.join(2.0)


# ==================================================================== chaos
class TestChaosLayer:
    def test_disabled_by_default_and_reset(self):
        assert chaos.enabled is False
        chaos.configure(seed=1, delay_prob=1.0)
        chaos.enable()
        assert chaos.enabled
        chaos.reset()
        assert not chaos.enabled

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            chaos.configure(sites=["no_such_site"])
        with pytest.raises(ValueError):
            chaos.configure(kill={"no_such_site": 1})

    def test_seeded_injection_is_deterministic(self):
        def run():
            chaos.reset()
            chaos.configure(seed=42, delay_prob=0.5,
                            delay_range=(0.0, 0.0), switch_prob=0.3)
            chaos.enable()
            for _ in range(200):
                chaos.fire("relay")
            return chaos.stats()["injected"]

        assert run() == run()

    def test_kill_is_one_shot_at_the_configured_count(self):
        chaos.configure(seed=1, kill={"signal": 3})
        chaos.enable()
        chaos.fire("signal")
        chaos.fire("signal")
        with pytest.raises(ThreadKilledFault) as info:
            chaos.fire("signal")
        assert info.value.site == "signal"
        chaos.fire("signal")   # the kill does not re-arm

    def test_active_context_manager_disarms(self):
        with chaos.active(seed=3, delay_prob=1.0, delay_range=(0.0, 0.0)):
            assert chaos.enabled
            chaos.fire("queue_put")
        assert not chaos.enabled
        assert chaos.stats()["fired"]["queue_put"] == 1


# ================================================== compiled-monitor exits
@monitor_compile
class DirectShelf(Monitor):
    """Compiled monitor: its section exits run the one relay routine."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.stock = 0

    def refill(self, n):
        self.stock += n

    def take(self, **kw):
        self.wait_until(S.stock > 0, **kw)
        self.stock -= 1
        return self.stock

    def crash(self):
        raise RuntimeError("shelf burst")


class TestDirectSignalResilience:
    """Timeouts, cancellation, abandonment re-relay and poisoning must all
    behave identically when the waking side is a compiled monitor's
    section exit."""

    def test_direct_path_is_active(self):
        shelf = DirectShelf()
        done = []
        t = _spawn(lambda: done.append(shelf.take(timeout=5.0)))
        time.sleep(0.05)
        shelf.refill(1)
        t.join(2.0)
        assert done == [0]

    def test_timeout_deadline_cancel_on_direct_path(self):
        shelf = DirectShelf()
        with pytest.raises(WaitTimeoutError):
            shelf.take(timeout=0.1)
        with pytest.raises(WaitTimeoutError):
            shelf.take(timeout=5.0, deadline=time.monotonic() + 0.1)
        tok = CancelToken()
        errs = []

        def waiter():
            try:
                shelf.take(cancel=tok)
            except WaitCancelledError as exc:
                errs.append(exc)

        t = _spawn(waiter)
        time.sleep(0.05)
        tok.cancel("shutdown")
        t.join(2.0)
        assert not t.is_alive()
        assert [e.reason for e in errs] == ["shutdown"]
        assert not shelf.broken

    def test_straddling_timeout_on_direct_path_never_loses_stock(self):
        """Same abandonment-race guarantee as the relay version: whether
        the refill lands before or after the short waiter's timeout,
        exactly one waiter consumes the unit and nobody hangs."""
        for round_no in range(8):
            shelf = DirectShelf()
            consumed = []

            def taker(timeout):
                try:
                    consumed.append(shelf.take(timeout=timeout))
                except WaitTimeoutError:
                    pass

            t1 = _spawn(taker, 0.08)
            t2 = _spawn(taker, 2.0)
            time.sleep(0.04 + round_no * 0.012)   # straddle t1's timeout
            shelf.refill(1)
            t1.join(5.0)
            t2.join(5.0)
            assert not t1.is_alive() and not t2.is_alive()
            assert consumed == [0]

    def test_poisoning_wakes_direct_waiters(self):
        get_config().poison_on_exception = True
        shelf = DirectShelf()
        errs = []

        def waiter():
            try:
                shelf.take()
            except BrokenMonitorError as exc:
                errs.append(exc)

        t = _spawn(waiter)
        time.sleep(0.05)
        with pytest.raises(RuntimeError):
            shelf.crash()
        t.join(2.0)
        assert not t.is_alive()
        assert len(errs) == 1 and isinstance(errs[0].cause, RuntimeError)
        assert shelf.broken
        shelf.reset()
        shelf.refill(1)
        assert shelf.take(timeout=1.0) == 0


# ============================================================== cancel token
class TestCancelToken:
    def test_sticky_cancel_and_reason(self):
        tok = CancelToken()
        assert not tok.cancelled()
        tok.cancel("why")
        assert tok.cancelled() and tok.reason == "why"
        tok.cancel("later")      # first reason wins
        assert tok.reason == "why"
        with pytest.raises(WaitCancelledError):
            tok.raise_if_cancelled()

    def test_callbacks_fire_once_and_immediately_when_late(self):
        tok = CancelToken()
        calls = []
        tok.add_callback(lambda: calls.append("a"))
        tok.cancel()
        assert calls == ["a"]
        tok.add_callback(lambda: calls.append("b"))   # already cancelled
        assert calls == ["a", "b"]

    def test_remove_callback(self):
        tok = CancelToken()
        cb = lambda: (_ for _ in ()).throw(AssertionError)  # noqa: E731
        tok.add_callback(cb)
        tok.remove_callback(cb)
        tok.cancel()


# ==================================================== decorrelated backoff
class _FakeServer:
    """Just enough server surface for exercising ServerSupervisor policy."""

    def __init__(self):
        self._stop = False
        self.supervisor = None
        self.restarts_done = 0
        self.monitor = types.SimpleNamespace(
            _metrics=types.SimpleNamespace(add=lambda *a, **k: None))

    def submit(self, task):  # pragma: no cover - supervise() duck check only
        raise AssertionError("not a real server")

    def restart(self):
        self.restarts_done += 1
        return True


class TestBackoffJitter:
    def test_default_backoff_is_bounded_exponential(self):
        sup = ServerSupervisor(_FakeServer(), backoff_base=0.01,
                               backoff_factor=2.0, backoff_cap=0.05)
        delays = [sup.backoff_for(i) for i in range(6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05, 0.05]

    def test_jittered_backoff_stays_in_envelope_and_varies(self):
        sup = ServerSupervisor(_FakeServer(), jitter=True, seed=42,
                               backoff_base=0.01, backoff_cap=0.08)
        delays = [sup.backoff_for(i) for i in range(100)]
        assert all(0.01 <= d <= 0.08 for d in delays)
        # decorrelated draws actually spread out (not a constant sequence)
        assert len({round(d, 4) for d in delays}) > 10

    def test_jittered_backoff_is_deterministic_per_seed(self):
        a = ServerSupervisor(_FakeServer(), jitter=True, seed=7,
                             backoff_base=0.01, backoff_cap=0.5)
        b = ServerSupervisor(_FakeServer(), jitter=True, seed=7,
                             backoff_base=0.01, backoff_cap=0.5)
        c = ServerSupervisor(_FakeServer(), jitter=True, seed=8,
                             backoff_base=0.01, backoff_cap=0.5)
        seq_a = [a.backoff_for(i) for i in range(20)]
        seq_b = [b.backoff_for(i) for i in range(20)]
        seq_c = [c.backoff_for(i) for i in range(20)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_max_elapsed_budget_caps_total_restart_time(self):
        server = _FakeServer()
        sup = ServerSupervisor(server, max_restarts=100,
                               backoff_base=0.005, backoff_factor=1.0,
                               backoff_cap=1.0, max_elapsed=0.012)
        assert sup.handle_death(None) is True      # spends 0.005
        assert sup.handle_death(None) is True      # spends 0.010
        assert sup.handle_death(None) is False     # 0.015 > budget: give up
        assert sup.gave_up
        assert server.restarts_done == 2
        assert sup.restarts == 2
        assert sup.backoff_spent == pytest.approx(0.010)

    def test_zero_budget_means_no_restarts(self):
        server = _FakeServer()
        sup = ServerSupervisor(server, backoff_base=0.001, max_elapsed=0.0)
        assert sup.handle_death(None) is False
        assert sup.gave_up and server.restarts_done == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ServerSupervisor(_FakeServer(), max_elapsed=-1.0)

    def test_supervised_restart_under_chaos_with_jitter(self):
        """End-to-end: jittered supervisor still restarts a killed server."""
        m = Tick()
        try:
            sup = supervise(m, jitter=True, seed=3, max_restarts=3,
                            backoff_base=0.005, backoff_cap=0.02,
                            max_elapsed=5.0)
            m.tick().get(timeout=2.0)
            with chaos.active(seed=1, sites=("server_loop",),
                              kill={"server_loop": 1}):
                m.server._wake.set()
                deadline = time.monotonic() + 5.0
                while sup.restarts == 0 and time.monotonic() < deadline:
                    time.sleep(0.01)
            assert sup.restarts == 1 and not sup.gave_up
            assert sup.backoff_spent > 0.0
            assert m.tick().get(timeout=2.0) >= 1
        finally:
            chaos.reset()
            m.shutdown()


# ========================================================== cancel_after
class TestCancelAfter:
    def test_timer_fires_and_cancels_with_default_reason(self):
        tok = CancelToken()
        timer = tok.cancel_after(0.03)
        assert timer.armed
        deadline = time.monotonic() + 2.0
        while not tok.cancelled() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert tok.cancelled() and tok.reason == "deadline"

    def test_custom_reason(self):
        tok = CancelToken()
        tok.cancel_after(0.01, reason="too slow")
        deadline = time.monotonic() + 2.0
        while not tok.cancelled() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert tok.reason == "too slow"

    def test_disarmed_timer_never_fires(self):
        tok = CancelToken()
        timer = tok.cancel_after(0.03)
        timer.cancel()
        assert not timer.armed
        time.sleep(0.08)
        assert not tok.cancelled()

    def test_cancel_after_unparks_a_guarded_wait(self):
        gate = Gate()
        tok = CancelToken()
        errs = []
        t = _spawn(lambda: _guarded_wait(gate, tok, errs))
        time.sleep(0.03)
        tok.cancel_after(0.02)
        t.join(3.0)
        assert not t.is_alive()
        assert len(errs) == 1

    def test_many_threads_arm_and_disarm_concurrently(self):
        """Thread-safety: exactly the still-armed timers fire."""
        tokens = [CancelToken() for _ in range(48)]
        timers: list = [None] * len(tokens)

        def arm(i):
            timers[i] = tokens[i].cancel_after(0.02 + (i % 5) * 0.01)
            if i % 2 == 0:
                timers[i].cancel()

        threads = [_spawn(arm, i) for i in range(len(tokens))]
        for t in threads:
            t.join(2.0)
        deadline = time.monotonic() + 3.0
        while (any(not tok.cancelled() for i, tok in enumerate(tokens)
                   if i % 2 == 1) and time.monotonic() < deadline):
            time.sleep(0.01)
        for i, tok in enumerate(tokens):
            if i % 2 == 1:
                assert tok.cancelled(), f"armed timer {i} never fired"
        time.sleep(0.05)
        for i, tok in enumerate(tokens):
            if i % 2 == 0:
                assert not tok.cancelled(), f"disarmed timer {i} fired"

    def test_out_of_order_arming(self):
        slow, fast = CancelToken(), CancelToken()
        slow.cancel_after(0.2)
        fast.cancel_after(0.02)    # armed later, expires earlier
        deadline = time.monotonic() + 2.0
        while not fast.cancelled() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert fast.cancelled()
        assert not slow.cancelled()   # the long timer is still pending
        deadline = time.monotonic() + 2.0
        while not slow.cancelled() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert slow.cancelled()


def _guarded_wait(gate, tok, errs):
    try:
        gate.wait_open(cancel=tok)
    except WaitCancelledError as exc:
        errs.append(exc)


# ================================================== chaos per-site overrides
class TestChaosSiteProbs:
    def test_overrides_apply_only_to_their_site(self):
        chaos.configure(seed=5, delay_prob=0.0, switch_prob=0.0,
                        site_probs={"signal": {"delay_prob": 1.0,
                                               "delay_range": (0.0, 0.0)}})
        chaos.enable()
        for _ in range(10):
            chaos.fire("signal")
            chaos.fire("monitor_enter")
        stats = chaos.stats()
        assert stats["injected"]["delay"] == 10
        assert stats["fired"]["signal"] == 10
        assert stats["fired"]["monitor_enter"] == 10

    def test_site_probs_validated(self):
        with pytest.raises(ValueError):
            chaos.configure(site_probs={"nope": {"delay_prob": 1.0}})
        with pytest.raises(ValueError):
            chaos.configure(site_probs={"signal": {"bogus": 1.0}})

    def test_deterministic_under_seed_with_overrides(self):
        def run_once():
            chaos.reset()
            chaos.configure(seed=99, delay_prob=0.3, switch_prob=0.3,
                            delay_range=(0.0, 0.0),
                            site_probs={"relay": {"delay_prob": 0.9,
                                                  "switch_prob": 0.05}})
            chaos.enable()
            for i in range(200):
                chaos.fire("relay" if i % 3 == 0 else "queue_put")
            return chaos.stats()

        assert run_once() == run_once()

    def test_override_can_silence_one_site(self):
        chaos.configure(seed=5, delay_prob=1.0, delay_range=(0.0, 0.0),
                        site_probs={"queue_put": {"delay_prob": 0.0}})
        chaos.enable()
        for _ in range(10):
            chaos.fire("queue_put")
        assert chaos.stats()["injected"]["delay"] == 0
