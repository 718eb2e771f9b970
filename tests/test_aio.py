"""The asyncio frontend (repro.aio): waiterless waiters, the bridge, and
the differential property suite.

The load-bearing test mirrors ``test_aot_signal.py``'s harness: the same
randomized park/write/abandon/poison schedules are driven with threaded
waiters, with async (waiterless) waiters, and with a mixed population —
through both the dependency-tracked relay and the exhaustive scan —
and the per-step wake sets must be identical.  That is the relay-invariance
argument for the frontend: an :class:`AsyncWaiter` occupies exactly a
threaded waiter's place in every search structure, so every signaling
discipline covers it with no special cases.

The real-loop half covers the bridge itself: ``LightFuture`` done
callbacks, ``as_asyncio`` result/failure/cancellation semantics (a done
future resolves in place), ``AsyncMonitorClient.wait_until`` (wake,
timeout, cancel token, poison, task cancellation), delegation via
``submit_nowait`` / ``call`` (in place on an idle monitor, queued behind
a held lock while the loop keeps ticking), ``BufferService.handle_async``'s
deadline on queued calls, awaitable composition, a preemption stress test
of threads and a loop sharing one queue, and — the cardinal rule, in debug
mode — that a full put/wait/take workload never blocks the event-loop
thread long enough to trip asyncio's slow-callback detector.
"""

from __future__ import annotations

import asyncio
import logging
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.active.futures import LightFuture
from repro.aio import (
    AsyncMonitorClient,
    as_asyncio,
    async_and,
    async_or,
    await_future,
)
from repro.compose import bind
from repro.core.expressions import S
from repro.core.monitor import Monitor
from repro.core.predicates import Predicate
from repro.core.waiter import AsyncWaiter, Waiter
from repro.loadsim.services import BufferService
from repro.preprocess import monitor_compile
from repro.problems.bounded_buffer import ActiveBoundedQueue
from repro.resilience import CancelToken
from repro.runtime.config import get_config
from repro.runtime.errors import (
    BrokenMonitorError,
    MonitorError,
    TaskError,
    WaitCancelledError,
    WaitTimeoutError,
)

NV = 4  #: shared variables v0..v3 in the differential board


@pytest.fixture(autouse=True)
def _restore_config():
    cfg = get_config()
    prior_track = cfg.track_dependencies
    yield
    cfg.track_dependencies = prior_track


@monitor_compile
class Board(Monitor):
    """One public writer per shared variable."""

    def __init__(self):
        super().__init__()
        self.v0 = 0
        self.v1 = 0
        self.v2 = 0
        self.v3 = 0

    def w0(self, val):
        self.v0 = val

    def w1(self, val):
        self.v1 = val

    def w2(self, val):
        self.v2 = val

    def w3(self, val):
        self.v3 = val

    def peek(self):
        return self.v0



# ------------------------------------------------ differential (hypothesis)


def _build_pred(spec) -> Predicate:
    kind = spec[0]
    if kind == "ne":
        return Predicate(getattr(S, f"v{spec[1]}") != 0)
    if kind == "diff":
        return Predicate(getattr(S, f"v{spec[1]}") > getattr(S, f"v{spec[2]}"))
    if kind == "eq":
        return Predicate(getattr(S, f"v{spec[1]}") == spec[2])
    if kind == "opaque":
        i, k = spec[1], spec[2]
        return Predicate(lambda m: getattr(m, f"v{i}") >= k + 1)
    assert kind == "poison"
    i = spec[1]
    # raises while v_i == 0: the signaler must poison the waiter and
    # deliver the failure to it (threaded: absorbed signal; async: the
    # poison argument of the wake action)
    return Predicate(lambda m: 1 // getattr(m, f"v{i}") >= 0)


def _oracle_true(waiter, monitor) -> bool:
    try:
        return bool(waiter.eval_fn(monitor))
    except BaseException:
        return True  # a raising predicate owns the next signal


def _drive(ops, signaling: str, kind: str) -> list[frozenset]:
    """Apply one schedule through one (signaling, waiter-population) lane;
    return the set of waiters woken after each step.

    ``signaling``: ``tracked`` exits through the dependency-filtered
    relay, ``exhaustive`` through the scan-everything relay
    (``track_dependencies = False``).  ``kind``:
    ``threaded`` parks only classic waiters, ``async`` only waiterless
    ones, ``mixed`` alternates — one relay call may then wake several
    async waiters *and* hand the baton to one threaded waiter.
    """
    cfg = get_config()
    cfg.track_dependencies = signaling != "exhaustive"
    m = Board()
    mgr = m._cond_mgr

    live: dict[int, Waiter] = {}
    delivered: list[int] = []
    log: list[frozenset] = []
    next_wid = 0

    def park(pred: Predicate) -> None:
        nonlocal next_wid
        wid = next_wid
        next_wid += 1
        use_async = kind == "async" or (kind == "mixed" and wid % 2 == 0)
        if use_async:
            w = AsyncWaiter(
                pred, lambda poison, wid=wid: delivered.append(wid))
            mgr.register_async(w)
        else:
            w = Waiter(pred, m._lock)
            mgr._register(w)
        live[wid] = w

    with m._lock:
        mgr.relay_signal()   # flush construction writes
        for op in ops:
            if op[0] == "park":
                park(_build_pred(op[1]))
            elif op[0] == "write":
                setattr(m, f"v{op[1]}", op[2])
            elif op[0] == "write2":
                setattr(m, f"v{op[1]}", op[3])
                setattr(m, f"v{op[2]}", op[3])
            elif op[0] == "abandon" and live:
                # the timeout/cancel shape for each population: threaded
                # waiters deregister under the lock, async waiters claim
                # through the flag and leave the unlink to the lazy reap
                wid = sorted(live)[op[1] % len(live)]
                w = live.pop(wid)
                if w.deliver is not None:
                    assert mgr.abandon_async(w)
                else:
                    mgr._deregister(w)
            woken: set[int] = set()
            for _ in range(len(live) + len(ops) + 2):
                mark = len(delivered)
                w = mgr.relay_signal()
                progressed = False
                for wid in delivered[mark:]:
                    woken.add(wid)
                    live.pop(wid)
                    progressed = True
                del delivered[mark:]
                if w is not None:
                    wid = next(k for k, v in live.items() if v is w)
                    woken.add(wid)
                    live.pop(wid)
                    mgr._deregister(w)
                    progressed = True
                if not progressed:
                    break
            else:  # pragma: no cover - signal livelock
                raise AssertionError("signaling never quiesced")
            for wid, w in live.items():
                assert not _oracle_true(w, m), (
                    f"waiter {wid} satisfied but not woken "
                    f"(signaling={signaling}, kind={kind}, step {op})"
                )
            log.append(frozenset(woken))
    return log


_pred_spec = st.one_of(
    st.tuples(st.just("ne"), st.integers(0, NV - 1)),
    st.tuples(st.just("diff"), st.integers(0, NV - 1), st.integers(0, NV - 1)),
    st.tuples(st.just("eq"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("opaque"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("poison"), st.integers(0, NV - 1)),
)

_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("write2"), st.integers(0, NV - 1),
              st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("park"), _pred_spec),
    st.tuples(st.just("abandon"), st.integers(0, 7)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_op, min_size=1, max_size=24))
def test_async_waiters_match_threaded_wake_sets(ops):
    """Waiterless waiters wake exactly when threaded waiters would, step
    for step, under both the tracked relay and the exhaustive scan."""
    base = _drive(ops, "tracked", "threaded")
    assert _drive(ops, "tracked", "async") == base
    assert _drive(ops, "tracked", "mixed") == base
    assert _drive(ops, "exhaustive", "async") == base
    assert _drive(ops, "exhaustive", "mixed") == base


def test_abandoned_async_waiter_is_reaped_by_next_lock_holder():
    m = Board()
    mgr = m._cond_mgr
    with m._lock:
        mgr.relay_signal()
        w = AsyncWaiter(Predicate(S.v0 != 0), lambda poison: None)
        mgr.register_async(w)
    assert mgr.abandon_async(w)          # lock-free claim
    assert not mgr.abandon_async(w)      # second claim loses
    with m._lock:
        mgr.relay_signal()               # reap runs at the top
        assert mgr._async_reap == []
        assert not mgr.dump_waiters()


# --------------------------------------------------------- future callbacks


def test_done_callback_after_completion_fires_immediately():
    fut = LightFuture()
    fut.set_result(7)
    seen = []
    fut.add_done_callback(seen.append)
    assert seen == [fut]


def test_done_callbacks_fire_exactly_once():
    fut = LightFuture()
    calls = []
    fut.add_done_callback(lambda f: calls.append("a"))
    fut.add_done_callback(lambda f: calls.append("b"))
    fut.set_result(1)
    fut.add_done_callback(lambda f: calls.append("late"))
    assert calls == ["a", "b", "late"]


def test_done_callbacks_race_completion():
    """Concurrent installers and one completer: every callback runs
    exactly once, whichever side of the state flip it landed on."""
    for _ in range(50):
        fut = LightFuture()
        hits = []
        barrier = threading.Barrier(3)

        def install(tag):
            barrier.wait()
            fut.add_done_callback(lambda f, tag=tag: hits.append(tag))

        def complete():
            barrier.wait()
            fut.set_result(0)

        threads = [
            threading.Thread(target=install, args=(0,)),
            threading.Thread(target=install, args=(1,)),
            threading.Thread(target=complete),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(hits) == [0, 1]


# ------------------------------------------------------------ the bridge


def test_as_asyncio_result_and_failure():
    async def main():
        ok = LightFuture()
        threading.Timer(0.01, ok.set_result, (42,)).start()
        assert await as_asyncio(ok) == 42

        bad = LightFuture()
        threading.Timer(0.01, bad.set_exception, (ValueError("boom"),)).start()
        with pytest.raises(TaskError) as exc_info:
            await as_asyncio(bad)
        assert isinstance(exc_info.value.__cause__, ValueError)

    asyncio.run(main())


def test_as_asyncio_cancellation_drops_late_completion():
    async def main():
        fut = LightFuture()
        afut = as_asyncio(fut)
        afut.cancel()
        fut.set_result(1)          # fires the callback; _apply must bail
        await asyncio.sleep(0.01)  # let the scheduled callback run
        assert afut.cancelled()

    asyncio.run(main())


def test_await_future_timeout():
    async def main():
        with pytest.raises(asyncio.TimeoutError):
            await await_future(LightFuture(), timeout=0.02)

    asyncio.run(main())


def test_as_asyncio_resolves_a_done_future_in_place(monkeypatch):
    async def main():
        loop = asyncio.get_running_loop()
        hops = []
        hop = loop.call_soon_threadsafe

        def counting(*args):
            hops.append(args)
            return hop(*args)

        monkeypatch.setattr(loop, "call_soon_threadsafe", counting)
        ok = LightFuture()
        ok.set_result(42)
        afut = as_asyncio(ok)
        assert afut.done() and afut.result() == 42
        bad = LightFuture()
        bad.set_exception(ValueError("boom"))
        afut = as_asyncio(bad)
        assert afut.done()
        with pytest.raises(TaskError) as exc_info:
            afut.result()
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert hops == []
        pending = LightFuture()     # a pending future still hops once
        afut = as_asyncio(pending)
        pending.set_result(7)
        assert await afut == 7 and len(hops) == 1

    asyncio.run(main())


# ------------------------------------------------------------- wait_until


class Gate(Monitor):
    def __init__(self):
        super().__init__()
        self.opened = 0

    def open(self):
        self.opened += 1


def test_wait_until_fast_path_when_already_true():
    async def main():
        gate = Gate()
        gate.open()
        await AsyncMonitorClient(gate).wait_until(S.opened > 0)

    asyncio.run(main())


def test_wait_until_woken_by_cross_thread_write():
    async def main():
        gate = Gate()
        client = AsyncMonitorClient(gate)
        threading.Timer(0.02, gate.open).start()
        await asyncio.wait_for(client.wait_until(S.opened > 0), timeout=2.0)

    asyncio.run(main())


def test_wait_until_timeout():
    async def main():
        gate = Gate()
        client = AsyncMonitorClient(gate)
        t0 = time.monotonic()
        with pytest.raises(WaitTimeoutError):
            await client.wait_until(S.opened > 3, timeout=0.05)
        assert time.monotonic() - t0 < 1.0
        assert gate.metrics.snapshot().get("wait_timeouts") == 1
        # the claim is lock-free; the unlink waits for the next holder
        gate.open()
        assert not gate.dump_waiters()

    asyncio.run(main())


def test_wait_until_cancel_token():
    async def main():
        gate = Gate()
        client = AsyncMonitorClient(gate)
        token = CancelToken()
        token.cancel_after(0.03, reason="drill")
        with pytest.raises(WaitCancelledError):
            await client.wait_until(S.opened > 0, cancel=token)

    asyncio.run(main())


def test_wait_until_precancelled_token():
    async def main():
        gate = Gate()
        token = CancelToken()
        token.cancel()
        with pytest.raises(WaitCancelledError):
            await AsyncMonitorClient(gate).wait_until(
                S.opened > 0, cancel=token)

    asyncio.run(main())


def test_wait_until_poisoned_monitor_propagates():
    async def main():
        gate = Gate()
        client = AsyncMonitorClient(gate)
        threading.Timer(
            0.02, gate.mark_broken, (RuntimeError("corrupt"),)).start()
        with pytest.raises(BrokenMonitorError):
            await asyncio.wait_for(
                client.wait_until(S.opened > 0), timeout=2.0)
        # and further registrations fail fast at entry
        with pytest.raises(BrokenMonitorError):
            await client.wait_until(S.opened > 0)

    asyncio.run(main())


class BaselineGate(Monitor):
    def __init__(self):
        super().__init__(signaling="baseline")
        self.opened = 0

    def open(self):
        self.opened += 1


def test_wait_until_on_a_baseline_monitor():
    """A baseline monitor's relay delivers async waiters too: one wakes
    after a write, and a second fails with BrokenMonitorError when the
    monitor is marked broken."""
    async def main():
        gate = BaselineGate()
        client = AsyncMonitorClient(gate)
        threading.Timer(0.02, gate.open).start()
        await asyncio.wait_for(client.wait_until(S.opened > 0), timeout=2.0)
        threading.Timer(
            0.02, gate.mark_broken, (RuntimeError("corrupt"),)).start()
        with pytest.raises(BrokenMonitorError):
            await asyncio.wait_for(
                client.wait_until(S.opened > 1), timeout=2.0)

    asyncio.run(main())


def test_cancelling_the_waiting_task_abandons_the_registration():
    async def main():
        gate = Gate()
        client = AsyncMonitorClient(gate)
        task = asyncio.ensure_future(client.wait_until(S.opened > 5))
        await asyncio.sleep(0.02)   # let it park
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        gate.open()                 # next lock holder reaps the claim
        assert not gate.dump_waiters()

    asyncio.run(main())


# ------------------------------------------------------------- delegation


def test_call_and_wait_until_roundtrip():
    queue = ActiveBoundedQueue(4, mode="async")
    try:
        async def main():
            client = AsyncMonitorClient(queue)
            await client.call("put", 11)
            await client.wait_until(S.count > 0, timeout=2.0)
            assert await client.call("take_async") == 11

        asyncio.run(main())
    finally:
        queue.shutdown()


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


def test_call_on_an_idle_monitor_is_done_on_return():
    queue = ActiveBoundedQueue(4, mode="async")
    try:
        async def main():
            client = AsyncMonitorClient(queue)
            put = client.call("put", 5)
            assert put.done()            # ran in place on the loop thread
            take = client.call("take_async")
            assert take.done() and await take == 5

        asyncio.run(main())
        assert queue.metrics.tasks_combined == 2
    finally:
        queue.shutdown()


def test_each_in_place_call_still_yields_to_the_loop():
    """A coroutine chaining calls that run in place gives the other tasks
    a turn at each await, as it did when every completion hopped through
    call_soon_threadsafe."""
    queue = ActiveBoundedQueue(16, mode="async")
    try:
        async def main():
            client = AsyncMonitorClient(queue)
            turns = []

            async def caller():
                for i in range(10):
                    await client.call("put", i)
                    turns.append("call")

            async def other():
                for _ in range(10):
                    turns.append("other")
                    await asyncio.sleep(0)

            await asyncio.gather(caller(), other())
            return turns

        turns = asyncio.run(main())
    finally:
        queue.shutdown()
    assert queue.metrics.tasks_combined == 10        # every put ran in place
    assert turns.count("call") == 10
    assert not any(a == b == "call" for a, b in zip(turns, turns[1:])), turns


def test_probe_keeps_ticking_while_a_call_waits_on_the_server():
    """Another thread holds the lock: the call is enqueued, and the loop
    keeps running its 20-ms probe until the server completes it."""
    queue = ActiveBoundedQueue(4, mode="async")
    holder, release = _hold_lock(queue)
    try:
        async def main():
            loop = asyncio.get_running_loop()
            client = AsyncMonitorClient(queue)
            drifts = []

            async def probe():
                expected = time.monotonic() + 0.02
                while True:
                    await asyncio.sleep(max(0.0, expected - time.monotonic()))
                    now = time.monotonic()
                    drifts.append(now - expected)
                    expected = now + 0.02

            ticker = asyncio.ensure_future(probe())
            call = client.call("put", 9)
            assert not call.done()       # queued behind the held lock
            loop.call_later(0.3, release.set)
            await asyncio.wait_for(call, 5.0)
            ticker.cancel()
            return drifts

        drifts = asyncio.run(main())
    finally:
        release.set()
        holder.join(5)
        queue.shutdown()
    assert len(drifts) >= 5, drifts
    assert max(drifts) < 0.25, drifts
    assert queue.count == 1


def test_call_backs_off_while_the_task_queue_is_full():
    cfg = get_config()
    saved = cfg.task_queue_capacity
    cfg.task_queue_capacity = 1
    try:
        queue = ActiveBoundedQueue(4, mode="async")
    finally:
        cfg.task_queue_capacity = saved
    holder, release = _hold_lock(queue)
    try:
        async def main():
            client = AsyncMonitorClient(queue)
            first = client.call("put", 1)     # queued behind the held lock
            second = client.call("put", 2)    # queue full: a backoff task
            assert not first.done() and isinstance(second, asyncio.Task)
            asyncio.get_running_loop().call_later(0.05, release.set)
            await asyncio.wait_for(asyncio.gather(first, second), 5.0)

        asyncio.run(main())
    finally:
        release.set()
        holder.join(5)
        queue.shutdown()
    assert queue.count == 2 and queue.items[:2] == [1, 2]


def test_buffer_service_awaits_an_in_place_call_without_wait_for(
        monkeypatch):
    service = BufferService(capacity=8, prefill=0)
    service.start()
    bounded = []
    wait_for = asyncio.wait_for

    def spy(aw, timeout):
        bounded.append(timeout)
        return wait_for(aw, timeout)

    monkeypatch.setattr(asyncio, "wait_for", spy)
    try:
        async def main():
            deadline = time.monotonic() + 2.0
            await service.handle_async(("put", 3), deadline)
            await service.handle_async(("take",), deadline)

        asyncio.run(main())
        assert bounded == []
        assert service.queue.count == 0
    finally:
        service.stop()


def test_buffer_service_bounds_a_queued_call_by_its_deadline():
    service = BufferService(capacity=8, prefill=0)
    service.start()
    holder, release = _hold_lock(service.queue)
    try:
        async def main():
            t0 = time.monotonic()
            with pytest.raises(WaitTimeoutError):
                await service.handle_async(("put", 3), t0 + 0.05)
            assert time.monotonic() - t0 < 1.0

        asyncio.run(main())
    finally:
        release.set()
        holder.join(5)
        service.stop()


def test_submit_nowait_rejects_non_delegated_methods():
    queue = ActiveBoundedQueue(4, mode="async")
    try:
        with pytest.raises(MonitorError):
            queue.submit_nowait("take")        # @synchronous, not delegated
        with pytest.raises(MonitorError):
            queue.submit_nowait("no_such_op")
    finally:
        queue.shutdown()


def test_async_and_or_composition():
    q1 = ActiveBoundedQueue(4, mode="async")
    q2 = ActiveBoundedQueue(4, mode="async")
    try:
        async def main():
            results = await async_and(bind(q1.put, 1), bind(q2.put, 2))
            assert results == [None, None]
            idx, value = await async_or(
                bind(q1.take_async), bind(q2.take_async))
            assert (idx, value) in ((0, 1), (1, 2))

        asyncio.run(main())
    finally:
        q1.shutdown()
        q2.shutdown()


# ------------------------------------------------------------ cardinal rule


def test_no_slow_callbacks_in_debug_mode(caplog):
    """Debug-mode loop over a full put/wait/take workload: asyncio's
    slow-callback detector (100 ms) must stay silent — the loop thread
    never blocks on a monitor lock or a future."""
    queue = ActiveBoundedQueue(8, mode="async")
    try:
        async def main():
            client = AsyncMonitorClient(queue)
            for i in range(100):
                await client.call("put", i)
                await client.wait_until(S.count > 0, timeout=2.0)
                assert await client.call("take_async") == i

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            asyncio.run(main(), debug=True)
    finally:
        queue.shutdown()
    slow = [r for r in caplog.records if "Executing" in r.getMessage()]
    assert slow == [], f"event loop blocked: {[r.getMessage() for r in slow]}"


def test_threads_and_a_loop_share_one_queue_under_preemption():
    """Stress: a producer thread, a consumer thread and an event loop that
    puts and takes through ``client.call`` share one queue, with the
    interpreter switching threads every 10 µs.  Nothing is lost or
    duplicated, and the final count adds up."""
    queue = ActiveBoundedQueue(1 << 16, mode="async")  # puts never pend
    produced = {"thread": [], "loop": []}
    consumed = {"thread": [], "loop": []}
    stop = threading.Event()

    def produce():
        i = 0
        while not stop.is_set():
            item = ("thread", i)
            queue.put(item).get(timeout=10)
            produced["thread"].append(item)
            i += 1

    def consume():
        while not stop.is_set():
            try:
                item = queue.take_until(deadline=time.monotonic() + 0.02)
            except WaitTimeoutError:
                continue
            consumed["thread"].append(item)

    async def main():
        client = AsyncMonitorClient(queue)

        async def loop_produce():
            i = 0
            while not stop.is_set():
                item = ("loop", i)
                await client.call("put", item)
                produced["loop"].append(item)
                i += 1
                await asyncio.sleep(0)

        async def loop_consume():
            while not stop.is_set():
                consumed["loop"].append(await client.call("take_async"))

        consumer = asyncio.ensure_future(loop_consume())
        await asyncio.gather(
            loop_produce(), asyncio.get_running_loop().run_in_executor(
                None, stop.wait))
        j = 0
        while not consumer.done():
            # a take_async still pending on an empty queue: feed it
            item = ("loop-tail", j)
            await client.call("put", item)
            produced["loop"].append(item)
            j += 1
            await asyncio.wait([consumer], timeout=0.01)
        await consumer

    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=produce, daemon=True),
               threading.Thread(target=consume, daemon=True)]
    try:
        for t in threads:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        threads.append(timer)
        asyncio.run(asyncio.wait_for(main(), 30.0))
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        queue.flush()
        count = queue.count
        remaining = [queue.take() for _ in range(count)]
    finally:
        stop.set()
        sys.setswitchinterval(prior)
        queue.shutdown()
    all_produced = produced["thread"] + produced["loop"]
    all_consumed = consumed["thread"] + consumed["loop"]
    assert produced["thread"] and produced["loop"] and consumed["loop"]
    assert count == len(all_produced) - len(all_consumed)
    assert Counter(all_consumed + remaining) == Counter(all_produced)
    assert len(set(all_produced)) == len(all_produced)
