"""AsyncMonitorClient: coroutine-side access to monitors and delegation.

One client per (monitor, loop) pair; any number of coroutines share it.
Everything here observes the frontend's cardinal rule — the event-loop
thread never *parks* on a monitor lock:

* :meth:`AsyncMonitorClient.wait_until` registers a waiterless
  :class:`~repro.core.waiter.AsyncWaiter` under the monitor lock taken
  with a **bounded trylock** (predicate evaluation plus list appends, no
  parking); when the lock is contended, the registration runs on an
  executor thread instead, and the coroutine awaits either way.
* Timeout and cancellation *abandon* the waiter from the loop (or
  canceller) thread without the monitor lock, through the claim flag —
  see :meth:`ConditionManager.abandon_async`.
* :meth:`AsyncMonitorClient.call` submits delegated methods with
  :meth:`ActiveMonitor.submit_nowait` and returns the bridged future.  On
  an idle monitor the task runs in place on the loop thread under a
  trylock (one critical section, the caller's own), so the future is
  already done; otherwise it is enqueued for the server.  When the task
  queue is full, ``call`` backs off with ``asyncio.sleep`` — awaitable
  backpressure instead of a parked thread.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional

from repro.active.activemonitor import ActiveMonitor
from repro.aio.futures import as_asyncio
from repro.compose.async_ops import submit_select_all, submit_select_one
from repro.core.monitor import Monitor
from repro.core.predicates import Predicate
from repro.core.waiter import AsyncWaiter
from repro.runtime.errors import (
    BrokenMonitorError,
    TaskQueueFull,
    WaitCancelledError,
    WaitTimeoutError,
)

#: initial / maximum backoff while the task queue rejects submissions
_BACKOFF_MIN_S = 0.0005
_BACKOFF_MAX_S = 0.05


class AsyncMonitorClient:
    """Awaitable frontend over one monitor (threaded backend unchanged)."""

    def __init__(self, monitor: Monitor,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self._monitor = monitor
        self._mgr = monitor._cond_mgr
        self._loop = loop

    @property
    def monitor(self) -> Monitor:
        return self._monitor

    def _running_loop(self) -> asyncio.AbstractEventLoop:
        return self._loop if self._loop is not None \
            else asyncio.get_running_loop()

    # ------------------------------------------------------------ wait_until
    async def wait_until(self, condition, *,
                         timeout: Optional[float] = None,
                         deadline: Optional[float] = None,
                         cancel=None) -> None:
        """Awaitable ``waituntil(P)`` — PR-4 semantics, no parked thread.

        Registers a waiterless waiter in the monitor's condition manager
        (dependency buckets, tag records — identical to a threaded
        ``wait_until``) whose wake action resolves an
        ``asyncio.Future`` via ``loop.call_soon_threadsafe``.  ``timeout``
        / ``deadline`` raise :class:`WaitTimeoutError`, a fired ``cancel``
        token raises :class:`WaitCancelledError`, and a poisoned monitor
        raises :class:`BrokenMonitorError` — exactly the threaded
        contract.  Cancelling the awaiting task abandons the waiter the
        same way a timeout does.

        One deliberate difference from the threaded form: a monitor method
        returns from ``wait_until`` still *holding* the lock, so the
        predicate holds when its code runs.  Here the predicate held under
        the lock at the instant of delivery, but the coroutine resumes
        lockless — pair the wait with guarded delegation
        (:meth:`call` on an ``@asynchronous`` method, whose precondition
        the server re-checks under the lock) for state-consuming actions.
        """
        loop = self._running_loop()
        monitor = self._monitor
        mgr = self._mgr
        predicate = condition if isinstance(condition, Predicate) \
            else Predicate(condition)

        if timeout is not None:
            t = time.monotonic() + timeout
            deadline = t if deadline is None else min(deadline, t)
        if cancel is not None and cancel.cancelled():
            raise WaitCancelledError(
                f"wait on {predicate!r} cancelled", cancel.reason)

        afut: "asyncio.Future[None]" = loop.create_future()

        def _resolve(poison: Optional[BaseException]) -> None:
            # always invoked on the loop thread
            if afut.done():
                return
            if poison is None:
                afut.set_result(None)
            else:
                afut.set_exception(poison)

        def _deliver(poison: Optional[BaseException]) -> None:
            # invoked by the signaler (server/worker thread) under the
            # monitor lock — or synchronously during registration
            try:
                loop.call_soon_threadsafe(_resolve, poison)
            except RuntimeError:
                pass  # loop closed while a signal was in flight

        def _register_locked() -> Optional[AsyncWaiter]:
            # caller holds the monitor lock; bounded work only
            broken = monitor._broken
            if broken is not None:
                raise BrokenMonitorError(f"{monitor!r} is broken", broken)
            ev = predicate._evaluator
            result = ev(monitor) if ev is not None \
                else predicate.fast_eval(monitor)
            monitor._metrics.predicate_evals += 1
            if result:
                return None
            # No baton pass is owed here: the registering context wrote
            # nothing (closed predicates are side-effect free), so no other
            # waiter's predicate can have flipped under this lock hold.
            waiter = AsyncWaiter(predicate, _deliver)
            mgr.register_async(waiter)
            return waiter

        def _register_blocking() -> Optional[AsyncWaiter]:
            # executor-thread fallback: may park on the lock, off-loop
            with monitor._lock:  # monlint: disable=W004 — registration runs off-loop here
                return _register_locked()

        # fast path: a bounded trylock from the loop thread (never parks);
        # under contention the registration hops to an executor thread
        lock = monitor._lock  # monlint: disable=W004 — trylock only on the loop thread
        if lock.acquire(blocking=False):
            try:
                waiter = _register_locked()
            finally:
                lock.release()
        else:
            waiter = await loop.run_in_executor(None, _register_blocking)

        if waiter is None:
            return  # predicate already true at registration

        timer = None
        if deadline is not None:
            def _on_timeout() -> None:
                if mgr.abandon_async(waiter):
                    monitor._metrics.bump("wait_timeouts")
                    _resolve(WaitTimeoutError(
                        f"wait on {predicate!r} timed out"))
            timer = loop.call_later(
                max(0.0, deadline - time.monotonic()), _on_timeout)

        cancel_cb = None
        if cancel is not None:
            def cancel_cb() -> None:
                # canceller thread: claim without the monitor lock, then
                # hop onto the loop to resolve
                if mgr.abandon_async(waiter):
                    monitor._metrics.bump("wait_cancels")
                    try:
                        loop.call_soon_threadsafe(
                            _resolve, WaitCancelledError(
                                f"wait on {predicate!r} cancelled",
                                cancel.reason))
                    except RuntimeError:
                        pass
            cancel.add_callback(cancel_cb)

        try:
            await afut
        finally:
            if timer is not None:
                timer.cancel()
            if cancel_cb is not None:
                cancel.remove_callback(cancel_cb)
            if not afut.done() or afut.cancelled():
                # the awaiting task was cancelled while parked: abandon the
                # registration exactly like a timeout (claim, lazy reap)
                mgr.abandon_async(waiter)

    # ------------------------------------------------------------ delegation
    def submit(self, method: str, /, *args, **kwargs) -> "asyncio.Future[Any]":
        """Submit an ``@asynchronous`` method; return an awaitable future.

        Nonblocking: raises :class:`TaskQueueFull` when the server's task
        queue is full (use :meth:`call` for awaitable backpressure).
        """
        lf = self._monitor.submit_nowait(method, *args, **kwargs)
        return as_asyncio(lf, self._running_loop())

    def call(self, method: str, /, *args, **kwargs) -> "asyncio.Future[Any]":
        """Submit a delegated ``@asynchronous`` method; return an awaitable
        future of its result.

        The future is the one :meth:`submit` bridges: already done when
        the task ran in place, and then awaiting it only yields to the
        loop once, so ``await client.call(...)`` costs no extra task.
        Only when the task queue is full does ``call`` return a task
        instead, one that backs off with ``asyncio.sleep`` and resubmits,
        so queue pressure suspends the coroutine instead of any thread.
        Bound the total wait with ``asyncio.wait_for`` at the call site.
        ``call`` is not a coroutine function: pass its result to
        ``asyncio.ensure_future``, not ``asyncio.create_task``.  Errors
        found at submission (a poisoned monitor, an unknown method) raise
        from ``call`` itself.
        """
        monitor = self._monitor
        if not isinstance(monitor, ActiveMonitor):
            raise TypeError(f"call() needs an ActiveMonitor, got {monitor!r}")
        try:
            return self.submit(method, *args, **kwargs)
        except TaskQueueFull:
            return self._running_loop().create_task(
                self._call_after_backoff(method, args, kwargs))

    async def _call_after_backoff(self, method: str, args: tuple,
                                  kwargs: dict) -> Any:
        delay = _BACKOFF_MIN_S
        while True:
            await asyncio.sleep(delay)
            delay = min(delay * 2.0, _BACKOFF_MAX_S)
            try:
                future = self.submit(method, *args, **kwargs)
            except TaskQueueFull:
                continue
            return await future


# ---------------------------------------------------------------- composition
async def async_and(*operands) -> list:
    """Awaitable §5.3 AND: delegate every operand, await all results.

    Submission runs on an executor thread (the blocking submit path may
    combine — execute task bodies on the submitting thread — which must
    never happen on the loop); the per-operand futures resolve on the loop.
    """
    loop = asyncio.get_running_loop()
    futures = await loop.run_in_executor(
        None, submit_select_all, list(operands))
    return list(await asyncio.gather(
        *(as_asyncio(f, loop) for f in futures)))


async def async_or(*operands) -> tuple:
    """Awaitable §5.3.1 OR: exactly one operand executes; awaits
    ``(index, result)`` from the shared winner future."""
    loop = asyncio.get_running_loop()
    winner = await loop.run_in_executor(
        None, submit_select_one, list(operands))
    return await as_asyncio(winner, loop)
