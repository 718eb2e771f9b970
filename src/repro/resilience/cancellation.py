"""Cooperative cancellation for monitor waits and future evaluation.

A :class:`CancelToken` is the cancellation analogue of the paper's closure
property (Def. 2): because any thread can re-evaluate a parked predicate,
a waiter can always be *deregistered* without losing a relay signal — the
abandoning thread re-runs the relay rule before unparking, handing any
baton it held to another satisfied waiter.  That is what makes external
cancellation safe here, where it would be a correctness hazard for
hand-signaled condition variables.

Usage::

    token = CancelToken()
    ...
    self.wait_until(S.count > 0, cancel=token)   # raises WaitCancelledError
    future.get(cancel=token)                     # when token.cancel() fires

Tokens are multi-use and thread-safe: one token may guard many concurrent
waits across many monitors; ``cancel()`` wakes all of them.  Cancellation
is sticky — once cancelled, every subsequent guarded wait fails immediately
(build a new token to start a new cancellation scope).
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Any, Callable, Optional

from repro.runtime.atomics import AtomicCounter
from repro.runtime.errors import WaitCancelledError

__all__ = ["CancelTimer", "CancelToken"]


class CancelToken:
    """A sticky, thread-safe cancellation flag with wakeup callbacks.

    Waiters register a callback (that wakes their parked thread) before
    parking; ``cancel()`` runs every registered callback so no wait sleeps
    through its own cancellation.  Callbacks run on the *cancelling*
    thread and must therefore be cheap and non-blocking.  The framework's
    own wakers are the parked thread's bare
    :meth:`~repro.runtime.parking.GilParker.unpark`, which takes no lock:
    ``cancel()`` never waits for a monitor some other thread holds (the
    shared ``repro-cancel-scheduler`` thread fires every ``cancel_after``
    timer in the process), and the woken thread re-checks the token
    itself.  An unpark that arrives after its wait already returned leaves
    a stale permit, which the thread's next park absorbs.
    """

    __slots__ = ("_lock", "_cancelled", "_reason", "_callbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason: Any = None
        self._callbacks: list[Callable[[], None]] = []

    # ------------------------------------------------------------- cancelling
    def cancel(self, reason: Any = None) -> bool:
        """Cancel the token; returns False when it was already cancelled.

        Every registered wakeup callback runs exactly once (on this
        thread); callbacks registered after cancellation run immediately
        at registration instead.
        """
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self._reason = reason
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            try:
                cb()
            except Exception:  # noqa: BLE001 — a waker must not kill the canceller
                pass
        return True

    # -------------------------------------------------------------- observing
    def cancelled(self) -> bool:
        """Racy-read-safe check (a plain bool mutated under the GIL)."""
        return self._cancelled

    @property
    def reason(self) -> Any:
        return self._reason

    def raise_if_cancelled(self, what: str = "operation") -> None:
        if self._cancelled:
            raise WaitCancelledError(f"{what} cancelled", self._reason)

    # ------------------------------------------------------------- deadlines
    def cancel_after(self, delay: float, reason: Any = None) -> "CancelTimer":
        """Arm a one-shot timer that cancels this token ``delay`` seconds
        from now (deadline-scoped cancellation without hand-rolled timers).

        Returns a :class:`CancelTimer` handle; call its :meth:`~CancelTimer.
        cancel` to disarm when the guarded operation completes first.  All
        timers share one daemon scheduler thread (no thread-per-timer), so
        arming one per request is cheap even at high request rates.  A
        non-positive ``delay`` cancels on the scheduler thread immediately;
        re-arming an already-cancelled token is a no-op (cancellation is
        sticky).  The default reason is ``"deadline"`` so a
        :class:`~repro.runtime.errors.WaitCancelledError` raised by the
        timer is distinguishable from an explicit ``cancel()``.
        """
        if reason is None:
            reason = "deadline"
        return _scheduler().arm(self, delay, reason)

    # -------------------------------------------------- waker registration
    def add_callback(self, callback: Callable[[], None]) -> None:
        """Register a wakeup callback; runs immediately if already cancelled."""
        with self._lock:
            if not self._cancelled:
                self._callbacks.append(callback)
                return
        callback()

    def remove_callback(self, callback: Callable[[], None]) -> None:
        """Deregister a callback (no-op when it already ran or was removed)."""
        with self._lock:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:
        state = f"cancelled reason={self._reason!r}" if self._cancelled else "live"
        return f"<CancelToken {state}>"


class CancelTimer:
    """Handle for one armed :meth:`CancelToken.cancel_after` deadline."""

    __slots__ = ("_disarmed", "deadline", "reason", "token")

    def __init__(self, token: CancelToken, deadline: float, reason: Any):
        self.token = token
        self.deadline = deadline
        self.reason = reason
        self._disarmed = False

    def cancel(self) -> None:
        """Disarm the timer (idempotent; safe after it already fired —
        firing a disarmed timer is a no-op, not an error)."""
        self._disarmed = True

    @property
    def armed(self) -> bool:
        return not self._disarmed

    def _fire(self) -> None:
        if not self._disarmed:
            self.token.cancel(self.reason)


class _DeadlineScheduler:
    """One shared daemon thread expiring :class:`CancelTimer` deadlines.

    A binary heap orders pending deadlines; the thread sleeps until the
    earliest live one.  ``arm`` wakes it only when the new deadline comes
    before the one it sleeps toward, so a request that arms a backstop and
    disarms it a moment later costs the thread nothing.  ``cancel`` on a
    handle is O(1): disarmed timers stay in the heap until they surface
    at its top, or until ``arm`` finds the heap at twice the size it had
    after the last compaction and drops them all.  Even when only
    disarmed timers are left, the thread keeps the latest of their
    deadlines as its wake time: a timer armed for later than that (the
    common case, each backstop outliving the one before) needs no wakeup.
    The thread is started lazily on the first ``arm`` and never joined —
    it parks on a condition variable when idle.
    """

    #: heap size below which ``arm`` never compacts
    COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._heap: list[tuple[float, int, CancelTimer]] = []
        self._tiebreak = AtomicCounter()
        self._thread: Optional[threading.Thread] = None
        #: when the thread wakes by itself; ``arm`` notifies only for an
        #: earlier deadline (inf: it waits for a notify)
        self._wake_at = math.inf
        self._compact_at = self.COMPACT_FLOOR

    def arm(self, token: CancelToken, delay: float, reason: Any) -> CancelTimer:
        timer = CancelTimer(token, time.monotonic() + delay, reason)
        with self._cond:
            heap = self._heap
            if len(heap) >= self._compact_at:
                heap[:] = [entry for entry in heap if not entry[2]._disarmed]
                heapq.heapify(heap)
                self._compact_at = max(self.COMPACT_FLOOR, 2 * len(heap))
            heapq.heappush(heap, (timer.deadline, self._tiebreak.next(), timer))
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="repro-cancel-scheduler", daemon=True
                )
                self._thread.start()
            if timer.deadline < self._wake_at:
                self._cond.notify()
        return timer

    def _run(self) -> None:
        heap = self._heap
        while True:
            due: list[CancelTimer] = []
            with self._cond:
                while True:
                    now = time.monotonic()
                    wake_at = math.inf
                    # pop what expired and every disarmed timer on top;
                    # a disarmed one still leaves its deadline as a wake
                    # time, so later arms need not notify
                    while heap:
                        deadline, _, timer = heap[0]
                        if deadline <= now:
                            heapq.heappop(heap)
                            if not timer._disarmed:
                                due.append(timer)
                        elif timer._disarmed:
                            heapq.heappop(heap)
                            wake_at = deadline
                        else:
                            wake_at = deadline
                            break
                    if due:
                        break
                    self._wake_at = wake_at
                    if wake_at == math.inf:
                        self._cond.wait()
                    else:
                        self._cond.wait(wake_at - now)
            # outside the lock: cancel() runs arbitrary waker callbacks
            for timer in due:
                timer._fire()


_scheduler_instance: Optional[_DeadlineScheduler] = None
_scheduler_lock = threading.Lock()


def _scheduler() -> _DeadlineScheduler:
    global _scheduler_instance
    sched = _scheduler_instance
    if sched is None:
        with _scheduler_lock:
            sched = _scheduler_instance
            if sched is None:
                sched = _scheduler_instance = _DeadlineScheduler()
    return sched
