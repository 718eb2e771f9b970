"""Lightweight futures for delegated monitor tasks.

The paper replaces Java's heavyweight ``FutureTask`` with "a lightweight
version of future objects that are shared between only one worker thread and
the server" (§3.3.2), using volatile fields and ``park``/``unpark``.  The
Python analogue: plain slot attributes for the value/state hand-off, and
the blocked consumer's own :class:`~repro.runtime.parking.Parker`, recorded
only when a consumer actually blocks in :meth:`get`.  The dominant pipeline
case — submit, do other work, ``get`` after the server already completed
the task — therefore allocates nothing, and the producer's completion path
is a couple of attribute stores plus one branch.

Ordering argument (single producer): ``set_result`` stores the value, then
the state, then reads ``_getters``.  A blocked consumer records its Parker
in ``_getters`` first and then re-checks ``_state`` before every park.
Each side stores before it loads, so at least one sees the other: either
the consumer sees the completion and never parks, or the producer sees the
Parker and unparks it.  No wakeup is lost, and since every park loops on
``_state``, a stale permit costs nothing.

Free-threading contract (no-GIL audit, docs/performance.md): the lock-free
hand-off is exactly the Java volatile pattern the paper uses, and it stays
sound without the GIL because CPython's free-threaded builds give single
attribute stores/loads atomic pointer semantics with release/acquire
ordering (PEP 703) — the value-before-state publication order means a
consumer that acquire-loads ``_state == DONE`` observes the value store
that release-preceded it.  The blocking hand-off above is a store-load
pair, which release/acquire alone does not order, so on a free-threaded
build the producer reads ``_getters`` under the install lock (one lock
per completion, selected at import by ``GIL_ENABLED``); the consumer
records its Parker under the same lock, and whichever side takes it
second sees the other's store.

Done callbacks (:meth:`LightFuture.add_done_callback`) follow the *same*
publication order: the producer stores the value, then the state, then
reads ``_callbacks``.  A consumer that registers a callback after that
read re-checks ``_state`` afterwards (under the install lock) and fires
the callback itself; a consumer that registered before is drained by the
producer.  Both drains take-and-clear the list under the install lock, so
every callback fires exactly once, and the asyncio bridge
(:mod:`repro.aio`) builds awaitable futures on top of it with zero
polling.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from repro.runtime.atomics import GIL_ENABLED
from repro.runtime.errors import TaskError, WaitCancelledError, WaitTimeoutError
from repro.runtime.parking import current_parker

_PENDING = 0
_DONE = 1
_FAILED = 2

#: serializes recording a blocked getter's Parker (several threads may block
#: on one future: outside the paper's SPSC contract, but cheap to make
#: safe) and the callback list; only consumers that block or register a
#: callback touch it, and, on free-threaded builds, a completion
_install_lock = threading.Lock()


class LightFuture:
    """Single-producer / single-consumer future (multi-consumer safe)."""

    __slots__ = ("_state", "_value", "_error", "_getters", "_callbacks")

    def __init__(self):
        self._state = _PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: the Parkers of the threads blocked in ``get``, or None while no
        #: consumer has blocked
        self._getters: Optional[list] = None
        self._callbacks: Optional[list] = None

    # -- producer side --------------------------------------------------------
    def set_result(self, value: Any) -> None:
        self._value = value
        self._state = _DONE          # value before state: done ⇒ value visible
        if self._getters is not None or not GIL_ENABLED:
            self._wake_getters()
        if self._callbacks is not None:
            self._drain_callbacks()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._state = _FAILED
        if self._getters is not None or not GIL_ENABLED:
            self._wake_getters()
        if self._callbacks is not None:
            self._drain_callbacks()

    def _wake_getters(self) -> None:
        with _install_lock:
            getters = self._getters
            self._getters = None
        if getters is not None:
            for parker in getters:
                parker.unpark()

    def _drain_callbacks(self) -> None:
        # take-and-clear under the install lock: whichever side (producer or
        # a late add_done_callback) takes the list is the one that fires it
        with _install_lock:
            cbs = self._callbacks
            self._callbacks = None
        if cbs:
            for cb in cbs:
                try:
                    cb(self)
                except Exception:  # noqa: BLE001 — a consumer callback must
                    pass           # never kill the completing server thread

    # -- consumer side ---------------------------------------------------------
    def done(self) -> bool:
        return self._state != _PENDING

    def get(self, timeout: float | None = None, cancel=None) -> Any:
        """Evaluate the future — blocking until the task completes.

        Raises :class:`TaskError` wrapping the task's exception if it failed,
        :class:`WaitTimeoutError` (a ``TimeoutError`` subclass) if ``timeout``
        elapses first, and :class:`WaitCancelledError` when the ``cancel``
        token fires while blocked.  A timed-out or cancelled ``get`` leaves
        the future intact: it may complete later and be re-collected.
        """
        if self._state == _PENDING:
            self._block(timeout, cancel)
        if self._state == _FAILED:
            raise TaskError("asynchronous monitor task failed", self._error) from self._error
        return self._value

    def _block(self, timeout: float | None, cancel=None) -> None:
        parker = current_parker()
        with _install_lock:
            # recorded before the state check below: see the module's
            # ordering argument
            getters = self._getters
            if getters is None:
                self._getters = [parker]
            elif parker not in getters:
                getters.append(parker)
        park = parker.park
        wake = None
        if cancel is not None:
            wake = parker.unpark
            cancel.add_callback(wake)
        try:
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._state == _PENDING:
                if cancel is not None and cancel.cancelled():
                    raise WaitCancelledError(
                        "future wait cancelled", cancel.reason)
                if deadline is None:
                    park()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise WaitTimeoutError(
                            "future not completed within timeout")
                    park(remaining)
        finally:
            if wake is not None:
                cancel.remove_callback(wake)

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once the future completes (or immediately).

        The callback runs on whichever thread completes the future — for
        delegated tasks, the server/combiner thread — or synchronously on
        the registering thread when the future is already done.  Callbacks
        must therefore be cheap and non-blocking; the asyncio adapter
        (:func:`repro.aio.as_asyncio`) uses ``loop.call_soon_threadsafe``
        for exactly this reason.  Exceptions raised by ``fn`` are swallowed
        (they must not kill the completing server thread).

        Exactly-once delivery under the value-before-state contract: the
        registration appends under the install lock and re-checks
        ``_state``; the producer stores the state before reading
        ``_callbacks``.  Whichever side observes the completed registration
        takes the list (under the lock) and fires it.
        """
        fire = None
        with _install_lock:
            if self._state != _PENDING:
                # already complete: take any earlier registrations too, so
                # the racing producer drain can't interleave out of order
                fire = self._callbacks or []
                fire.append(fn)
                self._callbacks = None
            else:
                cbs = self._callbacks
                if cbs is None:
                    cbs = []
                    self._callbacks = cbs
                cbs.append(fn)
        if fire is not None:
            for cb in fire:
                try:
                    cb(self)
                except Exception:  # noqa: BLE001 — see _drain_callbacks
                    pass

    def exception(self) -> Optional[BaseException]:
        return self._error if self._state == _FAILED else None

    def __repr__(self):
        state = {_PENDING: "pending", _DONE: "done", _FAILED: "failed"}[self._state]
        return f"<LightFuture {state}>"


class CompletedFuture(LightFuture):
    """A future born completed — returned by synchronous fallback paths so
    call sites can treat every method invocation uniformly."""

    def __init__(self, value: Any = None, error: BaseException | None = None):
        super().__init__()
        if error is not None:
            self.set_exception(error)
        else:
            self.set_result(value)
