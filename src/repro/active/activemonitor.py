"""ActiveMonitor: monitors as active artifacts (Chapter 3).

An :class:`ActiveMonitor` is an automatic-signal monitor that may own a
server thread.  Methods declared ``@asynchronous`` are delegated as monitor
tasks and return a :class:`~repro.active.futures.LightFuture` immediately;
``@synchronous`` methods (and methods that return values, which the paper
makes synchronous automatically) execute under the monitor lock as usual.

Program-order rules (Lemma 1):

* Rule 2 — each worker has at most one outstanding asynchronous task per
  monitor; submitting a second one first waits for the first.
* Rule 3 — invoking any method on a *different* monitor first evaluates the
  worker's outstanding future on the previous monitor.

Disable delegation globally with ``get_config().asynchronous_enabled = False``
(the paper's runtime flag) or per object with ``ActiveMonitor(mode="sync")``;
``mode="delegate"`` keeps delegation but makes every call block on its future
(the evaluation's *AMS* configuration).
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Optional

from repro.active.futures import CompletedFuture, LightFuture
from repro.active.policies import Policy
from repro.active.server import MonitorServer
from repro.active.tasks import MonitorTask
from repro.analysis import runtime as _monlint
from repro.core.monitor import _CONTROL_FLOW_EXC, Monitor, unmonitored
from repro.core.predicates import Predicate
from repro.runtime.config import config_snapshot
from repro.runtime.errors import BrokenMonitorError, MonitorError, TaskQueueFull

MODES = ("async", "delegate", "sync")

#: per-thread record of the worker's outstanding async future:
#: maps monitor id -> LightFuture, plus 'last' -> (monitor_id, future)
_worker_state = threading.local()


def _outstanding() -> dict[int, LightFuture]:
    table = getattr(_worker_state, "table", None)
    if table is None:
        table = {}
        _worker_state.table = table
    return table


def asynchronous(pre: Callable[..., Any] | None = None, priority: int = 0,
                 retries: int = 0):
    """Declare a monitor method asynchronous (delegated, returns a future).

    ``pre`` is the method's guard — the paper's leading ``waituntil``; it is
    called with the same arguments as the method and must be side-effect
    free.  ``priority`` feeds the Chapter-6 priority policy; ``retries``
    enables the §6.2.1 automatic re-try of failed tasks.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: "ActiveMonitor", *args, **kwargs):
            return self._invoke(fn, args, kwargs, pre, priority, is_async=True,
                                retries=retries)

        wrapper._repro_wrapped = True  # keep MonitorMeta's hands off
        wrapper._repro_guard = pre
        wrapper._repro_async = True
        wrapper._repro_priority = priority
        wrapper._repro_retries = retries
        return wrapper

    return decorate


def synchronous(pre: Callable[..., Any] | None = None, priority: int = 0):
    """Declare a guarded synchronous monitor method (blocking, returns the
    value directly).  Equivalent to a method whose body starts with
    ``wait_until(pre)``."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: "ActiveMonitor", *args, **kwargs):
            return self._invoke(fn, args, kwargs, pre, priority, is_async=False)

        wrapper._repro_wrapped = True
        wrapper._repro_guard = pre
        wrapper._repro_async = False
        return wrapper

    return decorate


class ActiveMonitor(Monitor):
    """A monitor object that can execute delegated tasks on its own thread."""

    def __init__(
        self,
        signaling: str = "autosynch",
        mode: str = "async",
        policy: Policy = Policy.SAFE,
        start_server: bool = True,
    ):
        super().__init__(signaling=signaling)
        if mode not in MODES:
            raise MonitorError(f"unknown ActiveMonitor mode {mode!r}")
        self._mode = mode
        self._server: Optional[MonitorServer] = None
        if mode != "sync" and config_snapshot().asynchronous_enabled and start_server:
            server = MonitorServer(self, policy)
            if server.start():
                self._server = server
        # after any synchronous section mutates state, pendings may have
        # become executable: kick the server on exit.
        self._exit_hooks.append(lambda _m: self._server and self._server.kick())
        # poisoning wakes the server so queued tasks fail fast with
        # BrokenMonitorError instead of sitting in a queue nobody drains
        self._break_hooks.append(lambda _m: self._server and self._server.kick())

    # ----------------------------------------------------------------- invoke
    def _invoke(self, fn, args, kwargs, pre, priority, is_async: bool,
                retries: int = 0):
        # fail-fast for delegated calls, which bypass _monitor_enter: a
        # broken monitor must reject submissions, not queue them (one load
        # + branch on the delegation hot path)
        broken = self._broken
        if broken is not None:
            raise BrokenMonitorError(f"{self!r} is broken", broken)
        self._honor_rule3()
        server = self._server
        if server is None or not server.alive:
            return self._run_sync(fn, args, kwargs, pre, wrap_future=is_async)
        if is_async:
            self._honor_rule2()
            # the wrapper's args/kwargs belong to this call: the task keeps
            # them, and the selecting thread calls pre with them
            task = MonitorTask.acquire(
                functools.partial(fn, self), args, kwargs,
                precondition=pre, priority=priority,
                name=getattr(fn, "__name__", "task"), retries=retries,
            )
            # capture before submit: the pooled shell may be recycled (and
            # re-armed for an unrelated call) the moment the server runs it
            future = task.future
            server.submit(task)
            table = _outstanding()
            table[self.monitor_id] = future
            _worker_state.last = (self.monitor_id, future)
            return future if self._mode == "async" else _evaluated(future)
        # synchronous guarded method: direct execution under the lock
        return self._run_sync(fn, args, kwargs, pre, wrap_future=False)

    def _run_sync(self, fn, args, kwargs, pre, wrap_future: bool):
        self._monitor_enter()
        try:
            if pre is not None:
                # the paper's leading waituntil; monlint requires guards
                # pure by contract (docs/analysis.md)
                if _monlint.enabled:
                    # keeps the runtime linter's purity probe
                    self.wait_until(lambda: pre(self, *args, **kwargs))  # monlint: disable=W001
                else:
                    # in place, counted like wait_until's fast path; a
                    # predicate is built only to park
                    holds = pre(self, *args, **kwargs)
                    self._metrics.predicate_evals += 1
                    if not holds:
                        self._park_on(Predicate(lambda: pre(self, *args, **kwargs)))
            result = fn(self, *args, **kwargs)
        except BaseException as exc:
            # the plain method wrapper's rule (§6.2.1): an escaping
            # exception may have torn the invariant
            if (config_snapshot().poison_on_exception
                    and not isinstance(exc, _CONTROL_FLOW_EXC)):
                self.mark_broken(exc)
            if not wrap_future:
                raise
            return CompletedFuture(error=exc)
        finally:
            self._monitor_exit()
        return CompletedFuture(result) if wrap_future else result

    @unmonitored
    def submit_nowait(self, method: str, /, *args, **kwargs) -> LightFuture:
        """Delegate ``method`` without ever parking the calling thread.

        The asyncio frontend's entry point (:mod:`repro.aio`): one event
        loop multiplexes thousands of logical clients, so the thread-local
        program-order bookkeeping (Rules 2/3 — one outstanding task *per OS
        thread*) is deliberately bypassed; per-client program order is the
        caller's own ``await`` chain.

        A lone task runs in place: when a trylock on the monitor lock
        succeeds, nothing is queued or pending on the server,
        ``combining_batch >= 1`` and the guard holds, the calling thread
        runs this one task through the server's own per-task step, and the
        returned future is already done.  Otherwise the task is enqueued
        nonblockingly and the server woken.  The calling thread never parks
        on the monitor lock and never runs another caller's task; an event
        loop thread runs at most one critical section of its own here, as
        :meth:`AsyncMonitorClient.wait_until` does when it evaluates a
        predicate under a trylock.

        Raises :class:`TaskQueueFull` when the bounded task queue is full
        (the blocking path would park; a coroutine backs off and retries),
        :class:`BrokenMonitorError` when the monitor is poisoned, and
        :class:`MonitorError` when ``method`` is not ``@asynchronous`` or
        no live server exists.
        """
        broken = self._broken
        if broken is not None:
            raise BrokenMonitorError(f"{self!r} is broken", broken)
        wrapper = getattr(type(self), method, None)
        if wrapper is None or not getattr(wrapper, "_repro_async", False):
            raise MonitorError(
                f"submit_nowait requires an @asynchronous method, "
                f"got {method!r}")
        server = self._server
        if server is None or not server.alive:
            raise MonitorError(
                f"submit_nowait on {self!r} needs a live server "
                f"(mode={self._mode!r}); use the blocking frontend instead")
        fn = wrapper.__wrapped__          # functools.wraps keeps the raw body
        task = MonitorTask.acquire(
            functools.partial(fn, self), args, kwargs,
            precondition=wrapper._repro_guard,
            priority=wrapper._repro_priority,
            name=getattr(fn, "__name__", "task"),
            retries=wrapper._repro_retries,
        )
        future = task.future   # capture first: the shell is pooled
        if server._try_combine(task):
            return future      # ran in place (a retry waits in pending)
        if not server.queue.try_put(task):
            task.recycle()
            raise TaskQueueFull(
                f"task queue of {self!r} is full")
        if server._stop:       # same submit/stop race handling as submit()
            server.drain()
        server.wake()          # wake the server thread; combining was refused
        return future

    # ------------------------------------------------------------ order rules
    def _honor_rule2(self) -> None:
        """One outstanding asynchronous task per worker per monitor."""
        future = _outstanding().get(self.monitor_id)
        if future is not None and not future.done():
            _swallow(future)

    def _honor_rule3(self) -> None:
        """Complete the worker's outstanding task on any *other* monitor."""
        last = getattr(_worker_state, "last", None)
        if last is None:
            return
        mon_id, future = last
        if mon_id != self.monitor_id and not future.done():
            _swallow(future)

    # -------------------------------------------------------------- lifecycle
    @property
    def server(self) -> Optional[MonitorServer]:
        return self._server

    @property
    def is_active(self) -> bool:
        """True when delegation is live (a server thread exists)."""
        return self._server is not None and self._server.alive

    @unmonitored
    def shutdown(self) -> None:
        """Stop the server thread (idempotent); the monitor keeps working in
        synchronous mode afterwards.

        Propagates :class:`~repro.runtime.errors.TaskError` when the server
        thread is wedged and fails to stop — but detaches it regardless, so
        subsequent calls run synchronously instead of feeding a dead queue.
        """
        if self._server is not None:
            try:
                self._server.stop()
            finally:
                self._server = None

    @unmonitored
    def flush(self, timeout: float | None = 10.0, cancel=None) -> None:
        """Block until every task submitted so far has executed.

        Must not hold the monitor lock while waiting (the server needs it),
        hence ``@unmonitored``.

        The flush sentinel is recorded as this worker's outstanding task
        *before* blocking: if ``get`` times out (or is cancelled), Rule 2
        still knows about the in-flight sentinel, and the worker's next
        submission to this monitor first waits for it — program order is
        preserved across an abandoned flush instead of silently leaking an
        untracked task.
        """
        server = self._server
        if server is None:
            return
        sentinel = MonitorTask.acquire(lambda: None, (), {}, name="flush")
        future = sentinel.future   # capture before submit (pooled shell)
        server.submit(sentinel)
        table = _outstanding()
        table[self.monitor_id] = future
        _worker_state.last = (self.monitor_id, future)
        future.get(timeout, cancel)


def _evaluated(future: LightFuture) -> LightFuture:
    """Force evaluation (AMS mode) but still hand back the future."""
    _swallow(future)
    return future


def _swallow(future: LightFuture) -> None:
    """Wait for a future, discarding its result; its error (if any) is left
    for the owner to observe via ``get``/``exception``."""
    try:
        future.get()
    except Exception:
        pass
