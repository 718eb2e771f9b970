"""Monitor tasks (Def. 10): a precondition plus a body.

A task is *executable* when its precondition holds against the current
monitor state; unexecutable tasks wait in the server's pending set until a
state change makes them executable.  Tasks carry the submitting worker's
identity (Rule 2 program order is per-worker) and an optional priority for
the Chapter-6 priority policy.

The precondition is the method's guard as declared, a plain function
called as ``guard(monitor, *args, **kwargs)`` with the task's own
arguments: a submission stores it and builds no predicate object (the
§3.3.2 aim that a submission costs only a few stores).

Task shells are pooled (mirroring the core layer's ``Waiter`` pool): the
executing server/combiner recycles a shell after collecting its future for
completion, and :meth:`MonitorTask.acquire` re-arms a recycled shell instead
of allocating.  Pool discipline — a shell is recycled only *after* it left
every queue/pending structure, and only by the executor; consequently
**callers must capture ``task.future`` before submitting** the task, because
the shell (and its ``future`` attribute) may be re-armed for an unrelated
call the moment the server completes it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from repro.active.futures import LightFuture
from repro.core.predicates import Predicate
from repro.runtime.atomics import AtomicCounter

#: global submission timestamps.  Rule 2 (per-worker program order) needs
#: every draw to be unique and ordered, so the draw goes through the
#: explicit atomics layer: on GIL builds this *is* the old ``next(count)``
#: (one atomic C call); on free-threaded builds it is a locked
#: fetch-and-add — the "GIL-atomic so the lock bought nothing" claim the
#: old comment made is true only under the GIL.
_seq = AtomicCounter(1)

#: recycled task shells — any thread may pop, executors append.  Single
#: deque operations are atomic on both builds (GIL, or PEP 703's
#: per-object container locks on free-threaded CPython).
_pool: deque["MonitorTask"] = deque()
_POOL_CAP = 256


#: while a task body runs, this holds the *submitting* worker's thread id —
#: the §6.2.2 answer to "Thread.currentThread() inside a delegated method"
_executing_worker = threading.local()


def current_worker() -> int:
    """The logical worker a critical section belongs to.

    Inside a delegated task this is the submitting worker's thread id (what
    the paper's ``Thread.currentThread()`` *intended*); elsewhere it is
    simply the calling thread's id.
    """
    worker = getattr(_executing_worker, "ident", None)
    return worker if worker is not None else threading.get_ident()


def _predicate_guard(predicate: Predicate) -> Callable[..., Any]:
    """A :class:`Predicate` as a task guard: evaluated against the monitor
    alone, whatever the task's arguments."""
    evaluate = predicate.evaluate
    return lambda monitor, *_args, **_kwargs: evaluate(monitor)


class MonitorTask:
    """One delegated critical-section execution request.

    ``precondition`` is ``None`` (always executable), a guard called as
    ``guard(monitor, *args, **kwargs)``, or a :class:`Predicate`
    evaluated against the monitor.
    """

    __slots__ = (
        "precondition", "body", "args", "kwargs", "future",
        "worker_id", "seq", "priority", "name", "retries_left",
        "guard_error",
    )

    def __init__(
        self,
        body: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        precondition: Optional[Predicate | Callable[..., Any]] = None,
        priority: int = 0,
        name: str = "",
        retries: int = 0,
    ):
        self.future = LightFuture()
        self.guard_error: Optional[Exception] = None
        self._arm(body, args, kwargs, precondition, priority, name, retries)

    def _arm(self, body, args, kwargs, precondition, priority, name, retries) -> None:
        if isinstance(precondition, Predicate):
            precondition = _predicate_guard(precondition)
        self.precondition = precondition
        self.body = body
        self.args = args
        self.kwargs = kwargs
        self.worker_id = threading.get_ident()
        self.seq = _seq.next()       # global submission timestamp (sub(t))
        self.priority = priority
        self.name = name or getattr(body, "__name__", "task")
        self.retries_left = retries  # §6.2.1: automatic re-tries on failure

    @classmethod
    def acquire(
        cls,
        body: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        precondition: Optional[Predicate | Callable[..., Any]] = None,
        priority: int = 0,
        name: str = "",
        retries: int = 0,
    ) -> "MonitorTask":
        """Pooled constructor: re-arm a recycled shell when one exists."""
        try:
            task = _pool.pop()
        except IndexError:
            return cls(body, args, kwargs, precondition=precondition,
                       priority=priority, name=name, retries=retries)
        task.future = LightFuture()
        task._arm(body, args, kwargs, precondition, priority, name, retries)
        return task

    def recycle(self) -> None:
        """Return this shell to the pool.

        Executor-only, after the task left every queue/pending structure and
        its future has been collected for completion.  Clears references so
        pooled shells pin neither bodies nor results.
        """
        self.precondition = None
        self.body = None
        self.args = ()
        self.kwargs = None
        self.future = None
        self.guard_error = None
        if len(_pool) < _POOL_CAP:
            _pool.append(self)

    def executable(self, monitor: Any) -> bool:
        """Is the precondition true in the current state?

        A guard that raises makes its task executable: :meth:`execute`
        then fails the task with the guard's error instead of running the
        body, so the error reaches the task's own future and neither the
        selecting thread nor the other tasks see it.  Each evaluation
        replaces the last one's verdict.
        """
        guard = self.precondition
        if guard is None:
            return True
        try:
            verdict = guard(monitor, *self.args, **self.kwargs)
        except Exception as exc:  # noqa: BLE001 — delivered by execute()
            self.guard_error = exc
            return True
        self.guard_error = None
        return verdict

    def execute(self, monitor: Any) -> tuple[Any, Optional[BaseException]]:
        """Run the body; return ``(result, error)`` without touching the
        future — the server completes futures in batch after the combining
        batch, outside the monitor lock (amortized wakeups).  A guard error
        recorded by :meth:`executable` is returned as the error, and the
        body does not run."""
        error = self.guard_error
        if error is not None:
            self.guard_error = None
            return None, error
        _executing_worker.ident = self.worker_id
        try:
            return self.body(*self.args, **self.kwargs), None
        except BaseException as exc:  # noqa: BLE001 — delivered via future
            return None, exc
        finally:
            _executing_worker.ident = None

    def run(self, monitor: Any) -> Optional[BaseException]:
        """Execute and complete immediately (non-batched call sites: tests,
        the simulator).  Caller holds the monitor lock and has verified the
        precondition.  Returns the exception when the body failed (None on
        success); on failure the future is completed only when no retries
        remain."""
        result, error = self.execute(monitor)
        if error is not None:
            if self.retries_left <= 0:
                self.future.set_exception(error)
            return error
        self.future.set_result(result)
        return None

    def __repr__(self):
        return f"<MonitorTask {self.name} seq={self.seq} worker={self.worker_id}>"
