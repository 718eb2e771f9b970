"""The monitor server thread: delegated + combined task execution (§3.3).

Rules 1-3 (the paper's execution model) map onto this implementation:

* **Rule 1 (mutex invariant)** — every task body runs under the monitor's
  lock, whether the server or a combining worker executes it.
* **Rule 2 (per-worker program order)** — the task queue is FIFO and a
  worker may have at most one outstanding asynchronous task (enforced in
  :mod:`repro.active.activemonitor`), so a worker's tasks are executed in
  submission order.
* **Rule 3 (cross-monitor order)** — before invoking a method on a
  *different* monitor, a worker first evaluates its outstanding future
  (also enforced in activemonitor).

Unexecutable tasks (precondition false, Def. 10) move to a pending list;
after every state change the server re-scans pendings under the configured
policy.  When there is nothing to do the server parks on an event instead of
busy-waiting — the paper stresses that, unlike prior combining schemes, no
thread ever spins.

Throughput structure of the drain path (the delegation fast path):

* the queue is emptied with :meth:`SingleConsumerBoundedQueue.drain_to` —
  one shared-counter touch per stolen batch (take-count strategy);
* futures are **completed in batch, outside the monitor lock**, after the
  combining batch finishes: waiters wake into an uncontended monitor
  instead of colliding with the executor, and per-task signaling cost is
  amortized across the batch;
* completed task shells are recycled to the :mod:`repro.active.tasks` pool
  (executor-only, after their future has been collected).

Shutdown is serialized with combining through the monitor lock: ``drain``
runs under it and ``_try_combine`` re-checks ``_stop`` after acquiring, so a
worker that becomes the combiner while ``stop()`` is draining can no longer
execute a task after the server declared itself drained.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional

from repro.active.management import registry
from repro.active.policies import Policy, select_task
from repro.active.scqueue import SingleConsumerBoundedQueue
from repro.active.tasks import MonitorTask
from repro.core.monitor import _CONTROL_FLOW_EXC as _NO_POISON
from repro.resilience import chaos as _chaos
from repro.runtime.config import config_snapshot, get_config
from repro.runtime.errors import BrokenMonitorError, TaskError

if TYPE_CHECKING:  # pragma: no cover
    from repro.active.activemonitor import ActiveMonitor


def _complete(completions: list) -> None:
    """Deliver a batch of future completions (caller dropped the lock)."""
    for future, value, error in completions:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)


class MonitorServer:
    """Owns the task queue and the (optional) server thread of one monitor."""

    def __init__(self, monitor: "ActiveMonitor", policy: Policy = Policy.SAFE):
        self.monitor = monitor
        self.policy = policy
        cfg = get_config()
        self.queue = SingleConsumerBoundedQueue(cfg.task_queue_capacity)
        self.pending: list[MonitorTask] = []   # unexecutable tasks, FIFO
        self._wake = threading.Event()
        self._stop = False
        self.alive = False
        self._thread: Optional[threading.Thread] = None
        #: thread id of the running server loop (see :meth:`kick`)
        self._ident: Optional[int] = None
        self.exception_log: list[BaseException] = []
        #: §6.2.1 hook: called with (task, exception) after a task body
        #: fails; exceptions it raises are swallowed (the future already
        #: carries the original failure)
        self.exception_handler = None
        #: every exception that escaped the server *loop* (thread death) —
        #: distinct from exception_log, which records task-body failures
        #: the loop survived
        self.death_log: list[Optional[BaseException]] = []
        #: optional :class:`~repro.resilience.ServerSupervisor`; when set,
        #: the death handler asks it to restart the thread after failing
        #: the in-flight futures fast
        self.supervisor = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> bool:
        """Spawn the server thread if the registry grants a slot."""
        if not registry.try_register(self):
            return False
        self.alive = True
        self._thread = threading.Thread(
            target=self._run, name=f"monitor-server-{self.monitor.monitor_id}",
            daemon=True,
        )
        self._thread.start()
        return True

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the server thread and fail any stranded tasks.

        Raises :class:`TaskError` when the thread does not exit within
        ``timeout`` — a wedged server (e.g. a task body blocked forever)
        must not be reported as a clean shutdown.  In that case stranded
        futures are *not* drained here: the wedged thread may hold the
        monitor lock, and draining would wedge this caller too.
        """
        self._stop = True
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
            if thread.is_alive():
                self.alive = False
                registry.unregister(self)
                raise TaskError(
                    f"monitor server thread failed to stop within {timeout}s "
                    f"(wedged in a task body?)", None)
        self.alive = False
        registry.unregister(self)
        self.drain()

    def restart(self) -> bool:
        """Respawn the server thread after a death (supervision path).

        No-op returning False when the server was stopped deliberately or
        is already running."""
        if self._stop or self.alive:
            return False
        started = self.start()
        if started:
            # re-scan anything submitted while the server was down
            self._wake.set()
        return started

    # ------------------------------------------------------------ submission
    def submit(self, task: MonitorTask) -> None:
        """Enqueue a task; try combining if the server looks idle.

        Note: submission accounting (``tasks_submitted``) happens on the
        consumer side when the executor drains the queue — exact, and free
        of producer-side lock traffic."""
        self.queue.put(task)
        if self._stop:
            # shutdown raced this submission: fail the task now rather than
            # stranding its future (drain is idempotent and lock-serialized)
            self.drain()
            return
        if self._try_combine():
            return
        self._wake.set()

    def _try_combine(self) -> bool:
        """Worker-side combining (§3.3.2): if the monitor lock is free, this
        worker becomes the combiner and drains up to ``combining_batch``
        tasks before releasing — an uncontended acquisition in most cases."""
        monitor = self.monitor
        lock = monitor._lock  # monlint: disable=W004 — combiner protocol owns the lock
        if not lock.acquire(blocking=False):
            return False
        completions: list = []
        try:
            if self._stop:
                # shutdown owns the queue now; don't execute behind its back
                return False
            cm = monitor._cond_mgr
            cm.depth += 1
            executed = 0
            try:
                # snapshot read: _try_combine runs on every task submission
                executed, completions = self._drain_batch(
                    config_snapshot().combining_batch)
            finally:
                cm.depth -= 1
                # task bodies mutate monitor state: the batch ends like any
                # section, with the exit steps and one relay.  The task
                # bodies' writes accumulated in monitor._dirty, so the hooks
                # see and the relay flushes the *union* of the batch's
                # dirty sets — waiters are checked once per batch, not
                # once per task
                monitor._end_section()
                cm.relay_signal()
            if executed:
                monitor._metrics.tasks_combined += executed  # lock held
            return True
        finally:
            lock.release()
            if completions:
                _complete(completions)
            if len(self.queue) or self.pending:
                self._wake.set()

    # ---------------------------------------------------------- server loop
    def _run(self) -> None:
        monitor = self.monitor
        cm = monitor._cond_mgr
        self._ident = threading.get_ident()
        try:
            while not self._stop:
                self._wake.wait()
                self._wake.clear()
                if self._stop:
                    break
                if _chaos.enabled:
                    # fires outside the monitor lock: an injected kill here
                    # dies cleanly through the death handler without
                    # wedging the monitor
                    _chaos.fire("server_loop", self)
                completions: list = []
                with monitor._lock:  # monlint: disable=W004 — server thread is the monitor's executor
                    cm.depth += 1
                    try:
                        _, completions = self._drain_batch(None)
                    finally:
                        cm.depth -= 1
                        # batch-unioned exit steps and relay, as in
                        # _try_combine
                        monitor._end_section()
                        cm.relay_signal()
                if completions:
                    _complete(completions)
        except BaseException as exc:  # noqa: BLE001 — thread death handler
            self._on_death(exc)
            return
        self.drain()

    def _on_death(self, exc: Optional[BaseException]) -> None:
        """The server thread died: fail fast, then (maybe) restart.

        Runs on the dying thread itself, or on a polling thread that
        noticed the corpse (:meth:`ServerSupervisor.check`).  Every queued
        and in-flight future is failed *immediately* with a
        :class:`TaskError` carrying the death cause — workers blocked in
        ``future.get()`` observe the failure instead of hanging — and then
        an attached supervisor gets the chance to restart the thread.
        """
        self.alive = False
        self.death_log.append(exc)
        registry.unregister(self)
        self.drain(lambda: TaskError("monitor server died", exc))
        supervisor = self.supervisor
        if supervisor is not None and not self._stop:
            try:
                supervisor.handle_death(exc)
            except Exception:  # noqa: BLE001 — a broken supervisor must not
                pass           # turn a handled death into an unhandled one

    def _drain_batch(self, limit: Optional[int]) -> tuple[int, list]:
        """Run tasks (queue + pendings) until quiescent or ``limit`` reached.

        Caller holds the monitor lock.  Pendings are re-scanned after every
        execution because any run may enable a parked precondition.  Returns
        ``(executed, completions)``; the caller delivers the completions
        after releasing the lock.
        """
        monitor = self.monitor
        metrics = monitor._metrics
        pending = self.pending
        executed = 0
        completions: list = []
        while limit is None or executed < limit:
            broken = monitor._broken
            if broken is not None:
                # poisoned monitor: running task bodies on corrupt state is
                # exactly what poisoning forbids — fail every queued and
                # pending future fast instead (docs/robustness.md)
                pulled = self.queue.drain_to(pending)
                if pulled:
                    metrics.tasks_submitted += pulled
                for task in pending:
                    completions.append((task.future, None, BrokenMonitorError(
                        f"{monitor!r} is broken", broken)))
                    task.recycle()
                metrics.futures_failed_fast += len(pending)
                pending.clear()
                break
            # pull everything currently queued into the pending list, which
            # then serves as the uniform candidate set for the policy
            pulled = self.queue.drain_to(pending)
            if pulled:
                metrics.tasks_submitted += pulled
                metrics.steal_batches += 1
                metrics.steal_items += pulled
            task = select_task(self.policy, pending, monitor)
            if task is None:
                break
            pending.remove(task)
            result, error = task.execute(monitor)
            if error is not None:
                self.exception_log.append(error)
                if self.exception_handler is not None:
                    try:
                        self.exception_handler(task, error)
                    except Exception:  # noqa: BLE001 — hook must not kill us
                        pass
                if task.retries_left > 0:
                    task.retries_left -= 1
                    pending.append(task)   # §6.2.1 automatic re-try
                else:
                    completions.append((task.future, None, error))
                    task.recycle()
                    # §6.2.1: a failed task body may have torn the invariant
                    # mid-mutation, same as an escaping exception in a
                    # synchronous critical section (retries exhaust first —
                    # a retried task gets its chance to repair)
                    if (config_snapshot().poison_on_exception
                            and not isinstance(error, _NO_POISON)):
                        monitor.mark_broken(error)
            else:
                completions.append((task.future, result, None))
                task.recycle()
            executed += 1
        return executed, completions

    def drain(self, error_factory: Optional[Callable[[], BaseException]] = None,
              ) -> int:
        """Fail any tasks stranded by shutdown so futures never hang.

        Runs under the monitor lock to serialize with an in-flight combiner
        (which re-checks ``_stop`` after acquiring): once drain completes,
        no stranded task can still be executed.  ``error_factory`` overrides
        the stock shutdown error (the death handler passes one that carries
        the death cause); when it is given, failed futures are counted in
        the ``futures_failed_fast`` metric.  Returns the number of futures
        failed."""
        stranded: list[MonitorTask] = []
        with self.monitor._lock:  # monlint: disable=W004 — shutdown serialization
            pulled = self.queue.drain_to(stranded)
            if pulled:
                self.monitor._metrics.tasks_submitted += pulled
            stranded.extend(self.pending)
            self.pending.clear()
        failed = 0
        for task in stranded:
            future = task.future
            if not future.done():
                if error_factory is not None:
                    future.set_exception(error_factory())
                else:
                    future.set_exception(RuntimeError("monitor server stopped"))
                failed += 1
            task.recycle()
        if failed and error_factory is not None:
            self.monitor._metrics.add("futures_failed_fast", failed)
        return failed

    def kick(self) -> None:
        """Wake the server to re-scan pendings (used by exit hooks after
        synchronous state changes).

        A no-op on the server's own thread: its batch exit runs the exit
        hooks too, and it has just re-scanned every pending task, so a
        self-kick would only spin the loop while a pending guard stays
        false."""
        if (self.pending or len(self.queue)) and \
                threading.get_ident() != self._ident:
            self._wake.set()
