"""repro.aio — asyncio frontend for the monitor/delegation stack.

One event-loop thread multiplexes thousands of *logical* clients onto the
same monitors, servers and signaling machinery the threaded frontend uses:

* :func:`as_asyncio` / :func:`await_future` — awaitable views of a
  delegated call's :class:`~repro.active.futures.LightFuture`: resolved in
  place when it is already done (awaiting it still yields to the loop
  once), otherwise by a done callback through
  ``loop.call_soon_threadsafe`` (zero polling);
* :class:`AsyncMonitorClient` — per-monitor client whose
  :meth:`~AsyncMonitorClient.wait_until` parks a **waiterless waiter**
  (:class:`~repro.core.waiter.AsyncWaiter`): registered in the condition
  manager's tag index and dependency buckets exactly like a threaded
  waiter, but woken by a threadsafe loop callback instead of a
  condition-variable notify — and whose :meth:`~AsyncMonitorClient.call`
  returns an awaitable future of a delegated ``@asynchronous`` method;
* :func:`async_and` / :func:`async_or` — awaitable versions of the
  Chapter-5 asynchronous composition operators.

The cardinal rule, asserted by the benchmark's loop-responsiveness probe:
**the event-loop thread never parks on a monitor lock.**  It only ever
tries the lock.  Submission (:meth:`ActiveMonitor.submit_nowait`) runs a
lone task in place when the trylock succeeds and the server is idle — one
critical section, the caller's own — and otherwise enqueues it without
blocking; registration evaluates a predicate under the same kind of
trylock, with an executor-thread fallback; and timeout/cancel abandonment
claims the waiter through its own micro-lock flag, leaving the unlink to
the next monitor-lock holder.
"""

from repro.aio.client import AsyncMonitorClient, async_and, async_or
from repro.aio.futures import as_asyncio, await_future

__all__ = [
    "AsyncMonitorClient",
    "as_asyncio",
    "await_future",
    "async_and",
    "async_or",
]
