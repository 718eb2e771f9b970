"""Awaitable views of delegated-call futures.

A :class:`~repro.active.futures.LightFuture` completes on the server, on a
combining worker, or already on the submitting thread (an in-place run of
:meth:`~repro.active.ActiveMonitor.submit_nowait`).  :func:`as_asyncio`
bridges that completion into an ``asyncio.Future``: a future that is
already done resolves in place, with no thread hop, though awaiting it
still yields to the loop once; a pending one gets a single done callback
that hops onto the loop via ``call_soon_threadsafe`` — no polling task,
no executor thread parked in ``get``.  Failure semantics mirror
``LightFuture.get`` exactly: a failed task resolves the asyncio future
with :class:`~repro.runtime.errors.TaskError` wrapping the original
exception.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro.active.futures import LightFuture
from repro.runtime.errors import TaskError


def as_asyncio(future: LightFuture,
               loop: Optional[asyncio.AbstractEventLoop] = None,
               ) -> "asyncio.Future[Any]":
    """Return an ``asyncio.Future`` that resolves when ``future`` completes.

    Must be called with a running loop (or an explicit ``loop``).  When
    ``future`` is already done, the asyncio future is resolved before it
    is returned, with no ``call_soon_threadsafe``; awaiting it yields to
    the loop once and no more.  Otherwise the hand-off is push-based:
    ``add_done_callback`` fires on the completing thread and schedules the
    resolution with ``loop.call_soon_threadsafe``.  Cancelling the
    *asyncio* future does not cancel the delegated task (the critical
    section may already be running); the late completion is simply
    dropped.
    """
    if loop is None:
        loop = asyncio.get_running_loop()
    if future.done():
        settled = _Settled(loop=loop)
        _settle(settled, future)  # no callbacks yet: this schedules nothing
        return settled
    afut: "asyncio.Future[Any]" = loop.create_future()

    def _apply() -> None:
        if not afut.cancelled():
            _settle(afut, future)

    def _on_done(_fut: LightFuture) -> None:
        try:
            loop.call_soon_threadsafe(_apply)
        except RuntimeError:
            pass  # loop already closed — nobody is left to observe this

    future.add_done_callback(_on_done)
    return afut


class _Settled(asyncio.Future):
    """A bridged future that was complete before :func:`as_asyncio`
    returned it.  Awaiting it still yields to the loop once, as awaiting a
    completion that hopped through ``call_soon_threadsafe`` did: a
    coroutine that chains calls run in place gives the other tasks a turn
    at each one instead of holding the loop for the whole chain."""

    def __await__(self):
        yield  # a bare yield: the awaiting task reschedules itself
        return self.result()

    __iter__ = __await__


def _settle(afut: "asyncio.Future[Any]", future: LightFuture) -> None:
    """Copy a completed ``future``'s outcome onto ``afut``."""
    err = future.exception()
    if err is not None:
        wrapped = TaskError("asynchronous monitor task failed", err)
        wrapped.__cause__ = err  # same chaining as LightFuture.get
        afut.set_exception(wrapped)
    else:
        afut.set_result(future.get())  # done ⇒ returns without blocking


async def await_future(future: LightFuture,
                       timeout: float | None = None) -> Any:
    """Await a delegated call's future; ``asyncio.TimeoutError`` on expiry."""
    afut = as_asyncio(future)
    if timeout is None:
        return await afut
    return await asyncio.wait_for(afut, timeout)
