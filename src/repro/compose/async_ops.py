"""Asynchronous composition operators via ActiveMonitor (§5.3).

Operands must live on distinct monitors (the paper's pre-processor raises a
parsing error otherwise — cross-monitor program order under conditional
synchronization cannot be guaranteed for same-monitor operands).

``async_and`` / ``async_select_all`` delegate one task per operand to that
monitor's server and then force the worker to evaluate every future.

``async_or`` / ``async_select_one`` delegate a task per operand that shares
one atomic ``taken`` flag: when a server finds an operand's guard true it
performs a test-and-set on the flag (:class:`repro.runtime.atomics.AtomicFlag`
— the explicit-atomics layer, correct with and without the GIL), and only
the winner executes its body (§5.3.1); losers resolve to :data:`SKIPPED`.

The ``submit_select_*`` halves expose the submission step without the
blocking ``get``: the asyncio frontend (:mod:`repro.aio`) submits from an
executor thread and awaits the returned futures on the loop.
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

from repro.active.activemonitor import ActiveMonitor
from repro.active.futures import LightFuture
from repro.active.tasks import MonitorTask
from repro.compose.guarded import GuardedCall
from repro.runtime.atomics import AtomicFlag
from repro.runtime.errors import CompositionError

#: sentinel result of a losing OR operand
SKIPPED = object()


def _validate(calls: Sequence[GuardedCall]) -> list[GuardedCall]:
    calls = list(calls)
    if not calls:
        raise CompositionError("composition needs at least one operand")
    monitors = {id(c.monitor) for c in calls}
    if len(monitors) != len(calls):
        raise CompositionError(
            "asynchronous composition operands must be on distinct monitors"
        )
    for call in calls:
        if not isinstance(call.monitor, ActiveMonitor) or not call.monitor.is_active:
            raise CompositionError(
                f"operand {call.name} is not on a live ActiveMonitor; use the "
                "synchronous operators instead"
            )
    return calls


def _submit(call: GuardedCall, guard, body) -> LightFuture:
    """Delegate one operand as a task carrying the operand's arguments: the
    server calls ``guard(monitor, *call.args, **call.kwargs)`` and then
    ``body(*call.args, **call.kwargs)``."""
    task = MonitorTask.acquire(body, call.args, call.kwargs,
                               precondition=guard, name=call.name)
    future = task.future   # capture before submit: the shell is pooled
    call.monitor.server.submit(task)
    return future


def async_and(*operands: GuardedCall) -> list[Any]:
    """Delegate every operand; block until all complete; results by position."""
    return async_select_all(list(operands))


def async_select_all(calls: Sequence[GuardedCall]) -> list[Any]:
    return [future.get() for future in submit_select_all(calls)]


def submit_select_all(calls: Sequence[GuardedCall]) -> list[LightFuture]:
    """Submission half of :func:`async_select_all`: delegate every operand
    and return the per-operand futures without evaluating them."""
    calls = _validate(calls)
    return [_submit(call, call.pre, functools.partial(call.fn, call.monitor))
            for call in calls]


def async_or(*operands: GuardedCall) -> tuple[int, Any]:
    """Delegate all operands; exactly one executes; returns (index, result)."""
    return async_select_one(list(operands))


def async_select_one(calls: Sequence[GuardedCall]) -> tuple[int, Any]:
    return submit_select_one(calls).get()


def submit_select_one(calls: Sequence[GuardedCall]) -> LightFuture:
    """Submission half of :func:`async_select_one`: delegate every operand
    and return the shared winner future, unevaluated."""
    calls = _validate(calls)
    taken = AtomicFlag()
    winner_future: LightFuture = LightFuture()

    def kick_others(call: GuardedCall) -> None:
        # losers may be parked behind false guards on other servers;
        # kick those servers so the SKIPPED drain happens promptly
        for other in calls:
            if other is not call and other.monitor.server is not None:
                other.monitor.server.wake()

    def make_guard(call: GuardedCall):
        # executable once the real guard holds — or once somebody else won,
        # so the loser task drains from the pending set as SKIPPED.  A guard
        # that raises before anybody won ends the selection with its error
        # (its own task fails too, and its future is dropped).
        pre = call.pre
        if pre is None:
            return None

        def guard(monitor, *args, **kwargs):
            if taken:
                return True
            try:
                return pre(monitor, *args, **kwargs)
            except Exception as exc:
                if not taken.test_and_set():
                    winner_future.set_exception(exc)
                    kick_others(call)
                raise

        return guard

    def make_body(index: int, call: GuardedCall):
        run = functools.partial(call.fn, call.monitor)

        def body(*args, **kwargs):
            if taken.test_and_set():
                return SKIPPED
            try:
                result = run(*args, **kwargs)
            except BaseException as exc:
                winner_future.set_exception(exc)
                raise
            finally:
                kick_others(call)
            winner_future.set_result((index, result))
            return (index, result)

        return body

    for index, call in enumerate(calls):
        _submit(call, make_guard(call), make_body(index, call))
    # per-task futures are dropped: results resolve via winner_future and
    # losers drain as SKIPPED
    return winner_future
