"""Guarded monitor calls: the operands of composition operators (§5.1).

A *guarded monitor method* (Def. 13) has its only ``waituntil`` at the very
top — i.e. a precondition plus a body.  Methods declared with
``@synchronous(pre=...)`` / ``@asynchronous(pre=...)`` are guarded by
construction; plain Monitor methods are guarded with a tautological
precondition.

:func:`bind` packages a *deferred* invocation — monitor, body, precondition,
arguments — without executing it::

    op = bind(q1.put, item)          # does NOT run put
    or_(bind(q1.put, item), bind(q2.put, item))   # Fig. 1.7's putInAQueue
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.monitor import Monitor
from repro.runtime.errors import CompositionError


class GuardedCall:
    """A deferred guarded invocation of one monitor method."""

    __slots__ = ("monitor", "fn", "pre", "args", "kwargs", "name")

    def __init__(
        self,
        monitor: Monitor,
        fn: Callable[..., Any],
        pre: Optional[Callable[..., Any]],
        args: tuple = (),
        kwargs: dict | None = None,
        name: str = "",
    ):
        self.monitor = monitor
        self.fn = fn
        self.pre = pre
        self.args = args
        self.kwargs = kwargs or {}
        self.name = name or getattr(fn, "__name__", "call")

    # -- under the monitor lock -------------------------------------------------
    def pre_true(self) -> bool:
        """Evaluate the precondition; caller holds the monitor's lock."""
        if self.pre is None:
            return True
        return bool(self.pre(self.monitor, *self.args, **self.kwargs))

    def execute(self) -> Any:
        """Run the body; caller holds the lock and has verified the guard."""
        return self.fn(self.monitor, *self.args, **self.kwargs)

    def try_execute(self) -> tuple[bool, Any]:
        """Algorithm 5's per-operand step: tryLock → check guard → execute.

        Returns ``(True, result)`` on success, ``(False, None)`` when the
        lock was unavailable or the guard is false.
        """
        monitor = self.monitor
        lock = monitor._lock  # monlint: disable=W004 — try-lock probe, released immediately
        if not lock.acquire(blocking=False):
            return False, None
        cm = monitor._cond_mgr
        cm.depth += 1
        try:
            if not self.pre_true():
                return False, None
            return True, self.execute()
        finally:
            cm.depth -= 1
            try:
                if cm.depth == 0:
                    monitor._end_section()
                    cm.relay_signal()
            finally:
                lock.release()

    def __repr__(self):
        return f"<GuardedCall {self.name} on #{self.monitor.monitor_id}>"


def bind(bound_method: Callable, *args, **kwargs) -> GuardedCall:
    """Build a :class:`GuardedCall` from a bound monitor method.

    Works with ``@synchronous`` / ``@asynchronous`` guarded methods (the
    declared ``pre`` becomes the guard) and with plain auto-wrapped Monitor
    methods (tautological guard).
    """
    monitor = getattr(bound_method, "__self__", None)
    if not isinstance(monitor, Monitor):
        raise CompositionError(f"{bound_method!r} is not a bound monitor method")
    wrapper = bound_method.__func__
    raw = getattr(wrapper, "__wrapped__", None)
    if raw is None or not getattr(wrapper, "_repro_wrapped", False):
        raise CompositionError(
            f"{bound_method!r} is not a monitor method (no framework wrapper)"
        )
    pre = getattr(wrapper, "_repro_guard", None)
    return GuardedCall(monitor, raw, pre, args, kwargs,
                       name=getattr(raw, "__name__", "call"))
