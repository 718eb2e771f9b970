"""The automatic-signal monitor (AutoSynch) base class.

Subclassing :class:`Monitor` corresponds to the paper's ``monitor class``
modifier: every public method is wrapped so it runs under the monitor's
reentrant lock, and on final exit the relay signaling rule fires (signal one
waiter whose condition has become true — never a broadcast).

``wait_until(condition)`` is the paper's ``waituntil`` statement.  The
condition may be a DSL predicate built from :data:`repro.core.expressions.S`
(enabling Equivalence/Threshold tagging) or any zero/one-argument callable
(an opaque complex predicate — still correct, just untagged).

Example (Fig. 1.2 / 2.2 of the paper)::

    class BoundedQueue(Monitor):
        def __init__(self, n):
            super().__init__()
            self.items = [None] * n
            self.put_ptr = self.take_ptr = self.count = 0
            self.capacity = n

        def put(self, item):
            self.wait_until(S.count < S.capacity)
            self.items[self.put_ptr] = item
            self.put_ptr = (self.put_ptr + 1) % self.capacity
            self.count += 1

        def take(self):
            self.wait_until(S.count > 0)
            x = self.items[self.take_ptr]
            self.take_ptr = (self.take_ptr + 1) % self.capacity
            self.count -= 1
            return x
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Optional

from repro.analysis import runtime as _monlint
from repro.core.condition_manager import SIGNALING_MODES, ConditionManager
from repro.core.predicates import BoolNode, Predicate
from repro.resilience import chaos as _chaos
from repro.runtime.config import config_snapshot
from repro.runtime.errors import (
    BrokenMonitorError,
    MonitorError,
    NotOwnerError,
    WaitCancelledError,
    WaitTimeoutError,
)
from repro.runtime.ids import next_monitor_id
from repro.runtime.metrics import Metrics, PhaseTimer

#: attribute set by :func:`unmonitored` to opt a method out of auto-locking
_UNMONITORED = "_repro_unmonitored"

#: control-flow exceptions that never poison a monitor: they are raised *by*
#: the framework at well-defined points (before/instead of state mutation),
#: so the invariants cannot have been torn by them (docs/robustness.md)
_CONTROL_FLOW_EXC = (WaitTimeoutError, WaitCancelledError, BrokenMonitorError)


def unmonitored(fn: Callable) -> Callable:
    """Mark a method as *not* a critical section (no lock wrapping).

    The paper's nonblocking helpers (e.g. a lock-free ``isEmpty`` used from
    global predicates) correspond to this.
    """
    setattr(fn, _UNMONITORED, True)
    return fn


def _wrap_method(fn: Callable) -> Callable:
    """Run ``fn`` as a critical section."""
    @functools.wraps(fn)
    def wrapper(self: "Monitor", *args, **kwargs):
        self._monitor_enter()
        try:
            return fn(self, *args, **kwargs)
        except BaseException as exc:
            # §6.2.1: an exception escaping a critical section may leave the
            # invariant torn.  Opt-in poisoning marks the monitor broken so
            # every other thread fails fast instead of computing on corrupt
            # state.  The success path pays nothing for this clause.
            if (config_snapshot().poison_on_exception
                    and not isinstance(exc, _CONTROL_FLOW_EXC)):
                self.mark_broken(exc)
            raise
        finally:
            self._monitor_exit()

    setattr(wrapper, "_repro_wrapped", True)
    return wrapper


class MonitorMeta(type):
    """Wraps every public callable of a Monitor subclass with lock + relay.

    Dunder methods, names starting with ``_``, ``@unmonitored`` methods,
    static/class methods, and properties are left untouched.
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        for attr, value in list(namespace.items()):
            if attr.startswith("_"):
                continue
            if not callable(value):
                continue
            if isinstance(value, (staticmethod, classmethod, property, type)):
                continue
            if getattr(value, _UNMONITORED, False):
                continue
            if getattr(value, "_repro_wrapped", False):
                continue
            namespace[attr] = _wrap_method(value)
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class Monitor(metaclass=MonitorMeta):
    """Base class for automatic-signal monitor objects.

    Parameters
    ----------
    signaling:
        one of ``"autosynch"`` (default: relay + predicate tags),
        ``"autosynch_t"`` (relay, linear waiter scan), ``"baseline"``
        (broadcast-everyone; the strawman automatic monitor the paper's
        Figs. 2.4–2.5 show to be 10–50× slower).
    """

    def __init__(self, signaling: str = "autosynch"):
        #: names of shared variables written since the last relay flush —
        #: the current critical section's *dirty set*.  Must exist before
        #: any other attribute so ``__setattr__`` tracking is armed from
        #: the first public write (and before the ConditionManager probes
        #: for it to decide this monitor participates in tracking).
        self._dirty: set = set()
        if signaling not in SIGNALING_MODES:
            raise MonitorError(f"unknown signaling mode {signaling!r}")
        self._monitor_id = next_monitor_id()
        self._lock = threading.RLock()
        self._metrics = Metrics()
        #: also holds the section counters (``depth``, ``generation``)
        self._cond_mgr = ConditionManager(self, self._lock, self._metrics, signaling)
        #: poisoning (docs/robustness.md): the exception that broke this
        #: monitor, or None while healthy.  Read racily on the enter fast
        #: path; written only under the lock.
        self._broken: Optional[BaseException] = None
        #: callables run (with the lock held) just before the relay of a
        #: section's final lock release — an ActiveMonitor kicks its server.
        self._exit_hooks: list[Callable[["Monitor"], None]] = []
        #: callables run (with the lock held) when the monitor is marked
        #: broken — e.g. the multisynch manager waking global waiters.
        self._break_hooks: list[Callable[["Monitor"], None]] = []
        #: when inside a multisynch block, lock acquisition is redirected to
        #: the block (which may need to acquire several locks in id order).
        self._external_section = threading.local()

    # ------------------------------------------------------- write tracking
    def __setattr__(self, name: str, value) -> None:
        # Every public-attribute store is a shared-variable write (Def. 1);
        # recording it costs one set.add on the first write of a name per
        # critical section.  Underscore names are framework internals.  The
        # AttributeError guard covers stores before Monitor.__init__ ran
        # (e.g. a subclass assigning fields first).  No-GIL audit: public
        # writes happen inside the critical section (monitor lock held),
        # so the _dirty set has one mutator at a time; the relay flushes
        # it under the same lock — no GIL atomicity is assumed.
        object.__setattr__(self, name, value)
        if name[0] != "_":
            try:
                self._dirty.add(name)
            except AttributeError:
                pass

    def __delattr__(self, name: str) -> None:
        object.__delattr__(self, name)
        if name[0] != "_":
            try:
                self._dirty.add(name)
            except AttributeError:
                pass

    def _note_write(self, name: str) -> None:
        """Record a shared-variable write that bypassed attribute assignment.

        In-place container mutation (``self.items.append(x)``,
        ``self.table[k] = v``) never triggers ``__setattr__``; call this (or
        let the ``waituntil`` preprocessor insert it) so dependency-filtered
        relay still sees the write.  monlint's W007 flags bypassing writes
        whose variable some predicate reads.
        """
        try:
            self._dirty.add(name)
        except AttributeError:
            pass

    # ------------------------------------------------------------ properties
    @property
    def monitor_id(self) -> int:
        """Globally unique id; multisynch's lock order is ascending id."""
        return self._monitor_id

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    @property
    def _generation(self) -> int:
        """Read-only diagnostic view of the section generation (racy)."""
        return self._cond_mgr.generation

    # ------------------------------------------------------- section control
    def _monitor_enter(self) -> None:
        if _monlint.enabled:
            # raises LockOrderError *before* acquiring on a violation
            _monlint.on_acquire(self)
        if _chaos.enabled:
            _chaos.fire("monitor_enter", self)
        cm = self._cond_mgr
        # fast path: no allocation, one snapshot read; a PhaseTimer exists
        # only when phase timing is actually on
        if cm.depth == 0 and config_snapshot().phase_timing:
            with PhaseTimer(self._metrics, "lock_time"):
                self._lock.acquire()
        else:
            self._lock.acquire()
        cm.depth += 1
        # Checked *after* acquiring so a thread already queued on the lock
        # when the monitor breaks also fails fast; one load + branch.
        broken = self._broken
        if broken is not None:
            cm.depth -= 1
            if _monlint.enabled:
                _monlint.on_release(self)  # keep lock-order tracking balanced
            self._lock.release()
            raise BrokenMonitorError(f"{self!r} is broken", broken)

    def _monitor_exit(self) -> None:
        if _monlint.enabled:
            _monlint.on_release(self)
        cm = self._cond_mgr
        depth = cm.depth - 1
        cm.depth = depth
        if depth == 0:
            try:
                self._end_section()
                cm.relay_signal()
            finally:
                self._lock.release()
            # fires outside the lock: a kill injected here cannot wedge the
            # monitor behind a never-released lock
            if _chaos.enabled:
                _chaos.fire("monitor_exit", self)
        else:
            self._lock.release()

    def _end_section(self) -> None:
        """The exit steps: bump the generation, then run the exit hooks.

        Every lock release that ends a section takes these steps, with the
        lock still held, right before its relay: ``_monitor_exit``, a
        park in :meth:`wait_until` (its relay is ``wait_blocking``'s first
        act), the server's two batch exits and
        ``GuardedCall.try_execute``.  Multisynch's release loop inlines the
        same steps.  The generation counts ended sections for the
        Inspector's stall check; the exit hooks kick ActiveMonitor servers.
        The relay that follows is what reaches every waiter, local, asyncio
        and multisynch global alike: a release that skips it loses wakeups
        (docs/robustness.md).
        """
        self._cond_mgr.generation += 1
        for hook in self._exit_hooks:
            hook(self)

    def _owned(self) -> bool:
        # RLock exposes no owner query; acquire(blocking=False) would be
        # racy.  Track depth instead: depth>0 while some thread is inside,
        # and only the owner can observe its own depth consistently.
        return self._cond_mgr.depth > 0

    # -------------------------------------------------------------- waituntil
    @unmonitored
    def wait_until(self, condition: BoolNode | Callable[..., bool] | bool,
                   *,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None,
                   cancel=None) -> None:
        """The paper's ``waituntil(P)`` statement.

        Must be called from inside a monitor method (the lock is held).  If
        the predicate is false the thread parks; the relay rule wakes it when
        another thread makes the predicate true.

        ``timeout`` (relative seconds) / ``deadline`` (absolute
        ``time.monotonic()`` instant) bound the wait with
        :class:`WaitTimeoutError`; a :class:`~repro.resilience.CancelToken`
        passed as ``cancel`` aborts it with :class:`WaitCancelledError`.
        Abandoning a wait never loses a signal: the departing waiter re-runs
        the relay rule after deregistering (see
        ``ConditionManager.wait_blocking`` and docs/robustness.md).
        """
        cm = self._cond_mgr
        if cm.depth <= 0:
            raise NotOwnerError("wait_until called outside a monitor method")
        predicate = condition if isinstance(condition, Predicate) else Predicate(condition)
        if _monlint.enabled:
            # probe once: a predicate that mutates monitor state on
            # evaluation breaks closure (Def. 2) — fail loudly here rather
            # than corrupting relay signaling later
            _monlint.check_predicate(predicate, self)
        # Fast path — predicate already true: one evaluator call and one
        # counter increment, no Waiter, no depth juggling, nothing
        # allocated.  This is the dominant case in well-tuned programs and
        # the one the microbenchmarks gate (docs/performance.md).  The slot
        # peek skips a method call once the predicate has a compiled closure.
        ev = predicate._evaluator
        result = ev(self) if ev is not None else predicate.fast_eval(self)
        self._metrics.predicate_evals += 1
        if result:
            return
        self._park_on(predicate, timeout, deadline, cancel)

    def _park_on(self, predicate: Predicate, timeout: Optional[float] = None,
                 deadline: Optional[float] = None, cancel=None) -> None:
        """The blocking half of :meth:`wait_until`: park until
        ``predicate`` holds.  The caller holds the lock and has just
        evaluated the predicate false (and counted that evaluation)."""
        cm = self._cond_mgr
        # A waiting thread must not park inside a nested hold: the enclosing
        # section would lose its mutual exclusion while this thread sleeps,
        # or (under multisynch) sleep holding the other monitors' locks.
        # Inside a nested call (e.g. a monitor method invoked under
        # multisynch) the wait is legal only when the predicate already
        # holds — which it does in the paper's idioms, since the enclosing
        # section owns every monitor the condition reads.  Blocking waits on
        # conditions spanning the enclosing section must go through
        # ``Multisynch.wait_until`` instead.
        if cm.depth > 1:
            raise MonitorError(
                "a blocking wait_until inside a nested monitor call would "
                "deadlock; use multisynch(...).wait_until for conditions "
                "spanning an enclosing section"
            )
        # The park releases the lock, so it ends the section's writes like
        # an exit does: the exit steps run before wait_blocking's relay
        # flushes the dirty set.
        self._end_section()
        cm.depth = 0  # we are not an active holder while parked
        try:
            cm.wait_blocking(
                predicate, timeout=timeout, deadline=deadline, cancel=cancel)
        finally:
            cm.depth = 1

    # -------------------------------------------------------------- poisoning
    @property
    def broken(self) -> bool:
        """True when the monitor has been poisoned (racy read)."""
        return self._broken is not None

    @property
    def broken_cause(self) -> Optional[BaseException]:
        """The exception that poisoned the monitor, or None while healthy."""
        return self._broken

    @unmonitored
    def mark_broken(self, cause: Optional[BaseException] = None) -> bool:
        """Poison the monitor (§6.2.1, docs/robustness.md).

        Marks the state as possibly corrupt: every parked waiter is woken
        with a :class:`BrokenMonitorError` (carrying ``cause``), and every
        future entry attempt fails fast with the same.  Idempotent — the
        first cause wins; returns False when already broken.

        Called automatically by the method wrapper when
        ``Config.poison_on_exception`` is on and a non-control-flow
        exception escapes a critical section; may also be called explicitly
        by application code that detects corruption.
        """
        with self._lock:
            if self._broken is not None:
                return False
            exc = cause if cause is not None else MonitorError(
                f"{self!r} marked broken")
            self._broken = exc
            self._cond_mgr.poison_all(
                lambda: BrokenMonitorError(f"{self!r} is broken", exc))
            for hook in self._break_hooks:
                try:
                    hook(self)
                except Exception:  # a notifier must not mask the poisoning
                    pass
            return True

    @unmonitored
    def reset(self) -> Optional[BaseException]:
        """Clear a broken state after repair; returns the old cause.

        The escape hatch: the caller asserts it has restored the monitor's
        invariant (e.g. reinitialized the state in a fresh critical
        section).  The framework cannot check that claim.
        """
        with self._lock:
            cause, self._broken = self._broken, None
            return cause

    # ------------------------------------------------------------- utilities
    @unmonitored
    def signal_hint(self) -> None:
        """Explicitly run the relay rule now (rarely needed; the framework
        runs it on every monitor exit and before every wait).

        Like an exit, it signals no one while a baton is in flight: a
        thread the relay already signaled has not yet re-acquired the
        lock, and that thread relays again when it exits, re-parks or
        abandons its wait."""
        if self._cond_mgr.depth <= 0:
            raise NotOwnerError("signal_hint called outside a monitor method")
        self._cond_mgr.relay_signal()

    @unmonitored
    def waiting_count(self) -> int:
        """Number of threads currently parked in ``wait_until`` (racy read,
        intended for tests and instrumentation)."""
        return self._cond_mgr.waiting_count()

    @unmonitored
    def dump_waiters(self) -> list[str]:
        """Describe every parked predicate — the first diagnostic to check
        when a program appears wedged (racy read)."""
        return self._cond_mgr.dump_waiters()

    def __repr__(self):
        return f"<{type(self).__name__} monitor #{self._monitor_id}>"


class synchronized:
    """Context manager giving ad-hoc monitor sections on a Monitor::

        with synchronized(queue):
            queue.wait_until(S.count > 0)   # via queue.wait_until
            ...

    Equivalent to wrapping the block body in an anonymous monitor method.
    """

    __slots__ = ("_monitor",)

    def __init__(self, monitor: Monitor):
        self._monitor = monitor

    def __enter__(self) -> Monitor:
        self._monitor._monitor_enter()
        return self._monitor

    def __exit__(self, exc_type, exc, tb) -> None:
        # same poisoning discipline as the method wrapper: an ad-hoc section
        # is a critical section too
        if (exc is not None
                and config_snapshot().poison_on_exception
                and not isinstance(exc, _CONTROL_FLOW_EXC)):
            self._monitor.mark_broken(exc)
        self._monitor._monitor_exit()
