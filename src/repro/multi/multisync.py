"""The ``multisynch`` statement: multi-object mutual exclusion (§4.1).

``multisynch(a, b, c)`` acquires the monitor locks of ``a``, ``b`` and ``c``
in ascending monitor-id order — the system, not the programmer, decides the
locking order, eliminating deadlocks from inconsistent ordering (assuming,
as the paper does, that all multi-object acquisitions go through multisynch
and blocks do not nest).

Inside the block, :meth:`Multisynch.wait_until` accepts a *global predicate*
(a boolean combination of per-monitor local predicates, see
:mod:`repro.multi.global_predicates`).  While parked, the thread holds no
locks; re-acquisition follows the same ascending order.  Signaling follows
the configured strategy (AS / AV / CC): each park registers one record in
the condition manager of every monitor that must check the wait, right
after that monitor's relay in the park's release, and those monitors'
relays wake the waiter (:mod:`repro.multi.manager`).

Fast-path structure (the same monitor sets are re-acquired in loops):

* ``_flatten`` caches the flattened, dedup-checked, id-sorted monitor tuple
  keyed by the object identities of the collected arguments, so a repeated
  ``multisynch(a, b)`` — or ``multisynch([a, b])``, which keys the same —
  skips the dedupe/sort entirely.  Cached values hold strong references,
  which pins the ``id()`` keys for the entry's lifetime (no stale-identity
  hits); the cache is bounded and cleared on overflow.
* :class:`MonitorSet` (``monitor_set(a, b)``) makes the caching explicit:
  flatten once, then ``with ms.synch():`` re-acquires the precomputed tuple
  with no argument walking at all.
* Each cache entry and each MonitorSet carries the block's monitors as a
  frozenset too, so ``wait_until``'s coverage check is one subset test
  against the predicate's own cached monitor set.
* ``wait_until`` evaluates the condition directly, once on entry and once
  after each wakeup, with every lock held; it keeps no memo across a park.

Example (the paper's Fig. 1.5)::

    with multisynch(src, dst) as ms:
        ms.wait_until(local(src, S.count > 0) & local(dst, S.count < S.capacity))
        dst.put(src.take())
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Iterator, Optional

from repro.analysis import runtime as _monlint
from repro.core.monitor import Monitor
from repro.multi import manager
from repro.multi.global_predicates import GlobalNode
from repro.multi.strategies import GlobalWaiter
from repro.resilience import chaos as _chaos
from repro.runtime.config import config_snapshot
from repro.runtime.errors import (
    BrokenMonitorError,
    MonitorError,
    NestedMultisynchError,
    PredicateError,
    WaitCancelledError,
    WaitTimeoutError,
)

_active = threading.local()

#: local bind of the strategy names — the __init__ hot path checks
#: membership on every block construction
_STRATEGIES = manager.STRATEGIES

#: identity-keyed flatten cache: tuple(id(arg monitors) in arg order) →
#: ``(ascending, descending, members)``: the id-sorted monitor tuples and
#: their frozenset.  Values hold strong refs, so the id() keys stay pinned
#: to these exact objects while the entry lives.
_flatten_cache: dict[tuple, tuple] = {}
_FLATTEN_CACHE_CAP = 1024
#: benchmarks/tests flip this off to measure the uncached path
_cache_enabled = True


def _collect(objs: Iterable, out: list[Monitor]) -> None:
    """Recursively gather monitors from (nested) sequences into ``out``."""
    for obj in objs:
        if isinstance(obj, Monitor):
            out.append(obj)
        elif isinstance(obj, (list, tuple)):
            _collect(obj, out)
        else:
            raise TypeError(f"multisynch expects Monitor objects, got {obj!r}")


def _flatten(objs: Iterable) -> tuple[tuple, tuple, frozenset]:
    """Accept monitors and (nested) sequences of monitors, as the paper
    allows arrays of monitor objects as multisynch parameters.  Duplicate
    references to the same monitor collapse to one acquisition; the result
    is ``(ascending, descending)`` tuples sorted by monitor id (acquisition
    / release order, §4.1) and the set they hold (``wait_until``'s coverage
    check), cached by the collected objects' identities.

    The hot shape — every argument already a Monitor — keys the cache
    straight off the argument identities, so a repeated ``multisynch(a, b)``
    is one tuple build and one dict probe.  Keying by the id of a *sequence*
    argument would be unsound (the container can die and its id be reused);
    monitor ids are pinned by the strong refs in the cached value.
    """
    enabled = _cache_enabled
    key = None
    collected: list[Monitor] | None = None
    if enabled:
        for obj in objs:
            if not isinstance(obj, Monitor):
                break
        else:
            key = tuple(map(id, objs))
            cached = _flatten_cache.get(key)
            if cached is not None:
                return cached
            collected = list(objs)
    if collected is None:
        collected = []
        _collect(objs, collected)
        if enabled:
            key = tuple(map(id, collected))
            cached = _flatten_cache.get(key)
            if cached is not None:
                return cached
    seen: dict[int, Monitor] = {}
    for m in collected:
        prior = seen.setdefault(m.monitor_id, m)
        if prior is not m:
            raise MonitorError(
                f"distinct monitors share id {m.monitor_id}: "
                f"{prior!r} and {m!r}"
            )
    ascending = tuple(seen[k] for k in sorted(seen))
    entry = (ascending, ascending[::-1], frozenset(ascending))
    if enabled and ascending:   # never cache the empty (error) shape
        if len(_flatten_cache) >= _FLATTEN_CACHE_CAP:
            _flatten_cache.clear()
        _flatten_cache[key] = entry
    return entry


class MonitorSet:
    """A pre-flattened, id-sorted monitor set for repeated acquisition.

    ``monitor_set(a, b)`` pays the flatten/dedupe/sort once; each
    ``ms.synch()`` (or ``multisynch(ms)``) then builds its block straight
    from the cached tuple.  Acquisitions still follow the global
    ascending-id order of §4.1 — a MonitorSet changes *cost*, never order.
    """

    __slots__ = ("monitors", "_rev", "_members")

    def __init__(self, *objs):
        self.monitors, self._rev, self._members = _flatten(objs)
        if not self.monitors:
            raise ValueError("monitor_set needs at least one monitor")

    def synch(self, strategy: str = "CC") -> "Multisynch":
        """Build a multisynch block over this set (use with ``with``)."""
        return Multisynch(self, strategy=strategy)

    def __len__(self) -> int:
        return len(self.monitors)

    def __iter__(self) -> Iterator[Monitor]:
        return iter(self.monitors)

    def __repr__(self):
        return f"<monitor_set {[m.monitor_id for m in self.monitors]}>"


def monitor_set(*objs) -> MonitorSet:
    """Build a :class:`MonitorSet` (sugar, mirroring :func:`multisynch`)."""
    return MonitorSet(*objs)


class Multisynch:
    """Context manager holding several monitors at once."""

    __slots__ = ("monitors", "_rev", "_members", "strategy", "_held")

    def __init__(self, *objs, strategy: str = "CC"):
        # hot shape: all-monitor args, or one list or tuple of monitors,
        # already in the flatten cache — probe inline so the repeated case
        # pays one tuple build and one dict get.  A lone sequence keys by
        # its elements, as _flatten keys what it collects.
        if _cache_enabled:
            args = objs
            if len(objs) == 1 and isinstance(objs[0], (list, tuple)):
                args = objs[0]
            for obj in args:
                if not isinstance(obj, Monitor):
                    break
            else:
                entry = _flatten_cache.get(tuple(map(id, args)))
                if entry is not None:
                    self.monitors, self._rev, self._members = entry
                    self.strategy = (
                        strategy if strategy in _STRATEGIES
                        else manager.validate_strategy(strategy)
                    )
                    self._held = False
                    return
        if len(objs) == 1 and isinstance(objs[0], MonitorSet):
            ms = objs[0]                   # precomputed fast path
            self.monitors = ms.monitors
            self._rev = ms._rev
            self._members = ms._members
        else:
            self.monitors, self._rev, self._members = _flatten(objs)
        if not self.monitors:
            raise ValueError("multisynch needs at least one monitor")
        self.strategy = (strategy if strategy in _STRATEGIES
                         else manager.validate_strategy(strategy))
        self._held = False

    # ------------------------------------------------------------- lock mgmt
    #
    # ``__enter__`` and ``_acquire_all`` inline Monitor._monitor_enter for
    # the common configuration (monlint runtime pass off, phase timing
    # off): acquire = lock + depth bump.  ``_release_all`` (the one release
    # loop: the block's exit and every park) inlines Monitor._monitor_exit:
    # depth drop and, at depth 0, the exit steps of Monitor._end_section
    # (generation bump, exit hooks), relay signal, unlock, with monlint's
    # release check and the chaos exit site behind their switches.
    # Calling the canonical methods per monitor instead makes a block cycle
    # slower (docs/performance.md).  The section counters live on the
    # condition manager.  Any change to the canonical methods in
    # repro.core.monitor must be mirrored here.
    def _acquire_all(self) -> None:
        """Re-acquire every lock (wait-loop path) — deliberately infallible.

        A waiter returning from a global-condition park still has its
        :class:`GlobalWaiter` registered, and deregistration requires all
        locks; so even a monitor that broke while we were parked is
        re-acquired here, and its brokenness surfaces *after* deregistration
        (in ``wait_until``), where the block's ``__exit__`` can release
        everything cleanly.
        """
        if _monlint.enabled or _chaos.enabled or config_snapshot().phase_timing:
            for m in self.monitors:       # ascending id
                try:
                    m._monitor_enter()
                except BrokenMonitorError:
                    # enter released before raising; re-take raw (monlint's
                    # on_acquire/on_release stayed balanced across the raise)
                    if _monlint.enabled:
                        _monlint.on_acquire(m)
                    m._lock.acquire()  # monlint: disable=W004
                    m._cond_mgr.depth += 1
        else:
            for m in self.monitors:
                m._lock.acquire()  # monlint: disable=W004
                m._cond_mgr.depth += 1
        self._held = True

    def _release_all(self, records: Optional[dict] = None) -> None:
        """Release every lock, in descending id order.  A park passes its
        records by monitor: each joins its condition manager after that
        monitor's relay, so the parking thread never evaluates them."""
        self._held = False
        monlint, chaos = _monlint.enabled, _chaos.enabled
        for m in self._rev:               # descending id
            if monlint:
                _monlint.on_release(m)
            cm = m._cond_mgr
            depth = cm.depth - 1
            cm.depth = depth
            if depth:
                m._lock.release()  # monlint: disable=W004
                continue
            try:
                # the Inspector's stall check reads the generation
                cm.generation += 1
                hooks = m._exit_hooks
                if hooks:
                    for hook in hooks:
                        hook(m)
                # _dirty forces the call even with nobody waiting: the
                # relay flush is what empties the dirty set and advances
                # the per-variable write generations the Inspector reads
                if cm.waiters or m._dirty or cm.mode == "baseline":
                    cm.relay_signal()
                if records:
                    record = records.get(m)
                    if record is not None:
                        cm.register_record(record)
            finally:
                m._lock.release()  # monlint: disable=W004
            if chaos:
                _chaos.fire("monitor_exit", m)

    def __enter__(self) -> "Multisynch":
        if getattr(_active, "block", None) is not None:
            raise NestedMultisynchError(
                "nested multisynch blocks are not supported; pass all "
                "monitors to one multisynch"
            )
        _active.block = self
        # inline _acquire_all (one frame fewer on the block-cycle hot path)
        monitors = self.monitors
        if _monlint.enabled or _chaos.enabled or config_snapshot().phase_timing:
            acquired = 0
            try:
                for m in monitors:        # ascending id
                    m._monitor_enter()
                    acquired += 1
            except BaseException:
                # a broken monitor (or injected fault) part-way through the
                # set: unwind what we hold, in descending order, so a failed
                # entry never leaves a lock behind
                for j in range(acquired - 1, -1, -1):
                    monitors[j]._monitor_exit()
                _active.block = None
                raise
        else:
            for idx, m in enumerate(monitors):
                m._lock.acquire()  # monlint: disable=W004
                m._cond_mgr.depth += 1
                broken = m._broken
                if broken is not None:
                    # raw unwind: nothing was mutated, so no generation
                    # bump, hooks, or relay — just undo the acquisitions
                    for j in range(idx, -1, -1):
                        mm = monitors[j]
                        mm._cond_mgr.depth -= 1
                        mm._lock.release()  # monlint: disable=W004
                    _active.block = None
                    raise BrokenMonitorError(f"{m!r} is broken", broken)
        self._held = True
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._release_all()
        finally:
            _active.block = None

    # -------------------------------------------------------- global waiting
    def wait_until(self, condition: GlobalNode,
                   *,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None,
                   cancel=None) -> None:
        """Block until the global condition holds (no global lock needed).

        The condition's monitors must all be covered by this multisynch
        block — otherwise its evaluation under the held locks would be
        unsound.

        ``timeout``/``deadline``/``cancel`` carry the same semantics as
        :meth:`Monitor.wait_until`.  Abandoning a global wait is simpler
        than the local case: a relay delivers a satisfied record and keeps
        searching (a record never holds the relay baton), so a timed-out
        waiter only needs to deregister — after re-acquiring all locks,
        which is also when a monitor poisoned during the park is detected
        and surfaced as :class:`BrokenMonitorError`.
        """
        if not self._held:
            raise PredicateError("wait_until outside the multisynch block")
        if not isinstance(condition, GlobalNode):
            raise PredicateError(
                "multisynch.wait_until takes a global predicate; build one "
                "with local(monitor, ...) / complex_pred(...)"
            )
        involved = condition.monitors()
        if not involved <= self._members:
            missing = sorted(m.monitor_id for m in involved - self._members)
            raise PredicateError(
                f"global predicate involves monitors {missing} not held by "
                "this multisynch block"
            )
        if condition.evaluate():
            return
        gm = manager.global_condition_metrics
        if timeout is not None:
            t = time.monotonic() + timeout
            deadline = t if deadline is None else min(deadline, t)
        if cancel is not None and cancel.cancelled():
            gm.add("wait_cancels")
            raise WaitCancelledError(
                "global wait cancelled before parking", cancel.reason)
        waiter = GlobalWaiter(condition, self.strategy)
        wake_cb = None
        if cancel is not None:
            # Event.set is safe from any thread and idempotent; the woken
            # loop observes the token after deregistering.
            wake_cb = waiter.event.set
            cancel.add_callback(wake_cb)
        try:
            while True:
                self._release_all(manager.register(waiter))
                if deadline is None:
                    waiter.event.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining > 0:
                        waiter.event.wait(remaining)
                # cleared on waking, not at the next park: a cancel that
                # fires from here on still sets it for that park
                waiter.event.clear()
                self._acquire_all()
                manager.deregister(waiter)
                broken = next(
                    (m for m in self.monitors if m._broken is not None), None)
                if broken is not None:
                    raise BrokenMonitorError(
                        f"{broken!r} was marked broken during a global wait",
                        broken._broken)
                if condition.evaluate():
                    return
                gm.false_evals += 1
                if cancel is not None and cancel.cancelled():
                    gm.add("wait_cancels")
                    raise WaitCancelledError(
                        "global wait cancelled", cancel.reason)
                if deadline is not None and time.monotonic() >= deadline:
                    gm.add("wait_timeouts")
                    raise WaitTimeoutError(
                        f"global wait on {condition!r} timed out")
        finally:
            if wake_cb is not None:
                cancel.remove_callback(wake_cb)

    def __repr__(self):
        ids = [m.monitor_id for m in self.monitors]
        return f"<multisynch {ids} strategy={self.strategy}>"


#: Build a :class:`Multisynch` block (use with ``with``).  An alias of the
#: class, not a wrapper function, so the block-cycle hot path pays no extra
#: call frame.
multisynch = Multisynch


def current_multisynch() -> Multisynch | None:
    """The multisynch block active on this thread, if any."""
    return getattr(_active, "block", None)
