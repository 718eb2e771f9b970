"""Global-condition waiters: their records, and the involved table.

A global wait reaches the monitors it involves through their relays.  At
each park :func:`register` builds one waiterless record per monitor that
must check the wait (:meth:`GlobalWaiter.prepare` says which, per
strategy), all sharing one claim; ``Multisynch._release_all`` registers
each in its monitor's condition manager right after that monitor's own
relay.  Every later section end of the monitor runs the relay, which finds
a record whose predicate holds through the tag index and the dependency
buckets and delivers it: the global waiter's event is set.  A monitor no
global wait checks runs no code of this layer on exit.

Each monitor also keeps the *involved table*: every waiter whose predicate
involves the monitor, whatever the strategy.  Poisoning wakes them all
from it (a CC waiter holds no record on an off-clause monitor), and the
Inspector counts them.  Evaluations that come back false are counted as
*false evaluations* only on the waiter side (a wakeup whose full predicate
re-check fails), which is the quantity Fig. 4.8 plots.
"""

from __future__ import annotations

from repro.core.monitor import Monitor
from repro.core.waiter import AsyncWaiter
from repro.multi.strategies import STRATEGIES, GlobalWaiter
from repro.runtime.atomics import AtomicFlag
from repro.runtime.metrics import Metrics

#: process-global aggregate of global-condition activity
global_condition_metrics = Metrics()

#: the involved table: every waiter whose predicate involves the monitor
_TABLE_ATTR = "_repro_global_waiters"


def _on_monitor_exit(monitor: Monitor) -> None:
    """Retired: exits reach global waiters through the relay's records.

    Nothing calls it; the name stays because the end-to-end benchmark's
    tracer wraps it (its ``multi.exit_hook`` span reads n = 0)."""


def _on_monitor_broken(monitor: Monitor) -> None:
    """Poisoning hook: wake every global waiter involving this monitor.

    Runs under the broken monitor's lock (from ``mark_broken``).  The woken
    threads re-acquire their full lock set, deregister, observe the broken
    monitor, and raise :class:`BrokenMonitorError` — instead of sleeping on
    a condition that can no longer legally become true.
    """
    table = getattr(monitor, _TABLE_ATTR, None)
    if not table:
        return
    for waiter in list(table):
        waiter.signal()


def register(waiter: GlobalWaiter) -> dict:
    """Install ``waiter`` in the involved table of every involved monitor
    and build this park's records; return them by monitor.

    Caller holds all involved locks (so each per-monitor table mutation is
    protected by that monitor's own lock)."""
    predicates = waiter.prepare()
    for monitor in waiter.monitors:
        table = getattr(monitor, _TABLE_ATTR, None)
        if table is None:
            table = []
            setattr(monitor, _TABLE_ATTR, table)
            monitor._break_hooks.append(_on_monitor_broken)
        table.append(waiter)
    signal = waiter.signal

    def deliver(outcome) -> None:
        signal()
        global_condition_metrics.add("signals")

    claim = AtomicFlag()   # the first delivery of this park wins
    waiter.records = records = {}
    for monitor, predicate in predicates.items():
        record = records[monitor] = AsyncWaiter(predicate, deliver)
        record.claimed = claim
    return records


def deregister(waiter: GlobalWaiter) -> None:
    """Remove ``waiter`` from every table and unlink its records (caller
    holds all locks)."""
    for monitor in waiter.monitors:
        try:
            getattr(monitor, _TABLE_ATTR).remove(waiter)
        except ValueError:
            pass
    for monitor, record in waiter.records.items():
        monitor._cond_mgr._deregister(record)


def validate_strategy(strategy: str) -> str:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    return strategy
