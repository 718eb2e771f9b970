"""Per-monitor registry of global-condition waiters + the signaling rule.

Each monitor keeps two tables of global waiters.  The *check table* is
Algorithm 4's: the waiters an exit of the monitor must check.  Under CC it
holds only the waiters whose current critical clause has a local clause on
the monitor (Prop. 5: only an exit of a clause monitor can make the clause
true); under AS and AV it holds every waiter whose predicate involves the
monitor.  The *involved table* holds every waiter whose predicate involves
the monitor, whatever the strategy: poisoning wakes them all, and the
Inspector counts them.

The manager installs an exit hook on every involved monitor; the hook runs
while the exiting thread still holds that monitor's lock, asks each waiter
in the check table whether to wake (AS / AV / CC), and signals at most the
waiters whose check passes.  Evaluations that come back false are counted
as *false evaluations* only on the waiter side (a wakeup whose full
predicate re-check fails), which is the quantity Fig. 4.8 plots.
"""

from __future__ import annotations

import threading
from repro.core.monitor import Monitor
from repro.multi.strategies import STRATEGIES, GlobalWaiter
from repro.runtime.config import config_snapshot
from repro.runtime.metrics import Metrics

#: process-global aggregate of global-condition activity
global_condition_metrics = Metrics()

_HOOK_ATTR = "_repro_global_hook_installed"
#: the involved table: every waiter whose predicate involves the monitor
_TABLE_ATTR = "_repro_global_waiters"
#: the check table: the waiters an exit of the monitor checks
_CHECK_ATTR = "_repro_global_checks"


def _table(monitor: Monitor, attr: str) -> list[GlobalWaiter]:
    table = getattr(monitor, attr, None)
    if table is None:
        table = []
        setattr(monitor, attr, table)
    return table


def _ensure_hook(monitor: Monitor) -> None:
    if getattr(monitor, _HOOK_ATTR, False):
        return
    setattr(monitor, _HOOK_ATTR, True)
    monitor._exit_hooks.append(_on_monitor_exit)
    monitor._break_hooks.append(_on_monitor_broken)


def _on_monitor_exit(monitor: Monitor) -> None:
    """Algorithm 4: before releasing Mᵢ, check related global conditions.

    Exit hooks run *before* the relay flush, so ``monitor._dirty`` is still
    exactly the exiting section's write set: a waiter whose per-monitor read
    set is disjoint from it cannot have been enabled by this exit (no atom
    local to the monitor changed value), and is skipped without a strategy
    check — under AS this eliminates the wakeup (and its false evaluation)
    outright.
    """
    table = getattr(monitor, _CHECK_ATTR, None)
    if not table:
        return
    m = global_condition_metrics
    me = threading.get_ident()
    dirty = monitor._dirty
    track = config_snapshot().track_dependencies
    # no copy: the tables change only under every involved lock, and this
    # hook holds the monitor's
    for waiter in table:
        if waiter.owner == me:
            # a thread releasing its own locks on the way into a wait must
            # not signal itself (would livelock the AS strategy)
            continue
        if track:
            reads = waiter.reads_by_monitor.get(monitor)
            if reads is not None and (not dirty or reads.isdisjoint(dirty)):
                m.relay_dirty_skips += 1
                continue
        m.predicate_evals += 1  # direct increment: runs on every monitor exit
        if waiter.check_on_exit(monitor):
            waiter.signal()
            m.bump("signals")


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


def register(waiter: GlobalWaiter) -> None:
    """Install ``waiter`` in the involved table of every involved monitor
    and in the check table of each monitor in ``waiter.checked_on``, which
    ``prepare`` recomputes at every park.

    Caller holds all involved locks (so each per-monitor table mutation is
    protected by that monitor's own lock)."""
    waiter.prepare()
    for monitor in waiter.monitors:
        _ensure_hook(monitor)
        _table(monitor, _TABLE_ATTR).append(waiter)
    for monitor in waiter.checked_on:
        _table(monitor, _CHECK_ATTR).append(waiter)


def _remove(monitor: Monitor, attr: str, waiter: GlobalWaiter) -> None:
    table = getattr(monitor, attr, None)
    if table is not None:
        try:
            table.remove(waiter)
        except ValueError:
            pass


def deregister(waiter: GlobalWaiter) -> None:
    """Remove ``waiter`` from every table (caller holds all locks)."""
    for monitor in waiter.monitors:
        _remove(monitor, _TABLE_ATTR, waiter)
    for monitor in waiter.checked_on:
        _remove(monitor, _CHECK_ATTR, waiter)


def validate_strategy(strategy: str) -> str:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    return strategy
