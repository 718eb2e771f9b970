"""Instrumentation counters and phase timers.

The paper's evaluation reports (beyond wall-clock runtime):

* number of context switches (Fig. 2.10) — here the exact count of thread
  wakeups (``signals``) plus futile wakeups (a woken thread whose predicate
  turned false again before it re-entered the monitor);
* number of predicate evaluations and false evaluations of global conditions
  (Fig. 4.8);
* CPU-usage breakdown across await / lock / relay-signal / tag-management
  phases (Table 2.1).

Counters are plain ints mutated while the caller already holds the monitor
lock (or with a tiny dedicated lock for cross-monitor aggregation), so the
instrumentation cost is a handful of integer adds per monitor operation.
The monitor hot path bumps counters by direct attribute increment
(``metrics.signals += 1``) rather than through :meth:`Metrics.bump` — the
string-keyed ``getattr``/``setattr`` pair costs more than the increment
itself; ``bump``/``add`` remain for cold call sites and tests.

Free-threading contract (audited for the no-GIL lane, see the atomicity
table in docs/performance.md): a direct ``+= 1`` is a read-modify-write
and was never atomic on its own, under the GIL or not — every direct
increment in the tree is therefore *locked by construction*, just not by
this module: per-monitor counters are only bumped while the bumping thread
holds that monitor's lock (mutual exclusion is GIL-independent), and the
few lock-free counters (the SC queue's ``steal_batches``/``steal_items``)
are single-writer by the queue's consumer contract with racy advisory
reads.  Call sites outside any lock must use :meth:`Metrics.add`, which
takes the instance lock on every build.  ``snapshot``/``merge_from`` are
locked, so cross-thread aggregation tears nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Metrics:
    """A bundle of event counters; one per monitor plus one global."""

    signals: int = 0            #: single-thread signals issued (relay rule)
    broadcasts: int = 0         #: signalAll-style broadcasts (baseline mode)
    wakeups: int = 0            #: threads that actually woke from a wait
    futile_wakeups: int = 0     #: wakeups whose predicate was false on re-entry
    waits: int = 0              #: wait_until calls that actually blocked
    predicate_evals: int = 0    #: closure-predicate evaluations
    tag_checks: int = 0         #: tag-index probes
    false_evals: int = 0        #: global-condition evaluations that were false
    tasks_submitted: int = 0    #: ActiveMonitor task submissions
    tasks_combined: int = 0     #: tasks executed by a combiner (not the server)
    steal_batches: int = 0      #: queue batch-steals by the executor (Fig. 3.2)
    steal_items: int = 0        #: tasks moved by those steals (items/batch ratio)
    gen_skips: int = 0          #: relay shared-expression evaluations served
                                #: from a generation memo — skipped work (reads
                                #: 0 in global_condition_metrics, which keeps
                                #: the field for the e2e tracer)
    relay_dirty_skips: int = 0  #: parked untagged waiters a relay search did
                                #: *not* re-evaluate because no variable in
                                #: their read set was written since they last
                                #: evaluated false (dependency filtering)
    relay_buckets_scanned: int = 0  #: read-set buckets flushed into the
                                    #: eligible queue by write tracking (one
                                    #: per dirtied variable with parked readers)
    relay_skipped_aot: int = 0  #: always 0; kept because the e2e
                                #: benchmark's tracer reads it
    relay_aot_fallbacks: int = 0  #: always 0; kept for the same reader
    stm_commits: int = 0        #: STM transactions committed
    stm_aborts: int = 0         #: STM transactions aborted/retried
    wait_timeouts: int = 0      #: bounded waits that expired (WaitTimeoutError)
    wait_cancels: int = 0       #: waits abandoned via CancelToken
    server_restarts: int = 0    #: supervised server threads restarted after death
    futures_failed_fast: int = 0  #: futures failed immediately on server death
                                  #: or monitor poisoning instead of hanging

    # Phase timers (seconds), populated only when Config.phase_timing is on.
    await_time: float = 0.0
    lock_time: float = 0.0
    relay_time: float = 0.0
    tag_time: float = 0.0

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, name: str, amount: int = 1) -> None:
        """Thread-safe increment, for call sites outside any monitor lock."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def bump(self, name: str, amount: int = 1) -> None:
        """Unsynchronized increment, for call sites holding the monitor lock."""
        setattr(self, name, getattr(self, name) + amount)

    def add_time(self, phase: str, seconds: float) -> None:
        with self._lock:
            setattr(self, phase, getattr(self, phase) + seconds)

    def snapshot(self) -> dict[str, float]:
        """Return a plain-dict copy of every counter and timer."""
        with self._lock:
            return {k: getattr(self, k) for k in self._FIELDS}

    _FIELDS = (
        "signals", "broadcasts", "wakeups", "futile_wakeups",
        "waits", "predicate_evals", "tag_checks", "false_evals",
        "tasks_submitted", "tasks_combined",
        "steal_batches", "steal_items", "gen_skips",
        "relay_dirty_skips", "relay_buckets_scanned",
        "relay_skipped_aot", "relay_aot_fallbacks",
        "stm_commits", "stm_aborts",
        "wait_timeouts", "wait_cancels",
        "server_restarts", "futures_failed_fast",
        "await_time", "lock_time", "relay_time", "tag_time",
    )

    def reset(self) -> None:
        with self._lock:
            for k in self._FIELDS:
                setattr(self, k, 0 if isinstance(getattr(self, k), int) else 0.0)

    def merge_from(self, other: "Metrics") -> None:
        """Accumulate ``other``'s counters into this one."""
        snap = other.snapshot()
        with self._lock:
            for k, v in snap.items():
                setattr(self, k, getattr(self, k) + v)


class PhaseTimer:
    """Context manager attributing elapsed time to a metrics phase.

    Used to regenerate Table 2.1's await / lock / relay-signal / tag-manager
    CPU breakdown.  A no-op (single branch) when timing is disabled.

    Hot paths do not construct a disabled PhaseTimer per operation: they
    branch on ``ConfigSnapshot.phase_timing`` and only instantiate a timer
    when timing is on, or enter the shared :data:`NULL_PHASE_TIMER`, so the
    timing-off fast path allocates nothing.
    """

    __slots__ = ("_metrics", "_phase", "_enabled", "_start")

    def __init__(self, metrics: Metrics, phase: str, enabled: bool = True):
        self._metrics = metrics
        self._phase = phase
        self._enabled = enabled
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        if self._enabled:
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._enabled:
            self._metrics.add_time(self._phase, time.perf_counter() - self._start)


class _NullPhaseTimer:
    """Allocation-free stand-in for a disabled :class:`PhaseTimer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: Shared no-op timer; ``with NULL_PHASE_TIMER:`` costs two cheap calls and
#: zero allocations.
NULL_PHASE_TIMER = _NullPhaseTimer()


def phase_timer(metrics: Metrics, phase: str, enabled: bool):
    """Return a timer for ``with`` without allocating when disabled."""
    return PhaseTimer(metrics, phase) if enabled else NULL_PHASE_TIMER


#: Process-global aggregate; individual monitors keep their own ``Metrics``
#: and benchmarks merge them here (or read them per-monitor).
global_metrics = Metrics()
