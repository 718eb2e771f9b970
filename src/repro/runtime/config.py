"""Framework-wide configuration.

Mirrors the runtime knobs the paper exposes: whether asynchronous execution
is enabled at all (§1.6 step 3: "the user can easily disable asynchronous
executions at runtime by simply passing a flag"), the combining batch size
(§3.3.2 fixes five tasks per combining turn), the per-server bounded-queue
capacity, and the cap on monitor server threads (§3.3.4).

Hot paths never call :func:`get_config` per operation.  Every public-field
assignment on :class:`Config` bumps a process-global *generation* counter,
and :func:`config_snapshot` returns an immutable, slotted
:class:`ConfigSnapshot` that is rebuilt only when the generation moved.
Monitor enter/exit, relay signaling, and the combining loop read the
snapshot: one global load + one integer compare in the common case, zero
allocations (see docs/performance.md).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.runtime.atomics import AtomicCounter


def _hardware_threads() -> int:
    return os.cpu_count() or 1


#: Bumped on every public-field assignment of any :class:`Config`; snapshot
#: caches validate against it.  The *draw* goes through the explicit
#: atomics layer (``_generation += 1`` was GIL-atomic only by accident of
#: never crossing a bytecode boundary — and in fact never was atomic); the
#: published module int stays a plain load for readers, who only ever
#: compare for inequality: int rebinds are atomic pointer stores on every
#: build, so a torn read is impossible and a stale read merely delays the
#: refresh by one operation.
_gen_counter = AtomicCounter(1)
_generation = 0


@dataclass
class Config:
    """Mutable runtime configuration; one process-global instance."""

    #: Master switch for delegated/asynchronous execution.  When False every
    #: ActiveMonitor behaves as a plain (synchronous) automatic-signal monitor.
    asynchronous_enabled: bool = True

    #: Number of queued tasks a combiner executes per lock acquisition
    #: (the paper's implementation uses five).
    combining_batch: int = 5

    #: Capacity of each server's single-consumer bounded task queue.
    task_queue_capacity: int = 64

    #: Upper bound on concurrently live monitor server threads.  ``None``
    #: means "derive from hardware" exactly as §3.3.4 prescribes.
    max_server_threads: int | None = None

    #: Collect phase timings (await / lock / relay / tag management).  Off by
    #: default because timers cost more than the counters.
    phase_timing: bool = False

    #: Evaluate ``waituntil`` predicates through code-generated flat
    #: closures (:mod:`repro.core.compiled`) instead of walking the
    #: Expr/Predicate object tree.  On by default; turn off to A/B the
    #: interpreter (the microbenchmarks do exactly that).
    compile_predicates: bool = True

    #: Dependency-filtered relay: monitor writes are tracked per shared
    #: variable and an exit only re-evaluates untagged waiters whose
    #: predicate read sets intersect the exit's dirty set.  On by default;
    #: turn off to A/B the exhaustive untagged scan — correctness is
    #: identical, only the amount of redundant re-evaluation changes.
    track_dependencies: bool = True

    #: Poison a monitor (``BrokenMonitorError`` for all current and future
    #: waiters/submitters, see docs/robustness.md) when an exception escapes
    #: one of its critical sections — a monitor method, ``synchronized``
    #: block, delegated task body (retries exhausted), or multisynch block.
    #: Off by default: many programs use exceptions as ordinary control flow
    #: out of monitor methods and their state stays consistent.  Timeout /
    #: cancellation / broken-monitor control-flow errors never poison.
    poison_on_exception: bool = False

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if not name.startswith("_"):
            # atomic draw + atomic publish: two racing mutations each get a
            # unique generation, and whichever publish lands last still
            # differs from every cached stamp, forcing the refresh
            global _generation
            _generation = _gen_counter.next()

    def effective_server_cap(self) -> int:
        """Resolve the server-thread cap against available hardware.

        Python server threads are parked (never spinning) when idle, so the
        floor is generous even on small machines; the paper's stricter
        hardware coupling can be restored via ``max_server_threads``.
        """
        if self.max_server_threads is not None:
            return max(0, self.max_server_threads)
        return max(8, _hardware_threads() - 1)


class ConfigSnapshot:
    """Immutable point-in-time copy of every :class:`Config` field.

    Safe to hold across a blocking wait: readers that must observe live
    updates re-fetch via :func:`config_snapshot` (cheap), while loop bodies
    deliberately hoist one snapshot per operation.
    """

    __slots__ = (
        "generation",
        "asynchronous_enabled",
        "combining_batch",
        "task_queue_capacity",
        "max_server_threads",
        "phase_timing",
        "compile_predicates",
        "track_dependencies",
        "poison_on_exception",
    )

    def __init__(self, cfg: Config, generation: int):
        self.generation = generation
        self.asynchronous_enabled = cfg.asynchronous_enabled
        self.combining_batch = cfg.combining_batch
        self.task_queue_capacity = cfg.task_queue_capacity
        self.max_server_threads = cfg.max_server_threads
        self.phase_timing = cfg.phase_timing
        self.compile_predicates = cfg.compile_predicates
        self.track_dependencies = cfg.track_dependencies
        self.poison_on_exception = cfg.poison_on_exception


_config = Config()
_snapshot: ConfigSnapshot = ConfigSnapshot(_config, _generation)


def get_config() -> Config:
    """Return the process-global configuration object (for *mutation* and
    cold reads; hot paths use :func:`config_snapshot`)."""
    return _config


def config_snapshot() -> ConfigSnapshot:
    """Return the current immutable config view, rebuilding it only when a
    field changed since the last call (generation check)."""
    global _snapshot
    snap = _snapshot
    if snap.generation != _generation:
        snap = ConfigSnapshot(_config, _generation)
        _snapshot = snap
    return snap


def config_generation() -> int:
    """The current global config generation (exposed for caches that embed
    their own validity stamp)."""
    return _generation
