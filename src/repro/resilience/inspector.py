"""Opt-in liveness inspector: stalled monitors and unmet signal obligations.

A deadlock or lost-signal bug in a monitor program usually presents as
"the test hangs" — zero information.  The :class:`Inspector` turns that
into a structured report.  Both of its checks watch what the relay rule
maintains (Def. 2, Prop. 2): parked waiters, the read sets of their
predicates, and the monitor's per-variable write generations.  Each
poll takes one snapshot per watched monitor and classifies it twice:

* a **stall** (:class:`MonitorStall`) is the *quiet* failure: the
  monitor's ``_generation`` counter, which the core bumps on every
  section exit, has not moved for ``quiet_period`` seconds while
  waiters are parked or a server backlog is queued — nothing moves at
  all;
* an **unmet obligation** (:class:`WaiterObligation`) is the *busy*
  failure: a parked waiter has outlived ``generation_budget`` section
  exits while no exit wrote any variable its predicate reads (debits
  come from the condition manager's ``var_gens``, the same flow that
  powers dependency-filtered relay).  The monitor is demonstrably making
  progress, yet nobody writes what the waiter reads — monlint W010
  observed live, for the obligations static analysis cannot see (opaque
  predicates, reflective writes, config-dependent paths).

The obligation budget is counted in generations, not seconds, so a busy
monitor is judged by its own progress rate and an idle one never
false-positives: no exits, no obligation report — that case is a stall.

Design constraints:

* **Off by default, zero hooks.**  The inspector is a pure polling
  daemon thread; it installs nothing in the monitor hot path.  When you
  never start one, the cost is exactly zero.
* **Lock-free observation.**  Every read is a racy attribute load
  (generation counters, waiter lists, queue lengths).  A report is a
  best-effort snapshot — the inspector must never acquire a monitor
  lock, or it could itself block on the stall it is diagnosing.

Candidate write sites come from the static side when available: classes
compiled with ``@monitor_compile`` carry ``_repro_write_sites`` (variable
→ writing methods), and callers may pass an explicit ``static_sites``
mapping produced by the lint pass.

Usage::

    inspector = Inspector([buf, rw], quiet_period=2.0, generation_budget=50,
                          on_report=lambda r: print(r))
    inspector.start()
    ...
    inspector.stop()
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["Inspector", "InspectorReport", "MonitorStall", "WaiterObligation"]


@dataclass
class MonitorStall:
    """Snapshot of one stalled monitor."""

    monitor_id: int
    monitor_class: str
    generation: int
    quiet_seconds: float        #: time since the generation last moved
    depth: int                  #: reentrancy depth of the current holder (racy)
    broken: bool                #: poisoned via mark_broken()
    waiters: list[str]          #: one description per parked local waiter
                                #: (includes each predicate's read set)
    global_waiters: int         #: parked multisynch global-condition waiters
    queue_depth: Optional[int]  #: server task-queue backlog (active monitors)
    pending: Optional[int]      #: tasks stolen but not yet executed
    server_alive: Optional[bool]
    var_gens: dict = field(default_factory=dict)
    """Per-variable write generations at snapshot time.  Cross-reference
    with the waiters' read sets: a parked predicate whose read variables
    all show generation 0 is waiting on state nobody has ever written."""

    def describe(self) -> str:
        bits = [
            f"monitor #{self.monitor_id} {self.monitor_class}: "
            f"generation {self.generation} quiet for {self.quiet_seconds:.1f}s"
        ]
        if self.broken:
            bits.append("  state: BROKEN (poisoned)")
        if self.depth:
            bits.append(f"  held (depth={self.depth})")
        if self.var_gens:
            gens = " ".join(
                f"{k}={v}" for k, v in sorted(self.var_gens.items())
            )
            bits.append(f"  write generations: {gens}")
        for w in self.waiters:
            bits.append(f"  waiter: {w}")
        if self.global_waiters:
            bits.append(f"  global waiters parked: {self.global_waiters}")
        if self.queue_depth is not None:
            bits.append(
                f"  server: alive={self.server_alive} "
                f"queue={self.queue_depth} pending={self.pending}"
            )
        return "\n".join(bits)


@dataclass
class WaiterObligation:
    """One starving waiter: its obligation, and who could discharge it."""

    monitor_id: int
    monitor_class: str
    predicate: str                 #: compiled predicate source (or repr)
    read_set: Optional[tuple]      #: sorted read variables; None = opaque
    generations_outlived: int      #: monitor exits since first observed
    #: per-variable write-generation delta since first observed — all
    #: zeros is exactly "no section ever wrote what this waiter reads"
    var_deltas: dict = field(default_factory=dict)
    #: sections the static pass says *could* write a read variable
    candidate_sites: dict = field(default_factory=dict)

    @property
    def unwritten_vars(self) -> list:
        """Read variables with zero write-generation movement."""
        return sorted(v for v, d in self.var_deltas.items() if d == 0)

    def describe(self) -> str:
        reads = (
            "{" + ",".join(self.read_set) + "}"
            if self.read_set is not None else "?"
        )
        bits = [
            f"obligation unmet on monitor #{self.monitor_id} "
            f"{self.monitor_class}: waiter on {self.predicate} "
            f"reads={reads} outlived {self.generations_outlived} "
            "section exits with zero debits"
        ]
        for var in self.unwritten_vars:
            sites = self.candidate_sites.get(var)
            if sites:
                bits.append(
                    f"  {var!r}: never written; candidate writers: "
                    + ", ".join(sites)
                )
            else:
                bits.append(
                    f"  {var!r}: never written; no known write site "
                    "(statically unsatisfiable — see monlint W010)"
                )
        return "\n".join(bits)


@dataclass
class InspectorReport:
    """Everything one poll found: stalled monitors and starving waiters."""

    stalls: list[MonitorStall]
    obligations: list[WaiterObligation]
    quiet_period: float
    generation_budget: int

    def describe(self) -> str:
        lines: list[str] = []
        if self.stalls:
            lines.append(
                f"STALL: {len(self.stalls)} monitor(s) made no progress for "
                f">= {self.quiet_period:.1f}s while work was outstanding"
            )
            lines += [s.describe() for s in self.stalls]
        if self.obligations:
            lines.append(
                f"OBLIGATION: {len(self.obligations)} waiter(s) starved for "
                f">= {self.generation_budget} monitor generations with no "
                "write to any variable they read"
            )
            lines += [o.describe() for o in self.obligations]
        return "\n".join(lines)

    __str__ = describe


@dataclass
class _Snapshot:
    """One racy read of a watched monitor, shared by both classifications."""

    generation: int
    var_gens: dict
    #: ``(waiter, read_set, description)`` per parked local waiter
    waiters: list
    global_waiters: int
    queue_depth: Optional[int]
    pending: Optional[int]
    server_alive: Optional[bool]

    @classmethod
    def take(cls, m: Any) -> "_Snapshot":
        # generation before write generations: a write seen in var_gens
        # but not yet in the generation can only debit an obligation
        generation = getattr(m, "_generation", 0)
        cond_mgr = getattr(m, "_cond_mgr", None)
        var_gens = dict(getattr(cond_mgr, "var_gens", None) or {})
        waiters: list = []
        if cond_mgr is not None:
            try:
                waiters = cond_mgr.obligation_view()
            except Exception:  # racy read of a live structure
                pass
        global_table = getattr(m, "_repro_global_waiters", None)
        server = getattr(m, "_server", None)
        queue_depth = pending = server_alive = None
        if server is not None:
            try:
                queue_depth = len(server.queue)
                pending = len(server.pending)
                server_alive = server.alive
            except Exception:
                pass
        return cls(generation, var_gens, waiters,
                   len(global_table) if global_table else 0,
                   queue_depth, pending, server_alive)


class Inspector:
    """Poll monitors; report stalls and waiters whose obligations nobody
    discharges.

    A stall is reported within ``quiet_period`` plus one poll; an
    obligation once its waiter has outlived ``generation_budget`` section
    exits with zero debits.  Each stall episode and each starving waiter
    is reported once.  ``static_sites`` maps class name → variable →
    candidate write sites (from the static liveness pass) and is merged
    with each class's ``_repro_write_sites``.
    """

    def __init__(
        self,
        monitors: Iterable[Any] = (),
        *,
        quiet_period: float = 5.0,
        generation_budget: int = 50,
        poll_interval: Optional[float] = None,
        on_report: Optional[Callable[[InspectorReport], None]] = None,
        static_sites: Optional[dict] = None,
    ):
        if quiet_period <= 0:
            raise ValueError("quiet_period must be > 0")
        if generation_budget <= 0:
            raise ValueError("generation_budget must be > 0")
        self.quiet_period = quiet_period
        self.generation_budget = generation_budget
        self.poll_interval = (
            poll_interval if poll_interval is not None
            else max(0.05, quiet_period / 4.0)
        )
        self.on_report = on_report
        self.static_sites = dict(static_sites or {})
        self._monitors: list[Any] = []
        self._last_gen: dict[int, tuple[int, float]] = {}  # id -> (gen, t_changed)
        self._stalled: set[int] = set()  # monitors reported this quiet episode
        #: (id(waiter), id(predicate)) → (first_gen, first_var_gens);
        #: waiters are pooled and recycled, so id(waiter) alone could
        #: alias a new wait — the predicate id disambiguates the reuse
        self._first_seen: dict = {}
        self._reported: set = set()  # waiter keys already reported
        self._lock = threading.Lock()
        self._stop_evt = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.last_report: Optional[InspectorReport] = None
        self.reports: list[InspectorReport] = []
        for m in monitors:
            self.watch(m)

    # ----------------------------------------------------------------- set-up
    def watch(self, monitor: Any) -> None:
        """Add a monitor (plain or active) to the watch set."""
        with self._lock:
            if all(m is not monitor for m in self._monitors):
                self._monitors.append(monitor)

    def unwatch(self, monitor: Any) -> None:
        with self._lock:
            self._monitors = [m for m in self._monitors if m is not monitor]
            self._last_gen.pop(id(monitor), None)
            self._stalled.discard(id(monitor))

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_evt.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-inspector", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_evt.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "Inspector":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- inspection
    def poll_once(self) -> Optional[InspectorReport]:
        """Run one observation pass; returns a report when a stall or an
        unmet obligation is seen.

        Exposed for tests and for callers that want inspector semantics
        without the background thread.
        """
        now = time.monotonic()
        stalls: list[MonitorStall] = []
        obligations: list[WaiterObligation] = []
        live_keys: set = set()
        with self._lock:
            monitors = list(self._monitors)
        for m in monitors:
            snap = _Snapshot.take(m)
            stall = self._stall(m, snap, now)
            if stall is not None:
                stalls.append(stall)
            obligations += self._obligations(m, snap, live_keys)
        # drop state for waiters that left (satisfied, timed out, …)
        for key in list(self._first_seen):
            if key not in live_keys:
                self._first_seen.pop(key, None)
                self._reported.discard(key)
        if not stalls and not obligations:
            return None
        report = InspectorReport(
            stalls, obligations, self.quiet_period, self.generation_budget)
        self.last_report = report
        self.reports.append(report)
        cb = self.on_report
        if cb is not None:
            try:
                cb(report)
            except Exception:  # observer errors must not kill the inspector
                pass
        else:
            print(report.describe(), file=sys.stderr)
        return report

    # ------------------------------------------------------------------ internals
    def _run(self) -> None:
        while not self._stop_evt.wait(self.poll_interval):
            try:
                self.poll_once()
            except Exception:
                # An observation race must never kill the inspector thread.
                pass

    def _stall(self, m: Any, snap: _Snapshot, now: float
               ) -> Optional[MonitorStall]:
        key = id(m)
        prev = self._last_gen.get(key)
        if prev is None or prev[0] != snap.generation:
            self._last_gen[key] = (snap.generation, now)
            self._stalled.discard(key)
            return None
        quiet = now - prev[1]
        if quiet < self.quiet_period or key in self._stalled:
            return None
        if not (snap.waiters or snap.global_waiters or snap.queue_depth
                or snap.pending):
            # Quiet but idle: nothing is waiting, so nothing is stalled.
            return None
        self._stalled.add(key)
        return MonitorStall(
            monitor_id=getattr(m, "monitor_id", -1),
            monitor_class=type(m).__name__,
            generation=snap.generation,
            quiet_seconds=quiet,
            depth=getattr(getattr(m, "_cond_mgr", None), "depth", 0),
            broken=getattr(m, "_broken", None) is not None,
            waiters=[desc for _, _, desc in snap.waiters],
            global_waiters=snap.global_waiters,
            queue_depth=snap.queue_depth,
            pending=snap.pending,
            server_alive=snap.server_alive,
            var_gens=snap.var_gens,
        )

    def _candidate_sites(self, monitor: Any, variables) -> dict:
        """variable → human-readable candidate write sites, merging the
        preprocessor's per-class summary with any static-pass input."""
        cls_name = type(monitor).__name__
        compiled_sites = getattr(type(monitor), "_repro_write_sites", None) or {}
        static = self.static_sites.get(cls_name, {})
        out: dict = {}
        for var in variables:
            sites = [f"{cls_name}.{m}()" for m in compiled_sites.get(var, [])]
            sites += [s for s in static.get(var, []) if s not in sites]
            if sites:
                out[var] = sites
        return out

    def _obligations(self, m: Any, snap: _Snapshot, live_keys: set) -> list:
        gen, var_gens = snap.generation, snap.var_gens
        out: list[WaiterObligation] = []
        for waiter, read_set, desc in snap.waiters:
            pred = getattr(waiter, "predicate", None)
            key = (id(waiter), id(pred))
            live_keys.add(key)
            names = sorted(read_set) if read_set is not None else sorted(var_gens)
            first = self._first_seen.get(key)
            if first is None:
                self._first_seen[key] = (
                    gen, {n: var_gens.get(n, 0) for n in names}
                )
                continue
            first_gen, first_gens = first
            outlived = gen - first_gen
            if outlived < self.generation_budget or key in self._reported:
                continue
            deltas = {
                n: var_gens.get(n, 0) - first_gens.get(n, 0) for n in names
            }
            if any(deltas.values()):
                continue  # somebody wrote a read variable: debited
            self._reported.add(key)
            pred_desc = desc
            describe = getattr(pred, "describe", None)
            if describe is not None:
                try:
                    pred_desc = describe()
                except Exception:
                    pass
            out.append(WaiterObligation(
                monitor_id=getattr(m, "monitor_id", -1),
                monitor_class=type(m).__name__,
                predicate=pred_desc,
                read_set=tuple(sorted(read_set)) if read_set is not None else None,
                generations_outlived=outlived,
                var_deltas=deltas,
                candidate_sites=self._candidate_sites(m, deltas),
            ))
        return out
