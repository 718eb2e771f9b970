"""Opt-in runtime signal-obligation checker.

The static liveness pass (``repro.analysis.liveness``, rules W010–W012)
proves at lint time that every ``wait_until`` has *some* reachable section
able to write a variable its predicate reads.  This module is its runtime
twin, for the obligations static analysis cannot see (opaque predicates,
reflective writes, config-dependent paths): an :class:`ObligationTracker`
registers each parked waiter's read set, debits writes from exiting
sections via the condition manager's per-variable write generations
(``var_gens``, the same flow that powers dependency-filtered relay), and
escalates a structured :class:`ObligationReport` when a waiter has
outlived ``generation_budget`` monitor exits with **zero debits** — the
monitor is demonstrably making progress, yet nobody has ever written
anything the waiter reads.

That distinguishes obligation starvation from the
:class:`~repro.resilience.watchdog.StallWatchdog`'s quiet-monitor stalls:
the watchdog fires when *nothing* moves; the tracker fires when the world
moves but a waiter's variables never do — the runtime signature of an
undischargeable obligation (W010's "nobody writes what you read", seen
live).

Design constraints (shared with the watchdog):

* **Off by default, zero hooks.**  The tracker is a pure polling daemon;
  it installs nothing in the monitor hot path.  Never start one and the
  cost is exactly zero.
* **Lock-free observation.**  Every read is a racy attribute load under
  the GIL; a report is a best-effort snapshot.  The tracker never
  acquires a monitor lock — it could otherwise block on the very stall it
  is diagnosing.

Candidate write sites come from the static side when available: classes
compiled with ``@monitor_compile`` carry ``_repro_write_sites`` (variable
→ writing methods), and callers may pass an explicit ``static_sites``
mapping produced by the lint pass.

Usage::

    tracker = ObligationTracker([buf], generation_budget=50,
                                on_report=lambda r: print(r))
    tracker.start()
    ...
    tracker.stop()
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["ObligationReport", "ObligationTracker", "WaiterObligation"]


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
    #: which exits serve this waiter: "direct" when the monitor's class
    #: has AOT signal plans (its planned exits reach the waiter without a
    #: tag-index probe), "relay" otherwise — so stall triage blames the
    #: right layer
    signal_path: str = "relay"

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
            f"section exits with zero debits (path={self.signal_path})"
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
class ObligationReport:
    """Everything one poll observed about starving waiters."""

    generation_budget: int
    obligations: list = field(default_factory=list)

    def describe(self) -> str:
        head = (
            f"OBLIGATION: {len(self.obligations)} waiter(s) starved for "
            f">= {self.generation_budget} monitor generations with no "
            "write to any variable they read"
        )
        return "\n".join([head] + [o.describe() for o in self.obligations])

    __str__ = describe


class ObligationTracker:
    """Poll monitors; report waiters whose obligations nobody discharges.

    ``generation_budget`` is the number of monitor-section exits a waiter
    may outlive with zero debits before escalation — generations, not
    seconds, so a busy monitor is judged by its own progress rate and an
    idle one never false-positives (no exits, no escalation; that case
    belongs to the :class:`StallWatchdog`).
    """

    def __init__(
        self,
        monitors: Iterable[Any] = (),
        *,
        generation_budget: int = 50,
        poll_interval: float = 0.1,
        on_report: Optional[Callable[[ObligationReport], None]] = None,
        static_sites: Optional[dict] = None,
    ):
        if generation_budget <= 0:
            raise ValueError("generation_budget must be > 0")
        self.generation_budget = generation_budget
        self.poll_interval = poll_interval
        self.on_report = on_report
        #: class name → variable → candidate write sites (from the static
        #: liveness pass); merged with each class's _repro_write_sites
        self.static_sites = dict(static_sites or {})
        self._monitors: list[Any] = []
        #: (id(waiter), id(predicate)) → (first_gen, first_var_gens);
        #: waiters are pooled and recycled, so id(waiter) alone could
        #: alias a new wait — the predicate id disambiguates the reuse
        self._first_seen: dict = {}
        self._reported: set = set()
        self._lock = threading.Lock()
        self._stop_evt = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.last_report: Optional[ObligationReport] = None
        self.reports: list[ObligationReport] = []
        for m in monitors:
            self.watch(m)

    # ----------------------------------------------------------------- set-up
    def watch(self, monitor: Any) -> None:
        with self._lock:
            if all(m is not monitor for m in self._monitors):
                self._monitors.append(monitor)

    def unwatch(self, monitor: Any) -> None:
        with self._lock:
            self._monitors = [m for m in self._monitors if m is not monitor]

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_evt.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obligation-tracker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_evt.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ObligationTracker":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- inspection
    def poll_once(self) -> Optional[ObligationReport]:
        """One observation pass; returns a report when starvation is seen.

        Exposed for tests and for callers that want obligation checking
        without the background thread.
        """
        found: list[WaiterObligation] = []
        with self._lock:
            monitors = list(self._monitors)
        live_keys: set = set()
        for m in monitors:
            found.extend(self._observe(m, live_keys))
        # drop state for waiters that left (satisfied, timed out, …)
        for key in list(self._first_seen):
            if key not in live_keys:
                self._first_seen.pop(key, None)
                self._reported.discard(key)
        if not found:
            return None
        report = ObligationReport(
            generation_budget=self.generation_budget, obligations=found
        )
        self.last_report = report
        self.reports.append(report)
        cb = self.on_report
        if cb is not None:
            try:
                cb(report)
            except Exception:  # observer errors must not kill the tracker
                pass
        else:
            print(report.describe(), file=sys.stderr)
        return report

    # ------------------------------------------------------------- internals
    def _run(self) -> None:
        while not self._stop_evt.wait(self.poll_interval):
            try:
                self.poll_once()
            except Exception:
                # an observation race must never kill the tracker thread
                pass

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

    def _observe(self, m: Any, live_keys: set) -> list:
        cond_mgr = getattr(m, "_cond_mgr", None)
        if cond_mgr is None:
            return []
        gen = getattr(m, "_generation", 0)
        var_gens = dict(getattr(cond_mgr, "var_gens", None) or {})
        view = getattr(cond_mgr, "obligation_view", None)
        if view is None:  # pragma: no cover — bare stand-in objects
            return []
        out: list[WaiterObligation] = []
        try:
            triples = view()
        except Exception:
            return []
        for waiter, read_set, desc in triples:
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
            if read_set is None and not deltas:
                # opaque waiter on a monitor with no tracked writes at
                # all: generation movement alone proves sections run dry
                deltas = {}
            elif any(deltas.values()):
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
                signal_path=(
                    "direct" if getattr(type(m), "_repro_aot_plans", None)
                    else "relay"
                ),
            ))
        return out
