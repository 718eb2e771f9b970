"""Global-condition signaling strategies: AS, AV, CC (§4.2–4.3).

When a thread blocks on a global condition it registers a
:class:`GlobalWaiter` with every monitor the condition involves.  Whenever a
thread exits one of those monitors (hook installed by the manager), the
configured strategy decides whether to wake the waiter:

* **AS** (always-signal, the evaluation's naive strawman): every exit of a
  related monitor signals every related waiter.  Never misses a signal;
  maximal false signals.
* **AV** (atomic-variable, §4.2.2): each local atom of the predicate is
  mirrored into an atomic boolean cell; on exit of monitor Mᵢ the exiting
  thread refreshes the cells of atoms local to Mᵢ (safe: it holds Mᵢ's
  lock), then evaluates the mirrored formula P̂ over cells only — if true,
  signal (Prop. 3 gives no-missed-signal).
* **CC** (critical-clause, §4.2.3): the waiter computes a critical clause
  C = ∨ Cᵢ (Algorithm 3) and installs the per-monitor local clauses; on
  exit of Mᵢ the exiting thread evaluates only Cᵢ — a pure disjunction of
  Mᵢ-local atoms — and signals when it is true (Algorithm 4, Prop. 5).
  Only the monitors with a local clause check the waiter on exit.

Complex atoms are handled conservatively in AV and CC: any exit of a
related monitor counts as potentially-true (§4.2.4).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.monitor import Monitor
from repro.multi.global_predicates import (
    ComplexPredicate,
    GAnd,
    GlobalAtom,
    GlobalNode,
    LocalPredicate,
    compute_critical,
    group_by_monitor,
)

STRATEGIES = ("AS", "AV", "CC")

#: "reads nothing yet" seed for the per-monitor read-set union
_NO_READS: frozenset = frozenset()


class GlobalWaiter:
    """One thread blocked on one global condition."""

    __slots__ = ("predicate", "strategy", "event", "monitors",
                 "cells", "mirror", "local_clauses", "checked_on",
                 "signaled", "owner", "reads_by_monitor")

    def __init__(self, predicate: GlobalNode, strategy: str):
        self.predicate = predicate
        self.strategy = strategy
        self.event = threading.Event()
        self.owner = threading.get_ident()
        self.monitors = sorted(predicate.monitors(), key=lambda m: m.monitor_id)
        #: AV state: atom -> boolean cell index; mirror formula over cells
        self.cells: dict[int, bool] = {}
        self.mirror: Optional["_MirrorNode"] = None
        #: CC state: monitor -> list of atoms (the local clause Cᵢ)
        self.local_clauses: dict[Monitor, list[GlobalAtom]] = {}
        #: the monitors whose exits check this waiter (set by ``prepare``):
        #: the clause monitors under CC, every involved monitor otherwise
        self.checked_on: list[Monitor] = []
        self.signaled = False
        #: monitor -> union of the read sets of atoms involving it, or None
        #: when some such atom is opaque/complex.  The manager's exit hook
        #: skips this waiter entirely when the exiting section's dirty set
        #: is disjoint from the exit monitor's entry — no atom local to the
        #: monitor can have changed value, under any strategy.
        self.reads_by_monitor = reads = {}
        for atom in predicate.atoms():
            if isinstance(atom, LocalPredicate):
                rs = atom.predicate.read_set()
                cur = reads.get(atom.monitor, _NO_READS)
                reads[atom.monitor] = (
                    None if rs is None or cur is None else cur | rs)
            else:  # complex atom: conservative for every involved monitor
                for mon in atom.monitors():
                    reads[mon] = None

    # -- called by the waiting thread while holding ALL involved locks --------
    def prepare(self) -> None:
        """Build the strategy's bookkeeping from the current (false) state."""
        self.event.clear()
        self.signaled = False
        if self.strategy == "CC":
            clause = compute_critical(self.predicate)
            self.local_clauses = group_by_monitor(clause)
            self.checked_on = list(self.local_clauses)
            return
        if self.strategy == "AV":
            self.mirror = _build_mirror(self.predicate, self)
            self._refresh_all_cells()
        self.checked_on = self.monitors

    def _refresh_all_cells(self) -> None:
        for atom in self.predicate.atoms():
            self.cells[id(atom)] = atom.evaluate()

    # -- called by an exiting thread holding only `monitor`'s lock ------------
    def check_on_exit(self, monitor: Monitor) -> bool:
        """Return True when the waiter should be signaled."""
        if self.signaled:
            return False
        if self.strategy == "AS":
            return True
        if self.strategy == "AV":
            for atom in self.predicate.atoms():
                if isinstance(atom, LocalPredicate) and atom.monitor is monitor:
                    self.cells[id(atom)] = atom.evaluate()
                elif isinstance(atom, ComplexPredicate) and monitor in atom.monitors():
                    self.cells[id(atom)] = True  # conservative (§4.2.4)
            return self.mirror.evaluate() if self.mirror is not None else False
        # CC: evaluate only this monitor's local critical clause Cᵢ (only
        # clause monitors check a CC waiter)
        for atom in self.local_clauses[monitor]:
            if isinstance(atom, ComplexPredicate):
                return True  # conservative
            if atom.evaluate():
                return True
        return False

    def signal(self) -> None:
        self.signaled = True
        self.event.set()


class _MirrorNode:
    """P̂: the predicate's boolean skeleton evaluated over the AV cells."""

    __slots__ = ("kind", "children", "cell_key", "waiter")

    def __init__(self, kind: str, children=(), cell_key: int = 0, waiter=None):
        self.kind = kind
        self.children = children
        self.cell_key = cell_key
        self.waiter = waiter

    def evaluate(self) -> bool:
        if self.kind == "cell":
            return self.waiter.cells.get(self.cell_key, False)
        if self.kind == "and":
            return all(c.evaluate() for c in self.children)
        return any(c.evaluate() for c in self.children)


def _build_mirror(node: GlobalNode, waiter: GlobalWaiter) -> _MirrorNode:
    if isinstance(node, GlobalAtom):
        return _MirrorNode("cell", cell_key=id(node), waiter=waiter)
    kind = "and" if isinstance(node, GAnd) else "or"
    return _MirrorNode(kind, tuple(_build_mirror(c, waiter) for c in node.children))
