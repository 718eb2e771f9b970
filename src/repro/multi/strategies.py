"""Global-condition signaling strategies: AS, AV, CC (§4.2–4.3).

When a thread blocks on a global condition, each monitor that must check
the wait gets one waiterless *record* in its condition manager (built by
:mod:`repro.multi.manager` from the predicates :meth:`GlobalWaiter.prepare`
returns).  The monitor's relay, which every section end already runs,
evaluates the record like any parked predicate and wakes the global waiter
when it holds.  What the record evaluates is the strategy:

* **AS** (always-signal, the evaluation's naive strawman): a record on
  every involved monitor that is always true.  Its read set is that of the
  monitor's atoms, so a write to one of them wakes the waiter.  Never
  misses a signal; maximal false signals.
* **AV** (atomic-variable, §4.2.2): each local atom of the predicate is
  mirrored into an atomic boolean cell; the record on monitor Mᵢ refreshes
  the cells of atoms local to Mᵢ (safe: the relay holds Mᵢ's lock), then
  evaluates the mirrored formula P̂ over cells only — if true, the waiter
  wakes (Prop. 3 gives no-missed-signal).
* **CC** (critical-clause, §4.2.3): the waiter computes a critical clause
  C = ∨ Cᵢ (Algorithm 3); the record on Mᵢ is the local clause Cᵢ — a pure
  disjunction of Mᵢ-local atoms, tag-indexed like any local predicate
  (Algorithm 4, Prop. 5).  Only the clause monitors hold a record.

AS and AV records declare the read set of their monitor's atoms, so the
relay's dependency buckets skip them on exits that wrote none of it.
Complex atoms are handled conservatively: a record whose monitor a
complex atom involves is opaque, checked on every relay search, and
counts the atom as true (§4.2.4).
"""

from __future__ import annotations

from repro.core.predicates import Atom, Or, Predicate
from repro.multi.global_predicates import (
    GAnd,
    GlobalAtom,
    GlobalNode,
    compute_critical,
    group_by_monitor,
)
from repro.runtime.parking import current_parker

STRATEGIES = ("AS", "AV", "CC")

#: "reads nothing yet" seed for the per-monitor read-set union
_NO_READS: frozenset = frozenset()


class GlobalWaiter:
    """One thread blocked on one global condition.

    A wake sets ``fired`` and unparks the waiting thread's Parker; the
    thread parks until it sees ``fired`` (or its deadline or cancel token
    fires) and clears the flag on waking."""

    __slots__ = ("predicate", "strategy", "parker", "fired", "monitors",
                 "cells", "checks", "records")

    def __init__(self, predicate: GlobalNode, strategy: str):
        self.predicate = predicate
        self.strategy = strategy
        self.parker = current_parker()
        self.fired = False
        self.monitors = sorted(predicate.monitors(), key=lambda m: m.monitor_id)
        #: AV state: id(atom) -> the atom's boolean cell
        self.cells: dict[int, bool] = {}
        #: AS / AV: each involved monitor's record predicate, built at the
        #: first park and reused by every later one
        self.checks: dict | None = None
        #: this park's records by monitor (set by ``manager.register``)
        self.records: dict = {}

    # -- called by the waiting thread while holding ALL involved locks --------
    def prepare(self) -> dict:
        """Each checking monitor's record predicate for this park, built
        from the current (false) state."""
        if self.strategy == "CC":
            clause = compute_critical(self.predicate)
            return {monitor: self._clause(atoms)
                    for monitor, atoms in group_by_monitor(clause).items()}
        checks = self.checks
        if checks is None:
            checks = self.checks = {
                monitor: Predicate(_Check(self, atoms))
                for monitor, atoms in group_by_monitor(
                    self.predicate.atoms()).items()}
        if self.strategy == "AV":
            for atom in self.predicate.atoms():
                self.cells[id(atom)] = atom.evaluate()
        return checks

    def _clause(self, atoms: list[GlobalAtom]) -> Predicate:
        """The record predicate of one local clause Cᵢ: a lone local atom's
        own predicate (its registration plan and tag evaluator stay
        cached), the disjunction of several, or an always-true opaque
        check when a complex atom is among them."""
        if any(atom.is_complex for atom in atoms):
            return Predicate(_Check(self, atoms))
        if len(atoms) == 1:
            return atoms[0].predicate
        return Predicate(Or([atom.predicate.root for atom in atoms]))

    def signal(self) -> None:
        self.fired = True
        self.parker.unpark()


class _Check(Atom):
    """The atom of an AS or AV record on one monitor, and of a CC record
    whose clause holds a complex atom.

    Its read set is the union of the read sets of ``atoms`` (the
    predicate's atoms involving the monitor), or None — checked on every
    relay search — when one of them is complex or opaque.  It evaluates
    true, except under AV: there it first refreshes the cells of
    ``atoms``, a complex one as true, and then evaluates P̂ over the cells.
    """

    __slots__ = ("waiter", "atoms", "reads")

    def __init__(self, waiter: GlobalWaiter, atoms: list[GlobalAtom]):
        self.waiter = waiter
        self.atoms = tuple(atoms)
        reads = _NO_READS
        for atom in atoms:
            rs = None if atom.is_complex else atom.predicate.read_set()
            if rs is None:
                reads = None
                break
            reads = reads | rs
        self.reads = reads

    def evaluate(self, monitor) -> bool:
        waiter = self.waiter
        if waiter.strategy != "AV":
            return True
        cells = waiter.cells
        for atom in self.atoms:
            cells[id(atom)] = atom.is_complex or atom.evaluate()
        return _over_cells(waiter.predicate, cells)

    def read_set(self):
        return self.reads

    def __repr__(self):
        return f"{self.waiter.strategy} check of {self.waiter.predicate!r}"


def _over_cells(node: GlobalNode, cells: dict[int, bool]) -> bool:
    """P̂: the predicate's boolean skeleton evaluated over the AV cells."""
    if isinstance(node, GlobalAtom):
        return cells[id(node)]
    test = all if isinstance(node, GAnd) else any
    return test(_over_cells(child, cells) for child in node.children)
