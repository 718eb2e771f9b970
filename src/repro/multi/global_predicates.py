"""Global predicates: boolean conditions spanning multiple monitors (§4.2).

A global predicate is a boolean combination of *local predicates* (each
involving exactly one monitor) and, optionally, *complex predicates*
(involving several monitors, §4.2.4).  Build them with::

    from repro.multi import local, complex_pred
    gp = local(q1, S.count > 0) & local(q2, S.count < S.capacity)
    gp2 = complex_pred([q1, q2], lambda: q1.size() > q2.size())

Evaluation of the full predicate requires holding every involved monitor's
lock; local atoms can be evaluated holding only their own monitor's lock —
that asymmetry is exactly what the atomic-variable and critical-clause
approaches exploit.  A waiting thread evaluates the full predicate afresh,
as the paper's ``waituntil`` does: once on entry and once after each
wakeup, with every lock held.  Closure (Def. 2) makes that check sound, so
no atom value is memoized across a park.

A tree is immutable once built.  Closure freezes every local value it
captured, so one predicate object may serve any number of waits on any
number of threads: its atoms compile on reuse, and each node computes its
monitor set on the first :meth:`~GlobalNode.monitors` call and returns that
same frozenset from then on.

:func:`compute_critical` implements the paper's Algorithm 3: given a global
predicate that is false in the current state, derive a *critical clause* — a
pure disjunction of local predicates that (1) is false now, (2) must become
true before the predicate can (P ⇒ C), and (3) is locally monitorable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core import compiled as _compiled
from repro.core.monitor import Monitor
from repro.core.predicates import BoolNode, Predicate
from repro.runtime.errors import PredicateError


class GlobalNode:
    """Base class of the global boolean tree."""

    __slots__ = ()

    def evaluate(self) -> bool:
        """Evaluate; caller must hold the locks of every involved monitor."""
        raise NotImplementedError

    def monitors(self) -> frozenset[Monitor]:
        raise NotImplementedError

    def negate(self) -> "GlobalNode":
        raise NotImplementedError

    def atoms(self) -> Iterable["GlobalAtom"]:
        raise NotImplementedError

    def __and__(self, other):
        return GAnd([self, _as_global(other)])

    def __or__(self, other):
        return GOr([self, _as_global(other)])

    def __invert__(self):
        return self.negate()


def _union_monitors(children: Sequence[GlobalNode]) -> frozenset[Monitor]:
    """The monitor set of a connective: computed once per node, on its first
    ``monitors()`` call (the tree never changes after construction, and a
    racing second computation stores an equal frozenset)."""
    return frozenset().union(*(c.monitors() for c in children))


def _as_global(node) -> GlobalNode:
    if isinstance(node, GlobalNode):
        return node
    raise PredicateError(f"{node!r} is not a global predicate node")


class GlobalAtom(GlobalNode):
    __slots__ = ()

    def atoms(self):
        yield self


class LocalPredicate(GlobalAtom):
    """An atom local to one monitor: evaluable under that monitor's lock."""

    __slots__ = ("monitor", "predicate", "_eval", "_monitors")

    def __init__(self, monitor: Monitor, condition: BoolNode | Callable[..., bool] | bool):
        self.monitor = monitor
        self.predicate = condition if isinstance(condition, Predicate) else Predicate(condition)
        self._eval: Callable[[Monitor], bool] | None = None
        self._monitors: frozenset[Monitor] | None = None

    def evaluate(self) -> bool:
        # global conditions are re-checked on every related monitor exit
        # (Alg. 4), so a reused atom routes through the compiled closure
        # like local waits do.  Its first evaluation is interpreted, the
        # same tiering as Predicate.fast_eval: an atom built, checked true
        # and dropped never pays for source synthesis.
        ev = self._eval
        if ev is None:
            pred = self.predicate
            if not pred._uses and not _compiled._crosscheck:
                pred._uses = 1
                return pred.evaluate(self.monitor)
            ev = self._eval = pred.evaluator()
        return ev(self.monitor)

    def monitors(self) -> frozenset[Monitor]:
        mons = self._monitors
        if mons is None:
            mons = self._monitors = frozenset((self.monitor,))
        return mons

    def negate(self) -> "LocalPredicate":
        return LocalPredicate(self.monitor, self.predicate.root.negate())

    @property
    def is_complex(self) -> bool:
        return False

    def __repr__(self):
        return f"local(#{self.monitor.monitor_id}, {self.predicate.root!r})"


class ComplexPredicate(GlobalAtom):
    """An atom involving several monitors (§4.2.4).

    Cannot be evaluated under a single monitor's lock; the signaling layers
    handle it conservatively — any update of a related monitor is assumed to
    potentially make it true.
    """

    __slots__ = ("_monitors", "fn")

    def __init__(self, monitors: Sequence[Monitor], fn: Callable[[], bool]):
        if len(monitors) < 2:
            raise PredicateError("complex predicates involve at least two monitors")
        self._monitors = frozenset(monitors)
        self.fn = fn

    def evaluate(self) -> bool:
        return bool(self.fn())

    def monitors(self) -> frozenset[Monitor]:
        return self._monitors

    def negate(self) -> "ComplexPredicate":
        return ComplexPredicate(sorted(self._monitors, key=lambda m: m.monitor_id),
                                lambda: not self.fn())

    @property
    def is_complex(self) -> bool:
        return True

    def __repr__(self):
        ids = sorted(m.monitor_id for m in self._monitors)
        return f"complex({ids})"


class GAnd(GlobalNode):
    __slots__ = ("children", "_monitors")

    def __init__(self, children: Sequence[GlobalNode]):
        flat: list[GlobalNode] = []
        for c in children:
            c = _as_global(c)
            flat.extend(c.children) if isinstance(c, GAnd) else flat.append(c)
        self.children = tuple(flat)
        self._monitors: frozenset[Monitor] | None = None

    def evaluate(self) -> bool:
        # a plain loop, not all(genexpr): every global wait starts here
        for c in self.children:
            if not c.evaluate():
                return False
        return True

    def monitors(self) -> frozenset[Monitor]:
        mons = self._monitors
        if mons is None:
            mons = self._monitors = _union_monitors(self.children)
        return mons

    def negate(self) -> "GOr":
        return GOr([c.negate() for c in self.children])

    def atoms(self):
        for c in self.children:
            yield from c.atoms()

    def __repr__(self):
        return "(" + " && ".join(map(repr, self.children)) + ")"


class GOr(GlobalNode):
    __slots__ = ("children", "_monitors")

    def __init__(self, children: Sequence[GlobalNode]):
        flat: list[GlobalNode] = []
        for c in children:
            c = _as_global(c)
            flat.extend(c.children) if isinstance(c, GOr) else flat.append(c)
        self.children = tuple(flat)
        self._monitors: frozenset[Monitor] | None = None

    def evaluate(self) -> bool:
        for c in self.children:
            if c.evaluate():
                return True
        return False

    def monitors(self) -> frozenset[Monitor]:
        mons = self._monitors
        if mons is None:
            mons = self._monitors = _union_monitors(self.children)
        return mons

    def negate(self) -> "GAnd":
        return GAnd([c.negate() for c in self.children])

    def atoms(self):
        for c in self.children:
            yield from c.atoms()

    def __repr__(self):
        return "(" + " || ".join(map(repr, self.children)) + ")"


def local(monitor: Monitor, condition) -> LocalPredicate:
    """Build a local-predicate atom; sugar for :class:`LocalPredicate`."""
    return LocalPredicate(monitor, condition)


def complex_pred(monitors: Sequence[Monitor], fn: Callable[[], bool]) -> ComplexPredicate:
    """Build a complex (multi-monitor) atom; see §4.2.4."""
    return ComplexPredicate(monitors, fn)


def compute_critical(node: GlobalNode) -> list[GlobalAtom]:
    """Algorithm 3: derive a critical clause for a predicate false in the
    current state (caller holds all involved locks).

    Returns the clause as a list of atoms whose disjunction is the critical
    clause C.  Per §4.2.4, conjunctions prefer a false *local* conjunct over
    a complex one, so that complex atoms (which force conservative
    always-signal behaviour) only enter the clause when unavoidable.
    """
    if isinstance(node, GlobalAtom):
        return [node]
    if isinstance(node, GAnd):
        false_children = [c for c in node.children if not c.evaluate()]
        if not false_children:
            raise PredicateError("compute_critical called on a true predicate")
        # prefer a purely-local false conjunct (cheapest to monitor)
        for child in false_children:
            if not any(getattr(a, "is_complex", False) for a in child.atoms()):
                return compute_critical(child)
        return compute_critical(false_children[0])
    if isinstance(node, GOr):
        clause: list[GlobalAtom] = []
        for child in node.children:
            clause.extend(compute_critical(child))
        return clause
    raise PredicateError(f"unknown global node {node!r}")


def group_by_monitor(atoms: Iterable[GlobalAtom]) -> dict[Monitor, list[GlobalAtom]]:
    """Split a critical clause into per-monitor local critical clauses Cᵢ.

    Complex atoms appear in the bucket of *every* related monitor (the
    conservative rule)."""
    buckets: dict[Monitor, list[GlobalAtom]] = {}
    for atom in atoms:
        for monitor in atom.monitors():
            buckets.setdefault(monitor, []).append(atom)
    return buckets
