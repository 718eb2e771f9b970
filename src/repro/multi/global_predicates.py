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
approaches exploit.

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
from repro.runtime.config import config_snapshot
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

    __slots__ = ("monitor", "predicate", "_eval")

    def __init__(self, monitor: Monitor, condition: BoolNode | Callable[..., bool] | bool):
        self.monitor = monitor
        self.predicate = condition if isinstance(condition, Predicate) else Predicate(condition)
        self._eval: Callable[[Monitor], bool] | None = None

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
        return frozenset((self.monitor,))

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
    __slots__ = ("children",)

    def __init__(self, children: Sequence[GlobalNode]):
        flat: list[GlobalNode] = []
        for c in children:
            c = _as_global(c)
            flat.extend(c.children) if isinstance(c, GAnd) else flat.append(c)
        self.children = tuple(flat)

    def evaluate(self) -> bool:
        return all(c.evaluate() for c in self.children)

    def monitors(self) -> frozenset[Monitor]:
        return frozenset().union(*(c.monitors() for c in self.children))

    def negate(self) -> "GOr":
        return GOr([c.negate() for c in self.children])

    def atoms(self):
        for c in self.children:
            yield from c.atoms()

    def __repr__(self):
        return "(" + " && ".join(map(repr, self.children)) + ")"


class GOr(GlobalNode):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[GlobalNode]):
        flat: list[GlobalNode] = []
        for c in children:
            c = _as_global(c)
            flat.extend(c.children) if isinstance(c, GOr) else flat.append(c)
        self.children = tuple(flat)

    def evaluate(self) -> bool:
        return any(c.evaluate() for c in self.children)

    def monitors(self) -> frozenset[Monitor]:
        return frozenset().union(*(c.monitors() for c in self.children))

    def negate(self) -> "GAnd":
        return GAnd([c.negate() for c in self.children])

    def atoms(self):
        for c in self.children:
            yield from c.atoms()

    def __repr__(self):
        return "(" + " || ".join(map(repr, self.children)) + ")"


class GenerationEvaluator:
    """Memoizing evaluator for one thread's global-predicate wait loop.

    Every :class:`~repro.core.monitor.Monitor` carries a ``_generation``
    counter bumped on each monitor exit (including the ActiveMonitor
    server's batch paths).  While this thread was parked, an atom's last
    value remains valid as long as every involved monitor's generation is
    unchanged — any mutation by another thread happens inside a monitor
    section whose exit bumps the counter *before* releasing the lock.  So a
    wakeup re-evaluates only the atoms whose monitors actually moved, and
    when nothing moved the whole evaluation is served from the memo.

    Local atoms with a *known* predicate read set are stamped at finer
    grain: per summed read-variable write generation
    (``ConditionManager.var_gens``, bumped when an exit's dirty set is
    flushed) instead of per monitor generation.  A neighbor's exit that
    wrote unrelated variables then still validates the memo — the common
    case in sparse workloads, where the whole-monitor stamp is invalidated
    by every exit.

    The memo is confined to one ``wait_until`` call (one thread).  That
    confinement is what makes direct in-block attribute writes safe: a
    write by *this* thread can only happen before the evaluator was built
    or after it dies — never between two of its evaluations, because the
    thread is parked in between.  Sharing a memo across threads (e.g. on
    the atoms themselves) would break exactly there.

    ``credit_own_release`` folds the caller's *own* imminent release (one
    exit per involved monitor) into the stamps, so a wakeup where no other
    thread touched anything is recognized as "unchanged".
    """

    __slots__ = ("node", "_memo", "_metrics")

    def __init__(self, node: GlobalNode, metrics=None):
        self.node = node
        #: id(atom) -> [stamp, value, span, reads, monitor]; ``reads`` is
        #: None for generation-stamped entries (stamp = Σ generations,
        #: own-release credit = span) and a frozenset of variable names for
        #: var-stamped ones (stamp = Σ var gens, credit = |reads ∩ dirty|)
        self._memo: dict[int, list] = {}
        self._metrics = metrics   # e.g. manager.global_condition_metrics

    def evaluate(self) -> bool:
        """Evaluate the predicate; caller holds every involved lock."""
        return self._eval(self.node)

    def _eval(self, node: GlobalNode) -> bool:
        children = getattr(node, "children", None)
        if children is not None:
            if isinstance(node, GAnd):
                for c in children:
                    if not self._eval(c):
                        return False
                return True
            for c in children:      # GOr
                if self._eval(c):
                    return True
            return False
        # atom: stamp = sum of monotonically non-decreasing counters (the
        # sum is unchanged iff every one is) — per read variable when the
        # atom's read set is known, per monitor generation otherwise
        reads = None
        monitor = None
        if isinstance(node, LocalPredicate):
            monitor = node.monitor
            if config_snapshot().track_dependencies:
                reads = node.predicate.read_set()
            if reads is not None:
                gens = monitor._cond_mgr.var_gens
                stamp = 0
                for name in reads:
                    stamp += gens.get(name, 0)
                span = 0
            else:
                stamp = monitor._generation
                span = 1
        else:
            stamp = 0
            span = 0
            for m in node.monitors():
                stamp += m._generation
                span += 1
        memo = self._memo.get(id(node))
        if (memo is not None and memo[0] == stamp
                and (memo[3] is None) == (reads is None)):
            if self._metrics is not None:
                self._metrics.gen_skips += 1
            return memo[1]
        value = node.evaluate()
        self._memo[id(node)] = [stamp, value, span, reads, monitor]
        return value

    def credit_own_release(self) -> None:
        """Fold the caller's imminent release into the memoized stamps.

        Generation-stamped entries gain one bump per monitor the atom spans
        (every ``_monitor_exit`` bumps ``_generation``); var-stamped entries
        gain one bump per read variable the caller's own section dirtied
        (the release's relay flush bumps exactly those).  Call right before
        releasing all locks on the way into a park."""
        for memo in self._memo.values():
            reads = memo[3]
            if reads is None:
                memo[0] += memo[2]
                continue
            dirty = memo[4]._dirty
            if dirty:
                for name in reads:
                    if name in dirty:
                        memo[0] += 1


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
