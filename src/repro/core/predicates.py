"""Boolean predicate DSL: atoms, connectives, DNF conversion, closure.

A predicate handed to ``wait_until`` is converted to disjunctive normal form
(§2.2: "we assume that every predicate P = ∨ cᵢ is in disjunctive normal
form … every Boolean formula can be converted into DNF using De Morgan's
laws and distributive law").  Each conjunction then receives one tag via
Algorithm 1 (see :mod:`repro.core.tags`).

Three atom kinds exist:

* :class:`Comparison` — ``shared_expr op constant`` after normalization;
  these yield Equivalence / Threshold tags;
* :class:`FuncAtom` — an opaque boolean callable of the monitor (the paper's
  ``foo1()``); always a None tag;
* plain Python callables passed to ``wait_until`` are wrapped in a
  :class:`FuncAtom` automatically.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Callable, Iterable, Sequence

from repro.core import compiled as _compiled
from repro.core import expressions as _expressions
from repro.core.expressions import (
    _EMPTY_READS,
    Const,
    Expr,
    exact_quotient,
    linear_key,
    union_reads,
)
from repro.runtime.config import config_snapshot
from repro.runtime.errors import PredicateError

#: Cap on DNF size to guard against exponential blow-up of pathological
#: formulas; real synchronization conditions are tiny.
MAX_DNF_CONJUNCTIONS = 256

#: sentinel for lazily computed slots whose value may be None
_UNSET = object()

_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
#: the operator after swapping sides (or dividing by a negative scale)
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_EVAL = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class BoolNode:
    """Base class of the boolean expression tree."""

    __slots__ = ()

    def evaluate(self, monitor: Any) -> bool:
        raise NotImplementedError

    def __and__(self, other: "BoolNode") -> "And":
        return And([self, _as_bool(other)])

    def __rand__(self, other):
        return And([_as_bool(other), self])

    def __or__(self, other: "BoolNode") -> "Or":
        return Or([self, _as_bool(other)])

    def __ror__(self, other):
        return Or([_as_bool(other), self])

    def __invert__(self) -> "BoolNode":
        return self.negate()

    def negate(self) -> "BoolNode":
        raise NotImplementedError

    def dnf(self) -> list[tuple["Atom", ...]]:
        """Return the formula as a list of conjunctions of atoms."""
        raise NotImplementedError

    def read_set(self):
        """Shared-variable names this formula reads, or None if unknown.

        The conservative default — opaque callables (:class:`FuncAtom`) may
        read anything, so any formula containing one reads "everything".
        """
        return None


def _as_bool(value) -> BoolNode:
    if isinstance(value, BoolNode):
        return value
    if callable(value):
        return FuncAtom(value)
    if isinstance(value, bool):
        return TrueAtom() if value else FalseAtom()
    raise PredicateError(f"cannot use {value!r} as a boolean predicate")


class Atom(BoolNode):
    """A leaf of the boolean tree."""

    __slots__ = ()

    def dnf(self):
        return [(self,)]


class TrueAtom(Atom):
    __slots__ = ()

    def evaluate(self, monitor):
        return True

    def negate(self):
        return FalseAtom()

    def read_set(self):
        return _EMPTY_READS

    def __repr__(self):
        return "true"


class FalseAtom(Atom):
    __slots__ = ()

    def evaluate(self, monitor):
        return False

    def negate(self):
        return TrueAtom()

    def read_set(self):
        return _EMPTY_READS

    def __repr__(self):
        return "false"


class FuncAtom(Atom):
    """Opaque boolean function of the monitor state (None tag).

    ``fn`` may take the monitor as its single argument, or no arguments at
    all (a closure over ``self``); arity is probed once at construction.
    """

    __slots__ = ("fn", "negated", "_takes_monitor")

    def __init__(self, fn: Callable[..., bool], negated: bool = False):
        self.fn = fn
        self.negated = negated
        code = getattr(fn, "__code__", None)
        if code is None:
            self._takes_monitor = False
        else:
            required = code.co_argcount - len(getattr(fn, "__defaults__", None) or ())
            if hasattr(fn, "__self__"):
                required -= 1  # bound method: self is pre-bound
            self._takes_monitor = required >= 1

    def evaluate(self, monitor):
        result = bool(self.fn(monitor) if self._takes_monitor else self.fn())
        return (not result) if self.negated else result

    def negate(self):
        return FuncAtom(self.fn, not self.negated)

    def __repr__(self):
        bang = "!" if self.negated else ""
        return f"{bang}{getattr(self.fn, '__name__', 'fn')}()"


class Comparison(Atom):
    """``lhs op rhs`` over expression trees.

    The comparison is *normalized* for the tagger: if ``lhs - rhs`` is
    linear in shared terms, its shape is ``canonical_shared_expr op
    constant`` so equal-shaped conditions share a canonical key.
    Non-linear comparisons keep their structural form; they are still
    evaluable but only taggable when one side is constant.  Normalization
    runs on the first :attr:`tag_shape` read — when a waiter registers —
    so a predicate that is already true when checked never pays for it.
    """

    __slots__ = ("lhs", "op", "rhs", "_shape", "_cmp")

    def __init__(self, lhs: Expr, op: str, rhs: Expr):
        if op not in _EVAL:
            raise PredicateError(f"unsupported comparison {op!r}")
        self.lhs = lhs
        self.op = op
        self.rhs = rhs
        self._cmp = _EVAL[op]
        self._shape = _UNSET

    def _normalize(self):
        """Return ``(expr_key, op, const)`` or None when untaggable.

        Never raises, and returns only shapes the tag index can hold: it
        runs while a waiter registers, after the waiter joined the
        condition manager's lists, where a failure would leave a ghost
        waiter.  The shape must be exact — a tag that reads false while
        its conjunction is true hides a satisfied waiter from the relay
        (Prop. 2) — so:

        * the linear form ``Σ coeffᵢ·sharedᵢ op const`` is used when every
          number in it is an ``int`` and scaling by the first coefficient
          leaves the coefficients ``int`` and the constant exact (an int,
          or a float equal to the quotient): the tag search then sums
          integer state in exact integer arithmetic at any magnitude;
        * otherwise (a float in the arithmetic, an inexact quotient) a
          side compared with a constant keeps its structural form, which
          the tag search evaluates exactly as the predicate does;
        * anything else is untaggable, as is a numeric constant beyond
          the float range (``S.x < 10**400``), a NaN, an unhashable shape,
          and a threshold constant that is not a real number.
        """
        try:
            shape = self._linear_shape() or self._structural_shape()
            if shape is None:
                return None
            const = shape[2]
            if isinstance(const, Real) and not isinstance(const, bool):
                if const != const:
                    return None   # NaN: a heap cannot order it
                float(const)      # OverflowError beyond the float range
            hash(shape)
        except (OverflowError, TypeError):
            return None
        return shape

    def _linear_shape(self):
        """The exact linear normal form, or None (see :meth:`_normalize`)."""
        lin_l = self.lhs.linear()
        lin_r = self.rhs.linear()
        if lin_l is None or lin_r is None:
            return None
        terms = dict(lin_l[0])
        for k, v in lin_r[0].items():
            terms[k] = terms.get(k, 0) - v
            if terms[k] == 0:
                del terms[k]
        const = lin_r[1] - lin_l[1]
        if not terms:
            return None  # a constant comparison has no linear key
        if type(const) is not int or any(type(v) is not int
                                         for v in terms.values()):
            return None
        key = linear_key(terms)
        if any(type(coeff) is not int for _, coeff in key):
            return None
        scale = terms[key[0][0]]
        bound = exact_quotient(const, scale)
        if type(bound) is not int:
            num, den = bound.as_integer_ratio()
            if num * scale != const * den:
                return None   # the float quotient rounded
        op = self.op
        if scale < 0:
            op = _FLIP.get(op, op)
        return key, op, bound

    def _structural_shape(self):
        """A side compared with a constant, as a single unit-coefficient
        term in the linear key format, or None."""
        if isinstance(self.rhs, Const):
            shape = (((self.lhs.key(), 1),), self.op, self.rhs.value)
        elif isinstance(self.lhs, Const):
            shape = (((self.rhs.key(), 1),), _FLIP.get(self.op, self.op),
                     self.lhs.value)
        else:
            return None
        if self.op not in ("==", "!=") and not isinstance(shape[2], Real):
            return None
        return shape

    def shared_subexpressions(self):
        """Yield every Expr node in this atom (for evaluator registration)."""
        stack = [self.lhs, self.rhs]
        while stack:
            node = stack.pop()
            yield node
            lhs = getattr(node, "lhs", None)
            rhs = getattr(node, "rhs", None)
            if lhs is not None:
                stack.append(lhs)
            if rhs is not None:
                stack.append(rhs)

    @property
    def tag_shape(self):
        """``(expr_key, op, const)`` for the tagger, or None."""
        shape = self._shape
        if shape is _UNSET:
            shape = self._shape = self._normalize()
        return shape

    def read_set(self):
        return union_reads(self.lhs.read_set(), self.rhs.read_set())

    def evaluate(self, monitor):
        return self._cmp(self.lhs.evaluate(monitor), self.rhs.evaluate(monitor))

    def negate(self):
        return Comparison(self.lhs, _NEGATE[self.op], self.rhs)

    def __bool__(self):
        # guards against `if S.x == 3:` silently taking a branch
        raise PredicateError(
            "predicate atoms have no truth value; pass them to wait_until"
        )

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


_expressions.Comparison = Comparison


class And(BoolNode):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[BoolNode]):
        flat: list[BoolNode] = []
        for c in children:
            c = _as_bool(c)
            if isinstance(c, And):
                flat.extend(c.children)
            else:
                flat.append(c)
        self.children = tuple(flat)

    def evaluate(self, monitor):
        return all(c.evaluate(monitor) for c in self.children)

    def negate(self):
        return Or([c.negate() for c in self.children])

    def dnf(self):
        # distribute: cartesian product of child DNFs
        result: list[tuple[Atom, ...]] = [()]
        for child in self.children:
            child_dnf = child.dnf()
            result = [r + c for r in result for c in child_dnf]
            if len(result) > MAX_DNF_CONJUNCTIONS:
                raise PredicateError("predicate too large to convert to DNF")
        return result

    def read_set(self):
        return union_reads(*(c.read_set() for c in self.children))

    def __repr__(self):
        return "(" + " && ".join(map(repr, self.children)) + ")"


class Or(BoolNode):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[BoolNode]):
        flat: list[BoolNode] = []
        for c in children:
            c = _as_bool(c)
            if isinstance(c, Or):
                flat.extend(c.children)
            else:
                flat.append(c)
        self.children = tuple(flat)

    def evaluate(self, monitor):
        return any(c.evaluate(monitor) for c in self.children)

    def negate(self):
        return And([c.negate() for c in self.children])

    def dnf(self):
        result: list[tuple[Atom, ...]] = []
        for child in self.children:
            result.extend(child.dnf())
            if len(result) > MAX_DNF_CONJUNCTIONS:
                raise PredicateError("predicate too large to convert to DNF")
        return result

    def read_set(self):
        return union_reads(*(c.read_set() for c in self.children))

    def __repr__(self):
        return "(" + " || ".join(map(repr, self.children)) + ")"


class Predicate:
    """A wait condition: the DNF of a boolean tree plus evaluation support.

    Construction applies the closure operation implicitly: any constant in
    the tree was captured from the waiting thread's locals at build time, so
    evaluation by *other* threads is sound for the whole waituntil period
    (Prop. 1).

    Hot paths evaluate through :meth:`fast_eval` / :meth:`evaluator`, which
    use a code-generated flat closure (see :mod:`repro.core.compiled`) when
    ``Config.compile_predicates`` is on, falling back to the tree-walking
    :meth:`evaluate` for shapes the compiler cannot express.  Compilation
    is *tiered*: a predicate evaluated once (the common build-check-proceed
    DSL idiom) is interpreted; one that is re-evaluated — a reused
    Predicate object, or a parked waiter the relay rule keeps re-checking —
    is compiled on its second use, so single-shot predicates never pay the
    synthesis cost.
    """

    __slots__ = ("root", "conjunctions", "_evaluator", "_uses", "_read_set")

    def __init__(self, condition: BoolNode | Callable[..., bool] | bool):
        self.root = _as_bool(condition)
        self.conjunctions: list[tuple[Atom, ...]] = self.root.dnf()
        self._evaluator: Callable[[Any], Any] | None = None
        self._uses = 0
        self._read_set: Any = _UNSET

    def evaluate(self, monitor: Any) -> bool:
        return self.root.evaluate(monitor)

    def read_set(self) -> Any:
        """Shared-variable names this predicate reads (cached).

        ``None`` means "unknown — may read anything" (some atom is an opaque
        callable); dependency-filtered relay then always re-evaluates the
        waiter.  A frozenset is exact: a monitor exit whose dirty set is
        disjoint from it cannot have flipped the predicate."""
        rs = self._read_set
        if rs is _UNSET:
            rs = self.root.read_set()
            self._read_set = rs
        return rs

    def fast_eval(self, monitor: Any) -> Any:
        """Hot-path evaluation with tiered compilation (see class docs)."""
        ev = self._evaluator
        if ev is not None:
            return ev(monitor)
        if _compiled._crosscheck:
            return self.evaluator()(monitor)
        n = self._uses + 1
        self._uses = n
        if n >= 2:
            return self.evaluator()(monitor)
        return self.root.evaluate(monitor)

    def evaluator(self) -> Callable[[Any], Any]:
        """The fastest available evaluation callable for this predicate.

        Returns the compiled closure (cached after the first call), the
        tree-walking :meth:`evaluate` when compilation is disabled or
        unsupported, or — while :func:`repro.core.compiled.crosscheck` is
        active — an uncached wrapper running both paths and asserting they
        agree.
        """
        if not config_snapshot().compile_predicates:
            if _compiled._crosscheck:
                return _compiled.crosscheck_wrap(self.evaluate, self.evaluate, repr(self))
            return self.evaluate
        ev = self._evaluator
        if ev is None:
            ev = _compiled.compile_predicate(self)
            if ev is None:
                ev = self.evaluate
            self._evaluator = ev
        if _compiled._crosscheck:
            return _compiled.crosscheck_wrap(ev, self.evaluate, repr(self))
        return ev

    def describe(self) -> str:
        """Stable, lock-free identification for diagnostics.

        Prefers the compiled-source cache key (identical for structurally
        equal predicates, across runs) and falls back to ``repr``.  Never
        evaluates the predicate — safe to call from the inspector thread
        observing a live monitor."""
        from repro.core import compiled  # local: avoid import cycle at load

        key = compiled.source_key(self)
        return key if key is not None else repr(self)

    def __repr__(self):
        return f"Predicate({self.root!r})"


def conjunction_true(conj: Iterable[Atom], monitor: Any) -> bool:
    """Evaluate a single DNF conjunction."""
    return all(a.evaluate(monitor) for a in conj)
