"""Arithmetic expression DSL over monitor shared state.

The paper's preprocessor sees ``waituntil(count + objs.length <= items.length)``
as source text; here the programmer builds the same expression tree with
overloaded operators over :data:`S`, a namespace of *shared variables*::

    from repro.core.expressions import S
    self.wait_until(S.count + len(objs) <= S.capacity)

Local values (``len(objs)`` above) enter the tree as plain Python constants —
this *is* the paper's closure operation (Def. 2): local variables are frozen
to their values at the instant ``wait_until`` is invoked, producing a shared
predicate any thread can evaluate (Prop. 1).

Expressions are normalized to a linear form ``Σ coeffᵢ·sharedᵢ + const``
whenever possible so that predicates such as ``count + 3 <= capacity`` and
``count + 48 <= capacity`` share one canonical shared-expression key
(``count - capacity``) and therefore one threshold heap (§2.4).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.errors import PredicateError

Number = (int, float)

#: the "reads nothing" read set (compare with ``None`` = "reads everything")
_EMPTY_READS: frozenset = frozenset()

#: the atom class :class:`Expr`'s comparison operators build.
#: :mod:`repro.core.predicates` defines it and binds it here as it loads: it
#: imports this module, so importing it back would be circular.  Importing
#: ``repro.core`` loads both modules.
Comparison: Any = None


def union_reads(*sets: Optional[frozenset]) -> Optional[frozenset]:
    """Union read sets, propagating the conservative ``None`` (unknown)."""
    out = _EMPTY_READS
    for s in sets:
        if s is None:
            return None
        out = out | s if s else out
    return out


class Expr:
    """Base class for expression-tree nodes.

    Subclasses implement :meth:`evaluate` against a monitor instance and
    :meth:`linear`, which returns ``(terms, const)`` — a mapping from shared
    term keys to coefficients plus a constant offset — or ``None`` when the
    expression is not linear in its shared terms.
    """

    __slots__ = ()

    def evaluate(self, monitor: Any) -> Any:
        raise NotImplementedError

    def linear(self) -> Optional[tuple[dict[Any, float], float]]:
        return None

    def key(self) -> Any:
        """A hashable structural identity for tag-table sharing."""
        raise NotImplementedError

    def read_set(self) -> Optional[frozenset]:
        """Shared-variable names this expression reads, or None if unknown.

        ``None`` is the conservative answer ("reads everything"): dependency
        filtering must then treat the expression as affected by every write.
        An *empty* frozenset is a much stronger claim — "reads no shared
        state at all" — so unknown nodes must never return it.
        """
        return None

    # -- arithmetic operators ------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other):
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other):
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other):
        return BinOp("*", _wrap(other), self)

    def __mod__(self, other):
        return BinOp("%", self, _wrap(other))

    def __neg__(self):
        return BinOp("*", Const(-1), self)

    # -- comparison operators build boolean atoms ----------------------------
    def __eq__(self, other):  # type: ignore[override]
        return Comparison(self, "==", _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison(self, "!=", _wrap(other))

    def __lt__(self, other):
        return Comparison(self, "<", _wrap(other))

    def __le__(self, other):
        return Comparison(self, "<=", _wrap(other))

    def __gt__(self, other):
        return Comparison(self, ">", _wrap(other))

    def __ge__(self, other):
        return Comparison(self, ">=", _wrap(other))

    __hash__ = None  # type: ignore[assignment]  # __eq__ builds atoms


def _wrap(value: Any) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool) or not isinstance(value, Number):
        # booleans and arbitrary objects are legal constants (equality only)
        return Const(value)
    return Const(value)


class Const(Expr):
    """A frozen (closure-captured) local value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, monitor: Any) -> Any:
        return self.value

    def linear(self):
        if isinstance(self.value, Number) and not isinstance(self.value, bool):
            return {}, float(self.value)
        return None

    def key(self):
        return ("const", self.value)

    def read_set(self):
        return _EMPTY_READS

    def __repr__(self):
        return repr(self.value)


class SharedVar(Expr):
    """An attribute of the monitor object (a *shared variable*, Def. 1).

    Immutable: ``S.<name>`` hands every caller the same node.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("SharedVar nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("SharedVar nodes are immutable")

    def evaluate(self, monitor: Any) -> Any:
        return getattr(monitor, self.name)

    def linear(self):
        return {("var", self.name): 1.0}, 0.0

    def key(self):
        return ("var", self.name)

    def read_set(self):
        return frozenset((self.name,))

    def __repr__(self):
        return f"S.{self.name}"


class SharedExpr(Expr):
    """An arbitrary computed shared expression, e.g. ``len(self.items)``.

    ``name`` provides the canonical identity; two SharedExprs with the same
    name are assumed to denote the same function of monitor state (so their
    waiters can share tag tables).

    ``reads`` optionally declares the shared-variable names the function
    touches, enabling dependency-filtered relay for computed expressions
    (the ``waituntil`` preprocessor fills it in automatically).  Leaving it
    ``None`` keeps the conservative "reads everything" behavior.
    """

    __slots__ = ("fn", "name", "reads")

    def __init__(self, fn: Callable[[Any], Any], name: str | None = None,
                 reads: Optional[frozenset] = None):
        self.fn = fn
        self.name = name or getattr(fn, "__qualname__", repr(fn))
        self.reads = frozenset(reads) if reads is not None else None

    def evaluate(self, monitor: Any) -> Any:
        return self.fn(monitor)

    def linear(self):
        return {("expr", self.name): 1.0}, 0.0

    def key(self):
        return ("expr", self.name)

    def read_set(self):
        return self.reads

    def __repr__(self):
        return f"E[{self.name}]"


class BinOp(Expr):
    """A binary arithmetic node."""

    __slots__ = ("op", "lhs", "rhs", "_fn")

    _FNS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "%": lambda a, b: a % b,
    }

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in self._FNS:
            raise PredicateError(f"unsupported operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self._fn = self._FNS[op]  # one dict lookup at build, not per eval

    def evaluate(self, monitor: Any) -> Any:
        return self._fn(self.lhs.evaluate(monitor), self.rhs.evaluate(monitor))

    def linear(self):
        left = self.lhs.linear()
        right = self.rhs.linear()
        if left is None or right is None:
            return None
        lterms, lconst = left
        rterms, rconst = right
        if self.op == "+":
            return _merge(lterms, rterms, 1.0), lconst + rconst
        if self.op == "-":
            return _merge(lterms, rterms, -1.0), lconst - rconst
        if self.op == "*":
            # only scalar * linear stays linear; a zero scalar annihilates
            # the terms (keeping 0.0 coefficients would divide by zero when
            # linear_key scales by the first coefficient)
            if not lterms:
                if lconst == 0.0:
                    return {}, 0.0
                return {k: v * lconst for k, v in rterms.items()}, lconst * rconst
            if not rterms:
                if rconst == 0.0:
                    return {}, 0.0
                return {k: v * rconst for k, v in lterms.items()}, lconst * rconst
            return None
        return None  # '%' is never linear

    def key(self):
        return (self.op, self.lhs.key(), self.rhs.key())

    def read_set(self):
        return union_reads(self.lhs.read_set(), self.rhs.read_set())

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


def _merge(a: dict, b: dict, sign: float) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + sign * v
        if out[k] == 0.0:
            del out[k]
    return out


def linear_key(terms: dict[Any, float]) -> tuple:
    """Canonical hashable key for a linear combination of shared terms.

    The combination is scaled so its first (lexicographically smallest) term
    has coefficient +1; this makes ``count - capacity`` and
    ``2*count - 2*capacity`` share a key, and lets the comparison normalizer
    fold the scale into the right-hand constant.
    """
    items = sorted(terms.items(), key=lambda kv: repr(kv[0]))
    if not items:
        return ()
    scale = items[0][1]
    return tuple((k, v / scale) for k, v in items)


class _SharedNamespace:
    """``S.count`` → ``SharedVar("count")`` sugar.

    Each name is interned: the first ``S.count`` stores its node as an
    instance attribute, so later reads are plain attribute hits that never
    reach ``__getattr__`` or allocate.
    """

    def __getattr__(self, name: str) -> SharedVar:
        if name.startswith("_"):
            raise AttributeError(name)
        var = SharedVar(name)
        # setdefault: two threads interning one name both get the first node
        return self.__dict__.setdefault(name, var)

    def __call__(self, fn: Callable[[Any], Any], name: str | None = None,
                 reads: Optional[frozenset] = None) -> SharedExpr:
        return SharedExpr(fn, name, reads)


#: The shared-variable namespace users import: ``from repro import S``.
S = _SharedNamespace()
