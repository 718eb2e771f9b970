"""Predicate/expression compiler: DSL trees → flat Python closures.

The interpreter in :mod:`repro.core.predicates` evaluates a ``waituntil``
condition by walking an ``Expr``/``BoolNode`` object tree — five-plus
dynamic dispatches for a predicate as small as ``count + 3 <= capacity``.
The relay rule evaluates predicates *on behalf of other threads* on every
monitor exit (§2.3), so that walk sits squarely on the hot path AutoSynch's
whole design tries to flatten.

This module code-generates the equivalent flat closure
(``lambda m: m.count + 3 <= m.capacity``-shaped) via source synthesis +
:func:`compile`:

* every ``Const`` / ``SharedExpr.fn`` / ``FuncAtom.fn`` becomes an
  *environment slot* rather than a source literal, so the synthesized source
  text is a pure function of the tree's **shape**.  Identical source ⇒ one
  cached code object: all waiters whose predicates share a structure
  (``count >= 3`` vs ``count >= 48``) share one compiled template and only
  differ in the bound environment tuple — the closure analogue of the
  paper's canonical shared-expression sharing (§2.4);
* boolean connectives compile to ``and``/``or`` chains with the same
  short-circuit order, truthiness coercion, and exception behavior as the
  interpreter's ``all()``/``any()`` generators;
* anything the generator cannot express (exotic nodes, unhashable shapes,
  pathological depth) falls back transparently to the tree-walking
  interpreter — :func:`compile_predicate` returns ``None`` and callers keep
  the ``Predicate.evaluate`` bound method.

Differential safety: the interpreter remains the executable specification.
:func:`crosscheck` wraps every compiled evaluator so both paths run and any
divergence (value, truthiness, or raised exception) fails loudly; the test
suite runs the problem corpus under it (Ghost-Signals-style paranoia — fast
paths must be *proven* equivalent, not assumed).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from keyword import iskeyword
from typing import Any, Callable, Optional

__all__ = [
    "compile_predicate",
    "compile_expr_key",
    "crosscheck",
    "crosscheck_active",
    "cache_info",
    "clear_cache",
    "CompiledDivergence",
]


class _Unsupported(Exception):
    """Internal: the tree contains a node the generator cannot express."""


class CompiledDivergence(AssertionError):
    """Compiled and interpreted evaluation disagreed (crosscheck mode)."""


# --------------------------------------------------------------------------
# source synthesis
#
# ``_gen_*`` functions append runtime values to ``env`` and return a source
# fragment referencing ``m`` (the monitor) and ``_e{i}`` (env slots) in
# traversal order.  The finished source string doubles as the cache key:
# equal source ⇔ equal shape ⇔ shareable code object.
# --------------------------------------------------------------------------

def _slot(env: list, value: Any) -> str:
    env.append(value)
    return f"_e{len(env) - 1}"


def _gen_expr(node: Any, env: list) -> str:
    # local imports would cost per call; the cycle is broken by importing
    # this module lazily from predicates.py instead
    kind = type(node).__name__
    if kind == "Const":
        return _slot(env, node.value)
    if kind == "SharedVar":
        name = node.name
        if name.isidentifier() and not iskeyword(name):
            return f"m.{name}"
        return f"getattr(m, {_slot(env, name)})"
    if kind == "SharedExpr":
        return f"{_slot(env, node.fn)}(m)"
    if kind == "BinOp":
        lhs = _gen_expr(node.lhs, env)
        rhs = _gen_expr(node.rhs, env)
        if node.op not in ("+", "-", "*", "%"):
            raise _Unsupported(node.op)
        return f"({lhs} {node.op} {rhs})"
    raise _Unsupported(kind)


_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _gen_bool(node: Any, env: list) -> str:
    kind = type(node).__name__
    if kind == "TrueAtom":
        return "True"
    if kind == "FalseAtom":
        return "False"
    if kind == "Comparison":
        if node.op not in _CMP_OPS:
            raise _Unsupported(node.op)
        lhs = _gen_expr(node.lhs, env)
        rhs = _gen_expr(node.rhs, env)
        return f"({lhs} {node.op} {rhs})"
    if kind == "FuncAtom":
        call = f"{_slot(env, node.fn)}(m)" if node._takes_monitor else f"{_slot(env, node.fn)}()"
        return f"(not {call})" if node.negated else f"bool({call})"
    if kind == "And":
        if not node.children:
            return "True"
        # ``all(c.evaluate(m) for c in children)`` ≡ bool()-coerced ``and``
        # chain: same short-circuit order, same strict-bool result
        return "(" + " and ".join(f"bool({_gen_bool(c, env)})" for c in node.children) + ")"
    if kind == "Or":
        if not node.children:
            return "False"
        return "(" + " or ".join(f"bool({_gen_bool(c, env)})" for c in node.children) + ")"
    raise _Unsupported(kind)


# --------------------------------------------------------------------------
# template cache: source string → maker(env) → evaluator closure
# --------------------------------------------------------------------------

#: bound on distinct cached shapes; real programs have a handful, and the
#: cap only disables *caching* (compilation still works) past it
MAX_CACHED_SHAPES = 2048

_maker_cache: dict[str, Callable[[tuple], Callable[[Any], Any]]] = {}
_cache_lock = threading.Lock()
_stats = {"shape_hits": 0, "shape_misses": 0, "fallbacks": 0, "uncached": 0}

#: compiled templates only ever read these two names
_GLOBALS = {"bool": bool, "getattr": getattr, "__builtins__": {}}


def _build_maker(source: str, n_slots: int) -> Callable[[tuple], Callable[[Any], Any]]:
    lines = ["def _make(_env):"]
    if n_slots == 1:
        lines.append("    _e0, = _env")
    elif n_slots:
        lines.append("    " + ", ".join(f"_e{i}" for i in range(n_slots)) + " = _env")
    lines.append("    def _compiled(m):")
    lines.append(f"        return {source}")
    lines.append("    return _compiled")
    code = compile("\n".join(lines), "<repro.core.compiled>", "exec")
    namespace: dict[str, Any] = dict(_GLOBALS)
    exec(code, namespace)  # noqa: S102 — source synthesized above, no user text
    return namespace["_make"]


def _maker_for(source: str, n_slots: int):
    with _cache_lock:
        maker = _maker_cache.get(source)
        if maker is not None:
            _stats["shape_hits"] += 1
            return maker
        _stats["shape_misses"] += 1
    maker = _build_maker(source, n_slots)
    with _cache_lock:
        if len(_maker_cache) < MAX_CACHED_SHAPES:
            _maker_cache[source] = maker
        else:
            _stats["uncached"] += 1
    return maker


def cache_info() -> dict[str, int]:
    """Cache/fallback counters (for tests and the benchmark report)."""
    with _cache_lock:
        out = dict(_stats)
        out["cached_shapes"] = len(_maker_cache)
    return out


def clear_cache() -> None:
    with _cache_lock:
        _maker_cache.clear()
        for k in _stats:
            _stats[k] = 0


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def compile_predicate(predicate: Any) -> Optional[Callable[[Any], Any]]:
    """Compile ``predicate.root`` to a flat closure, or ``None`` to fall
    back to tree-walking.  The closure takes the monitor and returns exactly
    what ``Predicate.evaluate`` would — including raising the same
    exceptions from the same sub-evaluation order.
    """
    env: list = []
    try:
        source = _gen_bool(predicate.root, env)
        maker = _maker_for(source, len(env))
        return maker(tuple(env))
    except (_Unsupported, RecursionError, SyntaxError, ValueError):
        with _cache_lock:
            _stats["fallbacks"] += 1
        return None


def source_key(predicate: Any) -> Optional[str]:
    """Return the generated-source cache key for a predicate, or ``None``.

    The source string is exactly the key the closure cache is keyed by —
    stable across threads and processes for structurally equal predicates —
    which makes it the right identifier for diagnostics (inspector
    reports, waiter dumps) that need to say *what* a thread waits on
    without holding any lock or evaluating anything.
    """
    env: list = []
    try:
        return _gen_bool(predicate.root, env)
    except (_Unsupported, RecursionError, AttributeError, TypeError, ValueError):
        return None


def compile_expr_key(
    expr_key: tuple,
    resolve_node: Callable[[Any], Any],
) -> Optional[Callable[[Any], Any]]:
    """Compile a canonical shared-expression key to a flat evaluator.

    ``expr_key`` is the tag normalizer's ``((term_key, coeff), ...)`` form;
    ``resolve_node(term_key)`` returns the registered ``Expr`` node for
    non-``("var", name)`` terms (or ``None`` when unknown, which aborts
    compilation so the interpreter's lazy TypeError behavior is preserved).
    Matches ``ConditionManager._evaluate_expr_key`` exactly: a single
    unit-coefficient term returns the raw term value; otherwise terms are
    accumulated left-to-right onto an int ``0``, so integer state sums
    exactly at any magnitude.
    """
    env: list = []

    def term_src(term_key: Any) -> str:
        if (
            isinstance(term_key, tuple)
            and len(term_key) == 2
            and term_key[0] == "var"
            and isinstance(term_key[1], str)
            and term_key[1].isidentifier()
            and not iskeyword(term_key[1])
        ):
            return f"m.{term_key[1]}"
        node = resolve_node(term_key)
        if node is None:
            raise _Unsupported(term_key)
        return _gen_expr(node, env)

    try:
        if len(expr_key) == 1 and expr_key[0][1] == 1:
            source = term_src(expr_key[0][0])
        else:
            parts = [
                f"({coeff!r}) * ({term_src(term_key)})"
                for term_key, coeff in expr_key
            ]
            source = "(0 + " + " + ".join(parts) + ")"
        maker = _maker_for(source, len(env))
        return maker(tuple(env))
    except (_Unsupported, RecursionError, SyntaxError, ValueError):
        with _cache_lock:
            _stats["fallbacks"] += 1
        return None


# --------------------------------------------------------------------------
# crosscheck mode (differential testing)
# --------------------------------------------------------------------------

_crosscheck = False


def crosscheck_active() -> bool:
    return _crosscheck


@contextmanager
def crosscheck():
    """Within this context every compiled evaluator also runs the
    interpreter and raises :class:`CompiledDivergence` on any disagreement
    in value, truthiness, or raised exception.  Predicates must be pure
    (the monitor contract already requires this; monlint's purity probe
    enforces it), since both paths evaluate.
    """
    global _crosscheck
    prior = _crosscheck
    _crosscheck = True
    try:
        yield
    finally:
        _crosscheck = prior


def crosscheck_wrap(
    compiled: Callable[[Any], Any],
    interpreted: Callable[[Any], Any],
    label: str,
) -> Callable[[Any], Any]:
    """Build the dual-evaluation wrapper used in crosscheck mode."""

    def _checked(m):
        try:
            expected = interpreted(m)
            expected_exc = None
        except BaseException as exc:  # noqa: BLE001 — compared, then re-raised
            expected = None
            expected_exc = exc
        try:
            got = compiled(m)
            got_exc = None
        except BaseException as exc:  # noqa: BLE001 — compared below
            got = None
            got_exc = exc
        if expected_exc is not None or got_exc is not None:
            if (
                expected_exc is None
                or got_exc is None
                or type(expected_exc) is not type(got_exc)
                or str(expected_exc) != str(got_exc)
            ):
                raise CompiledDivergence(
                    f"{label}: interpreted raised {expected_exc!r}, "
                    f"compiled raised {got_exc!r}"
                )
            raise expected_exc
        if expected != got or bool(expected) != bool(got):
            raise CompiledDivergence(
                f"{label}: interpreted → {expected!r}, compiled → {got!r}"
            )
        return expected

    return _checked
