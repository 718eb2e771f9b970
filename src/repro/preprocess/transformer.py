"""The preprocessor: natural-Python predicates → taggable DSL (Fig. 1.8).

The original framework ships a source preprocessor that turns ``monitor
class`` / ``waituntil(count < items.length)`` keyword syntax into library
calls.  This module is its Python analogue: decorate a Monitor subclass
with :func:`monitor_compile` and write waits as *plain Python expressions*::

    @monitor_compile
    class BoundedQueue(Monitor):
        def put(self, item):
            waituntil(self.count < self.capacity)
            ...

Without the transform, ``self.count < self.capacity`` would evaluate
eagerly to a bool; the preprocessor rewrites each ``waituntil(expr)`` call
to ``self.wait_until(<DSL form of expr>)`` where

* ``self.attr`` reads become :data:`~repro.core.expressions.S` shared
  variables (``S.attr``) — so the condition manager can tag them;
* ``and`` / ``or`` / ``not`` become the DSL's ``&`` / ``|`` / ``~``
  (Python boolean operators are not overloadable);
* any other self-dependent subexpression (method calls, subscripts,
  ``len(self.items)``, …) becomes a named
  :class:`~repro.core.expressions.SharedExpr` so it can still anchor a tag;
* local variables and parameters are left in place — they are frozen into
  the predicate as constants when ``wait_until`` builds it, which is
  exactly the paper's closure operation;
* ``is`` / ``is not`` / ``in`` / ``not in`` cannot be overloaded, so a
  self-dependent comparison using one is lifted whole into a
  :class:`~repro.core.expressions.SharedExpr` carrying its ``self.X`` read
  set and compared untagged (``!= False``): each waiter evaluates its own
  closure.  A lifted expression whose lambda closes over a method local
  (``x in self.items``) is named by that closure's identity as well as its
  source text, so waiters with different locals never share a tag table.

Each ``waituntil`` site's predicate shape is fixed when the class
compiles, as in the paper's preprocessor; only the closure constants vary
per call.  A *closed* site — its rewritten condition names nothing but the
DSL helpers and lambda parameters: no parameter, local, module global or
closure variable — therefore builds the same predicate on every call, so
``monitor_compile`` builds that :class:`~repro.core.predicates.Predicate`
once and every call (on every instance) passes the same object.  Sites
that name anything else build per call and bind the values current at that
call.  A closed site whose predicate fails to build at decoration
(``waituntil(self.flag)``) keeps per-call construction, so the error still
surfaces in the calling thread.  The compiled method keeps its module's
live globals: it is built inside a factory whose parameters (the DSL
helpers and the hoisted predicates) it reads as closure cells.

The preprocessor also feeds the dependency-tracked relay (see
``docs/performance.md``): each lifted :class:`SharedExpr` is annotated
with the ``self.X`` names it reads (or None when opaque), and every
method — public or private, with or without waits — gets
``self._note_write('X')`` inserted before statements that write shared
state through paths ``Monitor.__setattr__`` cannot see (``self.x[i] =
v``, ``self.a.b = v``, ``del self.x[i]``, ``self.items.append(v)`` and
the other list/dict/set/deque mutators).  Aliased mutations (``xs =
self.items; xs.append(v)``) escape the static rewrite; monlint's W007
flags those.

As a by-product, compilation stashes a write-site summary on the class —
``cls._repro_write_sites`` maps each shared variable to the methods that
write it — which the runtime obligation check
(:class:`repro.resilience.inspector.Inspector`) uses to name
the candidate sections that *could* discharge a starving wait.

Limitations (documented, mirroring the original's): the transform needs the
class's source (``inspect.getsource``), so it does not work in the REPL;
``waituntil`` must be called as a statement with a single positional
argument; comparison chains (``a < b < c``) are split into conjunctions.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from typing import Any, Callable, TypeVar

from repro.core.expressions import S, SharedExpr
from repro.core.predicates import Predicate
from repro.runtime.errors import PredicateError

T = TypeVar("T", bound=type)

#: the name the preprocessor recognizes, mirroring the paper's keyword
WAITUNTIL = "waituntil"


def waituntil(condition: Any) -> None:  # pragma: no cover - always rewritten
    """Placeholder for the ``waituntil`` statement.

    Calls to this function only exist in *source* form; ``monitor_compile``
    rewrites them away.  Executing it directly means the enclosing class was
    not compiled — fail loudly rather than silently skipping the wait.
    """
    raise PredicateError(
        "waituntil() reached at runtime — decorate the class with "
        "@monitor_compile (or call self.wait_until(...) directly)"
    )


class _SelfExprCheck(ast.NodeVisitor):
    """Classify an expression: does it mention ``self``, and is it a plain
    ``self.attr`` read?"""

    def __init__(self, self_name: str):
        self.self_name = self_name
        self.mentions_self = False

    def visit_Name(self, node: ast.Name):
        if node.id == self.self_name:
            self.mentions_self = True


def _mentions_self(node: ast.AST, self_name: str) -> bool:
    checker = _SelfExprCheck(self_name)
    checker.visit(node)
    for child in ast.walk(node):
        checker.visit(child)
    return checker.mentions_self


def _is_plain_self_attr(node: ast.AST, self_name: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    )


def _collect_self_reads(node: ast.AST, self_name: str) -> frozenset | None:
    """Read set of a lifted expression: the ``self.X`` roots it mentions.

    ``len(self.items)`` reads ``{items}``; ``self.grid[i][j]`` reads
    ``{grid}``.  Returns None (conservative "reads everything") when the
    expression calls a method reached through ``self`` (its body may read
    anything) or lets bare ``self`` escape into a call/subscript — then
    the dependency-filtered relay must re-evaluate on every write.
    """
    reads: set[str] = set()
    consumed: set[int] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and _mentions_self(n.func, self_name):
            return None
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == self_name
        ):
            reads.add(n.attr)
            consumed.add(id(n.value))
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id == self_name and id(n) not in consumed:
            return None  # bare self escapes (f(self), self[k], ...)
    return frozenset(reads)


class _PredicateRewriter(ast.NodeTransformer):
    """Rewrite one waituntil argument into DSL form."""

    def __init__(self, self_name: str):
        self.self_name = self_name

    # -- boolean structure ----------------------------------------------------
    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        op = ast.BitAnd() if isinstance(node.op, ast.And) else ast.BitOr()
        values = [self.visit(v) for v in node.values]
        out = values[0]
        for value in values[1:]:
            out = ast.BinOp(left=out, op=op, right=value)
        return out

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        if isinstance(node.op, ast.Not):
            return ast.UnaryOp(op=ast.Invert(), operand=self.visit(node.operand))
        return self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        # split chains (a < b < c) into (a < b) & (b < c)
        operands = [node.left, *node.comparators]
        # lift is/in links before visiting: a visit may rewrite an operand
        # in place, and a lift needs its original source text
        lifted = [
            self._lift_compare(left, op, right)
            for left, op, right in zip(operands, node.ops, operands[1:])
        ]
        visited = [self.visit(operand) for operand in operands]
        comparisons: list[ast.AST] = [
            lift if lift is not None
            else ast.Compare(left=visited[i], ops=[op],
                             comparators=[visited[i + 1]])
            for i, (op, lift) in enumerate(zip(node.ops, lifted))
        ]
        out = comparisons[0]
        for comparison in comparisons[1:]:
            out = ast.BinOp(left=out, op=ast.BitAnd(), right=comparison)
        return out

    # -- leaves ----------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        if _is_plain_self_attr(node, self.self_name):
            # self.attr  →  S.attr
            return ast.Attribute(
                value=ast.Name(id="__repro_S", ctx=ast.Load()),
                attr=node.attr,
                ctx=ast.Load(),
            )
        return self._lift_if_self(node)

    def visit_Call(self, node: ast.Call) -> ast.AST:
        return self._lift_if_self(node)

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        return self._lift_if_self(node)

    def _lift_compare(self, left: ast.expr, op: ast.cmpop,
                      right: ast.expr) -> ast.AST | None:
        """``self.item is None`` → ``__repro_shared(...) != False``.

        Python applies ``is`` / ``in`` to DSL nodes as plain operators (a
        SharedVar is never None, nor iterable), so a self-dependent link
        using one is lifted whole and compared untagged.  Returns None for
        other operators and for pure-local links, which stay closure
        constants."""
        if not isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
            return None
        link = ast.Compare(left=left, ops=[op], comparators=[right])
        if not _mentions_self(link, self.self_name):
            return None
        return ast.Compare(left=self._lift_if_self(link), ops=[ast.NotEq()],
                           comparators=[ast.Constant(value=False)])

    def _lift_if_self(self, node: ast.AST) -> ast.AST:
        """Wrap a self-dependent compound expression into a SharedExpr:
        ``len(self.items)`` → ``__repro_shared(lambda m: len(m.items), "...")``
        (keyed by source text so equal expressions share tag tables; see
        :func:`_lifted` for lambdas that close over method locals)."""
        if not _mentions_self(node, self.self_name):
            return node  # pure-local: closure constant, leave untouched
        source = ast.unparse(node)
        reads = _collect_self_reads(node, self.self_name)
        if reads is None:
            reads_node: ast.expr = ast.Constant(value=None)
        else:
            reads_node = ast.Tuple(
                elts=[ast.Constant(value=n) for n in sorted(reads)],
                ctx=ast.Load(),
            )
        renamed = _RenameSelf(self.self_name).visit(
            ast.parse(source, mode="eval").body
        )
        lam = ast.Lambda(
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg="__repro_m")],
                kwonlyargs=[],
                kw_defaults=[],
                defaults=[],
            ),
            body=renamed,
        )
        return ast.Call(
            func=ast.Name(id="__repro_shared", ctx=ast.Load()),
            args=[lam, ast.Constant(value=source), reads_node],
            keywords=[],
        )


class _RenameSelf(ast.NodeTransformer):
    def __init__(self, self_name: str):
        self.self_name = self_name

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id == self.self_name:
            return ast.Name(id="__repro_m", ctx=node.ctx)
        return node


#: receiver methods treated as in-place mutation of the container they are
#: called on (list/dict/set/deque vocabulary; unknown names are left alone
#: and fall under monlint's W007 instead)
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "reverse", "rotate", "setdefault", "sort", "update",
})


def _peel_to_self_attr(node: ast.AST, self_name: str) -> str | None:
    """Follow ``value`` chains of attribute/subscript nodes down to the
    root; return the attribute name adjacent to ``self`` (``self.a.b[k]``
    → ``"a"``) or None when the path is not rooted at ``self``."""
    attr = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id == self_name:
        return attr
    return None


def _stmt_header_nodes(stmt: ast.stmt):
    """Yield a statement's expression nodes without descending into nested
    statement blocks (those are instrumented separately, in place)."""
    stack: list[ast.AST] = []
    for _field, value in ast.iter_fields(stmt):
        if isinstance(value, list):
            stack.extend(
                v for v in value
                if isinstance(v, ast.AST)
                and not isinstance(v, (ast.stmt, ast.excepthandler))
            )
        elif isinstance(value, ast.AST):
            stack.append(value)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _untracked_writes(stmt: ast.stmt, self_name: str) -> set[str]:
    """Shared-variable names ``stmt`` writes through paths the monitor's
    ``__setattr__`` proxy cannot see: subscript/nested-attribute stores and
    deletes (``self.x[i] = v``, ``self.a.b = v``, ``del self.x[i]``) and
    in-place mutator calls (``self.items.append(v)``)."""
    roots: set[str] = set()
    for node in _stmt_header_nodes(stmt):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if _is_plain_self_attr(node, self_name):
                continue  # rebind/del of self.attr: __setattr__ tracks it
            root = _peel_to_self_attr(node, self_name)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            root = _peel_to_self_attr(node.func.value, self_name)
        else:
            continue
        if root is not None:
            roots.add(root)
    return roots


def _note_write_stmt(self_name: str, attr: str) -> ast.Expr:
    return ast.Expr(
        value=ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=self_name, ctx=ast.Load()),
                attr="_note_write",
                ctx=ast.Load(),
            ),
            args=[ast.Constant(value=attr)],
            keywords=[],
        )
    )


def _instrument_block(stmts: list, self_name: str) -> tuple[list, bool]:
    """Insert ``self._note_write('X')`` before every statement with an
    untracked write to shared variable X.  The note runs even when the
    write turns out conditional (ternary, short-circuit) — over-marking
    dirty only costs a spurious re-evaluation, never a missed signal."""
    out: list = []
    changed = False
    for stmt in stmts:
        for field, value in ast.iter_fields(stmt):
            if not (isinstance(value, list) and value):
                continue
            if isinstance(value[0], ast.stmt):
                new, sub = _instrument_block(value, self_name)
                setattr(stmt, field, new)
                changed |= sub
            elif isinstance(value[0], ast.excepthandler):
                for handler in value:
                    new, sub = _instrument_block(handler.body, self_name)
                    handler.body = new
                    changed |= sub
        for name in sorted(_untracked_writes(stmt, self_name)):
            out.append(_note_write_stmt(self_name, name))
            changed = True
        out.append(stmt)
    return out, changed


class _MethodRewriter(ast.NodeTransformer):
    """Replace ``waituntil(expr)`` statements inside one method body."""

    def __init__(self, self_name: str):
        self.self_name = self_name
        #: the rewritten ``self.wait_until(<condition>)`` calls
        self.sites: list[ast.Call] = []

    def visit_Expr(self, node: ast.Expr) -> ast.AST:
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == WAITUNTIL
        ):
            if len(call.args) != 1 or call.keywords:
                raise PredicateError(
                    "waituntil takes exactly one positional condition"
                )
            predicate = _PredicateRewriter(self.self_name).visit(call.args[0])
            ast.fix_missing_locations(predicate)
            site = ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id=self.self_name, ctx=ast.Load()),
                    attr="wait_until",
                    ctx=ast.Load(),
                ),
                args=[predicate],
                keywords=[],
            )
            self.sites.append(site)
            return ast.Expr(value=site)
        return node


def _lifted(fn: Callable[[Any], Any], source: str,
            reads: tuple | None) -> SharedExpr:
    """``__repro_shared``: the SharedExpr of one lifted subexpression.

    Its source text names it, so waiters on equal expressions share tag
    tables.  A lambda that closes over a method local (``self.items[i]``,
    ``x in self.items``) is a different function of the monitor state for
    every value of that local, so its name also carries the closure's
    identity: its waiters never share a tag table or a cached evaluator
    through the source text."""
    if fn.__closure__ is not None:
        source = f"{source} @{id(fn):#x}"
    return SharedExpr(fn, source, reads)


#: what a rewritten condition reads besides lambda parameters when it is
#: closed, and the bindings every compiled method receives
_DSL_HELPERS = {"__repro_S": S, "__repro_shared": _lifted}


def _is_closed(node: ast.AST, params: frozenset = frozenset()) -> bool:
    """True when a rewritten condition names only the DSL helpers and
    lambda parameters, so every call would build the same predicate."""
    if isinstance(node, ast.Name):
        return node.id in _DSL_HELPERS or node.id in params
    if isinstance(node, ast.Lambda):
        # defaults are evaluated outside the lambda; its body sees its own
        # parameters
        inner = params | {a.arg for a in ast.walk(node.args)
                          if isinstance(a, ast.arg)}
        return _is_closed(node.args, params) and _is_closed(node.body, inner)
    return all(_is_closed(child, params) for child in ast.iter_child_nodes(node))


def _build_once(condition: ast.expr, module_globals: dict,
                filename: str) -> Predicate | None:
    """The predicate of a closed ``waituntil`` site, built at class-compile
    time, or None when the site must keep building per call."""
    if not _is_closed(condition):
        return None
    expr = ast.fix_missing_locations(ast.Expression(body=condition))
    try:
        return Predicate(eval(  # noqa: S307 — our own rewritten AST
            compile(expr, filename, "eval"), module_globals, dict(_DSL_HELPERS)))
    except Exception:  # noqa: BLE001 — deferred, not swallowed
        # e.g. ``waituntil(self.flag)``: built per call instead, the error
        # surfaces in the calling thread as it would without hoisting
        return None


def _method_write_vars(fn: Callable) -> set[str]:
    """:func:`_writes_in` of one raw method's source.  Empty when the
    source is unavailable (REPL/exec classes)."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return set()
    try:
        func_def = ast.parse(source).body[0]
    except (SyntaxError, IndexError):  # pragma: no cover — defensive
        return set()
    if not isinstance(func_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    if not func_def.args.args:
        return set()
    return _writes_in(func_def, func_def.args.args[0].arg)


def _writes_in(func_def: ast.AST, self_name: str) -> set[str]:
    """Shared-variable names a method body writes, proxy-visible or not:
    plain ``self.attr`` rebinds/deletes plus the untracked in-place roots
    ``_untracked_writes`` instruments (monlint's W013 reads the same)."""
    written: set[str] = set()
    for node in ast.walk(func_def):
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if _is_plain_self_attr(node, self_name):
                written.add(node.attr)
    for node in ast.walk(func_def):
        if isinstance(node, ast.stmt):
            written |= _untracked_writes(node, self_name)
    return {name for name in written if not name.startswith("_")}


def _compile_method(fn: Callable, allow_waituntil: bool = True) -> Callable | None:
    """Rewrite one method; returns the new function or None if untouched.

    Two independent rewrites may apply: the ``waituntil`` → ``wait_until``
    transform (public methods only), which also builds each closed site's
    predicate once, and the untracked-write instrumentation
    (``self._note_write`` insertion, so dependency-filtered relay sees
    in-place container mutations)."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        # No retrievable source: REPL input, exec()-built classes, frozen
        # apps.  If the body never mentions waituntil that is harmless, but
        # a method that *does* call it would otherwise sail through and hit
        # the placeholder's error at call time — fail at decoration instead.
        if WAITUNTIL in fn.__code__.co_names:
            raise PredicateError(
                f"{fn.__qualname__}: cannot retrieve source for the "
                "waituntil rewrite (class defined in a REPL, exec(), or a "
                "frozen module); define it in an importable file or call "
                "self.wait_until(...) directly"
            ) from exc
        return None
    tree = ast.parse(source)
    func_def = tree.body[0]
    if not isinstance(func_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    if not func_def.args.args:
        return None
    self_name = func_def.args.args[0].arg
    sites: list[ast.Call] = []
    if allow_waituntil and WAITUNTIL in source:
        rewriter = _MethodRewriter(self_name)
        rewriter.visit(func_def)
        sites = rewriter.sites
    func_def.body, instrumented = _instrument_block(func_def.body, self_name)
    if not sites and not instrumented:
        return None
    # closure variables (rare in methods) cannot be rebuilt by exec; detect
    if fn.__closure__:
        if sites:
            raise PredicateError(
                f"{fn.__qualname__}: waituntil methods must not close over "
                "enclosing-scope variables (pass them as parameters instead)"
            )
        return None  # keep closure-bearing methods intact; W007 covers them
    func_def.decorator_list = []     # decorators already applied to `fn`
    filename = f"<monitor_compile {fn.__qualname__}>"
    bindings = dict(_DSL_HELPERS)
    for site in sites:
        predicate = _build_once(site.args[0], fn.__globals__, filename)
        if predicate is not None:
            name = f"__repro_P{len(bindings) - len(_DSL_HELPERS)}"
            bindings[name] = predicate
            site.args[0] = ast.Name(id=name, ctx=ast.Load())
    # Compile the method inside a factory taking the bindings: the method
    # reads them as closure cells, and its globals stay fn's live module
    # dict, so a module global it reads is looked up at call time.
    factory = ast.parse(f"def __repro_bind({', '.join(bindings)}): pass").body[0]
    factory.body = [func_def, ast.Return(value=ast.Name(id=func_def.name, ctx=ast.Load()))]
    tree.body = [factory]
    ast.fix_missing_locations(tree)
    namespace: dict = {}
    code = compile(tree, filename=filename, mode="exec")
    exec(code, fn.__globals__, namespace)  # noqa: S102 — compiling our own AST
    new_fn = namespace["__repro_bind"](**bindings)
    functools.update_wrapper(new_fn, fn)
    return new_fn


def monitor_compile(cls: T) -> T:
    """Class decorator: rewrite every ``waituntil(...)`` in the class body.

    Must sit *above* the Monitor metaclass's wrapping — i.e. applied to the
    already-created class — so it unwraps each auto-wrapped method, rewrites
    the original body, and re-wraps it.
    """
    from repro.core.monitor import Monitor, _wrap_method

    if not issubclass(cls, Monitor):
        raise PredicateError("@monitor_compile requires a Monitor subclass")
    #: shared variable → method names that write it (the static pass's
    #: candidate write sites, consumed by the runtime Inspector
    #: when naming who *could* have discharged a starving wait)
    write_sites: dict[str, list[str]] = {}
    for name, value in list(vars(cls).items()):
        if not callable(value) or (name.startswith("__") and name.endswith("__")):
            continue
        raw = getattr(value, "__wrapped__", value)
        for var in _method_write_vars(raw):
            methods = write_sites.setdefault(var, [])
            if name not in methods:
                methods.append(name)
        # private helpers run under the public caller's lock: they get the
        # write instrumentation but never the waituntil rewrite
        compiled = _compile_method(
            raw, allow_waituntil=not name.startswith("_")
        )
        if compiled is None:
            continue
        if getattr(value, "_repro_wrapped", False):
            setattr(cls, name, _wrap_method(compiled))
        else:
            setattr(cls, name, compiled)
    cls._repro_write_sites = {
        var: sorted(methods) for var, methods in write_sites.items()
    }
    return cls
