"""monlint rules W001–W007.

Each rule is a small class with a ``code``, ``severity`` and a
``check(module, ctx)`` generator; W004 additionally contributes edges to the
project-wide lock-order graph and reports cycles in ``finalize``.  The
whole-program liveness rules (W010–W012, signal-obligation discharge) live
in :mod:`repro.analysis.liveness` and register themselves into
``ALL_RULES`` on import.

Paper grounding (see ``docs/analysis.md`` for the full discussion):

* **W001** — predicate closure (Def. 2) requires ``waituntil`` conditions to
  be pure functions of shared + frozen-local state; side effects during
  evaluation break Prop. 1 (any thread may evaluate any closed predicate).
* **W002** — the closure freezes locals *at the wait*; reassigning a
  captured local afterwards and then mutating shared state suggests the
  programmer expected the predicate to track the new value.
* **W003** — relay invariance (Def. 5) only holds if every shared-state
  write happens inside a monitor section, so the exiting thread can signal
  a waiter whose predicate became true.
* **W004** — deadlock freedom (§4.1) rests on *all* multi-object
  acquisitions going through ``multisynch``'s ascending-id order; nested or
  hand-rolled acquisition reintroduces programmer-chosen order, and a cycle
  in the resulting lock graph is the classic circular wait.  Acquisitions
  routed through ``monitor_set(...).synch()`` or a stored multisynch block
  use the same cached ascending-id path and are recognized as ordered.
* **W005** — a predicate that is structurally ``shared op constant`` but
  reaches the runtime as an opaque callable falls to the ``None`` tag
  (Algorithm 1) and degrades relay signaling to a linear scan.
* **W006** — delegated tasks execute under their monitor's lock (Rule 1),
  so blocking on ``future.get()`` with no timeout — or ``flush()`` without
  one — from inside a synchronized method holds a lock the executor may
  need: a self-deadlock the resilience layer (docs/robustness.md) can only
  bound, never prevent, unless the wait carries a timeout.
* **W007** — the dependency-tracked relay (docs/performance.md) filters
  untagged waiters by each exit's dirty set, recorded by the monitor's
  ``__setattr__`` proxy.  An in-place write (``self.jobs.append(x)``,
  ``self.table[k] = v``) bypasses the proxy; when some wait-site predicate
  in the class declares that variable in its read set, the write is
  invisible to the filter and the waiter may sleep through its enabling
  update.  ``@monitor_compile`` classes are exempt (the preprocessor
  inserts ``self._note_write``), as are methods that call it by hand.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.lockgraph import LockOrderGraph
from repro.analysis.model import (
    NONLOCKING_MONITOR_ATTRS,
    MethodModel,
    ModuleModel,
    MonitorClassModel,
    WaitSite,
    _base_name,
    _annotation_name,
    collect_attr_writes,
    collect_wait_sites,
    monitor_locals,
)
from repro.preprocess.transformer import _untracked_write_root

_TRY_TYPES = (ast.Try,) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ()
)

_BUILTIN_NAMES = set(dir(builtins))

#: builtins whose call is (or may be) side-effecting
_IMPURE_BUILTINS = {
    "print", "input", "open", "exec", "eval", "compile", "setattr",
    "delattr", "next", "__import__", "breakpoint", "vars", "globals",
}

#: extra callables known pure in predicate position (the DSL constructors)
_PURE_EXTRA = {"local", "complex_pred", "S"}

#: method names that mutate their receiver — calling one inside a predicate
#: is a definite closure violation
_MUTATING_METHODS = {
    "append", "appendleft", "extend", "insert", "remove", "discard",
    "clear", "pop", "popleft", "popitem", "update", "add", "put", "take",
    "push", "write", "acquire", "release", "notify", "notify_all",
    "signal", "set", "setdefault", "sort", "reverse", "send", "submit",
    "consume", "produce", "increment", "decrement",
}


class ProjectContext:
    """State shared across all modules of one lint run."""

    def __init__(self) -> None:
        self.lock_graph = LockOrderGraph()
        self.monitor_names: set[str] = set()
        #: class name → its model (last definition wins on name clashes)
        self.classes: dict[str, MonitorClassModel] = {}
        self._walkers: dict[str, "_SyncWalker"] = {}

    def register(self, module: ModuleModel) -> None:
        self.monitor_names |= module.local_monitor_names
        for cls in module.monitor_classes:
            self.classes[cls.name] = cls

    def sync_walker(self, module: ModuleModel) -> "_SyncWalker":
        """One shared walk per module (W003 and W004 both consume it;
        caching also keeps lock-graph edges from being recorded twice)."""
        walker = self._walkers.get(module.path)
        if walker is None:
            walker = _SyncWalker(module, self)
            walker.run()
            self._walkers[module.path] = walker
        return walker

    def target_is_synchronized(self, cls_name: str, method: str) -> bool:
        """Does calling ``<cls_name>.<method>()`` take the monitor lock?
        Unknown classes/methods are conservatively assumed synchronized."""
        if method.startswith("_") or method in NONLOCKING_MONITOR_ATTRS:
            return False
        cls = self.classes.get(cls_name)
        if cls is None or method not in cls.methods:
            return True
        return cls.methods[method].kind == "synchronized"


class Rule:
    code = ""
    name = ""
    severity = Severity.WARNING

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        return iter(())

    def _finding(self, module_path: str, node_or_line, message: str, col: int = 0) -> Finding:
        if isinstance(node_or_line, int):
            line = node_or_line
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", col)
        return Finding(
            code=self.code,
            severity=self.severity,
            message=message,
            path=module_path,
            line=line,
            col=col,
            rule_name=self.name,
        )


# ---------------------------------------------------------------------------
# W001 — non-closed predicate
# ---------------------------------------------------------------------------

class NonClosedPredicate(Rule):
    code = "W001"
    name = "non-closed-predicate"
    severity = Severity.ERROR

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for cls, method in module.iter_methods():
            for site in method.waits:
                yield from self._check_site(module, site, cls, method)
        # wait sites outside monitor classes (module functions, plain
        # classes driving multisynch blocks, …)
        monitor_nodes = {cls.node for cls in module.monitor_classes}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for site in collect_wait_sites(node, None):
                    yield from self._check_site(module, site, None, None)
            elif isinstance(node, ast.ClassDef) and node not in monitor_nodes:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        for site in collect_wait_sites(item, None):
                            yield from self._check_site(module, site, None, None)

    def _check_site(
        self,
        module: ModuleModel,
        site: WaitSite,
        cls: MonitorClassModel | None,
        method: MethodModel | None,
    ) -> Iterator[Finding]:
        sync_names = cls.sync_method_names if cls is not None else set()
        self_name = method.self_name if method is not None else None
        global_names = method.global_names if method is not None else set()
        for node in ast.walk(site.expr):
            if isinstance(node, ast.NamedExpr):
                yield self._finding(
                    module.path, node,
                    "assignment expression inside a waituntil predicate — "
                    "predicates must be closed (side-effect free, Def. 2)",
                )
            elif isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
                yield self._finding(
                    module.path, node,
                    "await/yield inside a waituntil predicate — predicates "
                    "must be closed (side-effect free, Def. 2)",
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, self_name, sync_names
                )
            elif (
                isinstance(node, ast.Name)
                and node.id in global_names
            ):
                yield self._finding(
                    module.path, node,
                    f"predicate reads {node.id!r}, declared global/nonlocal "
                    "in the enclosing method — the closure cannot freeze it, "
                    "so evaluations by other threads see a moving value",
                )

    def _check_call(
        self,
        module: ModuleModel,
        node: ast.Call,
        self_name: str | None,
        sync_names: set[str],
    ) -> Iterator[Finding]:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            if fn.attr in _MUTATING_METHODS:
                yield self._finding(
                    module.path, node,
                    f"predicate calls mutating method {fn.attr!r}() — the "
                    "condition manager may evaluate it on any thread, any "
                    "number of times (closure violation, Def. 2)",
                )
            elif (
                self_name is not None
                and isinstance(fn.value, ast.Name)
                and fn.value.id == self_name
                and fn.attr in sync_names
            ):
                yield self._finding(
                    module.path, node,
                    f"predicate calls synchronized method {fn.attr!r}() — "
                    "re-entering the monitor during predicate evaluation "
                    "has side effects (relay, metrics) and can deadlock "
                    "the signaler",
                )
        elif isinstance(fn, ast.Name):
            if fn.id in _PURE_EXTRA:
                return
            if fn.id in _BUILTIN_NAMES and fn.id not in _IMPURE_BUILTINS:
                return
            yield self._finding(
                module.path, node,
                f"predicate calls {fn.id!r}() which is not known to be "
                "pure — closed predicates may only read shared state and "
                "frozen locals (Def. 2)",
            )


# ---------------------------------------------------------------------------
# W002 — stale closure
# ---------------------------------------------------------------------------

class StaleClosure(Rule):
    code = "W002"
    name = "stale-closure"
    severity = Severity.WARNING

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for cls, method in module.iter_methods():
            if not method.waits or method.self_name is None:
                continue
            for site in method.waits:
                captured = self._captured_locals(module, site, method)
                if not captured:
                    continue
                yield from self._check_reassignments(
                    module, site, method, captured
                )

    def _captured_locals(
        self, module: ModuleModel, site: WaitSite, method: MethodModel
    ) -> set[str]:
        skip = (
            {method.self_name, "S"}
            | _PURE_EXTRA
            | _BUILTIN_NAMES
            | module.module_names
            | module.known_monitor_names
            | method.global_names
        )
        names: set[str] = set()
        for node in ast.walk(site.expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in skip:
                    names.add(node.id)
            elif isinstance(node, ast.Lambda):
                for arg in node.args.args:
                    skip.add(arg.arg)
        return names

    def _check_reassignments(
        self,
        module: ModuleModel,
        site: WaitSite,
        method: MethodModel,
        captured: set[str],
    ) -> Iterator[Finding]:
        shared_write_lines = sorted(
            w.lineno for w in method.self_writes
            if not w.attr.startswith("_")
        )
        for node in ast.walk(method.node):
            target_names: list[str] = []
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    target_names.extend(_flat_names(target))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target_names.extend(_flat_names(node.target))
            else:
                continue
            hits = [n for n in target_names if n in captured]
            if not hits or node.lineno <= site.lineno:
                continue
            # only meaningful if shared state is mutated after the rebind —
            # that is the write the stale predicate was guarding
            if not any(line >= node.lineno for line in shared_write_lines):
                continue
            for name in hits:
                yield self._finding(
                    module.path, node,
                    f"local {name!r} was frozen into the waituntil predicate "
                    f"at line {site.lineno} (closure, Def. 2) but is "
                    "reassigned here before the method's shared-state "
                    "update — the predicate still holds the old value",
                )


def _flat_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_flat_names(elt))
        return out
    return []


# ---------------------------------------------------------------------------
# W003 — shared-state write outside a synchronized monitor section
# ---------------------------------------------------------------------------

class UnsynchronizedWrite(Rule):
    code = "W003"
    name = "unsynchronized-write"
    severity = Severity.ERROR

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        # (a) @unmonitored methods of a monitor class writing shared attrs
        for cls, method in module.iter_methods():
            if method.kind != "unmonitored":
                continue
            for write in method.self_writes:
                if write.attr.startswith("_"):
                    continue
                yield self._finding(
                    module.path, write.lineno,
                    f"@unmonitored method {cls.name}.{method.name}() writes "
                    f"shared attribute {write.attr!r} without the monitor "
                    "lock — breaks relay invariance (Def. 5): no exiting "
                    "thread will signal waiters this write unblocks",
                    col=write.col,
                )
        # (b) writes to known monitor objects outside any synchronized block
        walker = ctx.sync_walker(module)
        for write, resolved_cls in walker.unsynced_writes:
            yield self._finding(
                module.path, write.lineno,
                f"write to {write.obj}.{write.attr} (a {resolved_cls} "
                "monitor) outside any monitor section — wrap it in the "
                "monitor's methods, synchronized(...) or multisynch(...) "
                "so relay signaling sees the change (Def. 5)",
                col=write.col,
            )


# ---------------------------------------------------------------------------
# W004 — nested / hand-ordered multi-monitor acquisition
# ---------------------------------------------------------------------------

class HandOrderedAcquisition(Rule):
    code = "W004"
    name = "hand-ordered-acquisition"
    severity = Severity.ERROR

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        walker = ctx.sync_walker(module)
        for node, message in walker.w004_events:
            yield self._finding(module.path, node, message)

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        for component in ctx.lock_graph.cycles():
            anchor = ctx.lock_graph.anchor_for(component)
            chain = " → ".join(component + [component[0]])
            yield Finding(
                code=self.code,
                severity=self.severity,
                message=(
                    f"potential deadlock: nested acquisitions form the "
                    f"lock-order cycle {chain}; route the multi-object "
                    "section through multisynch(...) so the runtime picks "
                    "the global ascending-id order (§4.1)"
                ),
                path=anchor.path,
                line=anchor.lineno,
                rule_name=self.name,
            )


# ---------------------------------------------------------------------------
# W005 — tag advisor
# ---------------------------------------------------------------------------

_TAGGABLE_OPS = (ast.Eq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


class TagAdvisor(Rule):
    code = "W005"
    name = "tag-advisor"
    severity = Severity.HINT

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for cls, method in module.iter_methods():
            for site in method.waits:
                if site.form != "wait_until":
                    continue
                yield from self._check_site(module, site, method)

    def _check_site(
        self, module: ModuleModel, site: WaitSite, method: MethodModel
    ) -> Iterator[Finding]:
        expr = site.expr
        if isinstance(expr, ast.Lambda):
            base = (
                expr.args.args[0].arg if expr.args.args else method.self_name
            )
            if base and _taggable_tree(expr.body, base):
                yield self._finding(
                    module.path, site.call,
                    "opaque lambda predicate is structurally "
                    "Equivalence/Threshold-taggable — rewrite with the S "
                    "DSL (e.g. S.attr > const) so relay signaling can use "
                    "tag indexes instead of a linear waiter scan "
                    "(Algorithm 1)",
                )
        elif isinstance(expr, (ast.Compare, ast.BoolOp)) and method.self_name:
            if _mentions_attr_of(expr, method.self_name):
                yield self._finding(
                    module.path, site.call,
                    f"wait_until argument reads {method.self_name}.<attr> "
                    "directly, so it evaluates eagerly to a plain bool and "
                    "cannot be tagged (or re-evaluated) — use S.<attr> to "
                    "build a structured, taggable predicate",
                )


def _mentions_attr_of(expr: ast.expr, base: str) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == base
        ):
            return True
    return False


def _taggable_tree(node: ast.expr, base: str) -> bool:
    """True when the whole boolean tree is and/or over ``base.attr op
    constant-or-local`` comparisons — i.e. expressible in the S DSL with an
    Equivalence or Threshold tag."""
    if isinstance(node, ast.BoolOp):
        return all(_taggable_tree(v, base) for v in node.values)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _taggable_tree(node.operand, base)
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or not isinstance(node.ops[0], _TAGGABLE_OPS):
            return False
        left, right = node.left, node.comparators[0]
        return (_shared_read(left, base) and _const_like(right, base)) or (
            _const_like(left, base) and _shared_read(right, base)
        )
    return False


def _shared_read(node: ast.expr, base: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == base
    )


def _const_like(node: ast.expr, base: str) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _const_like(node.operand, base)
    return isinstance(node, ast.Name) and node.id != base


# ---------------------------------------------------------------------------
# W006 — unbounded blocking wait under the monitor lock
# ---------------------------------------------------------------------------

class UnboundedBlockingWait(Rule):
    code = "W006"
    name = "unbounded-blocking-wait"
    severity = Severity.WARNING

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for cls, method in module.iter_methods():
            if method.kind != "synchronized":
                continue
            yield from self._check_method(module, cls, method)

    def _check_method(
        self, module: ModuleModel, cls: MonitorClassModel, method: MethodModel
    ) -> Iterator[Finding]:
        func = method.node
        resolve = self._monitor_names(module, cls, method)
        futures = self._future_names(func, resolve)
        where = f"synchronized method {cls.name}.{method.name}()"
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            base = node.func.value
            if node.func.attr == "flush":
                obj = _dotted_name(base)
                if obj in resolve and not _bounded_by_timeout(node):
                    yield self._finding(
                        module.path, node,
                        f"{obj}.flush() without an explicit timeout inside "
                        f"{where} — flush blocks until the executor runs, "
                        "and the executor needs a monitor lock this thread "
                        "holds (Rule 1): a guaranteed stall; pass timeout= "
                        "(and see docs/robustness.md for deadlines/cancel)",
                    )
            elif node.func.attr == "get":
                if _bounded_by_timeout(node):
                    continue
                recv = _dotted_name(base)
                chained = _is_monitor_call(base, resolve)
                if (recv in futures) or chained:
                    shown = recv if recv is not None else "<future>"
                    yield self._finding(
                        module.path, node,
                        f"{shown}.get() with no timeout inside {where} — "
                        "the delegated task runs under its monitor's lock "
                        "(Rule 1) and this thread already holds one: an "
                        "unbounded get can self-deadlock the pair; pass "
                        "timeout=/deadline=/cancel= (docs/robustness.md)",
                    )

    def _monitor_names(
        self, module: ModuleModel, cls: MonitorClassModel, method: MethodModel
    ) -> dict[str, str]:
        """Names (possibly dotted) known to hold monitor objects."""
        func = method.node
        resolve: dict[str, str] = {}
        self_name = method.self_name
        if self_name:
            resolve[self_name] = cls.name
            for attr, mon_cls in cls.monitor_attrs.items():
                resolve[f"{self_name}.{attr}"] = mon_cls
        for arg in func.args.args:
            ann = _annotation_name(arg.annotation)
            if ann in module.known_monitor_names:
                resolve[arg.arg] = ann
        resolve.update(monitor_locals(func, module.known_monitor_names))
        return resolve

    def _future_names(
        self, func: ast.AST, resolve: dict[str, str]
    ) -> set[str]:
        """Plain names assigned from a call on a known monitor object —
        the ``future = mon.task(...)`` idiom."""
        names: set[str] = set()
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Assign)
                and _is_monitor_call(node.value, resolve)
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names


def _dotted_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted_name(node.value)
        return None if inner is None else f"{inner}.{node.attr}"
    return None


def _is_monitor_call(node: ast.expr, resolve: dict[str, str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and _dotted_name(node.func.value) in resolve
    )


def _bounded_by_timeout(call: ast.Call) -> bool:
    """True when the call carries a non-None timeout (positional or
    keyword) — ``timeout=None`` is explicit unboundedness, not a bound."""
    for kw in call.keywords:
        if kw.arg == "timeout":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
    if call.args:
        first = call.args[0]
        return not (
            isinstance(first, ast.Constant) and first.value is None
        )
    return False


# ---------------------------------------------------------------------------
# W007 — in-place shared-state write bypassing the tracking proxy
# ---------------------------------------------------------------------------

# Which writes bypass the proxy is the preprocessor's definition
# (``_untracked_write_root``), so the lint flags exactly the writes
# ``@monitor_compile`` would instrument.
class UntrackedSharedWrite(Rule):
    code = "W007"
    name = "untracked-shared-write"
    severity = Severity.WARNING

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for cls in module.monitor_classes:
            if self._is_compiled(cls.node):
                continue  # @monitor_compile inserts _note_write itself
            read_names = self._predicate_reads(cls)
            if not read_names:
                continue
            for method in cls.methods.values():
                if method.self_name is None:
                    continue
                noted = _noted_names(method.node, method.self_name)
                for node in ast.walk(method.node):
                    name = _untracked_write_root(node, method.self_name)
                    if (name is not None and not name.startswith("_")
                            and name in read_names and name not in noted):
                        yield self._finding(
                            module.path, node,
                            f"in-place write to self.{name} bypasses the "
                            "monitor's write-tracking proxy, but a wait "
                            "predicate in this class reads "
                            f"{name!r} — the dependency-filtered relay "
                            "will not re-evaluate that waiter for this "
                            "update; rebind the attribute, call "
                            f"self._note_write({name!r}) first, or compile "
                            "the class with @monitor_compile",
                        )

    @staticmethod
    def _is_compiled(node: ast.ClassDef) -> bool:
        return any(
            _base_name(dec) == "monitor_compile" or (
                isinstance(dec, ast.Call)
                and _base_name(dec.func) == "monitor_compile"
            )
            for dec in node.decorator_list
        )

    def _predicate_reads(self, cls: MonitorClassModel) -> set[str]:
        """Variable names some wait-site predicate of ``cls`` declares it
        reads: ``S.attr`` leaves plus explicit ``reads=`` annotations on
        ``S(fn, name, reads)`` shared expressions.  Multi-monitor wait
        sites are skipped — their ``S.attr`` reads belong to other
        monitors."""
        names: set[str] = set()
        for method in cls.methods.values():
            for site in method.waits:
                if site.form == "multi_wait":
                    continue
                for node in ast.walk(site.expr):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "S"
                    ):
                        names.add(node.attr)
                    elif (
                        isinstance(node, ast.Call)
                        and _base_name(node.func) == "S"
                    ):
                        for kw in node.keywords:
                            if kw.arg == "reads":
                                names |= _const_str_names(kw.value)
                        if len(node.args) >= 3:
                            names |= _const_str_names(node.args[2])
        return names


def _const_str_names(node: ast.expr) -> set[str]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {
            elt.value for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        }
    return set()


def _noted_names(func: ast.AST, self_name: str) -> set[str]:
    """Variables the method already reports via ``self._note_write('x')``."""
    names: set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_note_write"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self_name
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names.add(node.args[0].value)
    return names


# ---------------------------------------------------------------------------
# shared walker: synchronization contexts, lock-graph edges, monitor writes
# ---------------------------------------------------------------------------

class _SyncWalker:
    """Walk every function of a module tracking the stack of held
    synchronization contexts, collecting:

    * W004 events (nested multisynch, nested synchronized, raw ``._lock``);
    * lock-order edges for the project graph;
    * monitor-object attribute writes outside any section (for W003).
    """

    def __init__(self, module: ModuleModel, ctx: ProjectContext):
        self.module = module
        self.ctx = ctx
        self.w004_events: list[tuple[ast.AST, str]] = []
        self.unsynced_writes: list = []
        self._seen_edges: set[tuple] = set()
        # names bound (in the function being walked) to multisynch blocks or
        # monitor sets — their `with` entry routes through the ascending-id
        # acquisition path, so they count as multisynch for W004
        self._ms_names: set[str] = set()

    # -- entry points --------------------------------------------------------
    def run(self) -> None:
        for node in self.module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_function(node, owner=None)
        for cls in self.module.monitor_classes:
            for method in cls.methods.values():
                self._walk_function(method.node, owner=(cls, method))
        # plain (non-monitor) classes still contain functions worth walking
        monitor_class_nodes = {cls.node for cls in self.module.monitor_classes}
        for node in self.module.tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node not in monitor_class_nodes
            ):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._walk_function(item, owner=None, is_method=True)

    # -- per-function --------------------------------------------------------
    def _walk_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: tuple[MonitorClassModel, MethodModel] | None,
        is_method: bool = False,
    ) -> None:
        resolve: dict[str, str] = {}
        self_name: str | None = None
        if owner is not None:
            cls, method = owner
            self_name = method.self_name
            if self_name:
                resolve[self_name] = cls.name
                for attr, mon_cls in cls.monitor_attrs.items():
                    resolve[f"{self_name}.{attr}"] = mon_cls
        elif is_method and func.args.args:
            # plain-class method: its own self is not a monitor, but its
            # `self._lock` (an explicit lock it owns) must not be flagged
            self_name = func.args.args[0].arg
        for arg in func.args.args:
            ann = _annotation_name(arg.annotation)
            if ann in self.module.known_monitor_names:
                resolve[arg.arg] = ann
        resolve.update(monitor_locals(func, self.module.known_monitor_names))

        # Collect names bound to multisynch blocks / monitor sets anywhere in
        # this function (including nested defs): `ms = monitor_set(a, b)`,
        # `block = ms.synch()`, `block = multisynch(a, b)`.  A later
        # `with block:` acquires through the same globally-ordered path as a
        # literal `with multisynch(...)`, so W004 must not flag it.
        ms_names: set[str] = set()
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            routed = _base_name(call.func) in (
                "monitor_set", "MonitorSet", "multisynch", "Multisynch"
            ) or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "synch"
            )
            if routed:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        ms_names.add(target.id)
        self._ms_names = ms_names

        stack: list[tuple[str, str | None]] = []
        if (
            owner is not None
            and owner[1].kind == "synchronized"
        ):
            stack.append(("monitor_method", owner[0].name))
        self._walk_stmts(func.body, stack, resolve, self_name)

    def _walk_stmts(
        self,
        stmts: list[ast.stmt],
        stack: list[tuple[str, str | None]],
        resolve: dict[str, str],
        self_name: str | None,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                pushed: list[tuple[str, str | None]] = []
                for item in stmt.items:
                    self._scan_expr(item.context_expr, stack, resolve, self_name)
                    kind, arg = self._classify_withitem(item)
                    if kind is None:
                        continue
                    self._on_with(stmt, kind, arg, stack, resolve)
                    pushed.append((kind, arg))
                stack.extend(pushed)
                self._walk_stmts(stmt.body, stack, resolve, self_name)
                del stack[len(stack) - len(pushed):]
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, stack, resolve, self_name)
                self._walk_stmts(stmt.body, stack, resolve, self_name)
                self._walk_stmts(stmt.orelse, stack, resolve, self_name)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, stack, resolve, self_name)
                self._walk_stmts(stmt.body, stack, resolve, self_name)
                self._walk_stmts(stmt.orelse, stack, resolve, self_name)
            elif isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, stack, resolve, self_name)
                self._walk_stmts(stmt.body, stack, resolve, self_name)
                self._walk_stmts(stmt.orelse, stack, resolve, self_name)
            elif isinstance(stmt, _TRY_TYPES):
                self._walk_stmts(stmt.body, stack, resolve, self_name)
                for handler in stmt.handlers:
                    self._walk_stmts(handler.body, stack, resolve, self_name)
                self._walk_stmts(stmt.orelse, stack, resolve, self_name)
                self._walk_stmts(stmt.finalbody, stack, resolve, self_name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # nested function: runs later under an unknown context —
                # keep the current stack (conservative for closures that
                # execute inline, e.g. worker bodies defined in place)
                self._walk_stmts(stmt.body, stack, resolve, self_name)
            elif isinstance(stmt, ast.ClassDef):
                continue
            else:
                self._scan_stmt(stmt, stack, resolve, self_name)

    # -- classification ------------------------------------------------------
    def _classify_withitem(
        self, item: ast.withitem
    ) -> tuple[str | None, str | None]:
        ctx_expr = item.context_expr
        if isinstance(ctx_expr, ast.Call):
            name = _base_name(ctx_expr.func)
            if name in ("multisynch", "Multisynch"):
                return "multisynch", None
            if (
                isinstance(ctx_expr.func, ast.Attribute)
                and ctx_expr.func.attr == "synch"
            ):
                # ms.synch(): the MonitorSet cached-tuple fast path — same
                # ascending-id acquisition order as multisynch(...)
                return "multisynch", None
            if name == "synchronized":
                arg = (
                    ast.unparse(ctx_expr.args[0]) if ctx_expr.args else None
                )
                return "synchronized", arg
        if isinstance(ctx_expr, ast.Attribute) and ctx_expr.attr == "_lock":
            return "raw_lock", ast.unparse(ctx_expr.value)
        if isinstance(ctx_expr, ast.Name) and ctx_expr.id in self._ms_names:
            # a stored multisynch block / monitor-set handle entered later
            return "multisynch", None
        return None, None

    def _holder_class(
        self, stack: list[tuple[str, str | None]], resolve: dict[str, str]
    ) -> str | None:
        for kind, arg in reversed(stack):
            if kind == "monitor_method":
                return arg
            if kind == "synchronized" and arg in resolve:
                return resolve[arg]
        return None

    # -- events --------------------------------------------------------------
    def _on_with(
        self,
        stmt: ast.With | ast.AsyncWith,
        kind: str,
        arg: str | None,
        stack: list[tuple[str, str | None]],
        resolve: dict[str, str],
    ) -> None:
        held = bool(stack)
        if kind == "multisynch":
            if any(k == "multisynch" for k, _ in stack):
                self.w004_events.append((
                    stmt,
                    "nested multisynch blocks: the inner block's ordered "
                    "acquisition happens under locks the outer block "
                    "already holds, defeating the global ascending-id "
                    "order (§4.1) — pass all monitors to one multisynch",
                ))
            elif held:
                self.w004_events.append((
                    stmt,
                    "multisynch inside an already-held monitor section — "
                    "the held lock is outside multisynch's ascending-id "
                    "order and can form a deadlock cycle (§4.1)",
                ))
        elif kind == "synchronized":
            if held:
                self.w004_events.append((
                    stmt,
                    "hand-nested synchronized(...) under another monitor "
                    "section chooses its own lock order — use "
                    "multisynch(...) for multi-object sections (§4.1)",
                ))
            holder = self._holder_class(stack, resolve)
            if holder is not None and arg in resolve:
                self._add_edge(holder, resolve[arg], stmt.lineno)

    def _add_edge(self, src: str, dst: str, lineno: int) -> None:
        key = (src, dst, self.module.path, lineno)
        if key in self._seen_edges:
            return
        self._seen_edges.add(key)
        self.ctx.lock_graph.add_edge(src, dst, self.module.path, lineno)

    # -- expression / statement scanning ------------------------------------
    def _scan_stmt(
        self,
        stmt: ast.stmt,
        stack: list[tuple[str, str | None]],
        resolve: dict[str, str],
        self_name: str | None,
    ) -> None:
        self._scan_expr(stmt, stack, resolve, self_name)
        # W003(b): attribute writes to monitor objects outside sections
        for write in collect_attr_writes(stmt):
            if write.attr.startswith("_"):
                continue
            if write.obj == self_name:
                continue  # covered by W003(a) / normal monitor methods
            resolved = resolve.get(write.obj)
            if resolved is None:
                continue
            if self._write_is_covered(write.obj, stack):
                continue
            self.unsynced_writes.append((write, resolved))

    def _write_is_covered(
        self, obj: str, stack: list[tuple[str, str | None]]
    ) -> bool:
        for kind, arg in stack:
            if kind == "multisynch":
                return True  # members unknown statically: trust the block
            if kind == "synchronized" and arg == obj:
                return True
            if kind == "raw_lock" and arg == obj:
                return True
        return False

    def _scan_expr(
        self,
        tree: ast.AST,
        stack: list[tuple[str, str | None]],
        resolve: dict[str, str],
        self_name: str | None,
    ) -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "_lock"
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == self_name
                )
            ):
                self.w004_events.append((
                    node,
                    f"raw access to {ast.unparse(node.value)}._lock bypasses "
                    "the monitor protocol (relay signaling, ordered "
                    "multi-object acquisition) — use monitor methods, "
                    "synchronized(...) or multisynch(...)",
                ))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                method_name = node.func.attr
                obj: str | None = None
                if isinstance(base, ast.Name):
                    obj = base.id
                elif isinstance(base, ast.Attribute):
                    obj = ast.unparse(base)
                if obj is None or obj == self_name:
                    continue
                target_cls = resolve.get(obj)
                if target_cls is None:
                    continue
                holder = self._holder_class(stack, resolve)
                if holder is None:
                    continue
                if any(k == "multisynch" for k, _ in stack):
                    continue  # ordered acquisition already holds the locks
                if self.ctx.target_is_synchronized(target_cls, method_name):
                    self._add_edge(holder, target_cls, node.lineno)


# ---------------------------------------------------------------------------
# W014 — GIL-atomicity assumption (free-threaded lane)
# ---------------------------------------------------------------------------

class GilAtomicityAssumption(Rule):
    """W014 — a counter relies on GIL atomicity that the free-threaded
    CPython lane (PEP 703) does not provide.

    Two patterns, both of which the runtime packages were audited out of
    (docs/performance.md "Free-threaded lane"):

    * a direct ``itertools.count(...)`` construction — ``next`` on the
      result is atomic *only* while the GIL serializes the C call; drawn
      from several threads on a free-threaded build it can hand two
      threads the same ticket.  :class:`repro.runtime.atomics.AtomicCounter`
      is the drop-in replacement (it *is* an ``itertools.count`` on GIL
      builds, and a locked fetch-and-add without the GIL);
    * a ``global``-declared bare-int counter mutated with ``+=``/``-=`` —
      a read-modify-write across bytecodes, which was never atomic even
      under the GIL and silently loses increments without it.

    HINT severity: single-threaded code (simulators, test scaffolding) may
    legitimately keep the raw forms — suppress with
    ``# monlint: disable=W014`` and say why.
    """

    code = "W014"
    name = "gil-atomic-counter"
    severity = Severity.HINT

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        tree = module.tree
        # names under which itertools.count is reachable in this module
        count_names = {"itertools.count"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                for alias in node.names:
                    if alias.name == "count":
                        count_names.add(alias.asname or "count")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "itertools" and alias.asname:
                        count_names.add(f"{alias.asname}.count")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted in count_names:
                    yield self._finding(
                        module.path, node,
                        "direct itertools.count() — ``next`` on it is "
                        "atomic only under the GIL; route cross-thread "
                        "draws through repro.runtime.atomics.AtomicCounter "
                        "so the free-threaded lane stays correct",
                    )
        yield from self._global_int_augassigns(module, tree)

    def _global_int_augassigns(
        self, module: ModuleModel, tree: ast.Module
    ) -> Iterator[Finding]:
        # module-level names bound to a plain int literal
        int_globals: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant) \
                    and type(stmt.value.value) is int:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        int_globals.add(target.id)
        if not int_globals:
            return
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
            if not declared:
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.target, ast.Name)
                    and node.target.id in declared
                    and node.target.id in int_globals
                ):
                    yield self._finding(
                        module.path, node,
                        f"bare-int counter mutation "
                        f"`{node.target.id} {'+=' if isinstance(node.op, ast.Add) else '-='} ...` "
                        "on a module global is a read-modify-write — not "
                        "atomic under the GIL, increment-losing without it; "
                        "use repro.runtime.atomics.AtomicCounter",
                    )


class BlockingCallInCoroutine(Rule):
    """W015 — a blocking monitor-stack call inside an ``async def`` body.

    The asyncio frontend's cardinal rule (:mod:`repro.aio`) is that the
    event-loop thread never blocks on a monitor lock: one loop multiplexes
    thousands of logical clients, so one parked ``wait_until`` or
    ``future.get`` stalls *every* coroutine, not just the caller.  Flagged
    inside coroutine bodies (awaited expressions and nested ``def`` /
    ``lambda`` scopes — which may legitimately run on executor threads —
    are skipped):

    * a non-awaited ``.wait_until(...)`` — the threaded form parks the
      calling thread under the monitor lock; use
      :meth:`repro.aio.AsyncMonitorClient.wait_until` and ``await`` it;
    * ``.get(...)`` on a delegated call's future (chained
      ``mon.op(x).get()`` or a name assigned from a monitor call) — even a
      bounded ``get`` blocks the loop thread for its whole timeout; await
      :func:`repro.aio.as_asyncio` / :func:`repro.aio.await_future`;
    * ``.flush(...)`` on a monitor — blocks until the server drains;
    * ``with synchronized(...)`` / ``with multisynch(...)`` — monitor
      entry parks the loop thread behind whoever holds the lock(s).

    WARNING severity: a coroutine that blocks is wrong by construction on
    a loaded loop, but single-shot scripts (`asyncio.run` around legacy
    code) may tolerate it — suppress with ``# monlint: disable=W015`` and
    say why.
    """

    code = "W015"
    name = "blocking-call-in-coroutine"
    severity = Severity.WARNING

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if isinstance(func, ast.AsyncFunctionDef):
                yield from self._check_coroutine(module, func)

    def _check_coroutine(
        self, module: ModuleModel, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        resolve = self._monitor_names(module, func)
        own_nodes = list(_own_scope_nodes(func))
        futures = self._future_names(own_nodes, resolve)
        # anything under an `await` is the non-blocking path by definition
        # (`await client.wait_until(...)`, `await wait_for(client.call(..))`)
        awaited: set[int] = set()
        for node in own_nodes:
            if isinstance(node, ast.Await):
                for sub in ast.walk(node):
                    awaited.add(id(sub))
        where = f"async def {func.name}()"
        for node in own_nodes:
            if isinstance(node, ast.With):
                for item in node.items:
                    cm = item.context_expr
                    if not isinstance(cm, ast.Call):
                        continue
                    entry = _dotted_name(cm.func)
                    if entry in ("synchronized", "multisynch"):
                        yield self._finding(
                            module.path, cm,
                            f"with {entry}(...) inside {where} parks the "
                            "event-loop thread on monitor lock(s) — every "
                            "other coroutine on this loop stalls with it; "
                            "move the section to an executor thread or "
                            "use repro.aio",
                        )
                continue
            if (
                id(node) in awaited
                or not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
            ):
                continue
            attr = node.func.attr
            base = node.func.value
            if attr == "wait_until":
                yield self._finding(
                    module.path, node,
                    f"blocking wait_until inside {where} parks the "
                    "event-loop thread under the monitor lock; await "
                    "AsyncMonitorClient.wait_until (repro.aio) instead",
                )
            elif attr == "get":
                recv = _dotted_name(base)
                if (recv in futures) or _is_monitor_call(base, resolve):
                    shown = recv if recv is not None else "<future>"
                    yield self._finding(
                        module.path, node,
                        f"{shown}.get() inside {where} blocks the "
                        "event-loop thread until the delegated task "
                        "completes (bounded or not); await "
                        "repro.aio.as_asyncio(...) / await_future(...)",
                    )
            elif attr == "flush":
                obj = _dotted_name(base)
                if obj in resolve:
                    yield self._finding(
                        module.path, node,
                        f"{obj}.flush() inside {where} blocks the "
                        "event-loop thread until the server drains; run "
                        "it on an executor thread or await the "
                        "individual futures",
                    )

    def _monitor_names(
        self, module: ModuleModel, func: ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Names known to hold monitor objects in this coroutine."""
        resolve: dict[str, str] = {}
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = _annotation_name(arg.annotation)
            if ann in module.known_monitor_names:
                resolve[arg.arg] = ann
        resolve.update(monitor_locals(func, module.known_monitor_names))
        return resolve

    def _future_names(
        self, own_nodes: list[ast.AST], resolve: dict[str, str]
    ) -> set[str]:
        names: set[str] = set()
        for node in own_nodes:
            if not (
                isinstance(node, ast.Assign)
                and _is_monitor_call(node.value, resolve)
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names


def _own_scope_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """The nodes lexically in ``func``'s own body, excluding nested
    ``def`` / ``async def`` / ``lambda`` scopes (those may run on executor
    threads, where blocking is the point)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


#: registry, in code order
ALL_RULES: list[type[Rule]] = [
    NonClosedPredicate,
    StaleClosure,
    UnsynchronizedWrite,
    HandOrderedAcquisition,
    TagAdvisor,
    UnboundedBlockingWait,
    UntrackedSharedWrite,
    GilAtomicityAssumption,
    BlockingCallInCoroutine,
]


def make_rules(
    select: set[str] | None = None, disable: set[str] | None = None
) -> list[Rule]:
    rules: list[Rule] = []
    for rule_cls in ALL_RULES:
        if select is not None and rule_cls.code not in select:
            continue
        if disable is not None and rule_cls.code in disable:
            continue
        rules.append(rule_cls())
    return rules
