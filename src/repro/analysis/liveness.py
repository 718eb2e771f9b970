"""Signal-obligation liveness analysis — rules W010, W011 and W012.

Every ``wait_until(P)`` / ``waituntil(P)`` in a monitor class creates a
*signal obligation*: some reachable synchronized section must be able to
make ``P`` true, or the waiter can stall forever.  The paper's relay rule
(Prop. 2) only promises that a waiter whose predicate *became* true is
woken — nothing promises that any section can flip it.  Following the
obligation/credit model of *Ghost Signals* (Reinhard & Jacobs) and the
write-site→predicate matching of Ferles et al. (both in PAPERS.md), this
pass discharges each obligation statically:

* the wait's **read set** comes from the same extraction the runtime uses
  (``S.attr`` leaves, ``reads=`` annotations on shared expressions, and
  the preprocessor's lifted ``self.X`` roots — see
  :func:`repro.preprocess.transformer._collect_self_reads`);
* the **write set** of every reachable section is collected by an AST walk
  over ``__setattr__``-visible rebinds, in-place mutations the
  preprocessor would tag with ``_note_write`` (container mutators,
  subscript/nested-attribute stores), delegated-task closures, and
  cross-class writes through resolved monitor-typed objects — merged over
  the class's inheritance family.  ``__init__`` is excluded: it runs
  before any thread can wait, so an init-only write discharges nothing.

The three rules:

* **W010 unsatisfiable-wait** (error) — no reachable section, in any class
  of the family or any known cross-class writer, writes *any* variable the
  predicate reads.  The wait can only ever stall.  A predicate whose read
  set is *opaque* because a ``S(fn, name)`` shared expression carries no
  ``reads=`` annotation is reported at hint level instead of being
  silently skipped — annotating it enables the liveness check (and the
  dependency-filtered relay).
* **W011 wrong-direction-monotonicity** (warning) — a threshold-shaped
  predicate (``shared >= const`` et al., the same shapes rule W005 tags)
  whose variable *is* written, but only by updates provably monotone away
  from the threshold (constant ``+=`` / ``-=`` idioms).  The threshold can
  never be crossed.
* **W012 obligation-leak** (warning) — exactly one write site can satisfy
  the wait, and it sits on an exception-skippable path: inside a ``try``
  whose handler swallows the exception.  With ``poison_on_exception`` off
  the section exits cleanly having written nothing, and the obligation is
  silently dropped.

The runtime twin of this pass is the obligation check of
:class:`repro.resilience.inspector.Inspector`, which watches the same
obligations live via per-variable write generations.

All three rules collect per module in ``check`` and emit in ``finalize``,
once the whole project is registered — obligations are whole-program
properties, not per-file ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import (
    MONITOR_BASE_NAMES,
    MethodModel,
    ModuleModel,
    MonitorClassModel,
    WaitSite,
    _annotation_name,
    _base_name,
    collect_attr_writes,
    monitor_locals,
)
from repro.analysis.rules import (
    ALL_RULES,
    ProjectContext,
    Rule,
    _const_str_names,
    _TRY_TYPES,
)
from repro.preprocess.transformer import _MUTATORS, _peel_to_self_attr

__all__ = [
    "LivenessModel",
    "ObligationSite",
    "UnsatisfiableWait",
    "WriteSite",
    "WrongDirectionMonotonicity",
    "ObligationLeak",
    "liveness_model",
]


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WriteSite:
    """One statically visible write to a shared variable."""

    cls: str       #: monitor class whose variable is written
    var: str
    path: str
    lineno: int
    where: str     #: "Class.method" or "function" containing the write
    direction: str  #: "up" | "down" | "other" (monotone classification)
    guarded: bool  #: lexically inside a try whose handler swallows

    def describe(self) -> str:
        return f"{self.where} ({self.path}:{self.lineno})"


@dataclass
class ObligationSite:
    """One checked wait site: an obligation some section must discharge."""

    path: str
    lineno: int
    col: int
    cls: str
    method: str
    reads: frozenset
    source: str                            #: predicate source (trimmed)
    #: (variable, needed direction) for single-threshold predicates
    threshold: Optional[tuple] = None


@dataclass
class LivenessModel:
    """Whole-program obligations + write sets, built incrementally."""

    obligations: list = field(default_factory=list)
    #: class name → variable → write sites
    writes: dict = field(default_factory=dict)
    #: class name → declared base names (for family merging)
    bases: dict = field(default_factory=dict)
    #: classes that opt into poisoning (W012 is moot for them)
    poisoned: set = field(default_factory=set)
    #: ``S(fn, name)`` calls with no ``reads=`` annotation
    opaque_exprs: list = field(default_factory=list)
    _seen_paths: set = field(default_factory=set)
    _site_keys: set = field(default_factory=set)

    # -- write registration --------------------------------------------------
    def add_write(self, site: WriteSite) -> None:
        key = (site.cls, site.var, site.path, site.lineno)
        if key in self._site_keys:
            return
        self._site_keys.add(key)
        self.writes.setdefault(site.cls, {}).setdefault(site.var, []).append(site)

    # -- family merging ------------------------------------------------------
    def family_writes(self) -> dict:
        """Class name → variable → write sites, merged over each
        inheritance family (connected components of the project's
        subclass edges; framework bases do not connect families)."""
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for cls, bases in self.bases.items():
            for base in bases:
                if base in self.bases and base not in MONITOR_BASE_NAMES:
                    union(cls, base)
        merged: dict = {}
        by_root: dict = {}
        for cls in self.bases:
            by_root.setdefault(find(cls), []).append(cls)
        # also classes that only appear as write targets (cross-class)
        for cls in self.writes:
            if cls not in self.bases:
                by_root.setdefault(find(cls), []).append(cls)
        for members in by_root.values():
            fam: dict = {}
            for member in members:
                for var, sites in self.writes.get(member, {}).items():
                    fam.setdefault(var, []).extend(sites)
            for member in members:
                merged[member] = fam
        return merged


def liveness_model(ctx: ProjectContext) -> LivenessModel:
    """The per-run liveness model, stored on the project context so all
    three rules (and tests) share one collection pass."""
    model = getattr(ctx, "_liveness_model", None)
    if model is None:
        model = LivenessModel()
        ctx._liveness_model = model
    return model


# ---------------------------------------------------------------------------
# read-set extraction
# ---------------------------------------------------------------------------

def _peel_read_root(node: ast.expr, bases: set) -> Optional[str]:
    """``self.a.b[k]`` / ``S.a[i]`` → ``"a"``; None when not rooted at a
    predicate base name."""
    attr = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
        node = node.value
    if isinstance(node, ast.Name) and (node.id in bases or node.id == "S"):
        return attr
    return None


def _numeric_const(node: ast.expr):
    """Value of a numeric literal (allowing unary minus), else None."""
    neg = False
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        neg = True
        node = node.operand
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return -node.value if neg else node.value
    return None


class _ReadScan:
    """Recursive read-set extractor for one wait predicate.

    Mirrors the runtime's semantics: exact read sets where the structure is
    known, *opaque* (reads-everything) when a call reached through the
    monitor or a bare escape makes the reads unknowable.  Opaque sites are
    skipped by W010/W011 — except unannotated ``S(fn, name)`` expressions,
    which are surfaced so the author can annotate them.
    """

    def __init__(self, bases: set):
        self.bases = set(bases)
        self.reads: set = set()
        self.opaque = False
        self.unannotated: list = []   # S(...) calls missing reads=

    def scan(self, node: ast.expr, bases: Optional[set] = None) -> None:
        if bases is None:
            bases = self.bases
        if isinstance(node, ast.Attribute):
            root = _peel_read_root(node, bases)
            if root is not None:
                self.reads.add(root)
                return
            self.scan(node.value, bases)
            return
        if isinstance(node, ast.Subscript):
            root = _peel_read_root(node, bases)
            if root is not None:
                self.reads.add(root)
            else:
                self.scan(node.value, bases)
            self.scan(node.slice, bases)
            return
        if isinstance(node, ast.Lambda):
            inner = set(bases)
            if node.args.args:
                inner.add(node.args.args[0].arg)
            self.scan(node.body, inner)
            return
        if isinstance(node, ast.Call):
            self._scan_call(node, bases)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.scan(child, bases)

    def _scan_call(self, node: ast.Call, bases: set) -> None:
        fn = node.func
        if _base_name(fn) == "S" and isinstance(fn, ast.Name):
            declared: set = set()
            for kw in node.keywords:
                if kw.arg == "reads":
                    declared |= _const_str_names(kw.value)
            if len(node.args) >= 3:
                declared |= _const_str_names(node.args[2])
            if declared:
                self.reads |= declared
            else:
                name = "<shared expr>"
                if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                    name = str(node.args[1].value)
                self.unannotated.append((node, name))
                self.opaque = True
            return  # the wrapped callable's body is covered by reads=
        if isinstance(fn, ast.Attribute):
            recv = fn.value
            if isinstance(recv, ast.Name) and recv.id in bases:
                # method call on the monitor: its body may read anything
                self.opaque = True
            else:
                root = _peel_read_root(fn, bases)
                if root is not None:
                    self.reads.add(root)  # e.g. self.items.count(x)
                else:
                    self.scan(recv, bases)
        else:
            # plain function call: if the monitor escapes as a bare
            # argument the callee may read anything (mirrors
            # _collect_self_reads in the preprocessor)
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id in bases:
                    self.opaque = True
        for arg in node.args:
            self.scan(arg, bases)
        for kw in node.keywords:
            self.scan(kw.value, bases)


def predicate_reads(
    site: WaitSite, method: MethodModel
) -> tuple[frozenset, bool, list]:
    """(read set, opaque?, unannotated S(...) calls) of one wait site."""
    bases = {method.self_name} if method.self_name else set()
    expr = site.expr
    # a bare callable reference (`self.wait_until(self._check)` /
    # `waituntil(fn)`) evaluates through code this pass cannot see
    if isinstance(expr, ast.Name):
        return frozenset(), True, []
    if isinstance(expr, ast.Attribute):
        return frozenset(), True, []
    scan = _ReadScan(bases)
    scan.scan(expr)
    return frozenset(scan.reads), scan.opaque, scan.unannotated


def _threshold_shape(site: WaitSite, method: MethodModel) -> Optional[tuple]:
    """(variable, needed direction) when the whole predicate is one
    ``shared op numeric-constant`` comparison; None otherwise.

    Only strict/ordered comparisons qualify (W005's threshold shapes);
    equality can be approached from either side, so monotonicity proves
    nothing about it.  Var-vs-var comparisons are skipped too — both sides
    move.
    """
    node = site.expr
    bases = {method.self_name} if method.self_name else set()
    if isinstance(node, ast.Lambda):
        if node.args.args:
            bases = bases | {node.args.args[0].arg}
        node = node.body
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return None
    op = node.ops[0]
    if not isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
        return None
    left, right = node.left, node.comparators[0]

    def simple_shared(n: ast.expr) -> Optional[str]:
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and (n.value.id in bases or n.value.id == "S")
        ):
            return n.attr
        return None

    var, const, flipped = simple_shared(left), _numeric_const(right), False
    if var is None:
        var, const, flipped = simple_shared(right), _numeric_const(left), True
    if var is None or const is None:
        return None
    needs_up = isinstance(op, (ast.Gt, ast.GtE))
    if flipped:
        needs_up = not needs_up  # const > var  ≡  var < const
    return (var, "up" if needs_up else "down")


# ---------------------------------------------------------------------------
# write-set collection
# ---------------------------------------------------------------------------

def _handler_swallows(node) -> bool:
    """True when some except handler of ``node`` contains no ``raise`` —
    an exception entering it is swallowed and control continues."""
    for handler in node.handlers:
        if not any(isinstance(n, ast.Raise) for n in ast.walk(handler)):
            return True
    return False


def _stmts_with_try_context(func: ast.AST) -> Iterator[tuple]:
    """Yield ``(stmt, in_swallowing_try)`` for every statement in ``func``,
    recursing through compound statements (including nested function
    definitions — delegated-task closures write shared state too)."""

    def walk(stmts, swallowed):
        for stmt in stmts:
            if isinstance(stmt, _TRY_TYPES):
                inner = swallowed or _handler_swallows(stmt)
                yield from walk(stmt.body, inner)
                yield from walk(stmt.orelse, inner)
                for handler in stmt.handlers:
                    yield from walk(handler.body, swallowed)
                yield from walk(stmt.finalbody, swallowed)
                continue
            yield stmt, swallowed
            for fname in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, fname, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    yield from walk(sub, swallowed)
            for case in getattr(stmt, "cases", []) or []:
                yield from walk(case.body, swallowed)

    body = getattr(func, "body", [])
    yield from walk(body, False)


def _self_write_direction(target: ast.expr, stmt: ast.stmt, self_name: str) -> str:
    """Monotone classification of a rebind of ``self.<attr>``.

    ``self.x += c`` / ``self.x = self.x + c`` with a numeric literal ``c``
    is "up" (or "down"); anything else — including plain ``self.x = const``,
    whose effect depends on the threshold — is "other".
    """
    if isinstance(stmt, ast.AugAssign):
        if not isinstance(stmt.op, (ast.Add, ast.Sub)):
            return "other"
        const = _numeric_const(stmt.value)
        if const is None:
            return "other"
        if isinstance(stmt.op, ast.Sub):
            const = -const
        return "up" if const > 0 else "down" if const < 0 else "other"
    if isinstance(stmt, ast.Assign) and isinstance(target, ast.Attribute):
        value = stmt.value
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub)):
            same = (
                isinstance(value.left, ast.Attribute)
                and isinstance(value.left.value, ast.Name)
                and value.left.value.id == self_name
                and value.left.attr == target.attr
            )
            const = _numeric_const(value.right)
            if same and const is not None:
                if isinstance(value.op, ast.Sub):
                    const = -const
                return "up" if const > 0 else "down" if const < 0 else "other"
    return "other"


def _peel_obj_root(node: ast.expr) -> Optional[tuple]:
    """``q.items[k]`` → ``("q", "items")``; ``self.left.count`` →
    ``("self.left", "count")``; None when the chain has no usable root."""
    parts: list = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not parts:
        return None
    var = parts[0]              # attr adjacent to the final access
    chain = [node.id] + parts[:0:-1]
    return ".".join(chain), var


def _flat_targets(target: ast.expr):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flat_targets(elt)
    else:
        yield target


def _collect_method_writes(
    model: LivenessModel, module: ModuleModel, cls: MonitorClassModel,
    method: MethodModel,
) -> None:
    """Write sites of one method's body (rebinds, in-place mutations,
    explicit ``_note_write`` declarations), with try-context."""
    self_name = method.self_name
    where = f"{cls.name}.{method.name}"

    def add(var: str, lineno: int, direction: str, guarded: bool) -> None:
        model.add_write(WriteSite(
            cls=cls.name, var=var, path=module.path, lineno=lineno,
            where=where, direction=direction, guarded=guarded,
        ))

    for stmt, swallowed in _stmts_with_try_context(method.node):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for leaf in _flat_targets(target):
                    _record_self_store(leaf, stmt, swallowed, self_name, add)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
                continue
            _record_self_store(stmt.target, stmt, swallowed, self_name, add)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                _record_self_store(target, stmt, swallowed, self_name, add)
        # expression-level writes anywhere in the statement: container
        # mutators and explicit _note_write declarations
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr in _MUTATORS:
                root = _peel_to_self_attr(node.func.value, self_name)
                if root is not None:
                    add(root, node.lineno, "other", swallowed)
            elif (
                node.func.attr == "_note_write"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == self_name
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                add(node.args[0].value, node.lineno, "other", swallowed)


def _record_self_store(
    target: ast.expr, stmt: ast.stmt, swallowed: bool,
    self_name: str, add,
) -> None:
    """Record one store/delete target when rooted at ``self``."""
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == self_name
    ):
        add(target.attr, target.lineno,
            _self_write_direction(target, stmt, self_name), swallowed)
        return
    # nested attribute / subscript store: self.grid[i] = v, self.a.b = v
    root = _peel_to_self_attr(target, self_name)
    if root is not None:
        add(root, target.lineno, "other", swallowed)


def _external_resolve(
    module: ModuleModel, ctx: ProjectContext,
    func: ast.AST, cls: Optional[MonitorClassModel], self_name: Optional[str],
) -> dict:
    """Names (possibly dotted) known to hold monitor objects of a known
    class, inside one function — the cross-class write resolution map."""
    resolve: dict = {}
    if cls is not None and self_name:
        for attr, mon_cls in cls.monitor_attrs.items():
            resolve[f"{self_name}.{attr}"] = mon_cls
    args = getattr(func, "args", None)
    if args is not None:
        for arg in args.args:
            ann = _annotation_name(arg.annotation)
            if ann in module.known_monitor_names:
                resolve[arg.arg] = ann
    resolve.update(monitor_locals(func, module.known_monitor_names))
    return resolve


def _collect_external_writes(
    model: LivenessModel, module: ModuleModel, ctx: ProjectContext,
    func: ast.AST, where: str,
    cls: Optional[MonitorClassModel] = None,
    self_name: Optional[str] = None,
) -> None:
    """Writes through names resolved to *other* monitor objects — a
    producer function poking ``q.count``, a coordinator mutating a fork
    monitor's state, a section writing ``self.left.count``."""
    resolve = _external_resolve(module, ctx, func, cls, self_name)
    if not resolve:
        return
    for write in collect_attr_writes(func):
        if write.obj == self_name:
            continue  # own-class write, handled (with direction) elsewhere
        target_cls = resolve.get(write.obj)
        if target_cls is not None and not write.attr.startswith("_"):
            model.add_write(WriteSite(
                cls=target_cls, var=write.attr, path=module.path,
                lineno=write.lineno, where=where,
                direction="other", guarded=False,
            ))
    for node in ast.walk(func):
        store_root: Optional[tuple] = None
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            getattr(node, "ctx", None), (ast.Store, ast.Del)
        ):
            store_root = _peel_obj_root(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            store_root = _peel_obj_root(node.func.value)
        if store_root is None:
            continue
        obj, var = store_root
        if obj == self_name:
            continue
        target_cls = resolve.get(obj)
        if target_cls is not None and not var.startswith("_"):
            model.add_write(WriteSite(
                cls=target_cls, var=var, path=module.path,
                lineno=node.lineno, where=where,
                direction="other", guarded=False,
            ))


def _class_enables_poisoning(node: ast.ClassDef) -> bool:
    """True when the class visibly opts into exception poisoning (a
    ``poison_on_exception=True``-shaped keyword anywhere in its body)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.keyword) and sub.arg == "poison_on_exception":
            if not (isinstance(sub.value, ast.Constant) and sub.value.value is False):
                return True
    return False


# ---------------------------------------------------------------------------
# collection driver
# ---------------------------------------------------------------------------

def collect_module(module: ModuleModel, ctx: ProjectContext) -> LivenessModel:
    """Collect obligations + write sites from one module (idempotent)."""
    model = liveness_model(ctx)
    if module.path in model._seen_paths:
        return model
    model._seen_paths.add(module.path)

    for cls in module.monitor_classes:
        model.bases.setdefault(cls.name, set()).update(cls.base_names)
        if _class_enables_poisoning(cls.node):
            model.poisoned.add(cls.name)
        for method in cls.methods.values():
            if method.self_name is None:
                continue
            if method.name != "__init__":
                # __init__ runs before any waiter exists — its writes
                # discharge nothing
                _collect_method_writes(model, module, cls, method)
            _collect_external_writes(
                model, module, ctx, method.node,
                where=f"{cls.name}.{method.name}",
                cls=cls, self_name=method.self_name,
            )
            for site in method.waits:
                if site.form == "multi_wait":
                    continue  # multi-object waits carry other monitors' state
                _collect_obligation(model, module, cls, method, site)

    # writes from module-level functions and non-monitor classes
    monitor_nodes = {cls.node for cls in module.monitor_classes}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _collect_external_writes(model, module, ctx, node, where=node.name)
        elif isinstance(node, ast.ClassDef) and node not in monitor_nodes:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _collect_external_writes(
                        model, module, ctx, item,
                        where=f"{node.name}.{item.name}",
                    )
    return model


def _collect_obligation(
    model: LivenessModel, module: ModuleModel, cls: MonitorClassModel,
    method: MethodModel, site: WaitSite,
) -> None:
    reads, opaque, unannotated = predicate_reads(site, method)
    for call_node, name in unannotated:
        model.opaque_exprs.append((module.path, call_node, name))
    if opaque or not reads:
        return
    try:
        source = ast.unparse(site.expr)
    except Exception:  # pragma: no cover — unparse of valid AST
        source = "<predicate>"
    if len(source) > 60:
        source = source[:57] + "..."
    model.obligations.append(ObligationSite(
        path=module.path, lineno=site.lineno, col=site.col,
        cls=cls.name, method=method.name, reads=reads, source=source,
        threshold=_threshold_shape(site, method),
    ))


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------

class _LivenessRule(Rule):
    """Shared collect-then-finalize skeleton for W010/W011/W012."""

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        collect_module(module, ctx)
        return iter(())


class UnsatisfiableWait(_LivenessRule):
    code = "W010"
    name = "unsatisfiable-wait"
    severity = Severity.ERROR

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        model = liveness_model(ctx)
        fam = model.family_writes()
        for ob in model.obligations:
            written = fam.get(ob.cls, {})
            if any(var in written for var in ob.reads):
                continue
            reads = ", ".join(sorted(ob.reads))
            yield self._finding(
                ob.path, ob.lineno,
                f"wait can never be satisfied: {ob.cls}.{ob.method}() waits "
                f"on `{ob.source}` which reads {{{reads}}}, but no "
                "reachable synchronized section in this class, its "
                "inheritance family, or any known cross-class writer ever "
                "writes any of those variables (__init__ runs before "
                "waiters exist and does not count) — the signal obligation "
                "is undischargeable and every waiter stalls "
                "(docs/analysis.md, liveness verification)",
                col=ob.col,
            )
        for path, node, name in model.opaque_exprs:
            yield Finding(
                code=self.code,
                severity=Severity.HINT,
                message=(
                    f"shared expression {name!r} is opaque — it has no "
                    "reads= annotation, so its read set is unknown and the "
                    "liveness check (and the dependency-filtered relay) "
                    "must assume it reads everything; annotate "
                    "reads=('var', ...) to enable liveness checking"
                ),
                path=path,
                line=node.lineno,
                col=node.col_offset,
                rule_name=self.name,
            )


class WrongDirectionMonotonicity(_LivenessRule):
    code = "W011"
    name = "wrong-direction-monotonicity"
    severity = Severity.WARNING

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        model = liveness_model(ctx)
        fam = model.family_writes()
        for ob in model.obligations:
            if ob.threshold is None:
                continue
            var, needed = ob.threshold
            sites = fam.get(ob.cls, {}).get(var, [])
            if not sites:
                continue  # W010's territory
            wrong = "down" if needed == "up" else "up"
            if not all(site.direction == wrong for site in sites):
                continue
            shown = "; ".join(
                site.describe() for site in sites[:3]
            ) + ("; …" if len(sites) > 3 else "")
            arrow = "increase" if needed == "up" else "decrease"
            yield self._finding(
                ob.path, ob.lineno,
                f"wrong-direction monotonicity: {ob.cls}.{ob.method}() "
                f"waits on `{ob.source}`, which needs {var!r} to {arrow}, "
                f"but every write site moves it monotonically the other "
                f"way ({shown}) — the threshold can never be crossed and "
                "the wait cannot terminate",
                col=ob.col,
            )


class ObligationLeak(_LivenessRule):
    code = "W012"
    name = "obligation-leak"
    severity = Severity.WARNING

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        model = liveness_model(ctx)
        fam = model.family_writes()
        for ob in model.obligations:
            if ob.cls in model.poisoned:
                continue  # an exception poisons the monitor; waiters wake
            sites = [
                site
                for var in sorted(ob.reads)
                for site in fam.get(ob.cls, {}).get(var, [])
            ]
            if len(sites) != 1 or not sites[0].guarded:
                continue
            site = sites[0]
            yield self._finding(
                ob.path, ob.lineno,
                f"obligation leaks on early exit: the only write that can "
                f"satisfy `{ob.source}` in {ob.cls}.{ob.method}() is "
                f"{site.var!r} at {site.describe()}, inside a try whose "
                "except handler swallows the exception — with "
                "poison_on_exception off, an exception skips the write, "
                "the section exits cleanly, and the waiter parks forever; "
                "re-raise, write before the risky call, or enable "
                "Config.poison_on_exception",
                col=ob.col,
            )


LIVENESS_RULES = [UnsatisfiableWait, WrongDirectionMonotonicity, ObligationLeak]

for _rule in LIVENESS_RULES:
    if _rule not in ALL_RULES:
        ALL_RULES.append(_rule)
