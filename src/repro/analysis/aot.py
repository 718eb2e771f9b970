"""Ahead-of-time signal placement: the static write-site/predicate matcher.

The dependency-tracked relay (PR 5) made the untagged relay search
O(affected); this module removes the remaining per-exit search work on hot
paths entirely, the way Ferles et al. lower implicit monitors into explicit
targeted signals (*Symbolic Reasoning for Automatic Signal Placement*,
PLDI'18): with the read/write-set information the preprocessor and the
relay filter already compute, a ``@monitor_compile`` class can be analyzed
**at decoration time** — each method's transitively-closed write set is
matched against the read sets of every wait predicate the class can park,
and methods whose writes are fully statically visible get a
:class:`MethodSignalPlan`.  A planned method's section exit runs
``ConditionManager.relay_signal(plan)``, where the plan is a precondition
for skipping the tag-index probe: the exit bumps the written variables'
generations, marks the (already-bucketed) readers eligible, and evaluates
exactly those.

The same matching engine backs monlint's W013 so static analysis and the
runtime agree about what is direct-signalable: W013 reports waits that are
AOT-matchable *except* for an opaque read set — one ``reads=`` annotation
away from skipping the relay.

Everything here is conservative in the same direction as the relay filter:

* a method whose source is unavailable, that lets bare ``self`` escape
  (``setattr(self, ...)``, ``f(self)``), or that calls a self-method this
  pass cannot resolve is **opaque** — no plan, probing relay exit;
* a plan's write set is an upper bound; the runtime still checks
  ``dirty <= plan.write_set`` on each planned exit and probes the tag
  index when the observed writes escape the plan (monkeypatching, dynamic
  attribute names), so relay invariance (Prop. 2) never rests on the
  static result alone (safety argument in docs/performance.md).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.liveness import predicate_reads
from repro.analysis.model import MethodModel, ModuleModel, MonitorClassModel, _base_name
from repro.analysis.rules import ALL_RULES, ProjectContext, Rule
from repro.preprocess.transformer import (
    _is_plain_self_attr,
    _untracked_writes,
)

__all__ = [
    "MethodSignalPlan",
    "NONWRITING_SELF_CALLS",
    "build_plans_for_class",
    "class_signal_plans",
    "close_write_sets",
    "method_summary",
    "self_call_summary",
]

#: inherited Monitor API a compiled method may call without writing any
#: tracked shared variable.  Deliberately small: anything else reached
#: through ``self`` that this pass cannot resolve (including a hand-written
#: ``self._note_write`` — it marks an *aliased* write the AST cannot see)
#: makes the caller opaque, which only costs it the generic relay exit.
NONWRITING_SELF_CALLS = frozenset({
    "wait_until", "signal_hint", "waiting_count", "dump_waiters",
})


@dataclass(frozen=True)
class MethodSignalPlan:
    """One method's statically-derived signal obligation on section exit.

    ``write_set`` is the transitive closure of every shared variable the
    method (and the intra-class self-calls it makes) can write through
    statically visible paths — the exact set of relay buckets a direct
    exit must mark.  An empty set is a valid plan: a pure reader's exit
    skips the search too (only freshly parked waiters need evaluating).
    """

    method: str
    write_set: frozenset


def self_call_summary(
    func_def: ast.AST, self_name: str
) -> tuple[set, bool]:
    """(self-method names called, does bare ``self`` escape?).

    ``self.helper(...)`` is a resolvable intra-class call; ``self`` used
    any other way than as an attribute root (``f(self)``,
    ``setattr(self, n, v)``, ``self[k]``) means the method's effects are
    statically invisible — the caller must stay opaque.
    """
    calls: set = set()
    consumed: set = set()
    for node in ast.walk(func_def):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self_name
        ):
            calls.add(node.func.attr)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            consumed.add(id(node.value))
    escapes = any(
        isinstance(node, ast.Name)
        and node.id == self_name
        and id(node) not in consumed
        for node in ast.walk(func_def)
    )
    return calls, escapes


def _writes_in(func_def: ast.AST, self_name: str) -> set:
    """Shared-variable names a method body writes through statically
    visible paths — plain ``self.attr`` rebinds/deletes plus the
    subscript/nested-attribute/mutator roots the preprocessor instruments
    (mirrors ``transformer._method_write_vars``)."""
    written: set = set()
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


def method_summary(fn: Callable) -> Optional[tuple]:
    """(writes, self-calls, escapes) of one raw method from its source,
    or None when the source is unavailable — then the method is opaque
    and so is every planned method that calls it."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return None
    try:
        func_def = ast.parse(source).body[0]
    except (SyntaxError, IndexError):  # pragma: no cover — defensive
        return None
    if not isinstance(func_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    if not func_def.args.args:
        return None
    self_name = func_def.args.args[0].arg
    writes = _writes_in(func_def, self_name)
    calls, escapes = self_call_summary(func_def, self_name)
    return writes, calls, escapes


def close_write_sets(
    writes: dict, calls: dict, escapes: dict, known: set
) -> dict:
    """Transitively close per-method write sets over intra-class calls.

    Two fixpoints: opacity first (an escape, or a call to an opaque /
    unresolvable method, poisons the caller), then write-set union along
    the resolved call edges.  Returns method → frozenset (closed write
    set) or None (opaque — no plan).
    """
    opaque = {
        m: (writes[m] is None) or bool(escapes.get(m)) for m in writes
    }
    changed = True
    while changed:
        changed = False
        for m in writes:
            if opaque[m]:
                continue
            for callee in calls.get(m, ()):
                if callee in known:
                    if opaque.get(callee, True):
                        opaque[m] = True
                        changed = True
                        break
                elif callee not in NONWRITING_SELF_CALLS:
                    opaque[m] = True
                    changed = True
                    break
    closed = {
        m: (None if opaque[m] else set(writes[m])) for m in writes
    }
    changed = True
    while changed:
        changed = False
        for m, ws in closed.items():
            if ws is None:
                continue
            for callee in calls.get(m, ()):
                callee_ws = closed.get(callee)
                if callee_ws and not callee_ws <= ws:
                    ws |= callee_ws
                    changed = True
    return {
        m: (frozenset(ws) if ws is not None else None)
        for m, ws in closed.items()
    }


def build_plans_for_class(methods: dict) -> dict:
    """method name → :class:`MethodSignalPlan` for every non-opaque method.

    ``methods`` maps names to *raw* (unwrapped) functions — the
    ``monitor_compile`` view of the class body, dunders excluded.  Methods
    not in the mapping (inherited, dynamically added) are unresolvable:
    callers of such methods stay opaque, which is exactly the "cross-class
    writers fall back to the relay" rule.
    """
    writes: dict = {}
    calls: dict = {}
    escapes: dict = {}
    for name, fn in methods.items():
        info = method_summary(fn)
        if info is None:
            writes[name], calls[name], escapes[name] = None, set(), True
        else:
            writes[name], calls[name], escapes[name] = info
    closed = close_write_sets(writes, calls, escapes, set(methods))
    return {
        name: MethodSignalPlan(name, ws)
        for name, ws in closed.items()
        if ws is not None
    }


# ---------------------------------------------------------------------------
# the lint frontend: the same matcher over AST models (monlint W013)
# ---------------------------------------------------------------------------

def _is_compiled_class(node: ast.ClassDef) -> bool:
    return any(
        _base_name(dec) == "monitor_compile" or (
            isinstance(dec, ast.Call)
            and _base_name(dec.func) == "monitor_compile"
        )
        for dec in node.decorator_list
    )


def _method_summary_ast(method: MethodModel) -> Optional[tuple]:
    """AST-model twin of :func:`method_summary` for the lint pass."""
    self_name = method.self_name
    if self_name is None:
        return None
    func_def = method.node
    return (
        _writes_in(func_def, self_name),
        *self_call_summary(func_def, self_name),
    )


def class_signal_plans(cls: MonitorClassModel) -> dict:
    """Signal plans for a linted class — the decoration-time analysis
    replayed over the module model, so monlint reports exactly what
    ``@monitor_compile`` will plan."""
    writes: dict = {}
    calls: dict = {}
    escapes: dict = {}
    for name, method in cls.methods.items():
        if name.startswith("__") and name.endswith("__"):
            continue  # monitor_compile skips dunders too
        info = _method_summary_ast(method)
        if info is None:
            writes[name], calls[name], escapes[name] = None, set(), True
        else:
            writes[name], calls[name], escapes[name] = info
    closed = close_write_sets(writes, calls, escapes, set(writes))
    return {
        name: MethodSignalPlan(name, ws)
        for name, ws in closed.items()
        if ws is not None
    }


class OpaqueDirectSignal(Rule):
    """W013 — this wait is one ``reads=`` annotation away from direct
    signaling.

    Fires only where the annotation would actually buy something: the
    class is ``@monitor_compile``d and at least one method earned a plan
    with a non-empty write set (so its exits *do* skip the relay search),
    but this wait's predicate has an opaque read set, forcing every one of
    those exits to re-evaluate it anyway.  Waits whose opacity comes from
    an un-annotated ``S(fn, name)`` are W010's hint territory — the same
    ``reads=`` fix, already reported there — so this rule skips them
    rather than double-flagging one site.
    """

    code = "W013"
    name = "opaque-read-set-blocks-direct-signal"
    severity = Severity.HINT

    def check(self, module: ModuleModel, ctx: ProjectContext) -> Iterator[Finding]:
        for cls in module.monitor_classes:
            if not _is_compiled_class(cls.node):
                continue
            plans = class_signal_plans(cls)
            planned_writers = sorted(
                name for name, plan in plans.items() if plan.write_set
            )
            if not planned_writers:
                continue  # nothing signals directly here; relay is the path
            for method in cls.methods.values():
                if method.self_name is None:
                    continue
                for site in method.waits:
                    if site.form == "multi_wait":
                        continue
                    reads, opaque, unannotated = predicate_reads(site, method)
                    if not opaque or unannotated:
                        continue
                    yield self._finding(
                        module.path, site.call,
                        "wait predicate has an opaque read set, so the "
                        "AOT-planned write sites in this class ("
                        + ", ".join(f"{cls.name}.{m}()" for m in planned_writers)
                        + ") must re-evaluate it on every direct-signal "
                        "exit; express the condition over self.<attr> "
                        "reads or annotate reads=(...) on the shared "
                        "expression to enable direct signaling",
                    )


AOT_RULES = [OpaqueDirectSignal]

for _rule in AOT_RULES:
    if _rule not in ALL_RULES:
        ALL_RULES.append(_rule)
