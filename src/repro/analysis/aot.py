"""Static write-set closure over ``@monitor_compile`` classes (monlint W013).

Each method's transitively-closed write set is derived from its AST — the
write-site/predicate matching Ferles et al. use to place signals statically
(*Symbolic Reasoning for Automatic Signal Placement*, PLDI'18).  The
runtime places no signal from it: every section exit runs the one relay
routine, ``ConditionManager.relay_signal()``, whose dependency buckets
already queue exactly the readers of the written variables.  The lint
uses the closure to find the waits those buckets cannot filter: W013
reports a wait whose predicate has an opaque read set in a class whose
methods write statically visible variables.  Such a waiter sits in the
relay's always-scan pool, so every section exit of its monitor runs the
relay search and evaluates it.

The closure is conservative: a method that lets bare ``self`` escape
(``setattr(self, ...)``, ``f(self)``), or that calls a self-method this
pass cannot resolve, is **opaque** and gets no plan.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.liveness import predicate_reads
from repro.analysis.model import MethodModel, ModuleModel, MonitorClassModel, _base_name
from repro.analysis.rules import ALL_RULES, ProjectContext, Rule
from repro.preprocess.transformer import _writes_in

__all__ = [
    "MethodSignalPlan",
    "NONWRITING_SELF_CALLS",
    "class_signal_plans",
    "close_write_sets",
    "self_call_summary",
]

#: inherited Monitor API a compiled method may call without writing any
#: tracked shared variable.  Deliberately small: anything else reached
#: through ``self`` that this pass cannot resolve (including a hand-written
#: ``self._note_write`` — it marks an *aliased* write the AST cannot see)
#: makes the caller opaque, which only drops it from W013's writers.
NONWRITING_SELF_CALLS = frozenset({
    "wait_until", "signal_hint", "waiting_count", "dump_waiters",
})


@dataclass(frozen=True)
class MethodSignalPlan:
    """One method's statically-derived write set.

    ``write_set`` is the transitive closure of every shared variable the
    method (and the intra-class self-calls it makes) can write through
    statically visible paths — the relay buckets its section exit marks.
    An empty set is a valid plan: a pure reader.
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


# ---------------------------------------------------------------------------
# the lint frontend: the matcher over AST models (monlint W013)
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
    """(writes, self-calls, escapes) of one modelled method, or None
    when it has no ``self`` parameter (then it is opaque)."""
    self_name = method.self_name
    if self_name is None:
        return None
    func_def = method.node
    return (
        _writes_in(func_def, self_name),
        *self_call_summary(func_def, self_name),
    )


def class_signal_plans(cls: MonitorClassModel) -> dict:
    """Signal plans for a linted class: method name →
    :class:`MethodSignalPlan` for every non-opaque method."""
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


class OpaqueReadSetRescan(Rule):
    """W013 — this wait is re-evaluated on every section exit.

    Fires only where a ``reads=`` annotation would actually buy something:
    the class is ``@monitor_compile``d and at least one method earned a
    plan with a non-empty write set (its writes are statically visible, so
    the relay's dependency buckets could route them to their readers), but
    this wait's predicate has an opaque read set.  Such a waiter sits in
    the relay's always-scan pool: every section exit of the monitor runs
    the relay search and evaluates it, whatever the exit wrote.  Waits
    whose opacity comes from an un-annotated ``S(fn, name)`` are W010's
    hint territory — the same ``reads=`` fix, already reported there — so
    this rule skips them rather than double-flagging one site.
    """

    code = "W013"
    name = "opaque-read-set-rescanned-every-exit"
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
                continue  # no visible writer for the buckets to route
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
                        "relay search re-evaluates it on every section "
                        "exit, including those of the visible writers in "
                        "this class ("
                        + ", ".join(f"{cls.name}.{m}()" for m in planned_writers)
                        + "); express the condition over self.<attr> "
                        "reads or annotate reads=(...) on the shared "
                        "expression so that only exits writing what it "
                        "reads evaluate it",
                    )


AOT_RULES = [OpaqueReadSetRescan]

for _rule in AOT_RULES:
    if _rule not in ALL_RULES:
        ALL_RULES.append(_rule)
