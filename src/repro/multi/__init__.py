"""Multi-object synchronization (Chapter 4): multisynch + global conditions."""

from repro.multi.global_predicates import (
    ComplexPredicate,
    GAnd,
    GlobalAtom,
    GlobalNode,
    GOr,
    LocalPredicate,
    complex_pred,
    compute_critical,
    group_by_monitor,
    local,
)
from repro.multi.manager import global_condition_metrics
from repro.multi.multisync import (
    MonitorSet,
    Multisynch,
    current_multisynch,
    monitor_set,
    multisynch,
)
from repro.multi.strategies import STRATEGIES, GlobalWaiter

__all__ = [
    "multisynch",
    "Multisynch",
    "monitor_set",
    "MonitorSet",
    "current_multisynch",
    "local",
    "complex_pred",
    "LocalPredicate",
    "ComplexPredicate",
    "GlobalNode",
    "GlobalAtom",
    "GAnd",
    "GOr",
    "compute_critical",
    "group_by_monitor",
    "GlobalWaiter",
    "STRATEGIES",
    "global_condition_metrics",
]
