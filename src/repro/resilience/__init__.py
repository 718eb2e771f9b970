"""Robustness layer: deadlines, cancellation, supervision, chaos testing.

The paper's algorithms guarantee safety and liveness for *cooperative*
threads on a *healthy* runtime.  This package covers everything outside
that happy path:

* :mod:`repro.resilience.cancellation` — :class:`CancelToken` for
  abandoning monitor waits and future joins cooperatively;
* :mod:`repro.resilience.supervision` — restart dead server threads with
  bounded backoff after failing their futures fast;
* :mod:`repro.resilience.inspector` — one opt-in polling daemon that
  reports stalled monitors (parked waiters or queue backlogs, no
  progress) and unmet signal obligations (waiters that outlive many
  section exits with zero writes to any variable they read — the runtime
  twin of monlint W010) in one structured report;
* :mod:`repro.resilience.chaos` — seeded fault injection (delays, forced
  context switches, thread kills) at named sites across the stack.

Deadline-bounded waiting itself (``wait_until(..., timeout=)``, monitor
poisoning, ``BrokenMonitorError``) lives in the core/runtime layers; see
``docs/robustness.md`` for the full semantics.

Submodules are loaded lazily (PEP 562): the core hot path imports
:mod:`repro.resilience.chaos`, and an eager import of supervision here
would cycle back through ``repro.active``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "CancelTimer",
    "CancelToken",
    "Inspector",
    "InspectorReport",
    "MonitorStall",
    "ServerSupervisor",
    "ThreadKilledFault",
    "WaiterObligation",
    "chaos",
    "supervise",
]

_EXPORTS = {
    "CancelTimer": ("repro.resilience.cancellation", "CancelTimer"),
    "CancelToken": ("repro.resilience.cancellation", "CancelToken"),
    "ServerSupervisor": ("repro.resilience.supervision", "ServerSupervisor"),
    "supervise": ("repro.resilience.supervision", "supervise"),
    "Inspector": ("repro.resilience.inspector", "Inspector"),
    "InspectorReport": ("repro.resilience.inspector", "InspectorReport"),
    "MonitorStall": ("repro.resilience.inspector", "MonitorStall"),
    "WaiterObligation": ("repro.resilience.inspector", "WaiterObligation"),
    "ThreadKilledFault": ("repro.resilience.chaos", "ThreadKilledFault"),
    "chaos": ("repro.resilience.chaos", None),
}

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience import chaos
    from repro.resilience.cancellation import CancelTimer, CancelToken
    from repro.resilience.chaos import ThreadKilledFault
    from repro.resilience.inspector import (
        Inspector,
        InspectorReport,
        MonitorStall,
        WaiterObligation,
    )
    from repro.resilience.supervision import ServerSupervisor, supervise


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
