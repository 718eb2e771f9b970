"""Dynamic monitor-usage checks (opt-in, zero-cost when off).

Two runtime assertions back the static rules with ground truth:

* **lock order** — every monitor acquisition is recorded on a per-thread
  stack; acquiring a monitor whose id is *smaller* than one already held
  (and not a reentrant re-entry) violates the global ascending-id order
  that `multisynch` relies on for deadlock freedom (§4.1) and raises
  :class:`~repro.runtime.errors.LockOrderError`.
* **predicate purity** — ``wait_until`` probes the predicate once with a
  snapshot/compare of the monitor's ``__dict__``; any attribute rebind
  during evaluation breaks closure (Def. 2) and raises
  :class:`~repro.runtime.errors.PredicateSideEffectError`.

Enabling/disabling::

    from repro.analysis import runtime as monlint_runtime
    monlint_runtime.enable_checks()
    ...
    monlint_runtime.disable_checks()

    with monlint_runtime.checking():         # scoped form, for tests
        ...

The hot-path cost when disabled is a single module-attribute truth test in
``Monitor._monitor_enter`` / ``_monitor_exit`` — no locks, no allocation.

Liveness is handled elsewhere: the static signal-obligation pass lives in
:mod:`repro.analysis.liveness` (W010–W012), and its runtime twin — a
polling :class:`~repro.resilience.inspector.Inspector` that flags
waiters nobody ever writes for — sits in the resilience layer, not
here, because it observes rather than asserts.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, List

from repro.runtime.errors import LockOrderError, PredicateSideEffectError

#: fast-path switch read by Monitor._monitor_enter/_monitor_exit; toggle it
#: through :func:`enable_checks` / :func:`disable_checks`.
enabled: bool = False

#: whether a lock-order violation raises (True) or is only recorded
raise_on_violation: bool = True

_state = threading.local()
_violations_lock = threading.Lock()
#: human-readable record of every violation observed (kept even when
#: raising, so post-mortem inspection sees the full history)
violations: List[str] = []


def _held() -> list[list]:
    """This thread's stack of ``[monitor_id, reentry_count]`` entries."""
    stack = getattr(_state, "held", None)
    if stack is None:
        stack = []
        _state.held = stack
    return stack


def enable_checks(raise_on_order_violation: bool = True) -> None:
    """Turn the dynamic checker on."""
    global enabled, raise_on_violation
    raise_on_violation = raise_on_order_violation
    enabled = True


def disable_checks() -> None:
    """Turn the dynamic checker off again."""
    global enabled
    enabled = False


def reset() -> None:
    """Clear recorded violations and this thread's held-lock stack."""
    with _violations_lock:
        violations.clear()
    _state.held = []


class checking:
    """Context manager enabling checks for a scope (used heavily in tests)."""

    def __init__(self, raise_on_order_violation: bool = True):
        self._raise = raise_on_order_violation

    def __enter__(self) -> "checking":
        enable_checks(self._raise)
        return self

    def __exit__(self, *exc) -> None:
        disable_checks()


def _record(message: str) -> None:
    with _violations_lock:
        violations.append(message)


# --------------------------------------------------------------------------
# hooks called by Monitor (only when ``enabled`` is True)
# --------------------------------------------------------------------------

def on_acquire(monitor: Any) -> None:
    """Called *before* ``monitor``'s lock is acquired by this thread."""
    mid = monitor.monitor_id
    stack = _held()
    for entry in stack:
        if entry[0] == mid:          # reentrant re-entry: always fine
            entry[1] += 1
            return
    held_above = [entry[0] for entry in stack if entry[0] > mid]
    stack.append([mid, 1])
    if held_above:
        message = (
            f"lock-order violation: thread {threading.current_thread().name} "
            f"acquires monitor #{mid} while already holding "
            f"{sorted(held_above, reverse=True)} — acquisitions must follow "
            "ascending monitor-id order (§4.1); use multisynch(...) for "
            "multi-object sections"
        )
        _record(message)
        if raise_on_violation:
            stack.pop()              # the acquisition will not proceed
            raise LockOrderError(message)


def on_release(monitor: Any) -> None:
    """Called when this thread releases one level of ``monitor``'s lock."""
    mid = monitor.monitor_id
    stack = _held()
    for i in range(len(stack) - 1, -1, -1):
        if stack[i][0] == mid:
            stack[i][1] -= 1
            if stack[i][1] <= 0:
                del stack[i]
            return
    # release without a recorded acquire: checker was enabled mid-section;
    # ignore rather than poison the program.


def check_predicate(predicate: Any, monitor: Any) -> None:
    """Probe-evaluate ``predicate`` once, asserting it does not rebind any
    monitor attribute (closure / purity, Def. 2).

    In-place container mutation is invisible to this snapshot (it compares
    object identity); rebinding — by far the common accident, e.g.
    ``self.count += 1`` inside a predicate callable — is caught.
    """
    before = dict(vars(monitor))
    predicate.evaluate(monitor)
    after = vars(monitor)
    changed = sorted(
        name
        for name in before.keys() | after.keys()
        if before.get(name, _MISSING) is not after.get(name, _MISSING)
    )
    if changed:
        message = (
            f"predicate side effect: evaluating a waituntil predicate on "
            f"{monitor!r} rebound attribute(s) {', '.join(changed)} — "
            "predicates must be closed, side-effect-free functions of "
            "shared state (Def. 2)"
        )
        _record(message)
        raise PredicateSideEffectError(message)


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def held_monitor_ids() -> Iterator[int]:
    """Monitor ids currently held by the calling thread (for diagnostics)."""
    return iter([entry[0] for entry in _held()])
