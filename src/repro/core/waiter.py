"""Per-thread wait records.

Each blocked ``wait_until`` call owns a Waiter: its closure predicate (and
the predicate's compiled evaluator), the tag records it was indexed under,
and its thread's :class:`~repro.runtime.parking.Parker`, so that the relay
rule can wake exactly this thread (the framework never broadcasts; relay
invariance makes ``signalAll`` unnecessary).  A signal sets ``signaled``
and unparks the thread, under the monitor lock; the parked thread loops
until it sees ``signaled`` (or its deadline or cancel token fires), so a
stale permit left on its Parker costs one extra trip round that loop.

A signaled waiter whose thread has not yet re-acquired the lock holds the
monitor's relay *baton* (``baton``): the condition manager skips its
relay search while any baton is in flight, because that thread is already
the active thread relay invariance (Prop. 2) asks for.  The flag is its
own slot, never inferred from ``signaled``, so the manager's baton count
falls exactly once per signal.

Waiters are *recycled*: when a waiter deregisters, the condition manager
returns the whole object to an inactive pool bounded by the paper's 2n
rule (§2.5.1), so a steady-state wait/wake churn allocates no new Waiter
at all.  A pooled waiter may next serve another thread, so :meth:`reset`
takes the Parker of the thread that parks.

:class:`AsyncWaiter` is the *waiterless* variant backing the asyncio
frontend (:mod:`repro.aio`): same registration, predicate machinery and
relay eligibility, but no parked thread and no Parker — the
wake action is a callable the signaler runs (a threadsafe event-loop
callback in practice).  Async waiters are never pooled.  A multisynch
global wait is the same kind of record, one per monitor that checks it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.predicates import Predicate
from repro.runtime.atomics import AtomicFlag
from repro.runtime.parking import current_parker

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tag_index import TagRecord


class Waiter:
    """One blocked thread's registration with a condition manager."""

    __slots__ = (
        "predicate", "eval_fn", "parker", "signaled", "records",
        "thread_id", "poison", "read_set", "untagged", "pending",
        "deliver", "baton",
    )

    def __init__(self, predicate: Predicate, lock: threading.RLock):
        # ``lock`` is the monitor lock the waiter parks under; the condition
        # manager releases and re-acquires it around the park, so the
        # waiter itself keeps no reference to it
        self.records: list["TagRecord"] = []
        self.reset(predicate)

    def reset(self, predicate: Predicate) -> None:
        """Re-arm a (possibly recycled) waiter for a new wait."""
        self.predicate = predicate
        #: the predicate's fastest evaluator — compiled closure when
        #: available, tree-walking ``Predicate.evaluate`` otherwise
        self.eval_fn: Callable[[Any], Any] = predicate.evaluator()
        self.signaled = False
        self.thread_id = threading.get_ident()
        #: the parking thread's permit: a signal unparks it
        self.parker = current_parker()
        #: exception raised while another thread evaluated this predicate;
        #: re-raised in the owning thread when it wakes
        self.poison: Optional[BaseException] = None
        #: dependency tracking (untagged waiters only): the predicate's
        #: shared-variable read set (None = opaque, re-check every relay)
        self.read_set: Optional[frozenset] = None
        #: True when registered in the manager's untagged structures
        self.untagged = False
        #: True while queued for (re-)evaluation at the next relay search
        self.pending = False
        #: waiterless (event-loop) waiters override this with the wake
        #: action to run instead of an unpark; None means a parked thread
        #: owns this record and the relay unparks it
        self.deliver = None
        #: True from the relay's signal until this thread resumes holding
        #: the lock or deregisters (the condition manager's baton count)
        self.baton = False

    def retire(self) -> None:
        """Drop references held for the finished wait (before pooling)."""
        self.predicate = None  # type: ignore[assignment]
        self.eval_fn = _never
        self.poison = None

    def evaluate(self, monitor: Any) -> bool:
        return self.eval_fn(monitor)

    def signal(self) -> None:
        """Wake this waiter (caller holds the monitor lock): set its flag,
        then unpark its thread."""
        self.signaled = True
        self.parker.unpark()

    def describe(self) -> str:
        """Lock-free description for diagnostics (inspector, dump_waiters).

        Identifies the predicate by its compiled-source cache key when one
        exists — stable across runs for structurally equal predicates —
        falling back to ``repr``.  Never evaluates the predicate.
        """
        from repro.core import compiled  # local: avoid import cycle at load

        pred = self.predicate
        key = compiled.source_key(pred) if pred is not None else None
        what = key if key is not None else repr(pred)
        reads = pred.read_set() if pred is not None else None
        if reads is None:
            reads_desc = "?"  # opaque: may read any shared variable
        else:
            reads_desc = "{" + ",".join(sorted(reads)) + "}"
        baton = " holds baton" if self.baton else ""
        return f"tid={self.thread_id} on {what} reads={reads_desc}{baton}"

    def __repr__(self):
        baton = ", holds baton" if self.baton else ""
        return f"Waiter(tid={self.thread_id}, {self.predicate!r}{baton})"


class AsyncWaiter(Waiter):
    """A waiterless waiter: a registration with no parked thread behind it.

    Joins the condition manager's structures exactly like a threaded waiter
    — tag records, dependency buckets — so the
    relay-invariance argument (Prop. 2) is unchanged.  What differs is the
    wake side: there is no Parker; when a signaler finds this
    waiter satisfied (or poisons it) it *claims* the record and runs
    ``deliver(outcome)`` — for the asyncio frontend, a
    ``loop.call_soon_threadsafe`` hop that resolves an ``asyncio.Future``.
    It never holds the relay baton: no thread will resume for it, so the
    signaler delivers it and relays on its behalf.

    ``claimed`` arbitrates the signal/abandon race without the monitor
    lock: the signaler claims while holding the lock, a timeout or
    cancellation claims from the event-loop (or canceller) thread through
    the flag's own micro-lock — bounded, never the monitor lock, so the
    event loop cannot block on monitor traffic.  Exactly one side wins;
    the loser's path is a no-op.  A claimed-but-still-registered waiter is
    inert (``signaled`` is set) and is reaped by the next lock holder.
    The records of one multisynch park share one ``claimed`` flag.
    """

    __slots__ = ("claimed",)

    def __init__(self, predicate: Predicate,
                 deliver: Callable[[Optional[BaseException]], None]):
        self.records = []
        self.reset(predicate)
        self.parker = None  # type: ignore[assignment] — nothing parks on this
        self.deliver = deliver
        self.claimed = AtomicFlag()

    def signal(self) -> None:  # pragma: no cover — defensive: every signal
        self.signaled = True   # site routes async waiters through deliver

    def __repr__(self):
        return f"AsyncWaiter(tid={self.thread_id}, {self.predicate!r})"


def _never(monitor: Any) -> bool:  # pragma: no cover — retired waiters are
    return False                   # never evaluated; defensive placeholder
