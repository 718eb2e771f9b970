"""Single-consumer optimal bounded FIFO queue (paper Fig. 3.2).

The server thread is the only consumer; every worker is a producer.  The
original minimizes consumer-side synchronization by *count stealing*: the
consumer claims the whole currently-visible batch and touches the shared
counter once per batch.  This implementation keeps that structure but takes
it further by exploiting CPython's per-operation atomicity (via the
explicit :mod:`repro.runtime.atomics` layer), so the common case acquires
**zero locks** on both sides on GIL builds:

* a producer reserves a slot with one atomic ticket
  (:class:`~repro.runtime.atomics.AtomicCounter` — a raw
  ``itertools.count`` draw under the GIL, a locked fetch-and-add without
  it), checks admission against the consumer-published ``taken`` counter,
  and publishes the item with one ``deque.append`` — three C-level calls,
  no lock on GIL builds;
* the consumer steals the visible batch (``len(deque)``), advances
  ``taken`` once per batch (the paper's take-count strategy), and dequeues
  the claimed items with plain ``popleft`` — no lock, one shared-counter
  touch per batch;
* blocking only happens through a parking lot (a lock and a list of
  :class:`~repro.runtime.parking.Parker` permits) that a producer enters
  *after* its admission check fails, and that the consumer touches only
  when ``_parked`` says somebody is actually waiting: a steal that frees
  slots unparks every parked producer, and each re-checks its admission.

Memory-model note (the no-GIL contract).  The queue's correctness rests on
four primitives, each explicitly accounted for on both builds:

* **ticket draws** go through :class:`repro.runtime.atomics.AtomicCounter`
  — a raw ``itertools.count`` draw on GIL builds (atomic single C call), a
  locked fetch-and-add on free-threaded builds.  Tickets are the only
  multi-writer read-modify-write in the queue;
* **``deque.append`` / ``popleft`` / ``len``** are atomic per operation on
  both builds (GIL, or PEP 703's per-object container locks on
  free-threaded CPython);
* **``_taken``** has a single writer (the consumer); producer reads are
  racy but conservative — the counter only grows, so a stale (smaller)
  value can only make ``t - taken >= capacity`` *more* likely, i.e. park a
  producer that could have been admitted, never admit one over the bound;
* **the parking-lot handshake** is the one store-load pattern that needs
  sequential consistency ("consumer stores ``_taken`` then loads
  ``_parked``; producer appends its Parker to ``_parked`` then loads
  ``_taken``").  The GIL provides it; without the GIL the consumer takes
  the parking lock before checking ``_parked`` (one lock per *batch*,
  selected at import by ``GIL_ENABLED``), which restores the ordering
  through lock acquire/release: whichever side enters the lock second
  observes the other's store.  The producer's re-check after its append
  closes the lost-wakeup window, and since it loops on that check, a
  stale permit on its Parker costs one more check.

Capacity semantics (inherent to the original design, kept deliberately):
the bound applies to *unclaimed* items.  A steal advances ``taken`` by the
whole batch up front, so producers may admit up to ``capacity`` further
items while the consumer drains its claimed batch — **transient total
occupancy is bounded by ``2 × capacity``** (asserted by the stress suite in
``tests/test_scqueue.py``).  A failed :meth:`try_put` cannot atomically
return its ticket; it abandons the reservation on a *void* list that the
consumer folds back into ``taken`` at the next steal, which keeps the
accounting exact for every later ticket.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

from repro.resilience import chaos as _chaos
from repro.runtime.atomics import GIL_ENABLED, AtomicCounter
from repro.runtime.parking import current_parker

__all__ = ["AtomicInteger", "SingleConsumerBoundedQueue"]


class AtomicInteger:
    """Atomic integer with get / getAndIncrement / getAndAdd.

    Retained as a general-purpose utility (and for the ablation that
    measures what the queue used to cost); the queue itself no longer
    uses it.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, value: int = 0):
        self._value = value
        self._lock = threading.Lock()

    def get(self) -> int:
        with self._lock:
            return self._value

    def get_and_increment(self) -> int:
        with self._lock:
            old = self._value
            self._value = old + 1
            return old

    def get_and_add(self, delta: int) -> int:
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    def compare_and_set(self, expect: int, update: int) -> bool:
        with self._lock:
            if self._value != expect:
                return False
            self._value = update
            return True


class SingleConsumerBoundedQueue:
    """Bounded MPSC FIFO queue: lock-free common case, batch stealing."""

    __slots__ = (
        "capacity", "_items", "_tickets", "_void", "_taken", "_claimed",
        "_parklock", "_parked", "steal_batches", "steal_items",
    )

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque[Any] = deque()     # published items (FIFO)
        self._tickets = AtomicCounter()       # producer slot reservations
        self._void: deque[None] = deque()     # reservations abandoned by try_put
        self._taken = 0       # consumer-published count of claimed tickets
        self._claimed = 0     # consumer-local remainder of the stolen batch
        self._parklock = threading.Lock()
        #: the Parkers of the producers in the parking lot (mutated under
        #: ``_parklock``)
        self._parked: list = []
        #: consumer-side instrumentation (single writer, racy reads OK)
        self.steal_batches = 0
        self.steal_items = 0

    # -- producers -------------------------------------------------------------
    def put(self, item: Any) -> None:
        """Enqueue, blocking while the queue is full.  Lock-free unless the
        admission check fails, in which case the producer parks."""
        if _chaos.enabled:
            # fires before the ticket draw: a delay here widens the window
            # between reservation decisions of racing producers
            _chaos.fire("queue_put", self)
        t = self._tickets.next()
        if t - self._taken >= self.capacity:
            self._park(t)
        self._items.append(item)

    def _park(self, ticket: int) -> None:
        parker = current_parker()
        lot = self._parked
        with self._parklock:
            lot.append(parker)
        try:
            # the re-check after the append closes the lost-wakeup window:
            # a steal that advanced ``_taken`` before it either shows here
            # or found our Parker in the lot and unparked it
            while ticket - self._taken >= self.capacity:
                parker.park()
        finally:
            with self._parklock:
                lot.remove(parker)

    def try_put(self, item: Any) -> bool:
        """Non-blocking enqueue; False when full.

        A failed attempt abandons its ticket on the void list; the consumer
        folds voids back into ``taken`` at the next steal."""
        t = self._tickets.next()
        if t - self._taken >= self.capacity:
            self._void.append(None)
            return False
        self._items.append(item)
        return True

    # -- the single consumer ---------------------------------------------------
    def take(self) -> Optional[Any]:
        """Dequeue one item, or None when the queue is (momentarily) empty.

        Must only ever be called by one thread.  Touches the shared counter
        once per stolen batch: the whole visible batch is claimed up front
        and subsequent takes dequeue without synchronization.
        """
        if self._claimed == 0 and not self._steal():
            return None
        self._claimed -= 1
        return self._items.popleft()

    def drain_to(self, out, limit: Optional[int] = None) -> int:
        """Move every currently-visible item into ``out`` (append order);
        return the number moved.  Consumer-only; one counter touch per
        stolen batch.  ``limit`` caps the number moved (None = all)."""
        moved = 0
        pop = self._items.popleft
        append = out.append
        while limit is None or moved < limit:
            if self._claimed == 0 and not self._steal():
                break
            n = self._claimed
            if limit is not None:
                n = min(n, limit - moved)
            for _ in range(n):
                append(pop())
            self._claimed -= n
            moved += n
        return moved

    def _steal(self) -> int:
        """Claim the visible batch; fold voids; wake parked producers.
        Returns the batch size (0 when nothing is visible)."""
        if _chaos.enabled:
            # between the producers' appends and the consumer's claim —
            # stretches the window where items are visible but unclaimed
            _chaos.fire("queue_steal", self)
        advanced = 0
        void = self._void
        if void:
            # fold abandoned try_put reservations into the consumed count;
            # pop first, then advance (the conservative order: admission
            # briefly undercounts free slots, never overcounts)
            v = len(void)
            for _ in range(v):
                void.popleft()
            self._taken += v
            advanced = v
        n = len(self._items)
        if n:
            self._taken += n          # one shared-counter touch per batch
            self._claimed = n
            self.steal_batches += 1
            self.steal_items += n
            advanced += n
        if advanced and (self._parked or not GIL_ENABLED):
            # Under the GIL the racy ``_parked`` read is sound: the GIL
            # orders the producer's "append, _taken load" against our
            # "_taken store, _parked load" sequentially, so one side always
            # sees the other (the Dekker store-load pair in the module
            # docstring).  Without the GIL the read happens under the
            # parking lock (once per batch): a producer that has not
            # entered the lot yet re-checks its admission after it does,
            # and sees our _taken.
            with self._parklock:
                for parker in self._parked:
                    parker.unpark()
        return n

    def approx_len(self) -> int:
        """Racy estimate of the items physically enqueued (claimed-but-not-
        yet-popped items count until the consumer dequeues them)."""
        return len(self._items)

    __len__ = approx_len   # one frame: the executors' quiescence checks
