"""One park primitive: a per-thread permit, Java's ``LockSupport``.

The paper's runtime blocks and wakes threads with Java's park/unpark, and
ActiveMonitor's lightweight futures are built directly on it (§3.3.2).
:class:`Parker` is that permit: :meth:`~GilParker.unpark` makes one permit
available (two unparks before a park still leave one), and
:meth:`~GilParker.park` consumes it, blocking until one is given or the
timeout passes.  :func:`current_parker` returns the calling thread's own
Parker, built at its first call.

Every blocking site under ``core/``, ``active/`` and ``multi/`` is built on
it, in two steps:

* a wake sets the sleeper's flag, then unparks its thread;
* a park releases what it holds, parks until the flag is set or its
  deadline or cancel token fires, then re-acquires.

**A return from** ``park()`` **is never a signal.**  A permit outlives the
wait it was meant for: a cancel callback that fires after its wait
returned, an unpark that races a timeout, or a test that signals a waiter
no thread parks on each leave one behind, and the thread's next park
returns at once.  Every park therefore loops on its own condition, and a
stale permit costs one extra trip round that loop.

Two forms, selected once at import by
:data:`repro.runtime.atomics.GIL_ENABLED` (``REPRO_ATOMICS=locked`` forces
the locked form on any build, as it does for the atomics):

* :class:`GilParker` — a flag plus a ``_thread.lock`` that is held while no
  permit is available.  ``unpark`` checks the flag and then sets it before
  releasing the lock; the check and the store are one attribute load and
  one store with no call or backward jump between them, so no other
  thread runs in between while the GIL is held;
* :class:`LockedParker` — the same, with a small lock around the flag,
  because without the GIL the check-then-set is not atomic.
"""

from __future__ import annotations

import threading
from _thread import allocate_lock

from repro.runtime.atomics import GIL_ENABLED

__all__ = ["GilParker", "LockedParker", "Parker", "current_parker"]


class GilParker:
    """A permit for GIL builds: a flag plus a held ``_thread.lock``.

    The lock is held while no permit is available.  ``unpark`` releases it
    (once: the flag records that a permit is out), and ``park`` acquires
    it, which consumes the permit, then clears the flag.  A waker sets its
    sleeper's flag before it reads ``_permit``, and the sleeper clears
    ``_permit`` before it reads the flag, so an unpark that finds a permit
    still out can skip the release: the parked thread is already on its
    way back to check its flag.
    """

    __slots__ = ("_lock", "_permit")

    def __init__(self) -> None:
        lock = allocate_lock()
        lock.acquire()
        self._lock = lock
        self._permit = False

    def park(self, timeout: float | None = None) -> bool:
        """Consume the permit, blocking until one is given; False when
        ``timeout`` seconds pass first."""
        if timeout is None:
            self._lock.acquire()
        elif not self._lock.acquire(True, timeout if timeout > 0 else 0):
            return False
        self._permit = False
        return True

    def unpark(self) -> None:
        """Make the permit available (idempotent, never blocks)."""
        if not self._permit:
            self._permit = True
            self._lock.release()


class LockedParker(GilParker):
    """A permit for free-threaded builds: :class:`GilParker` with a small
    lock around the flag, so that two racing unparks release once and a
    park's clear is ordered against a waker's check."""

    __slots__ = ("_guard",)

    def __init__(self) -> None:
        super().__init__()
        self._guard = allocate_lock()

    def park(self, timeout: float | None = None) -> bool:
        if timeout is None:
            self._lock.acquire()
        elif not self._lock.acquire(True, timeout if timeout > 0 else 0):
            return False
        with self._guard:
            self._permit = False
        return True

    def unpark(self) -> None:
        with self._guard:
            if not self._permit:
                self._permit = True
                self._lock.release()


#: The build-selected permit.
Parker = GilParker if GIL_ENABLED else LockedParker

_local = threading.local()


def current_parker() -> GilParker:
    """The calling thread's own :class:`Parker`, built at its first call."""
    try:
        return _local.parker
    except AttributeError:
        parker = _local.parker = Parker()
        return parker
