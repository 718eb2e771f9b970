"""The park primitive (repro.runtime.parking) and the sites built on it.

* ``Parker`` semantics, for both forms: a permit given before ``park``
  makes it return at once, two unparks leave one permit, ``park(timeout)``
  returns False on timeout, and many threads unparking one Parker never
  raise;
* a stale permit costs nothing: a thread whose Parker holds a permit meant
  for no wait parks on a false predicate, stays parked until a write, and
  counts no futile wakeup;
* the warm paths build nothing: a two-thread handoff on a compiled buffer,
  a delegated put whose Rule-2 ``get`` blocks, a CC global wait, and a
  producer parked on a full task queue construct no ``Condition``,
  ``Event``, condition-wait lock or Parker once their threads are warm;
* a source scan: no ``threading.Condition(`` or ``threading.Event(`` call
  is left under ``core/``, ``active/`` or ``multi/``.

``tests/test_atomics.py`` re-runs this module with ``REPRO_ATOMICS=locked``.
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time

import pytest

from repro.active.scqueue import SingleConsumerBoundedQueue
from repro.core import Monitor, S
from repro.core.predicates import Predicate
from repro.core.waiter import Waiter
from repro.multi import local, multisynch
from repro.preprocess import monitor_compile, waituntil
from repro.problems.bounded_buffer import ActiveBoundedQueue
from repro.runtime.atomics import GIL_ENABLED
from repro.runtime.parking import (
    GilParker,
    LockedParker,
    Parker,
    current_parker,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

FORMS = [GilParker, LockedParker]


def _spawn(fn, *args):
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


def _until(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


# ------------------------------------------------------------- semantics
def test_the_build_selects_the_form():
    assert Parker is (GilParker if GIL_ENABLED else LockedParker)


@pytest.mark.parametrize("form", FORMS)
class TestParkerSemantics:
    def test_a_permit_given_before_park_returns_at_once(self, form):
        p = form()
        p.unpark()
        t0 = time.monotonic()
        assert p.park() is True
        assert time.monotonic() - t0 < 0.5

    def test_two_unparks_leave_one_permit(self, form):
        p = form()
        p.unpark()
        p.unpark()
        assert p.park(0) is True
        assert p.park(0.01) is False

    def test_park_returns_false_on_timeout(self, form):
        p = form()
        t0 = time.monotonic()
        assert p.park(0.05) is False
        assert time.monotonic() - t0 >= 0.04
        assert p.park(0) is False
        assert p.park(-1.0) is False

    def test_an_unpark_wakes_a_parked_thread(self, form):
        p = form()
        got = []
        t = _spawn(lambda: got.append(p.park(5.0)))
        time.sleep(0.02)
        p.unpark()
        t.join(5)
        assert got == [True]

    def test_many_threads_unparking_one_parker_never_raise(self, form):
        if form is GilParker and not getattr(sys, "_is_gil_enabled",
                                             lambda: True)():
            pytest.skip("the GIL form's unpark is atomic only under the GIL")
        p = form()
        errors: list = []
        stop = threading.Event()
        parks = []

        def unparker():
            try:
                for _ in range(5000):
                    p.unpark()
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def parker():
            n = 0
            while not stop.is_set():
                n += p.park(0.001)
            parks.append(n)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            owner = _spawn(parker)
            threads = [_spawn(unparker) for _ in range(8)]
            for t in threads:
                t.join(30)
            stop.set()
            owner.join(5)
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        assert parks and parks[0] >= 1
        # whatever the interleaving, at most one permit is left
        p.park(0)
        assert p.park(0) is False


def test_current_parker_is_per_thread():
    mine = current_parker()
    assert current_parker() is mine
    theirs = []
    t = _spawn(lambda: theirs.append(current_parker()))
    t.join(5)
    assert theirs and theirs[0] is not mine
    assert isinstance(mine, Parker)


# ---------------------------------------------------- stale permits
class Box(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0

    def set_x(self, v):
        self.x = v

    def wait_x(self):
        self.wait_until(S.x == 1)


def test_a_stale_permit_costs_nothing():
    """A waiter signaled with no thread parked on it leaves a permit on
    the signaling thread's Parker.  That thread's next park returns at
    once, sees no signal and parks again: it stays parked until a write,
    and counts one wakeup and no futile one."""
    box = Box()
    outcome: list = []

    def run():
        stray = Waiter(Predicate(S.x == 2), box._lock)
        stray.signal()          # nobody parks on it: the permit stays
        assert stray.parker is current_parker()
        box.wait_x()
        outcome.append("woke")

    t = _spawn(run)
    _until(lambda: box.waiting_count() == 1, "the waiter to park")
    time.sleep(0.1)
    assert t.is_alive() and outcome == []
    box.set_x(1)
    t.join(5)
    assert outcome == ["woke"]
    snap = box._metrics.snapshot()
    assert snap["wakeups"] == 1
    assert snap["futile_wakeups"] == 0


# ------------------------------------------------- warm paths build nothing
@monitor_compile
class Handoff(Monitor):
    """A compiled one-slot buffer: every put and take can park."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def put(self):
        waituntil(self.count < 1)
        self.count += 1

    def take(self):
        waituntil(self.count > 0)
        self.count -= 1


class Pair(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0

    def set_x(self, v):
        self.x = v


def _handoff():
    buf = Handoff()
    items = 200

    def producer():
        for _ in range(items):
            buf.put()

    def consumer():
        for _ in range(items):
            buf.take()

    return [producer, consumer], lambda: buf._metrics.snapshot()["waits"]


def _delegated_put():
    q = ActiveBoundedQueue(1, mode="async")

    def producer():
        # the queue is full after the first put, so the second goes
        # pending and the third put's Rule-2 get blocks on it
        for k in range(3):
            q.put(k)

    def consumer():
        for _ in range(3):
            time.sleep(0.02)
            q.take()

    return [producer, consumer], q


def _global_wait():
    a, b = Pair(), Pair()
    condition = local(a, S.x == 1) & local(b, S.x == 1)

    def waiter():
        with multisynch(a, b, strategy="CC") as ms:
            ms.wait_until(condition)
            a.set_x(0)
            b.set_x(0)

    def writer():
        time.sleep(0.02)
        a.set_x(1)
        b.set_x(1)

    return [waiter, writer]


def _full_task_queue():
    q = SingleConsumerBoundedQueue(1)

    def producer():
        q.put("a")
        q.put("b")      # full: parks until the steal below

    def consumer():
        time.sleep(0.02)
        while q.take() is None:
            time.sleep(0.001)
        while q.take() is None:
            time.sleep(0.001)

    return [producer, consumer]


def _run_twice(bodies):
    """Run each body on its own thread twice, with a gate between the
    rounds; return (threads, ready, go).  The gate is made of raw locks,
    which allocate nothing when waited on."""
    ready = [threading.Lock() for _ in bodies]
    go = [threading.Lock() for _ in bodies]
    for lock in ready + go:
        lock.acquire()

    def loop(body, ready_lock, go_lock):
        body()
        ready_lock.release()
        go_lock.acquire()
        body()

    threads = [_spawn(loop, body, r, g) for body, r, g in zip(bodies, ready, go)]
    return threads, ready, go


def test_warm_paths_build_nothing(monkeypatch):
    handoff, handoff_waits = _handoff()
    delegated, q = _delegated_put()
    scenarios = [handoff, delegated, _global_wait(), _full_task_queue()]
    try:
        runs = [_run_twice(bodies) for bodies in scenarios]
        for _, ready, _ in runs:
            for lock in ready:
                assert lock.acquire(timeout=10), "a warm-up round stalled"
        ours = {t.ident for threads, _, _ in runs for t in threads}
        ours.add(q.server._ident)
        counts = {"Condition": 0, "Event": 0, "_allocate_lock": 0,
                  "Parker": 0, "park": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                if threading.get_ident() in ours:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(threading.Condition, "__init__", counting(
            "Condition", threading.Condition.__init__))
        monkeypatch.setattr(threading.Event, "__init__", counting(
            "Event", threading.Event.__init__))
        monkeypatch.setattr(threading, "_allocate_lock", counting(
            "_allocate_lock", threading._allocate_lock))
        monkeypatch.setattr(Parker, "__init__", counting(
            "Parker", Parker.__init__))
        monkeypatch.setattr(Parker, "park", counting("park", Parker.park))
        waits_before = handoff_waits()
        for _, _, go in runs:
            for lock in go:
                lock.release()
        for threads, _, _ in runs:
            for t in threads:
                t.join(20)
                assert not t.is_alive(), "a measured round stalled"
        monkeypatch.undo()
        parks = counts.pop("park")
        assert counts == {"Condition": 0, "Event": 0, "_allocate_lock": 0,
                          "Parker": 0}
        # the measured rounds really blocked: the handoff parked, and so
        # did the future get, the global wait and the queue producer
        assert handoff_waits() > waits_before
        assert parks >= 4
    finally:
        q.shutdown()


# ------------------------------------------------------------ source scan
def test_no_condition_or_event_is_left_in_the_framework():
    offenders = []
    for package in ("core", "active", "multi"):
        for path in sorted((SRC / package).rglob("*.py")):
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if "threading.Condition(" in line or "threading.Event(" in line:
                    offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert offenders == []
