"""Integration tests for OR / AND / selectone / selectall (sync + async)."""

import threading
import time

import pytest

from repro.active import ActiveMonitor, asynchronous, synchronous
from repro.compose import (
    SKIPPED,
    and_,
    async_and,
    async_or,
    async_select_all,
    async_select_one,
    bind,
    or_,
    select_all,
    select_one,
)
from repro.core import Monitor
from repro.runtime.errors import CompositionError


class Slot(ActiveMonitor):
    """One-item bounded buffer (ActiveMonitor so async ops work too)."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.item = None

    @synchronous(pre=lambda self, item: self.item is None)
    def put(self, item):
        self.item = item

    @synchronous(pre=lambda self: self.item is not None)
    def take(self):
        item, self.item = self.item, None
        return item


def _slots(n, **kw):
    return [Slot(**kw) for _ in range(n)]


class TestBind:
    def test_bind_guarded_method(self):
        s = Slot(mode="sync")
        call = bind(s.put, 42)
        assert call.monitor is s
        ok, _ = call.try_execute()
        assert ok and s.item == 42

    def test_guard_respected(self):
        s = Slot(mode="sync")
        s.put(1)
        ok, _ = bind(s.put, 2).try_execute()
        assert not ok               # slot occupied: guard false

    def test_plain_monitor_methods_bindable(self):
        class Plain(Monitor):
            def __init__(self):
                super().__init__()
                self.x = 0

            def poke(self):
                self.x += 1
                return self.x

        p = Plain()
        ok, result = bind(p.poke).try_execute()
        assert ok and result == 1

    def test_unbound_callable_rejected(self):
        with pytest.raises(CompositionError):
            bind(lambda: None)


class TestSynchronousOr:
    def test_picks_available_operand(self):
        a, b = _slots(2, mode="sync")
        b.put("hello")
        idx, value = or_(bind(a.take), bind(b.take))
        assert (idx, value) == (1, "hello")

    def test_exactly_one_executes(self):
        a, b = _slots(2, mode="sync")
        a.put("x")
        b.put("y")
        idx, value = or_(bind(a.take), bind(b.take))
        remaining = [s.item for s in (a, b)]
        assert remaining.count(None) == 1        # only one slot drained

    def test_blocks_until_some_guard_true(self):
        a, b = _slots(2, mode="sync")
        result = []

        def selector():
            result.append(or_(bind(a.take), bind(b.take)))

        t = threading.Thread(target=selector, daemon=True)
        t.start()
        time.sleep(0.05)
        assert t.is_alive()                       # both guards false: blocked
        b.put("late")
        t.join(10)
        assert result == [(1, "late")]

    def test_operand_exit_reaches_a_parked_selector(self):
        """A composition operand's exit bumps the generation: the selector
        it signals must not re-read a stale memo of its opaque guard atom
        and park again."""
        a, b = _slots(2, mode="sync")
        result = []

        def selector():
            result.append(or_(bind(a.take), bind(b.take)))

        t = threading.Thread(target=selector, daemon=True)
        t.start()
        deadline = time.monotonic() + 5
        while not getattr(a, "_repro_global_waiters", None):
            assert time.monotonic() < deadline, "selector never parked"
            time.sleep(0.001)
        # wait for the selector to release both locks, without running a
        # section (whose exit would itself refresh the generations)
        for m in (a, b):
            while not m._lock.acquire(blocking=False):
                assert time.monotonic() < deadline, "selector never parked"
                time.sleep(0.001)
            m._lock.release()
        try:
            or_(bind(b.put, "late"))   # runs through GuardedCall.try_execute
            t.join(3)
            assert not t.is_alive(), "the operand's exit was lost"
            assert result == [(1, "late")]
        finally:
            if t.is_alive():
                a.put("unblock")
            t.join(2)

    def test_select_one_over_collection(self):
        slots = _slots(5, mode="sync")
        slots[3].put("here")
        idx, value = select_one([bind(s.take) for s in slots])
        assert (idx, value) == (3, "here")

    def test_empty_operands_rejected(self):
        with pytest.raises(CompositionError):
            select_one([])

    @pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
    def test_strategies(self, strategy):
        a, b = _slots(2, mode="sync")
        t = threading.Thread(target=lambda: (time.sleep(0.05), a.put(1)), daemon=True)
        t.start()
        idx, value = or_(bind(a.take), bind(b.take), strategy=strategy)
        assert (idx, value) == (0, 1)
        t.join(5)


class TestSynchronousAnd:
    def test_executes_all_operands(self):
        a, b, c = _slots(3, mode="sync")
        results = and_(bind(a.put, 1), bind(b.put, 2), bind(c.put, 3))
        assert [a.item, b.item, c.item] == [1, 2, 3]
        assert results == [None, None, None]

    def test_results_positional(self):
        a, b = _slots(2, mode="sync")
        a.put("A")
        b.put("B")
        results = and_(bind(a.take), bind(b.take))
        assert results == ["A", "B"]

    def test_waits_for_stragglers(self):
        a, b = _slots(2, mode="sync")
        a.put("ready")
        done = []

        def runner():
            done.append(and_(bind(a.take), bind(b.take)))

        t = threading.Thread(target=runner, daemon=True)
        t.start()
        time.sleep(0.05)
        assert t.is_alive()
        b.put("finally")
        t.join(10)
        assert done == [["ready", "finally"]]

    def test_select_all_over_collection(self):
        slots = _slots(4, mode="sync")
        select_all([bind(s.put, i) for i, s in enumerate(slots)])
        assert [s.item for s in slots] == [0, 1, 2, 3]


class AsyncSlot(ActiveMonitor):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.item = None

    @asynchronous(pre=lambda self, item: self.item is None)
    def put(self, item):
        self.item = item

    @synchronous(pre=lambda self: self.item is not None)
    def take(self):
        item, self.item = self.item, None
        return item


class TestAsynchronousOps:
    def test_async_and_executes_all(self):
        a, b = AsyncSlot(), AsyncSlot()
        try:
            async_and(bind(a.put, 1), bind(b.put, 2))
            assert (a.item, b.item) == (1, 2)
        finally:
            a.shutdown()
            b.shutdown()

    def test_async_or_exactly_one_wins(self):
        a, b = AsyncSlot(), AsyncSlot()
        try:
            idx, _ = async_or(bind(a.put, "x"), bind(b.put, "x"))
            items = [a.item, b.item]
            assert items.count("x") == 1
        finally:
            a.shutdown()
            b.shutdown()

    def test_async_or_waits_for_guard(self):
        a, b = AsyncSlot(), AsyncSlot()
        try:
            a.put("block")      # occupy a; guard for further puts false
            a.flush()
            t = threading.Thread(
                target=lambda: (time.sleep(0.05), b.take() if b.item else None)
            , daemon=True)
            # b empty: put guard true immediately → b should win
            idx, _ = async_or(bind(a.put, "n"), bind(b.put, "n"))
            assert idx == 1
        finally:
            a.shutdown()
            b.shutdown()

    def test_async_requires_distinct_monitors(self):
        a = AsyncSlot()
        try:
            with pytest.raises(CompositionError):
                async_and(bind(a.put, 1), bind(a.put, 2))
        finally:
            a.shutdown()

    def test_async_requires_live_server(self):
        a, b = AsyncSlot(mode="sync"), AsyncSlot(mode="sync")
        with pytest.raises(CompositionError):
            async_and(bind(a.put, 1), bind(b.put, 2))

    def test_skipped_sentinel_identity(self):
        assert SKIPPED is SKIPPED
