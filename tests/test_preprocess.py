"""Tests for the preprocessor: natural waituntil syntax → DSL rewriting."""

import sys
import threading
import time

import pytest

from repro.core import Monitor
from repro.core.tags import TagKind, tag_predicate
from repro.preprocess import monitor_compile, waituntil
from repro.runtime.errors import PredicateError


@monitor_compile
class CompiledQueue(Monitor):
    def __init__(self, capacity):
        super().__init__()
        self.items = []
        self.capacity = capacity
        self.count = 0

    def put(self, item):
        waituntil(self.count < self.capacity)
        self.items.append(item)
        self.count += 1

    def take(self):
        waituntil(self.count > 0)
        self.count -= 1
        return self.items.pop(0)

    def take_many(self, num):
        waituntil(self.count >= num)
        out, self.items = self.items[:num], self.items[num:]
        self.count -= num
        return out


@monitor_compile
class CompiledBoard(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0
        self.y = 0
        self.items = []

    def step(self, who):
        waituntil(self.x == who)
        self.x += 1

    def wait_both(self, a, b):
        waituntil(self.x >= a and self.y >= b)
        return self.x, self.y

    def wait_either(self, a, b):
        waituntil(self.x >= a or self.y >= b)

    def wait_not_empty(self):
        waituntil(not (self.x == 0))

    def wait_len(self, k):
        waituntil(len(self.items) >= k)
        return len(self.items)

    def wait_chain(self, lo, hi):
        waituntil(lo <= self.x < hi)
        return self.x

    def poke(self, x=None, y=None, item=None):
        if x is not None:
            self.x = x
        if y is not None:
            self.y = y
        if item is not None:
            self.items.append(item)


def _spawn(fn, *args):
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


class TestBasicRewrite:
    def test_queue_works_end_to_end(self):
        q = CompiledQueue(4)
        got = []
        producer = _spawn(lambda: [q.put(i) for i in range(50)])
        consumer = _spawn(lambda: [got.append(q.take()) for _ in range(50)])
        producer.join(15)
        consumer.join(15)
        assert got == list(range(50))

    def test_parameterized_threshold(self):
        q = CompiledQueue(100)
        out = []
        waiter = _spawn(lambda: out.append(q.take_many(5)))
        time.sleep(0.05)
        for i in range(5):
            q.put(i)
        waiter.join(10)
        assert out == [[0, 1, 2, 3, 4]]

    def test_predicates_are_tagged(self):
        """The whole point: rewritten predicates get Equivalence/Threshold
        tags instead of opaque None tags."""
        from repro.core.predicates import Predicate
        from repro.core.expressions import S

        # reproduce what the rewritten take() builds
        q = CompiledQueue(4)
        waiters_tags = []

        def observer():
            q.take()

        t = _spawn(observer)
        time.sleep(0.05)
        with q._lock:
            records = list(q._cond_mgr.index.heaps.values())
            waiters_tags = [len(h) for h in records]
        q.put("x")
        t.join(10)
        assert any(waiters_tags), "take()'s waituntil must land in a threshold heap"


class TestBooleanRewrites:
    def test_and(self):
        b = CompiledBoard()
        out = []
        t = _spawn(lambda: out.append(b.wait_both(2, 3)))
        time.sleep(0.05)
        b.poke(x=2)
        time.sleep(0.05)
        assert not out
        b.poke(y=3)
        t.join(10)
        assert out == [(2, 3)]

    def test_or(self):
        b = CompiledBoard()
        t = _spawn(lambda: b.wait_either(5, 1))
        time.sleep(0.05)
        b.poke(y=1)
        t.join(10)
        assert not t.is_alive()

    def test_not(self):
        b = CompiledBoard()
        t = _spawn(b.wait_not_empty)
        time.sleep(0.05)
        b.poke(x=7)
        t.join(10)
        assert not t.is_alive()

    def test_comparison_chain(self):
        b = CompiledBoard()
        out = []
        t = _spawn(lambda: out.append(b.wait_chain(3, 6)))
        time.sleep(0.05)
        b.poke(x=9)       # above the chain's upper bound
        time.sleep(0.05)
        assert not out
        b.poke(x=4)
        t.join(10)
        assert out == [4]

    def test_equivalence_tagging_survives(self):
        b = CompiledBoard()
        done = []
        ts = [_spawn(lambda k=k: (b.step(k), done.append(k))) for k in range(1, 4)]
        time.sleep(0.05)
        b.poke(x=1)       # unleash the chain 1 → 2 → 3
        for t in ts:
            t.join(10)
        assert sorted(done) == [1, 2, 3]


class TestComputedExpressions:
    def test_len_call_becomes_shared_expr(self):
        b = CompiledBoard()
        out = []
        t = _spawn(lambda: out.append(b.wait_len(2)))
        time.sleep(0.05)
        b.poke(item="a")
        time.sleep(0.05)
        assert not out
        b.poke(item="b")
        t.join(10)
        assert out == [2]


class TestErrors:
    def test_raw_waituntil_raises(self):
        with pytest.raises(PredicateError):
            waituntil(True)

    def test_requires_monitor_subclass(self):
        with pytest.raises(PredicateError):
            @monitor_compile
            class NotAMonitor:
                pass

    def test_untouched_methods_keep_identity(self):
        # poke has no waituntil: it must not be recompiled
        assert CompiledBoard.poke.__wrapped__.__qualname__.endswith("poke")

    def test_exec_defined_class_raises_clear_error(self):
        # inspect.getsource fails for exec()/REPL-built classes; a method
        # that calls waituntil must fail at decoration time, not at runtime
        namespace = {
            "Monitor": Monitor,
            "monitor_compile": monitor_compile,
            "waituntil": waituntil,
        }
        source = (
            "class ReplBoard(Monitor):\n"
            "    def wait_ready(self):\n"
            "        waituntil(self.x > 0)\n"
        )
        exec(source, namespace)
        with pytest.raises(PredicateError, match="cannot retrieve source"):
            monitor_compile(namespace["ReplBoard"])

    def test_exec_defined_class_without_waituntil_is_fine(self):
        namespace = {"Monitor": Monitor}
        exec(
            "class PlainBoard(Monitor):\n"
            "    def poke(self):\n"
            "        return 1\n",
            namespace,
        )
        cls = monitor_compile(namespace["PlainBoard"])
        assert cls().poke() == 1


class TestClosureRejection:
    def test_method_closing_over_enclosing_scope_rejected(self):
        threshold = 5

        with pytest.raises(PredicateError):
            @monitor_compile
            class Closes(Monitor):
                def wait_it(self):
                    waituntil(self.x >= threshold)   # closes over `threshold`


@monitor_compile
class LoopedBoard(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0

    def bump(self):
        self.x += 1

    def wait_twice(self):
        for target in (1, 2):
            waituntil(self.x >= target)
        return self.x

    def wait_in_branch(self, fast):
        if fast:
            return self.x
        waituntil(self.x >= 1)
        return self.x


class TestControlFlowPlacement:
    def test_waituntil_inside_loop(self):
        b = LoopedBoard()
        out = []
        t = _spawn(lambda: out.append(b.wait_twice()))
        time.sleep(0.05)
        b.bump()
        b.bump()
        t.join(10)
        assert out and out[0] >= 2

    def test_waituntil_inside_conditional(self):
        b = LoopedBoard()
        assert b.wait_in_branch(True) == 0
        t = _spawn(lambda: b.wait_in_branch(False))
        time.sleep(0.05)
        b.bump()
        t.join(10)
        assert not t.is_alive()


# -- per-site predicates: closed sites are built once ------------------------

#: read by HoistBoard.wait_global; rebound by a test through monkeypatch
LIMIT = 1


@monitor_compile
class HoistBoard(Monitor):
    def __init__(self):
        super().__init__()
        self.count = 0
        self.flag = 0

    def bump(self, n=1):
        self.count += n

    def wait_closed(self):
        waituntil(self.count >= 0 and self.flag == 0)

    def wait_param(self, num):
        waituntil(self.count >= num)

    def wait_local(self):
        num = self.flag + 1
        waituntil(self.count >= num)

    def wait_global(self):
        waituntil(self.count >= LIMIT)

    def wait_closure(self, num):
        def helper():
            waituntil(self.count >= num)
        helper()

    def wait_bare_flag(self):
        waituntil(self.flag)


def _record_conditions(monkeypatch, cls):
    """Record the condition object every ``wait_until`` call receives."""
    seen = []
    original = cls.wait_until

    def recording(self, condition, **kwargs):
        seen.append(condition)
        return original(self, condition, **kwargs)

    monkeypatch.setattr(cls, "wait_until", recording)
    return seen


class TestHoistedSites:
    def test_closed_site_passes_one_predicate_to_every_call(self, monkeypatch):
        from repro.core.predicates import Predicate

        seen = _record_conditions(monkeypatch, HoistBoard)
        first, second = HoistBoard(), HoistBoard()
        first.wait_closed()
        first.wait_closed()
        second.wait_closed()
        assert len(seen) == 3
        assert isinstance(seen[0], Predicate)
        assert seen[0] is seen[1] is seen[2]

    @pytest.mark.parametrize("method", ["wait_param", "wait_closure"])
    def test_parameter_and_closure_sites_bind_per_call(self, monkeypatch, method):
        seen = _record_conditions(monkeypatch, HoistBoard)
        b = HoistBoard()
        b.bump(3)
        getattr(b, method)(1)
        getattr(b, method)(3)
        assert seen[0] is not seen[1]
        assert [c.rhs.value for c in seen] == [1, 3]

    def test_local_site_binds_per_call(self, monkeypatch):
        seen = _record_conditions(monkeypatch, HoistBoard)
        b = HoistBoard()
        b.bump(3)
        b.wait_local()
        b.flag = 2
        b.wait_local()
        assert seen[0] is not seen[1]
        assert [c.rhs.value for c in seen] == [1, 3]

    def test_rebinding_a_module_global_changes_the_bound(self, monkeypatch):
        b = HoistBoard()
        b.bump()
        b.wait_global()                      # LIMIT = 1: already true
        monkeypatch.setattr(sys.modules[__name__], "LIMIT", 3)
        t = _spawn(b.wait_global)
        t.join(0.2)
        assert t.is_alive(), "the rebound LIMIT = 3 must hold the wait"
        b.bump(2)
        t.join(10)
        assert not t.is_alive()

    def test_site_that_cannot_build_fails_at_call_time(self):
        # the class still compiles; the error surfaces in the caller
        b = HoistBoard()
        with pytest.raises(PredicateError):
            b.wait_bare_flag()

    def test_hoisted_predicate_shared_under_contention(self):
        """8 threads on 4 instances of one compiled class share the hoisted
        put/take predicates; every item must arrive exactly once."""
        items = 300
        queues = [CompiledQueue(2) for _ in range(4)]
        received = [[] for _ in queues]
        threads = []
        for q, out in zip(queues, received):
            threads.append(threading.Thread(
                target=lambda q=q: [q.put(i) for i in range(items)],
                daemon=True))
            threads.append(threading.Thread(
                target=lambda q=q, out=out: [out.append(q.take())
                                             for _ in range(items)],
                daemon=True))
        prior = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive(), "stress thread did not finish"
        finally:
            sys.setswitchinterval(prior)
        for out in received:
            assert out == list(range(items))
        assert all(q.count == 0 and not q.items for q in queues)


# -- is / is not / in / not in ------------------------------------------------

@monitor_compile
class MembershipBoard(Monitor):
    def __init__(self):
        super().__init__()
        self.item = None
        self.items = []

    def set_item(self, value):
        self.item = value

    def add(self, value):
        self.items.append(value)

    def remove(self, value):
        self.items.remove(value)

    def wait_item_none(self):
        waituntil(self.item is None)
        return self.item

    def wait_item_set(self):
        waituntil(self.item is not None)
        return self.item

    def wait_member(self, x):
        waituntil(x in self.items)
        return x

    def wait_absent(self, x):
        waituntil(x not in self.items)
        return x

    def wait_not_member(self, x):
        waituntil(not (x in self.items))
        return x


def _lifted_names(board):
    with board._lock:
        return sorted(w.predicate.root.lhs.name for w in board._cond_mgr.waiters)


class TestIdentityAndMembership:
    def test_is_none_returns_when_none(self):
        b = MembershipBoard()
        t = _spawn(b.wait_item_none)
        t.join(10)
        assert not t.is_alive(), "self.item is None must hold at once"
        b.set_item(1)
        out = []
        t = _spawn(lambda: out.append(b.wait_item_none()))
        t.join(0.2)
        assert t.is_alive()
        b.set_item(None)
        t.join(10)
        assert not t.is_alive()
        assert out == [None]

    def test_is_not_none_waits_for_a_value(self):
        b = MembershipBoard()
        out = []
        t = _spawn(lambda: out.append(b.wait_item_set()))
        t.join(0.2)
        assert t.is_alive(), "self.item is not None must not hold yet"
        b.set_item(5)
        t.join(10)
        assert not t.is_alive()
        assert out == [5]

    def test_in_wakes_after_append(self):
        b = MembershipBoard()
        done = []
        t1 = _spawn(lambda: done.append(b.wait_member(1)))
        t2 = _spawn(lambda: done.append(b.wait_member(2)))
        t1.join(0.2)
        assert t1.is_alive() and t2.is_alive()
        # each waiter's lifted expression closes over its own x: never one
        # tag table through the shared source text
        names = _lifted_names(b)
        assert len(names) == 2 and len(set(names)) == 2
        b.add(2)
        t2.join(10)
        assert not t2.is_alive()
        assert t1.is_alive()
        b.add(1)
        t1.join(10)
        assert not t1.is_alive()
        assert done == [2, 1]

    @pytest.mark.parametrize("method", ["wait_absent", "wait_not_member"])
    def test_not_in_wakes_after_remove(self, method):
        b = MembershipBoard()
        b.add(1)
        b.add(2)
        done = []
        t1 = _spawn(lambda: done.append(getattr(b, method)(1)))
        t2 = _spawn(lambda: done.append(getattr(b, method)(2)))
        t1.join(0.2)
        assert t1.is_alive() and t2.is_alive()
        assert len(set(_lifted_names(b))) == 2
        b.remove(2)
        t2.join(10)
        assert not t2.is_alive()
        assert t1.is_alive()
        b.remove(1)
        t1.join(10)
        assert not t1.is_alive()
        assert done == [2, 1]
