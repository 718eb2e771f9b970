"""Focused tests for the condition manager's relay search and expr keys."""

import operator
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor, S
from repro.core.expressions import SharedExpr
from repro.core.predicates import Predicate
from repro.core.waiter import Waiter
from repro.runtime.config import get_config


class Board(Monitor):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.x = 0
        self.y = 0
        self.items = []

    def set_xy(self, x, y):
        self.x = x
        self.y = y

    def push(self, v):
        self.items.append(v)

    def wait_eq(self, k):
        self.wait_until(S.x == k)

    def wait_linear(self, k):
        # x + y >= k : a linear combination threshold
        self.wait_until(S.x + S.y >= k)

    def wait_len(self, k):
        # computed shared expression via S(...)
        self.wait_until(S(lambda m: len(m.items), "n_items") >= k)

    def wait_until_callable(self):
        self.wait_until(lambda m: m.x >= 50)


def _spawn(fn, *args):
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


class TestRelaySelection:
    def test_equivalence_selection_prefers_exact_key(self):
        b = Board()
        woken = []

        def waiter(k):
            b.wait_eq(k)
            woken.append(k)

        threads = [_spawn(waiter, k) for k in (3, 5, 9)]
        time.sleep(0.05)
        b.set_xy(5, 0)
        time.sleep(0.2)
        assert woken == [5]
        b.set_xy(3, 0)
        time.sleep(0.2)
        b.set_xy(9, 0)
        for t in threads:
            t.join(5)
        assert sorted(woken) == [3, 5, 9]

    def test_linear_combination_threshold(self):
        b = Board()
        done = threading.Event()
        _spawn(lambda: (b.wait_linear(10), done.set()))
        time.sleep(0.05)
        b.set_xy(4, 3)
        assert not done.wait(0.15)
        b.set_xy(6, 5)
        assert done.wait(5)

    def test_computed_shared_expression(self):
        b = Board()
        done = threading.Event()
        _spawn(lambda: (b.wait_len(3), done.set()))
        time.sleep(0.05)
        b.push(1)
        b.push(2)
        assert not done.wait(0.15)
        b.push(3)
        assert done.wait(5)

    def test_mixed_tag_kinds_coexist(self):
        b = Board()
        hits = []
        _spawn(lambda: (b.wait_eq(2), hits.append("eq")))
        _spawn(lambda: (b.wait_linear(100), hits.append("th")))
        _spawn(lambda: (b.wait_until_callable(), hits.append("fn")))
        time.sleep(0.05)
        b.set_xy(2, 0)
        time.sleep(0.3)
        assert hits == ["eq"]
        b.set_xy(60, 41)    # satisfies x+y>=100, and the callable below
        time.sleep(0.5)
        assert sorted(hits) == ["eq", "fn", "th"]


class TestFutileWakeups:
    def test_futile_wakeup_counted_on_steal(self):
        """A thread that gets signaled but loses the race re-waits."""
        b = Board()
        woken = threading.Event()

        def waiter():
            b.wait_linear(1)
            woken.set()

        _spawn(waiter)
        time.sleep(0.05)
        b.set_xy(1, 0)
        assert woken.wait(5)
        snap = b.metrics.snapshot()
        assert snap["signals"] >= 1


class TestHousekeeping:
    def test_waiter_pool_recycles(self):
        b = Board()
        done = threading.Event()

        def waiter():
            b.wait_eq(1)
            done.set()

        for round_no in range(3):
            done.clear()
            t = _spawn(waiter)
            time.sleep(0.05)
            b.set_xy(1, 0)
            assert done.wait(5)
            t.join(5)
            b.set_xy(0, 0)
        # after three churn rounds, at most a handful of pooled waiters
        # (each carrying its recycled condition variable) exist
        assert 1 <= len(b._cond_mgr._waiter_pool) <= 4
        # the recycled waiters are fully retired: no predicate references
        assert all(w.predicate is None for w in b._cond_mgr._waiter_pool)
        # and the expression caches were drained with the last waiter
        assert b._cond_mgr._expr_cache == {}
        assert b._cond_mgr._expr_evalers == {}

    def test_dump_waiters_describes_predicates(self):
        b = Board()
        t = _spawn(lambda: b.wait_eq(42))
        time.sleep(0.05)
        dump = b.dump_waiters()
        assert len(dump) == 1
        assert "42" in dump[0]
        b.set_xy(42, 0)
        t.join(5)
        assert b.dump_waiters() == []


# ------------------------------------------------- manager-level relay probes


class Cells(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0
        self.a = 0
        self.b = 0


def _cells():
    """A monitor with its ``__init__`` writes flushed."""
    m = Cells()
    with m._lock:
        m._cond_mgr.relay_signal()
    return m


def _parked(m, condition):
    w = Waiter(Predicate(condition), m._lock)
    m._cond_mgr._register(w)
    return w


@pytest.fixture(params=[True, False], ids=["compiled", "interpreted"])
def compile_mode(request):
    cfg = get_config()
    prior = cfg.compile_predicates
    cfg.compile_predicates = request.param
    yield request.param
    cfg.compile_predicates = prior


class TestProbeOrder:
    def test_equivalence_hit_leaves_opaque_waiter_unevaluated(self):
        """The tag probe runs before the untagged drain: an equivalence hit
        is signaled and a parked opaque predicate is never evaluated."""
        calls = []

        def opaque(m):
            calls.append(1)
            return True

        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            weq = _parked(m, S.x == 4)
            _parked(m, opaque)
            m.x = 4
            assert mgr.relay_signal() is weq
        assert not calls


_BIG = 2**53


class TestExactIntegerTags:
    """A tag must read true whenever its predicate does (Prop. 2), also for
    integers a float cannot hold: the normal form, the canonical sum and
    the heap keys stay in integers."""

    @pytest.mark.parametrize("condition, writes", [
        (S.x >= _BIG + 3, {"x": _BIG + 3}),
        (S.a - S.b >= 1, {"a": _BIG + 1, "b": _BIG}),
    ], ids=["threshold_constant", "difference"])
    def test_true_predicate_beyond_2_53_is_signaled(
            self, compile_mode, condition, writes):
        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            w = _parked(m, condition)
            assert mgr.relay_signal() is None
            for name, value in writes.items():
                setattr(m, name, value)
            assert w.predicate.evaluate(m)
            assert mgr.relay_signal() is w
            mgr._deregister(w)

    def test_max_heap_orders_keys_a_float_cannot_tell_apart(self):
        """``2**53`` and ``2**53 + 1`` round to one float: the max-heap must
        still root the weaker tag, ``x < 2**53 + 1``."""
        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            _parked(m, S.x < _BIG)
            w = _parked(m, S.x < _BIG + 1)
            m.x = _BIG + 5
            assert mgr.relay_signal() is None
            m.x = _BIG
            assert mgr.relay_signal() is w


_near = st.one_of(
    st.integers(-3, 3),
    st.integers(_BIG - 3, _BIG + 3),
    st.integers(-_BIG - 3, -_BIG + 3),
    st.integers(2**60 - 3, 2**60 + 3),
)
_SIDES = {
    "x": lambda: S.x,
    "x+2": lambda: S.x + 2,
    "2x": lambda: 2 * S.x,
    "a-b": lambda: S.a - S.b,
    "b-a": lambda: S.b - S.a,
    "a+b": lambda: S.a + S.b,
}
_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


@settings(max_examples=200, deadline=None)
@given(
    waits=st.lists(st.tuples(st.sampled_from(sorted(_SIDES)),
                             st.sampled_from(sorted(_OPS)), _near),
                   min_size=1, max_size=8),
    writes=st.lists(st.tuples(st.sampled_from("xab"), _near),
                    min_size=1, max_size=10),
)
def test_relay_finds_every_true_tagged_predicate_near_2_53(waits, writes):
    """Threshold and equivalence populations over integers near and beyond
    2**53: after every write and relay, the relay returns a waiter while
    any unsignaled parked predicate is true, and only a true one."""
    m = _cells()
    mgr = m._cond_mgr
    with m._lock:
        parked = [_parked(m, _OPS[op](_SIDES[side](), const))
                  for side, op, const in waits]
        for name, value in [(None, None)] + writes:
            if name is not None:
                setattr(m, name, value)
            while True:
                true = [w for w in parked if w.predicate.evaluate(m)]
                got = mgr.relay_signal()
                if not true:
                    assert got is None
                    break
                assert got in true, (name, value, true)
                parked.remove(got)
                mgr._deregister(got)
