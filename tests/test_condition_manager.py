"""Focused tests for the condition manager's relay search and expr keys,
the one-baton rule and registration plans."""

import operator
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Monitor, S, compiled, synchronized
from repro.core import condition_manager as cm_module
from repro.core.expressions import SharedExpr
from repro.core.predicates import Predicate
from repro.core.waiter import Waiter
from repro.preprocess import monitor_compile, waituntil
from repro.runtime.config import get_config
from repro.runtime.errors import BrokenMonitorError, WaitTimeoutError


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

    def wait_at_least(self, k):
        self.wait_until(S.x >= k)

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


def _until_parked(monitor, n=1, timeout=5.0):
    deadline = time.monotonic() + timeout
    while monitor._cond_mgr.waiting_count() < n:
        assert time.monotonic() < deadline, "waiter never parked"
        time.sleep(0.001)


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


class TestRaisingTagProbe:
    """A tag probe that raises rules no waiter out: the waiters of that heap
    or table go through their full predicates, which poison the waiter whose
    predicate raises, and the writer's method returns normally."""

    def test_raising_heap_root_poisons_the_waiter_not_the_writer(self):
        b = Board()
        outcome = []

        def waiter():
            try:
                b.wait_at_least(5)
                outcome.append("returned")
            except TypeError as exc:
                outcome.append(exc)

        t = _spawn(waiter)
        _until_parked(b)
        b.set_xy("a", 0)     # '"a" >= 5' raises in the heap's root test
        t.join(5)
        assert not t.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], TypeError)
        assert b.x == "a"

    def test_unhashable_equivalence_probe_leaves_a_false_waiter_parked(self):
        b = Board()
        woke = threading.Event()

        def waiter():
            b.wait_eq(3)
            woke.set()

        t = _spawn(waiter)
        _until_parked(b)
        b.set_xy([], 0)      # the table's dict.get([]) raises TypeError
        assert not woke.wait(0.1)   # [] == 3 is False: still parked
        assert b._cond_mgr.waiting_count() == 1
        b.set_xy(3, 0)
        assert woke.wait(5)
        t.join(5)
        assert not t.is_alive()


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

    def test_a_second_deregistration_is_a_no_op(self):
        """Deregistering a waiter twice pools it once: the next two parks
        get two waiters, each with its own condition variable."""
        b = Board()
        mgr = b._cond_mgr
        pred = Predicate(S.x == 1)
        with b._lock:
            waiter = mgr._obtain_waiter(pred)
            mgr._deregister(waiter)
            mgr._deregister(waiter)
            assert mgr._waiter_pool.count(waiter) == 1
            first = mgr._obtain_waiter(pred)
            second = mgr._obtain_waiter(pred)
            assert first is not second
            assert first.cv is not second.cv
            mgr._deregister(first)
            mgr._deregister(second)
        assert mgr.waiting_count() == 0

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

    @pytest.mark.parametrize("condition, writes", [
        (S.a + 1 >= S.b,
         {"a": 1.6029371294069682e16, "b": 1.6029371294069684e16}),
        (S.x + 1 >= _BIG + 4, {"x": float(_BIG + 2)}),
    ], ids=["two_terms", "one_term"])
    def test_rearranged_key_over_float_state_is_not_trusted(
            self, compile_mode, condition, writes):
        """``S.a + 1 >= S.b`` files as ``a - b >= -1`` and ``S.x + 1 >= k``
        as ``x >= k - 1``: exact over ints, not over floats, where ``+ 1``
        rounds.  A float probe value defers to the full predicate."""
        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            m.b = 2              # park while the predicate is false
            mgr.relay_signal()
            w = _parked(m, condition)
            assert mgr.relay_signal() is None
            for name, value in writes.items():
                setattr(m, name, value)
            assert w.predicate.evaluate(m)
            assert mgr.relay_signal() is w
            mgr._deregister(w)

    def test_bare_key_keeps_trusting_its_tag_over_floats(self, compile_mode):
        """Only a rearranged key pays for float state: a false root of the
        bare ``S.x >= k`` heap still rules its waiter out unevaluated."""
        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            bare = _parked(m, S.x >= 10)
            shifted = _parked(m, S.x + 1 >= 10)
            m.x = 2.5
            evals = mgr.metrics.predicate_evals
            assert mgr.relay_signal() is None
            assert mgr.metrics.predicate_evals - evals == 1   # `shifted` only
            m.x = 9.5
            assert mgr.relay_signal() is shifted
            mgr._deregister(shifted)
            assert mgr.relay_signal() is None
            m.x = 10.0
            assert mgr.relay_signal() is bare
            mgr._deregister(bare)

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
    "x+1": lambda: S.x + 1,
    "x+2": lambda: S.x + 2,
    "2x": lambda: 2 * S.x,
    "a-b": lambda: S.a - S.b,
    "b-a": lambda: S.b - S.a,
    "a+b": lambda: S.a + S.b,
    "a+1-b": lambda: S.a + 1 - S.b,
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
    _relay_finds_every_true_predicate(waits, writes)


#: float state just around 2**53, where a float's spacing reaches 2 and
#: ``x + 1`` rounds to even: up from ``2**53 + 2``, down from ``2**53`` and
#: ``2**53 + 4``
_near_float = st.one_of(st.integers(-2, 2),
                        st.integers(_BIG, _BIG + 4)).map(float)


@settings(max_examples=300, deadline=None)
@given(
    waits=st.lists(st.tuples(st.sampled_from(sorted(_SIDES)),
                             st.sampled_from(sorted(_OPS)),
                             st.one_of(st.integers(-2, 2),
                                       st.integers(_BIG - 1, _BIG + 5))),
                   min_size=1, max_size=8),
    writes=st.lists(st.tuples(st.sampled_from("xab"), _near_float),
                    min_size=1, max_size=10),
)
@example(waits=[("x+1", ">", _BIG + 3)], writes=[("x", float(_BIG + 2))])
@example(waits=[("a+1-b", "==", 0)],
         writes=[("b", float(_BIG + 4)), ("a", float(_BIG + 2))])
def test_relay_finds_every_true_tagged_predicate_near_2_53_floats(
        waits, writes):
    """The same populations over float state near 2**53, where a
    rearranged key rounds differently from its predicate: the relay still
    finds every true predicate."""
    _relay_finds_every_true_predicate(waits, writes)


def _relay_finds_every_true_predicate(waits, writes):
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


# ------------------------------------------------------- one baton in flight


class Pair(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0
        self.y = 0

    def wait_x(self, **kw):
        self.wait_until(S.x == 1, **kw)

    def wait_y(self):
        self.wait_until(S.y == 1)


def _outcome(fn, box, key):
    """Run ``fn`` and record what it returned or raised under ``key``."""
    def run():
        try:
            fn()
            box[key] = "returned"
        except Exception as exc:  # noqa: BLE001 — the test inspects it
            box[key] = exc
    return run


class TestBaton:
    """A threaded waiter the relay signaled holds the monitor's baton until
    its thread resumes holding the lock or deregisters; while one is in
    flight a section exit signals no one and searches nothing."""

    def _two_true_waiters(self):
        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            weq = _parked(m, S.x == 1)     # tagged (equivalence)
            wne = _parked(m, S.x != 0)     # untagged, dependency-bucketed
        with synchronized(m):
            m.x = 1                        # both predicates true at once
        held = [w for w in (weq, wne) if w.signaled]
        assert len(held) == 1, "the exit signals exactly one waiter"
        holder = held[0]
        return m, holder, wne if holder is weq else weq

    def test_second_exit_signals_no_one_and_searches_nothing(self):
        m, holder, other = self._two_true_waiters()
        mgr = m._cond_mgr
        met = mgr.metrics
        checks, evals, signals = met.tag_checks, met.predicate_evals, \
            met.signals
        with synchronized(m):
            pass                           # a second exit, no resume
        assert not other.signaled
        assert met.signals == signals
        assert met.tag_checks == checks
        assert met.predicate_evals == evals
        assert holder.baton and not other.baton and mgr._batons == 1
        with m._lock:
            mgr._deregister(holder)
            mgr._deregister(other)
        assert mgr._batons == 0

    def test_baton_passes_when_the_holder_deregisters(self):
        m, holder, other = self._two_true_waiters()
        mgr = m._cond_mgr
        assert holder.baton and mgr._batons == 1
        with m._lock:
            mgr._deregister(holder)        # as a timed-out waiter leaves
        assert mgr._batons == 0 and not holder.baton
        with synchronized(m):
            pass                           # no new write
        assert other.signaled and other.baton and mgr._batons == 1
        with m._lock:
            mgr._deregister(other)
        assert mgr._batons == 0

    def test_baton_passes_when_the_holder_resumes(self):
        b = Board()
        woke = []
        threads = [_spawn(lambda: (b.wait_at_least(1), woke.append(1)))
                   for _ in range(2)]
        _until_parked(b, 2)
        b.set_xy(1, 0)   # signals one; its own exit signals the other
        for t in threads:
            t.join(5)
        assert not any(t.is_alive() for t in threads)
        assert woke == [1, 1]
        assert b._cond_mgr._batons == 0

    def test_abandon_while_holding_the_baton(self):
        p = Pair()
        mgr = p._cond_mgr
        box = {}
        t1 = _spawn(_outcome(lambda: p.wait_x(timeout=0.5), box, "w1"))
        t2 = _spawn(_outcome(p.wait_y, box, "w2"))
        _until_parked(p, 2)
        with synchronized(p):
            p.x = 1
            p.signal_hint()                # W1 now holds the baton
            holders = [w for w in mgr.waiters if w.baton]
            assert [w.thread_id for w in holders] == [t1.ident]
            p.x = 0
            p.y = 1
            time.sleep(0.8)                # past W1's deadline
        t1.join(5)
        t2.join(5)
        assert not t1.is_alive() and not t2.is_alive()
        assert isinstance(box["w1"], WaitTimeoutError)
        assert box["w2"] == "returned"
        assert mgr._batons == 0 and mgr.waiting_count() == 0

    def test_mark_broken_with_a_baton_in_flight_wakes_every_waiter(self):
        p = Pair()
        mgr = p._cond_mgr
        box = {}
        threads = [_spawn(_outcome(p.wait_x, box, "x1")),
                   _spawn(_outcome(p.wait_x, box, "x2")),
                   _spawn(_outcome(p.wait_y, box, "y"))]
        _until_parked(p, 3)
        with synchronized(p):
            p.x = 1
            p.signal_hint()
            assert mgr._batons == 1
            p.mark_broken()
            # every threaded waiter now holds a baton, the first one once
            assert mgr._batons == 3
        for t in threads:
            t.join(5)
        assert not any(t.is_alive() for t in threads)
        assert sorted(box) == ["x1", "x2", "y"]
        assert all(isinstance(v, BrokenMonitorError) for v in box.values())
        assert mgr._batons == 0 and mgr.waiting_count() == 0

    def test_a_hand_set_signaled_flag_holds_no_baton(self):
        m = _cells()
        mgr = m._cond_mgr
        with m._lock:
            w = _parked(m, S.x == 1)
            w.signaled = True              # a direct poke, not a signal
            mgr._deregister(w)
            assert mgr._batons == 0
            w2 = _parked(m, S.x == 1)
            m.x = 1
            checks = mgr.metrics.tag_checks
            assert mgr.relay_signal() is w2   # the relay still searches
            assert mgr.metrics.tag_checks > checks
            mgr._deregister(w2)
        assert mgr._batons == 0

    def test_dump_waiters_marks_the_baton_holder(self):
        b = Board()
        t = _spawn(lambda: b.wait_eq(7))
        _until_parked(b)
        with synchronized(b):
            b.x = 7
            b.signal_hint()
            lines = b.dump_waiters()
            view = b._cond_mgr.obligation_view()
        assert len(lines) == 1
        assert "holds baton" in lines[0] and f"tid={t.ident}" in lines[0]
        assert "holds baton" in view[0][2]
        t.join(5)
        assert not t.is_alive()
        assert b.dump_waiters() == []


# ------------------------------------------------------ registration plans


@monitor_compile
class Slot(Monitor):
    def __init__(self):
        super().__init__()
        self.count = 0

    def put(self):
        self.count += 1

    def take(self):
        waituntil(self.count > 0)
        self.count -= 1


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestRegistrationPlan:
    def _park_once(self, s):
        t = _spawn(s.take)
        _until_parked(s)
        s.put()
        t.join(5)
        assert not t.is_alive()

    def test_a_closed_site_parks_on_its_cached_plan(self, monkeypatch):
        s = Slot()
        mgr = s._cond_mgr
        self._park_once(s)                 # the first park builds the plan
        calls = {}
        _counting(monkeypatch, cm_module, "tag_predicate", calls)
        _counting(monkeypatch, compiled, "compile_expr_key", calls)
        waits = mgr.metrics.waits
        for _ in range(10):
            self._park_once(s)
        assert mgr.metrics.waits == waits + 10
        assert calls == {}
        assert mgr._expr_evalers == {} and mgr._expr_refs == {}

    def test_a_per_call_predicate_registers_and_wakes(self):
        b = Board()
        mgr = b._cond_mgr
        woke = []
        threads = [_spawn(lambda k=k: (b.wait_at_least(k), woke.append(k)))
                   for k in (3, 5)]
        _until_parked(b, 2)
        assert len(mgr._expr_evalers) == 1     # one shared key, refcounted
        b.set_xy(5, 0)
        for t in threads:
            t.join(5)
        assert not any(t.is_alive() for t in threads)
        assert sorted(woke) == [3, 5]
        assert mgr._expr_evalers == {} and mgr._expr_refs == {}
        assert mgr._expr_cache == {} and mgr._evaler_refs == {}

    def test_compile_predicates_off_files_no_key_evaluator(self):
        cfg = get_config()
        prior = cfg.compile_predicates
        pred = Predicate(S.x + S.a >= 2)
        m = _cells()
        mgr = m._cond_mgr
        try:
            for compile_on in (False, True):
                cfg.compile_predicates = compile_on
                with m._lock:
                    w = Waiter(pred, m._lock)
                    mgr._register(w)
                    fns = list(mgr._expr_evalers.values())
                    m.x = 2
                    assert mgr.relay_signal() is w
                    mgr._deregister(w)
                    m.x = 0
                    mgr.relay_signal()
                assert len(fns) == 1
                assert (fns[0] is not None) is compile_on
        finally:
            cfg.compile_predicates = prior
