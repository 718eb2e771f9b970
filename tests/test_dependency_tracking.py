"""Dependency-tracked relay: read/write sets, dirty filtering, memoization.

Covers the subsystem described in docs/performance.md ("Dependency-tracked
relay"): predicate read sets, per-variable write generations, the
dirty-filtered untagged scan, and — the load-bearing part — a differential
property test checking that the filtered relay wakes exactly the waiters an
exhaustive search would, over randomized schedules that include timeout- or
cancel-style abandonment and poisoned (raising) predicates.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import S
from repro.core.monitor import Monitor
from repro.core.predicates import Predicate
from repro.core.waiter import AsyncWaiter, Waiter
from repro.resilience.inspector import MonitorStall
from repro.runtime.config import get_config
from repro.runtime.errors import WaitTimeoutError

NV = 4  #: shared variables v0..v3 in the differential board


@pytest.fixture(autouse=True)
def _restore_tracking_config():
    cfg = get_config()
    prior = cfg.track_dependencies
    yield
    cfg.track_dependencies = prior


# --------------------------------------------------------------- read sets


def test_dsl_comparison_read_set():
    assert Predicate(S.count > 0).read_set() == frozenset({"count"})


def test_conjunction_read_set_is_the_union():
    pred = Predicate((S.a > 0) & (S.b == 1))
    assert pred.read_set() == frozenset({"a", "b"})


def test_opaque_callable_read_set_is_none():
    assert Predicate(lambda m: True).read_set() is None


def test_annotated_shared_expr_read_set():
    expr = S(lambda m: m.jobs, "jobs_len", reads=("jobs",))
    assert Predicate(expr != 0).read_set() == frozenset({"jobs"})


def test_unannotated_shared_expr_read_set_is_none():
    expr = S(lambda m: m.jobs, "jobs_len")
    assert Predicate(expr != 0).read_set() is None


# ------------------------------------------------- dirty sets & generations


class Cell(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0
        self.y = 0


def test_setattr_records_dirty_variables():
    c = Cell()
    c._dirty.clear()
    c.x = 5
    assert "x" in c._dirty
    del c.y
    assert "y" in c._dirty
    c._private = 1
    assert "_private" not in c._dirty


def test_note_write_records_in_place_mutations():
    c = Cell()
    c._dirty.clear()
    c._note_write("x")
    assert c._dirty == {"x"}


def test_relay_flushes_dirty_into_var_gens():
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        mgr.relay_signal()  # flush construction writes
        g0 = mgr.var_gens.get("x", 0)
        c.x = 1
        mgr.relay_signal()
    assert mgr.var_gens["x"] == g0 + 1
    assert not c._dirty


def test_monitor_method_exit_advances_generations():
    class Counter(Monitor):
        def __init__(self):
            super().__init__()
            self.n = 0

        def inc(self):
            self.n += 1

    c = Counter()
    before = c._cond_mgr.var_gens.get("n", 0)
    c.inc()
    c.inc()
    assert c._cond_mgr.var_gens["n"] >= before + 2


# ------------------------------------------------------- dirty filtering


def _park(mgr, lock, pred):
    w = Waiter(pred, lock)
    mgr._register(w)
    return w


def test_unrelated_write_skips_untagged_evaluation():
    get_config().track_dependencies = True
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        w = _park(mgr, c._lock, Predicate(S.x != 0))
        mgr.relay_signal()  # fresh park: evaluated once (false)
        evals = mgr.metrics.predicate_evals
        skips = mgr.metrics.relay_dirty_skips
        c.y = 7  # disjoint from w's read set
        assert mgr.relay_signal() is None
        assert mgr.metrics.predicate_evals == evals
        assert mgr.metrics.relay_dirty_skips == skips + 1
        c.x = 1  # now w's variable
        assert mgr.relay_signal() is w
        mgr._deregister(w)


def test_tracking_off_falls_back_to_exhaustive_scan():
    get_config().track_dependencies = False
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        w = _park(mgr, c._lock, Predicate(S.x != 0))
        mgr.relay_signal()
        evals = mgr.metrics.predicate_evals
        c.y = 7
        assert mgr.relay_signal() is None
        assert mgr.metrics.predicate_evals == evals + 1  # scanned anyway
        c.x = 1
        assert mgr.relay_signal() is w
        mgr._deregister(w)


def test_queued_waiters_survive_an_early_stopping_relay():
    """note_writes marks both; the relay that signals the first must leave
    the second queued — evaluated (and signaled) by the next relay even
    though no further write occurs (Prop. 2 under filtering).  The first
    holds the baton until its thread resumes and leaves, so that happens
    between the two relays."""
    get_config().track_dependencies = True
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        w1 = _park(mgr, c._lock, Predicate(S.x != 0))
        w2 = _park(mgr, c._lock, Predicate(S.x != 0))
        mgr.relay_signal()  # both evaluated false, queue drained
        c.x = 1
        first = mgr.relay_signal()
        assert first in (w1, w2)
        mgr._deregister(first)  # its thread resumed and left
        second = mgr.relay_signal()  # no new write
        assert second in (w1, w2) and second is not first
        mgr._deregister(second)


def test_opaque_waiters_are_always_rechecked():
    get_config().track_dependencies = True
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        w = _park(mgr, c._lock, Predicate(lambda m: m.x > 0))
        assert mgr.relay_signal() is None
        c.x = 3
        # the write set is irrelevant for opaque read sets: even a write
        # the filter knows nothing about must reach this waiter
        assert mgr.relay_signal() is w
        mgr._deregister(w)


# ------------------------------------------------ differential (hypothesis)


class Board(Monitor):
    def __init__(self):
        super().__init__()
        for i in range(NV):
            setattr(self, f"v{i}", 0)


def _build_pred(spec) -> Predicate:
    kind = spec[0]
    if kind == "ne":
        return Predicate(getattr(S, f"v{spec[1]}") != 0)
    if kind == "diff":
        return Predicate(getattr(S, f"v{spec[1]}") > getattr(S, f"v{spec[2]}"))
    if kind == "eq":
        return Predicate(getattr(S, f"v{spec[1]}") == spec[2])
    if kind == "annot":
        i = spec[1]
        expr = S(lambda m, i=i: getattr(m, f"v{i}"), f"annot_v{i}",
                 reads=(f"v{i}",))
        return Predicate(expr != spec[2])
    if kind == "opaque":
        i, k = spec[1], spec[2]
        return Predicate(lambda m: getattr(m, f"v{i}") >= k + 1)
    assert kind == "poison"
    i = spec[1]
    # raises ZeroDivisionError while v_i == 0: the signaler must poison the
    # waiter and route the relay signal to it (it owns the failure)
    return Predicate(lambda m: 1 // getattr(m, f"v{i}") >= 0)


def _oracle_true(waiter, monitor) -> bool:
    try:
        return bool(waiter.eval_fn(monitor))
    except BaseException:
        return True  # a raising predicate absorbs the signal (poison path)


def _drive(ops, track: bool) -> list[frozenset]:
    """Apply one randomized schedule; return the set of waiters woken after
    each step.  Every relay is drained to quiescence and checked against
    the exhaustive oracle: when the (possibly filtered) relay finds nobody,
    no registered, unsignaled waiter may hold a true predicate.
    """
    get_config().track_dependencies = track
    m = Board()
    mgr = m._cond_mgr
    live: dict[int, Waiter] = {}
    log: list[frozenset] = []
    next_wid = 0
    with m._lock:
        for op in ops:
            if op[0] == "park":
                live[next_wid] = _park(mgr, m._lock, _build_pred(op[1]))
                next_wid += 1
            elif op[0] == "write":
                setattr(m, f"v{op[1]}", op[2])
            elif op[0] == "abandon" and live:
                # timeout/cancel shape: deregister, then re-run the relay
                # (the drain below) so an absorbed baton is handed on
                wid = sorted(live)[op[1] % len(live)]
                mgr._deregister(live.pop(wid))
            woken = set()
            for _ in range(len(live) + len(ops) + 2):
                w = mgr.relay_signal()
                if w is None:
                    break
                wid = next(k for k, v in live.items() if v is w)
                woken.add(wid)
                mgr._deregister(live.pop(wid))
            else:  # pragma: no cover - relay livelock
                raise AssertionError("relay never quiesced")
            for wid, w in live.items():
                assert not _oracle_true(w, m), (
                    f"waiter {wid} satisfied but not signaled "
                    f"(track_dependencies={track}, step {op})"
                )
            log.append(frozenset(woken))
    return log


_pred_spec = st.one_of(
    st.tuples(st.just("ne"), st.integers(0, NV - 1)),
    st.tuples(st.just("diff"), st.integers(0, NV - 1), st.integers(0, NV - 1)),
    st.tuples(st.just("eq"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("annot"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("opaque"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("poison"), st.integers(0, NV - 1)),
)

_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("park"), _pred_spec),
    st.tuples(st.just("abandon"), st.integers(0, 7)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_op, min_size=1, max_size=30))
def test_filtered_relay_matches_exhaustive_search(ops):
    """The dirty-filtered relay wakes exactly the waiters the exhaustive
    scan wakes, step for step, on schedules mixing parks, writes,
    abandonment, and poisoned predicates."""
    assert _drive(ops, track=True) == _drive(ops, track=False)


# ---------------------------------------- one baton in flight (hypothesis)


class _BatonModel:
    """Drive one manager through a drawn schedule of thread-level steps and
    check the baton rule after each.

    ``holding`` is the model's own account of the threaded waiters the
    manager signaled and that have not resumed; the manager's count must
    equal its size.  A threaded park registers and relays as
    ``wait_blocking`` does; a resume does what the woken thread does (back
    from its condition wait: return, re-park, or leave on poison); an
    abandon is a timeout, cancel or raise (deregister, re-relay); an async
    abandon claims the record for the next relay to reap.
    """

    def __init__(self):
        self.m = Board()
        self.mgr = self.m._cond_mgr
        self.holding: set = set()

    def threaded(self) -> list:
        return [w for w in self.mgr.waiters if w.deliver is None]

    def relay(self) -> None:
        w = self.mgr.relay_signal()
        if w is not None:
            assert w.deliver is None, "an async waiter took the baton"
            self.holding.add(w)
        self.check_exit()

    def leave(self, w) -> None:
        self.mgr._deregister(w)
        self.holding.discard(w)

    def step(self, op) -> None:
        mgr, kind = self.mgr, op[0]
        if kind == "park":
            pred = _build_pred(op[1])
            if op[2]:
                mgr.register_async(AsyncWaiter(pred, lambda outcome: None))
            else:
                mgr._register(Waiter(pred, self.m._lock))
                self.relay()
        elif kind == "write":
            setattr(self.m, f"v{op[1]}", op[2])
        elif kind == "exit":
            self.relay()
        elif kind == "resume" and self.threaded():
            threaded = self.threaded()
            w = threaded[op[1] % len(threaded)]
            mgr._resume(w)
            self.holding.discard(w)
            try:
                ok = w.poison is None and bool(w.eval_fn(self.m))
            except Exception:
                ok = False
                w.poison = RuntimeError("raised in its own thread")
            if ok:
                self.leave(w)          # satisfied: returns into its section
            elif w.poison is not None:
                self.leave(w)          # re-raises, then re-relays
                self.relay()
            else:
                self.relay()           # futile: passes the baton, re-parks
        elif kind == "abandon" and mgr.waiters:
            w = mgr.waiters[op[1] % len(mgr.waiters)]
            if w.deliver is not None:
                mgr.abandon_async(w)
            else:
                self.leave(w)
                self.relay()
        elif kind == "poison":
            self.holding.update(self.threaded())
            mgr.poison_all(lambda: RuntimeError("poisoned"))
        self.check_count()

    def check_count(self) -> None:
        mgr = self.mgr
        assert mgr._batons >= 0
        assert mgr._batons == len(self.holding)
        assert self.holding <= set(self.threaded())
        assert all(w.baton for w in self.holding)

    def check_exit(self) -> None:
        if self.mgr._batons:
            return
        for w in self.mgr.waiters:
            assert w.signaled or not _oracle_true(w, self.m), (
                "no baton in flight, yet a satisfied waiter is parked")


_baton_op = st.one_of(
    st.tuples(st.just("park"), _pred_spec, st.booleans()),
    st.tuples(st.just("write"), st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("exit")),
    st.tuples(st.just("resume"), st.integers(0, 7)),
    st.tuples(st.just("abandon"), st.integers(0, 7)),
    st.tuples(st.just("poison")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_baton_op, min_size=1, max_size=40))
def test_baton_count_and_relay_invariance_over_random_schedules(ops):
    """Over parks, writes, exits, resumes, abandonment and poison on
    threaded and async waiters: the baton count always equals the number
    of signaled threaded waiters that have not resumed, and after every
    relay either a baton is in flight or no registered, unsignaled
    waiter's predicate is true (Prop. 2)."""
    get_config().track_dependencies = True
    model = _BatonModel()
    with model.m._lock:
        for op in ops:
            model.step(op)


# ------------------------------------------------------------ real threads


def test_threaded_untagged_waiters_all_wake():
    class Flags(Monitor):
        def __init__(self):
            super().__init__()
            self.flag0 = 0
            self.flag1 = 0

        def raise_flag(self, i):
            setattr(self, f"flag{i}", 1)

        def await_flag(self, i):
            self.wait_until(getattr(S, f"flag{i}") != 0)

    get_config().track_dependencies = True
    f = Flags()
    done = []
    threads = [
        threading.Thread(target=lambda i=i: (f.await_flag(i % 2), done.append(i)))
        for i in range(6)
    ]
    for t in threads:
        t.start()
    f.raise_flag(0)
    f.raise_flag(1)
    for t in threads:
        t.join(timeout=10.0)
    assert sorted(done) == list(range(6))


def test_timeout_abandonment_under_filtering():
    class Flags(Monitor):
        def __init__(self):
            super().__init__()
            self.flag = 0

        def await_never(self):
            self.wait_until(S.flag == 999, timeout=0.05)

    get_config().track_dependencies = True
    f = Flags()
    with pytest.raises(WaitTimeoutError):
        f.await_never()
    assert f._cond_mgr.waiting_count() == 0


# ----------------------------------------------------- TagIndex heap churn


def test_threshold_heap_churn_stays_bounded():
    """10k park/unpark cycles with distinct threshold keys must not grow
    the heap: prune_empty rebuilds when stale records outnumber live ones
    2:1, so both the heap and the record table stay O(live)."""
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        for i in range(10_000):
            w = Waiter(Predicate(S.x >= i + 1), c._lock)
            mgr._register(w)
            mgr._deregister(w)
    assert mgr.index.heaps, "threshold predicates never reached the index"
    for heap in mgr.index.heaps.values():
        assert heap._live == 0
        assert len(heap._heap) <= 4, f"heap grew to {len(heap._heap)} entries"
        assert len(heap._records) <= 4


# --------------------------------------------------------- observability


def test_dump_waiters_reports_read_sets_and_generations():
    c = Cell()
    mgr = c._cond_mgr
    with c._lock:
        w = _park(mgr, c._lock, Predicate(S.x != 0))
        c.x = 2
        mgr.relay_signal()
        lines = mgr.dump_waiters()
        mgr._deregister(w)
    assert len(lines) == 1
    assert "reads={x}" in lines[0]
    assert "'x': " in lines[0]  # per-variable generation map


def test_monitor_stall_describe_includes_var_gens():
    stall = MonitorStall(
        monitor_id=7, monitor_class="Cell", generation=3, quiet_seconds=1.5,
        depth=0, broken=False, waiters=[], global_waiters=0,
        queue_depth=None, pending=None, server_alive=None,
        var_gens={"jobs": 4, "done": 0},
    )
    text = stall.describe()
    assert "write generations: done=0 jobs=4" in text
