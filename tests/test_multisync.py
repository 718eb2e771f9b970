"""Integration tests for multisynch and global-condition waiting."""

import os
import random
import sys
import threading
import time

import pytest

from repro.core import Monitor, S
from repro.multi import (
    complex_pred,
    current_multisynch,
    global_condition_metrics,
    local,
    manager,
    monitor_set,
    multisynch,
)
from repro.problems.bounded_buffer import ActiveBoundedQueue
from repro.problems.pizza_store import (
    CAPACITY,
    N_INGREDIENTS,
    RESTOCK,
    MonitorStore,
    make_recipes,
)
from repro.resilience import CancelToken
from repro.runtime.errors import (
    BrokenMonitorError,
    MonitorError,
    NestedMultisynchError,
    PredicateError,
    WaitCancelledError,
)


class Account(Monitor):
    def __init__(self, balance=0):
        super().__init__()
        self.balance = balance

    def deposit(self, n):
        self.balance += n

    def withdraw(self, n):
        self.balance -= n


class TestOrderedLocking:
    def test_basic_block(self):
        a, b = Account(10), Account(0)
        with multisynch(a, b):
            a.withdraw(5)
            b.deposit(5)
        assert (a.balance, b.balance) == (5, 5)

    def test_lock_order_independent_of_argument_order(self):
        a, b = Account(), Account()
        with multisynch(b, a) as ms:
            ids = [m.monitor_id for m in ms.monitors]
        assert ids == sorted(ids)

    def test_accepts_nested_sequences(self):
        accounts = [Account() for _ in range(3)]
        with multisynch(accounts) as ms:
            assert len(ms.monitors) == 3

    def test_duplicates_deduped(self):
        a = Account()
        with multisynch(a, a, [a]) as ms:
            assert len(ms.monitors) == 1

    def test_deeply_nested_sequences_with_duplicate_aliases(self):
        a, b, c = Account(), Account(), Account()
        alias = a
        with multisynch([a, (b, [c, alias])], b) as ms:
            ids = [m.monitor_id for m in ms.monitors]
        assert len(ids) == 3
        assert ids == sorted(ids)

    def test_distinct_monitors_sharing_an_id_rejected(self):
        a, b = Account(), Account()
        b._monitor_id = a.monitor_id  # simulate an id collision
        with pytest.raises(MonitorError, match="share id"):
            multisynch(a, b)

    def test_nested_blocks_rejected(self):
        a, b = Account(), Account()
        with multisynch(a):
            with pytest.raises(NestedMultisynchError):
                with multisynch(b):
                    pass

    def test_current_multisynch_tracking(self):
        a = Account()
        assert current_multisynch() is None
        with multisynch(a) as ms:
            assert current_multisynch() is ms
        assert current_multisynch() is None

    def test_non_monitor_rejected(self):
        with pytest.raises(TypeError):
            multisynch(object())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multisynch()

    def test_bad_strategy_rejected(self):
        a = Account()
        with pytest.raises(ValueError):
            multisynch(a, strategy="??")

    def test_no_deadlock_under_random_acquisition_order(self):
        """The paper's §4.1 claim: arbitrary argument orders never deadlock."""
        accounts = [Account(100) for _ in range(6)]
        rng = random.Random(1)
        plans = [
            [tuple(rng.sample(range(6), 3)) for _ in range(30)] for _ in range(4)
        ]

        def worker(plan):
            for i, j, k in plan:
                with multisynch(accounts[i], accounts[j], accounts[k]):
                    accounts[i].withdraw(1)
                    accounts[j].deposit(1)
                    accounts[k].deposit(0)

        threads = [threading.Thread(target=worker, args=(p,), daemon=True) for p in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert sum(a.balance for a in accounts) == 600


class TestGlobalWaiting:
    @pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
    def test_or_condition(self, strategy):
        a, b = Account(0), Account(0)

        def feeder():
            time.sleep(0.05)
            b.deposit(3)

        t = threading.Thread(target=feeder, daemon=True)
        t.start()
        with multisynch(a, b, strategy=strategy) as ms:
            ms.wait_until(local(a, S.balance > 0) | local(b, S.balance > 0))
            assert a.balance > 0 or b.balance > 0
        t.join(5)

    @pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
    def test_and_condition(self, strategy):
        a, b = Account(0), Account(0)

        def feeder():
            time.sleep(0.03)
            a.deposit(1)
            time.sleep(0.03)
            b.deposit(1)

        t = threading.Thread(target=feeder, daemon=True)
        t.start()
        with multisynch(a, b, strategy=strategy) as ms:
            ms.wait_until(local(a, S.balance > 0) & local(b, S.balance > 0))
            assert a.balance > 0 and b.balance > 0
        t.join(5)

    @pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
    def test_complex_predicate(self, strategy):
        a, b = Account(0), Account(5)

        def feeder():
            time.sleep(0.05)
            a.deposit(10)

        t = threading.Thread(target=feeder, daemon=True)
        t.start()
        with multisynch(a, b, strategy=strategy) as ms:
            ms.wait_until(complex_pred([a, b], lambda: a.balance > b.balance))
            assert a.balance > b.balance
        t.join(5)

    def test_already_true_returns_immediately(self):
        a = Account(1)
        with multisynch(a) as ms:
            ms.wait_until(local(a, S.balance > 0))

    def test_predicate_must_be_covered(self):
        a, b = Account(), Account()
        with multisynch(a) as ms:
            with pytest.raises(PredicateError):
                ms.wait_until(local(b, S.balance > 0))

    def test_wait_outside_block_rejected(self):
        a = Account()
        ms = multisynch(a)
        with pytest.raises(PredicateError):
            ms.wait_until(local(a, S.balance > 0))

    def test_non_global_condition_rejected(self):
        a = Account()
        with multisynch(a) as ms:
            with pytest.raises(PredicateError):
                ms.wait_until(lambda: True)

    @pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
    def test_no_missed_signal_stress(self, strategy):
        """Many waiters on global conditions; every one must eventually wake
        (Props. 3 & 5)."""
        cells = [Account(0) for _ in range(4)]
        n_waiters = 6
        done = []

        def waiter(k):
            i, j = k % 4, (k + 1) % 4
            with multisynch(cells[i], cells[j], strategy=strategy) as ms:
                ms.wait_until(
                    local(cells[i], S.balance >= 1) & local(cells[j], S.balance >= 1)
                )
                done.append(k)

        threads = [threading.Thread(target=waiter, args=(k,), daemon=True) for k in range(n_waiters)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        for c in cells:
            c.deposit(1)
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(n_waiters))

    def test_waiting_thread_holds_no_locks(self):
        """While blocked on a global condition, other threads can use the
        involved monitors freely."""
        a, b = Account(0), Account(0)
        entered = threading.Event()
        release = threading.Event()

        def waiter():
            with multisynch(a, b) as ms:
                entered.set()
                ms.wait_until(local(a, S.balance >= 99))

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        entered.wait(5)
        time.sleep(0.05)
        # both monitors must be immediately usable
        a.deposit(1)
        b.deposit(1)
        a.deposit(98)
        t.join(10)
        assert not t.is_alive()


class TestMonitorSetFastPath:
    """MonitorSet / flatten-cache / generation-skip fast paths (perf PR)."""

    def test_monitor_set_flattens_and_orders(self):
        a, b = Account(), Account()
        ms = monitor_set(b, [a, b], a)        # nested + duplicates collapse
        assert len(ms) == 2
        assert [m.monitor_id for m in ms] == sorted(
            m.monitor_id for m in (a, b)
        )

    def test_monitor_set_synch_acquires(self):
        a, b = Account(1), Account(2)
        ms = monitor_set(a, b)
        with ms.synch() as block:
            assert current_multisynch() is block
            a.balance += 1
        assert current_multisynch() is None
        assert a.balance == 2

    def test_multisynch_accepts_monitor_set(self):
        a, b = Account(), Account()
        ms = monitor_set(a, b)
        with multisynch(ms) as block:
            # the precomputed tuple is used directly — no re-flatten
            assert block.monitors is ms.monitors

    def test_monitor_set_needs_monitors(self):
        with pytest.raises(ValueError):
            monitor_set()

    def test_flatten_cache_reuses_tuple(self):
        a, b = Account(), Account()
        first = multisynch(a, b)
        second = multisynch(a, b)
        assert first.monitors is second.monitors   # served from the cache

    def test_flatten_cache_disabled_still_correct(self):
        from repro.multi import multisync as msmod

        a, b = Account(), Account()
        msmod._cache_enabled = False
        try:
            first = multisynch(a, b)
            second = multisynch(b, a)
            assert first.monitors == second.monitors
        finally:
            msmod._cache_enabled = True


class TestGenerationSkip:
    """Section generations, and the atoms a woken global waiter re-reads."""

    def test_generation_bumps_on_monitor_exit(self):
        a = Account()
        before = a._generation
        a.deposit(1)                      # enter + exit one monitor section
        assert a._generation > before

    def test_wait_until_skips_untouched_monitor(self):
        """A waiter woken by mutations of one monitor must not re-evaluate
        atoms local to monitors whose generation did not move."""
        counts = {"b": 0}
        a, b = Account(0), Account(5)

        def pb(m):
            counts["b"] += 1
            return m.balance > 0

        started = threading.Event()
        done = threading.Event()

        def waiter():
            with multisynch(a, b, strategy="AS") as block:
                started.set()
                block.wait_until(local(a, S.balance >= 3) & local(b, pb))
            done.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        assert started.wait(5)
        time.sleep(0.05)
        for _ in range(3):
            a.deposit(1)                  # wakes the AS waiter each exit
            time.sleep(0.01)
        assert done.wait(10)
        t.join(5)
        # b never changed after the initial evaluation: exactly one call
        assert counts["b"] == 1


class XY(Monitor):
    def __init__(self):
        super().__init__()
        self.x = 0
        self.y = 0
        self.go = False

    def set_x(self, v):
        self.x = v

    def set_y(self, v):
        self.y = v

    def write_x_then_park(self):
        self.x = 1
        self.wait_until(S.go == True)  # noqa: E712 — DSL comparison

    def release(self):
        self.go = True


def _park_global_waiter(monitors, condition, strategy="CC"):
    """Start a thread parked in a global wait; return (thread, outcome,
    token).  Returns once the waiter is registered and has released every
    lock."""
    token = CancelToken()
    outcome: list = []

    def run():
        try:
            with multisynch(monitors, strategy=strategy) as ms:
                ms.wait_until(condition, cancel=token)
            outcome.append("returned")
        except BaseException as exc:  # noqa: BLE001 — reported by the test
            outcome.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    deadline = time.monotonic() + 5
    while not getattr(monitors[0], manager._TABLE_ATTR, None):
        assert time.monotonic() < deadline, "global waiter never registered"
        time.sleep(0.001)
    # wait for the release without running a section of our own
    for m in monitors:
        while not m._lock.acquire(blocking=False):
            assert time.monotonic() < deadline, "global waiter never parked"
            time.sleep(0.001)
        m._lock.release()
    return t, outcome, token


class TestExitStepsReachGlobalWaiters:
    """Every lock release that ends a section bumps the generation and runs
    the exit hooks; each test here is a wakeup that was lost without that."""

    @pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
    def test_write_then_park_signals_global_waiter(self, strategy):
        a, other = XY(), XY()
        t, outcome, token = _park_global_waiter(
            [a, other], local(a, S.x > 0) & local(other, S.x == 0), strategy)
        writer = threading.Thread(target=a.write_x_then_park, daemon=True)
        try:
            writer.start()
            t.join(2)
            assert not t.is_alive(), "a write followed by a park was lost"
            assert outcome == ["returned"]
        finally:
            token.cancel()
            a.release()
            t.join(2)
            writer.join(2)
        assert not writer.is_alive()

    @pytest.mark.parametrize("path", ["combiner", "server"])
    def test_delegated_write_signals_global_waiter(self, path):
        q = ActiveBoundedQueue(4, mode="async")
        other = ActiveBoundedQueue(4, mode="async")
        t, outcome, token = _park_global_waiter(
            [q, other], local(q, S.count > 0) & local(other, S.count == 0))
        holder = None
        try:
            if path == "server":
                # while another thread holds q, the submitter cannot
                # combine, so the server thread runs the task
                hold, held = threading.Event(), threading.Event()

                def hold_q():
                    with multisynch(q):
                        held.set()
                        hold.wait(5)

                holder = threading.Thread(target=hold_q, daemon=True)
                holder.start()
                assert held.wait(5)
                future = q.put(1)
                hold.set()
            else:
                future = q.put(1)
            future.get(timeout=2)
            t.join(2)
            assert not t.is_alive(), "a delegated write was lost"
            assert outcome == ["returned"]
        finally:
            token.cancel()
            t.join(2)
            if holder is not None:
                holder.join(2)
            q.shutdown()
            other.shutdown()


class TestSectionCounters:
    def test_block_cycle_writes_only_public_names(self, monkeypatch):
        """The section counters live off ``Monitor.__setattr__``: a block
        cycle with a wait true on entry and three nested writes passes
        only the three public names through it."""
        a, b, c = Account(), Account(), Account()
        condition = (local(a, S.balance >= 0) & local(b, S.balance >= 0)
                     & local(c, S.balance >= 0))
        names = []
        original = Monitor.__setattr__

        def spy(self, name, value):
            names.append(name)
            original(self, name, value)

        monkeypatch.setattr(Monitor, "__setattr__", spy)
        with multisynch(a, b, c) as ms:
            ms.wait_until(condition)
            a.deposit(1)
            b.deposit(1)
            c.deposit(1)
        monkeypatch.undo()
        assert names == ["balance"] * 3


class TestClauseOnlyChecks:
    """Under CC an exit checks only the waiters whose critical clause has a
    local clause on the exiting monitor (Algorithm 4's table)."""

    def test_exits_off_the_clause_cost_no_checks(self):
        a, b = XY(), XY()
        # both atoms false: Algorithm 3 picks the first, so the clause is
        # local(a, x > 0) and only exits of a check the waiter
        t, outcome, token = _park_global_waiter(
            [a, b], local(a, S.x > 0) & local(b, S.y > 0))
        try:
            before = global_condition_metrics.predicate_evals
            for i in range(100):
                b.set_y(i + 1)
            assert global_condition_metrics.predicate_evals == before
            signals = global_condition_metrics.signals
            a.set_x(1)          # makes the clause (and the predicate) true
            assert global_condition_metrics.signals == signals + 1
            t.join(5)
            assert not t.is_alive()
            assert outcome == ["returned"]
        finally:
            token.cancel()
            t.join(2)

    def test_poisoning_an_off_clause_monitor_wakes_the_waiter(self):
        a, b = XY(), XY()
        t, outcome, token = _park_global_waiter(
            [a, b], local(a, S.x > 0) & local(b, S.y > 0))
        try:
            b.mark_broken(RuntimeError("corrupt"))
            t.join(5)
            assert not t.is_alive()
            assert len(outcome) == 1
            assert isinstance(outcome[0], BrokenMonitorError)
        finally:
            token.cancel()
            t.join(2)


class TestEvaluateFirst:
    def test_guard_evaluated_once_on_entry_and_once_per_wakeup(self):
        """A global wait evaluates its predicate once before it parks and
        once after each wakeup, on the waiting thread; the exit checks of
        other threads are not counted here."""
        calls: list = []

        def positive(m):
            calls.append(threading.get_ident())
            return m.balance > 0

        a = Account(1)
        with multisynch(a) as ms:
            ms.wait_until(local(a, positive))
        assert len(calls) == 1

        calls.clear()
        b = Account(0)
        t, outcome, token = _park_global_waiter([b], local(b, positive))
        try:
            assert len(calls) == 1
            parked_on = calls[0]
            (waiter,) = getattr(b, manager._TABLE_ATTR)
            waiter.signal()             # a wakeup with the guard still false
            deadline = time.monotonic() + 5
            while not (calls.count(parked_on) == 2
                       and getattr(b, manager._TABLE_ATTR)
                       and b._lock.acquire(blocking=False)):
                assert time.monotonic() < deadline, "waiter never re-parked"
                time.sleep(0.001)
            b._lock.release()
            b.deposit(1)
            t.join(5)
            assert outcome == ["returned"]
        finally:
            token.cancel()
            t.join(2)
        assert calls.count(parked_on) == 3


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["AS", "AV", "CC"])
def test_pizza_store_stress(strategy):
    """Cooks, suppliers and parked bystanders on one store, more threads
    than cores, switching every 10 us: stock is conserved and every thread
    finishes."""
    store = MonitorStore(strategy)
    ings = store.ingredients
    recipes = make_recipes(3)
    n_suppliers, n_bystanders = 2, 4
    # more threads than cores, whatever the host
    n_cooks = max(4, (os.cpu_count() or 2) + 1 - n_suppliers - n_bystanders)
    consumed = [[0] * N_INGREDIENTS for _ in range(n_cooks)]
    supplied = [[0] * N_INGREDIENTS for _ in range(n_suppliers)]
    stop, suppliers_stop = threading.Event(), threading.Event()
    abort = CancelToken()      # unblocks a stuck cook on failure only
    tokens = [CancelToken() for _ in range(n_bystanders)]
    outcomes: list = []
    errors: list = []

    def cook(k):
        rng = random.Random(k)
        try:
            while not stop.is_set():
                recipe = recipes[rng.randrange(len(recipes))]
                store.cook_until(recipe, cancel=abort)
                for i, n in recipe.items():
                    consumed[k][i] += n
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def supplier(k):
        i = k
        while not suppliers_stop.is_set():
            ing = ings[i % N_INGREDIENTS]
            with multisynch(ing):
                add = min(RESTOCK, CAPACITY - ing.quantity)
                if add:
                    ing.produce(add)
            supplied[k][i % N_INGREDIENTS] += add
            if not add:
                time.sleep(0.0005)
            i += 1

    def bystander(a, b, token):
        never = (local(a, S.quantity > CAPACITY)
                 & local(b, S.quantity > CAPACITY))
        try:
            with multisynch(a, b, strategy=strategy) as ms:
                ms.wait_until(never, cancel=token)
            outcomes.append("returned")
        except WaitCancelledError:
            outcomes.append("cancelled")

    rng = random.Random(5)
    bystanders = [
        threading.Thread(target=bystander,
                         args=(*(ings[i] for i in rng.sample(
                             range(N_INGREDIENTS), 2)), token), daemon=True)
        for token in tokens]
    cooks = [threading.Thread(target=cook, args=(k,), daemon=True)
             for k in range(n_cooks)]
    suppliers = [threading.Thread(target=supplier, args=(k,), daemon=True)
                 for k in range(n_suppliers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in bystanders + cooks + suppliers:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in cooks:
            t.join(10)
        suppliers_stop.set()
        for t in suppliers:
            t.join(10)
        for token in tokens:
            token.cancel()
        for t in bystanders:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        suppliers_stop.set()
        abort.cancel()
        for token in tokens:
            token.cancel()
    alive = [t.name for t in bystanders + cooks + suppliers if t.is_alive()]
    assert alive == []
    assert errors == []
    assert outcomes == ["cancelled"] * n_bystanders
    for i, ing in enumerate(ings):
        want = (sum(s[i] for s in supplied) - sum(c[i] for c in consumed))
        assert ing.quantity == want
        assert 0 <= want <= CAPACITY
