"""Unit tests for light futures, monitor tasks, and execution policies."""

import threading

import pytest

from repro.active.futures import CompletedFuture, LightFuture
from repro.active.policies import Policy, select_task
from repro.active.tasks import MonitorTask
from repro.core.predicates import Predicate
from repro.runtime.errors import TaskError


class TestLightFuture:
    def test_result_roundtrip(self):
        f = LightFuture()
        f.set_result(42)
        assert f.done()
        assert f.get() == 42

    def test_exception_wrapped_in_task_error(self):
        f = LightFuture()
        f.set_exception(ValueError("boom"))
        with pytest.raises(TaskError) as excinfo:
            f.get()
        assert isinstance(excinfo.value.cause, ValueError)
        assert isinstance(f.exception(), ValueError)

    def test_get_timeout(self):
        f = LightFuture()
        with pytest.raises(TimeoutError):
            f.get(timeout=0.05)

    def test_blocking_get_wakes_on_result(self):
        f = LightFuture()
        results = []
        t = threading.Thread(target=lambda: results.append(f.get()), daemon=True)
        t.start()
        f.set_result("done")
        t.join(5)
        assert results == ["done"]

    def test_completed_future(self):
        assert CompletedFuture(7).get() == 7
        failed = CompletedFuture(error=RuntimeError("x"))
        with pytest.raises(TaskError):
            failed.get()


class FakeMonitor:
    def __init__(self, ready=True):
        self.ready = ready


class TestMonitorTask:
    def test_executable_without_precondition(self):
        task = MonitorTask(lambda: 1, (), {})
        assert task.executable(FakeMonitor())

    def test_executable_follows_precondition(self):
        task = MonitorTask(lambda: 1, (), {},
                           precondition=Predicate(lambda m: m.ready))
        assert task.executable(FakeMonitor(ready=True))
        assert not task.executable(FakeMonitor(ready=False))

    def test_plain_guard_gets_the_task_arguments(self):
        seen = []

        def guard(monitor, item, *, room):
            seen.append((item, room))
            return monitor.ready and item < room

        task = MonitorTask(lambda item, room: item, (3,), {"room": 5},
                           precondition=guard)
        assert task.executable(FakeMonitor(ready=True))
        assert not task.executable(FakeMonitor(ready=False))
        assert seen == [(3, 5), (3, 5)]

    def test_raising_guard_fails_the_task_instead_of_the_caller(self):
        ran = []
        state = {"boom": True}

        def guard(monitor):
            if state["boom"]:
                raise ZeroDivisionError("guard")
            return False

        task = MonitorTask(lambda: ran.append(1), (), {}, precondition=guard)
        assert task.executable(FakeMonitor())      # executable, to fail
        state["boom"] = False
        assert not task.executable(FakeMonitor())  # the latest verdict wins
        state["boom"] = True
        assert task.executable(FakeMonitor())
        result, error = task.execute(FakeMonitor())
        assert result is None and isinstance(error, ZeroDivisionError)
        assert ran == []                           # the body never ran
        assert task.guard_error is None
        task.executable(FakeMonitor())
        task.recycle()
        assert task.precondition is None and task.guard_error is None

    def test_run_sets_result(self):
        task = MonitorTask(lambda x: x * 2, (21,), {})
        task.run(None)
        assert task.future.get() == 42

    def test_run_captures_exception(self):
        def boom():
            raise KeyError("nope")

        task = MonitorTask(boom, (), {})
        task.run(None)
        assert isinstance(task.future.exception(), KeyError)

    def test_sequence_numbers_increase(self):
        a = MonitorTask(lambda: 1, (), {})
        b = MonitorTask(lambda: 1, (), {})
        assert b.seq > a.seq


def _task(ready: bool, priority: int = 0):
    return MonitorTask(
        lambda: None, (), {},
        precondition=Predicate(lambda m, ready=ready: ready),
        priority=priority,
    )


class TestPolicies:
    def test_safe_picks_first_executable(self):
        tasks = [_task(False), _task(True), _task(True)]
        assert select_task(Policy.SAFE, tasks, None) is tasks[1]

    def test_fairness_picks_earliest_submitted(self):
        late = _task(True)
        early = _task(True)
        # force the ordering: 'early' has a lower sequence number? build in
        # submission order instead:
        t1, t2, t3 = _task(True), _task(False), _task(True)
        assert select_task(Policy.FAIRNESS, [t3, t1, t2], None) is t1

    def test_priority_picks_highest(self):
        lo, hi = _task(True, priority=1), _task(True, priority=9)
        assert select_task(Policy.PRIORITY, [lo, hi], None) is hi

    def test_priority_ties_break_by_submission(self):
        a, b = _task(True, priority=5), _task(True, priority=5)
        assert select_task(Policy.PRIORITY, [b, a], None) is a

    def test_no_executable_returns_none(self):
        tasks = [_task(False), _task(False)]
        for policy in Policy:
            assert select_task(policy, tasks, None) is None


class TestLazyConditionVariable:
    """LightFuture records no waker until a thread actually blocks in get."""

    def test_fast_path_never_allocates_cv(self):
        f = LightFuture()
        assert f._getters is None
        f.set_result(1)
        assert f.get() == 1
        assert f._getters is None

    def test_blocking_get_installs_cv_and_wakes(self):
        import time

        f = LightFuture()
        got = []
        t = threading.Thread(target=lambda: got.append(f.get(5)), daemon=True)
        t.start()
        deadline = time.monotonic() + 5
        while f._getters is None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert f._getters is not None  # the getter parked and recorded its Parker
        f.set_result(42)
        t.join(5)
        assert got == [42]

    def test_concurrent_getters_all_wake(self):
        import time

        f = LightFuture()
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(f.get(5)),
                             daemon=True)
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        time.sleep(0.02)
        f.set_result(7)
        for t in threads:
            t.join(5)
        assert results == [7] * 8


class TestTaskPooling:
    """MonitorTask shells are pooled; acquire re-arms with a fresh future."""

    def test_recycle_then_reacquire_reuses_shell(self):
        from repro.active import tasks as tasks_mod

        tasks_mod._pool.clear()
        first = MonitorTask.acquire(lambda: 1, (), {})
        old_future = first.future
        first.recycle()
        second = MonitorTask.acquire(lambda: 2, (), {}, priority=3,
                                     name="renamed")
        assert second is first                  # same shell, re-armed
        assert second.future is not old_future  # fresh future
        assert second.priority == 3 and second.name == "renamed"
        assert second.execute(FakeMonitor()) == (2, None)
        second.recycle()

    def test_recycle_clears_references(self):
        from repro.active import tasks as tasks_mod

        tasks_mod._pool.clear()
        task = MonitorTask.acquire(lambda: "payload", (), {})
        task.recycle()
        assert task.body is None and task.future is None
        assert task.precondition is None

    def test_pool_is_bounded(self):
        from repro.active import tasks as tasks_mod

        tasks_mod._pool.clear()
        shells = [MonitorTask(lambda: None, (), {})
                  for _ in range(tasks_mod._POOL_CAP + 50)]
        for shell in shells:
            shell.recycle()
        assert len(tasks_mod._pool) <= tasks_mod._POOL_CAP

    def test_execute_returns_result_and_error(self):
        ok = MonitorTask.acquire(lambda: 5, (), {})
        assert ok.execute(FakeMonitor()) == (5, None)

        def boom():
            raise ValueError("nope")

        bad = MonitorTask.acquire(boom, (), {})
        result, error = bad.execute(FakeMonitor())
        assert result is None and isinstance(error, ValueError)
        # execute must not touch the future — completion is batched
        assert not bad.future.done()
