"""Unit tests for the instrumentation substrate."""

import threading
import time

from repro.core.expressions import S
from repro.core.monitor import Monitor
from repro.core.predicates import Predicate
from repro.core.waiter import Waiter
from repro.preprocess import monitor_compile
from repro.runtime.config import get_config
from repro.runtime.metrics import Metrics, PhaseTimer, global_metrics


class TestCounters:
    def test_bump_and_add(self):
        m = Metrics()
        m.bump("signals")
        m.add("signals", 2)
        assert m.signals == 3

    def test_snapshot_is_a_copy(self):
        m = Metrics()
        m.bump("waits")
        snap = m.snapshot()
        m.bump("waits")
        assert snap["waits"] == 1

    def test_reset_zeroes_everything(self):
        m = Metrics()
        m.bump("signals")
        m.add_time("tag_time", 1.5)
        m.reset()
        snap = m.snapshot()
        assert all(v == 0 for v in snap.values())

    def test_merge_from(self):
        a, b = Metrics(), Metrics()
        a.bump("signals", 2)
        b.bump("signals", 3)
        b.add_time("relay_time", 0.5)
        a.merge_from(b)
        assert a.signals == 5
        assert a.relay_time == 0.5

    def test_concurrent_add_is_safe(self):
        m = Metrics()

        def bump_many():
            for _ in range(1000):
                m.add("wakeups")

        threads = [threading.Thread(target=bump_many, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert m.wakeups == 4000


class TestPhaseTimer:
    def test_disabled_timer_is_noop(self):
        m = Metrics()
        with PhaseTimer(m, "lock_time", enabled=False):
            time.sleep(0.01)
        assert m.lock_time == 0.0

    def test_enabled_timer_accumulates(self):
        m = Metrics()
        with PhaseTimer(m, "lock_time", enabled=True):
            time.sleep(0.01)
        with PhaseTimer(m, "lock_time", enabled=True):
            time.sleep(0.01)
        assert m.lock_time >= 0.015

    def test_global_metrics_exists(self):
        assert isinstance(global_metrics, Metrics)

    def test_planned_exit_is_timed_on_the_skip_path(self):
        """Table 2.1 must time the default wake path: with phase timing
        on, a ``@monitor_compile`` method's exit still skips the tag probe
        and its relay search lands in ``relay_time``."""
        cfg = get_config()
        prior = cfg.phase_timing
        cfg.phase_timing = True
        try:
            flag = _Flag()
            mgr = flag._cond_mgr
            m = flag.metrics
            with flag._lock:
                w = Waiter(Predicate(S.up != 0), flag._lock)
                mgr._register(w)
                timed = m.relay_time
                flag.raise_up()
                assert w.signaled
                mgr._deregister(w)
            assert m.relay_time > timed
        finally:
            cfg.phase_timing = prior


@monitor_compile
class _Flag(Monitor):
    def __init__(self):
        super().__init__()
        self.up = 0

    def raise_up(self):
        self.up = 1
