"""AOT signal placement: static plans, direct signaling, and the
differential property suite.

Covers the subsystem described in docs/performance.md ("Ahead-of-time
signal placement"): per-method write-set closure computed at decoration
time, the direct-signal exit that skips the relay's bucket search, the
dirty-subset soundness guard, and — the load-bearing part — a hypothesis
differential test checking that direct signaling wakes exactly the waiters
the dependency-tracked relay (and the exhaustive scan) would, over
randomized schedules mixing parks, writes, plan-mismatched bulk writes,
abandonment, and poisoned (raising) predicates.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aot import MethodSignalPlan
from repro.core.expressions import S
from repro.core.monitor import Monitor
from repro.core.predicates import Predicate
from repro.core.waiter import Waiter
from repro.preprocess import monitor_compile
from repro.runtime.config import get_config

NV = 4  #: shared variables v0..v3 in the differential board


@pytest.fixture(autouse=True)
def _restore_config():
    cfg = get_config()
    prior_track = cfg.track_dependencies
    yield
    cfg.track_dependencies = prior_track


@monitor_compile
class DirectBoard(Monitor):
    """One public writer per shared variable, so each method's AOT plan has
    a singleton write set; ``peek`` is a pure reader with an empty plan."""

    def __init__(self):
        super().__init__()
        self.v0 = 0
        self.v1 = 0
        self.v2 = 0
        self.v3 = 0

    def w0(self, val):
        self.v0 = val

    def w1(self, val):
        self.v1 = val

    def w2(self, val):
        self.v2 = val

    def w3(self, val):
        self.v3 = val

    def peek(self):
        return self.v0


PLANS = DirectBoard._repro_aot_plans


# ------------------------------------------------------------------- plans


def test_plans_cover_every_public_method():
    assert set(PLANS) >= {"w0", "w1", "w2", "w3", "peek"}
    for i in range(NV):
        assert PLANS[f"w{i}"].write_set == frozenset({f"v{i}"})
    assert PLANS["peek"].write_set == frozenset()


def test_public_methods_are_direct_wrapped():
    for i in range(NV):
        method = getattr(DirectBoard, f"w{i}")
        assert getattr(method, "_repro_aot_plan", None) is PLANS[f"w{i}"]


# ------------------------------------------------------- direct-signal unit


def _park(mgr, lock, pred):
    w = Waiter(pred, lock)
    mgr._register(w)
    return w


def _fresh_board():
    """Construct a board and flush the ``__init__`` writes so metric deltas
    measured afterwards reflect only the schedule under test."""
    b = DirectBoard()
    with b._lock:
        b._cond_mgr.relay_signal()
    return b


def test_direct_signal_skips_the_bucket_scan():
    get_config().track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    with b._lock:
        w = _park(mgr, b._lock, Predicate(S.v0 != 0))
        mgr.direct_signal(PLANS["peek"])   # fresh park evaluated (false)
        scanned = mgr.metrics.relay_buckets_scanned
        skipped = mgr.metrics.relay_skipped_aot
        b.v0 = 1
        assert mgr.direct_signal(PLANS["w0"]) is w
        assert mgr.metrics.relay_buckets_scanned == scanned
        assert mgr.metrics.relay_skipped_aot > skipped
        assert mgr.metrics.relay_aot_fallbacks == 0
        mgr._deregister(w)


def test_mismatched_dirty_set_falls_back_to_relay():
    """Writes outside the plan (monkeypatching, dynamic attributes) trip
    the subset guard: the exit degrades to a generic relay and still wakes
    the right waiter."""
    get_config().track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    with b._lock:
        w = _park(mgr, b._lock, Predicate(S.v1 != 0))
        mgr.direct_signal(PLANS["peek"])
        b.v0 = 1
        b.v1 = 1   # dirty = {v0, v1} is not a subset of w0's plan
        fallbacks = mgr.metrics.relay_aot_fallbacks
        assert mgr.direct_signal(PLANS["w0"]) is w
        assert mgr.metrics.relay_aot_fallbacks == fallbacks + 1
        mgr._deregister(w)


def test_direct_signal_still_advances_generations():
    """Direct exits must keep ``var_gens`` moving: stamp memos and the
    obligation tracker depend on generations, not on which search ran."""
    get_config().track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    with b._lock:
        g0 = mgr.var_gens.get("v0", 0)
        b.v0 = 5
        mgr.direct_signal(PLANS["w0"])
        assert mgr.var_gens["v0"] == g0 + 1
        assert not b._dirty


# ------------------------------------------------ differential (hypothesis)


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
    # waiter and route the signal to it (it owns the failure)
    return Predicate(lambda m: 1 // getattr(m, f"v{i}") >= 0)


def _oracle_true(waiter, monitor) -> bool:
    try:
        return bool(waiter.eval_fn(monitor))
    except BaseException:
        return True  # a raising predicate absorbs the signal (poison path)


def _drive(ops, lane: str, rng=None) -> list[frozenset]:
    """Apply one randomized schedule through one signaling lane; return the
    set of waiters woken after each step.

    Lanes: ``direct`` exits through ``direct_signal`` with the writing
    method's AOT plan (the bulk-write op deliberately presents a mismatched
    plan to exercise the fallback guard); ``tracked`` and ``exhaustive``
    exit through the runtime relay with filtering on/off; ``mixed`` flips
    ``rng`` per exit between passing the plan and passing None, so the
    pending state a planned exit leaves is consumed by a probing one and
    vice versa.  After every drain the exhaustive oracle checks no live
    waiter holds a true predicate.
    """
    cfg = get_config()
    cfg.track_dependencies = lane != "exhaustive"
    m = DirectBoard()
    mgr = m._cond_mgr

    def drain_step(plan):
        if lane == "direct":
            return mgr.direct_signal(plan)
        if lane == "mixed":
            return mgr.relay_signal(plan if rng.random() < 0.5 else None)
        return mgr.relay_signal()

    live: dict[int, Waiter] = {}
    log: list[frozenset] = []
    next_wid = 0
    with m._lock:
        mgr.relay_signal()   # flush construction writes
        for op in ops:
            plan = PLANS["peek"]
            if op[0] == "park":
                live[next_wid] = _park(mgr, m._lock, _build_pred(op[1]))
                next_wid += 1
            elif op[0] == "write":
                setattr(m, f"v{op[1]}", op[2])
                plan = PLANS[f"w{op[1]}"]
            elif op[0] == "write2":
                # two variables dirtied, one plan: the direct lane must
                # detect the mismatch and fall back without losing a wake
                setattr(m, f"v{op[1]}", op[3])
                setattr(m, f"v{op[2]}", op[3])
                plan = PLANS[f"w{op[1]}"]
            elif op[0] == "abandon" and live:
                # timeout/cancel shape: deregister, then re-signal (the
                # drain below) so an absorbed baton is handed on
                wid = sorted(live)[op[1] % len(live)]
                mgr._deregister(live.pop(wid))
            woken = set()
            for _ in range(len(live) + len(ops) + 2):
                w = drain_step(plan)
                if w is None:
                    break
                wid = next(k for k, v in live.items() if v is w)
                woken.add(wid)
                mgr._deregister(live.pop(wid))
                plan = PLANS["peek"]   # baton re-relay wrote nothing new
            else:  # pragma: no cover - signal livelock
                raise AssertionError("signaling never quiesced")
            for wid, w in live.items():
                assert not _oracle_true(w, m), (
                    f"waiter {wid} satisfied but not signaled "
                    f"(lane={lane}, step {op})"
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
    st.tuples(st.just("write2"), st.integers(0, NV - 1),
              st.integers(0, NV - 1), st.integers(0, 2)),
    st.tuples(st.just("park"), _pred_spec),
    st.tuples(st.just("abandon"), st.integers(0, 7)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=30), st.randoms(use_true_random=False))
def test_direct_signal_matches_relay_search(ops, rng):
    """Direct AOT exits wake exactly the waiters the dependency-tracked
    relay and the exhaustive scan wake, step for step — also when planned
    and probing exits interleave in one schedule."""
    direct = _drive(ops, "direct")
    assert direct == _drive(ops, "tracked")
    assert direct == _drive(ops, "exhaustive")
    assert direct == _drive(ops, "mixed", rng)


def test_direct_lane_actually_skips_relays():
    """Sanity for the differential harness itself: the direct lane takes
    the skip path (not a permanent fallback)."""
    cfg = get_config()
    cfg.track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    with b._lock:
        w = _park(mgr, b._lock, Predicate(S.v2 != 0))
        mgr.direct_signal(PLANS["peek"])
        b.v2 = 1
        assert mgr.direct_signal(PLANS["w2"]) is w
        mgr._deregister(w)
    assert mgr.metrics.relay_skipped_aot >= 2


# ------------------------------------------------------------ real threads


def test_threaded_direct_wakes_match_expected():
    get_config().track_dependencies = True

    @monitor_compile
    class Flags(Monitor):
        def __init__(self):
            super().__init__()
            self.flag0 = 0
            self.flag1 = 0

        def raise0(self):
            self.flag0 = 1

        def raise1(self):
            self.flag1 = 1

        def await_flag(self, i):
            self.wait_until(getattr(S, f"flag{i}") != 0)

    f = Flags()
    done = []
    threads = [
        threading.Thread(
            target=lambda i=i: (f.await_flag(i % 2), done.append(i)))
        for i in range(6)
    ]
    for t in threads:
        t.start()
    deadline_join = 10.0
    f.raise0()
    f.raise1()
    for t in threads:
        t.join(timeout=deadline_join)
    assert sorted(done) == list(range(6))
    assert f.metrics.relay_skipped_aot > 0


def test_plan_is_frozen_and_hashable():
    plan = MethodSignalPlan(method="m", write_set=frozenset({"a"}))
    assert plan == MethodSignalPlan(method="m", write_set=frozenset({"a"}))
    with pytest.raises(AttributeError):
        plan.write_set = frozenset()
