"""Section-exit signaling on a compiled monitor: the relay's probe skip
and the differential property suite.

Covers docs/performance.md ("What a section exit skips"): every exit runs
``relay_signal()`` with no argument, and it skips the tag-index probe
while no tagged waiter is parked.  The load-bearing part is a hypothesis
differential test checking that the dependency-tracked relay wakes exactly
the waiters the exhaustive scan wakes, over randomized schedules mixing
parks, writes, bulk writes, abandonment, and poisoned (raising)
predicates.
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
from repro.core.tag_index import TagIndex
from repro.core.waiter import Waiter
from repro.preprocess import monitor_compile, waituntil
from repro.resilience import ThreadKilledFault, chaos
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
    """One public writer per shared variable; ``peek`` is a pure reader."""

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


# ------------------------------------------------------------ exit skips


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


def test_direct_signal_still_advances_generations():
    """Exits must keep ``var_gens`` moving: stamp memos and the
    obligation tracker depend on generations, not on which search ran."""
    get_config().track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    with b._lock:
        g0 = mgr.var_gens.get("v0", 0)
        b.v0 = 5
        mgr.relay_signal()
        assert mgr.var_gens["v0"] == g0 + 1
        assert not b._dirty


def test_killed_relay_leaves_its_marked_reader_queued():
    """A thread killed at the relay's chaos site must not strand the
    reader its exit wrote for: a later exit that writes the same variable
    still evaluates and signals it (Prop. 2)."""
    get_config().track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    with b._lock:
        w = _park(mgr, b._lock, Predicate(S.v0 != 0))
        assert mgr.relay_signal() is None   # fresh park evaluated (false)
        chaos.configure(kill={"relay": 1})
        chaos.enable()
        try:
            b.v0 = 1
            with pytest.raises(ThreadKilledFault):
                mgr.relay_signal()
        finally:
            chaos.reset()
        b.v0 = 2
        assert mgr.relay_signal() is w
        mgr._deregister(w)


def test_probe_runs_only_while_a_tagged_waiter_is_parked(monkeypatch):
    get_config().track_dependencies = True
    b = _fresh_board()
    mgr = b._cond_mgr
    m = mgr.metrics
    probes = []
    search = TagIndex.search

    def counted(index, *args):
        if index is mgr.index:
            probes.append(args)
        return search(index, *args)

    monkeypatch.setattr(TagIndex, "search", counted)
    with b._lock:
        untagged = _park(mgr, b._lock, Predicate(S.v1 != 0))
        b.v1 = 0
        assert mgr.relay_signal() is None
        assert probes == []
        w = _park(mgr, b._lock, Predicate(S.v0 > 5))
        tags = m.tag_checks
        b.v0 = 1
        assert mgr.relay_signal() is None
        assert len(probes) == 1 and m.tag_checks > tags
        mgr._deregister(w)
        mgr._deregister(w)   # a second unlink (the async reap race) is a no-op
        assert mgr._tagged == 0
        b.v0 = 9
        assert mgr.relay_signal() is None
        assert len(probes) == 1
        mgr._deregister(untagged)


@monitor_compile
class ReadersWriters(Monitor):
    def __init__(self):
        super().__init__()
        self.readers = 0
        self.writer = 0

    def start_read(self):
        waituntil(self.writer == 0)
        self.readers += 1

    def end_read(self):
        self.readers -= 1


def test_parked_writers_cost_no_evaluations_on_reader_exits():
    """Writers parked on ``readers == 0 and writer == 0`` carry an
    equivalence tag: a reader's exits probe its table and evaluate none of
    them.  The one evaluation per cycle left is start_read's own wait."""
    get_config().track_dependencies = True
    rw = ReadersWriters()
    rw.start_read()   # pin readers >= 1 so no writer can proceed
    mgr = rw._cond_mgr
    with rw._lock:
        writers = [
            _park(mgr, rw._lock,
                  Predicate((S.readers == 0) & (S.writer == 0)))
            for _ in range(8)
        ]
        mgr.relay_signal()
    evals = rw.metrics.predicate_evals
    for _ in range(16):
        rw.start_read()
        rw.end_read()
    assert rw.metrics.predicate_evals == evals + 16
    with rw._lock:
        for w in writers:
            mgr._deregister(w)


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


def _drive(ops, lane: str) -> list[frozenset]:
    """Apply one randomized schedule through one signaling lane; return the
    set of waiters woken after each step.

    Lanes: ``tracked`` and ``exhaustive`` exit through the runtime relay
    with filtering on/off.  After every drain the exhaustive oracle checks
    no live waiter holds a true predicate.
    """
    cfg = get_config()
    cfg.track_dependencies = lane != "exhaustive"
    m = DirectBoard()
    mgr = m._cond_mgr

    live: dict[int, Waiter] = {}
    log: list[frozenset] = []
    next_wid = 0
    with m._lock:
        mgr.relay_signal()   # flush construction writes
        for op in ops:
            if op[0] == "park":
                live[next_wid] = _park(mgr, m._lock, _build_pred(op[1]))
                next_wid += 1
            elif op[0] == "write":
                setattr(m, f"v{op[1]}", op[2])
            elif op[0] == "write2":
                # two variables dirtied by one exit
                setattr(m, f"v{op[1]}", op[3])
                setattr(m, f"v{op[2]}", op[3])
            elif op[0] == "abandon" and live:
                # timeout/cancel shape: deregister, then re-signal (the
                # drain below) so an absorbed baton is handed on
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
@given(st.lists(_op, min_size=1, max_size=30))
def test_direct_signal_matches_relay_search(ops):
    """The dependency-tracked relay, skips included, wakes exactly the
    waiters the exhaustive scan wakes, step for step."""
    assert _drive(ops, "tracked") == _drive(ops, "exhaustive")


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
    assert f.metrics.tag_checks == 0


def test_plan_is_frozen_and_hashable():
    plan = MethodSignalPlan(method="m", write_set=frozenset({"a"}))
    assert plan == MethodSignalPlan(method="m", write_set=frozenset({"a"}))
    with pytest.raises(AttributeError):
        plan.write_set = frozenset()
