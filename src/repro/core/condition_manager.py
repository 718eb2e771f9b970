"""The condition manager: waiter registry + relay signaling.

This is the component the paper's §1.2 describes as "responsible for
determining which thread to signal by analyzing the predicates and the state
of the shared object".  Three signaling disciplines are implemented so the
benchmarks can compare them exactly as Chapter 2's evaluation does:

* ``autosynch`` — tag-accelerated relay signaling (the full system);
* ``autosynch_t`` — relay signaling with a linear scan over waiters (the
  paper's *AutoSynch-T*: tags disabled);
* ``baseline`` — broadcast on every exit: every parked thread is
  unparked and re-checks its own predicate (the paper's *Baseline*).

All entry points require the monitor lock to be held by the caller.

One park primitive (docs/algorithms.md §2): a parked thread sleeps on its
own :class:`~repro.runtime.parking.Parker`.  A park releases the monitor
lock, parks until its waiter is signaled or its deadline or cancel token
fires, then re-acquires; a signal sets the waiter's flag and unparks its
thread, under the lock.  A return from ``park()`` is never a signal, so a
stale permit costs one loop trip, and a cancel callback is the bare
``unpark``, which takes no lock.  Baseline threads park the same way,
on waiters kept out of ``waiters``, so no search picks one, but counted
by the diagnostic views.

Hot-path invariants (see docs/performance.md): the already-true
``wait_until`` fast path and a no-candidate relay allocate nothing — config
reads go through :func:`config_snapshot`, predicates evaluate through
compiled closures (:mod:`repro.core.compiled`), phase timers exist only
when ``phase_timing`` is on, non-event counters bump by direct attribute
increment, the tag-search callback is pre-bound, and Waiter objects
recycle through an inactive pool.

Dependency-tracked relay (docs/performance.md): untagged (None-tag) waiters
live outside the TagIndex.  Waiters with a known predicate read set are
bucketed per shared-variable name; a monitor exit flushes its dirty set
here (:meth:`relay_signal`), which queues exactly the waiters whose
predicates could have flipped.  A relay search evaluates the queued
waiters (plus opaque-read-set ones, every time), so the untagged search
is O(affected), not O(waiters).  The tag search evaluates each
canonical shared expression directly through the evaluator its table or
heap holds (:mod:`repro.core.tag_index`): one evaluation costs less than
any bookkeeping that could skip it.

One wake path: :meth:`relay_signal` is the only section-exit routine, and
every exit runs it with no argument.  The tag-index probe is skipped while
no parked waiter holds a tag record (an empty index can find no one).
The reap and the dirty-set flush run on every exit; the search, and with
it poison routing and async delivery, waits while a baton is in flight.

One baton in flight (docs/algorithms.md §2): a threaded waiter the relay
signaled holds the monitor's baton until its thread resumes holding the
lock, or until it deregisters.  While the manager's baton count is
nonzero a section exit skips the search: the holder is already the
active thread relay invariance (Prop. 2) asks for, and it runs the relay
itself when it exits, re-parks or abandons.

Registration plans: what a park derives from its predicate alone — the
tags (Algorithm 1) and the evaluator of each tagged expression key — is
built once per :class:`~repro.core.predicates.Predicate`
(:func:`registration_plan`, :func:`tag_evaler`) and kept on it, so a
reused predicate (a closed ``waituntil`` site) parks by appending and
filing its tags.  The manager keeps no table keyed by expression key
and evaluates no key itself: a tag filed into a table or heap with no
evaluator hands it the one :func:`tag_evaler` returns, and the holder
drops it with its last waiter.

Free-threading contract (no-GIL audit, docs/performance.md): every mutable
structure here — ``var_gens`` bumps, ``_dirty`` flushes, dependency-bucket
marking, the ``_eligible`` queue, waiter (de)registration, the baton
count — is only touched while the caller holds the monitor lock, so none
of it depends on GIL atomicity.  The deliberate lock-free reads are the
diagnostic snapshots (:meth:`dump_waiters`, :meth:`obligation_view`),
which are racy by design and tolerate skew.

Waiterless (async) waiters: the asyncio frontend (:mod:`repro.aio`)
registers :class:`~repro.core.waiter.AsyncWaiter` records through
:meth:`register_async` — same buckets, same tag records, so relay
invariance (Prop. 2) needs no new argument.  The two
asymmetries are on the wake and abandon sides: a signaler that finds a
satisfied async waiter *delivers* it (claim, deregister, run the loop
callback) and then **keeps searching** — the async waiter has no thread
that would re-enter the monitor and pass the baton on, so the signaler
relays on its behalf; and an abandoning async waiter (timeout/cancel on
the event-loop thread) never takes the monitor lock — it claims the
record through the flag's micro-lock (:meth:`abandon_async`) and leaves
the unlink to the next lock holder (:meth:`_reap_async`).  The claim flag
makes signal-vs-abandon a race with exactly one winner, so no signal is
lost and none is delivered twice.  Multisynch global waits register the
same kind of record (:meth:`register_record`), delivered in every mode.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, NamedTuple, Optional

from repro.core import compiled
from repro.core.predicates import Comparison, Predicate
from repro.core.tag_index import TagIndex
from repro.core.tags import TagKind, tag_predicate
from repro.core.waiter import Waiter
from repro.resilience import chaos as _chaos
from repro.runtime.config import config_snapshot
from repro.runtime.errors import WaitCancelledError, WaitTimeoutError
from repro.runtime.metrics import Metrics, PhaseTimer

if False:  # pragma: no cover — annotation-only import
    from repro.resilience.cancellation import CancelToken

SIGNALING_MODES = ("autosynch", "autosynch_t", "baseline")

#: §2.5.1 keeps at most 2n inactive predicate records for n live threads:
#: the inactive Waiter pool is capped at this multiple of the live waiters
_POOL_FACTOR = 2


class RegistrationPlan(NamedTuple):
    """What registering a waiter derives from its predicate alone."""

    #: the tags of the tagged conjunctions (Algorithm 1), in order
    tags: tuple
    #: whether some conjunction is untagged
    untagged: bool
    #: each tag's key evaluator, or None until a registration first needs
    #: one
    evalers: Optional[tuple] = None
    #: the ``compile_predicates`` setting ``evalers`` were built under
    compiled: bool = False


def registration_plan(predicate: Predicate) -> RegistrationPlan:
    """``predicate``'s registration plan, built at its first park.

    The plan depends on the predicate alone, so every monitor shares it.
    It is never mutated: :func:`tag_evaler` publishes the key evaluators
    by storing a new plan, and two threads that build it at once store
    equal plans.
    """
    plan = predicate._plan
    if plan is not None:
        return plan
    tags = []
    untagged = False
    for tag in tag_predicate(predicate.conjunctions):
        if tag.kind is TagKind.NONE:
            untagged = True
        else:
            tags.append(tag)
    plan = predicate._plan = RegistrationPlan(tuple(tags), untagged)
    return plan


def tag_evaler(predicate: Predicate, i: int) -> Callable[[Any], Any]:
    """The evaluator of the shared expression of ``predicate``'s ``i``-th
    tag: compiled, or the reference interpreter
    (:func:`~repro.core.compiled.interpret_expr_key`) where compilation
    declines or ``compile_predicates`` is off.

    The first call builds an evaluator for every tagged key of the
    predicate, resolving terms against the predicate's own expression
    nodes, and keeps them in its plan until the setting changes.  A
    registration asks only when the tag's table or heap has no evaluator,
    so a predicate built per call compiles nothing while a live holder
    covers its key.
    """
    plan = predicate._plan
    compile_on = config_snapshot().compile_predicates
    if plan.evalers is None or plan.compiled is not compile_on:
        nodes = {}
        for conj in predicate.conjunctions:
            for atom in conj:
                if isinstance(atom, Comparison):
                    for node in atom.shared_subexpressions():
                        try:
                            nodes[node.key()] = node
                        except TypeError:
                            pass  # an unhashable constant key: never looked up
        resolve = nodes.get
        by_key = {}
        for tag in plan.tags:
            key = tag.expr_key
            if key not in by_key:
                fn = (compiled.compile_expr_key(key, resolve)
                      if compile_on else None)
                if fn is None:
                    fn = compiled.interpret_expr_key(key, resolve)
                by_key[key] = fn
        plan = predicate._plan = plan._replace(
            evalers=tuple(by_key[tag.expr_key] for tag in plan.tags),
            compiled=compile_on)
    return plan.evalers[i]


class ConditionManager:
    """Per-monitor waiter registry implementing the relay signaling rule."""

    def __init__(self, monitor: Any, lock: threading.RLock, metrics: Metrics,
                 mode: str = "autosynch"):
        if mode not in SIGNALING_MODES:
            raise ValueError(f"unknown signaling mode {mode!r}")
        self.monitor = monitor
        self.lock = lock
        self.metrics = metrics
        self.mode = mode
        #: the monitor's section counters, kept here rather than on the
        #: monitor so that writing them never runs ``Monitor.__setattr__``'s
        #: write tracking.  ``depth`` is the owning thread's reentrancy
        #: depth; ``generation`` is bumped by every lock release that ends a
        #: section (``Monitor._end_section``), and the Inspector's stall
        #: check reads it.  Both are written only with the monitor lock
        #: held.
        self.depth = 0
        self.generation = 0
        self.waiters: list[Waiter] = []     # insertion order (autosynch_t scan)
        self.index = TagIndex()             # tag structures (autosynch)
        #: baseline mode: the waiters of the threads inside a wait, each
        #: signaled by every broadcast that finds it parked
        self._parked: list[Waiter] = []
        #: §2.5.1: recycled Waiter objects — when a waiter leaves it joins
        #: an inactive pool for reuse, bounded by ``_POOL_FACTOR × live
        #: waiters`` (the paper's 2n cap)
        self._waiter_pool: list[Waiter] = []
        #: abandoned async waiters awaiting deregistration.  Appended from
        #: the event-loop/canceller thread *without* the monitor lock
        #: (single list ops are atomic under the GIL and internally locked
        #: on free-threaded builds); drained under the lock by the next
        #: relay signal.
        self._async_reap: list[Waiter] = []
        # the pre-bound tag-search callback: binding the method per relay
        # call would allocate a method object on every monitor exit
        self._search_pred_cb = self._search_pred
        # ---- dependency tracking -------------------------------------
        #: the monitor's dirty set, or None when it does not participate in
        #: per-variable write tracking (real Monitor subclasses carry a
        #: ``_dirty`` set; bare state objects driven directly in tests do
        #: not, and keep the exhaustive untagged scan)
        self._dirty: Optional[set] = getattr(monitor, "_dirty", None)
        self._tracked = self._dirty is not None
        #: per-shared-variable write generation stamps (monotonic; bumped
        #: by :meth:`relay_signal` when an exit's dirty set is flushed)
        self.var_gens: dict[str, int] = {}
        #: untagged waiters with a *known* predicate read set, bucketed
        #: below; kept as a list for the exhaustive fallback scan
        self._untagged: list[Waiter] = []
        #: untagged waiters with an *opaque* read set (FuncAtom predicates
        #: and unannotated SharedExprs): re-checked on every relay search
        self._always: list[Waiter] = []
        #: shared-variable name → untagged waiters whose read set holds it
        self._dep_buckets: dict[str, list[Waiter]] = {}
        #: untagged waiters due for (re-)evaluation at the next relay
        #: search: freshly parked, or some read variable was written since
        #: they last evaluated false.  Entries persist across relays that
        #: signal someone else first — a waiter leaves the queue only by
        #: being evaluated (``pending`` flag) — so an early-stopping relay
        #: never loses a signal.
        self._eligible: list[Waiter] = []
        #: parked waiters holding a tag record: the tag-index probe runs
        #: only while this is nonzero (an empty index can find no one)
        self._tagged = 0
        #: threaded waiters signaled and not yet resumed (``Waiter.baton``):
        #: the relay search is skipped while this is nonzero
        self._batons = 0

    # ------------------------------------------------------------------ wait
    def wait_blocking(self, predicate: Predicate,
                      ev: Callable[[Any], Any] | None = None,
                      *,
                      timeout: Optional[float] = None,
                      deadline: Optional[float] = None,
                      cancel: "Optional[CancelToken]" = None) -> None:
        """Park until ``predicate`` holds, given it was just seen false.

        Implements the waiting side of the relay protocol: before parking,
        the thread passes the baton (relay-signals some other satisfied
        waiter, since this thread is "going into waiting state"); after each
        wakeup it re-evaluates, counting futile wakeups when the state moved
        under it between signal and lock re-acquisition.

        ``timeout`` (relative seconds) and ``deadline`` (absolute
        ``time.monotonic()`` instant) bound the wait — whichever expires
        first raises :class:`WaitTimeoutError`; ``cancel`` aborts it with
        :class:`WaitCancelledError`.  An abandoning waiter re-runs the relay
        rule after deregistering: if the relay baton was handed to it while
        it was timing out, the baton passes on to another satisfied waiter,
        preserving relay invariance (Prop. 2).  This is only sound because
        of the closure property (Def. 2) — any thread can evaluate any
        parked predicate, so no signal is ever addressed to a waiter that
        *must* act on it.
        """
        m = self.metrics
        if ev is None:
            ev = predicate.evaluator()
        m.bump("waits")

        if timeout is not None:
            t = time.monotonic() + timeout
            deadline = t if deadline is None else min(deadline, t)
        if cancel is not None and cancel.cancelled():
            m.bump("wait_cancels")
            raise WaitCancelledError(
                f"wait on {predicate!r} cancelled", cancel.reason)

        if self.mode == "baseline":
            self._wait_baseline(predicate, ev, deadline=deadline,
                                cancel=cancel)
            return

        waiter = self._obtain_waiter(predicate)
        monitor = self.monitor
        # one snapshot per blocking wait, not one config lookup per wakeup
        phase_timing = config_snapshot().phase_timing
        wake: Optional[Callable[[], None]] = None
        if cancel is not None:
            # an unpark takes no lock, so cancel() never waits for this
            # monitor; the park loop below sees the token itself
            wake = waiter.parker.unpark
            cancel.add_callback(wake)
        satisfied = False
        try:
            while True:
                # Pass the baton before sleeping (relay rule: a thread going
                # into waiting state signals some satisfied waiter).
                self.relay_signal()
                if cancel is not None and cancel.cancelled():
                    m.bump("wait_cancels")
                    raise WaitCancelledError(
                        f"wait on {predicate!r} cancelled", cancel.reason)
                if deadline is not None and deadline <= time.monotonic():
                    m.bump("wait_timeouts")
                    raise WaitTimeoutError(
                        f"wait on {predicate!r} timed out")
                if phase_timing:
                    with PhaseTimer(m, "await_time"):
                        self._park(waiter, deadline, cancel)
                else:
                    self._park(waiter, deadline, cancel)
                self._resume(waiter)
                m.bump("wakeups")
                if waiter.poison is not None:
                    # our predicate blew up while a signaler evaluated it;
                    # the failure belongs to this thread — re-raise it here
                    raise waiter.poison
                result = ev(monitor)
                m.predicate_evals += 1
                if result:
                    satisfied = True
                    return
                m.bump("futile_wakeups")
        finally:
            self._deregister(waiter)
            if wake is not None:
                cancel.remove_callback(wake)
            if not satisfied:
                # Abandoned wait (timeout / cancel / poison): between the
                # park's return and this point the thread holds the monitor
                # lock, so if it *was* signaled, that signal is the relay
                # baton and no other signal can have raced in.  The
                # deregistration released the baton; re-running the relay
                # hands it to some other satisfied waiter — no signal is
                # lost.
                self.relay_signal()

    def _park(self, waiter: Waiter, deadline: Optional[float],
              cancel: "Optional[CancelToken]") -> None:
        """Release the monitor lock, park until the waiter is signaled or
        the deadline or cancel token fires, then re-acquire the lock.

        A return from ``park()`` is never taken as a signal: the loop
        re-checks ``signaled``, so a stale permit on the thread's Parker
        only costs one more trip round it."""
        park = waiter.parker.park
        lock = self.lock
        saved = lock._release_save()
        try:
            while not waiter.signaled:
                if cancel is not None and cancel.cancelled():
                    break
                if deadline is None:
                    park()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not park(remaining):
                        break
        finally:
            lock._acquire_restore(saved)

    def _resume(self, waiter: Waiter) -> None:
        """The waiter's thread is back from its park, holding the lock: it
        is the active thread now, and relays when it exits, re-parks or
        leaves, so its baton (if the relay handed it one) is released."""
        waiter.signaled = False
        if waiter.baton:
            waiter.baton = False
            self._batons -= 1

    def _wait_baseline(self, predicate: Predicate, ev: Callable[[Any], Any],
                       deadline: Optional[float] = None,
                       cancel: "Optional[CancelToken]" = None) -> None:
        """Baseline's park: for the whole wait the thread's waiter sits in
        the broadcast list (``_parked``), never in ``waiters``, so no search
        can pick it while the diagnostic views count it; each broadcast
        signals every parked waiter, and each re-checks its own
        predicate."""
        m = self.metrics
        monitor = self.monitor
        parked = self._parked
        waiter = Waiter(predicate, self.lock)
        # baton-pass equivalent: broadcast, and deliver any satisfied
        # registered record, as every section end does
        self.relay_signal()
        wake: Optional[Callable[[], None]] = None
        if cancel is not None:
            wake = waiter.parker.unpark
            cancel.add_callback(wake)
        parked.append(waiter)
        try:
            while True:
                if cancel is not None and cancel.cancelled():
                    m.bump("wait_cancels")
                    raise WaitCancelledError("wait cancelled", cancel.reason)
                if deadline is not None and deadline <= time.monotonic():
                    m.bump("wait_timeouts")
                    raise WaitTimeoutError("wait timed out")
                self._park(waiter, deadline, cancel)
                waiter.signaled = False
                m.bump("wakeups")
                broken = getattr(monitor, "_broken", None)
                if broken is not None:
                    from repro.runtime.errors import BrokenMonitorError
                    raise BrokenMonitorError(
                        f"{monitor!r} is broken", broken)
                result = ev(monitor)
                m.predicate_evals += 1
                if result:
                    return
                m.bump("futile_wakeups")
        finally:
            parked.remove(waiter)
            if wake is not None:
                cancel.remove_callback(wake)
            # baseline signaling is broadcast: a departing waiter cannot
            # have absorbed anyone else's wakeup, so no re-relay is needed

    def _broadcast(self) -> None:
        """Baseline's wake (caller holds the lock): signal every parked
        baseline waiter; each re-checks its own predicate.  A waiter still
        signaled has not resumed since an earlier broadcast: it will
        re-check anyway."""
        for waiter in self._parked:
            if not waiter.signaled:
                waiter.signal()

    # ---------------------------------------------------------------- signal
    def relay_signal(self) -> Optional[Waiter]:
        """Signal one waiter whose condition is true, if any (relay rule).

        The one section-exit routine: called whenever a thread exits the
        monitor or goes to wait.  Returns the signaled waiter (already
        marked) or None.  Guarantees relay invariance (Prop. 2): if some
        waiter's predicate is true, an active thread exists afterwards.
        While a signaled thread has not resumed (a baton is in flight) that
        thread is the active one: the exit reaps and flushes, then returns
        None without searching.
        """
        m = self.metrics
        if self._async_reap:
            self._reap_async()
        snap = config_snapshot()
        dirty = self._dirty
        # Flush the exiting section's dirty set *before* any early return:
        # the set must start empty at the next section, and per-variable
        # generations must count every write, waiters or not, because the
        # Inspector and dump_waiters read them to tell a variable nobody
        # writes from one that moves.  Bump each written variable's
        # generation and mark the readers in its bucket *pending*: a marked
        # waiter stays queued until some search evaluates it, so a relay
        # that signals another waiter first never drops one whose predicate
        # may have flipped (Prop. 2).
        if dirty:
            gens = self.var_gens
            buckets = self._dep_buckets
            eligible = self._eligible
            for name in dirty:
                gens[name] = gens.get(name, 0) + 1
                bucket = buckets.get(name)
                if bucket:
                    m.relay_buckets_scanned += 1
                    for w in bucket:
                        if not w.pending:
                            w.pending = True
                            eligible.append(w)
            dirty.clear()
        if self.mode == "baseline":
            if snap.phase_timing:
                with PhaseTimer(m, "relay_time"):
                    self._broadcast()
            else:
                self._broadcast()
            m.bump("broadcasts")
            # the only registered waiters are records (asyncio waiters and
            # multisynch global waits): the search below delivers them (a
            # baseline monitor holds no baton)
        if self._batons or not self.waiters:
            return None
        if _chaos.enabled:
            _chaos.fire("relay", self.monitor)
        t0 = time.perf_counter() if snap.phase_timing else None
        waiter = self._find_satisfied_waiter(snap)
        if t0 is not None:
            m.add_time("relay_time", time.perf_counter() - t0)
        # A satisfied async waiter consumes no baton: deliver its loop
        # callback (it has no thread that would re-enter the monitor and
        # relay on exit) and keep searching on its behalf.
        while waiter is not None and waiter.deliver is not None:
            if _chaos.enabled:
                _chaos.fire("signal", waiter)
            if self._deliver_async(waiter):
                m.bump("signals")
            waiter = self._find_satisfied_waiter(snap)
        if waiter is not None:
            if _chaos.enabled:
                _chaos.fire("signal", waiter)
            self._hand_baton(waiter)
            m.bump("signals")
        return waiter

    #: an alias, not a second routine: benchmarks/e2e/tracer.py patches
    #: both names
    direct_signal = relay_signal

    def poison_all(self, make_exc: Callable[[], BaseException]) -> int:
        """Poison and wake every parked waiter (caller holds the lock).

        Used by :meth:`Monitor.mark_broken`.  Parked baseline threads are
        woken by a broadcast and see ``monitor._broken`` themselves.  Then,
        in every mode, each registered waiter gets a fresh exception from
        ``make_exc`` (fresh per waiter, so concurrent re-raises don't fight
        over one traceback) and is signaled, or delivered when it is a
        record.  Returns the number of registered waiters poisoned.
        """
        self._broadcast()
        n = 0
        for waiter in list(self.waiters):
            if waiter.poison is None:
                waiter.poison = make_exc()
            if waiter.deliver is not None:
                # async waiters get the poison through their wake callback
                # (the loop re-raises it from the awaited future)
                self._deliver_async(waiter)
            else:
                self._hand_baton(waiter)
            n += 1
        return n

    def _hand_baton(self, waiter: Waiter) -> None:
        """Signal a threaded waiter (caller holds the lock); it holds the
        baton until it resumes holding the lock or deregisters."""
        if not waiter.baton:
            waiter.baton = True
            self._batons += 1
        waiter.signal()

    # ------------------------------------------------------- async waiters
    def register_async(self, waiter: Waiter) -> None:
        """Register a waiterless waiter (caller holds the monitor lock).

        The record joins exactly the structures a threaded waiter would —
        tag index, dependency buckets — so every signaling discipline
        covers it with no special cases on the search side.  On a baseline
        monitor it joins ``waiters`` alone, which the relay's linear search
        scans after each broadcast.
        """
        self.metrics.bump("waits")
        self._register(waiter)

    def register_record(self, waiter: Waiter) -> None:
        """Register a multisynch global wait's record (caller holds the
        lock), in any mode.  Not queued pending: its thread just evaluated
        the wait false under this lock, so only a later write to the
        record's read set can make it true."""
        self._register(waiter, pending=False)

    def abandon_async(self, waiter: Waiter) -> bool:
        """Abandon a parked async waiter *without* the monitor lock.

        Called from the event-loop (timeout) or canceller thread.  Claims
        the record through its micro-lock flag; returns False when a
        signaler already delivered — the wait won the race and its outcome
        stands.  On success the record is marked inert (the ``signaled``
        store is racy but advisory: a search that misses it still loses
        the claim in :meth:`_deliver_async` and keeps searching) and
        queued for deregistration by the next lock holder.  No re-relay is
        needed on its behalf: a claimed waiter can never have absorbed the
        relay baton, because delivery itself is the claim.
        """
        if waiter.claimed.test_and_set():
            return False
        waiter.signaled = True
        self._async_reap.append(waiter)
        return True

    def _deliver_async(self, waiter: Waiter) -> bool:
        """Deregister a satisfied/poisoned async waiter and run its wake
        action (caller holds the lock).  Returns False when a concurrent
        timeout/cancel claimed the record first — the signaler then simply
        continues its search, exactly as after a threaded waiter's
        abandonment re-relay.
        """
        waiter.signaled = True
        self._deregister(waiter)
        if waiter.claimed.test_and_set():
            return False
        try:
            waiter.deliver(waiter.poison)
        except Exception:  # noqa: BLE001 — a loop callback must never
            pass           # poison the signaling thread
        return True

    def _reap_async(self) -> None:
        """Unlink abandoned async waiters (caller holds the lock)."""
        reap = self._async_reap
        while reap:
            try:
                w = reap.pop()
            except IndexError:  # pragma: no cover — we are the only popper
                break
            self._deregister(w)

    def _find_satisfied_waiter(self, snap=None) -> Optional[Waiter]:
        """One relay search: the tag-index probe (equivalence + threshold,
        skipped while no tagged waiter is parked), then the untagged drain;
        a linear scan in the untagged modes (AutoSynch-T, and the records
        a baseline monitor holds).  ``snap`` is the caller's config
        snapshot, if it holds one.

        The drain re-checks opaque-read-set waiters on every search (a
        write to anything could have flipped them), then the eligible
        queue.  Bucketed waiters are evaluated only while ``pending``:
        freshly parked, or some variable in their read set was written
        since they last evaluated false — if neither holds, the predicate
        still has the value the last evaluation saw, so skipping it cannot
        lose a signal (docs/performance.md).  Candidates are evaluated
        inline — signaled check, eval count, poison-on-raise as in
        :meth:`_search_pred` — because one frame per candidate is
        measurable on every exit.
        """
        if self.mode != "autosynch":
            pred_true = self._search_pred
            for waiter in self.waiters:
                if pred_true(waiter):
                    return waiter
            return None
        if snap is None:
            snap = config_snapshot()
        if self._tagged:
            if snap.phase_timing:
                with PhaseTimer(self.metrics, "tag_time"):
                    waiter = self.index.search(self.monitor,
                                               self._search_pred_cb,
                                               self.metrics)
            else:
                waiter = self.index.search(self.monitor, self._search_pred_cb,
                                           self.metrics)
            if waiter is not None:
                return waiter
        monitor = self.monitor
        evals = 0
        found = None
        for w in self._always:
            if w.signaled:
                continue
            evals += 1
            try:
                hit = w.eval_fn(monitor)
            except BaseException as exc:  # noqa: BLE001 — owner re-raises
                w.poison = exc
                hit = True
            if hit:
                found = w
                break
        else:
            eligible = self._eligible
            if self._tracked and snap.track_dependencies:
                popped = 0
                while eligible:
                    w = eligible.pop()
                    if not w.pending:
                        continue  # deregistered, or a stale duplicate entry
                    # clear *before* evaluating: a True result leads to a
                    # signal (the waiter consumes its own wakeup), and a
                    # False result must leave the flag armed for re-marking
                    w.pending = False
                    popped += 1
                    if w.signaled:
                        continue
                    evals += 1
                    try:
                        hit = w.eval_fn(monitor)
                    except BaseException as exc:  # noqa: BLE001
                        w.poison = exc
                        hit = True
                    if hit:
                        found = w
                        break
                self.metrics.relay_dirty_skips += len(self._untagged) - popped
            else:
                # exhaustive fallback (tracking off, or a bare state object
                # with no write instrumentation): evaluate every untagged
                # waiter.  Drain the queue so pending flags stay consistent
                # if tracking turns on.
                while eligible:
                    eligible.pop().pending = False
                found = next(filter(self._search_pred, self._untagged), None)
        if evals:
            self.metrics.predicate_evals += evals
        return found

    def _search_pred(self, waiter: Waiter) -> bool:
        """Evaluate a waiter's predicate on behalf of another thread.

        A predicate that *raises* must not crash the signaling thread (it
        did nothing wrong); instead the waiter is poisoned and woken so the
        exception re-raises in the thread that owns the broken predicate —
        returning True here routes the relay signal to it.
        """
        if waiter.signaled:
            return False
        self.metrics.predicate_evals += 1
        try:
            return waiter.eval_fn(self.monitor)
        except BaseException as exc:  # noqa: BLE001 — re-raised by the owner
            waiter.poison = exc
            return True

    # ------------------------------------------------------------- internals
    def _obtain_waiter(self, predicate: Predicate) -> Waiter:
        pool = self._waiter_pool
        if pool:
            waiter = pool.pop()
            waiter.reset(predicate)
        else:
            waiter = Waiter(predicate, self.lock)
        self._register(waiter)
        return waiter

    def _register(self, waiter: Waiter, pending: bool = True) -> None:
        self.waiters.append(waiter)
        if self.mode != "autosynch":
            return
        predicate = waiter.predicate
        plan = registration_plan(predicate)
        if plan.tags:
            add = self.index.add
            records = waiter.records
            for i, tag in enumerate(plan.tags):
                record = add(tag, waiter)
                records.append(record)
                holder = record.holder
                if holder.evaluate is None:
                    holder.evaluate = tag_evaler(predicate, i)
            self._tagged += 1
        if plan.untagged:
            # untagged conjunctions go to the dependency-filtered
            # structures; the index holds tagged ones only
            self._register_untagged(waiter, pending)

    def _register_untagged(self, waiter: Waiter, pending: bool) -> None:
        waiter.untagged = True
        rs = waiter.predicate.read_set()
        waiter.read_set = rs
        if rs is None:
            self._always.append(waiter)
            return
        self._untagged.append(waiter)
        buckets = self._dep_buckets
        for name in rs:
            bucket = buckets.get(name)
            if bucket is None:
                buckets[name] = [waiter]
            else:
                bucket.append(waiter)
        # a freshly parked waiter is always eligible for the next relay
        # search, so filtering cannot disturb relay invariance (Prop. 2)
        if pending:
            waiter.pending = True
            self._eligible.append(waiter)

    def _deregister(self, waiter: Waiter) -> None:
        try:
            self.waiters.remove(waiter)
        except ValueError:
            return  # already deregistered: never pool a waiter twice
        if waiter.baton:
            # left while signaled (timeout, cancel, poison, a raise inside
            # the wait): the baton is released before any re-relay
            waiter.baton = False
            self._batons -= 1
        if waiter.records:
            self._tagged -= 1
            for record in waiter.records:
                self.index.remove(record, waiter)
            waiter.records.clear()
        if waiter.untagged:
            # stale queue entries are skipped on drain via the pending flag
            waiter.untagged = False
            waiter.pending = False
            rs = waiter.read_set
            waiter.read_set = None
            if rs is None:
                try:
                    self._always.remove(waiter)
                except ValueError:
                    pass
            else:
                try:
                    self._untagged.remove(waiter)
                except ValueError:
                    pass
                buckets = self._dep_buckets
                for name in rs:
                    bucket = buckets.get(name)
                    if bucket is None:
                        continue
                    try:
                        bucket.remove(waiter)
                    except ValueError:
                        pass
                    if not bucket:
                        del buckets[name]
        # recycle the whole waiter (paper §2.5.1): cap the inactive pool at
        # factor × live waiters, minimum a small constant.  Async waiters
        # are never pooled — their claim flag is single-use.
        if waiter.deliver is not None:
            return
        cap = max(4, _POOL_FACTOR * (len(self.waiters) + 1))
        if len(self._waiter_pool) < cap:
            waiter.retire()
            self._waiter_pool.append(waiter)

    def dump_waiters(self) -> list[str]:
        """Human-readable descriptions of every parked predicate, parked
        baseline threads included — the first thing to look at when a
        program seems wedged.

        Each line carries the predicate's read set and the current write
        generation of every variable it reads (every tracked variable for
        opaque predicates): a waiter whose read variables have generation 0
        is stuck because *nobody ever wrote* what it waits for.
        """
        gens = self.var_gens
        out = []
        for w in self.waiters + self._parked:
            pred = w.predicate
            rs = pred.read_set() if pred is not None else None
            reads = "{" + ",".join(sorted(rs)) + "}" if rs is not None else "?"
            names = sorted(rs) if rs is not None else sorted(gens)
            shown = {n: gens.get(n, 0) for n in names}
            out.append(f"{w!r} reads={reads} gens={shown}")
        return out

    def obligation_view(self) -> list:
        """Racy snapshot of each parked waiter's signal obligation, parked
        baseline threads included: ``(waiter, read_set, description)``
        triples.

        Unlike :attr:`Waiter.read_set` (populated only for untagged
        waiters), the read set here always comes from the predicate, so
        tagged waiters report theirs too; ``None`` means opaque.  Every
        read is a plain attribute load (atomic on GIL and free-threaded
        builds alike) — no lock is taken,
        and a waiter racing out mid-snapshot is simply skipped.  Consumed
        by :class:`repro.resilience.inspector.Inspector`, whose stall and
        obligation checks both classify this one snapshot.
        """
        out = []
        for w in self.waiters + self._parked:
            pred = w.predicate
            if pred is None:  # retired under us (pool recycling race)
                continue
            try:
                rs = pred.read_set()
                desc = w.describe()
            except Exception:
                continue  # racy read of a live structure; skip, don't fail
            out.append((w, rs, desc))
        return out

    def waiting_count(self) -> int:
        """Racy count of parked waiters, parked baseline threads
        included."""
        return len(self.waiters) + len(self._parked)
