"""The load simulator core, its thread driver, and the scenario catalog.

Both open-loop drivers — :class:`LoadSimulator` (a worker-thread pool)
and :class:`~repro.loadsim.aio.AsyncLoadSimulator` (coroutine clients on
one event loop) — are thin subclasses of one :class:`SimulatorCore`.
The core owns everything that is not the loop itself:

* drawing each request's op from the op seed, one per scheduled arrival;
* starting and stopping an owned service, and one
  :class:`~repro.resilience.inspector.Inspector` when ``diagnose`` is
  set, on every exit path — its stall and obligation reports ride along
  in the report's diagnostics, so an SLO failure explains *which
  monitor* wedged and on what predicate;
* the outcome ledger.  Every admitted request ends in exactly one
  terminal state — ``completed`` / ``timed_out`` / ``failed_fast`` /
  ``errors`` — mapped from what its handler raised, and the report's
  accounting check fails the run if any request is lost;
* building the :class:`~repro.loadsim.report.LoadReport`.

**Latency is measured from the scheduled arrival**, not from dequeue —
the open-loop discipline that avoids coordinated omission: a slow system
makes queued requests *slower*, it does not quietly slow the offered
load.  Each request carries an absolute deadline of ``scheduled_arrival
+ deadline`` riding on ``wait_until(..., deadline=)`` / future
``get(timeout=...)``, plus a cancel backstop a grace period later — so
even a request whose deadline plumbing is broken cannot block forever.

The thread driver keeps only its loop: an **arrival thread** (the
caller) offers requests at their pre-drawn scheduled times; a bounded
admission queue accepts or **sheds** them (``put_nowait`` — shedding is
an explicit, counted decision, never an implicit drop); a fixed **worker
pool** executes admitted requests, each under a
:meth:`CancelToken.cancel_after` backstop.

Scenarios (also the CI ``load-smoke`` catalog):

* :func:`run_steady_load` — Poisson arrivals within capacity; the
  baseline SLO lane;
* :func:`run_burst_load` — on/off overload; sheds and timeouts expected
  during bursts, recovery asserted after the last burst;
* :func:`run_mixed_workload` — all services at once under diurnal ramps;
* :func:`run_worker_failure` — chaos kills a monitor server mid-run;
  asserts supervised restart, zero lost requests, post-fault recovery;
* :func:`run_network_partition` — freezes a monitor shard's lock;
  asserts the healthy shards keep their SLO and the frozen shard drains
  (as timeouts) once healed.

The steady and burst checks are shared with the asyncio entry points in
:mod:`repro.loadsim.aio`, which differ only in the driver they build.
"""

from __future__ import annotations

import queue as queue_mod
import random
import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.loadsim.arrivals import (
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.loadsim.recorder import OUTCOMES, LatencyRecorder, WindowedSeries
from repro.loadsim.report import LoadReport, SLO, SLOViolation
from repro.loadsim.services import Service, make_service
from repro.resilience import CancelToken, chaos
from repro.resilience.inspector import Inspector
from repro.runtime.errors import (
    BrokenMonitorError,
    TaskError,
    WaitCancelledError,
    WaitTimeoutError,
)

__all__ = [
    "LoadSimulator",
    "SimulatorCore",
    "run_burst_load",
    "run_mixed_workload",
    "run_network_partition",
    "run_steady_load",
    "run_worker_failure",
]

DEFAULT_SEED = 11


class _Ledger:
    """One run's outcome accounting, settled into by every worker thread
    or request task under one lock."""

    def __init__(self, window_s: float):
        self._lock = threading.Lock()
        self.counts: dict[str, dict[str, int]] = {}
        self.recorders: dict[str, LatencyRecorder] = {}
        self.windows = WindowedSeries(window_s)
        self.admitted = 0
        self.resolved = 0
        self.backstop_cancels = 0
        self.error_samples: list[str] = []
        #: the driver's clock: scheduled offsets are relative to ``start``
        self.start = 0.0
        self.elapsed = 0.0

    def _add_group(self, group: str) -> dict[str, int]:
        self.recorders[group] = LatencyRecorder()
        cell = self.counts[group] = dict.fromkeys(OUTCOMES, 0)
        return cell

    def admit(self) -> None:
        with self._lock:
            self.admitted += 1

    def shed(self, group: str, offset: float) -> None:
        with self._lock:
            cell = self.counts.get(group) or self._add_group(group)
            cell["shed"] += 1
            self.windows.record(offset, "shed")

    def settle(self, group: str, offset: float,
               failure: Optional[Exception] = None) -> None:
        """Record an admitted request's terminal state from what its
        handler raised (``None``: it completed)."""
        latency = time.monotonic() - (self.start + offset)
        label = None  # error-sample prefix
        if failure is None:
            outcome = "completed"
        elif isinstance(failure, (WaitTimeoutError, WaitCancelledError)):
            outcome = "timed_out"
        elif isinstance(failure, (BrokenMonitorError, TaskError)):
            outcome = label = "failed_fast"
        else:
            outcome, label = "errors", "error"
        with self._lock:
            cell = self.counts.get(group) or self._add_group(group)
            cell[outcome] += 1
            self.resolved += 1
            if outcome == "completed":
                self.recorders[group].record(latency)
                self.windows.record(offset, outcome, latency)
            else:
                self.windows.record(offset, outcome)
                if isinstance(failure, WaitCancelledError):
                    # the backstop fired: the deadline plumbing failed but
                    # the request still resolved (counted separately)
                    self.backstop_cancels += 1
                if label is not None and len(self.error_samples) < 5:
                    self.error_samples.append(
                        f"{label}: {type(failure).__name__}: {failure}")


class SimulatorCore:
    """Open-loop load: one service, one arrival schedule, full accounting.

    A driver subclass implements :meth:`_drive`, the loop that offers the
    drawn ops at their scheduled offsets and settles each one into the
    ledger; everything else about a run lives here.
    """

    def __init__(
        self,
        service: Service,
        arrivals: ArrivalProcess,
        *,
        scenario: str,
        deadline: float,
        admission_capacity: int,
        window_s: float,
        op_seed: Optional[int],
        diagnose: bool,
        cancel_grace: float,
        drain_timeout: Optional[float],
    ):
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        if admission_capacity < 1:
            raise ValueError("admission_capacity must be >= 1")
        self.service = service
        self.arrivals = arrivals
        self.scenario = scenario
        self.deadline = deadline
        self.admission_capacity = admission_capacity
        self.window_s = window_s
        self.op_seed = arrivals.seed + 1 if op_seed is None else op_seed
        self.diagnose = diagnose
        self.cancel_grace = cancel_grace
        # worst case a worker holds one request: its deadline + the cancel
        # backstop; anything beyond that is a lost wait the report flags
        self.drain_timeout = (
            deadline + cancel_grace + 2.0 if drain_timeout is None
            else drain_timeout
        )

    def _drive(self, schedule: Sequence[float], ops: list,
               ledger: _Ledger) -> dict[str, Any]:
        """Offer ``ops`` at their ``schedule`` offsets from ``ledger.start``
        and settle each admitted one; set ``ledger.elapsed``; return the
        driver's report extras."""
        raise NotImplementedError

    def _params(self) -> dict[str, Any]:
        return {
            "arrivals": self.arrivals.name,
            "duration_s": self.arrivals.duration,
            "deadline_s": self.deadline,
            "admission_capacity": self.admission_capacity,
            "op_seed": self.op_seed,
        }

    def run(self, params: Optional[dict[str, Any]] = None) -> LoadReport:
        """Drive the whole schedule and report; ``params`` extend the
        report's.  Blocks on the calling thread until the run drains."""
        service = self.service
        schedule = self.arrivals.schedule()
        op_rng = random.Random(self.op_seed)
        ops = [service.make_op(op_rng) for _ in schedule]
        ledger = _Ledger(self.window_s)
        inspector = None
        owns_service = not service.started
        if owns_service:
            service.start()
        try:
            if self.diagnose:
                inspector = Inspector(
                    service.monitors(),
                    quiet_period=max(1.0, 2.0 * self.deadline),
                    poll_interval=0.2,
                    on_report=lambda report: None,  # collect, don't print
                )
                inspector.start()
            extra = self._drive(schedule, ops, ledger)
        finally:
            if inspector is not None:
                inspector.stop()
            if owns_service:
                service.stop()

        diagnostics: list[str] = []
        if inspector is not None:
            diagnostics += [r.describe() for r in inspector.reports]
        diagnostics += ledger.error_samples
        if ledger.backstop_cancels:
            extra["backstop_cancels"] = ledger.backstop_cancels
        return LoadReport(
            service=service.name,
            scenario=self.scenario,
            seed=self.arrivals.seed,
            params={**self._params(), **(params or {})},
            counts=ledger.counts,
            latency=ledger.recorders,
            windows=ledger.windows,
            elapsed=ledger.elapsed,
            in_flight=ledger.admitted - ledger.resolved,
            diagnostics=diagnostics,
            extra=extra,
        )


class LoadSimulator(SimulatorCore):
    """Thread driver: an arrival thread, a bounded admission queue, and a
    worker pool."""

    def __init__(
        self,
        service: Service,
        arrivals: ArrivalProcess,
        *,
        scenario: str = "custom",
        deadline: float = 0.5,
        workers: int = 6,
        admission_capacity: int = 64,
        window_s: float = 0.5,
        op_seed: Optional[int] = None,
        supervise: bool = False,
        diagnose: bool = True,
        events: Sequence[tuple[float, Callable[[], None]]] = (),
        cancel_grace: float = 1.0,
        drain_timeout: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(
            service, arrivals, scenario=scenario, deadline=deadline,
            admission_capacity=admission_capacity, window_s=window_s,
            op_seed=op_seed, diagnose=diagnose, cancel_grace=cancel_grace,
            drain_timeout=drain_timeout)
        self.workers = workers
        self.supervise = supervise
        self.events = sorted(events, key=lambda e: e[0])

    def _params(self) -> dict[str, Any]:
        return {**super()._params(), "workers": self.workers}

    def _drive(self, schedule, ops, ledger):
        service = self.service
        if self.supervise and not service.supervisors:
            service.attach_supervisors(seed=self.arrivals.seed)
        admission: queue_mod.Queue = queue_mod.Queue(self.admission_capacity)
        arrivals_done = threading.Event()
        event_errors: list[BaseException] = []

        def worker() -> None:
            while True:
                try:
                    offset, op = admission.get(timeout=0.05)
                except queue_mod.Empty:
                    # the event is set after the last put, so once it is
                    # seen an empty queue stays empty
                    if arrivals_done.is_set() and admission.empty():
                        return
                    continue
                group = service.group(op)
                deadline = ledger.start + offset + self.deadline
                token = CancelToken()
                timer = token.cancel_after(
                    max(0.0, deadline - time.monotonic()) + self.cancel_grace)
                failure = None
                try:
                    service.handle(op, deadline, token)
                except Exception as exc:  # noqa: BLE001 - full accounting
                    failure = exc
                finally:
                    timer.cancel()
                ledger.settle(group, offset, failure)

        def timeline() -> None:
            for offset, fn in self.events:
                delay = ledger.start + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    fn()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    event_errors.append(exc)
                    return

        threads = [
            threading.Thread(target=worker, name=f"loadsim-worker-{i}",
                             daemon=True)
            for i in range(self.workers)
        ]
        ledger.start = run_start = time.monotonic()
        for t in threads:
            t.start()
        event_thread = None
        if self.events:
            event_thread = threading.Thread(
                target=timeline, name="loadsim-timeline", daemon=True)
            event_thread.start()

        try:
            for offset, op in zip(schedule, ops):
                delay = run_start + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    admission.put_nowait((offset, op))
                    ledger.admit()
                except queue_mod.Full:
                    ledger.shed(service.group(op), offset)
        finally:
            arrivals_done.set()

        deadline_join = time.monotonic() + self.drain_timeout
        for t in threads:
            t.join(max(0.0, deadline_join - time.monotonic()))
        if event_thread is not None:
            event_thread.join(max(0.0, deadline_join - time.monotonic()))
        ledger.elapsed = time.monotonic() - run_start
        if event_errors:
            raise RuntimeError(
                f"scenario event failed: {event_errors[0]!r}"
            ) from event_errors[0]

        extra: dict[str, Any] = {}
        if service.supervisors:
            extra["supervision"] = [
                {
                    "restarts": s.restarts,
                    "gave_up": s.gave_up,
                    "deaths": len(s.deaths),
                    "backoff_spent_s": round(s.backoff_spent, 4),
                }
                for s in service.supervisors
            ]
        return extra


# --------------------------------------------------------------------------
# scenario catalog
# --------------------------------------------------------------------------

def _tail_violations(report: LoadReport, *, after: float, p95_ms: float,
                     max_bad_frac: float = 0.1) -> list[str]:
    """Degradation-curve recovery check over windows at ``t >= after``.

    The failure fraction is judged over the *aggregated* tail (individual
    windows can hold a handful of requests — one unlucky timeout there is
    noise, a sustained elevated fraction is not), and per-window p95 only
    where a window completed enough requests to make a p95 meaningful.
    """
    violations = []
    tail = [w for w in report.windows.series() if w["t"] >= after]
    if not tail:
        return [f"no windows at t >= {after}s to verify recovery"]
    completed = bad = 0
    for w in tail:
        c = w["counts"]
        completed += c["completed"]
        bad += c["timed_out"] + c["failed_fast"] + c["errors"]
        if c["completed"] >= 5 and w["p95_ms"] > p95_ms:
            violations.append(
                f"window t={w['t']}s p95 {w['p95_ms']}ms > {p95_ms}ms "
                "after expected recovery")
    terminal = completed + bad
    if terminal and bad / terminal > max_bad_frac:
        violations.append(
            f"tail (t >= {after}s) still failing {bad}/{terminal} "
            "requests after expected recovery")
    return violations


def _assert_recovered(report: LoadReport, *, after: float, p95_ms: float,
                      max_bad_frac: float = 0.1) -> None:
    violations = _tail_violations(
        report, after=after, p95_ms=p95_ms, max_bad_frac=max_bad_frac)
    if violations:
        raise SLOViolation(violations, report.diagnostics)


def _steady_lane(sim: SimulatorCore, slo: Optional[SLO],
                strict: bool) -> LoadReport:
    """Run a Poisson lane; strict runs must account for every request and
    meet ``slo`` (default: p95 within 0.8 and p99 within 1.5 deadlines,
    at most 5% timeouts, nothing shed or failed)."""
    report = sim.run(params={"rate": sim.arrivals.rate})
    if strict:
        report.assert_accounted()
        report.enforce(slo or SLO(
            p95_ms=0.8 * sim.deadline * 1e3,
            p99_ms=1.5 * sim.deadline * 1e3,
            max_timeout_frac=0.05,
            max_shed_frac=0.0,
            max_failed_frac=0.0,
        ))
    return report


def _burst_lane(sim: SimulatorCore, slo: Optional[SLO],
               strict: bool) -> LoadReport:
    """Run an on/off overload lane (``sim.arrivals`` is a
    :class:`BurstArrivals`).

    Shedding and timeouts *during* bursts are the expected, graceful
    behaviour; what strict runs assert is full accounting, ``slo``
    (default: at most 5% failed) plus recovery — the tail windows after
    the last burst must be back under the deadline.
    """
    arrivals, deadline = sim.arrivals, sim.deadline
    period, burst_fraction = arrivals.period, arrivals.burst_fraction
    report = sim.run(params={
        "base_rate": arrivals.base_rate, "burst_rate": arrivals.burst_rate,
        "period": period, "burst_fraction": burst_fraction,
    })
    if strict:
        report.assert_accounted()
        report.enforce(slo or SLO(max_failed_frac=0.05))
        # the last burst ends at the final whole period + the on-phase;
        # everything after must have settled back under the deadline
        duration = arrivals.duration
        last_burst_end = (
            int((duration - 1e-9) / period) * period + burst_fraction * period)
        after = min(last_burst_end + deadline, duration - sim.window_s)
        _assert_recovered(report, after=after, p95_ms=deadline * 1e3,
                          max_bad_frac=0.25)
    return report


def run_steady_load(
    service: str = "buffer",
    *,
    rate: float = 60.0,
    duration: float = 3.0,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.5,
    workers: int = 6,
    admission_capacity: int = 64,
    slo: Optional[SLO] = None,
    strict: bool = True,
    service_kwargs: Optional[dict[str, Any]] = None,
) -> LoadReport:
    """Poisson arrivals within capacity — the baseline SLO lane."""
    sim = LoadSimulator(
        make_service(service, seed=seed, **(service_kwargs or {})),
        PoissonArrivals(rate, duration, seed),
        scenario="steady",
        deadline=deadline,
        workers=workers,
        admission_capacity=admission_capacity,
    )
    return _steady_lane(sim, slo, strict)


def run_burst_load(
    service: str = "buffer",
    *,
    base_rate: float = 30.0,
    burst_rate: float = 150.0,
    duration: float = 3.0,
    period: float = 1.0,
    burst_fraction: float = 0.25,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.3,
    workers: int = 4,
    admission_capacity: int = 24,
    slo: Optional[SLO] = None,
    strict: bool = True,
    service_kwargs: Optional[dict[str, Any]] = None,
) -> LoadReport:
    """On/off overload: bursts exceed capacity, the backlog absorbs them."""
    sim = LoadSimulator(
        make_service(service, seed=seed, **(service_kwargs or {})),
        BurstArrivals(base_rate, burst_rate, duration, seed,
                      period=period, burst_fraction=burst_fraction),
        scenario="burst",
        deadline=deadline,
        workers=workers,
        admission_capacity=admission_capacity,
    )
    return _burst_lane(sim, slo, strict)


def run_mixed_workload(
    *,
    duration: float = 3.0,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.5,
    rates: Optional[dict[str, float]] = None,
    workers: int = 4,
    strict: bool = True,
) -> dict[str, LoadReport]:
    """Every service at once under diurnal ramps (one shared machine).

    Returns one report per service.  The point is interference: the
    services share the interpreter, the scheduler, and the server-thread
    registry, so a wedge in one shows up in another's diagnostics.
    """
    rates = dict(rates or {"buffer": 40.0, "pizza": 25.0, "multicast": 40.0})
    reports: dict[str, LoadReport] = {}
    failures: list[BaseException] = []
    lock = threading.Lock()

    def one(name: str, rate: float, idx: int) -> None:
        try:
            svc = make_service(name, seed=seed + idx)
            sim = LoadSimulator(
                svc,
                DiurnalArrivals(rate, duration, seed + idx),
                scenario="mixed",
                deadline=deadline,
                workers=workers,
            )
            report = sim.run(params={"peak_rate": rate, "mixed_with": sorted(
                k for k in rates if k != name)})
            with lock:
                reports[name] = report
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            with lock:
                failures.append(exc)

    threads = [
        threading.Thread(target=one, args=(name, rate, idx),
                         name=f"loadsim-mixed-{name}", daemon=True)
        for idx, (name, rate) in enumerate(sorted(rates.items()))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(duration + 30.0)
    if failures:
        raise failures[0]
    if strict:
        for report in reports.values():
            report.assert_accounted()
    return reports


def run_worker_failure(
    service: str = "buffer",
    *,
    rate: float = 50.0,
    duration: float = 4.0,
    kill_at: float = 1.2,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.5,
    workers: int = 6,
    recovery_margin: float = 1.0,
    slo: Optional[SLO] = None,
    strict: bool = True,
    service_kwargs: Optional[dict[str, Any]] = None,
) -> LoadReport:
    """Kill a monitor server thread mid-run; assert supervised recovery.

    At ``kill_at`` the chaos engine arms a one-shot ``server_loop`` kill:
    the next server iteration dies, its death handler fails the in-flight
    futures fast, and the attached (jittered) supervisor restarts it.
    Asserted: the kill actually fired, at least one supervised restart,
    zero lost requests, and tail windows back under the SLO.
    """
    kwargs = dict(service_kwargs or {})
    if service == "multicast":
        kwargs.setdefault("variant", "active")  # need killable servers
    svc = make_service(service, seed=seed, **kwargs)

    def arm_kill() -> None:
        chaos.configure(seed=seed, sites=("server_loop",),
                        kill={"server_loop": 1})
        chaos.enable()
        # worker-side combining executes lightly-loaded monitors' tasks on
        # the submitting thread, so a parked server may never reach the
        # chaos site on its own; wake the supervised servers and the first
        # to iterate takes the (one-shot) kill
        for sup in svc.supervisors:
            sup.server.wake()

    sim = LoadSimulator(
        svc,
        PoissonArrivals(rate, duration, seed),
        scenario="worker_failure",
        deadline=deadline,
        workers=workers,
        supervise=True,
        events=[(kill_at, arm_kill)],
    )
    chaos.reset()
    try:
        report = sim.run(params={"rate": rate, "kill_at": kill_at})
        report.extra["chaos"] = chaos.stats()
    finally:
        chaos.reset()

    if strict:
        report.assert_accounted()
        violations = []
        kills = report.extra["chaos"]["injected"].get("kill", 0)
        if kills < 1:
            violations.append("chaos kill never fired (no server iteration "
                              "after kill_at?)")
        supervision = report.extra.get("supervision", [])
        restarts = sum(s["restarts"] for s in supervision)
        if restarts < kills:
            violations.append(
                f"{kills} kill(s) but only {restarts} supervised restart(s)")
        if any(s["gave_up"] for s in supervision):
            violations.append("a supervisor gave up inside its budget")
        if violations:
            raise SLOViolation(violations, report.diagnostics)
        report.enforce(slo or SLO(
            max_failed_frac=0.2, min_completed_frac=0.5))
        _assert_recovered(
            report, after=kill_at + recovery_margin, p95_ms=deadline * 1e3,
            max_bad_frac=0.25)
    return report


def run_network_partition(
    service: str = "multicast",
    *,
    rate: float = 60.0,
    duration: float = 4.0,
    partition_at: float = 1.0,
    heal_after: float = 1.0,
    shard: int = 1,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.4,
    workers: int = 6,
    slo: Optional[SLO] = None,
    strict: bool = True,
    service_kwargs: Optional[dict[str, Any]] = None,
) -> LoadReport:
    """Freeze a shard of monitors; assert isolation, then drain on heal.

    The "partition" is a thread that grabs the shard's monitor locks and
    sits on them for ``heal_after`` seconds — the worst version of a
    stuck peer, because blocked callers cannot even reach their
    ``wait_until`` deadline until the lock frees.  Per-shard bulkheads
    cap how many workers wedge there; everyone else sheds at the
    bulkhead and the healthy shards keep serving.  On heal, the wedged
    requests re-enter, see their deadlines long expired, and drain as
    timeouts — nothing is lost.
    """
    if partition_at + heal_after + deadline >= duration:
        raise ValueError("run must outlive the partition by >= one deadline "
                         "so the frozen shard can drain")
    svc = make_service(service, seed=seed, **(service_kwargs or {}))
    svc.start()
    targets = svc.partition_targets(shard)

    heal_evt = threading.Event()
    holders: list[threading.Thread] = []

    def hold(monitor: Any) -> None:
        monitor._lock.acquire()  # monlint: disable=W004 — the fault IS a seized lock
        try:
            heal_evt.wait()
        finally:
            monitor._lock.release()  # monlint: disable=W004 — heal releases the seized lock

    def freeze() -> None:
        for m in targets:
            t = threading.Thread(target=hold, args=(m,),
                                 name="loadsim-partition", daemon=True)
            t.start()
            holders.append(t)

    def heal() -> None:
        heal_evt.set()

    sim = LoadSimulator(
        svc,
        PoissonArrivals(rate, duration, seed),
        scenario="network_partition",
        deadline=deadline,
        workers=workers,
        events=[(partition_at, freeze), (partition_at + heal_after, heal)],
    )
    try:
        report = sim.run(params={
            "rate": rate, "partition_at": partition_at,
            "heal_after": heal_after,
            "partitioned_shards": sorted(svc.partitioned),
        })
    finally:
        heal_evt.set()  # never leave locks held, even on failure
        for t in holders:
            t.join(5.0)
        svc.partitioned = set()
        svc.stop()

    if strict:
        report.assert_accounted()
        # the healthy side must have kept its SLO straight through
        report.enforce(
            slo or SLO(p95_ms=deadline * 1e3, max_timeout_frac=0.10,
                       max_failed_frac=0.0),
            group="healthy")
        violations = []
        part = report.counts.get("partitioned", {})
        if not part:
            violations.append("no requests ever routed to the partitioned "
                              "shard — the scenario tested nothing")
        elif not (part.get("timed_out", 0) + part.get("shed", 0)):
            violations.append("partition was invisible: no partitioned "
                              "request timed out or shed")
        violations += _tail_violations(
            report, after=partition_at + heal_after + deadline,
            p95_ms=deadline * 1e3, max_bad_frac=0.25)
        if violations:
            raise SLOViolation(violations, report.diagnostics)
    return report
