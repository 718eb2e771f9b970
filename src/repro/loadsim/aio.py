"""The asyncio driver: coroutine-per-client open-loop load.

:class:`AsyncLoadSimulator` is the event-loop driver of the shared
:class:`~repro.loadsim.scenarios.SimulatorCore` — same seeded arrival
schedules and op draws, same latency-from-scheduled-arrival discipline,
same accounting identity (``offered == completed + timed_out +
failed_fast + errors + shed`` with ``in_flight == 0``), same inspector
diagnostics — but every *logical client* is a coroutine on one event
loop, run on the calling thread, instead of a pooled worker thread.
The driver keeps only what is loop-specific:

* the **dispatcher coroutine** walks the pre-drawn schedule; each arrival
  either spawns a request task or is **shed** when the in-flight cap
  (``admission_capacity``) is reached — the awaitable analogue of the
  thread driver's bounded admission queue;
* each **request task** runs ``service.handle_async(op, deadline,
  cancel)`` with a cancel-token backstop armed with ``loop.call_later``
  (no timer threads — at thousands of clients that matters);
* a **loop-responsiveness probe** ticks throughout the run and records
  how late each tick fired.  The asyncio frontend's cardinal rule is that
  the event-loop thread never blocks on a monitor lock; the probe is the
  empirical check — a blocked loop shows up as drift, and the report
  carries ``extra["loop_probe"]`` so the benchmark can assert on it.

:func:`run_steady_load_async` / :func:`run_burst_load_async` run the
threaded scenario lanes' strict SLO / recovery checks on this driver, so
the two frontends are comparable head-to-head on identical arrival
schedules and op sequences.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional

from repro.loadsim.arrivals import ArrivalProcess, BurstArrivals, \
    PoissonArrivals
from repro.loadsim.report import LoadReport, SLO
from repro.loadsim.scenarios import (
    DEFAULT_SEED,
    SimulatorCore,
    _burst_lane,
    _steady_lane,
)
from repro.loadsim.services import Service, make_service
from repro.resilience import CancelToken

__all__ = [
    "AsyncLoadSimulator",
    "run_burst_load_async",
    "run_steady_load_async",
]

#: loop-responsiveness probe period (s); drift beyond a few ms means the
#: loop thread blocked somewhere it never should have
PROBE_INTERVAL_S = 0.02


class AsyncLoadSimulator(SimulatorCore):
    """Event-loop driver: one service, one schedule, coroutine clients."""

    def __init__(
        self,
        service: Service,
        arrivals: ArrivalProcess,
        *,
        scenario: str = "custom",
        deadline: float = 0.5,
        admission_capacity: int = 1024,
        window_s: float = 0.5,
        op_seed: Optional[int] = None,
        diagnose: bool = True,
        cancel_grace: float = 1.0,
        drain_timeout: Optional[float] = None,
    ):
        if not service.supports_async:
            raise ValueError(
                f"service {service.name!r} has no handle_async lane")
        super().__init__(
            service, arrivals, scenario=scenario, deadline=deadline,
            admission_capacity=admission_capacity, window_s=window_s,
            op_seed=op_seed, diagnose=diagnose, cancel_grace=cancel_grace,
            drain_timeout=drain_timeout)

    def _params(self) -> dict[str, Any]:
        return {"frontend": "asyncio", **super()._params()}

    def _drive(self, schedule, ops, ledger):
        # the service starts and stops on the calling thread; only the
        # request traffic itself runs on the event loop
        return {"loop_probe": asyncio.run(self._serve(schedule, ops, ledger))}

    async def _serve(self, schedule, ops, ledger) -> dict[str, float]:
        service = self.service
        loop = asyncio.get_running_loop()
        tasks: set[asyncio.Task] = set()
        probe_drifts: list[float] = []
        probe_stop = asyncio.Event()

        async def probe() -> None:
            # if any await in this loop ever blocks the loop *thread*
            # (a parked monitor lock, a blocking future.get), every
            # scheduled callback — including this one — fires late
            expected = time.monotonic() + PROBE_INTERVAL_S
            while not probe_stop.is_set():
                await asyncio.sleep(max(0.0, expected - time.monotonic()))
                now = time.monotonic()
                probe_drifts.append(max(0.0, now - expected))
                expected = now + PROBE_INTERVAL_S

        async def one_request(offset: float, op: Any) -> None:
            group = service.group(op)
            deadline = ledger.start + offset + self.deadline
            token = CancelToken()
            backstop = loop.call_later(
                max(0.0, deadline - time.monotonic()) + self.cancel_grace,
                token.cancel)
            failure = None
            try:
                await service.handle_async(op, deadline, token)
            except Exception as exc:  # noqa: BLE001 - full accounting
                failure = exc
            finally:
                backstop.cancel()
            ledger.settle(group, offset, failure)

        ledger.start = start = time.monotonic()
        probe_task = asyncio.ensure_future(probe())
        try:
            for offset, op in zip(schedule, ops):
                delay = start + offset - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                if len(tasks) >= self.admission_capacity:
                    ledger.shed(service.group(op), offset)
                    continue
                ledger.admit()
                task = asyncio.ensure_future(one_request(offset, op))
                tasks.add(task)
                task.add_done_callback(tasks.discard)

            if tasks:
                await asyncio.wait(tasks, timeout=self.drain_timeout)
        finally:
            probe_stop.set()
            probe_task.cancel()
            for task in tasks:  # lost requests: counted, not awaited
                task.cancel()

        ledger.elapsed = time.monotonic() - start
        return _summarize_probe(probe_drifts)


def _summarize_probe(drifts: list[float]) -> dict[str, float]:
    if not drifts:
        return {"samples": 0, "max_drift_ms": 0.0, "p95_drift_ms": 0.0}
    ordered = sorted(drifts)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return {
        "samples": len(drifts),
        "max_drift_ms": round(ordered[-1] * 1e3, 3),
        "p95_drift_ms": round(p95 * 1e3, 3),
    }


# --------------------------------------------------------------------------
# scenario entry points (the async halves of the steady / burst lanes)
# --------------------------------------------------------------------------

def run_steady_load_async(
    service: str = "buffer",
    *,
    rate: float = 60.0,
    duration: float = 3.0,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.5,
    admission_capacity: int = 1024,
    slo: Optional[SLO] = None,
    strict: bool = True,
    service_kwargs: Optional[dict[str, Any]] = None,
) -> LoadReport:
    """Poisson arrivals on the coroutine frontend — same SLO as threaded."""
    sim = AsyncLoadSimulator(
        make_service(service, seed=seed, **(service_kwargs or {})),
        PoissonArrivals(rate, duration, seed),
        scenario="steady_async",
        deadline=deadline,
        admission_capacity=admission_capacity,
    )
    return _steady_lane(sim, slo, strict)


def run_burst_load_async(
    service: str = "buffer",
    *,
    base_rate: float = 30.0,
    burst_rate: float = 150.0,
    duration: float = 3.0,
    period: float = 1.0,
    burst_fraction: float = 0.25,
    seed: int = DEFAULT_SEED,
    deadline: float = 0.3,
    admission_capacity: int = 64,
    slo: Optional[SLO] = None,
    strict: bool = True,
    service_kwargs: Optional[dict[str, Any]] = None,
) -> LoadReport:
    """On/off overload on the coroutine frontend; recovery asserted."""
    sim = AsyncLoadSimulator(
        make_service(service, seed=seed, **(service_kwargs or {})),
        BurstArrivals(base_rate, burst_rate, duration, seed,
                      period=period, burst_fraction=burst_fraction),
        scenario="burst_async",
        deadline=deadline,
        admission_capacity=admission_capacity,
    )
    return _burst_lane(sim, slo, strict)
