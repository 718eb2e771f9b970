"""Production traffic harness: open-loop load, latency SLOs, chaos scenarios.

Every other benchmark in this repo is *closed-loop*: a fixed pool of
threads spins on fixed work, so when the system slows down the offered
load politely slows down with it.  Production traffic does not.  This
package drives monitor-backed services with **open-loop** arrival
processes — requests arrive on a pre-drawn, seeded schedule whether or
not earlier ones finished — and measures what the paper's throughput
figures cannot show: latency percentiles under backpressure, explicit
load shedding, and degradation-and-recovery curves while
:mod:`repro.resilience.chaos` kills server threads mid-run.

Layers:

* :mod:`repro.loadsim.arrivals` — seeded, deterministic arrival
  processes (Poisson, bursty on/off, diurnal ramp);
* :mod:`repro.loadsim.recorder` — HDR-style log-bucketed latency
  histogram (p50/p95/p99/p99.9) plus windowed degradation series;
* :mod:`repro.loadsim.services` — the pizza store, multicast channels,
  and bounded buffer wrapped as *services*: admission queue, per-request
  deadlines via ``wait_until(..., deadline=)``, explicit shedding;
* :mod:`repro.loadsim.scenarios` — the simulator core (op draws,
  service and inspector lifecycle, the outcome ledger, the report), its
  thread driver :class:`LoadSimulator`, and the scenario catalog
  (``run_steady_load`` … ``run_network_partition``);
* :mod:`repro.loadsim.aio` — :class:`AsyncLoadSimulator`, the same core
  under an event-loop driver: thousands of logical clients multiplexed
  onto one loop via :mod:`repro.aio`, with a loop-responsiveness probe;
* :mod:`repro.loadsim.report` — :class:`LoadReport` / :class:`SLO` and
  ``BENCH_load_*.json`` serialization.

The liveness contract, checked on every run (*Ghost Signals* empirically):
every admitted request resolves — completed, timed out, deliberately
shed, or failed fast on a broken monitor.  Zero silently lost futures,
even while chaos kills servers (see docs/loadtest.md).
"""

from repro.loadsim.aio import (
    AsyncLoadSimulator,
    run_burst_load_async,
    run_steady_load_async,
)
from repro.loadsim.arrivals import (
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.loadsim.recorder import LatencyRecorder, WindowedSeries
from repro.loadsim.report import LoadReport, SLO, SLOViolation
from repro.loadsim.scenarios import (
    LoadSimulator,
    run_burst_load,
    run_mixed_workload,
    run_network_partition,
    run_steady_load,
    run_worker_failure,
)
from repro.loadsim.services import SERVICES, Bulkhead, Service, make_service

__all__ = [
    "SERVICES",
    "SLO",
    "SLOViolation",
    "ArrivalProcess",
    "AsyncLoadSimulator",
    "Bulkhead",
    "BurstArrivals",
    "DiurnalArrivals",
    "LatencyRecorder",
    "LoadReport",
    "LoadSimulator",
    "PoissonArrivals",
    "Service",
    "WindowedSeries",
    "make_service",
    "run_burst_load",
    "run_burst_load_async",
    "run_mixed_workload",
    "run_network_partition",
    "run_steady_load",
    "run_steady_load_async",
    "run_worker_failure",
]
