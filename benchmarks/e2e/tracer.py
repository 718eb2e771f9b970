"""In-memory span tracing for the benchmark's ``--trace`` runs.

The tracer never edits ``src/``: :func:`install` replaces entry points of
``repro.core``, ``repro.active``, ``repro.multi``, ``repro.loadsim``,
``repro.resilience`` and ``repro.aio`` with wrappers defined here, each of
which records one span around the original call.

A span is ``(id, parent, name, start_ns, end_ns, request)`` on the
monotonic clock, appended to a list owned by the thread that ran it.  The
parent is the innermost open span of the same thread; the request is the
outermost one, so every span of one request (one ``Service.handle`` call,
for instance) shares it.  Coroutine spans (``repro.aio``) interleave on
the event-loop thread, so they are recorded as roots and never parent
anything.  A layer's *self time* is its duration minus the part of that
interval its child spans cover.

Exit hooks bind when a waiter registers, so :func:`install` must run
before the workload builds its monitors.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable, Optional

#: (id, parent id or 0, name index, start ns, end ns, request id)
Span = tuple

#: spans exported to the Chrome trace: the first EXPORT_S of the timed
#: phase, at most EXPORT_MAX events (a full run holds ~10^5-10^6 spans)
EXPORT_S = 0.25
EXPORT_MAX = 50_000


class Tracer:
    """Per-thread span lists plus the cross-thread stamps the layers need."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: (thread ident, thread name, span list) per thread that recorded
        self._threads: list[tuple[int, str, list]] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        #: delegated task creation time by future; popped when it starts
        self._created: dict[Any, int] = {}
        #: (created ns, started ns) per delegated task that ran
        self.residency: list[tuple[int, int]] = []
        #: admission-queue put times on the load generator's thread
        self.admissions: list[int] = []
        self.arrival_thread: Optional[int] = None

    # ------------------------------------------------------------ recording
    def _state(self) -> tuple[list, list]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], [])
            self._local.state = state
            current = threading.current_thread()
            with self._lock:
                self._threads.append((current.ident, current.name, state[1]))
            return state

    def name_index(self, name: str) -> int:
        with self._lock:
            idx = self._name_index.get(name)
            if idx is None:
                idx = self._name_index[name] = len(self.names)
                self.names.append(name)
            return idx

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span per call, nested under the caller's span."""
        idx = self.name_index(name)
        state, ids, clock = self._state, self._ids, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = state()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, parent, idx, start, end, stack[0] if stack else sid))

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """Coroutine ``fn`` with one root span per await of it."""
        idx = self.name_index(name)
        state, ids, clock = self._state, self._ids, time.monotonic_ns

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid = next(ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                state()[1].append((sid, 0, idx, start, end, sid))

        return traced

    def task_created(self, future: Any) -> None:
        self._created[future] = time.monotonic_ns()

    def task_started(self, future: Any) -> None:
        created = self._created.pop(future, None)
        if created is not None:
            self.residency.append((created, time.monotonic_ns()))

    # -------------------------------------------------------------- reading
    def threads(self) -> list[tuple[int, str, list[Span]]]:
        """A snapshot of every thread's spans (threads may still record)."""
        with self._lock:
            return [(ident, name, list(spans))
                    for ident, name, spans in self._threads]


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus the union of the
    intervals its children cover, clipped to the span itself.

    Spans whose parent is absent (still open when the list was read) count
    as roots.  Never negative: the covered part is clipped to the span.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def nesting_errors(spans: Iterable[Span]) -> list[str]:
    """Children that start before or end after their parent (same thread)."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, parent, _, start, end, _ in by_id.values():
        if end < start:
            errors.append(f"span {sid} ends before it starts")
        outer = by_id.get(parent)
        if outer is not None and not (outer[3] <= start and end <= outer[4]):
            errors.append(f"span {sid} escapes its parent {parent}")
    return errors


# ------------------------------------------------------------------- layers

def install(tracer: Tracer) -> None:
    """Wrap the layer entry points named in the README's layer table."""
    import queue

    from repro.active.activemonitor import ActiveMonitor
    from repro.active.futures import LightFuture
    from repro.active.server import MonitorServer
    from repro.active.tasks import MonitorTask
    from repro.aio.client import AsyncMonitorClient
    from repro.core.condition_manager import ConditionManager
    from repro.core.monitor import Monitor
    from repro.loadsim.services import BufferService
    from repro.multi import manager
    from repro.multi.multisync import Multisynch
    from repro.resilience.cancellation import CancelToken

    def patch(owner, attr: str, name: str) -> None:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))

    patch(ConditionManager, "relay_signal", "core.signal")
    patch(ConditionManager, "direct_signal", "core.signal")
    patch(ConditionManager, "wait_blocking", "core.park")
    patch(Monitor, "_monitor_enter", "core.enter")
    patch(MonitorServer, "submit", "active.submit")
    patch(ActiveMonitor, "submit_nowait", "active.submit")
    patch(LightFuture, "get", "active.future_wait")
    patch(Multisynch, "__enter__", "multi.acquire")
    patch(Multisynch, "__exit__", "multi.release")
    patch(Multisynch, "wait_until", "multi.global_wait")
    patch(manager, "_on_monitor_exit", "multi.exit_hook")
    patch(CancelToken, "cancel_after", "resilience.cancel_after")
    patch(BufferService, "handle", "loadsim.service")
    for attr, name in (("wait_until", "aio.wait_until"), ("call", "aio.call")):
        setattr(AsyncMonitorClient, attr,
                tracer.wrap_async(getattr(AsyncMonitorClient, attr), name))
    BufferService.handle_async = tracer.wrap_async(
        BufferService.handle_async, "loadsim.service")

    # residency: task creation (both submission paths acquire a shell
    # right before enqueueing it) to the start of its execution
    acquire = MonitorTask.__dict__["acquire"].__func__

    def traced_acquire(cls, *args, **kwargs):
        task = acquire(cls, *args, **kwargs)
        tracer.task_created(task.future)
        return task

    MonitorTask.acquire = classmethod(functools.wraps(acquire)(traced_acquire))
    execute = tracer.wrap(MonitorTask.execute, "active.task")

    def traced_execute(task, monitor):
        tracer.task_started(task.future)
        return execute(task, monitor)

    MonitorTask.execute = traced_execute

    # admission: the threaded simulator's queue put on the arrival thread
    put_nowait = queue.Queue.put_nowait

    def traced_put_nowait(q, item):
        put_nowait(q, item)
        if threading.get_ident() == tracer.arrival_thread:
            tracer.admissions.append(time.monotonic_ns())

    queue.Queue.put_nowait = traced_put_nowait


# ------------------------------------------------------------------ reports

def durations_by_name(tracer: Tracer, t0_ns: int, t1_ns: int
                      ) -> dict[str, list[int]]:
    """Durations (ns) of the spans inside ``[t0, t1)``, by span name.

    A span nested in a span of the same name (``direct_signal`` falling
    back to ``relay_signal``) is part of its parent's duration and is not
    counted again.
    """
    out: dict[str, list[int]] = {}
    for _, _, spans in tracer.threads():
        names = {s[0]: s[2] for s in spans}
        for sid, parent, idx, start, end, _ in spans:
            if start < t0_ns or end >= t1_ns or names.get(parent) == idx:
                continue
            out.setdefault(tracer.names[idx], []).append(end - start)
    return out


def layer_table(tracer: Tracer, t0_ns: int, t1_ns: int) -> list[dict]:
    """Per span name: count, p50/p99 duration (µs) and total self time
    (ms) of the spans inside ``[t0, t1)``."""
    totals: dict[str, list] = {}
    for _, _, spans in tracer.threads():
        own = self_times(spans)
        for sid, _, idx, start, end, _ in spans:
            if start < t0_ns or end >= t1_ns:
                continue
            row = totals.setdefault(tracer.names[idx], [[], 0])
            row[0].append(end - start)
            row[1] += own[sid]
    table = []
    for name in sorted(totals):
        durs, self_ns = totals[name]
        table.append({
            "span": name,
            "n": len(durs),
            "p50_us": quantile(durs, 0.50) / 1e3,
            "p99_us": quantile(durs, 0.99) / 1e3,
            "self_ms": self_ns / 1e6,
        })
    return table


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


#: span name -> (per-layer metric, ns per unit)
DURATIONS = {
    "core.signal": ("core.signal_us", 1e3),
    "core.park": ("core.park_us", 1e3),
    "core.enter": ("core.enter_wait_us", 1e3),
    "active.submit": ("active.submit_us", 1e3),
    "active.task": ("active.task_us", 1e3),
    "active.future_wait": ("active.future_wait_us", 1e3),
    "multi.acquire": ("multi.acquire_us", 1e3),
    "multi.release": ("multi.release_us", 1e3),
    "multi.global_wait": ("multi.global_wait_us", 1e3),
    "multi.exit_hook": ("multi.exit_hook_us", 1e3),
    "loadsim.service": ("loadsim.service_ms", 1e6),
    "resilience.cancel_after": ("resilience.cancel_after_us", 1e3),
    "aio.wait_until": ("aio.wait_until_us", 1e3),
    "aio.call": ("aio.call_us", 1e3),
}

#: thread-name prefixes of the resilience daemons
DAEMONS = ("repro-stall-watchdog", "repro-obligation-tracker",
           "repro-cancel-scheduler")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cpu_by_name(at_t0: dict, at_t1: dict) -> dict[str, float]:
    """CPU seconds each thread spent in the timed phase, by thread name."""
    out: dict[str, float] = {}
    for ident, (name, end) in at_t1.items():
        if ident in at_t0:
            out[name] = out.get(name, 0.0) + end - at_t0[ident][1]
    return out


def per_layer(tracer: Tracer, meter, begins: list[tuple[float, float]],
              worker_threads: tuple[str, ...], loop_probe: dict
              ) -> dict[str, float]:
    """Every per-layer metric of one traced timed phase.

    ``begins`` holds ``(scheduled, began)`` per open-loop request;
    ``worker_threads`` names the threads that serve requests.  A layer
    the workload never enters reports 0 with ``.n`` 0.
    """
    t0, t1 = int(meter.t0 * 1e9), int(meter.t1 * 1e9)
    wall = meter.t1 - meter.t0
    ops = max(1, meter.ops)
    out: dict[str, float] = {}

    def dist(metric: str, samples: list, scale: float) -> None:
        out[metric + ".p50"] = quantile(samples, 0.50) / scale
        out[metric + ".p99"] = quantile(samples, 0.99) / scale
        out[metric + ".n"] = len(samples)

    durations = durations_by_name(tracer, t0, t1)
    for span, (metric, scale) in DURATIONS.items():
        dist(metric, durations.get(span, []), scale)
    dist("active.residency_us",
         [started - created for created, started in tracer.residency
          if t0 <= started < t1], 1e3)

    before, after = meter.at_t0["counters"], meter.at_t1["counters"]
    c = {k: after[k] - before.get(k, 0) for k in after}
    signals = len(durations.get("core.signal", []))
    out["core.signal_calls_per_op"] = signals / ops
    out["core.evals_per_op"] = c["predicate_evals"] / ops
    out["core.direct_frac"] = _ratio(c["relay_skipped_aot"], signals)
    out["core.aot_fallback_frac"] = _ratio(
        c["relay_aot_fallbacks"],
        c["relay_skipped_aot"] + c["relay_aot_fallbacks"])
    out["core.waits_per_op"] = c["waits"] / ops
    out["core.futile_wakeup_frac"] = _ratio(c["futile_wakeups"], c["wakeups"])
    out["active.combined_frac"] = _ratio(c["tasks_combined"],
                                         c["tasks_submitted"])
    out["active.items_per_steal"] = _ratio(c["steal_items"], c["steal_batches"])
    out["multi.false_evals_per_op"] = c["global.false_evals"] / ops
    out["multi.gen_skips_per_op"] = c["global.gen_skips"] / ops

    cpu = _cpu_by_name(meter.at_t0["threads"], meter.at_t1["threads"])

    def cpu_of(prefixes: tuple[str, ...]) -> float:
        return sum(s for name, s in cpu.items() if name.startswith(prefixes))

    out["active.server_cpu_frac"] = cpu_of(("monitor-server-",)) / wall
    out["loadsim.worker_cpu_frac"] = (cpu_of(worker_threads) / wall
                                      if worker_threads else 0.0)
    out["resilience.daemon_cpu_ms"] = cpu_of(DAEMONS) * 1e3 / wall

    # open loop: begins pair in order with the admission puts (one FIFO
    # worker), and both with the requests' scheduled arrival times
    admission, lag = [], []
    paired = len(tracer.admissions) == len(begins)
    for k, (scheduled, began) in enumerate(begins):
        if not meter.t0 <= began < meter.t1:
            continue
        if paired:
            admitted = tracer.admissions[k] / 1e9
            admission.append(began - admitted)
            lag.append(admitted - scheduled)
        else:
            lag.append(began - scheduled)
    dist("loadsim.admission_wait_ms", admission, 1e-3)
    dist("loadsim.gen_lag_ms", lag, 1e-3)
    out["loadsim.loop_drift_ms.p95"] = loop_probe.get("p95_drift_ms", 0.0)
    out["loadsim.loop_drift_ms.max"] = loop_probe.get("max_drift_ms", 0.0)
    out["loadsim.loop_drift_ms.n"] = loop_probe.get("samples", 0)
    return out


def write_chrome_trace(tracer: Tracer, path, t0_ns: int) -> int:
    """Write the first EXPORT_S of the timed phase as Chrome trace-event
    JSON (opens in Perfetto / chrome://tracing); returns the event count."""
    events: list[dict] = []
    end_ns = t0_ns + int(EXPORT_S * 1e9)
    for tid, (ident, name, spans) in enumerate(tracer.threads(), start=1):
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": tid, "args": {"name": name}})
        own = self_times(spans)
        for sid, parent, idx, start, end, request in spans:
            if start < t0_ns or start >= end_ns or len(events) >= EXPORT_MAX:
                continue
            layer = tracer.names[idx]
            events.append({
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "pid": 1, "tid": tid,
                "ts": (start - t0_ns) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": sid, "parent": parent, "request": request,
                         "self_us": own[sid] / 1e3},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
