"""The five end-to-end workloads, each run in a process of its own.

Every workload builds its monitors in :meth:`Workload.setup`, drives load
in :meth:`Workload.run` — 1 s of warm-up, then the timed phase — and
verifies its outputs in :meth:`Workload.check`.  Client load comes from at
most two threads (or one event-loop thread); every other thread the
workload starts is a *bystander* parked on a predicate that stays false
for the whole timed phase, so it costs signaling work but never a core.

What is measured in the timed phase, ``[t0, t1)`` on the monotonic clock,
cut into 1-s slices:

* operations completed per slice;
* per-operation latency, per slice, into a fixed-size log histogram (0.25%
  bins, log-interpolated), so memory, and with it ``rss_mb``, does not
  grow with throughput;
* process CPU at every slice boundary, and the host-speed probe
  (:mod:`hostspeed`) five times per slice;
* per-thread CPU and the monitors' counters at ``t0`` and ``t1``.

Inputs derive from the seed alone.
"""

from __future__ import annotations

import collections
import math
import random
import statistics
import threading
import time
from typing import Callable, Optional

import hostspeed
from repro.core import Monitor, S
from repro.loadsim import AsyncLoadSimulator, LoadSimulator, PoissonArrivals
from repro.loadsim.report import SLOViolation
from repro.loadsim.services import BufferService
from repro.multi import global_condition_metrics, local, multisynch
from repro.preprocess import monitor_compile, waituntil
from repro.problems.bounded_buffer import ActiveBoundedQueue
from repro.problems.pizza_store import CAPACITY, MonitorStore, make_recipes
from repro.resilience import CancelToken
from repro.runtime.errors import WaitCancelledError

#: the timed phase is cut into slices about this long
SLICE_S = 1.0
#: host-speed probes per slice (each ~0.8 ms of one thread's time)
PROBES_PER_SLICE = 5
#: seconds a bystander crowd may take to park, or a thread to stop
PARK_TIMEOUT_S = 10.0
JOIN_TIMEOUT_S = 10.0
#: put timestamps ride a ring this long; it must exceed the items in flight
RING = 64


class LatencyHist:
    """Log-bucketed latency histogram with 0.25% bins from 0.1 µs to 100 s.

    Quantiles interpolate within a bin on the log scale, so they carry
    all their digits instead of snapping to bucket edges.
    """

    _MIN = 1e-7
    _LOG_GROWTH = math.log(1.0025)
    _BINS = int(math.log(100.0 / _MIN) / _LOG_GROWTH) + 2

    __slots__ = ("counts", "n")

    def __init__(self) -> None:
        self.counts = [0] * self._BINS
        self.n = 0

    def add(self, seconds: float) -> None:
        idx = (int(math.log(seconds / self._MIN) / self._LOG_GROWTH)
               if seconds > self._MIN else 0)
        self.counts[min(idx, self._BINS - 1)] += 1
        self.n += 1

    def quantile(self, q: float) -> float:
        """Latency (seconds) at quantile ``q`` in (0, 1]; 0 when empty."""
        target = q * self.n
        seen = 0
        for idx, c in enumerate(self.counts):
            if c and seen + c >= target:
                frac = (target - seen) / c
                return self._MIN * math.exp((idx + frac) * self._LOG_GROWTH)
            seen += c
        return 0.0


class Meter:
    """Completions, latencies and CPU of the timed phase, per slice.

    One thread writes :meth:`done`; one thread runs :meth:`sample`.
    """

    def __init__(self, warmup: float, seconds: float,
                 slow_s: Optional[float] = None):
        self.warmup = warmup
        self.seconds = seconds
        self.n_slices = max(1, round(seconds / SLICE_S))
        self.slice_len = seconds / self.n_slices
        self.ops_in = [0] * self.n_slices
        self.hists = [LatencyHist() for _ in range(self.n_slices)]
        #: process CPU seconds and host-speed probe (ms) at each boundary
        self.cpu_at: list[float] = []
        self.probe_at: list[float] = []
        self.slow_s = slow_s
        self.slow = 0
        self.t0 = self.t1 = 0.0
        self.started = threading.Event()
        self.at_t0: dict = {}
        self.at_t1: dict = {}

    def start(self, first_op: float) -> None:
        """Anchor the timed phase ``warmup`` seconds after the first op."""
        self.t0 = first_op + self.warmup
        self.t1 = self.t0 + self.seconds
        self.started.set()

    def done(self, began: float, finished: float) -> None:
        if not self.t0 <= finished < self.t1:
            return
        k = min(int((finished - self.t0) / self.slice_len), self.n_slices - 1)
        self.ops_in[k] += 1
        latency = finished - began
        self.hists[k].add(latency)
        if self.slow_s is not None and latency > self.slow_s:
            self.slow += 1

    @property
    def ops(self) -> int:
        return sum(self.ops_in)

    def merged(self) -> LatencyHist:
        out = LatencyHist()
        for h in self.hists:
            out.n += h.n
            out.counts = [a + b for a, b in zip(out.counts, h.counts)]
        return out

    def sample(self, collect: Callable[[], dict]) -> None:
        """Read the process CPU clock at every slice boundary, and take
        ``collect()`` snapshots at ``t0`` and ``t1``."""
        self.started.wait()
        tick = self.slice_len / PROBES_PER_SLICE
        for k in range(self.n_slices * PROBES_PER_SLICE + 1):
            _sleep_until(self.t0 + k * tick)
            if k % PROBES_PER_SLICE == 0:
                self.cpu_at.append(time.process_time())
            self.probe_at.append(hostspeed.probe_ms())
            if k == 0:
                self.at_t0 = collect()
        self.at_t1 = collect()

    def slices(self) -> dict[str, list[float]]:
        """Per slice: completions per second, p50 latency (ms), process
        CPU per completion (µs), and the host speed (from the median of the
        probes taken in the slice, both ends included)."""
        cpu = [b - a for a, b in zip(self.cpu_at, self.cpu_at[1:])]
        per = PROBES_PER_SLICE
        return {
            "ops_per_s": [n / self.slice_len for n in self.ops_in],
            "p50_ms": [h.quantile(0.5) * 1e3 for h in self.hists],
            "cpu_us_per_req": [c / max(1, n) * 1e6
                               for c, n in zip(cpu, self.ops_in)],
            "speed": [hostspeed.speed(statistics.median(
                self.probe_at[k * per:(k + 1) * per + 1]))
                for k in range(self.n_slices)],
        }


def _sleep_until(t: float) -> None:
    while True:
        left = t - time.monotonic()
        if left <= 0:
            return
        time.sleep(left)


def thread_cpu() -> dict[int, tuple[str, float]]:
    """CPU seconds of every live thread, by ident."""
    out = {}
    for t in threading.enumerate():
        try:
            clock = time.pthread_getcpuclockid(t.ident)
            out[t.ident] = (t.name, time.clock_gettime(clock))
        except (OSError, TypeError):   # thread exited between the calls
            pass
    return out


def _counters(monitors) -> dict[str, float]:
    total: dict[str, float] = collections.Counter()
    for m in monitors:
        total.update(m.metrics.snapshot())
    for key, value in global_condition_metrics.snapshot().items():
        total["global." + key] = value
    return dict(total)


class Workload:
    """Base: set up, run for warm-up + timed phase, check, tear down."""

    name = ""
    #: name prefixes of the threads serving open-loop requests
    worker_threads: tuple[str, ...] = ()
    #: operation latency is mostly CPU work, so it is reported at the
    #: reference host speed (see hostspeed)
    latency_is_cpu_work = True

    def __init__(self, seed: int, warmup: float, seconds: float):
        self.seed = seed
        self.warmup = warmup
        self.seconds = seconds
        self.meter = Meter(warmup, seconds)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Correctness problems found after :meth:`teardown` (empty when
        the outputs are right)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release bystanders and stop servers."""
        raise NotImplementedError

    def monitors(self) -> list:
        raise NotImplementedError

    def collect(self) -> dict:
        return {"cpu": time.process_time(), "threads": thread_cpu(),
                "counters": _counters(self.monitors())}

    def extra(self) -> dict:
        """Workload-specific values reported beside the metrics."""
        return {}

    # ------------------------------------------------------------- helpers
    def _guard(self, fn: Callable) -> Callable:
        def run() -> None:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported as failure
                self.errors.append(f"{fn.__name__}: {exc!r}")
                raise
        return run

    def _drive(self, clients: list[Callable], stop: threading.Event,
               finish: Callable[[list], None] = lambda threads: None) -> None:
        """Closed loop: start the clients, sample the timed phase, set
        ``stop``, run ``finish(threads)``, join."""
        threads = [threading.Thread(target=self._guard(fn), name=fn.__name__,
                                    daemon=True) for fn in clients]
        self.meter.start(time.monotonic())
        for t in threads:
            t.start()
        self.meter.sample(self.collect)
        stop.set()
        finish(threads)
        _join(threads, self.errors)


def _join(threads, errors: list[str]) -> None:
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            errors.append(f"thread {t.name} did not stop")


def _wait_for(predicate: Callable[[], bool], what: str) -> None:
    deadline = time.monotonic() + PARK_TIMEOUT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.001)


# --------------------------------------------------------------- relay_crowd

@monitor_compile
class CrowdBuffer(Monitor):
    """A ring buffer whose every exit re-evaluates a crowd of bystanders."""

    def __init__(self, capacity):
        super().__init__()
        self.items = [None] * capacity
        self.put_ptr = 0
        self.take_ptr = 0
        self.count = 0
        self.capacity = capacity
        self.released = 0

    def put(self, item):
        waituntil(self.count < self.capacity)
        self.items[self.put_ptr] = item
        self.put_ptr = (self.put_ptr + 1) % self.capacity
        self.count += 1

    def take(self):
        waituntil(self.count > 0)
        item = self.items[self.take_ptr]
        self.take_ptr = (self.take_ptr + 1) % self.capacity
        self.count -= 1
        return item

    def await_threshold(self, extra, token):
        self.wait_until(S.count >= self.capacity + 1 + extra, cancel=token)

    def await_release(self, extra):
        waituntil(self.count > self.capacity + extra or self.released == 1)

    def release(self):
        self.released = 1


class RelayCrowd(Workload):
    """1 producer + 1 consumer on a capacity-8 compiled buffer, with 16
    threshold and 16 disjunction bystanders reading ``count``."""

    name = "relay_crowd"
    CAPACITY = 8
    BYSTANDERS = 16
    VALUES = 4096

    def monitors(self) -> list:
        return [self.buf]

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.values = [rng.randrange(1 << 30) for _ in range(self.VALUES)]
        self.buf = CrowdBuffer(self.CAPACITY)
        self.tokens = [CancelToken() for _ in range(self.BYSTANDERS)]
        self.wakes: list[tuple[str, float]] = []
        self.bystanders = [
            threading.Thread(target=self._threshold, args=(i,), daemon=True)
            for i in range(self.BYSTANDERS)
        ] + [
            threading.Thread(target=self._disjunction, args=(i,), daemon=True)
            for i in range(self.BYSTANDERS)
        ]
        for t in self.bystanders:
            t.start()
        crowd = 2 * self.BYSTANDERS
        _wait_for(lambda: self.buf.waiting_count() == crowd, "bystanders")
        self.released_at = math.inf

    def _threshold(self, i: int) -> None:
        try:
            self.buf.await_threshold(i, self.tokens[i])
            self.wakes.append(("threshold returned", time.monotonic()))
        except WaitCancelledError:
            self.wakes.append(("threshold cancelled", time.monotonic()))

    def _disjunction(self, i: int) -> None:
        self.buf.await_release(i)
        self.wakes.append(("disjunction returned", time.monotonic()))

    def run(self) -> None:
        stop = threading.Event()
        ring = [0.0] * RING
        put, take, values = self.buf.put, self.buf.take, self.values
        done, mono = self.meter.done, time.monotonic
        self.produced = self.consumed = 0
        self.seen: collections.Counter = collections.Counter()

        def producer() -> None:
            k = 0
            while not stop.is_set():
                ring[k % RING] = mono()
                put(values[k % self.VALUES])
                k += 1
                self.produced = k
            put(None)

        def consumer() -> None:
            k = 0
            seen = self.seen
            while True:
                v = take()
                now = mono()
                if v is None:
                    break
                done(ring[k % RING], now)
                seen[v] += 1
                k += 1
                self.consumed = k

        self._drive([producer, consumer], stop)
        self.attempted = self.produced
        self.failed = self.produced - self.consumed

    def teardown(self) -> None:
        self.released_at = time.monotonic()
        self.buf.release()
        for token in self.tokens:
            token.cancel()
        _join(self.bystanders, self.errors)

    def check(self) -> list[str]:
        problems = []
        full, rest = divmod(self.produced, self.VALUES)
        expected = collections.Counter(self.values[:rest])
        if full:
            for v in self.values:
                expected[v] += full
        if expected != self.seen:
            problems.append("consumed multiset differs from produced")
        want = {"threshold cancelled": self.BYSTANDERS,
                "disjunction returned": self.BYSTANDERS}
        got = collections.Counter(kind for kind, _ in self.wakes)
        if got != want:
            problems.append(f"bystander outcomes {dict(got)}, want {want}")
        early = [kind for kind, t in self.wakes if t < self.released_at]
        if early:
            problems.append(f"{len(early)} bystanders woke before release")
        return problems


# --------------------------------------------------------- delegate_pipeline

class DelegatePipeline(Workload):
    """1 producer (``@asynchronous`` put) + 1 consumer (``@synchronous``
    take) on ``ActiveBoundedQueue(16, mode="async")`` and its server."""

    name = "delegate_pipeline"
    CAPACITY = 16

    def monitors(self) -> list:
        return [self.queue]

    def setup(self) -> None:
        self.queue = ActiveBoundedQueue(self.CAPACITY, mode="async")

    def run(self) -> None:
        stop = threading.Event()
        ring = [0.0] * RING
        put, take = self.queue.put, self.queue.take
        done, mono = self.meter.done, time.monotonic
        self.produced = self.consumed = 0
        self.task_failures = 0
        self.out_of_order: list[tuple[int, int]] = []

        def producer() -> None:
            k = 0
            prev = None
            while not stop.is_set():
                ring[k % RING] = mono()
                future = put(k)
                # Rule 2: the put above waited for ``prev`` to complete
                if prev is not None and prev.exception() is not None:
                    self.task_failures += 1
                prev = future
                k += 1
                self.produced = k
            put(-1).get(timeout=JOIN_TIMEOUT_S)
            if prev is not None and prev.exception() is not None:
                self.task_failures += 1

        def consumer() -> None:
            k = 0
            while True:
                v = take()
                now = mono()
                if v == -1:
                    break
                if v != k and len(self.out_of_order) < 5:
                    self.out_of_order.append((k, v))
                done(ring[k % RING], now)
                k += 1
                self.consumed = k

        self._drive([producer, consumer], stop)
        self.attempted = self.produced
        self.failed = self.task_failures + len(self.errors)

    def teardown(self) -> None:
        self.queue.shutdown()

    def check(self) -> list[str]:
        problems = []
        if self.out_of_order:
            problems.append(
                f"consumer saw items out of order (want, got): "
                f"{self.out_of_order}")
        if self.consumed != self.produced:
            problems.append(
                f"produced {self.produced} items, consumed {self.consumed}")
        if self.task_failures:
            problems.append(f"{self.task_failures} delegated puts failed")
        return problems


# ---------------------------------------------------------- multisynch_store

class MultisynchStore(Workload):
    """1 cook + 1 supplier on ``MonitorStore("CC")`` (15 ingredient
    monitors) with 16 bystander global waiters on 2-ingredient
    conjunctions that stay false.

    The supplier restocks exactly what the cook's (seeded) recipe sequence
    consumes, in the same order, waiting for room first: stock never
    exceeds ``CAPACITY``, so it is conserved exactly.  The supplier waits
    for room only while it is ahead of the cook, and the cook waits only
    while the supplier is behind, so they never wait on each other at
    once.
    """

    name = "multisynch_store"
    BYSTANDERS = 16
    PLAN = 4096

    def monitors(self) -> list:
        return self.store.ingredients

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.recipes = make_recipes(self.seed)
        self.plan = [self.recipes[rng.randrange(len(self.recipes))]
                     for _ in range(self.PLAN)]
        self.store = MonitorStore("CC")
        ings = self.store.ingredients
        self.room = {(i, n): local(ing, S.quantity <= CAPACITY - n)
                     for i, ing in enumerate(ings)
                     for n in range(1, CAPACITY + 1)}
        self.tokens = [CancelToken() for _ in range(self.BYSTANDERS)]
        self.wakes: list[tuple[str, float]] = []
        self.released_at = math.inf
        pairs = [rng.sample(range(len(ings)), 2)
                 for _ in range(self.BYSTANDERS)]
        parked = threading.Semaphore(0)
        self.bystanders = [
            threading.Thread(target=self._bystander,
                             args=(ings[a], ings[b], token, parked),
                             daemon=True)
            for (a, b), token in zip(pairs, self.tokens)
        ]
        for t in self.bystanders:
            t.start()
        for _ in pairs:
            if not parked.acquire(timeout=PARK_TIMEOUT_S):
                raise RuntimeError("timed out waiting for bystanders")
        # each bystander holds both locks from before it signals ``parked``
        # until it has registered its global waiter
        for (a, b) in pairs:
            with multisynch(ings[a], ings[b]):
                pass

    def _bystander(self, a, b, token, parked) -> None:
        never = (local(a, S.quantity > CAPACITY)
                 & local(b, S.quantity > CAPACITY))
        try:
            with multisynch(a, b) as ms:
                parked.release()
                ms.wait_until(never, cancel=token)
            self.wakes.append(("returned", time.monotonic()))
        except WaitCancelledError:
            self.wakes.append(("cancelled", time.monotonic()))

    def run(self) -> None:
        stop = threading.Event()
        supply_stop = CancelToken()
        n = len(self.store.ingredients)
        self.supplied = [0] * n
        self.consumed = [0] * n
        self.negative: list[int] = []
        self.cooked = 0
        ings, plan, room = self.store.ingredients, self.plan, self.room
        cook_one, done, mono = self.store.cook, self.meter.done, time.monotonic

        def cook() -> None:
            k = 0
            while not stop.is_set():
                recipe = plan[k % self.PLAN]
                began = mono()
                cook_one(recipe)
                done(began, mono())
                for i, need in recipe.items():
                    self.consumed[i] += need
                    if ings[i].quantity < 0:   # only this thread consumes
                        self.negative.append(i)
                k += 1
                self.cooked = k

        def supplier() -> None:
            k = 0
            try:
                while True:
                    for i, need in plan[k % self.PLAN].items():
                        with multisynch(ings[i]) as ms:
                            ms.wait_until(room[i, need], cancel=supply_stop)
                            ings[i].produce(need)
                        self.supplied[i] += need
                    k += 1
            except WaitCancelledError:
                pass   # shut down while waiting for room

        def finish(threads) -> None:
            # the supplier keeps the cook's current recipe stocked, so the
            # cook stops first; only then is the supplier's wait cancelled
            _join(threads[:1], self.errors)
            supply_stop.cancel()

        self._drive([cook, supplier], stop, finish)
        self.attempted = self.cooked
        self.failed = len(self.errors)

    def teardown(self) -> None:
        self.released_at = time.monotonic()
        for token in self.tokens:
            token.cancel()
        _join(self.bystanders, self.errors)

    def check(self) -> list[str]:
        problems = []
        for i, ing in enumerate(self.store.ingredients):
            want = self.supplied[i] - self.consumed[i]
            if ing.quantity != want or not 0 <= want <= CAPACITY:
                problems.append(
                    f"ingredient {i}: stock {ing.quantity}, supplied "
                    f"{self.supplied[i]} - consumed {self.consumed[i]}")
        if self.negative:
            problems.append(f"negative stock seen on {set(self.negative)}")
        got = collections.Counter(kind for kind, _ in self.wakes)
        if got != {"cancelled": self.BYSTANDERS}:
            problems.append(f"bystander outcomes {dict(got)}")
        early = [kind for kind, t in self.wakes if t < self.released_at]
        if early:
            problems.append(f"{len(early)} bystanders woke before release")
        return problems


# ----------------------------------------------------------------- open loop

class _MeasuredBuffer(BufferService):
    """``BufferService`` reporting each request's begin and completion."""

    def __init__(self, workload: "OpenLoop", **kwargs):
        super().__init__(**kwargs)
        self._workload = workload

    def handle(self, op, deadline, cancel=None):
        self._workload.begin(deadline)
        super().handle(op, deadline, cancel)
        self._workload.end(op, deadline)

    async def handle_async(self, op, deadline, cancel=None):
        self._workload.begin(deadline)
        await super().handle_async(op, deadline, cancel)
        self._workload.end(op, deadline)


class OpenLoop(Workload):
    """Poisson arrivals at 2000 rps on ``BufferService(capacity=4096,
    prefill=2048, put_fraction=0.5)``; latency from scheduled arrival."""

    RATE = 2000.0
    DEADLINE_S = 0.5
    SLO_S = 0.005
    #: arrivals continue this long past the timed phase
    TAIL_S = 0.25
    CAPACITY = 4096
    PREFILL = 2048
    ADMISSION = 1024

    def __init__(self, seed: int, warmup: float, seconds: float):
        super().__init__(seed, warmup, seconds)
        self.meter = Meter(warmup, seconds, slow_s=self.SLO_S)
        self.puts = self.takes = 0
        self.first_offset = 0.0
        #: set by the tracer wiring: called with (scheduled, begin)
        self.on_begin: Optional[Callable[[float, float], None]] = None

    def monitors(self) -> list:
        return self.service.monitors()

    def make_simulator(self, service, arrivals):
        raise NotImplementedError

    def setup(self) -> None:
        self.service = _MeasuredBuffer(
            self, seed=self.seed, capacity=self.CAPACITY,
            prefill=self.PREFILL, put_fraction=0.5)
        self.service.start()
        self.arrivals = PoissonArrivals(
            self.RATE, self.warmup + self.seconds + self.TAIL_S, self.seed)
        self.sim = self.make_simulator(self.service, self.arrivals)

    def begin(self, deadline: float) -> None:
        scheduled = deadline - self.DEADLINE_S
        if not self.meter.started.is_set():
            self.meter.start(scheduled - self.first_offset)
        if self.on_begin is not None:
            self.on_begin(scheduled, time.monotonic())

    def end(self, op, deadline: float) -> None:
        self.meter.done(deadline - self.DEADLINE_S, time.monotonic())
        if op[0] == "put":
            self.puts += 1
        else:
            self.takes += 1

    def run(self) -> None:
        self.first_offset = self.arrivals.schedule()[0]
        sampler = threading.Thread(target=self.meter.sample,
                                   args=(self.collect,), daemon=True)
        sampler.start()
        self.report = self.sim.run()
        _join([sampler], self.errors)
        self.attempted = self.report.offered
        self.failed = self.report.offered - self.report.total("completed")

    def teardown(self) -> None:
        self.service.stop()

    def check(self) -> list[str]:
        problems = []
        try:
            self.report.assert_accounted()
        except SLOViolation as exc:
            problems.append(str(exc))
        want = self.PREFILL + self.puts - self.takes
        if self.failed == 0 and self.service.queue.count != want:
            problems.append(
                f"buffer holds {self.service.queue.count}, want prefill "
                f"{self.PREFILL} + puts {self.puts} - takes {self.takes}")
        return problems

    def extra(self) -> dict:
        meter = self.meter
        hist = meter.merged()
        window_p99 = [h.quantile(0.99) for h in meter.hists if h.n]
        return {
            "p99_ms": statistics.median(window_p99) * 1e3 if window_p99 else 0.0,
            "p99_ms_run": hist.quantile(0.99) * 1e3,
            "samples": hist.n,
            "window_samples": [h.n for h in meter.hists],
            "slo_miss_frac": ((meter.slow + self.failed)
                              / max(1, hist.n + self.failed)),
            "loop_probe": self.report.extra.get("loop_probe", {}),
        }


class OpenLoopThreads(OpenLoop):
    """``LoadSimulator`` with one worker: arrival thread + worker thread."""

    name = "openloop_threads"
    worker_threads = ("loadsim-worker-",)

    def make_simulator(self, service, arrivals):
        return LoadSimulator(
            service, arrivals, deadline=self.DEADLINE_S, workers=1,
            admission_capacity=self.ADMISSION, diagnose=True)


class OpenLoopAsyncio(OpenLoop):
    """``AsyncLoadSimulator``: one loop thread generates and serves."""

    name = "openloop_asyncio"
    worker_threads = ("MainThread",)
    # the loop wakes on millisecond-rounded selector timeouts: the p50 rose
    # only from 0.72 to 0.84 ms while the host's speed fell from 1.11 to 0.63
    latency_is_cpu_work = False

    def make_simulator(self, service, arrivals):
        return AsyncLoadSimulator(
            service, arrivals, deadline=self.DEADLINE_S,
            admission_capacity=self.ADMISSION, diagnose=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (RelayCrowd, DelegatePipeline, MultisynchStore,
                              OpenLoopThreads, OpenLoopAsyncio)
}
