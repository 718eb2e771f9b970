"""Monitor-backed *services*: the paper's problems behind a request API.

A :class:`Service` adapts one evaluation problem (bounded buffer, pizza
store, multicast channels) to the shape the load simulator drives:

* ``make_op(rng)`` draws one request deterministically from the op seed;
* ``handle(op, deadline, cancel)`` executes it with a per-request
  deadline riding on ``wait_until(..., deadline=)`` (or on the delegated
  future's ``get``), raising ``WaitTimeoutError`` / ``TaskError`` /
  ``BrokenMonitorError`` on the documented failure paths;
* ``handle_async(op, deadline, cancel)`` (services with
  ``supports_async``) is the coroutine twin driven by the asyncio lane in
  :mod:`repro.loadsim.aio` — same ops, same failure taxonomy, requests
  multiplexed onto one event loop through
  :class:`~repro.aio.AsyncMonitorClient`;
* ``monitors()`` exposes the monitor objects for the inspector's stall
  and obligation checks, and for partition freezing;
* ``attach_supervisors(seed)`` arms jittered
  :class:`~repro.resilience.supervision.ServerSupervisor`\\ s on every
  ActiveMonitor server the service owns (the worker-failure scenario's
  restart path).

Per-shard :class:`Bulkhead`\\ s bound how many workers can be blocked
*inside* one backend at a time: when a shard is partitioned (its monitor
lock frozen), at most ``bulkhead`` workers wedge on its lock — everyone
else fails fast at the bulkhead and the healthy shards keep their SLO.
That is the load-shedding half of graceful degradation; the admission
queue in :mod:`repro.loadsim.scenarios` is the other half.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import Any, Optional

from repro.active import ActiveMonitor, asynchronous
from repro.core import S
from repro.core.predicates import Predicate
from repro.problems.bounded_buffer import ActiveBoundedQueue
from repro.problems.multicast import AsyncChannelQueue, ChannelQueue
from repro.problems.pizza_store import (
    CAPACITY,
    N_INGREDIENTS,
    RESTOCK,
    MonitorStore,
    make_recipes,
)
from repro.resilience.supervision import ServerSupervisor, supervise
from repro.runtime.errors import WaitTimeoutError

__all__ = [
    "Bulkhead",
    "BufferService",
    "MulticastService",
    "PizzaStoreService",
    "SERVICES",
    "Service",
    "make_service",
]


class Bulkhead:
    """Deadline-bounded concurrency limiter for one backend shard."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._sem = threading.Semaphore(capacity)

    def acquire(self, deadline: Optional[float] = None) -> bool:
        """Take a slot, giving up at ``deadline``; False when saturated."""
        if deadline is None:
            return self._sem.acquire()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            # grab a free slot if one is available right now, else fail
            return self._sem.acquire(blocking=False)
        return self._sem.acquire(timeout=remaining)

    def release(self) -> None:
        self._sem.release()


class Service:
    """Base class for a monitor-backed service under open-loop load."""

    name = "service"
    #: True when the service implements :meth:`handle_async` — the
    #: coroutine request path the asyncio driver lane exercises
    supports_async = False

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.started = False
        self.supervisors: list[ServerSupervisor] = []
        #: shard ids currently partitioned (set by the partition scenario
        #: before the run so reports can split healthy vs partitioned)
        self.partitioned: set[int] = set()

    # ------------------------------------------------------------- life cycle
    def start(self) -> None:
        self.started = True

    def stop(self) -> None:
        self.started = False

    # -------------------------------------------------------------- requests
    def make_op(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def handle(self, op: Any, deadline: float, cancel=None) -> None:
        raise NotImplementedError

    async def handle_async(self, op: Any, deadline: float,
                           cancel=None) -> None:
        """Coroutine twin of :meth:`handle` — same ops, same failure
        taxonomy, driven from an event loop instead of a worker thread."""
        raise NotImplementedError(f"{self.name} has no asyncio lane")

    def group(self, op: Any) -> str:
        """Report group for one request ("all" unless partition-aware)."""
        return "all"

    # ----------------------------------------------------------- observation
    def monitors(self) -> list:
        return []

    def partition_targets(self, shard: int) -> list:
        """The monitors a partition scenario freezes (first ``shard``)."""
        raise NotImplementedError(f"{self.name} does not support partitions")

    def attach_supervisors(self, seed: int = 0, **kwargs) -> list:
        """Arm jittered supervisors on every server this service owns."""
        return []

    def _supervise_all(self, servers, seed: int, **kwargs) -> list:
        defaults = dict(jitter=True, backoff_base=0.01, backoff_cap=0.25,
                        max_restarts=5, max_elapsed=2.0)
        defaults.update(kwargs)
        self.supervisors = [
            supervise(s, seed=seed + i, **defaults)
            for i, s in enumerate(servers) if s is not None
        ]
        return self.supervisors


class BufferService(Service):
    """The bounded buffer as a service: delegated puts, deadline takes.

    ``put`` requests ride the ActiveMonitor delegation pipeline (a
    LightFuture with the request deadline on its ``get``), so killing the
    buffer's server thread mid-run exercises fail-fast futures, the
    supervisor restart, and the synchronous fallback.  ``take`` requests
    wait under the monitor with ``wait_until(..., deadline=)``.
    """

    name = "buffer"
    supports_async = True

    # the op mix leans slightly toward puts: a 50/50 mix is a driftless
    # random walk whose troughs hit an empty buffer, and takes that then
    # wait for the *next scheduled put* read as service timeouts at low
    # offered rates — supply starvation, not the overload under test
    def __init__(self, seed: int = 0, *, capacity: int = 128,
                 prefill: int = 16, put_fraction: float = 0.55):
        super().__init__(seed)
        self.capacity = capacity
        self.prefill = prefill
        self.put_fraction = put_fraction
        self.queue: Optional[ActiveBoundedQueue] = None
        self._aio_client = None
        self._take_ready = Predicate(S.count > 0)

    def start(self) -> None:
        self.queue = ActiveBoundedQueue(self.capacity, mode="async")
        self._aio_client = None  # clients bind to one loop; rebind per run
        for i in range(self.prefill):
            self.queue.put(i).get(timeout=5.0)
        super().start()

    def stop(self) -> None:
        if self.queue is not None:
            self.queue.shutdown()
        super().stop()

    def make_op(self, rng: random.Random) -> tuple:
        if rng.random() < self.put_fraction:
            return ("put", rng.randrange(1 << 16))
        return ("take",)

    def handle(self, op: tuple, deadline: float, cancel=None) -> None:
        if op[0] == "put":
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WaitTimeoutError("put deadline expired before submit")
            self.queue.put(op[1]).get(timeout=remaining, cancel=cancel)
        else:
            self.queue.take_until(deadline=deadline, cancel=cancel)

    async def handle_async(self, op: tuple, deadline: float,
                           cancel=None) -> None:
        """Coroutine request path: delegated puts, ``wait_until`` takes.

        ``put`` awaits the delegated call (awaitable backpressure in
        :meth:`AsyncMonitorClient.call` when the task queue is full);
        ``take`` parks a waiterless waiter on ``count > 0`` and then
        consumes through the guarded ``take_async`` delegation — the
        documented pairing for lockless-resume waits.  A call that ran in
        place is awaited as is; only a queued one is bounded by the
        request deadline through ``asyncio.wait_for``.
        """
        client = self._aio_client
        if client is None:
            from repro.aio import AsyncMonitorClient
            client = self._aio_client = AsyncMonitorClient(self.queue)
        if op[0] == "put":
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WaitTimeoutError("put deadline expired before submit")
            await _within(client.call("put", op[1]), remaining, "put")
        else:
            await client.wait_until(
                self._take_ready, deadline=deadline, cancel=cancel)
            remaining = max(deadline - time.monotonic(), 0.001)
            await _within(client.call("take_async"), remaining, "take")

    def monitors(self) -> list:
        return [self.queue] if self.queue is not None else []

    def attach_supervisors(self, seed: int = 0, **kwargs) -> list:
        return self._supervise_all([self.queue.server], seed, **kwargs)


async def _within(call, timeout: float, what: str) -> Any:
    """Await ``call`` — a future or a coroutine — for at most ``timeout``
    seconds.  A future that is already done is awaited directly, without
    ``asyncio.wait_for``'s helper task and timer."""
    if isinstance(call, asyncio.Future) and call.done():
        return await call
    try:
        return await asyncio.wait_for(call, timeout)
    except asyncio.TimeoutError:
        raise WaitTimeoutError(
            f"{what} not completed within deadline") from None


class _SupplyDesk(ActiveMonitor):
    """Delegated restocking: the pizza store's supply chain as an
    ActiveMonitor, so the worker-failure scenario has a server to kill
    (restocks stall or fail fast, cooks feel it as rising timeouts,
    the supervisor restarts the desk and the store recovers)."""

    def __init__(self, store: MonitorStore, **kwargs):
        super().__init__(**kwargs)
        self._store = store

    @asynchronous()
    def restock(self, ingredient: int, n: int) -> None:
        self._store.supply(ingredient, n)


class PizzaStoreService(Service):
    """The pizza store as a service: multisynch cooks with deadlines.

    Each request is one ``cook_until`` — a multi-monitor global AND wait
    (Fig. 4.7's shape) bounded by the request deadline.  A background
    supplier keeps ingredients stocked through the delegated
    :class:`_SupplyDesk`.
    """

    name = "pizza"

    # ``prefill`` (units per ingredient) and ``restock_interval`` set the
    # supply side: prefill CAPACITY + fast restocks = cooks rarely block;
    # a small prefill + slow restocks throttle cooks on ingredient waits,
    # which is how the overload lanes make the admission queue actually
    # back up and shed
    def __init__(self, seed: int = 0, *, strategy: str = "av",
                 restock_interval: float = 0.003,
                 prefill: int = CAPACITY):
        super().__init__(seed)
        self.strategy = strategy
        self.restock_interval = restock_interval
        self.prefill = prefill
        self.store: Optional[MonitorStore] = None
        self.desk: Optional[_SupplyDesk] = None
        self.recipes = make_recipes(seed=seed or 11)
        self._stop_evt = threading.Event()
        self._supplier: Optional[threading.Thread] = None

    def start(self) -> None:
        self.store = MonitorStore(self.strategy.upper())
        for i in range(N_INGREDIENTS):
            self.store.supply(i, self.prefill)
        self.desk = _SupplyDesk(self.store)
        self._stop_evt.clear()
        self._supplier = threading.Thread(
            target=self._supply_loop, name="loadsim-supplier", daemon=True
        )
        self._supplier.start()
        super().start()

    def _supply_loop(self) -> None:
        i = 0
        while not self._stop_evt.wait(self.restock_interval):
            # futures deliberately dropped: Rule 2 serializes this thread's
            # submissions, and a dead desk fails them fast (the outage the
            # worker-failure scenario measures)
            self.desk.restock(i % N_INGREDIENTS, RESTOCK)
            i += 1

    def stop(self) -> None:
        self._stop_evt.set()
        if self._supplier is not None:
            self._supplier.join(5.0)
        if self.desk is not None:
            self.desk.shutdown()
        super().stop()

    def make_op(self, rng: random.Random) -> dict:
        return self.recipes[rng.randrange(len(self.recipes))]

    def handle(self, op: dict, deadline: float, cancel=None) -> None:
        self.store.cook_until(op, deadline=deadline, cancel=cancel)

    def monitors(self) -> list:
        out: list = list(self.store.ingredients) if self.store else []
        if self.desk is not None:
            out.append(self.desk)
        return out

    def attach_supervisors(self, seed: int = 0, **kwargs) -> list:
        return self._supervise_all([self.desk.server], seed, **kwargs)


class MulticastService(Service):
    """Multicast channels as a sharded service with per-shard bulkheads.

    Requests put a message on a seeded-random channel; one drainer thread
    per channel takes messages off.  ``variant="sync"`` waits under the
    channel monitor (the partition scenario freezes a shard of these
    locks); ``variant="active"`` delegates puts to per-channel servers
    (the worker-failure scenario kills one).
    """

    name = "multicast"

    def __init__(self, seed: int = 0, *, n_channels: int = 4,
                 capacity: int = 64, variant: str = "sync",
                 bulkhead: int = 2):
        super().__init__(seed)
        if variant not in ("sync", "active"):
            raise ValueError(f"unknown multicast variant {variant!r}")
        self.n_channels = n_channels
        self.capacity = capacity
        self.variant = variant
        self.bulkhead_capacity = bulkhead
        self.channels: list = []
        self.bulkheads: list[Bulkhead] = []
        self._stop_evt = threading.Event()
        self._drainers: list[threading.Thread] = []

    def start(self) -> None:
        if self.variant == "sync":
            self.channels = [ChannelQueue(self.capacity, mode="sync")
                             for _ in range(self.n_channels)]
        else:
            self.channels = [AsyncChannelQueue(self.capacity, mode="async")
                             for _ in range(self.n_channels)]
        self.bulkheads = [Bulkhead(self.bulkhead_capacity)
                          for _ in range(self.n_channels)]
        self._stop_evt.clear()
        self._drainers = [
            threading.Thread(target=self._drain_loop, args=(i,),
                             name=f"loadsim-drain-{i}", daemon=True)
            for i in range(self.n_channels)
        ]
        for t in self._drainers:
            t.start()
        super().start()

    def _drain_loop(self, idx: int) -> None:
        channel = self.channels[idx]
        while not self._stop_evt.is_set():
            try:
                channel.take_until(deadline=time.monotonic() + 0.05)
            except WaitTimeoutError:
                continue

    def stop(self) -> None:
        self._stop_evt.set()
        for t in self._drainers:
            t.join(5.0)
        for ch in self.channels:
            ch.shutdown()
        super().stop()

    def make_op(self, rng: random.Random) -> tuple:
        return (rng.randrange(self.n_channels), rng.randrange(1 << 16))

    def handle(self, op: tuple, deadline: float, cancel=None) -> None:
        idx, value = op
        gate = self.bulkheads[idx]
        if not gate.acquire(deadline):
            raise WaitTimeoutError(
                f"channel {idx} bulkhead saturated past the deadline")
        try:
            channel = self.channels[idx]
            if self.variant == "sync":
                channel.put_until(value, deadline=deadline, cancel=cancel)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WaitTimeoutError(
                        "put deadline expired before submit")
                channel.put(value).get(timeout=remaining, cancel=cancel)
        finally:
            gate.release()

    def group(self, op: tuple) -> str:
        if not self.partitioned:
            return "all"
        return "partitioned" if op[0] in self.partitioned else "healthy"

    def monitors(self) -> list:
        return list(self.channels)

    def partition_targets(self, shard: int) -> list:
        shard = max(1, min(shard, self.n_channels - 1))
        self.partitioned = set(range(shard))
        return self.channels[:shard]

    def attach_supervisors(self, seed: int = 0, **kwargs) -> list:
        return self._supervise_all(
            [ch.server for ch in self.channels], seed, **kwargs)


SERVICES = {
    "buffer": BufferService,
    "pizza": PizzaStoreService,
    "multicast": MulticastService,
}


def make_service(name: str, seed: int = 0, **kwargs) -> Service:
    """Instantiate a service from the catalog (not yet started)."""
    try:
        cls = SERVICES[name]
    except KeyError:
        raise ValueError(
            f"unknown service {name!r}; known: {sorted(SERVICES)}") from None
    return cls(seed=seed, **kwargs)
