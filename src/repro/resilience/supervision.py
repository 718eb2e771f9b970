"""Server supervision: detect dead server threads, fail fast, restart.

A monitor server thread (§3.3) that dies — an injected fault, a bug in a
policy, an OOM-killed interpreter thread — used to leave every queued and
in-flight future pending forever, and every later ``submit`` feeding a
queue nobody drains.  Supervision closes that liveness hole:

1. the server loop's death handler fails all in-flight and queued futures
   *immediately* (``futures_failed_fast`` metric) — callers observe a
   :class:`~repro.runtime.errors.TaskError` instead of hanging;
2. an attached :class:`ServerSupervisor` then restarts the server thread
   under bounded exponential backoff (``server_restarts`` metric), up to
   ``max_restarts`` times, after which it gives up and the monitor degrades
   to synchronous execution (the paper's "asynchronous executions disabled"
   fallback, §1.6).

Attach with :func:`supervise`::

    box = ActiveBoundedQueue(64)
    sup = supervise(box, max_restarts=3)
"""

from __future__ import annotations

import random
import threading
import time
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.active.activemonitor import ActiveMonitor
    from repro.active.server import MonitorServer

__all__ = ["ServerSupervisor", "supervise"]


class ServerSupervisor:
    """Restart policy for one :class:`MonitorServer`.

    ``handle_death`` runs on the dying server thread (after it already
    failed the in-flight futures), so backoff sleeping costs no extra
    thread.  All decisions are serialized under one lock, making the
    poll-based :meth:`check` safe to call concurrently (e.g. from a
    :class:`~repro.resilience.inspector.Inspector` callback).
    """

    def __init__(
        self,
        server: "MonitorServer",
        *,
        max_restarts: int = 5,
        backoff_base: float = 0.01,
        backoff_factor: float = 2.0,
        backoff_cap: float = 1.0,
        jitter: bool = False,
        max_elapsed: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if max_elapsed is not None and max_elapsed < 0:
            raise ValueError("max_elapsed must be >= 0")
        self.server = server
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap
        #: decorrelated jitter (AWS-architecture-blog style): each delay is
        #: drawn from ``uniform(base, 3 * previous)``, capped.  Under chaos
        #: that kills many servers at once, deterministic exponential
        #: backoff synchronizes every restart into one thundering herd;
        #: decorrelation spreads them out while keeping the same envelope.
        self.jitter = jitter
        #: total restart *budget* in seconds: once the sum of backoff sleeps
        #: would exceed it, the supervisor gives up even with restarts left.
        self.max_elapsed = max_elapsed
        self._rng = random.Random(seed)
        self._prev_backoff = backoff_base
        self._backoff_spent = 0.0
        self._lock = threading.Lock()
        self._restarts = 0
        self.gave_up = False
        #: every death the supervisor fielded, in order
        self.deaths: list[Optional[BaseException]] = []
        server.supervisor = self

    # ------------------------------------------------------------- properties
    @property
    def restarts(self) -> int:
        return self._restarts

    @property
    def backoff_spent(self) -> float:
        """Total seconds slept in backoff so far (vs ``max_elapsed``)."""
        return self._backoff_spent

    def backoff_for(self, attempt: int) -> float:
        """Backoff before restart number ``attempt``.

        Plain bounded exponential by default; with ``jitter=True`` the
        delay is decorrelated — ``uniform(base, 3 * previous)``, capped —
        which keeps the first delay >= ``backoff_base`` and every delay
        <= ``backoff_cap`` but desynchronizes concurrent supervisors
        (deterministic for a given ``seed`` and call sequence).
        """
        if not self.jitter:
            return min(self.backoff_cap,
                       self.backoff_base * (self.backoff_factor ** attempt))
        delay = min(
            self.backoff_cap,
            self._rng.uniform(self.backoff_base, self._prev_backoff * 3.0),
        )
        self._prev_backoff = max(delay, self.backoff_base)
        return delay

    # ---------------------------------------------------------------- control
    def handle_death(self, exc: Optional[BaseException]) -> bool:
        """Field one server-thread death; returns True when restarted.

        Called by the server's death handler (in-flight futures are already
        failed at this point).  Sleeps the backoff, then respawns the
        server thread — unless the server was stopped deliberately, the
        restart budget is exhausted, or the registry denies a slot.
        """
        server = self.server
        with self._lock:
            self.deaths.append(exc)
            if server._stop:
                return False
            if self._restarts >= self.max_restarts:
                self.gave_up = True
                return False
            attempt = self._restarts
            delay = self.backoff_for(attempt)
            if (self.max_elapsed is not None
                    and self._backoff_spent + delay > self.max_elapsed):
                # the *budget* is exhausted even though restarts remain:
                # sleeping further would stretch the outage past what the
                # operator allowed, so degrade to synchronous execution now
                self.gave_up = True
                return False
            self._restarts += 1
            self._backoff_spent += delay
            time.sleep(delay)
            if server._stop:  # stop() raced the backoff: stay down
                return False
            restarted = server.restart()
            if restarted:
                server.monitor._metrics.add("server_restarts")
            else:
                self.gave_up = True
            return restarted

    def check(self) -> bool:
        """Poll-based detection: True when the server is healthy.

        Catches deaths that bypassed the in-thread handler (should not
        happen in pure Python, but belt-and-braces for embedders): a
        server claiming to be alive whose thread is gone is treated as a
        death with no exception.
        """
        server = self.server
        thread = server._thread
        if server.alive and thread is not None and not thread.is_alive():
            server._on_death(None)
            return False
        return server.alive

    def detach(self) -> None:
        """Stop supervising (the server keeps its fail-fast death handler)."""
        if self.server.supervisor is self:
            self.server.supervisor = None


def supervise(
    target: Union["ActiveMonitor", "MonitorServer"],
    **kwargs,
) -> ServerSupervisor:
    """Attach a :class:`ServerSupervisor` to a server or an ActiveMonitor.

    Raises ``ValueError`` for an ActiveMonitor running without a server
    (mode="sync", asynchronous execution disabled, or registry-denied).
    """
    server = getattr(target, "server", None) or target
    if not hasattr(server, "submit"):
        raise ValueError(f"{target!r} has no monitor server to supervise")
    return ServerSupervisor(server, **kwargs)
