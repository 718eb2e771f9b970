"""Load-run reports, SLOs, and the ``BENCH_load_*.json`` shape.

:class:`LoadReport` is the single artifact a scenario run produces:
per-group outcome counts, per-group latency histograms, the windowed
degradation curve, and whatever extra context the scenario attached
(chaos statistics, supervisor restarts, inspector reports).

Two checks live here:

* :meth:`LoadReport.assert_accounted` — the liveness contract: every
  admitted request reached a terminal state (``admitted == completed +
  timed_out + failed_fast + errors``, ``in_flight == 0``).  A nonzero
  ``in_flight`` means a future or wait was *lost* — exactly the hang
  class the paper's Rules 1–3 and this repo's supervision lanes exist to
  prevent — so the failure message carries the inspector's stall and
  obligation diagnostics.
* :meth:`LoadReport.enforce` — the latency/shedding SLO gate used by the
  scenarios and the CI ``load-smoke`` lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.loadsim.recorder import OUTCOMES, LatencyRecorder, WindowedSeries

__all__ = ["LoadReport", "SLO", "SLOViolation"]


class SLOViolation(AssertionError):
    """An SLO check failed; carries the violations and diagnostics."""

    def __init__(self, violations: list[str], diagnostics: list[str]):
        self.violations = list(violations)
        self.diagnostics = list(diagnostics)
        lines = ["SLO violated:"] + [f"  - {v}" for v in violations]
        if diagnostics:
            lines.append("diagnostics:")
            lines += [f"  * {d}" for d in diagnostics]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class SLO:
    """A latency / shedding service-level objective.

    Latency bounds apply to *completed* requests (milliseconds).
    ``max_timeout_frac`` / ``max_shed_frac`` / ``max_failed_frac`` bound
    the fraction of admitted (for timeouts/failures) or offered (for
    sheds) requests allowed to miss.  ``None`` disables a bound.
    """

    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    max_timeout_frac: Optional[float] = None
    max_shed_frac: Optional[float] = None
    max_failed_frac: Optional[float] = None
    min_completed_frac: Optional[float] = None


class LoadReport:
    """Everything one scenario run observed."""

    def __init__(
        self,
        *,
        service: str,
        scenario: str,
        seed: int,
        params: dict[str, Any],
        counts: dict[str, dict[str, int]],
        latency: dict[str, LatencyRecorder],
        windows: WindowedSeries,
        elapsed: float,
        in_flight: int,
        diagnostics: Optional[list[str]] = None,
        extra: Optional[dict[str, Any]] = None,
    ):
        self.service = service
        self.scenario = scenario
        self.seed = seed
        self.params = params
        #: ``{group: {outcome: n}}`` — groups are "all", or
        #: "healthy"/"partitioned" for partition-aware services
        self.counts = counts
        self.latency = latency
        self.windows = windows
        self.elapsed = elapsed
        self.in_flight = in_flight
        self.diagnostics = list(diagnostics or [])
        self.extra = dict(extra or {})

    # ------------------------------------------------------------- aggregates
    def total(self, outcome: str) -> int:
        return sum(g.get(outcome, 0) for g in self.counts.values())

    @property
    def offered(self) -> int:
        """Requests the arrival schedule offered (admitted + shed)."""
        return self.admitted + self.total("shed")

    @property
    def admitted(self) -> int:
        return sum(
            g.get(k, 0)
            for g in self.counts.values()
            for k in ("completed", "timed_out", "failed_fast", "errors")
        ) + self.in_flight

    @property
    def throughput(self) -> float:
        """Completed requests per second of wall clock."""
        return self.total("completed") / self.elapsed if self.elapsed else 0.0

    def group_recorder(self, group: str = "all") -> LatencyRecorder:
        """Latency histogram for ``group`` ("all" merges every group)."""
        if group in self.latency:
            return self.latency[group]
        if group == "all":
            merged = LatencyRecorder()
            for rec in self.latency.values():
                merged.merge(rec)
            return merged
        raise KeyError(f"no latency group {group!r}; "
                       f"have {sorted(self.latency)}")

    # ----------------------------------------------------------------- checks
    def accounting_errors(self) -> list[str]:
        out = []
        if self.in_flight:
            out.append(
                f"{self.in_flight} request(s) never reached a terminal state "
                f"(lost futures / stuck waits)")
        for group, c in self.counts.items():
            unknown = set(c) - set(OUTCOMES)
            if unknown:
                out.append(f"group {group!r} has unknown outcomes {unknown}")
        return out

    def assert_accounted(self) -> None:
        """The liveness contract: every admitted request resolved."""
        problems = self.accounting_errors()
        if problems:
            raise SLOViolation(problems, self.diagnostics)

    def check(self, slo: SLO, group: str = "all") -> list[str]:
        """Evaluate ``slo`` against ``group``; returns violation strings."""
        violations = []
        rec = self.group_recorder(group)
        for name, bound in (("p50", slo.p50_ms), ("p95", slo.p95_ms),
                            ("p99", slo.p99_ms)):
            if bound is None:
                continue
            got = rec.percentile(float(name[1:])) * 1e3
            if got > bound:
                violations.append(
                    f"[{group}] {name} latency {got:.1f}ms > SLO {bound}ms")

        if group == "all":
            completed = self.total("completed")
            timed_out = self.total("timed_out")
            failed = self.total("failed_fast") + self.total("errors")
            shed = self.total("shed")
            admitted = self.admitted
        else:
            c = self.counts.get(group, {})
            completed = c.get("completed", 0)
            timed_out = c.get("timed_out", 0)
            failed = c.get("failed_fast", 0) + c.get("errors", 0)
            shed = c.get("shed", 0)
            admitted = completed + timed_out + failed

        offered = admitted + shed
        if slo.max_timeout_frac is not None and admitted:
            frac = timed_out / admitted
            if frac > slo.max_timeout_frac:
                violations.append(
                    f"[{group}] timeout fraction {frac:.3f} > "
                    f"SLO {slo.max_timeout_frac}")
        if slo.max_failed_frac is not None and admitted:
            frac = failed / admitted
            if frac > slo.max_failed_frac:
                violations.append(
                    f"[{group}] failure fraction {frac:.3f} > "
                    f"SLO {slo.max_failed_frac}")
        if slo.max_shed_frac is not None and offered:
            frac = shed / offered
            if frac > slo.max_shed_frac:
                violations.append(
                    f"[{group}] shed fraction {frac:.3f} > "
                    f"SLO {slo.max_shed_frac}")
        if slo.min_completed_frac is not None and offered:
            frac = completed / offered
            if frac < slo.min_completed_frac:
                violations.append(
                    f"[{group}] completed fraction {frac:.3f} < "
                    f"SLO {slo.min_completed_frac}")
        return violations

    def enforce(self, slo: SLO, group: str = "all") -> None:
        violations = self.accounting_errors() + self.check(slo, group)
        if violations:
            raise SLOViolation(violations, self.diagnostics)

    # -------------------------------------------------------------- serialize
    def to_dict(self) -> dict[str, Any]:
        """The ``BENCH_load_*.json`` record body (sans build stamp)."""
        totals = {k: self.total(k) for k in OUTCOMES}
        return {
            "service": self.service,
            "scenario": self.scenario,
            "seed": self.seed,
            "params": dict(self.params),
            "elapsed_s": round(self.elapsed, 4),
            "offered": self.offered,
            "admitted": self.admitted,
            "in_flight": self.in_flight,
            "throughput_rps": round(self.throughput, 2),
            "totals": totals,
            "groups": {
                g: {
                    "counts": dict(c),
                    "latency_ms": self.latency[g].summary_ms()
                    if g in self.latency else None,
                }
                for g, c in sorted(self.counts.items())
            },
            "latency_ms": self.group_recorder("all").summary_ms(),
            "windows": self.windows.series(),
            "diagnostics": list(self.diagnostics),
            "extra": self.extra,
        }

    def __repr__(self) -> str:
        lat = self.group_recorder("all").summary_ms()
        return (f"<LoadReport {self.service}/{self.scenario} "
                f"offered={self.offered} completed={self.total('completed')} "
                f"timed_out={self.total('timed_out')} "
                f"shed={self.total('shed')} in_flight={self.in_flight} "
                f"p99={lat['p99']}ms>")
