"""Smoke and unit tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
tier-1: ``testpaths`` only covers ``tests/``).  The smoke tests run every
workload for 1 s, untraced and traced.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import compare
import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = run_bench(workload, 0)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_nested_spans(workload):
    out = run_bench(workload, 1)
    assert out["correct"] is True
    assert out["failed"] == 0
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    events = json.loads(
        (HERE / "results" / f"{workload}.trace.json").read_text())
    spans = [e for e in events["traceEvents"] if e["ph"] == "X"]
    assert spans
    by_id = {e["args"]["id"]: e for e in spans}
    for e in spans:
        assert e["args"]["self_us"] >= 0
        assert e["args"]["self_us"] <= e["dur"] + 1e-6
        parent = by_id.get(e["args"]["parent"])
        if parent is not None:
            assert parent["tid"] == e["tid"]
            assert parent["ts"] <= e["ts"] + 1e-6
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-6


def span(sid, parent, start, end):
    return (sid, parent, 0, start, end, sid)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 30),
        span(3, 1, 20, 50),      # overlaps its sibling: union is [10, 50)
        span(4, 1, 90, 120),     # runs past its parent: only [90, 100) counts
        span(5, 2, 12, 18),      # a grandchild is covered by its parent
        span(6, 99, 0, 5),       # parent still open: a root
    ]
    own = tracer.self_times(spans)
    assert own == {1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 5}
    assert tracer.nesting_errors(spans) == ["span 4 escapes its parent 1"]


def test_durations_skip_a_span_nested_in_one_of_the_same_name():
    t = tracer.Tracer()
    outer = t.wrap(lambda: inner(), "core.signal")
    inner = t.wrap(lambda: None, "core.signal")
    other = t.wrap(lambda: outer(), "core.park")
    other()
    durations = tracer.durations_by_name(t, 0, 2 ** 63)
    assert len(durations["core.signal"]) == 1
    assert len(durations["core.park"]) == 1
    (_, _, spans), = t.threads()
    assert tracer.nesting_errors(spans) == []
    assert len({s[5] for s in spans}) == 1   # one request id


def records(workload, metric, base, head, failed=(0, 0)):
    out = []
    for pair, (b, h) in enumerate(zip(base, head)):
        for side, value, fails in (("base", b, failed[0]),
                                   ("head", h, failed[1])):
            out.append({"workload": workload, "side": side, "pair": pair,
                        "result": {"attempted": 100, "failed": fails,
                                   "metrics": {metric: {"value": value}}}})
    return out


SPEC_ONE = {"end_to_end": [{"name": "ops_per_s", "unit": "ops/s",
                            "better": "higher", "bound": 0.1}]}


def verdicts(recs):
    return {r["metric"]: r["verdict"]
            for r in compare.report_rows(recs, SPEC_ONE)}


def test_compare_verdicts_on_fabricated_runs():
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    # clear, repeatable gain
    got = verdicts(records("w", "ops_per_s", steady, [x + 20 for x in steady]))
    assert got == {"ops_per_s": "gain", "fail_frac": "within bound"}
    # a gain shape on too few pairs is not a claim
    got = verdicts(records("w", "ops_per_s", steady[:5],
                           [x + 20 for x in steady[:5]]))
    assert got["ops_per_s"] == "gain (too few pairs)"
    # worse than the bound
    got = verdicts(records("w", "ops_per_s", steady, [x - 15 for x in steady]))
    assert got["ops_per_s"] == "regression"
    # same code within noise
    got = verdicts(records("w", "ops_per_s", steady, steady[::-1]))
    assert got["ops_per_s"] == "within bound"
    # base spread wider than the bound: unresolved, not unchanged
    noisy = [60, 140, 70, 130, 80, 120, 65, 135, 75, 125]
    got = verdicts(records("w", "ops_per_s", noisy, noisy[::-1]))
    assert got["ops_per_s"] == "unresolved"
    # ... unless every head run beats every base run
    got = verdicts(records("w", "ops_per_s", noisy, [200] * 10))
    assert got["ops_per_s"] == "gain"
    # more failures than the parent is a regression
    got = verdicts(records("w", "ops_per_s", steady, steady, failed=(0, 1)))
    assert got["fail_frac"] == "regression"


def test_compare_quartiles_match_the_statistics_module():
    import statistics
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = compare.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
