#!/usr/bin/env python3
"""End-to-end benchmark of the monitor framework.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]]

Each workload runs in fresh child processes pinned to one CPU: one that
sets up, warms up for 1 s, measures for ``--seconds`` and checks its
outputs, and four that only set up (two before it, two after) for
``setup_s``.  Children keep bytecode in the benchmark's own cache under
``benchmarks/e2e/results/``, filled by one untimed set-up process first.  The untraced run prints every end-to-end metric of
``BENCHMARK.json``; timings that are CPU work are scaled to the reference
host speed (:mod:`hostspeed`) and printed beside their unscaled values.
``--trace`` instead runs the workload untraced and then traced (half of
``--seconds`` each), prints every per-layer metric, and writes the spans
as Chrome trace-event JSON to
``benchmarks/e2e/results/<workload>.trace.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A failed correctness check prints no metric values and exits 1.  Without
``--workload`` all five workloads run in turn and the metric names are
prefixed with the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

DEFAULT_SEED = 11
DEFAULT_SECONDS = 15.0
WARMUP_S = 1.0
#: setup_s is the median over this many fresh processes
SETUP_RUNS = 5
#: the host probe runs before and after each workload; the run is flagged
#: noisy when the two differ by more than NOISY_FRAC (reported, not a metric)
REFERENCE_REPEATS = 50
NOISY_FRAC = 0.20
#: a child gets warm-up + timed phase + this long before it is killed
CHILD_GRACE_S = 60.0
#: every workload process runs on this one CPU (see README, Load policy)
CPU = max(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """A child process failed or its output could not be read."""


# ------------------------------------------------------------------ child

def child(cfg: dict) -> dict:
    """One workload process: set up, and unless ``mode == "setup"`` run,
    tear down and check.  Returns the raw measurements."""
    import resource

    os.sched_setaffinity(0, {cfg["cpu"]})
    import workloads

    tracing = recorder = None
    if cfg["trace"]:
        import tracer as tracing
        recorder = tracing.Tracer()
        tracing.install(recorder)
        recorder.arrival_thread = threading.get_ident()
    wl = workloads.WORKLOADS[cfg["workload"]](
        cfg["seed"], WARMUP_S, cfg["seconds"])
    wl.setup()
    out: dict = {"setup_s": time.monotonic() - cfg["spawned"],
                 "setup_speed": hostspeed.speed(hostspeed.probe_ms())}
    if cfg["mode"] == "setup":
        wl.teardown()
        return out
    begins: list = []
    if recorder is not None and isinstance(wl, workloads.OpenLoop):
        wl.on_begin = lambda scheduled, began: begins.append((scheduled, began))
    wl.run()
    wl.teardown()
    meter = wl.meter
    out.update({
        "problems": wl.errors + wl.check(),
        "open_loop": isinstance(wl, workloads.OpenLoop),
        "latency_is_cpu_work": wl.latency_is_cpu_work,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "ops": meter.ops,
        "slices": meter.slices(),
        "latency_samples": meter.merged().n,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extra": wl.extra(),
    })
    if recorder is not None:
        t0 = int(meter.t0 * 1e9)
        out["layers"] = tracing.per_layer(
            recorder, meter, begins, wl.worker_threads,
            out["extra"].get("loop_probe", {}))
        out["table"] = tracing.layer_table(recorder, t0, int(meter.t1 * 1e9))
        for _, _, spans in recorder.threads():
            out["problems"] += tracing.nesting_errors(spans)[:5]
        RESULTS.mkdir(exist_ok=True)
        out["trace_events"] = tracing.write_chrome_trace(
            recorder, RESULTS / f"{cfg['workload']}.trace.json", t0)
    return out


def spawn(workload: str, seed: int, seconds: float, mode: str,
          trace: bool) -> dict:
    """Run :func:`child` in a fresh interpreter and return its result."""
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "mode": mode, "trace": trace, "cpu": CPU}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # bytecode lives in the benchmark's own cache, written on first use, so
    # set-up time never depends on stray __pycache__ directories
    env["PYTHONPYCACHEPREFIX"] = str(RESULTS / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cfg["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", json.dumps(cfg)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=WARMUP_S + seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} ({mode}) printed no result:\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:]) from None


# ----------------------------------------------------------------- parent

def slice_metrics(run: dict, scaled: bool = True) -> dict[str, float]:
    """Median over the slices of the timed phase.

    With ``scaled``, what is CPU work is first brought to the reference
    host speed, slice by slice: CPU per request always, a closed loop's
    throughput, and latency where the workload's latency is mostly CPU
    work.  An open loop's throughput is set by its arrival schedule and is
    reported as measured.
    """
    s = run["slices"]
    ones = [1.0] * len(s["speed"])
    cpu = s["speed"] if scaled else ones
    rate = ones if run["open_loop"] else cpu
    latency = cpu if run["latency_is_cpu_work"] else ones
    return {
        "ops_per_s": statistics.median(
            v / f for v, f in zip(s["ops_per_s"], rate)),
        "p50_ms": statistics.median(
            v * f for v, f in zip(s["p50_ms"], latency)),
        "cpu_us_per_req": statistics.median(
            v * f for v, f in zip(s["cpu_us_per_req"], cpu)),
    }


def headline(run: dict) -> float:
    """The workload's headline: p50 latency (open) or throughput (closed)."""
    return slice_metrics(run)["p50_ms" if run["open_loop"] else "ops_per_s"]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    def setup_only() -> dict:
        return spawn(workload, seed, seconds, "setup", False)

    # set-up samples straddle the measured run, so they see more than one
    # few-second phase of the host's speed
    setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
    run = spawn(workload, seed, seconds, "run", False)
    setups.append(run)
    setups += [setup_only() for _ in range(SETUP_RUNS - len(setups))]
    values = dict(
        slice_metrics(run),
        setup_s=statistics.median(s["setup_s"] * s["setup_speed"]
                                  for s in setups),
        rss_mb=run["rss_mb"])
    raw = dict(slice_metrics(run, scaled=False),
               setup_s=statistics.median(s["setup_s"] for s in setups))
    return {"values": values, "raw": raw, "runs": [run],
            "setup_samples": [[s["setup_s"], s["setup_speed"]]
                              for s in setups]}


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    half = max(1.0, seconds / 2)
    plain = spawn(workload, seed, half, "run", False)
    traced = spawn(workload, seed, half, "run", True)
    values = dict(traced["layers"])
    # tail latency comes from the untraced half: tracing perturbs it
    tail = plain["extra"]
    for name, key in (("loadsim.p99_ms", "p99_ms"),
                      ("loadsim.p99_ms.run", "p99_ms_run"),
                      ("loadsim.samples", "samples"),
                      ("loadsim.slo_miss_frac", "slo_miss_frac")):
        values[name] = tail.get(key, 0.0)
    base, slow = headline(plain), headline(traced)
    values["trace.overhead_frac"] = (
        slow / base - 1 if plain["open_loop"] else base / slow - 1)
    return {"values": values, "runs": [plain, traced],
            "table": traced["table"], "trace_events": traced["trace_events"]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    """Run one workload; returns the full result (metrics + context)."""
    spawn(workload, seed, seconds, "setup", False)   # fills the bytecode cache
    ref_before = hostspeed.probe_ms(REFERENCE_REPEATS)
    result = (per_layer if trace else end_to_end)(workload, seed, seconds)
    ref_after = hostspeed.probe_ms(REFERENCE_REPEATS)
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["values"]]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    runs = result["runs"]
    result.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "correct": not any(r["problems"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": result["values"][m["name"]],
                                "unit": m["unit"]} for m in declared},
        "host_probe_ms": [ref_before, ref_after],
        "noisy": abs(ref_after - ref_before) > NOISY_FRAC * min(
            ref_before, ref_after),
    })
    RESULTS.mkdir(exist_ok=True)
    suffix = "layers" if trace else "result"
    (RESULTS / f"{workload}.{suffix}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    """Print one workload's human-readable section."""
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  seconds={result['seconds']}  "
          f"trace={int(result['trace'])}")
    if not result["correct"]:
        for p in result["problems"]:
            print(f"{w}: CHECK FAILED: {p}", file=sys.stderr)
        return
    raw = result.get("raw", {})
    for name, m in result["metrics"].items():
        print(f"{w:18s} {name:34s} {m['value']:16.6g} {m['unit']}"
              + (f"  (unscaled {raw[name]:.6g})" if name in raw else ""))
    ref = result["host_probe_ms"]
    print(f"{w:18s} attempted={result['attempted']} failed={result['failed']}"
          f" fail_frac={result['failed'] / max(1, result['attempted']):.6g}")
    run = result["runs"][0]
    speed = run["slices"]["speed"]
    print(f"{w:18s} host probe {ref[0]:.4f} -> {ref[1]:.4f} ms"
          + ("  NOISY" if result["noisy"] else "")
          + f"; speed in the timed phase {min(speed):.3f}-{max(speed):.3f}"
          f" x reference")
    if result["trace"]:
        print(f"{w:18s} {'span':22s} {'n':>9s} {'p50_us':>10s} "
              f"{'p99_us':>10s} {'self_ms':>10s}")
        for row in result["table"]:
            print(f"{w:18s} {row['span']:22s} {row['n']:9d} "
                  f"{row['p50_us']:10.2f} {row['p99_us']:10.2f} "
                  f"{row['self_ms']:10.1f}")
        print(f"{w:18s} trace: {result['trace_events']} events in "
              f"{RESULTS / (w + '.trace.json')}")
    else:
        print(f"{w:18s} setup samples (s @ speed): " + " ".join(
            f"{s:.4f}@{f:.2f}" for s, f in result["setup_samples"]))
        print(f"{w:18s} latency samples: {run['latency_samples']}")
        if run["open_loop"]:
            x = run["extra"]
            print(f"{w:18s} reported, not gated: p99 {x['p99_ms']:.4f} ms "
                  f"(median of 1-s windows, samples/window "
                  f"{min(x['window_samples'])}-{max(x['window_samples'])}), "
                  f"whole-run p99 {x['p99_ms_run']:.4f} ms over "
                  f"{x['samples']} samples, slo_miss_frac "
                  f"{x['slo_miss_frac']:.6g}")


def summary(results: list[dict], prefix: bool) -> dict:
    """The last line: correctness, counts and metrics of every workload."""
    correct = all(r["correct"] for r in results)
    metrics = {}
    if correct:
        for r in results:
            for name, m in r["metrics"].items():
                metrics[f"{r['workload']}.{name}" if prefix else name] = m
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's "
                        "workloads (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", "--duration", type=float,
                        default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(json.loads(args.child))))
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"run.py: needs the repro sources at {SRC} and {SPEC}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"--workload must be one of {known}")
    names = [args.workload] if args.workload else known
    results = []
    try:
        for w in names:
            result = measure(w, args.seed, args.seconds, bool(args.trace),
                             spec)
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    out = summary(results, prefix=args.workload is None)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
