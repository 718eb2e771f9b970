#!/usr/bin/env python3
"""Pair comparison of two checkouts on the end-to-end benchmark.

Run pairs, alternating which side goes first (the seed is the same within
a pair and steps by one per pair), and append one JSON record per run::

    python3 benchmarks/e2e/compare.py run --base ../parent --head . \\
        --pairs 10 --out pairs.jsonl [--seed N]

Report one row per (metric, workload) from such a file::

    python3 benchmarks/e2e/compare.py report pairs.jsonl

Write the baseline record (median and quartiles of 5 runs at seed 11)::

    python3 benchmarks/e2e/compare.py baseline

Every workload runs, for ``run_seconds``, as ``BENCHMARK.json`` names them.
The verdicts follow the choosing-metrics rule, with each metric's bound
and direction read from this checkout's ``BENCHMARK.json``:

* ``gain``: the head wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the base's own
  quartile spread; a claim needs at least 10 pairs, so with fewer a
  gain-shaped row reads ``gain (too few pairs)``;
* ``regression``: the head's median is worse than the base's by more than
  the bound (a share of the base median);
* ``unresolved``: the base's quartile spread is wider than the bound,
  unless every head run reads better than every base run;
* ``within bound`` otherwise.

A ``fail_frac`` row per workload compares failed over attempted
operations; any increase is a regression.  The exit status is 1 when any
row is a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 180
BASELINE_RUNS = 5
BASELINE_SEED = 11


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


# -------------------------------------------------------------------- run

def run_once(checkout: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its last output line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(args) -> int:
    sides = {"base": pathlib.Path(args.base).resolve(),
             "head": pathlib.Path(args.head).resolve()}
    spec = load_spec()
    seconds = spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workload_names(spec):
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    result = run_once(sides[side], workload,
                                      args.seed + pair, seconds)
                    out.write(json.dumps({
                        "workload": workload, "side": side, "pair": pair,
                        "first": side == order[0], "seed": args.seed + pair,
                        "seconds": seconds, "finished": time.time(),
                        "result": result,
                    }) + "\n")
                    out.flush()
                print(f"{workload} pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr)
    return 0


# ----------------------------------------------------------------- report

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], head: list[float], bound: float,
            higher_better: bool) -> tuple[str, int]:
    """Verdict for one (metric, workload) and the head's pair wins.

    ``base[i]`` and ``head[i]`` come from pair ``i``.
    """
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    q1, med_b, q3 = quartiles(base)
    med_h = quartiles(head)[1]
    gap = sign * (med_h - med_b)
    if -gap > bound * abs(med_b):
        return "regression", wins
    all_better = (min(head) > max(base)) if higher_better \
        else (max(head) < min(base))
    if wins >= WIN_SHARE * len(base) and gap > q3 - q1:
        if len(base) < MIN_PAIRS:
            return "gain (too few pairs)", wins
        return "gain", wins
    if (q3 - q1) > bound * abs(med_b) and not all_better:
        return "unresolved", wins
    return "within bound", wins


def paired(records: list[dict], workload: str
           ) -> tuple[list[dict], list[dict]]:
    """Base and head results of ``workload``, aligned by pair index."""
    by_pair: dict[int, dict[str, dict]] = {}
    for r in records:
        if r["workload"] == workload:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [by_pair[p] for p in sorted(by_pair)
             if {"base", "head"} <= set(by_pair[p])]
    return [p["base"] for p in pairs], [p["head"] for p in pairs]


def report_rows(records: list[dict], spec: dict) -> list[dict]:
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        base, head = paired(records, workload)
        if not base:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            h = [r["metrics"][name]["value"] for r in head]
            word, wins = verdict(b, h, metric["bound"],
                                 metric["better"] == "higher")
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "base": quartiles(b), "head": quartiles(h),
                         "wins": wins, "pairs": len(b), "verdict": word})
        fail = [sum(r["failed"] for r in side)
                / max(1, sum(r["attempted"] for r in side))
                for side in (base, head)]
        rows.append({"workload": workload, "metric": "fail_frac",
                     "unit": "fraction", "bound": 0.0,
                     "base": (fail[0],) * 3, "head": (fail[1],) * 3,
                     "wins": 0, "pairs": len(base),
                     "verdict": "regression" if fail[1] > fail[0]
                     else "within bound"})
    return rows


def format_rows(rows: list[dict]) -> str:
    def cell(q: tuple) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = ["| workload | metric | bound | base median [q1, q3] "
             "| head median [q1, q3] | head wins | verdict |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| {r['workload']} | {r['metric']} ({r['unit']}) | "
            f"{r['bound']:g} | {cell(r['base'])} | {cell(r['head'])} | "
            f"{r['wins']}/{r['pairs']} | {r['verdict']} |")
    return "\n".join(lines)


def baseline(args) -> int:
    """Median and quartiles of each (metric, workload) over repeated runs
    at one seed, with the build block (the ``baseline.json`` record)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime.atomics import build_info

    spec = load_spec()
    seconds = spec["run_seconds"]
    record: dict = {"seed": BASELINE_SEED, "seconds": seconds,
                    "runs": BASELINE_RUNS, "build": build_info(),
                    "pinned_cpu": max(os.sched_getaffinity(0)),
                    "taken": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in workload_names(spec):
        results = [run_once(ROOT, workload, BASELINE_SEED, seconds)
                   for _ in range(BASELINE_RUNS)]
        metrics = {}
        for name, first in results[0]["metrics"].items():
            q1, med, q3 = quartiles(
                [r["metrics"][name]["value"] for r in results])
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "unit": first["unit"]}
        record["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        print(f"{workload}: {BASELINE_RUNS} runs done", file=sys.stderr)
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def report(args) -> int:
    with open(args.file) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    rows = report_rows(records, load_spec())
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating pairs")
    run.add_argument("--base", required=True, help="parent checkout")
    run.add_argument("--head", required=True, help="changed checkout")
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--seed", type=int, default=BASELINE_SEED,
                     help="seed of the first pair; each pair adds one")
    run.add_argument("--out", required=True, help="JSON-lines file")
    rep = sub.add_parser("report", help="tabulate a pairs file")
    rep.add_argument("file")
    base = sub.add_parser("baseline", help="write the baseline record")
    base.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    return {"run": run_pairs, "report": report, "baseline": baseline}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
