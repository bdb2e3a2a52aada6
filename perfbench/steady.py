"""Steadiness check: run each workload once per seed and print the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workloads suite_cold serve_warm --seeds 1 2 3 4 5

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
bound ``BENCHMARK.json`` allows; plus the share of failed operations of
every run.  Every run uses the ``run_seconds`` of ``BENCHMARK.json``.
Three unbounded rows follow, read from each run's log: the throughput and
median latency in raw wall seconds and the host's speed factor, the
figures before ``hostspeed`` takes the host's speed out.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Unbounded rows read from the run's log.
RAW = ("raw req_per_s", "raw latency_p50_s", "host speed factor")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["run_seconds"] = time.perf_counter() - start
    raw = re.search(r"raw req_per_s ([\d.]+), raw latency_p50_s ([\d.]+), "
                    r"host speed factor ([\d.]+)", out.stderr)
    for name, value in zip(RAW, raw.groups()):
        result["metrics"][name] = {"value": float(value)}
    return result


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            runs.append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: {result['run_seconds']:.1f}s correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"req_per_s {values['req_per_s']:.4g} latency_p50_s {values['latency_p50_s']:.4g} "
                  f"host speed factor {values['host speed factor']:.3f}", flush=True)
        print(f"\n{workload}: {len(runs)} runs, failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = f"{bounds[name]:6.2f}" if name in bounds else f"{'-':>6s}"
            print(f"  {name:34s} {mid:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bound}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
